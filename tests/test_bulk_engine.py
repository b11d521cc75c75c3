"""Bulk-engine unit tests: int64 L-float kernels, capability envelope,
protocol-variant equivalence, ledger laziness, CLI resolution.

The cross-engine differential matrix lives in
``test_engine_equivalence.py``; this file covers the bulk engine's own
moving parts — the vectorized arithmetic kernels against the scalar
:class:`~repro.arithmetic.lfloat.LFloat` reference, the dispatcher's
capability rejections with their reasons, protocol variants on fixed
and generated graphs, the fast path's sampling audit, and the lazily
materialized node ledgers the fast path leaves behind.
"""

import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.arithmetic import make_context
from repro.arithmetic.lfloat import LFloat, Rounding
from repro.congest import Simulator
from repro.congest.stats import CutTracker, SimulationStats
from repro.core import distributed_betweenness
from repro.core.config import ProtocolConfig
from repro.core.node import make_node_factory
from repro.engines import bulk, bulk_capability, reset_probe
from repro.engines.lfmath import bit_length, lf_add, lf_mul, lf_reciprocal
from repro.exceptions import (
    EngineCapabilityError,
    ReproError,
    SimulationNotTerminatedError,
    WireCodecError,
)
from repro.graphs import (
    Graph,
    balanced_tree,
    connected_erdos_renyi_graph,
    cycle_graph,
    figure1_graph,
    path_graph,
    star_graph,
)

from .conftest import connected_graphs


# ----------------------------------------------------------------------
# lfmath kernels vs the scalar LFloat reference (randomized)
# ----------------------------------------------------------------------
def _random_lfloats(rng, L, count, lim=None):
    """Random valid L-floats: normalized mantissa or zero, mixed signs
    of exponent, in (mantissa, exponent) lanes plus scalar twins."""
    ms, es, scalars = [], [], []
    # Exponents stay clear of the +/-(2**L - 1) legality bound so that
    # results (add shifts by one, reciprocal negates and adds one) stay
    # representable too.  Callers combining two operands (mul sums the
    # exponents) pass a tighter lim.
    if lim is None:
        lim = min(20, (1 << L) - 2)
    for _ in range(count):
        if rng.random() < 0.1:
            m, e = 0, 0
        else:
            m = rng.randrange(1 << (L - 1), 1 << L)
            e = rng.randrange(-lim, lim + 1)
        ms.append(m)
        es.append(e)
        scalars.append(LFloat(m, e, L))
    return np.array(ms, dtype=np.int64), np.array(es, dtype=np.int64), scalars


@pytest.mark.parametrize("L", [4, 8, 17, 30])
@pytest.mark.parametrize("mode", list(Rounding))
def test_lf_mul_matches_scalar(L, mode):
    rng = random.Random(1000 + L)
    lim = min(10, ((1 << L) - 2) // 2)
    ma, ea, sa = _random_lfloats(rng, L, 200, lim=lim)
    mb, eb, sb = _random_lfloats(rng, L, 200, lim=lim)
    rm, re = lf_mul(ma, ea, mb, eb, L, mode.value)
    for i in range(len(sa)):
        want = sa[i].mul(sb[i], mode)
        assert (int(rm[i]), int(re[i])) == (want.mantissa, want.exponent), i


@pytest.mark.parametrize("L", [4, 8, 17, 30])
@pytest.mark.parametrize("mode", list(Rounding))
def test_lf_add_matches_scalar(L, mode):
    rng = random.Random(2000 + L)
    ma, ea, sa = _random_lfloats(rng, L, 200)
    mb, eb, sb = _random_lfloats(rng, L, 200)
    # Force exponent ties into the sample: the adder breaks them by
    # operand order, the classic off-by-one spot.
    ea[:40] = eb[:40]
    sa[:40] = [
        LFloat(int(m), int(e), L) for m, e in zip(ma[:40], ea[:40])
    ]
    rm, re = lf_add(ma, ea, mb, eb, L, mode.value)
    for i in range(len(sa)):
        want = sa[i].add(sb[i], mode)
        assert (int(rm[i]), int(re[i])) == (want.mantissa, want.exponent), i


@pytest.mark.parametrize("L", [4, 8, 17, 30])
def test_lf_reciprocal_matches_scalar(L):
    rng = random.Random(3000 + L)
    m, e, scalars = _random_lfloats(rng, L, 200)
    nonzero = m != 0
    m, e = m[nonzero], e[nonzero]
    scalars = [s for s in scalars if s.mantissa != 0]
    rm, re = lf_reciprocal(m, e, L)
    for i, s in enumerate(scalars):
        want = s.reciprocal(Rounding.FLOOR)
        assert (int(rm[i]), int(re[i])) == (want.mantissa, want.exponent), i


def test_bit_length_matches_int_bit_length():
    values = np.array(
        [0, 1, 2, 3, 4, 7, 8, 255, 256, (1 << 31) - 1, 1 << 31, (1 << 62) - 1],
        dtype=np.int64,
    )
    got = bit_length(values)
    want = [int(v).bit_length() for v in values]
    assert got.tolist() == want


# ----------------------------------------------------------------------
# capability envelope: every rejection carries a usable reason
# ----------------------------------------------------------------------
def _expect_rejection(match, graph=None, **kwargs):
    with pytest.raises(EngineCapabilityError, match=match):
        distributed_betweenness(
            graph if graph is not None else figure1_graph(),
            arithmetic=kwargs.pop("arithmetic", "lfloat"),
            engine="bulk",
            **kwargs
        )


def test_bulk_rejects_exact_arithmetic():
    _expect_rejection("L-float", arithmetic="exact")


def test_bulk_rejects_oversized_precision():
    _expect_rejection(r"precision 31", arithmetic="lfloat-31")


def test_bulk_rejects_fault_injection():
    from repro.faults import FaultPlan

    _expect_rejection("fault injection", faults=FaultPlan(drop_rate=0.5))


def test_bulk_rejects_single_node_graph():
    arith = make_context("lfloat", 1)
    with pytest.raises(EngineCapabilityError, match="two nodes"):
        Simulator(Graph(1, name="k1"), make_node_factory(0, arith), engine="bulk")


def test_bulk_rejects_disconnected_graph():
    # The pipeline validates connectivity before building a simulator, so
    # hit the dispatcher's own check through the Simulator constructor.
    graph = Graph(4, [(0, 1), (2, 3)], name="two-islands")
    arith = make_context("lfloat", 4)
    with pytest.raises(EngineCapabilityError, match="not connected"):
        Simulator(graph, make_node_factory(0, arith), engine="bulk")


def test_bulk_rejects_out_of_range_sources():
    _expect_rejection(
        "outside the graph",
        config=ProtocolConfig(sources=frozenset({0, 99})),
    )


def test_bulk_rejects_non_protocol_nodes():
    from repro.congest import NodeAlgorithm

    class _Custom(NodeAlgorithm):
        def on_round(self, ctx, inbox):
            self.done = True

    with pytest.raises(EngineCapabilityError, match="BetweennessNode"):
        Simulator(path_graph(3), _Custom, engine="bulk")


def test_auto_reports_capable_for_stock_runs():
    arith = make_context("lfloat", 5)
    sim = Simulator(path_graph(5), make_node_factory(0, arith), engine="sweep")
    capable, reason = bulk_capability(sim)
    assert capable, reason


# ----------------------------------------------------------------------
# protocol variants through the bulk schedule
# ----------------------------------------------------------------------
def _node_state(node):
    """A node's protocol end-state, ledger rows included."""
    tree, counting, agg = node.tree, node.counting, node.aggregation
    ledger = node.ledger
    rows = []
    for source in sorted(ledger.sources()):
        rec = ledger.get(source)
        rows.append((
            source, rec.start_time, rec.dist, repr(rec.sigma),
            tuple(rec.preds), repr(rec.psi),
        ))
    return (
        node.done,
        tree.dist, tree.parent, sorted(tree.children), tree.num_nodes,
        tree.census_round,
        counting.visited, counting._token_forward_round,
        counting._next_child_index, counting.own_start_time,
        counting.dfs_complete_round, counting.counting_result,
        counting.result_round,
        agg.finished_round, agg._send_rounds, agg._send_cursor,
        repr(agg.betweenness_raw),
        rows,
    )


def _fp(result):
    return (
        sorted(result.betweenness.items()),
        result.diameter,
        result.rounds,
        sorted(result.start_times.items()),
        result.stats.summary(),
        result.stats.round_series,
        [_node_state(node) for node in result.nodes],
    )


VARIANT_GRAPHS = [
    figure1_graph(),
    balanced_tree(2, 3),
    connected_erdos_renyi_graph(16, 0.2, seed=2),
    star_graph(5),
]


@pytest.mark.parametrize("graph", VARIANT_GRAPHS, ids=lambda g: g.name)
@pytest.mark.parametrize(
    "variant",
    [
        "stress", "subset-sources", "no-aggregate", "cut", "root-shift",
        "single-source", "single-source-no-aggregate",
    ],
)
def test_bulk_matches_sweep_on_variants(graph, variant):
    # One source leaves the DFS token walking after the protocol ends;
    # the run stops at the first silent round, mid-walk.
    n = graph.num_nodes
    kwargs = {
        "stress": {"config": ProtocolConfig(unit="stress")},
        "subset-sources": {
            "config": ProtocolConfig(sources=frozenset({0, n // 2, n - 1}))
        },
        "no-aggregate": {"config": ProtocolConfig(aggregate=False)},
        "cut": {"cut": set(range(n // 2))},
        "root-shift": {"root": 3},
        "single-source": {"config": ProtocolConfig(sources=frozenset({0}))},
        "single-source-no-aggregate": {
            "config": ProtocolConfig(sources=frozenset({0}), aggregate=False)
        },
    }[variant]
    runs = {
        engine: _fp(
            distributed_betweenness(
                graph, arithmetic="lfloat", engine=engine, **kwargs
            )
        )
        for engine in ("sweep", "bulk")
    }
    assert runs["sweep"] == runs["bulk"]


# ----------------------------------------------------------------------
# the edge-round reduction against a per-send reference
# ----------------------------------------------------------------------
@st.composite
def _random_tables(draw):
    """Random broadcast/unicast tables on a small graph, dense enough
    (few rounds, few widths) that edge-round totals tie often."""
    graph = draw(connected_graphs(max_nodes=5))
    n = graph.num_nodes
    rounds = draw(st.integers(min_value=1, max_value=2))
    cells = st.tuples(
        st.integers(min_value=0, max_value=rounds - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    bcast = draw(st.lists(
        st.tuples(cells, st.sampled_from([0, 4, 6]), st.integers(1, 2)),
        min_size=1, max_size=6,
    ))
    ucast = []
    for (r, v), slot, bits, pick in draw(st.lists(
        st.tuples(
            cells, st.sampled_from([1, 5, 10]), st.integers(1, 2),
            st.integers(min_value=0),
        ),
        min_size=1, max_size=16,
    )):
        nbrs = graph.neighbors(v)
        # seq keeps (round, sender, slot, seq) unique, as drain order is.
        ucast.append((r, v, nbrs[pick % len(nbrs)], bits, slot, len(ucast)))
    cut = draw(st.none() | st.frozensets(st.integers(0, n - 1), min_size=1))
    return graph, rounds, bcast, ucast, cut


def _reference_stats(graph, rounds, bcast, ucast, cut):
    """One send at a time in drain order through ``observe_round``."""
    n = graph.num_nodes
    sends = []
    for (r, v), slot, bits in bcast:
        for seq, u in enumerate(graph.neighbors(v)):
            sends.append((((r * n + v) * 16 + slot) * n + seq, r, v, u, bits))
    for r, v, u, bits, slot, seq in ucast:
        sends.append((((r * n + v) * 16 + slot) * n + seq, r, v, u, bits))
    sends.sort()
    stats = SimulationStats()
    stats.cut = CutTracker(cut) if cut is not None else None
    for round_number in range(rounds):
        stats.start_round()
        edge_load = {}
        for _rank, r, v, u, bits in sends:
            if r == round_number:
                load = edge_load.setdefault((v, u), [0, 0])
                load[0] += 1
                load[1] += bits
        if edge_load:
            stats.observe_round(round_number, edge_load)
    return stats


@settings(max_examples=150, deadline=None)
@given(_random_tables())
@example((
    # Node 1's edges tie at the maximum; the unicasts alone would pick
    # 1 -> 2, but the broadcast reaches 1 -> 0 first.
    path_graph(3), 1, [((0, 1), 4, 2)],
    [(0, 1, 0, 1, 10, 0), (0, 1, 2, 1, 5, 1)], None,
))
def test_edge_round_groups_match_a_per_send_reduction(tables):
    graph, rounds, bcast, ucast, cut = tables
    n = graph.num_nodes
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(graph.neighbors(v)) for v in range(n)])
    indices = np.array(
        [u for v in range(n) for u in graph.neighbors(v)], dtype=np.int64
    )
    b = np.array([(r, v, slot, bits) for (r, v), slot, bits in bcast])
    u = np.array(ucast, dtype=np.int64)
    rank = ((u[:, 0] * n + u[:, 1]) * 16 + u[:, 4]) * n + u[:, 5]
    stats = SimulationStats()
    stats.cut = CutTracker(cut) if cut is not None else None
    bulk.populate_stats(stats, rounds, bulk.edge_round_groups(
        indptr, indices, tuple(b.T), (u[:, 0], u[:, 1], u[:, 2], u[:, 3], rank),
    ))
    want = _reference_stats(graph, rounds, bcast, ucast, cut)
    assert stats.summary() == want.summary()
    assert stats.round_series == want.round_series
    if cut is not None:
        assert stats.cut.bits_per_round == want.cut.bits_per_round


# ----------------------------------------------------------------------
# generated graphs: bulk against event on every observable
# ----------------------------------------------------------------------
@st.composite
def _bulk_runs(draw):
    """A generated graph and a random mix of the protocol variants."""
    graph = draw(connected_graphs(max_nodes=20))
    nodes = st.integers(min_value=0, max_value=graph.num_nodes - 1)
    kwargs = {
        "config": ProtocolConfig(
            sources=draw(
                st.none() | st.frozensets(nodes, min_size=1, max_size=3)
            ),
            unit=draw(st.sampled_from(["betweenness", "stress"])),
            aggregate=draw(st.booleans()),
        )
    }
    if draw(st.booleans()):
        kwargs["cut"] = draw(st.frozensets(nodes, min_size=1))
    if draw(st.booleans()):
        kwargs["root"] = draw(nodes)
    if draw(st.booleans()):
        kwargs["congest_factor"] = 7
    return graph, kwargs


def _outcome(graph, engine, kwargs):
    """Every observable of one run, or the error it raised."""
    try:
        result = distributed_betweenness(
            graph, arithmetic="lfloat", engine=engine, **kwargs
        )
    except ReproError as exc:
        return type(exc).__name__, str(exc)
    stats = result.stats
    return (
        repr(sorted(result.betweenness.items())),
        result.rounds,
        stats.summary(),
        stats.round_series,
        stats.cut.bits_per_round if stats.cut is not None else None,
        [_node_state(node) for node in result.nodes],
    )


@settings(max_examples=60, deadline=None)
@given(_bulk_runs())
def test_bulk_matches_event_on_generated_graphs(run):
    graph, kwargs = run
    assert _outcome(graph, "bulk", kwargs) == _outcome(graph, "event", kwargs)


# ----------------------------------------------------------------------
# round-limit overruns raise where the round loop raises
# ----------------------------------------------------------------------
@pytest.mark.parametrize("short", [2, 1, 0])
def test_round_limit_overrun_matches_sweep(short):
    # The round loop checks the limit before it tests for termination,
    # so a limit one round short of the run fails too.
    graph = balanced_tree(2, 3)
    factory = make_node_factory(
        0,
        make_context("lfloat", graph.num_nodes),
        config=ProtocolConfig(sources=frozenset({0})),
    )
    rounds = Simulator(graph, factory, engine="sweep").run().rounds

    def outcome(engine):
        sim = Simulator(graph, factory, engine=engine, max_rounds=rounds - short)
        try:
            sim.run()
        except SimulationNotTerminatedError as exc:
            return str(exc), sim.stats.round_series
        return "finished", sim.stats.round_series

    assert outcome("bulk") == outcome("sweep")


# ----------------------------------------------------------------------
# the fast path's sampling audit catches mis-billed widths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["bfs_wave", "agg_value"])
def test_sampling_audit_catches_a_misbilled_width(monkeypatch, kind):
    # One broadcast kind, then one unicast kind, billed a bit too wide:
    # the plain fast path (no tracer, no frame audit) must notice.
    widths = bulk._widths

    def skewed(*args):
        out = widths(*args)
        out[kind] += 1
        return out

    monkeypatch.setattr(bulk, "_widths", skewed)
    with pytest.raises(WireCodecError, match="charged"):
        distributed_betweenness(
            connected_erdos_renyi_graph(16, 0.2, seed=2),
            arithmetic="lfloat",
            engine="bulk",
        )


# ----------------------------------------------------------------------
# lazy ledgers: the fast path defers per-source record construction
# ----------------------------------------------------------------------
def test_bulk_ledger_is_lazy_then_complete():
    graph = cycle_graph(8)
    bulk = distributed_betweenness(graph, arithmetic="lfloat", engine="bulk")
    sweep = distributed_betweenness(graph, arithmetic="lfloat", engine="sweep")
    for b_node, s_node in zip(bulk.nodes, sweep.nodes):
        assert sorted(b_node.ledger.sources()) == sorted(s_node.ledger.sources())
        for s in s_node.ledger.sources():
            b_rec, s_rec = b_node.ledger.get(s), s_node.ledger.get(s)
            assert (b_rec.start_time, b_rec.dist, tuple(b_rec.preds)) == (
                s_rec.start_time,
                s_rec.dist,
                tuple(s_rec.preds),
            )
            assert repr(b_rec.sigma) == repr(s_rec.sigma)
            assert repr(b_rec.psi) == repr(s_rec.psi)


def test_bulk_ledger_survives_pickling():
    graph = figure1_graph()
    result = distributed_betweenness(graph, arithmetic="lfloat", engine="bulk")
    node = result.nodes[2]
    clone = pickle.loads(pickle.dumps(node.ledger))
    assert sorted(clone.sources()) == sorted(node.ledger.sources())
    for s in node.ledger.sources():
        assert clone.get(s).dist == node.ledger.get(s).dist
        assert repr(clone.get(s).sigma) == repr(node.ledger.get(s).sigma)


# ----------------------------------------------------------------------
# CLI: the report prints the engine that actually ran
# ----------------------------------------------------------------------
def test_cli_report_shows_resolved_engine(capsys):
    from repro.cli import main

    reset_probe()
    assert main(["report", "--graph", "karate"]) == 0
    out = capsys.readouterr().out
    assert "engine=bulk" in out


def test_cli_engine_choices_include_auto():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["bc", "--graph", "figure1", "--engine", "warp"])
