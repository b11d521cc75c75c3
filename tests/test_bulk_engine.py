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
from repro.congest.trace import Tracer
from repro.core import distributed_betweenness
from repro.core.config import ProtocolConfig
from repro.core.node import make_node_factory
from repro.engines import bulk, bulk_capability, reset_probe
from repro.engines.lfmath import bit_length, lf_add, lf_mul, lf_reciprocal
from repro.exceptions import (
    CongestViolationError,
    EngineCapabilityError,
    ReproError,
    SimulationNotTerminatedError,
    WireCodecError,
)
from repro.graphs import (
    Graph,
    balanced_tree,
    barabasi_albert_graph,
    connected_erdos_renyi_graph,
    cycle_graph,
    figure1_graph,
    path_graph,
    star_graph,
)
from repro.obs import AggregationCollisionMonitor, BandwidthMonitor, Telemetry

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


@pytest.mark.parametrize("L", [26, 27, 28, 29, 30])
@pytest.mark.parametrize("mode", list(Rounding))
def test_lf_add_matches_scalar_where_float64_rounds(L, mode):
    # All-ones mantissas at gap L align to 2**(2L) - 1, which float64
    # rounds up to 2**(2L) once L >= 27; gaps L - 1 and L + 1 sit on
    # either side of the sticky cap.
    top = (1 << L) - 1
    gaps = [L - 1, L, L + 1]
    ma = np.full(6, top, dtype=np.int64)
    ea = np.array(gaps + [0, 0, 0], dtype=np.int64)
    eb = np.array([0, 0, 0] + gaps, dtype=np.int64)
    rm, re = lf_add(ma, ea, ma, eb, L, mode.value)
    for i in range(6):
        want = LFloat(top, int(ea[i]), L).add(LFloat(top, int(eb[i]), L), mode)
        assert (int(rm[i]), int(re[i])) == (want.mantissa, want.exponent), i


@pytest.mark.parametrize("mode", list(Rounding))
def test_ordered_fold_matches_a_scalar_left_fold(mode):
    # One hub group of 60 rows among many groups of 0-2 rows: the fold
    # must still add each group's rows one by one in row order.
    L = 12
    rng = random.Random(4000)
    counts = [rng.randrange(3) for _ in range(40)]
    counts[17] = 60
    first = np.cumsum([0] + counts[:-1]).astype(np.int64)
    src_m, src_e, src = _random_lfloats(rng, L, sum(counts))
    acc_m, acc_e, acc = _random_lfloats(rng, L, len(counts))
    got = bulk._ordered_fold(
        acc_m, acc_e, src_m, src_e, first,
        np.array(counts, dtype=np.int64), L, mode.value,
    )
    for g, (start, count) in enumerate(zip(first.tolist(), counts)):
        want = acc[g]
        for row in src[start: start + count]:
            want = want.add(row, mode)
        assert (int(got[0][g]), int(got[1][g])) == (
            want.mantissa, want.exponent
        ), g
    empty = np.empty(0, dtype=np.int64)
    out = bulk._ordered_fold(
        empty.copy(), empty.copy(), empty, empty, empty, empty, L, mode.value
    )
    assert [a.size for a in out] == [0, 0]


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


@pytest.mark.parametrize("cut", [None, {0}])
def test_bulk_matches_event_when_a_token_hop_shares_an_aggregation_round(cut):
    # With one source the DFS token is still walking during aggregation:
    # its hop 6 -> 0 and node 6's AggValue to 0 both go out in round 23,
    # so the AggValue multicasts fall back to per-link rows.  The cut
    # counts that edge-round as one crossing group.
    kwargs = {
        "root": 1,
        "cut": cut,
        "config": ProtocolConfig(sources=frozenset({0})),
    }
    runs = [
        _fp(distributed_betweenness(
            star_graph(7), arithmetic="lfloat", engine=e, **kwargs
        ))
        for e in ("event", "bulk")
    ]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("arithmetic", ["lfloat-12", "lfloat-26", "lfloat-30"])
def test_bulk_matches_event_on_a_hub_heavy_graph(arithmetic):
    # A degree-22 hub gives the BFS and psi folds groups of up to 22 rows
    # next to many single-row ones, at the precisions where the adder's
    # float64 bit length is exact (12, 26) and where it is corrected (30).
    graph = barabasi_albert_graph(60, 4, seed=1)
    runs = [
        _fp(distributed_betweenness(graph, arithmetic=arithmetic, engine=e))
        for e in ("event", "bulk")
    ]
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# the edge-round reduction against a per-send reference
# ----------------------------------------------------------------------
@st.composite
def _random_tables(draw):
    """Random broadcast/multicast/unicast tables on a small graph, dense
    enough (few rounds, few widths) that edge-round totals tie often.

    Multicasts may share a (round, sender) with each other, with a
    broadcast or with a unicast (the per-link fallback), or be kept to
    keys nothing else uses (the reduction without per-link rows); they
    may also fall in one extra round of their own.
    """
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
    # Two sources' predecessor lists: a multicast's pair s * n + v holds
    # a non-empty subset of v's neighbors, picked by a bitmask.
    preds = [[] for _pair in range(2 * n)]
    mcast = []
    busy = {(r, v) for (r, v), _slot, _bits in bcast}
    busy.update((r, v) for r, v, *_rest in ucast)
    apart = draw(st.booleans())
    for r, v, s, bits, mask in draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=rounds),
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=1),
            st.integers(1, 2),
            st.integers(min_value=0),
        ),
        max_size=8,
    )):
        if not (apart and (r, v) in busy):
            nbrs = graph.neighbors(v)
            pair = s * n + v
            if not preds[pair]:
                mask = mask % ((1 << len(nbrs)) - 1) + 1
                preds[pair] = [u for i, u in enumerate(nbrs) if mask >> i & 1]
            mcast.append((r, v, pair, bits))
            busy.add((r, v))
    cut = draw(st.none() | st.frozensets(st.integers(0, n - 1), min_size=1))
    return graph, rounds + 1, bcast, mcast, preds, ucast, cut


def _reference_stats(graph, rounds, bcast, mcast, preds, ucast, cut):
    """One send at a time in drain order through ``observe_round``."""
    n = graph.num_nodes
    sends = []
    for (r, v), slot, bits in bcast:
        for seq, u in enumerate(graph.neighbors(v)):
            sends.append((((r * n + v) * 16 + slot) * n + seq, r, v, u, bits))
    for r, v, pair, bits in mcast:
        for seq, u in enumerate(preds[pair]):
            sends.append((((r * n + v) * 16 + 10) * n + seq, r, v, u, bits))
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
    path_graph(3), 1, [((0, 1), 4, 2)], [], [[]] * 6,
    [(0, 1, 0, 1, 10, 0), (0, 1, 2, 1, 5, 1)], None,
))
@example((
    # A multicast from node 1 ties a unicast from node 2 at the maximum:
    # the lower sender drains first, on its pair's first predecessor.
    path_graph(3), 2, [((0, 0), 0, 1)], [(0, 1, 1, 2)],
    [[], [0, 2], [], [], [], []], [(0, 2, 1, 2, 1, 0)], None,
))
@example((
    # A multicast alone holds the maximum.
    path_graph(3), 2, [((0, 0), 0, 1)], [(1, 1, 1, 2)],
    [[], [0, 2], [], [], [], []], [(0, 2, 1, 1, 1, 0)], None,
))
@example((
    # Two multicasts on one (round, sender) share edge 1 -> 0, which
    # crosses the cut: one group of two sends.
    path_graph(3), 2, [((0, 0), 0, 1)], [(1, 1, 1, 1), (1, 1, 4, 1)],
    [[], [0], [], [], [0, 2], []], [(0, 2, 1, 1, 1, 0)], frozenset({0}),
))
def test_edge_round_groups_match_a_per_send_reduction(tables):
    graph, rounds, bcast, mcast, preds, ucast, cut = tables
    n = graph.num_nodes
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(graph.neighbors(v)) for v in range(n)])
    indices = np.array(
        [u for v in range(n) for u in graph.neighbors(v)], dtype=np.int64
    )
    pred_indptr = np.zeros(len(preds) + 1, dtype=np.int64)
    pred_indptr[1:] = np.cumsum([len(p) for p in preds])
    pred_rows = np.array([u for p in preds for u in p], dtype=np.int64)
    b = np.array([(r, v, slot, bits) for (r, v), slot, bits in bcast])
    m = np.array(mcast, dtype=np.int64).reshape(-1, 4)
    u = np.array(ucast, dtype=np.int64)
    rank = ((u[:, 0] * n + u[:, 1]) * 16 + u[:, 4]) * n + u[:, 5]
    stats = SimulationStats()
    stats.cut = CutTracker(cut) if cut is not None else None
    bulk.populate_stats(stats, rounds, bulk.edge_round_groups(
        indptr, indices, pred_indptr, pred_rows, tuple(b.T), tuple(m.T),
        (u[:, 0], u[:, 1], u[:, 2], u[:, 3], rank),
    ))
    want = _reference_stats(graph, rounds, bcast, mcast, preds, ucast, cut)
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
@pytest.mark.parametrize("short", [3, 2, 1, 0])
def test_round_limit_overrun_matches_sweep(short):
    # The round loop checks the limit before it tests for termination,
    # so a limit one round short of the run fails too.  Three short
    # stops in the round every node finishes, so all are unfinished.
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
# the replay runs under drive_rounds: strict violations and the
# send and round hooks act as on sweep and event
# ----------------------------------------------------------------------
_REPLAY_GRAPHS = [
    connected_erdos_renyi_graph(20, 0.3, seed=3),
    barabasi_albert_graph(30, 3, seed=1),
]


@pytest.mark.parametrize("congest_factor", [2, 3])
@pytest.mark.parametrize("graph", _REPLAY_GRAPHS, ids=lambda g: g.name)
def test_strict_violation_matches_sweep_and_event(graph, congest_factor):
    # The budget breaks mid-round: every engine raises at the same send,
    # with the same partial stats (the broken round has no row) and the
    # same tracer stream.
    factory = make_node_factory(0, make_context("lfloat", graph.num_nodes))

    def outcome(engine):
        tracer = Tracer()
        sim = Simulator(
            graph, factory, engine=engine, strict=True,
            congest_factor=congest_factor, tracer=tracer,
        )
        with pytest.raises(CongestViolationError) as raised:
            sim.run()
        stats = sim.stats
        return (
            str(raised.value), stats.round_series, stats.message_count,
            stats.bit_count, tracer.to_json(),
        )

    expected = outcome("bulk")
    assert outcome("sweep") == expected
    assert outcome("event") == expected


@pytest.mark.parametrize("congest_factor", [3, 8])
def test_replay_monitors_match_event(congest_factor):
    # A send monitor and a round monitor force the replay; at factor 3
    # the non-strict run goes over budget, so the bandwidth survey
    # records violations too.
    graph = _REPLAY_GRAPHS[0]
    factory = make_node_factory(0, make_context("lfloat", graph.num_nodes))

    def outcome(engine):
        monitors = [BandwidthMonitor(), AggregationCollisionMonitor()]
        sim = Simulator(
            graph, factory, engine=engine, strict=False,
            congest_factor=congest_factor,
            telemetry=Telemetry(monitors=monitors),
        )
        summary = sim.run().summary()
        return summary, [(m.verdict(), m.detail()) for m in monitors]

    summary, verdicts = outcome("bulk")
    assert (summary, verdicts) == outcome("event")
    assert all(verdict.checked for verdict, _detail in verdicts)


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
