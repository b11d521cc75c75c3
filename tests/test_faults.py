"""The fault-injection subsystem and the self-healing transport.

Four claims are under test, mirroring ``docs/fault-model.md``:

1. **Zero-cost disabled**: a run with ``faults=None`` and a run with an
   all-zero :class:`FaultPlan` are bit-identical on both engines —
   betweenness, rounds, per-round traffic, everything.
2. **Determinism**: the same plan produces the same fault schedule on
   both engines (hash-derived decisions, no consumed RNG stream).
3. **Recovery**: under drop/duplicate/delay/corrupt/transient-crash
   plans the resilient transport recovers betweenness values *exactly*
   equal to the fault-free run (and hence to Brandes).
4. **Graceful degradation**: an unrecoverable crash terminates the run
   early with a structured partial result whose completeness report
   names every affected source, and whose partial betweenness matches
   a Brandes restricted to the surviving sources.
"""

import hashlib
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import distributed_betweenness, distributed_sampled_betweenness
from repro.exceptions import (
    FrameChecksumError,
    GraphNotConnectedError,
    SimulationNotTerminatedError,
    SimulationStalledError,
)
from repro.faults import (
    Ack,
    CrashWindow,
    Envelope,
    FaultInjector,
    FaultPlan,
    Fence,
    LinkOutage,
    RESILIENT_CONGEST_FACTOR,
    make_resilient_factory,
    unwrap_node,
)
from repro.graphs import (
    Graph,
    barabasi_albert_graph,
    connected_erdos_renyi_graph,
    figure1_graph,
    path_graph,
)
from repro.wire import (
    CHECKSUM_BITS,
    IntMessage,
    WireFormat,
    decode_frame_checked,
    encode_frame,
    encode_frame_checked,
    frame_checksum,
    layout_bits,
)


from .conftest import connected_graphs

ENGINES = ("sweep", "event")


def _fingerprint(result):
    """Every observable of a protocol run, in comparable form.

    A fault-carrying run adds a ``faults`` block to the stats summary;
    pop it so zero-plan runs compare equal to ``faults=None`` runs.
    """
    summary = result.stats.summary()
    summary.pop("faults", None)
    return {
        "betweenness": sorted(result.betweenness.items()),
        "diameter": result.diameter,
        "rounds": result.rounds,
        "start_times": sorted(result.start_times.items()),
        "summary": summary,
        "round_series": result.stats.round_series,
        "worst_edge": result.stats.worst_edge,
    }


def _reference_unit(seed, kind, round_number, sender, receiver, index):
    """The fault schedule's draw, hashed in one shot: the keyed BLAKE2b
    of ``kind:round:sender:receiver:index`` mapped to [0, 1)."""
    digest = hashlib.blake2b(
        "{}:{}:{}:{}:{}".format(
            kind, round_number, sender, receiver, index
        ).encode("ascii"),
        digest_size=8,
        key=seed.to_bytes(8, "big", signed=True),
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


def _brandes_subset(graph, sources):
    """Brandes dependencies summed over ``sources`` only, halved."""
    nodes = list(graph.nodes())
    acc = {v: Fraction(0) for v in nodes}
    for s in sources:
        dist = {s: 0}
        sigma = {v: Fraction(0) for v in nodes}
        sigma[s] = Fraction(1)
        order = []
        preds = {v: [] for v in nodes}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in graph.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist.get(w) == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = {v: Fraction(0) for v in nodes}
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
            if w != s:
                acc[w] += delta[w]
    return {v: value / 2 for v, value in acc.items()}


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=42,
            drop_rate=0.1,
            duplicate_rate=0.05,
            delay_rate=0.2,
            max_delay=4,
            corrupt_rate=0.01,
            corrupt_bits=2,
            crashes=(CrashWindow(3, 10, 20), CrashWindow(5, 7, None)),
            link_outages=(LinkOutage(0, 1, 5, 25),),
            stall_patience=64,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_zero_plan_properties(self):
        plan = FaultPlan(seed=0)
        assert plan.is_zero
        assert not plan.has_channel_faults
        assert plan.permanent_crashes() == ()

    def test_permanent_crashes(self):
        plan = FaultPlan(
            crashes=(CrashWindow(2, 5, 9), CrashWindow(7, 3, None))
        )
        assert not plan.is_zero
        assert plan.permanent_crashes() == (7,)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(max_delay=0, delay_rate=0.1)
        with pytest.raises(ValueError):
            CrashWindow(0, 5, 5)
        with pytest.raises(ValueError):
            LinkOutage(2, 2, 0, 5)


# ----------------------------------------------------------------------
# frame checksums
# ----------------------------------------------------------------------
class TestFrameChecksum:
    def _wire(self):
        return WireFormat(num_nodes=16)

    def _frame(self):
        from repro.wire import DfsToken

        wire = self._wire()
        word, bits = encode_frame_checked((DfsToken(),), wire)
        return wire, word, bits

    def test_round_trip(self):
        wire, word, bits = self._frame()
        decoded = decode_frame_checked(word, bits, wire)
        assert len(decoded) == 1
        assert type(decoded[0]).__name__ == "DfsToken"

    def test_checksum_adds_exactly_eight_bits(self):
        from repro.wire import BfsWave

        wire = self._wire()
        _, plain_bits = encode_frame((BfsWave(3, 7, 2, 5),), wire)
        _, checked_bits = encode_frame_checked((BfsWave(3, 7, 2, 5),), wire)
        assert checked_bits == plain_bits + CHECKSUM_BITS

    def test_every_single_bit_flip_is_detected(self):
        # CRC-8 detects *all* single-bit errors; try every position.
        wire, word, bits = self._frame()
        for position in range(bits):
            with pytest.raises(FrameChecksumError):
                decode_frame_checked(word ^ (1 << position), bits, wire)

    def test_checksum_depends_on_length(self):
        # A frame of all-zero payload bits must not share its checksum
        # with a longer all-zero frame (the length prefix breaks the
        # CRC's zero-extension blindness).
        assert frame_checksum(0, 16) != frame_checksum(0, 24)


# ----------------------------------------------------------------------
# claim 1: zero-cost disabled path
# ----------------------------------------------------------------------
class TestZeroFaultIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_plan_is_bit_identical(self, engine):
        from repro.congest import Tracer

        graph = connected_erdos_renyi_graph(14, 0.25, seed=1)
        base_trace, zero_trace = Tracer(), Tracer()
        baseline = distributed_betweenness(
            graph, arithmetic="exact", engine=engine, tracer=base_trace
        )
        zero = distributed_betweenness(
            graph,
            arithmetic="exact",
            engine=engine,
            faults=FaultPlan(seed=9),
            tracer=zero_trace,
        )
        assert _fingerprint(zero) == _fingerprint(baseline)
        assert zero.stats.faults.total_injected == 0
        # The delivery trace (every message, sender, receiver, round)
        # is identical too — the disabled path perturbs nothing.
        assert zero_trace.to_json() == base_trace.to_json()
        assert not zero_trace.fault_events()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_resilient_zero_fault_matches_reliable(self, engine):
        graph = figure1_graph()
        reliable = distributed_betweenness(
            graph, arithmetic="exact", engine=engine
        )
        resilient = distributed_betweenness(
            graph, arithmetic="exact", engine=engine, resilient=True
        )
        assert resilient.betweenness_exact == reliable.betweenness_exact
        assert resilient.diameter == reliable.diameter
        assert resilient.completeness.complete

    def test_clean_run_completeness_report(self, figure1):
        result = distributed_betweenness(figure1, arithmetic="exact")
        report = result.completeness
        assert report.complete
        assert report.coverage == 1.0
        assert report.complete_sources == tuple(range(5))
        assert report.affected_sources == ()


# ----------------------------------------------------------------------
# claim 2: determinism across engines
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_plan_same_schedule_across_engines(self):
        graph = figure1_graph()
        plan = FaultPlan(seed=5, drop_rate=0.1, delay_rate=0.1)
        counters = []
        for engine in ENGINES:
            result = distributed_betweenness(
                graph,
                arithmetic="exact",
                engine=engine,
                faults=plan,
                resilient=True,
            )
            numbers = result.stats.faults.as_dict()
            # crash_rounds counts *stepped* crashed rounds, which the
            # event engine legitimately skips; everything else is a
            # pure function of (round, sender, receiver, edge_seq).
            numbers.pop("crash_rounds")
            counters.append((numbers, result.rounds))
        assert counters[0] == counters[1]

    def test_same_plan_same_run_repeated(self):
        graph = figure1_graph()
        plan = FaultPlan(seed=11, drop_rate=0.08, duplicate_rate=0.05)
        first = distributed_betweenness(
            graph, arithmetic="exact", faults=plan, resilient=True
        )
        second = distributed_betweenness(
            graph, arithmetic="exact", faults=plan, resilient=True
        )
        assert _fingerprint(first) == _fingerprint(second)
        assert (
            first.stats.faults.as_dict() == second.stats.faults.as_dict()
        )

    def test_different_seed_different_schedule(self):
        graph = figure1_graph()
        a = distributed_betweenness(
            graph,
            arithmetic="exact",
            faults=FaultPlan(seed=1, drop_rate=0.1),
            resilient=True,
        )
        b = distributed_betweenness(
            graph,
            arithmetic="exact",
            faults=FaultPlan(seed=2, drop_rate=0.1),
            resilient=True,
        )
        assert (
            a.stats.faults.as_dict() != b.stats.faults.as_dict()
            or a.rounds != b.rounds
        )

    @pytest.mark.parametrize("seed", [0, 7, -3, 2**40])
    def test_draws_match_one_shot_reference(self, seed):
        """Every draw kind the injector takes equals the one-shot hash,
        so the fault schedule is pinned, not just repeatable."""
        plan = FaultPlan(
            seed=seed,
            drop_rate=0.25,
            corrupt_rate=0.25,
            delay_rate=0.5,
            duplicate_rate=0.5,
            max_delay=7,
        )
        injector = FaultInjector(plan)
        rng = random.Random(seed)
        message = IntMessage(1)
        kinds = ("drop", "corrupt", "delay", "dup", "delay_span", "dup_span")
        for _ in range(2000):
            site = (
                rng.randrange(5000),
                rng.randrange(400),
                rng.randrange(400),
                rng.randrange(1000),
            )
            draw = {
                kind: _reference_unit(seed, kind, *site)
                for kind in kinds + ("corrupt_bit0", "corrupt_bit1")
            }
            for kind, value in draw.items():
                assert injector._unit(kind, *site) == value
            round_number, sender, receiver, index = site
            injector._edge_seq[(sender, receiver)] = index
            # Unbound (no wire), so a corrupted frame is a detected loss.
            expected = []
            if draw["drop"] >= 0.25 and draw["corrupt"] >= 0.25:
                due = round_number + 1
                if draw["delay"] < 0.5:
                    due += 1 + int(draw["delay_span"] * 7) % 7
                expected.append((due, message))
                if draw["dup"] < 0.5:
                    expected.append(
                        (round_number + 2 + int(draw["dup_span"] * 7) % 7,
                         message)
                    )
            assert injector.deliveries(
                round_number, sender, receiver, message
            ) == expected
        stats = injector.stats
        assert min(
            stats.dropped, stats.corrupted_detected, stats.delayed,
            stats.duplicated,
        ) > 0

    def test_seeded_run_matches_committed_bench_row(self):
        """The drop-0.05 recovery row of BENCH_faults.json."""
        result = distributed_betweenness(
            connected_erdos_renyi_graph(16, 0.25, seed=2),
            arithmetic="exact",
            engine="event",
            faults=FaultPlan(seed=7, drop_rate=0.05),
            resilient=True,
        )
        assert result.rounds == 511
        assert result.stats.faults.dropped == 894


# ----------------------------------------------------------------------
# claim 3: exact recovery under recoverable plans
# ----------------------------------------------------------------------
RECOVERABLE_PLANS = [
    pytest.param(FaultPlan(seed=7, drop_rate=0.1), id="drop10"),
    pytest.param(
        FaultPlan(seed=3, duplicate_rate=0.1, delay_rate=0.15, max_delay=3),
        id="dup-delay",
    ),
    pytest.param(FaultPlan(seed=5, corrupt_rate=0.05), id="corrupt"),
    pytest.param(
        FaultPlan(seed=1, crashes=(CrashWindow(4, 10, 30),)),
        id="transient-crash",
    ),
    pytest.param(
        FaultPlan(seed=2, link_outages=(LinkOutage(0, 1, 5, 25),)),
        id="link-outage",
    ),
    pytest.param(
        FaultPlan(
            seed=13,
            drop_rate=0.08,
            duplicate_rate=0.05,
            delay_rate=0.1,
            corrupt_rate=0.03,
            crashes=(CrashWindow(2, 15, 35),),
        ),
        id="mix",
    ),
]


class TestRecovery:
    @pytest.mark.parametrize("plan", RECOVERABLE_PLANS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_recovered_bc_is_exact(self, engine, plan):
        graph = figure1_graph()
        reference = distributed_betweenness(
            graph, arithmetic="exact", engine=engine
        )
        recovered = distributed_betweenness(
            graph,
            arithmetic="exact",
            engine=engine,
            faults=plan,
            resilient=True,
        )
        assert recovered.completeness.complete
        assert recovered.betweenness_exact == reference.betweenness_exact
        assert recovered.stats.faults.total_injected > 0

    def test_recovery_on_random_graph(self):
        graph = connected_erdos_renyi_graph(12, 0.3, seed=4)
        reference = distributed_betweenness(graph, arithmetic="exact")
        recovered = distributed_betweenness(
            graph,
            arithmetic="exact",
            faults=FaultPlan(seed=21, drop_rate=0.05, delay_rate=0.05),
            resilient=True,
        )
        assert recovered.betweenness_exact == reference.betweenness_exact

    def test_transient_crash_records_recovery(self):
        result = distributed_betweenness(
            figure1_graph(),
            arithmetic="exact",
            faults=FaultPlan(seed=1, crashes=(CrashWindow(4, 10, 30),)),
            resilient=True,
        )
        assert result.completeness.complete
        assert len(result.stats.faults.recoveries) == 1
        node, start, alive = result.stats.faults.recoveries[0]
        assert (node, start, alive) == (4, 10, 30)


# ----------------------------------------------------------------------
# claim 4: graceful degradation under unrecoverable plans
# ----------------------------------------------------------------------
class TestGracefulDegradation:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_permanent_crash_yields_partial_result(self, engine):
        graph = figure1_graph()
        result = distributed_betweenness(
            graph,
            arithmetic="exact",
            engine=engine,
            faults=FaultPlan(seed=1, crashes=(CrashWindow(3, 40, None),)),
            resilient=True,
        )
        report = result.completeness
        assert not report.complete
        assert report.crashed_nodes == (3,)
        assert report.stalled_round is not None
        assert set(report.complete_sources) | set(
            report.affected_sources
        ) == set(range(5))
        assert report.complete_sources  # the crash at 40 is late enough
        reference = _brandes_subset(graph, report.complete_sources)
        for v in graph.nodes():
            assert result.betweenness_exact[v] == reference[v]

    def test_early_crash_loses_everything_but_terminates(self):
        result = distributed_betweenness(
            figure1_graph(),
            arithmetic="exact",
            faults=FaultPlan(seed=1, crashes=(CrashWindow(3, 12, None),)),
            resilient=True,
        )
        report = result.completeness
        assert not report.complete
        assert report.coverage == 0.0
        assert all(
            value == 0 for value in result.betweenness_exact.values()
        )

    def test_raw_permanent_crash_degrades_too(self):
        # Even without the resilient transport the pipeline converts
        # the stall into a partial result (best-effort completeness).
        result = distributed_betweenness(
            figure1_graph(),
            arithmetic="exact",
            faults=FaultPlan(seed=1, crashes=(CrashWindow(0, 3, None),)),
            resilient=False,
        )
        report = result.completeness
        assert not report.complete
        assert report.crashed_nodes == (0,)

    def test_simulator_raises_stalled_on_dead_run(self):
        from repro.arithmetic import ExactContext
        from repro.congest import Simulator
        from repro.core import make_node_factory

        graph = figure1_graph()
        simulator = Simulator(
            graph,
            make_node_factory(0, ExactContext()),
            faults=FaultPlan(seed=1, crashes=(CrashWindow(0, 3, None),)),
        )
        with pytest.raises(SimulationStalledError) as excinfo:
            simulator.run()
        err = excinfo.value
        assert err.crashed_nodes == (0,)
        assert err.pending_nodes
        assert err.round_number > err.last_progress_round


# ----------------------------------------------------------------------
# stalled runs stop at the same round on every engine
# ----------------------------------------------------------------------
#: Sweep visits every round; event and shard fast-forward idle stretches.
STALL_ENGINES = (("sweep", 1), ("event", 1), ("shard", 2), ("shard", 3))


def _stall_outcome(graph, plan, **kwargs):
    """A run's stall surface: rounds, completeness and betweenness."""
    result = distributed_betweenness(graph, faults=plan, **kwargs)
    report = result.completeness
    return (
        result.rounds,
        report.stalled_round,
        report.complete_sources,
        report.affected_sources,
        report.crashed_nodes,
        sorted(result.betweenness.items()),
    )


class TestStallParity:
    @pytest.mark.parametrize("resilient", [False, True])
    @pytest.mark.parametrize(
        "graph, node",
        [(path_graph(11), 5), (barabasi_albert_graph(40, 3, seed=1), 7)],
        ids=["path-11", "ba-40"],
    )
    def test_permanent_crash_stalls_at_sweeps_round(
        self, graph, node, resilient
    ):
        plan = FaultPlan(seed=1, crashes=(CrashWindow(node, 60, None),))
        outcomes = {
            (engine, workers): _stall_outcome(
                graph, plan, engine=engine, workers=workers,
                resilient=resilient,
            )
            for engine, workers in STALL_ENGINES
        }
        reference = outcomes[("sweep", 1)]
        assert reference[1] is not None, "the plan must stall the run"
        for key, outcome in outcomes.items():
            assert outcome == reference, key

    @settings(max_examples=20, deadline=None)
    @given(
        graph=connected_graphs(),
        data=st.data(),
        resilient=st.booleans(),
        protocol=st.sampled_from(["hua-bc", "cfp-bc"]),
        workers=st.sampled_from([2, 3]),
    )
    def test_generated_crash_plans_agree_across_engines(
        self, graph, data, resilient, protocol, workers
    ):
        nodes = st.integers(min_value=0, max_value=graph.num_nodes - 1)
        starts = st.integers(min_value=0, max_value=150)
        windows = data.draw(
            st.lists(st.tuples(nodes, starts), min_size=1, max_size=2)
        )
        plan = FaultPlan(
            seed=data.draw(st.integers(min_value=0, max_value=99)),
            crashes=tuple(CrashWindow(v, t, None) for v, t in windows),
        )
        kwargs = dict(protocol=protocol, resilient=resilient)
        reference = _stall_outcome(graph, plan, engine="sweep", **kwargs)
        assert _stall_outcome(graph, plan, engine="event", **kwargs) == (
            reference
        )
        assert _stall_outcome(
            graph, plan, engine="shard", workers=workers, **kwargs
        ) == reference


# ----------------------------------------------------------------------
# structured exceptions (satellite 1)
# ----------------------------------------------------------------------
class _SilentForever:
    """A node that never halts, to trip the round limit."""

    def __init__(self, node_id, neighbors):
        self.node_id = node_id
        self.neighbors = tuple(neighbors)
        self.done = False

    def on_start(self, ctx):
        pass

    def on_round(self, ctx, inbox):
        pass

    def message_wakes(self, sender, message):
        return True


class TestStructuredExceptions:
    def test_not_terminated_carries_context(self):
        from repro.congest import Simulator

        graph = path_graph(3)
        simulator = Simulator(
            graph, lambda nid, nbrs: _SilentForever(nid, nbrs), max_rounds=5
        )
        with pytest.raises(SimulationNotTerminatedError) as excinfo:
            simulator.run()
        err = excinfo.value
        assert err.round_limit == 5
        assert err.round_number > 5
        assert err.pending_nodes == (0, 1, 2)
        assert err.graph_name == graph.name
        assert "5" in str(err)

    def test_stalled_error_message_names_crashed(self):
        err = SimulationStalledError(100, 40, (1, 2), (3,))
        assert "100" in str(err)
        assert err.pending_nodes == (1, 2)
        assert err.crashed_nodes == (3,)


# ----------------------------------------------------------------------
# malformed-input error paths (satellite 2)
# ----------------------------------------------------------------------
class TestMalformedInputs:
    def test_disconnected_graph_rejected(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphNotConnectedError):
            distributed_betweenness(graph)

    def test_empty_graph_rejected(self):
        from repro.exceptions import EmptyGraphError

        with pytest.raises(EmptyGraphError):
            distributed_betweenness(Graph(0, []))

    def test_sampled_pipeline_rejects_disconnected(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphNotConnectedError):
            distributed_sampled_betweenness(graph, 2)

    def test_sampled_pipeline_rejects_empty(self):
        from repro.exceptions import EmptyGraphError

        with pytest.raises(EmptyGraphError):
            distributed_sampled_betweenness(Graph(0, []), 1)


# ----------------------------------------------------------------------
# transport unit behavior
# ----------------------------------------------------------------------
class TestResilientTransport:
    def test_factory_wraps_and_unwraps(self):
        from repro.arithmetic import ExactContext
        from repro.core import make_node_factory

        factory = make_resilient_factory(make_node_factory(0, ExactContext()))
        node = factory(1, (0, 2))
        assert unwrap_node(node) is node.inner
        assert node.inner.node_id == 1

    def test_transport_messages_are_sized(self):
        from repro.wire import DfsToken

        wire = WireFormat(num_nodes=16)
        envelope = Envelope(3, 2, False, DfsToken())
        fence = Fence(5, 2, 1, False, False)
        ack = Ack(7)
        for message in (envelope, fence, ack):
            assert message.bit_size(wire) > 0
        # Transport frames are honestly sized but carry no wire tag
        # (the 4-bit registry is full), so they cannot be framed.
        assert type(envelope).wire_tag is None
        assert type(ack).wire_tag is None

    def test_fence_and_ack_sizes_match_layout(self):
        """The closed-form payload sizes equal the WIRE_LAYOUT width."""
        values = (0, 1, 2, 3, 7, 8, 100, 1023, 1024, 10**6)
        for num_nodes in (2, 16, 400):
            wire = WireFormat(num_nodes=num_nodes)
            for seq in values:
                ack = Ack(seq)
                assert ack.payload_bits(wire) == layout_bits(ack, wire)
                for count in values:
                    for done in (False, True):
                        fence = Fence(seq, count % 50, count, done, not done)
                        assert fence.payload_bits(wire) == layout_bits(
                            fence, wire
                        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_burst_capped_frames_retry_next_round(self, engine):
        """Frames the retransmission burst cap skips go out one round
        later, not one full retry interval later."""
        from repro.congest import Simulator, Tracer
        from repro.congest.node import NodeAlgorithm

        class FourToOne(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                if self.node_id == 0 and ctx.round_number == 0:
                    for value in range(4):
                        ctx.send(1, IntMessage(value))
                self.done = True

        tracer = Tracer()
        Simulator(
            path_graph(2),
            make_resilient_factory(FourToOne),
            engine=engine,
            faults=FaultPlan(seed=0, link_outages=(LinkOutage(0, 1, 0, 1),)),
            tracer=tracer,
        ).run()
        sent = [
            (event.round_number, event.message_type)
            for event in tracer.deliveries()
            if event.sender == 0
        ]
        # Round 0 is lost to the outage.  At round 4 all five frames
        # are due; RETRANSMIT_BURST = 3 of them go, the other two next.
        assert sent == (
            [(0, "Envelope")] * 4 + [(0, "Fence")]
            + [(4, "Envelope")] * 3
            + [(5, "Envelope"), (5, "Fence"), (5, "Ack")]
        )

    def test_resilient_budget_is_scaled(self):
        from repro.congest.simulator import DEFAULT_CONGEST_FACTOR

        assert RESILIENT_CONGEST_FACTOR == 4 * DEFAULT_CONGEST_FACTOR

    def test_retransmissions_happen_under_drops(self):
        result = distributed_betweenness(
            figure1_graph(),
            arithmetic="exact",
            faults=FaultPlan(seed=7, drop_rate=0.15),
            resilient=True,
        )
        nodes = result.nodes
        # The pipeline exposes the unwrapped protocol nodes; dig the
        # retransmission count out of the stats instead.
        assert result.stats.faults.dropped > 0
        assert result.completeness.complete


# ----------------------------------------------------------------------
# injector internals
# ----------------------------------------------------------------------
class TestInjector:
    def test_decisions_are_pure(self):
        plan = FaultPlan(seed=3, crashes=(CrashWindow(1, 5, 10),))
        injector = FaultInjector(plan)
        assert injector.node_crashed(1, 5)
        assert injector.node_crashed(1, 9)
        assert not injector.node_crashed(1, 10)
        assert not injector.node_crashed(2, 7)
        # Purity: repeated queries do not change the answer or stats.
        before = injector.stats.as_dict()
        injector.node_crashed(1, 5)
        assert injector.stats.as_dict() == before

    def test_link_outage_drops_sent_messages(self):
        from repro.congest import IntMessage

        plan = FaultPlan(seed=0, link_outages=(LinkOutage(0, 1, 2, 4),))
        injector = FaultInjector(plan)
        assert injector.deliveries(2, 0, 1, IntMessage(1)) == []
        assert injector.deliveries(2, 1, 0, IntMessage(1)) == []
        delivered = injector.deliveries(4, 0, 1, IntMessage(1))
        assert len(delivered) == 1
        assert delivered[0][0] == 5  # next-round delivery

    STATE_PLAN = FaultPlan(
        seed=5,
        drop_rate=0.2,
        duplicate_rate=0.2,
        delay_rate=0.2,
        corrupt_rate=0.1,
        crashes=(
            CrashWindow(2, 5, 15),
            CrashWindow(3, 30, None),
            CrashWindow(4, 20, 25),
        ),
        link_outages=(LinkOutage(0, 1, 10, 20),),
    )

    @staticmethod
    def _drive(injector, rounds):
        """Every decision a run makes in ``rounds``, as plain data."""
        from repro.congest import IntMessage

        message = IntMessage(1)
        outcomes = []
        for r in rounds:
            for v in injector.crashed_nodes(r):
                injector.note_crash_skip(v, r)
            for sender, receiver in ((0, 1), (1, 0), (1, 2), (2, 3), (3, 1)):
                outcomes.append([
                    (due, delivered is message)
                    for due, delivered in injector.deliveries(
                        r, sender, receiver, message
                    )
                ])
        return outcomes

    def test_restored_snapshot_replays_the_same_decisions(self):
        import pickle

        original = FaultInjector(self.STATE_PLAN)
        self._drive(original, range(1, 25))
        state = pickle.loads(pickle.dumps(original.snapshot()))
        restored = FaultInjector(self.STATE_PLAN)
        restored.restore(state)
        later = range(25, 50)
        assert self._drive(restored, later) == self._drive(original, later)
        assert restored.snapshot() == original.snapshot()
        assert restored.stats.as_dict() == original.stats.as_dict()
        assert original.stats.as_dict()["total_injected"] > 0
        assert original.stats.recoveries == [(2, 5, 15), (4, 20, 25)]

    def test_absorb_adds_counters_and_keeps_the_first_crash(self):
        plan = self.STATE_PLAN
        early, late = FaultInjector(plan), FaultInjector(plan)
        self._drive(early, range(5, 12))
        self._drive(late, range(8, 40))
        before = early.stats.as_dict()
        late_counts = late.stats.as_dict()
        early.absorb(late.snapshot())
        after = early.stats.as_dict()
        for name, value in before.items():
            assert after[name] == value + late_counts[name]
        assert early.stats.recoveries == [
            (2, 5, 15), (2, 5, 15), (4, 20, 25),
        ]
        # node 2 first crashed at round 5 here and at round 8 there;
        # nodes 3 and 4 only there
        seen = {2: 5, 3: 30, 4: 20}
        assert early.snapshot()["seen_crashed"] == seen
        late.absorb(early.snapshot())
        assert late.snapshot()["seen_crashed"] == seen
        # a node first seen through absorb records no second span
        early.note_crash_skip(4, 24)
        assert len(early.stats.recoveries) == 3

    def test_simulator_hands_its_tracer_to_a_given_injector(self):
        from repro.congest import NodeAlgorithm, Simulator, Tracer

        class Idle(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                self.done = True

        tracer = Tracer()
        injector = FaultInjector(FaultPlan(seed=1))
        Simulator(figure1_graph(), Idle, tracer=tracer, faults=injector)
        assert injector.tracer is tracer

    def test_trace_records_fault_events(self):
        from repro.congest import Tracer

        tracer = Tracer()
        result = distributed_betweenness(
            figure1_graph(),
            arithmetic="exact",
            faults=FaultPlan(seed=7, drop_rate=0.1),
            resilient=True,
            tracer=tracer,
        )
        events = tracer.fault_events()
        assert events
        assert result.stats.faults.dropped == sum(
            1 for event in events if event.kind == "drop"
        )
        summary = tracer.fault_summary()
        assert summary["drop"] == result.stats.faults.dropped
