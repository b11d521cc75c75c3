"""Protocol registry, the cfp-bc rival, and protocol-aware plumbing.

The registry's contract: a :class:`~repro.protocols.Protocol` descriptor
is the single place a node algorithm declares its factory, wire
messages, capability flags and schedule oracle — and every layer
(dispatcher, pipeline, telemetry, history, CLI) consults the descriptor
instead of hard-coding the stock node class.  The differential matrix
at the bottom is the empirical half: every registered protocol must
agree with exact Brandes and with every other protocol, on every graph
of the zoo, on both scheduling engines.
"""

import dataclasses
import pickle

import pytest

from repro.centrality import brandes_betweenness
from repro.core import distributed_betweenness
from repro.core.node import BetweennessNode, make_node_factory
from repro.arithmetic.context import make_context
from repro.congest.simulator import Simulator
from repro.exceptions import EngineCapabilityError, ProtocolError, ReproError
from repro.faults import FaultPlan
from repro.graphs import (
    cycle_graph,
    figure1_graph,
    grid_graph,
    karate_club_graph,
    lollipop_graph,
    path_graph,
    star_graph,
)
from repro.protocols import (
    CFP_BC,
    DEFAULT_PROTOCOL,
    HUA_BC,
    UnknownProtocolError,
    get_protocol,
    protocol_names,
    protocol_of_node,
    register,
)
from repro.protocols.cfp import CfpNode


ZOO = (
    path_graph(7),
    cycle_graph(6),
    grid_graph(3, 3),
    star_graph(6),
    lollipop_graph(4, 3),
    figure1_graph(),
)
ENGINES = ("sweep", "event")


def _numpy_available():
    from repro.engines import numpy_available

    return numpy_available()


# ----------------------------------------------------------------------
# registry contract
# ----------------------------------------------------------------------
class TestRegistry:
    def test_both_protocols_registered(self):
        names = protocol_names()
        assert "hua-bc" in names and "cfp-bc" in names
        assert DEFAULT_PROTOCOL == "hua-bc"

    def test_get_protocol_resolution(self):
        assert get_protocol(None) is HUA_BC
        assert get_protocol("hua-bc") is HUA_BC
        assert get_protocol("cfp-bc") is CFP_BC
        # Descriptor passthrough: an unregistered descriptor is usable
        # directly (ad-hoc protocol variants without global state).
        adhoc = dataclasses.replace(HUA_BC, name="adhoc-bc")
        assert get_protocol(adhoc) is adhoc

    def test_unknown_protocol_lists_registered_names(self):
        with pytest.raises(UnknownProtocolError) as exc:
            get_protocol("dijkstra-bc")
        assert "hua-bc" in str(exc.value)
        assert isinstance(exc.value, ReproError)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register(HUA_BC)

    def test_protocol_of_node_exact_class_match(self):
        ctx = make_context("lfloat", 4)
        hua_node = make_node_factory(0, ctx)(0, (1,))
        cfp_node = CFP_BC.build_factory(0, ctx)(0, (1,))
        assert protocol_of_node(hua_node) is HUA_BC
        assert protocol_of_node(cfp_node) is CFP_BC

        class CustomNode(BetweennessNode):
            pass

        custom = make_node_factory(0, ctx, node_class=CustomNode)(0, (1,))
        assert protocol_of_node(custom) is None

    def test_descriptor_flags(self):
        assert HUA_BC.bulk_capable and HUA_BC.fault_wrappable
        assert not CFP_BC.bulk_capable
        assert CFP_BC.fault_wrappable
        assert CFP_BC.node_class is CfpNode
        assert HUA_BC.messages == CFP_BC.messages  # same wire set


# ----------------------------------------------------------------------
# dispatcher regressions (satellite: capability gating by descriptor)
# ----------------------------------------------------------------------
class TestDispatcherProtocolGate:
    def test_auto_with_cfp_falls_back_to_event_naming_protocol(self):
        graph = path_graph(6)
        ctx = make_context("lfloat", graph.num_nodes)
        sim = Simulator(
            graph, CFP_BC.build_factory(0, ctx), engine="auto"
        )
        assert sim.engine == "event"
        assert "cfp-bc" in sim.engine_decision.reason

    @pytest.mark.skipif(
        not _numpy_available(), reason="bulk engine needs numpy"
    )
    def test_explicit_bulk_with_cfp_raises_naming_protocol(self):
        graph = path_graph(6)
        ctx = make_context("lfloat", graph.num_nodes)
        with pytest.raises(EngineCapabilityError, match="cfp-bc"):
            Simulator(graph, CFP_BC.build_factory(0, ctx), engine="bulk")

    def test_unregistered_custom_node_still_falls_back(self):
        class CustomNode(BetweennessNode):
            pass

        graph = karate_club_graph()
        ctx = make_context("lfloat", graph.num_nodes)
        factory = make_node_factory(0, ctx, node_class=CustomNode)
        sim = Simulator(graph, factory, engine="auto")
        assert sim.protocol is None
        assert sim.engine == "event"
        expected = "CustomNode" if _numpy_available() else "numpy"
        assert expected in sim.engine_decision.reason

    @pytest.mark.skipif(
        not _numpy_available(), reason="bulk engine needs numpy"
    )
    def test_auto_with_hua_still_takes_bulk(self):
        result = distributed_betweenness(
            karate_club_graph(), engine="auto", protocol="hua-bc"
        )
        assert result.stats.engine == "bulk"

    def test_pipeline_records_engine_reason_in_telemetry(self):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        distributed_betweenness(
            path_graph(6),
            engine="auto",
            protocol="cfp-bc",
            telemetry=telemetry,
        )
        meta = telemetry.events()[0]
        assert meta["protocol"] == "cfp-bc"
        assert meta["engine"] == "event"
        assert "cfp-bc" in meta.get("engine_reason", "")


# ----------------------------------------------------------------------
# pipeline + telemetry threading
# ----------------------------------------------------------------------
class TestPipelineThreading:
    def test_result_carries_protocol_name(self):
        graph = path_graph(6)
        assert distributed_betweenness(graph).protocol == "hua-bc"
        assert (
            distributed_betweenness(graph, protocol="cfp-bc").protocol
            == "cfp-bc"
        )

    def test_fault_wrappable_false_rejects_resilient_transport(self):
        closed = dataclasses.replace(
            HUA_BC, name="hua-sealed", fault_wrappable=False
        )
        with pytest.raises(ProtocolError, match="hua-sealed"):
            distributed_betweenness(
                path_graph(6),
                protocol=closed,
                faults=FaultPlan(seed=1, drop_rate=0.05),
                resilient=True,
                engine="event",
            )

    def test_telemetry_exports_ledger_storage_gauges(self):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        graph = path_graph(6)
        distributed_betweenness(graph, telemetry=telemetry, engine="event")
        records = telemetry.registry.gauge("ledger.records").value
        words = telemetry.registry.gauge("ledger.words").value
        # Full protocol: every node holds one record per source.
        assert records == graph.num_nodes * graph.num_nodes
        assert words > 4 * records

    def test_run_many_threads_protocol(self):
        from repro.analysis.runner import run_many

        graphs = [path_graph(6), cycle_graph(5)]
        cfp = run_many(graphs, protocol="cfp-bc", processes=1)
        hua = run_many(graphs, protocol="hua-bc", processes=1)
        # The rival's structural totals are identical by design.
        assert [(r.rounds, r.bits) for r in cfp] == [
            (r.rounds, r.bits) for r in hua
        ]

    def test_history_keys_differ_per_protocol(self):
        from repro.obs.history import entry_from_result

        graph = path_graph(6)
        hua = distributed_betweenness(graph, engine="event")
        cfp = distributed_betweenness(graph, engine="event", protocol="cfp-bc")
        entry_hua = entry_from_result(hua, graph)
        entry_cfp = entry_from_result(cfp, graph)
        assert entry_hua["config"]["protocol"] == "hua-bc"
        assert entry_cfp["config"]["protocol"] == "cfp-bc"
        assert entry_hua["key"] != entry_cfp["key"]


# ----------------------------------------------------------------------
# the differential matrix (satellite: every protocol vs Brandes and
# vs each other, graph zoo x sweep+event)
# ----------------------------------------------------------------------
class TestDifferentialMatrix:
    @pytest.mark.parametrize("graph", ZOO, ids=lambda g: g.name)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_protocol_matches_brandes_and_each_other(
        self, graph, engine
    ):
        reference = brandes_betweenness(graph, exact=True)
        outputs = {}
        for name in protocol_names():
            result = distributed_betweenness(
                graph, arithmetic="exact", engine=engine, protocol=name
            )
            assert result.betweenness_exact == reference, (
                "{} vs Brandes on {} ({})".format(name, graph.name, engine)
            )
            outputs[name] = (
                tuple(sorted(result.betweenness_exact.items())),
                result.rounds,
                result.stats.bit_count,
                result.stats.message_count,
            )
        fingerprints = set(outputs.values())
        assert len(fingerprints) == 1, (
            "protocols disagree on {} ({}): {}".format(
                graph.name, engine, outputs
            )
        )

    def test_protocols_diverge_in_traffic_timing(self):
        """Equal totals, different schedules: the trace-level proof that
        cfp-bc is a genuinely different protocol, not an alias."""
        from repro.congest import Tracer
        from repro.obs.tracediff import first_divergence

        graph = path_graph(7)
        traces = {}
        for name in ("hua-bc", "cfp-bc"):
            tracer = Tracer(capture_payloads=True)
            distributed_betweenness(
                graph, engine="event", tracer=tracer, protocol=name
            )
            traces[name] = tracer
        divergence = first_divergence(
            traces["hua-bc"], traces["cfp-bc"]
        )
        assert divergence is not None
        assert len(traces["hua-bc"]) == len(traces["cfp-bc"])

    @pytest.mark.parametrize("name", ("hua-bc", "cfp-bc"))
    def test_chaos_recovery_is_exact_for_every_protocol(self, name):
        """The generic fault wrapper recovers bit-exact BC for any
        fault_wrappable protocol, not just the stock one."""
        graph = grid_graph(3, 3)
        plan = FaultPlan(seed=5, drop_rate=0.08, duplicate_rate=0.03)
        clean = distributed_betweenness(
            graph, engine="event", protocol=name
        )
        recovered = distributed_betweenness(
            graph,
            engine="event",
            protocol=name,
            faults=plan,
            resilient=True,
        )
        assert recovered.completeness.complete
        assert recovered.betweenness == clean.betweenness
        assert recovered.protocol == name

    def test_cfp_schedule_oracle_matches_observed_rounds(self):
        """CFP shares the stock schedule oracle: its progress estimator
        total equals the run's actual round count."""
        from repro.obs.stream import schedule_for_simulator

        graph = path_graph(6)
        ctx = make_context("lfloat", graph.num_nodes)
        sim = Simulator(
            graph, CFP_BC.build_factory(0, ctx), engine="event"
        )
        schedule = schedule_for_simulator(sim)
        assert schedule is not None
        stats = sim.run()
        assert stats.rounds == schedule.total_rounds

    def test_scheduleless_protocol_runs_without_estimator_total(self):
        from repro.obs.stream import schedule_for_simulator

        graph = path_graph(6)
        ctx = make_context("lfloat", graph.num_nodes)
        blind = dataclasses.replace(CFP_BC, name="cfp-blind", schedule=None)
        sim = Simulator(
            graph, blind.build_factory(0, ctx), engine="event",
            protocol=blind,
        )
        assert schedule_for_simulator(sim) is None
        sim.run()  # still terminates


# ----------------------------------------------------------------------
# arena history gates
# ----------------------------------------------------------------------
class TestArenaHistory:
    PAYLOAD = {
        "benchmark": "protocol_arena",
        "arithmetic": "lfloat",
        "rows": [
            {
                "protocol": "hua-bc", "family": "path", "n": 24,
                "engine": "event", "rounds": 262, "bits": 79362,
                "messages": 1863, "wall_seconds": 0.01,
                "matches_brandes": True,
            },
            {
                "protocol": "cfp-bc", "family": "path", "n": 24,
                "engine": "event", "rounds": 262, "bits": 79362,
                "messages": 1863, "wall_seconds": 0.01,
                "matches_brandes": True,
            },
        ],
    }

    def test_identical_payloads_pass(self):
        from repro.obs.history import compare_payloads

        violations, compared = compare_payloads(self.PAYLOAD, self.PAYLOAD)
        assert compared == 2 and not violations

    def test_structural_drift_is_a_hard_violation(self):
        import copy

        from repro.obs.history import compare_payloads

        current = copy.deepcopy(self.PAYLOAD)
        current["rows"][1]["bits"] += 8
        violations, _ = compare_payloads(self.PAYLOAD, current)
        assert any(v.gate == "bits" and v.hard for v in violations)
        assert any("cfp-bc" in v.message for v in violations)

    def test_brandes_flip_is_a_hard_violation(self):
        import copy

        from repro.obs.history import compare_payloads

        current = copy.deepcopy(self.PAYLOAD)
        current["rows"][0]["matches_brandes"] = False
        violations, _ = compare_payloads(self.PAYLOAD, current)
        assert any(v.gate == "identity" and v.hard for v in violations)

    def test_missing_protocol_row_reports_coverage(self):
        import copy

        from repro.obs.history import compare_payloads

        current = copy.deepcopy(self.PAYLOAD)
        del current["rows"][1]
        violations, compared = compare_payloads(self.PAYLOAD, current)
        assert compared == 1
        assert any(v.gate == "coverage" for v in violations)

    def test_ledger_ingests_arena_rows(self, tmp_path):
        from repro.obs.history import HistoryLedger

        ledger = HistoryLedger(str(tmp_path / "history.jsonl"))
        count = ledger.ingest(self.PAYLOAD, git_rev="abc123")
        assert count == 2
        stored = ledger.entries(kind="bench_arena")
        assert {row["protocol"] for row in stored} == {"hua-bc", "cfp-bc"}
        # Same config, different protocol -> different content keys.
        assert stored[0]["key"] != stored[1]["key"]


# ----------------------------------------------------------------------
# descriptor pickling (grids ship protocol names, but a descriptor
# reaching a pickle boundary must not explode either)
# ----------------------------------------------------------------------
def test_protocol_descriptor_is_picklable():
    clone = pickle.loads(pickle.dumps(HUA_BC))
    assert clone.name == "hua-bc"
    assert clone.node_class is BetweennessNode
