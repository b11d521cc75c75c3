"""Sharded multi-process runtime: partitioners, bit-identity, faults.

The shard engine partitions the node set across worker processes and
exchanges only cross-shard frames per round, but every billed quantity
still flows through the exact wire codec — so these tests demand
*identity* with the single-process event engine, not approximation:
betweenness values, rounds, bits, messages, worst edge, per-round
series, fault counters, and the stall/partial surfaces all byte-equal.
"""

import pytest

from repro.core import distributed_betweenness
from repro.exceptions import CongestViolationError, EngineCapabilityError
from repro.faults import CrashWindow, FaultPlan
from repro.graphs import (
    balanced_tree,
    barabasi_albert_graph,
    connected_erdos_renyi_graph,
    cycle_graph,
    figure1_graph,
    grid_graph,
    lollipop_graph,
    path_graph,
    star_graph,
)
from repro.shard import edge_cut, partition_nodes

ZOO = [
    figure1_graph(),
    path_graph(9),
    cycle_graph(10),
    star_graph(8),
    balanced_tree(2, 3),
    lollipop_graph(5, 4),
    connected_erdos_renyi_graph(14, 0.25, seed=1),
]

WORKER_COUNTS = (1, 2, 3, 5)


def _fingerprint(result):
    """Every observable of a protocol run, in comparable form."""
    return {
        "betweenness": sorted(result.betweenness.items()),
        "diameter": result.diameter,
        "rounds": result.rounds,
        "start_times": sorted(result.start_times.items()),
        "summary": result.stats.summary(),
        "round_series": result.stats.round_series,
        "worst_edge": result.stats.worst_edge,
    }


# ----------------------------------------------------------------------
# partitioners
# ----------------------------------------------------------------------
class TestPartitioners:
    @pytest.mark.parametrize("graph", ZOO, ids=lambda g: g.name)
    @pytest.mark.parametrize("kind", ["block", "greedy"])
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_disjoint_cover(self, graph, kind, workers):
        assignment, shards = partition_nodes(graph, workers, kind=kind)
        assert len(assignment) == graph.num_nodes
        seen = set()
        for members in shards:
            assert members, "no empty shards"
            assert seen.isdisjoint(members)
            seen.update(members)
        assert seen == set(range(graph.num_nodes))
        for node, shard in enumerate(assignment):
            assert node in shards[shard]

    @pytest.mark.parametrize("kind", ["block", "greedy"])
    def test_root_lands_in_shard_zero(self, kind):
        graph = cycle_graph(12)
        for root in (0, 5, 11):
            _, shards = partition_nodes(graph, 3, kind=kind, root=root)
            assert root in shards[0]

    def test_workers_clamped_to_node_count(self):
        graph = figure1_graph()  # N=5
        assignment, shards = partition_nodes(graph, 99, kind="block")
        assert len(shards) == graph.num_nodes
        assert sorted(map(len, shards)) == [1] * graph.num_nodes

    @pytest.mark.parametrize(
        "graph", [cycle_graph(16), grid_graph(4, 4)], ids=lambda g: g.name
    )
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_greedy_cuts_no_more_than_block(self, graph, workers):
        """Greedy grows shards along BFS frontiers, so on locality-rich
        topologies it must not cut more edges than blind id-slicing."""
        block = edge_cut(graph, partition_nodes(graph, workers, "block")[0])
        greedy = edge_cut(graph, partition_nodes(graph, workers, "greedy")[0])
        assert greedy <= block

    def test_edge_cut_counts_cross_shard_edges(self):
        graph = path_graph(6)
        assignment, _ = partition_nodes(graph, 2, kind="block")
        # Contiguous halves of a path share exactly one edge.
        assert edge_cut(graph, assignment) == 1


# ----------------------------------------------------------------------
# bit-identity against the event engine
# ----------------------------------------------------------------------
class TestShardIdentity:
    @pytest.mark.parametrize("graph", ZOO, ids=lambda g: g.name)
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("protocol", ["hua-bc", "cfp-bc"])
    def test_matrix_identical_to_event(self, graph, workers, protocol):
        reference = _fingerprint(
            distributed_betweenness(
                graph, arithmetic="lfloat", engine="event", protocol=protocol
            )
        )
        sharded = _fingerprint(
            distributed_betweenness(
                graph,
                arithmetic="lfloat",
                engine="shard",
                workers=workers,
                protocol=protocol,
            )
        )
        assert sharded == reference

    @pytest.mark.parametrize("kind", ["block", "greedy"])
    @pytest.mark.parametrize("arithmetic", ["exact", "lfloat"])
    def test_partitioner_and_arithmetic_invariance(self, kind, arithmetic):
        graph = connected_erdos_renyi_graph(16, 0.2, seed=2)
        reference = _fingerprint(
            distributed_betweenness(
                graph, arithmetic=arithmetic, engine="event"
            )
        )
        sharded = _fingerprint(
            distributed_betweenness(
                graph,
                arithmetic=arithmetic,
                engine="shard",
                workers=3,
                partitioner=kind,
            )
        )
        assert sharded == reference

    def test_single_worker_shard_is_the_event_engine(self):
        graph = figure1_graph()
        reference = _fingerprint(
            distributed_betweenness(graph, engine="event")
        )
        sharded = distributed_betweenness(graph, engine="shard", workers=1)
        assert _fingerprint(sharded) == reference
        assert sharded.stats.engine == "shard"
        assert sharded.stats.shard["workers"] == 1
        assert sharded.stats.shard["cross_bits"] == 0

    def test_frame_audit_identical_to_event(self):
        graph = connected_erdos_renyi_graph(14, 0.25, seed=1)
        reference = _fingerprint(
            distributed_betweenness(graph, engine="event", frame_audit=True)
        )
        sharded = distributed_betweenness(
            graph, engine="shard", workers=2, frame_audit=True
        )
        assert _fingerprint(sharded) == reference

    def test_worker_budget_violation_matches_event(self):
        """A strict-budget violation raised inside a forked worker reaches
        the caller as the event engine's typed error, fields intact."""
        graph = barabasi_albert_graph(40, 3, seed=1)
        raised = {}
        for engine in ("event", "shard"):
            with pytest.raises(CongestViolationError) as info:
                distributed_betweenness(
                    graph, engine=engine, workers=2, congest_factor=11
                )
            error = info.value
            raised[engine] = (
                error.round_number,
                error.sender,
                error.receiver,
                error.bits_used,
                error.bits_allowed,
            )
        assert raised["shard"] == raised["event"]
        assignment, _ = partition_nodes(graph, 2, "greedy")
        assert assignment[raised["shard"][1]] != 0, "raised in a child"

    @pytest.mark.parametrize("workers", [2, 3])
    def test_budget_violation_names_the_lowest_sender(self, workers):
        """Two shards can break the budget in the same round.  The event
        engine steps nodes in id order, so the coordinator must raise
        the violation with the lowest sender, in-process shard or not."""
        graph = connected_erdos_renyi_graph(20, 0.3, seed=3)
        raised = {}
        for engine in ("event", "shard"):
            with pytest.raises(CongestViolationError) as info:
                distributed_betweenness(
                    graph,
                    arithmetic="exact",
                    engine=engine,
                    workers=workers,
                    congest_factor=8,
                )
            error = info.value
            raised[engine] = (
                error.round_number,
                error.sender,
                error.receiver,
                error.bits_used,
                error.bits_allowed,
            )
        assert raised["shard"] == raised["event"]

    def test_shard_summary_accounts_for_the_cut(self):
        graph = cycle_graph(10)
        result = distributed_betweenness(graph, engine="shard", workers=2)
        shard = result.stats.shard
        assert shard["edge_cut"] == edge_cut(
            graph, partition_nodes(graph, 2, "greedy")[0]
        )
        assert 0 < shard["cross_bits"] <= result.stats.bit_count
        assert 0 < shard["cross_messages"] <= result.stats.message_count
        assert sum(e["nodes"] for e in shard["per_shard"]) == graph.num_nodes


# ----------------------------------------------------------------------
# faults: recovery, chaos, and whole-worker kills
# ----------------------------------------------------------------------
class TestShardFaults:
    def test_resilient_recovery_matches_clean_run(self):
        graph = cycle_graph(10)
        plan = FaultPlan(seed=1, crashes=(CrashWindow(4, 10, 30),))
        clean = distributed_betweenness(graph, arithmetic="exact")
        recovered = distributed_betweenness(
            graph,
            arithmetic="exact",
            engine="shard",
            workers=3,
            faults=plan,
            resilient=True,
        )
        assert recovered.completeness.complete
        assert recovered.betweenness == clean.betweenness
        assert recovered.stats.faults.as_dict()["recoveries"] == 1

    def test_channel_faults_identical_to_event(self):
        graph = connected_erdos_renyi_graph(12, 0.3, seed=4)
        plan = FaultPlan(seed=7, drop_rate=0.05, duplicate_rate=0.05)

        def run(engine, workers=1):
            return distributed_betweenness(
                graph,
                arithmetic="lfloat",
                engine=engine,
                workers=workers,
                faults=plan,
                resilient=True,
            )

        reference, sharded = run("event"), run("shard", workers=2)
        assert _fingerprint(sharded) == _fingerprint(reference)
        assert (
            sharded.stats.faults.as_dict()
            == reference.stats.faults.as_dict()
        )

    @pytest.mark.parametrize(
        "pair", [(4, 5), (0, 1)], ids=["shard2", "shard0"]
    )
    def test_kill_whole_worker_completeness_parity(self, pair):
        """Permanently crashing every node of one shard kills the worker
        process outright; the coordinator must absorb its final state
        and report the same partial result as the event engine.  Shard 0
        runs in the coordinator on its injector, so its death adds no
        counters a second time."""
        graph = path_graph(8)
        # block/W=4 puts each pair {2k, 2k+1} alone in shard k; crash
        # both of one pair for good.
        plan = FaultPlan(
            seed=3,
            crashes=tuple(CrashWindow(v, 6, None) for v in pair),
        )

        def run(engine, **kwargs):
            return distributed_betweenness(
                graph,
                arithmetic="lfloat",
                engine=engine,
                faults=plan,
                resilient=True,
                **kwargs,
            )

        reference = run("event")
        sharded = run("shard", workers=4, partitioner="block")
        ref_report, shard_report = (
            reference.completeness, sharded.completeness
        )
        assert not shard_report.complete
        assert shard_report.crashed_nodes == ref_report.crashed_nodes
        assert shard_report.stalled_round == ref_report.stalled_round
        assert (
            shard_report.complete_sources == ref_report.complete_sources
        )
        assert (
            shard_report.affected_sources == ref_report.affected_sources
        )
        assert sharded.betweenness == reference.betweenness
        assert (
            sharded.stats.faults.as_dict() == reference.stats.faults.as_dict()
        )


# ----------------------------------------------------------------------
# capability envelope
# ----------------------------------------------------------------------
class TestShardEnvelope:
    def test_auto_never_resolves_to_shard(self):
        result = distributed_betweenness(
            figure1_graph(), engine="auto", workers=4
        )
        assert result.stats.engine != "shard"

    def test_tracer_rejected(self):
        from repro.congest import Tracer

        with pytest.raises(EngineCapabilityError, match="tracer"):
            distributed_betweenness(
                figure1_graph(),
                engine="shard",
                workers=2,
                tracer=Tracer(),
            )

    def test_send_monitor_rejected(self):
        from repro.obs import Telemetry
        from repro.obs.monitors import WireExactnessMonitor

        with pytest.raises(EngineCapabilityError, match="send-level"):
            distributed_betweenness(
                figure1_graph(),
                engine="shard",
                workers=2,
                telemetry=Telemetry(monitors=[WireExactnessMonitor()]),
            )

    def test_counting_only_runs_rejected(self):
        from repro.core import distributed_apsp

        with pytest.raises(EngineCapabilityError, match="ledger"):
            distributed_apsp(figure1_graph(), engine="shard", workers=2)

    def test_foreign_node_algorithms_rejected(self):
        from repro.congest import NodeAlgorithm, Simulator

        class Silent(NodeAlgorithm):
            def on_round(self, round_number, inbox):
                self.done = True
                return []

        with pytest.raises(EngineCapabilityError, match="BetweennessNode"):
            Simulator(
                figure1_graph(), lambda v, g: Silent(v, g), engine="shard"
            ).run()

    def test_worker_held_state_raises(self):
        """Per-source state a worker kept is refused, not read stale."""
        graph = cycle_graph(12)
        sharded = distributed_betweenness(graph, engine="shard", workers=2)
        reference = distributed_betweenness(graph, engine="event")
        _assignment, (local, remote) = partition_nodes(graph, 2, root=0)
        for node in local:
            assert sharded.dependency(3, node) == reference.dependency(3, node)
        with pytest.raises(EngineCapabilityError, match="event"):
            sharded.dependency(3, remote[0])
        with pytest.raises(EngineCapabilityError, match="shard worker 1"):
            sharded.distances()
        assert sharded.betweenness == reference.betweenness

    def test_bad_worker_counts_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            distributed_betweenness(
                figure1_graph(), engine="shard", workers=0
            )
        with pytest.raises(ValueError, match="partitioner"):
            distributed_betweenness(
                figure1_graph(), engine="shard", workers=2, partitioner="metis"
            )


# ----------------------------------------------------------------------
# observability and history threading
# ----------------------------------------------------------------------
class TestShardObservability:
    def test_telemetry_shard_gauges(self):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        result = distributed_betweenness(
            cycle_graph(8), engine="shard", workers=2, telemetry=telemetry
        )
        snap = telemetry.registry.snapshot()
        assert snap["shard.workers"]["value"] == 2
        assert (
            snap["shard.cross_bits"]["value"]
            == result.stats.shard["cross_bits"]
        )
        assert snap["shard.0.nodes"]["value"] + snap["shard.1.nodes"][
            "value"
        ] == 8

    def test_profiler_covers_the_in_process_shard(self):
        from repro.obs import Telemetry

        graph = connected_erdos_renyi_graph(14, 0.25, seed=1)
        steps = {}
        for engine in ("event", "shard"):
            telemetry = Telemetry(profile=True)
            distributed_betweenness(
                graph, engine=engine, workers=2, telemetry=telemetry
            )
            profile = telemetry.profiler.summary()
            assert profile["engine.step"]["calls"] > 0
            assert profile["engine.deliver"]["calls"] > 0
            steps[engine] = profile["engine.active_node_steps"]["count"]
        # Only shard 0 steps in this process; the child's count is lost.
        assert 0 < steps["shard"] < steps["event"]

    def test_history_key_is_worker_invariant(self):
        from repro.obs.history import entry_from_result

        graph = figure1_graph()
        one = distributed_betweenness(graph, engine="shard", workers=1)
        four = distributed_betweenness(graph, engine="shard", workers=4)
        entry_one = entry_from_result(one, graph)
        entry_four = entry_from_result(four, graph)
        assert entry_one["workers"] == 1
        assert entry_four["workers"] == 4
        assert entry_one["key"] == entry_four["key"]
        # ... and the metrics under that shared key agree, which is the
        # point of keeping W out of the content address.
        for metric in ("rounds", "bits", "messages"):
            assert entry_one[metric] == entry_four[metric]
        event = distributed_betweenness(graph, engine="event")
        assert entry_from_result(event, graph)["workers"] == 1

    def test_bench_shard_ingest_and_gates(self, tmp_path):
        from repro.obs.history import (
            HistoryLedger,
            RegressionGates,
            compare_payloads,
        )

        payload = {
            "benchmark": "shard_runtime",
            "arithmetic": "lfloat",
            "rows": [
                {
                    "family": "cycle",
                    "n": 10,
                    "protocol": "hua-bc",
                    "workers": 2,
                    "partitioner": "greedy",
                    "rounds": 74,
                    "bits": 6821,
                    "messages": 240,
                    "identical_results": True,
                    "edge_cut": 2,
                    "cross_bits": 500,
                    "shard_seconds": 0.5,
                }
            ],
        }
        ledger = HistoryLedger(tmp_path / "ledger.jsonl")
        assert ledger.ingest(payload) == 1
        ok, _ = compare_payloads(payload, payload)
        assert ok == []
        broken = {
            "benchmark": "shard_runtime",
            "rows": [
                dict(
                    payload["rows"][0],
                    bits=9999,
                    identical_results=False,
                    shard_seconds=5.0,
                )
            ],
        }
        violations, compared = compare_payloads(payload, broken)
        assert compared == 1
        gate_names = {v.gate for v in violations}
        assert {"bits", "identity"} <= gate_names
        hard = [v for v in violations if v.hard]
        assert {v.gate for v in hard} == {"bits", "identity"}
        # wall gates are soft and vanish under check_wall=False
        no_wall, _ = compare_payloads(
            payload, broken, RegressionGates(check_wall=False)
        )
        assert all(v.hard for v in no_wall)


class TestRunManyInteraction:
    def test_pool_forces_single_worker_shards(self):
        import warnings

        from repro.analysis import run_many

        graphs = [figure1_graph(), cycle_graph(8)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = run_many(
                graphs, engine="shard", workers=2, processes=2
            )
        assert any(
            "oversubscribe" in str(w.message) for w in caught
        )
        reference = run_many(graphs, engine="event", processes=1)
        assert [
            (r.rounds, r.bits, r.messages) for r in records
        ] == [(r.rounds, r.bits, r.messages) for r in reference]

    def test_serial_grid_keeps_shard_fanout(self):
        import warnings

        from repro.analysis import run_many

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = run_many(
                [cycle_graph(8)], engine="shard", workers=2, processes=1
            )
        assert not any(
            "oversubscribe" in str(w.message) for w in caught
        )
        assert records[0].rounds == 74
