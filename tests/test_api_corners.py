"""Coverage for remaining API corners across subsystems."""

import operator
import pickle

import pytest

from repro import exceptions
from repro.analysis import ExperimentRunner
from repro.centrality import adaptive_sampled_betweenness
from repro.congest import Tracer
from repro.core import (
    distributed_apsp,
    distributed_betweenness,
    distributed_closeness,
    distributed_graph_centrality,
)
from repro.core.schedule import bfs_start_times
from repro.wire import BfsWave, DfsToken
from repro.graphs import (
    WeightedGraph,
    grid_graph,
    karate_club_graph,
    path_graph,
    star_graph,
)


class TestResultObjectCorners:
    def test_dependency_unknown_node(self):
        result = distributed_betweenness(path_graph(4), arithmetic="exact")
        with pytest.raises(KeyError):
            result.dependency(0, 99)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: distributed_betweenness(path_graph(3), root=9),
            lambda: distributed_betweenness(path_graph(4)).dependency(0, 99),
            lambda: adaptive_sampled_betweenness(star_graph(4), 99),
            lambda: bfs_start_times(path_graph(5), root=9),
            lambda: bfs_start_times(path_graph(5), root=9, mode="tree_walk"),
            lambda: distributed_betweenness(path_graph(5), root=2.5),
            lambda: distributed_betweenness(path_graph(5), root="a"),
            lambda: bfs_start_times(path_graph(5), root=2.5),
            lambda: bfs_start_times(path_graph(5), root="a"),
        ],
        ids=[
            "root", "dependency", "sampling", "shortcut", "tree_walk",
            "root_float", "root_str", "shortcut_float", "shortcut_str",
        ],
    )
    def test_unknown_node_raises_typed_error(self, call):
        with pytest.raises(exceptions.UnknownNodeError):
            call()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (
                {"engine": "bogus"},
                "unknown engine 'bogus' (expected one of "
                "('sweep', 'event', 'bulk', 'shard', 'auto'))",
            ),
            ({"workers": 0}, "workers must be a positive int, got 0"),
            (
                {"congest_factor": 0},
                "congest_factor must be a positive int, got 0",
            ),
            (
                {"partitioner": "bogus"},
                "unknown partitioner 'bogus' (expected one of "
                "('block', 'greedy'))",
            ),
            (
                {"faults": "bogus"},
                "faults must be a FaultPlan or a FaultInjector, got "
                "'bogus'",
            ),
        ],
        ids=["engine", "workers", "congest_factor", "partitioner", "faults"],
    )
    def test_bad_simulator_setting_raises_typed_error(self, kwargs, message):
        with pytest.raises(exceptions.SimulatorConfigError) as info:
            distributed_betweenness(path_graph(4), **kwargs)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == message

    def test_dependency_excludes_self_source(self):
        result = distributed_betweenness(path_graph(4), arithmetic="exact")
        deps = result.nodes[1].aggregation.dependencies()
        assert 1 not in deps  # a node has no dependency record on itself

    def test_lfloat_run_has_no_exact_map(self):
        result = distributed_betweenness(path_graph(4), arithmetic="lfloat")
        assert result.betweenness_exact is None
        assert all(isinstance(v, float) for v in result.betweenness.values())

    def test_normalized_star(self):
        result = distributed_betweenness(star_graph(7), arithmetic="exact")
        assert result.normalized()[0] == pytest.approx(1.0)

    def test_stats_repr(self):
        result = distributed_betweenness(path_graph(4))
        assert "rounds" in repr(result.stats)


class TestCountingOnlyWrappers:
    def test_closeness_kwargs_passthrough(self):
        values = distributed_closeness(path_graph(5), root=2)
        from repro.centrality import closeness_centrality

        reference = closeness_centrality(path_graph(5))
        for v in range(5):
            assert values[v] == pytest.approx(reference[v])

    def test_graph_centrality_wrapper(self):
        values = distributed_graph_centrality(star_graph(5))
        assert values[0] == pytest.approx(1.0)

    def test_apsp_result_fields(self):
        result = distributed_apsp(grid_graph(3, 3))
        assert result.diameter == 4
        assert len(result.distances) == 9
        assert result.stats.rounds == result.rounds


class TestRunnerOverrides:
    def test_custom_run_callable(self):
        runner = ExperimentRunner(run=lambda graph: distributed_apsp(graph))
        records = runner.run_family("apsp", [path_graph(6)])
        assert records[0].rounds > 0
        # counting-only runs report the default arithmetic label
        assert records[0].arithmetic == "lfloat"

    def test_fit_requires_two_samples(self):
        runner = ExperimentRunner(arithmetic="exact")
        runner.run_family("one", [path_graph(5)])
        with pytest.raises(ValueError):
            runner.fit_rounds("one")


class TestTracerFilters:
    def test_combined_type_and_node_filter(self):
        tracer = Tracer(message_types=(BfsWave,), nodes={0, 1})
        distributed_betweenness(path_graph(5), tracer=tracer)
        for event in tracer.deliveries():
            assert event.message_type == "BfsWave"
            assert event.sender in {0, 1} or event.receiver in {0, 1}

    def test_counts_per_round_all_types(self):
        tracer = Tracer(message_types=(DfsToken,))
        distributed_betweenness(path_graph(4), tracer=tracer)
        total = sum(tracer.counts_per_round().values())
        assert total == len(tracer)


class TestWeightedGraphCorners:
    def test_repr(self):
        wg = WeightedGraph(3, [(0, 1, 2)], name="tiny")
        assert "tiny" in repr(wg)
        assert "N=3" in repr(wg)

    def test_empty_weighted_graph(self):
        wg = WeightedGraph(0)
        assert wg.total_weight() == 0

    def test_negative_node_count(self):
        from repro.exceptions import EmptyGraphError

        with pytest.raises(EmptyGraphError):
            WeightedGraph(-2)


class TestConvergecastOperators:
    def test_operator_add_matches_python_sum(self):
        from repro.congest import make_bfs_tree_factory, make_convergecast_factory, run_protocol

        graph = karate_club_graph()
        tree_nodes, _ = run_protocol(graph, make_bfs_tree_factory(0))
        parents = {n.node_id: n.parent for n in tree_nodes}
        children = {n.node_id: n.children for n in tree_nodes}
        values = {v: v * v for v in graph.nodes()}
        nodes, _ = run_protocol(
            graph,
            make_convergecast_factory(
                parents, children, values, combine=operator.add
            ),
        )
        assert nodes[0].result == sum(values.values())


class TestExceptionPickling:
    """Every library error survives pickling, which is how a forked shard
    worker ships its failure to the coordinator."""

    #: Constructor arguments of the errors with structured fields.
    FIELDS = {
        "CongestViolationError": (123, 39, 0, 73, 66),
        "EngineCapabilityError": ("bulk", "numpy is not installed"),
        "SimulationNotTerminatedError": (1001, 1000, [3, 4], "path"),
        "SimulationStalledError": (50, 12, [1, 2], [2]),
        "FrameChecksumError": (0x1F, 0x2E),
        "CheckpointPause": ("ckpt-00000050", 50),
        "InvariantViolationError": ("bandwidth", "edge 0 -> 1 over budget"),
    }

    @pytest.mark.parametrize(
        "cls",
        [
            obj for obj in vars(exceptions).values()
            if isinstance(obj, type) and issubclass(obj, exceptions.ReproError)
        ],
        ids=lambda cls: cls.__name__,
    )
    def test_round_trip(self, cls):
        if "__init__" in vars(cls):
            error = cls(*self.FIELDS[cls.__name__])
        else:
            error = cls("boom")
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is cls
        assert str(clone) == str(error)
        assert vars(clone) == vars(error)
