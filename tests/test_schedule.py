"""Tests for the analytic schedule module (Figure 1 and Lemma 4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ProtocolConfig,
    bfs_start_times,
    bfs_tree_children,
    count_collisions,
    dfs_preorder,
    distributed_betweenness,
    expected_phase_schedule,
    figure1_tables,
    naive_start_times,
    predict_rounds,
    sending_times,
    tree_walk_lengths,
    verify_separation,
)
from repro.exceptions import GraphError, UnknownNodeError
from repro.graphs import (
    diameter,
    figure1_graph,
    grid_graph,
    karate_club_graph,
    path_graph,
    star_graph,
)

from .conftest import connected_graphs


class TestFigure1Reproduction:
    """Reproduce every number the paper quotes for its running example."""

    def test_start_times_shortcut_mode(self):
        """T_{v1..v5} = 0, 2, 4, 6, 8 (Section VII walkthrough)."""
        times = bfs_start_times(figure1_graph(), root=0, mode="shortcut")
        assert times == {0: 0, 1: 2, 2: 4, 3: 6, 4: 8}

    def test_v4_sending_times_per_tree(self):
        """The four sending times of v4 computed in the text:

        T_{v1}(v4) = 0 + 3 - 3 = 0,   T_{v2}(v4) = 2 + 3 - 2 = 3,
        T_{v3}(v4) = 4 + 3 - 1 = 6,   T_{v5}(v4) = 8 + 3 - 1 = 10.
        """
        tables = figure1_tables()
        v4 = 3
        assert tables[0][v4] == 0
        assert tables[1][v4] == 3
        assert tables[2][v4] == 6
        assert tables[4][v4] == 10

    def test_bfs_v1_full_table(self):
        """Sending times in BFS(v1): T(v) = 0 + 3 - d(v1, v)."""
        tables = figure1_tables()
        assert tables[0] == {0: 3, 1: 2, 2: 1, 3: 0, 4: 1}

    def test_dfs_preorder_is_v1_to_v5(self):
        assert dfs_preorder(figure1_graph(), 0) == [0, 1, 2, 3, 4]

    def test_separation_holds_for_paper_schedule(self):
        g = figure1_graph()
        times = bfs_start_times(g, 0, mode="shortcut")
        assert verify_separation(g, times)
        assert count_collisions(g, times) == 0


class TestTreeStructure:
    def test_children_min_id_parent(self):
        g = figure1_graph()
        children = bfs_tree_children(g, 0)
        assert children[0] == [1]
        assert children[1] == [2, 4]
        assert children[2] == [3]  # v4's parent is min(v3, v5) = v3
        assert children[3] == []

    def test_preorder_covers_all_nodes(self):
        g = karate_club_graph()
        order = dfs_preorder(g, 0)
        assert sorted(order) == list(g.nodes())
        assert order[0] == 0

    def test_tree_walk_lengths_path(self):
        g = path_graph(4)
        walk = tree_walk_lengths(g, 0)
        assert walk == [(0, 0), (1, 1), (2, 1), (3, 1)]

    def test_tree_walk_lengths_star(self):
        g = star_graph(4)
        walk = tree_walk_lengths(g, 0)
        # each later leaf needs a backtrack through the hub: 2 hops
        assert walk == [(0, 0), (1, 1), (2, 2), (3, 2)]

    def test_tree_walk_total_bounded_by_euler_tour(self):
        g = karate_club_graph()
        total_hops = sum(h for _, h in tree_walk_lengths(g, 0))
        assert total_hops <= 2 * (g.num_nodes - 1)

    @pytest.mark.parametrize("extra", [0, 4])
    @pytest.mark.parametrize(
        "helper",
        [predict_rounds, expected_phase_schedule, bfs_tree_children,
         dfs_preorder, tree_walk_lengths],
        ids=lambda f: f.__name__,
    )
    def test_out_of_range_root_raises_typed_error(self, helper, extra):
        g = path_graph(5)
        root = g.num_nodes + extra
        with pytest.raises(UnknownNodeError, match=r"^root {} is not a node "
                           r"of the graph \(N=5\)$".format(root)):
            helper(g, root=root)


class TestStartTimeModes:
    @given(connected_graphs())
    @settings(max_examples=25, deadline=None)
    def test_both_modes_satisfy_separation(self, graph):
        for mode in ("shortcut", "tree_walk"):
            times = bfs_start_times(graph, 0, mode=mode)
            assert verify_separation(graph, times)
            assert count_collisions(graph, times) == 0

    @given(connected_graphs())
    @settings(max_examples=25, deadline=None)
    def test_shortcut_never_slower_than_tree_walk(self, graph):
        fast = bfs_start_times(graph, 0, mode="shortcut")
        slow = bfs_start_times(graph, 0, mode="tree_walk")
        assert max(fast.values()) <= max(slow.values())

    def test_t0_offset(self):
        g = path_graph(3)
        times = bfs_start_times(g, 0, mode="shortcut", t0=5)
        assert times[0] == 5

    def test_unknown_mode(self):
        with pytest.raises(GraphError):
            bfs_start_times(path_graph(3), 0, mode="teleport")


class TestCollisionAblation:
    def test_naive_schedule_collides(self):
        """All-sources-at-once scheduling breaks Lemma 4 massively."""
        g = karate_club_graph()
        naive = naive_start_times(g)
        assert not verify_separation(g, naive)
        assert count_collisions(g, naive) > g.num_nodes

    def test_collision_count_zero_iff_separated(self):
        g = grid_graph(3, 3)
        good = bfs_start_times(g, 0, mode="tree_walk")
        assert count_collisions(g, good) == 0
        # compress the schedule: collisions appear
        squeezed = {v: t // 2 for v, t in good.items()}
        if not verify_separation(g, squeezed):
            assert count_collisions(g, squeezed) > 0

    def test_sending_times_shape(self):
        g = path_graph(4)
        times = bfs_start_times(g, 0, mode="shortcut")
        tables = sending_times(g, times, diameter=diameter(g))
        assert set(tables.keys()) == set(g.nodes())
        for s, row in tables.items():
            # the farthest node sends first: T_s + D - d
            assert row[s] == times[s] + diameter(g)


class TestTimelineAgainstRuns:
    """The closed-form timeline equals real runs on generated graphs."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_schedule_matches_event_run(self, data):
        graph = data.draw(connected_graphs(max_nodes=14))
        nodes = st.integers(min_value=0, max_value=graph.num_nodes - 1)
        root = data.draw(nodes)
        sources = data.draw(
            st.none() | st.frozensets(nodes, min_size=1, max_size=3)
        )
        aggregate = data.draw(st.booleans())
        result = distributed_betweenness(
            graph,
            arithmetic="lfloat",
            engine="event",
            root=root,
            config=ProtocolConfig(sources=sources, aggregate=aggregate),
        )
        schedule = expected_phase_schedule(graph, root, sources, aggregate)
        root_node = result.nodes[root]
        assert schedule.total_rounds == result.rounds
        assert schedule.r_census == root_node.tree.census_round
        assert schedule.r_result == root_node.counting.result_round
        if aggregate:
            assert schedule.base == root_node.counting.counting_result[2]
            if sources is None:
                model = predict_rounds(graph, root)
                assert model.total_rounds == result.rounds
                assert model.start_times == result.start_times
