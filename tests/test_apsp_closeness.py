"""Tests for the counting-phase byproducts: APSP, closeness, graph centrality."""

import pytest

from repro.centrality import closeness_centrality, graph_centrality
from repro.core import (
    distributed_apsp,
    distributed_betweenness,
    distributed_closeness,
    distributed_graph_centrality,
)
from repro.graphs import (
    all_pairs_distances,
    diameter,
    eccentricities,
    grid_graph,
    karate_club_graph,
    path_graph,
    star_graph,
)


class TestDistributedAPSP:
    def test_distances_exact(self):
        graph = karate_club_graph()
        result = distributed_apsp(graph)
        reference = all_pairs_distances(graph)
        for v in graph.nodes():
            for s in graph.nodes():
                assert result.distances[v][s] == reference[s][v]

    def test_lfloat_counts_give_the_exact_distances(self):
        graph = karate_club_graph()
        lfloat = distributed_apsp(graph, arithmetic="lfloat")
        assert lfloat.distances == distributed_apsp(graph).distances

    def test_diameter(self):
        graph = grid_graph(4, 5)
        assert distributed_apsp(graph).diameter == diameter(graph)

    def test_counting_only_is_faster_than_full(self):
        graph = karate_club_graph()
        counting = distributed_apsp(graph)
        full = distributed_betweenness(graph, arithmetic="exact")
        assert counting.rounds < full.rounds

    def test_eccentricities(self):
        graph = star_graph(7)
        result = distributed_apsp(graph)
        assert list(result.eccentricities().values()) == eccentricities(graph)


class TestDistributedCentralitiesFromAPSP:
    @pytest.mark.parametrize(
        "graph",
        [path_graph(7), star_graph(6), grid_graph(3, 4), karate_club_graph()],
        ids=lambda g: g.name,
    )
    def test_closeness_matches_centralized(self, graph):
        distributed = distributed_closeness(graph)
        central = closeness_centrality(graph)
        for v in graph.nodes():
            assert distributed[v] == pytest.approx(central[v])

    @pytest.mark.parametrize(
        "graph",
        [path_graph(7), star_graph(6), grid_graph(3, 4)],
        ids=lambda g: g.name,
    )
    def test_graph_centrality_matches_centralized(self, graph):
        distributed = distributed_graph_centrality(graph)
        central = graph_centrality(graph)
        for v in graph.nodes():
            assert distributed[v] == pytest.approx(central[v])

    def test_apsp_rounds_linear(self):
        graph = path_graph(30)
        result = distributed_apsp(graph)
        assert result.rounds <= 14 * graph.num_nodes + 40
