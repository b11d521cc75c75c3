"""Centralized centrality baselines: Brandes (Algorithm 1) and friends."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".accumulation": (
        "SSSPResult",
        "accumulate_dependencies",
        "accumulate_psi",
        "pair_dependencies",
        "descendant_path_counts",
        "shortest_path_descendants",
        "single_source_shortest_paths",
    ),
    ".brandes": (
        "brandes_betweenness",
        "dependency_matrix",
        "single_node_betweenness",
    ),
    ".naive": ("enumerate_betweenness", "naive_betweenness"),
    ".other": (
        "closeness_centrality",
        "graph_centrality",
        "stress_centrality",
    ),
    ".weighted": ("weighted_brandes_betweenness",),
    ".sampling": (
        "adaptive_sampled_betweenness",
        "required_samples",
        "sampled_betweenness",
    ),
})
