"""repro — reproduction of "Nearly Optimal Distributed Algorithm for
Computing Betweenness Centrality" (Hua et al., ICDCS 2016).

The package provides:

* :func:`repro.distributed_betweenness` — the paper's O(N)-round
  CONGEST-model algorithm, run on a synchronous network simulator with
  per-edge bandwidth enforcement.
* :func:`repro.brandes_betweenness` — the centralized Brandes baseline
  (Algorithm 1) with exact-rational and float arithmetic.
* ``repro.graphs`` — graph types, generators and properties.
* ``repro.arithmetic`` — the Section VI L-bit floating point format
  with machine-checked error bounds.
* ``repro.congest`` — the CONGEST simulator itself, reusable for other
  distributed protocols.
* ``repro.lowerbound`` — the Section IX lower-bound gadgets (Figures 2
  and 3) and cut-traffic analysis.

Quickstart::

    from repro import distributed_betweenness, brandes_betweenness
    from repro.graphs import karate_club_graph

    graph = karate_club_graph()
    result = distributed_betweenness(graph)        # L-float arithmetic
    reference = brandes_betweenness(graph)         # centralized Brandes
    print(result.betweenness[0], reference[0])
    print("rounds:", result.rounds, "diameter:", result.diameter)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".arithmetic": (
        "ExactContext",
        "LFloat",
        "LFloatArithmetic",
        "Rounding",
        "recommended_precision",
    ),
    ".centrality": (
        "brandes_betweenness",
        "weighted_brandes_betweenness",
        "closeness_centrality",
        "graph_centrality",
        "naive_betweenness",
        "sampled_betweenness",
        "stress_centrality",
    ),
    ".congest": ("Simulator", "run_protocol"),
    ".core": (
        "CompletenessReport",
        "DistributedAPSPResult",
        "DistributedBCResult",
        "ProtocolConfig",
        "distributed_apsp",
        "distributed_betweenness",
        "distributed_closeness",
        "distributed_graph_centrality",
        "distributed_sampled_betweenness",
        "distributed_stress",
        "distributed_weighted_betweenness",
    ),
    ".exceptions": (
        "CheckpointError",
        "CongestViolationError",
        "FrameChecksumError",
        "GraphNotConnectedError",
        "LFloatRangeError",
        "ProtocolError",
        "ReproError",
        "SimulationNotTerminatedError",
        "SimulationStalledError",
    ),
    ".faults": (
        "CrashWindow",
        "FaultPlan",
        "LinkOutage",
        "SlowWorker",
        "WorkerHang",
    ),
    ".graphs": ("Graph", "GraphBuilder", "WeightedGraph"),
})
__all__.append("__version__")
