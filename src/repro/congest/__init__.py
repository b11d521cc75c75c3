"""Synchronous CONGEST-model network simulator (Section III-A)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.wire": (
        "IntMessage",
        "Message",
        "PayloadMessage",
        "TokenMessage",
        "TYPE_TAG_BITS",
        "WireFormat",
        "int_bits",
    ),
    ".node": ("Inbox", "NodeAlgorithm", "NodeFactory", "RoundContext"),
    ".simulator": ("DEFAULT_CONGEST_FACTOR", "Simulator", "run_protocol"),
    ".stats": ("CutTracker", "SimulationStats"),
    ".primitives": (
        "BfsTreeNode",
        "BroadcastNode",
        "ConvergecastMaxNode",
        "ConvergecastNode",
        "LeaderElectionNode",
        "elect_root",
        "make_bfs_tree_factory",
        "make_broadcast_factory",
        "make_convergecast_factory",
    ),
    ".trace": ("Delivery", "FaultEvent", "Tracer"),
})
