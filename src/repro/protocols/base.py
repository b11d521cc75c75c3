"""The protocol layer contract: the :class:`Protocol` descriptor.

Everything above :class:`~repro.congest.node.NodeAlgorithm` used to
hard-code the paper's Algorithm 2 node — the dispatcher probed for
"stock nodes", the telemetry derived phases from ``BetweennessNode``
internals, the pipeline and CLI instantiated it directly.  A
:class:`Protocol` makes that coupling explicit and replaceable: one
frozen descriptor bundles the node factory, the node class the runtime
layers may probe for, the wire-message set, the capability flags the
engine dispatcher and the fault layer consult, and the closed-form
round-schedule hook the progress estimator uses.

The contract each layer honors:

* **Simulator / pipeline** build nodes exclusively through
  :meth:`Protocol.build_factory` and read results from the
  ``betweenness_raw`` / ``diameter`` / ``ledger`` surface of
  :attr:`Protocol.node_class`.
* **Engine dispatcher** never sends a protocol to the bulk engine
  unless :attr:`Protocol.bulk_capable` says the closed-form array
  program reproduces it; ``engine="auto"`` falls back to the event
  engine with the protocol named in the recorded reason.
* **Fault layer** wraps nodes in the generic transport only when
  :attr:`Protocol.fault_wrappable` is set (the alpha-synchronizer is
  protocol-agnostic, but a protocol that bypasses the inbox contract
  could opt out).
* **Observability** uses :meth:`Protocol.schedule` for percent/ETA
  progress and stamps :attr:`Protocol.name` into telemetry metadata
  and history run keys, so runs of different protocols never collide
  in the regression ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple


@dataclass(frozen=True)
class Protocol:
    """One registered distributed-BC protocol (see module docstring)."""

    #: Registry key, e.g. ``"hua-bc"`` — what ``--protocol`` selects and
    #: what telemetry metadata / history run keys record.
    name: str
    #: One-line human description for ``repro info`` and docs.
    title: str
    #: Provenance of the algorithm (paper reference).
    paper: str
    #: The node class instances of this protocol are built from.  The
    #: runtime layers use it for unwrap checks and capability probes —
    #: an exact-type anchor, not an isinstance hierarchy.
    node_class: type
    #: Wire message classes the protocol puts on edges (all must be
    #: registered with the exact-bit codec in :mod:`repro.wire`).
    messages: Tuple[type, ...]
    #: Factory builder: ``(root, arith, config=, telemetry=) -> NodeFactory``.
    build_factory: Callable
    #: True if the bulk engine's closed-form array program reproduces
    #: this protocol bit-identically (only the stock schedule qualifies).
    bulk_capable: bool = False
    #: True if the generic fault transport may wrap this protocol's
    #: nodes (requires only the standard inbox/round contract).
    fault_wrappable: bool = True
    #: Closed-form phase schedule for progress estimation:
    #: ``(graph, root=, sources=, aggregate=) -> PhaseSchedule``, or
    #: None when no closed form exists (the estimator then runs without
    #: a total).
    schedule: Optional[Callable] = None
    #: Free-form notes rendered in docs (arena findings, caveats).
    notes: str = field(default="", compare=False)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name
