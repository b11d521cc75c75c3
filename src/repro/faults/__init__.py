"""repro.faults — fault injection and the self-healing transport.

Two halves, one package:

* **Injection** (:mod:`~repro.faults.plan`, :mod:`~repro.faults.
  injector`): a serializable :class:`FaultPlan` describing message
  drop/duplication/delay/corruption, node crash windows and link
  outages, realized deterministically by a :class:`FaultInjector` the
  simulator consults per send.  ``faults=None`` (the default
  everywhere) is a zero-cost fast path — no plan, no overhead, and
  byte-identical output to a build without this package.

* **Recovery** (:mod:`~repro.faults.transport`): :class:`ResilientNode`
  wraps any protocol node in an ack/retransmit transport plus an
  alpha-synchronizer, so the wrapped protocol computes the *exact*
  fault-free answer over lossy channels — recovery changes when things
  happen, never what is computed.

See ``docs/fault-model.md`` for the taxonomy, guarantees and limits.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".plan": (
        "FaultPlan",
        "CrashWindow",
        "LinkOutage",
        "WorkerHang",
        "SlowWorker",
        "DEFAULT_STALL_PATIENCE",
    ),
    ".injector": ("FaultInjector", "FaultStats"),
    ".transport": (
        "ResilientNode",
        "Envelope",
        "Fence",
        "Ack",
        "make_resilient_factory",
        "unwrap_node",
        "RESILIENT_CONGEST_FACTOR",
        "RETRY_INTERVAL",
        "RETRY_INTERVAL_CAP",
        "RETRANSMIT_BURST",
    ),
})
