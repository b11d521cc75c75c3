"""Outside-in tracing: timed wrappers around the calls into each layer.

:class:`LayerTracer` patches the functions listed in :data:`SPANS` and
:data:`LEAVES` (the job call is wrapped by the caller) for the duration
of one traced job and restores them afterwards, so untraced jobs run the
program
unmodified.  Every wrapped call pushes a frame on one stack; its
duration is added to its parent's child time, which gives each call its
self time (duration minus the part its child calls cover).

Calls in :data:`SPANS` are stored one span each (name, start, end,
parent, job, self).  The hot leaf calls -- per-node ``on_round``, LFloat
arithmetic, ``bit_size``, per-round stats, the fault transport and the
coordinator's pipe traffic -- are aggregated per job as
``[calls, seconds, self seconds]``.  Nothing is written while a job
runs; :meth:`LayerTracer.dump` writes everything once, at the end.

Only the calling process is traced: a forked shard worker switches its
inherited wrappers off, so on the shard engine the spans cover the
coordinator and the shard it runs in-process (shard 0).
"""

from __future__ import annotations

import importlib
import json
import os
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The root span of every traced job: the ``repro.core`` entry point.
JOB_SPAN = "core.distributed_betweenness"

#: Stored spans: ``name -> (module, owner attribute path)``.
SPANS: Dict[str, Tuple[str, str]] = {
    "congest.init": ("repro.congest.simulator", "Simulator.__init__"),
    "congest.run": ("repro.congest.simulator", "Simulator.run"),
    # Wrapped where repro.shard.runtime looks the names up.
    "shard.partition": ("repro.shard.runtime", "partition_nodes"),
    "shard.checkpoint_write": ("repro.shard.runtime", "write_checkpoint"),
}

#: Aggregated leaf calls: ``name -> (module, owner attribute path)``.
LEAVES: Dict[str, Tuple[str, str]] = {
    "core.on_round": ("repro.core.node", "BetweennessNode.on_round"),
    "core.counting": ("repro.core.counting", "CountingPhase.on_round"),
    # Also covers cfp-bc's CfpAccumulationPhase, which inherits on_round.
    "core.aggregation": ("repro.core.aggregation", "AggregationPhase.on_round"),
    "arithmetic.lfloat_add": ("repro.arithmetic.lfloat", "LFloat.add"),
    "arithmetic.lfloat_mul": ("repro.arithmetic.lfloat", "LFloat.mul"),
    "wire.bit_size": ("repro.wire.messages", "Message.bit_size"),
    "congest.observe_round": (
        "repro.congest.stats", "SimulationStats.observe_round",
    ),
    "faults.transport": ("repro.faults.transport", "ResilientNode.on_round"),
    "faults.deliveries": ("repro.faults.injector", "FaultInjector.deliveries"),
    "shard.ipc_send": ("multiprocessing.connection", "Connection.send"),
    "shard.ipc_recv": ("multiprocessing.connection", "Connection.recv"),
    "shard.ipc_poll": ("multiprocessing.connection", "Connection.poll"),
}

#: Untimed byte counters on the pipe layer under ``send``/``recv``.
_BYTE_COUNTERS = (
    ("multiprocessing.connection", "Connection._send_bytes", "sent"),
    ("multiprocessing.connection", "Connection._recv_bytes", "received"),
)


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class LayerTracer:
    """Per-job spans and leaf aggregates, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.spans: List[Dict[str, Any]] = []
        #: per finished job: ``{"job", "leaves", "ipc"}``
        self.jobs: List[Dict[str, Any]] = []
        self._stack: List[List[Any]] = []
        self._leaves: Dict[str, List[float]] = {}
        self._ipc: Dict[str, int] = {}
        self._job: Optional[int] = None
        self._active = False
        self._patches: List[Tuple[Any, str, Any]] = []
        ref = weakref.ref(self)

        def _in_child() -> None:
            tracer = ref()
            if tracer is not None:
                tracer._active = False

        os.register_at_fork(after_in_child=_in_child)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, store: bool) -> Callable:
        """``fn`` timed under ``name``; stored as a span when ``store``."""
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if store:
                frame[1] = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                parent[0] += took
                if store:
                    tracer.spans[frame[1]] = {
                        "name": name, "start": start, "end": end,
                        "parent": parent[1], "job": tracer._job,
                        "self": took - frame[0],
                    }
                else:
                    agg = tracer._leaves.get(name)
                    if agg is None:
                        agg = tracer._leaves[name] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += took
                    agg[2] += took - frame[0]

        return traced

    def _count_bytes(self, key: str, fn: Callable) -> Callable:
        tracer = self

        def counted(conn, *args, **kwargs):
            out = fn(conn, *args, **kwargs)
            if tracer._active:
                if key == "sent":
                    size = len(args[0])
                else:
                    size = out.getbuffer().nbytes
                tracer._ipc[key] = tracer._ipc.get(key, 0) + size
            return out

        return counted

    def _count_rounds(self, fn: Callable) -> Callable:
        """``Connection.send`` counting the coordinator's round commands."""
        tracer = self

        def send(conn, obj):
            if (
                tracer._active and type(obj) is tuple and obj
                and obj[0] == "round"
            ):
                tracer._ipc["barriers"] = tracer._ipc.get("barriers", 0) + 1
            return fn(conn, obj)

        return send

    def install(self) -> None:
        """Patch every target (idempotent until :meth:`uninstall`)."""
        if self._patches:
            return
        for table, store in ((SPANS, True), (LEAVES, False)):
            for name, (module, path) in table.items():
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original, store)
                if name == "shard.ipc_send":
                    wrapped = self._count_rounds(wrapped)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        for module, path, key in _BYTE_COUNTERS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._count_bytes(key, original))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ------------------------------------------------------------------
    # jobs
    # ------------------------------------------------------------------
    def begin_job(self, job: int) -> None:
        """Open job ``job``: a root frame that no layer owns."""
        self._job = job
        self._leaves = {}
        self._ipc = {}
        self._stack[:] = [[0.0, None]]
        self._active = True

    def end_job(self) -> None:
        self._active = False
        self.jobs.append(
            {"job": self._job, "leaves": self._leaves, "ipc": self._ipc}
        )
        self._stack[:] = []

    def job_spans(self, job: int) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s is not None and s["job"] == job]

    def dump(self, path, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write every span and leaf aggregate (and ``extra``) as JSON."""
        payload = {"spans": self.spans, "jobs": self.jobs}
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
