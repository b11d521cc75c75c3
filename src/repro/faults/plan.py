"""Serializable fault plans: the declarative side of fault injection.

A :class:`FaultPlan` describes *which* faults a run is subjected to —
probabilistic channel faults (drop, duplication, bounded delay,
bit-flip corruption of the encoded frame) plus scheduled faults
(node crash/restart windows, link-down intervals) — without saying
anything about *how* they are realized; that is the
:class:`~repro.faults.injector.FaultInjector`'s job.

Plans are plain frozen dataclasses with a JSON round-trip
(:meth:`FaultPlan.to_dict` / :meth:`FaultPlan.from_dict`), so a chaos
scenario can be stored next to a benchmark table and replayed exactly.
Determinism is part of the contract: the injector derives every fault
decision from a pure hash of ``(plan.seed, fault kind, round, edge,
per-edge message index)``, so the same plan on the same protocol run
produces the same faults under **both** simulator engines — there is
no consumed RNG stream to desynchronize.

See ``docs/fault-model.md`` for the full taxonomy and the recovery
guarantees each fault class does (and does not) come with.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: Default rounds of zero fresh traffic before the injector declares a
#: stall.  Must comfortably exceed the transport's retransmission
#: backoff cap (16 rounds) plus the maximum bounded delay, or a healthy
#: but unlucky run could be declared dead while recovery is in flight.
DEFAULT_STALL_PATIENCE = 128


@dataclass(frozen=True)
class CrashWindow:
    """A fail-pause crash: ``node`` is frozen for rounds [start, end).

    ``end is None`` means the crash is permanent.  Fail-pause semantics:
    the node's state is preserved; while crashed it is never stepped and
    every message addressed to it is lost at delivery time.  A node
    crashed from round 0 never even runs ``on_start``.
    """

    node: int
    start: int
    end: Optional[int] = None

    def __post_init__(self):
        if self.start < 0:
            raise ValueError("crash window start must be >= 0")
        if self.end is not None and self.end <= self.start:
            raise ValueError("crash window end must be after its start")

    def covers(self, round_number: int) -> bool:
        """Whether the node is down in ``round_number``."""
        if round_number < self.start:
            return False
        return self.end is None or round_number < self.end


@dataclass(frozen=True)
class LinkOutage:
    """Both directions of edge {u, v} are down for rounds [start, end).

    A message *sent* during the outage is lost (the medium is gone when
    the sender transmits); the edge itself remains part of the topology,
    so neighbors lists and budgets are unchanged.
    """

    u: int
    v: int
    start: int
    end: int

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError("link outage needs two distinct endpoints")
        if self.start < 0 or self.end <= self.start:
            raise ValueError("link outage needs 0 <= start < end")

    def covers(self, round_number: int) -> bool:
        return self.start <= round_number < self.end


@dataclass(frozen=True)
class WorkerHang:
    """Infrastructure fault: a shard worker wedges at a round barrier.

    When the worker for ``shard`` receives the command for ``round`` it
    stops stamping its heartbeat and spins forever, exactly as a
    deadlocked or livelocked process would.  Only the supervisor can get
    the run moving again (watchdog timeout → kill → respawn from the
    last checkpoint).  ``repeats`` counts how many *incarnations* of the
    worker hang: with the default 1, the respawned worker sails past the
    same round; with ``repeats=3`` the first three incarnations all
    wedge, exercising the restart budget.

    ``shard`` must be >= 1 — shard 0 runs inside the coordinator process
    and cannot be supervised away.
    """

    shard: int
    round: int
    repeats: int = 1

    def __post_init__(self):
        if self.shard < 1:
            raise ValueError(
                "worker hangs need shard >= 1 (shard 0 is the coordinator)"
            )
        if self.round < 0:
            raise ValueError("worker hang round must be >= 0")
        if self.repeats < 1:
            raise ValueError("worker hang repeats must be >= 1")


@dataclass(frozen=True)
class SlowWorker:
    """Infrastructure fault: one shard worker stalls for ``delay`` seconds.

    The worker for ``shard`` sleeps before processing ``round`` but keeps
    its heartbeat fresh, modelling a straggler (GC pause, noisy
    neighbor) rather than a failure.  A correctly tuned supervisor must
    *not* kill it: the run completes bit-identically, just later.  Like
    :class:`WorkerHang` this is wall-clock only and never changes any
    protocol output.
    """

    shard: int
    round: int
    delay: float = 0.5

    def __post_init__(self):
        if self.shard < 1:
            raise ValueError(
                "slow workers need shard >= 1 (shard 0 is the coordinator)"
            )
        if self.round < 0:
            raise ValueError("slow worker round must be >= 0")
        if self.delay <= 0:
            raise ValueError("slow worker delay must be > 0 seconds")


@dataclass(frozen=True)
class FaultPlan:
    """The complete fault scenario for one run.

    Attributes
    ----------
    seed:
        Root of every hash-derived fault decision; two runs with the
        same plan see byte-identical fault schedules.
    drop_rate:
        Per-message probability of silent loss.
    duplicate_rate:
        Per-message probability of a second delivery of the same
        message one-to-``max_delay`` rounds later.
    delay_rate, max_delay:
        Per-message probability of late delivery, and the maximum extra
        rounds a delayed message spends on the wire (uniform in
        ``1..max_delay``).
    corrupt_rate, corrupt_bits:
        Per-message probability of bit-flip corruption of the encoded
        frame, and how many bits flip.  Corrupted frames whose checksum
        rejects them are dropped at the receiver (a *detected* loss);
        see :mod:`repro.faults.injector` for the exact realization.
    crashes:
        Fail-pause node crash/restart windows.
    link_outages:
        Scheduled link-down intervals.
    stall_patience:
        Rounds without fresh traffic (floored at 2N) before the round
        driver raises :class:`~repro.exceptions.SimulationStalledError`.
    worker_hangs, slow_workers:
        Infrastructure faults against the sharded runtime's *processes*
        rather than the protocol's messages: scheduled worker wedges
        (:class:`WorkerHang`) and stragglers (:class:`SlowWorker`).
        Single-process engines ignore them — they model the machine,
        not the algorithm, and never change protocol outputs.
    corrupt_checkpoint_rounds:
        Checkpoint rounds whose just-written snapshot gets one byte
        flipped on disk, exercising the checksum rejection + fall-back
        path of :mod:`repro.shard.checkpoint`.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay: int = 3
    corrupt_rate: float = 0.0
    corrupt_bits: int = 1
    crashes: Tuple[CrashWindow, ...] = ()
    link_outages: Tuple[LinkOutage, ...] = ()
    stall_patience: int = DEFAULT_STALL_PATIENCE
    worker_hangs: Tuple[WorkerHang, ...] = ()
    slow_workers: Tuple[SlowWorker, ...] = ()
    corrupt_checkpoint_rounds: Tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("drop_rate", "duplicate_rate", "delay_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    "{} must be in [0, 1], got {!r}".format(name, rate)
                )
        if self.max_delay < 1:
            raise ValueError("max_delay must be >= 1")
        if self.corrupt_bits < 1:
            raise ValueError("corrupt_bits must be >= 1")
        if self.stall_patience < 1:
            raise ValueError("stall_patience must be >= 1")
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "link_outages", tuple(self.link_outages))
        object.__setattr__(self, "worker_hangs", tuple(self.worker_hangs))
        object.__setattr__(self, "slow_workers", tuple(self.slow_workers))
        object.__setattr__(
            self,
            "corrupt_checkpoint_rounds",
            tuple(int(r) for r in self.corrupt_checkpoint_rounds),
        )
        if any(r < 0 for r in self.corrupt_checkpoint_rounds):
            raise ValueError("corrupt_checkpoint_rounds must be >= 0")

    # ------------------------------------------------------------------
    @property
    def has_channel_faults(self) -> bool:
        """Whether any probabilistic per-message fault can fire."""
        return (
            self.drop_rate > 0.0
            or self.duplicate_rate > 0.0
            or self.delay_rate > 0.0
            or self.corrupt_rate > 0.0
        )

    @property
    def has_infra_faults(self) -> bool:
        """Whether the plan targets the runtime's processes or snapshots."""
        return bool(
            self.worker_hangs
            or self.slow_workers
            or self.corrupt_checkpoint_rounds
        )

    @property
    def is_zero(self) -> bool:
        """A plan that can never inject anything (the differential case)."""
        return (
            not self.has_channel_faults
            and not self.crashes
            and not self.link_outages
            and not self.has_infra_faults
        )

    def permanent_crashes(self) -> Tuple[int, ...]:
        """Ids of nodes some window crashes forever."""
        return tuple(
            sorted({w.node for w in self.crashes if w.end is None})
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready plain-dict rendering of the plan."""
        return {
            "schema": "repro-faultplan-v1",
            "seed": self.seed,
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
            "delay_rate": self.delay_rate,
            "max_delay": self.max_delay,
            "corrupt_rate": self.corrupt_rate,
            "corrupt_bits": self.corrupt_bits,
            "crashes": [
                {"node": w.node, "start": w.start, "end": w.end}
                for w in self.crashes
            ],
            "link_outages": [
                {"u": o.u, "v": o.v, "start": o.start, "end": o.end}
                for o in self.link_outages
            ],
            "stall_patience": self.stall_patience,
            "worker_hangs": [
                {"shard": h.shard, "round": h.round, "repeats": h.repeats}
                for h in self.worker_hangs
            ],
            "slow_workers": [
                {"shard": s.shard, "round": s.round, "delay": s.delay}
                for s in self.slow_workers
            ],
            "corrupt_checkpoint_rounds": list(
                self.corrupt_checkpoint_rounds
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict` (tolerates missing defaults)."""
        schema = payload.get("schema", "repro-faultplan-v1")
        if schema != "repro-faultplan-v1":
            raise ValueError(
                "unsupported fault plan schema {!r}".format(schema)
            )
        return cls(
            seed=int(payload.get("seed", 0)),
            drop_rate=float(payload.get("drop_rate", 0.0)),
            duplicate_rate=float(payload.get("duplicate_rate", 0.0)),
            delay_rate=float(payload.get("delay_rate", 0.0)),
            max_delay=int(payload.get("max_delay", 3)),
            corrupt_rate=float(payload.get("corrupt_rate", 0.0)),
            corrupt_bits=int(payload.get("corrupt_bits", 1)),
            crashes=tuple(
                CrashWindow(
                    node=int(w["node"]),
                    start=int(w["start"]),
                    end=None if w.get("end") is None else int(w["end"]),
                )
                for w in payload.get("crashes", ())
            ),
            link_outages=tuple(
                LinkOutage(
                    u=int(o["u"]),
                    v=int(o["v"]),
                    start=int(o["start"]),
                    end=int(o["end"]),
                )
                for o in payload.get("link_outages", ())
            ),
            stall_patience=int(
                payload.get("stall_patience", DEFAULT_STALL_PATIENCE)
            ),
            worker_hangs=tuple(
                WorkerHang(
                    shard=int(h["shard"]),
                    round=int(h["round"]),
                    repeats=int(h.get("repeats", 1)),
                )
                for h in payload.get("worker_hangs", ())
            ),
            slow_workers=tuple(
                SlowWorker(
                    shard=int(s["shard"]),
                    round=int(s["round"]),
                    delay=float(s.get("delay", 0.5)),
                )
                for s in payload.get("slow_workers", ())
            ),
            corrupt_checkpoint_rounds=tuple(
                int(r)
                for r in payload.get("corrupt_checkpoint_rounds", ())
            ),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))
