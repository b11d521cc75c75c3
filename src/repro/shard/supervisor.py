"""Supervision policy for the sharded runtime.

The coordinator of :mod:`repro.shard.runtime` is, by default, an
optimist: it blocks on each worker pipe forever.  A
:class:`SupervisionConfig` turns it into a supervisor — every worker
gets a shared-memory heartbeat slot it stamps at each barrier, the
coordinator polls the pipes with a watchdog instead of blocking, and a
worker that dies (EOF / not alive) or hangs (heartbeat older than
``heartbeat_timeout``) triggers recovery: kill everything, restore the
last round-boundary checkpoint (:mod:`repro.shard.checkpoint`), re-fork
and replay.  The keyed-hash fault replay and the barrier-quiescent
snapshot make the replayed rounds bit-identical, so supervision is
invisible in every protocol output.

When the per-shard restart budget is exhausted the supervisor stops
retrying and degrades deterministically to the runtime's existing
whole-shard-kill path: the failed shard's members are reported from its
checkpointed ledger and the run ends in a partial
:class:`~repro.core.pipeline.CompletenessReport` instead of stalling.

Shard 0 runs inside the coordinator process and is outside the failure
domain this module covers (a dead coordinator is what ``repro resume``
is for).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.exceptions import SupervisionConfigError

#: Default watchdog patience.  Generous on purpose: a false positive
#: (killing a merely slow worker) costs a rollback replay, while a true
#: hang is unrecoverable without us, so the default only has to beat
#: "forever".
DEFAULT_HEARTBEAT_TIMEOUT = 30.0

#: Exponential backoff before respawning: base * 2**restart, capped.
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 2.0


class WorkerFailure(Exception):
    """Internal signal: a supervised worker died or hung at a barrier.

    Never escapes ``run_shard`` — the coordinator's driver loop catches
    it and either rolls back to a checkpoint or (budget exhausted)
    degrades to the whole-shard-kill path.

    Attributes
    ----------
    shard:
        The failed worker's shard index (>= 1).
    reason:
        ``"died"`` (process gone / pipe EOF) or ``"hung"`` (alive but
        heartbeat older than the watchdog timeout).
    """

    def __init__(self, shard: int, reason: str, detail: str = ""):
        self.shard = shard
        self.reason = reason
        super().__init__(
            "shard {} worker {}{}".format(
                shard, reason, " ({})".format(detail) if detail else ""
            )
        )


@dataclass(frozen=True)
class SupervisionConfig:
    """Everything the coordinator needs to supervise a run.

    Attributes
    ----------
    heartbeat_timeout:
        Seconds a worker's heartbeat may age mid-command before the
        watchdog declares it hung; ``None`` means
        :data:`DEFAULT_HEARTBEAT_TIMEOUT`.
    max_restarts:
        Respawn budget *per shard*; 0 means any failure goes straight
        to the deterministic whole-shard-kill fallback.
    backoff_base, backoff_cap:
        Exponential backoff (``base * 2**restarts``, capped) slept
        before each respawn.
    checkpoint_every:
        Write a snapshot every this many processed rounds (0 disables
        checkpointing; recovery then rolls back to round 0, which is
        always held in memory).
    checkpoint_dir:
        Root directory for snapshots; a run-key subdirectory is created
        per run.  Required when ``checkpoint_every`` > 0.
    keep_checkpoints:
        Snapshots retained per run (>= 2 so a corrupt newest snapshot
        still leaves a fallback).
    resume_from:
        Path of a snapshot (or its run/checkpoint root) to restore
        before round one; the run continues from the checkpointed round
        and produces totals bit-identical to an uninterrupted run.
    stop_after:
        Testing aid: pause the run (raise
        :class:`~repro.exceptions.CheckpointPause`) right after the
        first checkpoint at or past this round is durable on disk.
    meta:
        Extra JSON-ready metadata stored in each manifest; the CLI
        records the command-line recipe here so ``repro resume`` can
        rebuild the graph and plan without re-asking.
    """

    heartbeat_timeout: Optional[float] = DEFAULT_HEARTBEAT_TIMEOUT
    max_restarts: int = 0
    backoff_base: float = DEFAULT_BACKOFF_BASE
    backoff_cap: float = DEFAULT_BACKOFF_CAP
    checkpoint_every: int = 0
    checkpoint_dir: Optional[str] = None
    keep_checkpoints: int = 2
    resume_from: Optional[str] = None
    stop_after: Optional[int] = None
    meta: Optional[Dict[str, Any]] = field(default=None, compare=False)

    def __post_init__(self):
        if self.heartbeat_timeout is None:
            object.__setattr__(
                self, "heartbeat_timeout", DEFAULT_HEARTBEAT_TIMEOUT
            )
        for name in ("checkpoint_dir", "resume_from"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, str(getattr(self, name)))
        if self.heartbeat_timeout <= 0:
            raise SupervisionConfigError(
                "heartbeat_timeout must be > 0 seconds"
            )
        if self.max_restarts < 0:
            raise SupervisionConfigError("max_restarts must be >= 0")
        if self.checkpoint_every < 0:
            raise SupervisionConfigError("checkpoint_every must be >= 0")
        if self.checkpoint_every > 0 and not self.checkpoint_dir:
            raise SupervisionConfigError(
                "checkpoint_every > 0 needs a checkpoint_dir to write to"
            )
        if self.keep_checkpoints < 2:
            raise SupervisionConfigError(
                "keep_checkpoints must be >= 2 (a corrupt newest snapshot "
                "needs a fallback)"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise SupervisionConfigError("backoff values must be >= 0")

    @property
    def checkpoints_enabled(self) -> bool:
        return self.checkpoint_every > 0 and self.checkpoint_dir is not None

    def backoff(self, restarts_so_far: int) -> float:
        """Seconds to sleep before respawn number ``restarts_so_far + 1``."""
        return min(
            self.backoff_cap, self.backoff_base * (2.0 ** restarts_so_far)
        )


def supervision_for(plan, explicit: Optional[SupervisionConfig]):
    """The effective config for a run: explicit wins; otherwise a plan
    that schedules infra faults gets default supervision (so a bare
    ``WorkerHang`` degrades to a partial result instead of blocking the
    barrier forever); otherwise None (the unsupervised fast path)."""
    if explicit is not None:
        return explicit
    if plan is not None and (
        getattr(plan, "worker_hangs", ()) or getattr(plan, "slow_workers", ())
    ):
        return SupervisionConfig()
    return None
