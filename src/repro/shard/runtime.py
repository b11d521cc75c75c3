"""The sharded multi-process round-synchronous runtime.

``run_shard(simulator)`` executes a run whose node set has been
partitioned across ``simulator.workers`` processes.  Shard 0 runs
inside the coordinator (parent) process — so the protocol root's
telemetry phase hooks stay in-process — and shards ``1..W-1`` run in
forked workers connected by ``multiprocessing`` pipes.  ``fork`` is
required (node factories are closures; forked children inherit the
pre-built node objects copy-on-write), which the dispatcher's
``shard_capability`` probe enforces.

Each worker runs its shard's rounds with the same
:class:`~repro.congest.kernel.RoundKernel` the single-process event
engine uses (wake heaps, passive-message deferral, crash filtering,
fault pipeline), one :meth:`~repro.congest.kernel.RoundKernel.run_round`
per round, with a node -> shard owner table routing sends to other
shards into a cross-shard outbox.  The coordinator is a round
source of the outer loop every round engine shares,
:func:`~repro.congest.kernel.drive_rounds`: its round is one barrier
exchange with the workers, and its horizons (arrivals, wakes, delayed
deliveries, last progress) come from their per-round reports.  The
loop therefore processes, fast-forwards, terminates, stalls and aborts
exactly as it does for ``engine="event"``, and a sharded run is
**bit-identical** to it: same rounds, same bits, same messages, same
worst edge, same betweenness.

Cross-shard traffic travels as encoded wire frames batched per
(src shard, dst shard) per round (:mod:`repro.shard.frames`), decoded
through :mod:`repro.wire` on arrival.  See ``docs/sharding.md`` for
the full barrier protocol and the fault/kill semantics.

With a :class:`~repro.shard.supervisor.SupervisionConfig` the
coordinator additionally supervises its workers: each child stamps a
shared-memory heartbeat at every barrier, the blocking ``recv`` becomes
a polling watchdog that tells *dead* (pipe EOF / process gone) from
*hung* (alive but heartbeat stale), and either failure triggers a
global rollback — kill every child, restore the newest round-boundary
checkpoint (:mod:`repro.shard.checkpoint`), re-fork, replay.  Because
a snapshot is taken at a barrier (every in-flight message is explicit
state) and fault decisions are keyed hashes (the injector's snapshot is
pure state), the replayed rounds are bit-identical, so supervision and
resume never show up in any protocol output.  See
``docs/recovery.md``.
"""

from __future__ import annotations

import heapq
import os
import pickle
import time
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.congest.kernel import EdgeLoad, RoundKernel, drive_rounds
from repro.congest.stats import SimulationStats
from repro.exceptions import (
    CheckpointError,
    CheckpointPause,
    CongestViolationError,
    SimulationStalledError,
)
from repro.shard.checkpoint import (
    corrupt_checkpoint,
    list_checkpoints,
    prune_checkpoints,
    read_checkpoint,
    resolve_checkpoint,
    write_checkpoint,
)
from repro.shard.frames import decode_shard_frame, encode_shard_frame
from repro.shard.partition import edge_cut, partition_nodes
from repro.shard.supervisor import WorkerFailure, supervision_for


def _unwrap(node):
    """The protocol node behind an optional transport wrapper."""
    return getattr(node, "inner", node)


def _ledger_words(nodes) -> int:
    """Ledger storage words held by ``nodes``."""
    from repro.core.records import ledger_storage_totals

    ledgers = (getattr(_unwrap(node), "ledger", None) for node in nodes)
    return ledger_storage_totals(l for l in ledgers if l is not None)["words"]


def _handover(v: int, node) -> Dict[str, Any]:
    """What the coordinator needs to stand in for a dead node: its
    settled (source, sigma, psi) ledger rows and its result fields."""
    inner = _unwrap(node)
    agg = getattr(inner, "aggregation", None)
    counting = getattr(inner, "counting", None)
    ledger = getattr(inner, "ledger", None)
    rows = []
    if ledger is not None:
        source_col = ledger.source_col
        sigma_col = ledger.sigma_col
        psi_col = ledger.psi_col
        for row in range(len(ledger)):
            if psi_col[row] is not None:
                rows.append((source_col[row], sigma_col[row], psi_col[row]))
    return {
        "node": v,
        "rows": rows,
        "sent": inner.sent_sources(),
        "diameter": getattr(agg, "diameter", None),
        "start": getattr(counting, "own_start_time", None),
        "done": node.done,
    }


def _patch_node(node, diameter, start, done) -> None:
    """Write a remotely computed node's result fields into this
    process's copy."""
    inner = _unwrap(node)
    if hasattr(inner, "aggregation"):
        inner.aggregation.diameter = diameter
    if hasattr(inner, "counting"):
        inner.counting.own_start_time = start
    node.done = done
    if inner is not node:
        inner.done = done


def _shard_dead_round(plan, members) -> Optional[int]:
    """First round from which *every* member is permanently crashed.

    ``None`` unless each member has a permanent crash window — the
    "kill a whole worker process" scenario.  Deterministically
    computable from the plan by every process, so coordinator and
    worker agree on the shard's death round without negotiation.
    """
    if plan is None:
        return None
    worst = 0
    for v in members:
        starts = [
            w.start for w in plan.crashes if w.node == v and w.end is None
        ]
        if not starts:
            return None
        worst = max(worst, min(starts))
    return worst


class _ShardWorker:
    """One shard's round kernel plus its frame exchange (parent or child)."""

    def __init__(self, sim, shard_id, assignment, shards, dead_round):
        self.sim = sim
        self.shard_id = shard_id
        self.members = shards[shard_id]
        self.dead_round = dead_round
        self.arith = getattr(_unwrap(sim.nodes[0]), "arith", None)
        # In the parent the kernels of shards >= 1 stay at round 0 (the
        # forked children run their copies).
        self.kernel = RoundKernel(sim, owner=assignment, shard=shard_id)
        # Supervision plumbing (set by _child_main in forked children).
        self.incarnation = 0
        self.heartbeat = None
        plan = sim.faults.plan if sim.faults is not None else None
        self._hangs = tuple(
            h for h in getattr(plan, "worker_hangs", ())
            if h.shard == shard_id
        )
        self._slows = tuple(
            s for s in getattr(plan, "slow_workers", ())
            if s.shard == shard_id
        )

    # ------------------------------------------------------------------
    def _apply_infra_faults(self, round_number: int) -> None:
        """Realize scheduled WorkerHang/SlowWorker faults for this round.

        A slow worker sleeps but keeps stamping its heartbeat (a healthy
        straggler the watchdog must tolerate); a hung worker spins with
        the heartbeat frozen, so only the supervisor's timeout can end
        it.  Hangs apply to incarnations below ``repeats``: the default
        1 hangs only the original worker, letting its checkpoint-
        restored replacement sail past the same round.
        """
        for slow in self._slows:
            if slow.round == round_number:
                end = time.monotonic() + slow.delay
                while True:
                    if self.heartbeat is not None:
                        self.heartbeat.value = time.monotonic()
                    remaining = end - time.monotonic()
                    if remaining <= 0:
                        break
                    time.sleep(min(0.05, remaining))
        for hang in self._hangs:
            if hang.round == round_number and self.incarnation < hang.repeats:
                while True:  # a wedge, by construction unrecoverable
                    time.sleep(3600)

    def process_round(self, round_number: int, frames) -> Dict[str, Any]:
        """Run one synchronous round over this shard; return the report."""
        if self._hangs or self._slows:
            self._apply_infra_faults(round_number)
        sim = self.sim
        kernel = self.kernel
        # Ingest cross-shard batches.  Fresh records (due == send round
        # + 1) are re-sorted by sender into the local fresh sends,
        # reproducing the single-process sender-sorted inboxes (stable:
        # per-sender runs are contiguous within one batch and a sender
        # lives in exactly one shard); later ones join the future heap.
        touched: Set[int] = set()
        for _src_shard, send_round, word, bits, opaque in frames:
            for sender, receiver, due, message in decode_shard_frame(
                word, bits, opaque, send_round, sim.wire, self.arith
            ):
                kernel.post(send_round, sender, receiver, due, message)
                if due == send_round + 1:
                    touched.add(receiver)
        by_sender = itemgetter(0)
        for receiver in touched:
            kernel.in_flight[receiver].sort(key=by_sender)
        edges = [
            (key[0], key[1], load[0], load[1])
            for key, load in kernel.run_round(round_number).items()
        ]
        outbox = {}
        for dst, records in kernel.outbox.items():
            word, bits, opaque = encode_shard_frame(
                records, round_number, sim.wire
            )
            has_fresh = False
            min_due: Optional[int] = None
            for _s, _r, due, _m in records:
                if due == round_number + 1:
                    has_fresh = True
                elif min_due is None or due < min_due:
                    min_due = due
            outbox[dst] = (word, bits, opaque, has_fresh, min_due)
        kernel.outbox = {}
        faults = sim.faults
        report: Dict[str, Any] = {
            "edges": edges,
            "done_changes": kernel.done_changes,
            "min_wake": kernel.wake_heap[0][0] if kernel.wake_heap else None,
            "min_future": kernel.future[0][0] if kernel.future else None,
            "fresh_next": bool(kernel.in_flight),
            "last_progress": (
                faults.last_progress_round if faults is not None else 0
            ),
            "outbox": outbox,
        }
        if (
            self.dead_round is not None
            and round_number >= self.dead_round
        ):
            # Whole-shard kill: every member is permanently crashed from
            # here on.  Ship everything the coordinator needs to stand
            # in for this shard (residual wakes drive the round/stall
            # cadence; ledger rows allow a later partial collection)
            # and let the worker exit.
            report["shard_dead"] = self._death_payload()
        return report

    # ------------------------------------------------------------------
    # run-end extraction
    # ------------------------------------------------------------------
    def _fault_state(self) -> Optional[Dict[str, Any]]:
        faults = self.sim.faults
        return faults.snapshot() if faults is not None else None

    def _common_reply(self) -> Dict[str, Any]:
        nodes = self.sim.nodes
        return {
            "faults": self._fault_state(),
            "cross_messages": self.kernel.cross_messages,
            "cross_bits": self.kernel.cross_bits,
            "ledger_words": _ledger_words(nodes[v] for v in self.members),
        }

    def finish_reply(self) -> Dict[str, Any]:
        """Per-node protocol outputs for the clean-termination path."""
        reply = self._common_reply()
        extracts = []
        for v in self.members:
            node = self.sim.nodes[v]
            inner = _unwrap(node)
            agg = getattr(inner, "aggregation", None)
            counting = getattr(inner, "counting", None)
            extracts.append((
                v,
                getattr(agg, "betweenness_raw", None),
                getattr(agg, "diameter", None),
                getattr(counting, "own_start_time", None),
                node.done,
            ))
        reply["extracts"] = extracts
        return reply

    def stall_sent_sources(self) -> Dict[int, frozenset]:
        return {
            v: _unwrap(self.sim.nodes[v]).sent_sources()
            for v in self.members
        }

    def partial_reply(self, complete_set) -> Dict[str, Any]:
        """Per-node partial outputs for the stalled-run path."""
        reply = self._common_reply()
        extracts = []
        for v in self.members:
            node = self.sim.nodes[v]
            inner = _unwrap(node)
            agg = getattr(inner, "aggregation", None)
            counting = getattr(inner, "counting", None)
            extracts.append((
                v,
                inner.partial_betweenness_raw(complete_set),
                inner.sent_sources(),
                getattr(agg, "diameter", None),
                getattr(counting, "own_start_time", None),
                node.done,
            ))
        reply["extracts"] = extracts
        return reply

    def _death_payload(self) -> Dict[str, Any]:
        """State handover when the whole shard is permanently crashed."""
        nodes = self.sim.nodes
        payload = self._common_reply()
        payload["nodes"] = [_handover(v, nodes[v]) for v in self.members]
        payload["residue"] = sorted(self.kernel.wake_heap)
        return payload

    # ------------------------------------------------------------------
    # checkpoint snapshot / restore (barrier-quiescent state only)
    # ------------------------------------------------------------------
    def snapshot_blob(self) -> bytes:
        """Pickle this shard's complete state at a round barrier.

        At a barrier every message is explicit state: fresh deliveries
        in ``in_flight``, delayed/duplicated ones in the future heap,
        undelivered arrivals in the deferred inboxes.  Node objects
        (ledger columns and all protocol fields) pickle as-is, except
        that live telemetry handles are detached for the dump — they
        hold unpicklable streams and are re-attached on restore.
        """
        sim = self.sim
        detached = []
        telemetry_nodes = []
        for v in self.members:
            node = sim.nodes[v]
            for which, obj in {
                id(node): ("outer", node),
                id(_unwrap(node)): ("inner", _unwrap(node)),
            }.values():
                tel = getattr(obj, "telemetry", None)
                if tel is not None:
                    obj.telemetry = None
                    detached.append((obj, tel))
                    telemetry_nodes.append((v, which))
        try:
            state = {
                "shard": self.shard_id,
                "nodes": {v: sim.nodes[v] for v in self.members},
                "telemetry_nodes": telemetry_nodes,
                **self.kernel.snapshot(),
                "faults": self._fault_state(),
            }
            return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            for obj, tel in detached:
                obj.telemetry = tel

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot_blob` (from the unpickled dict).

        The kernel's round state is replaced wholesale by this shard's
        snapshot, and so is the inherited injector's state, so shard 0's
        live counters and a child's copy never mix.
        """
        sim = self.sim
        for v, node in state["nodes"].items():
            sim.nodes[v] = node
        for v, which in state["telemetry_nodes"]:
            node = sim.nodes[v]
            obj = node if which == "outer" else _unwrap(node)
            obj.telemetry = sim.telemetry
        self.kernel.restore(state)
        if sim.faults is not None and state["faults"] is not None:
            sim.faults.restore(state["faults"])


def _child_main(
    conn, worker, heartbeat=None, restore=None, incarnation=0
) -> None:
    """Command loop of a forked shard worker."""
    worker.heartbeat = heartbeat
    worker.incarnation = incarnation

    def beat():
        if heartbeat is not None:
            heartbeat.value = time.monotonic()

    try:
        if restore is not None:
            worker.restore_state(pickle.loads(restore))
        beat()
        while True:
            command = conn.recv()
            beat()
            op = command[0]
            if op == "round":
                report = worker.process_round(command[1], command[2])
                beat()
                conn.send(report)
                if "shard_dead" in report:
                    break
            elif op == "checkpoint":
                conn.send(worker.snapshot_blob())
                beat()
            elif op == "stall":
                conn.send(worker.stall_sent_sources())
            elif op == "partial":
                conn.send(worker.partial_reply(command[1]))
                break
            elif op == "finish":
                conn.send(worker.finish_reply())
                break
            elif op == "die":
                break
    except BaseException as exc:  # ship the failure to the coordinator
        try:
            conn.send({"error": exc})
        except Exception:
            try:
                conn.send({
                    "error": RuntimeError(
                        "{}: {}".format(type(exc).__name__, exc)
                    )
                })
            except Exception:
                pass
    finally:
        try:
            conn.close()
        finally:
            # Skip inherited atexit/finalizers — this process shares the
            # parent's descriptors and buffers via fork.
            os._exit(0)


class _Coordinator:
    """The parent side of a sharded run: the round source
    :func:`~repro.congest.kernel.drive_rounds` drives, plus supervision."""

    def __init__(self, sim):
        self.sim = sim
        self.stats: SimulationStats = sim.stats
        self.workers = sim.workers
        self.partitioner = sim.partitioner
        root = 0
        proto_node = _unwrap(sim.nodes[0]) if sim.nodes else None
        for node in sim.nodes:
            inner = _unwrap(node)
            tree = getattr(inner, "tree", None)
            if tree is not None and getattr(tree, "is_root", False):
                root = inner.node_id
                break
        self.assignment, self.shards = partition_nodes(
            sim.graph, self.workers, kind=self.partitioner, root=root
        )
        self.n_shards = len(self.shards)
        self.cut_edges = edge_cut(sim.graph, self.assignment)
        plan = sim.faults.plan if sim.faults is not None else None
        self.plan = plan
        self.dead_rounds = [
            _shard_dead_round(plan, members) for members in self.shards
        ]
        self.arith = getattr(proto_node, "arith", None)
        self.config = getattr(proto_node, "config", None)
        n = len(sim.nodes)
        self.done = bytearray(1 if node.done else 0 for node in sim.nodes)
        self.done_count = sum(self.done)
        self.n = n
        # Per-shard liveness and last-report state.
        self.alive = [True] * self.n_shards
        self.min_wake: List[Optional[int]] = [None] * self.n_shards
        self.min_future: List[Optional[int]] = [None] * self.n_shards
        self.pending_frames: List[list] = [[] for _ in range(self.n_shards)]
        self.pending_min_due: List[Optional[int]] = [None] * self.n_shards
        self.fresh_next = False
        self.last_progress = 0
        # Dead-shard handover state.
        self.residue: List[Tuple[int, int]] = []  # heap of (round, node)
        self.dead_payloads: Dict[int, Dict[str, Any]] = {}
        self.cross_messages = 0
        self.cross_bits = 0
        self.ledger_words = [0] * self.n_shards
        self.children: List[Tuple[int, Any, Any]] = []  # (shard, conn, proc)
        self.worker0: Optional[_ShardWorker] = None
        # --- supervision / checkpoint state -----------------------------
        self.supervision = supervision_for(
            plan, getattr(sim, "supervision", None)
        )
        self.start_round = 0
        self.restarts = [0] * self.n_shards
        self.hang_detections = 0
        self.rollbacks = 0
        self.checkpoints_written = 0
        self.checkpoint_bytes = 0
        self.checkpoint_seconds = 0.0
        self._last_ckpt_round = -1
        self.resumed_from: Optional[int] = None
        self.infra_dead: Set[int] = set()
        self.heartbeats: List[Optional[Any]] = [None] * self.n_shards
        self._workers: Dict[int, _ShardWorker] = {}
        self._fallback_state: Optional[Dict[str, Any]] = None
        self._join_timeout = 5.0
        self._ctx = None
        self._ckpt_run_dir: Optional[Path] = None
        sup = self.supervision
        if sup is not None:
            from repro.obs.history import graph_fingerprint, run_key

            # The run's identity, every setting that changes a round: the
            # run directory, the manifest and the resume check read it.
            config, cut = self.config, self.stats.cut
            self._identity = {
                "graph": graph_fingerprint(sim.graph),
                "n": n,
                "workers": self.n_shards,
                "partitioner": self.partitioner,
                "protocol": getattr(sim.protocol, "name", None),
                "arithmetic": getattr(self.arith, "name", None),
                "root": root,
                "strict": sim.strict,
                "bit_budget": sim.bit_budget,
                "resilient": proto_node is not None
                and proto_node is not sim.nodes[0],
                "config": None if config is None else {
                    name: sorted(v) if isinstance(v, frozenset) else v
                    for name, v in vars(config).items()
                },
                "faults": plan.to_dict() if plan is not None else None,
                "cut": sorted(cut.left) if cut is not None else None,
            }
            self._run_key = key = run_key(
                self._identity["graph"], self._identity, "shard"
            )
            if sup.checkpoints_enabled:
                self._ckpt_run_dir = Path(sup.checkpoint_dir) / key
        self._checkpoint_every = (
            sup.checkpoint_every if self._ckpt_run_dir is not None else 0
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        import multiprocessing

        sim = self.sim
        self._ctx = multiprocessing.get_context("fork")
        self.worker0 = _ShardWorker(
            sim, 0, self.assignment, self.shards, self.dead_rounds[0]
        )
        for shard in range(1, self.n_shards):
            self._workers[shard] = _ShardWorker(
                sim, shard, self.assignment, self.shards,
                self.dead_rounds[shard],
            )
        sup = self.supervision
        state = None
        if sup is not None and sup.resume_from is not None:
            state = self._load_resume_state(sup.resume_from)
            self._restore_from_state(state)
            self.start_round = state["round"]
            self.resumed_from = state["round"]
        self._spawn_children(state)
        if sup is not None:
            # The in-memory rollback floor: the resume snapshot itself,
            # or (fresh run) the pristine pre-round-0 state.  Recovery
            # prefers newer on-disk checkpoints and falls back here when
            # they are corrupt or checkpointing is off.
            self._fallback_state = (
                state if state is not None else self._capture_state(0)
            )

    def _spawn_children(self, state=None) -> None:
        """Fork one child per live shard (optionally from restore blobs).

        The blob rides the fork-inherited ``Process`` args: the child
        unpickles and applies it *in its own address space*, so the
        parent's copy of the shard (frozen at round 0) and the shared
        injector are never disturbed.
        """
        sup = self.supervision
        for shard in range(1, self.n_shards):
            if not self.alive[shard]:
                continue
            heartbeat = (
                self._ctx.Value("d", 0.0, lock=False)
                if sup is not None else None
            )
            restore = state["shards"].get(shard) if state is not None else None
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_child_main,
                args=(
                    child_conn, self._workers[shard], heartbeat, restore,
                    self.restarts[shard],
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self.children.append((shard, parent_conn, proc))
            self.heartbeats[shard] = heartbeat

    def shutdown(self, notify: bool = True) -> None:
        """Stop every child and forget it.

        ``notify`` tells each live child to exit and grants it a join
        grace first; without it (the rollback path) the pool is torn
        down at once, so a rollback never waits out the grace.
        """
        for shard, conn, proc in self.children:
            if notify and self.alive[shard]:
                try:
                    conn.send(("die",))
                except (BrokenPipeError, OSError):
                    pass
            try:
                conn.close()
            except OSError:
                pass
        for _shard, _conn, proc in self.children:
            if notify:
                proc.join(timeout=self._join_timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=self._join_timeout)
            if proc.is_alive():
                # SIGTERM can be masked or mishandled by a wedged child;
                # SIGKILL cannot.  Nothing may outlive the coordinator.
                proc.kill()
                proc.join(timeout=self._join_timeout)
        self.children = []

    # ------------------------------------------------------------------
    # checkpoint plumbing
    # ------------------------------------------------------------------
    def _stats_state(self) -> Dict[str, Any]:
        stats = self.stats
        return {
            "message_count": stats.message_count,
            "bit_count": stats.bit_count,
            "max_edge_bits": stats.max_edge_bits_per_round,
            "max_edge_messages": stats.max_edge_messages_per_round,
            "round_series": list(stats.round_series),
            "worst_edge": stats.worst_edge,
            "cut": stats.cut,
        }

    def _restore_stats(self, snap: Dict[str, Any]) -> None:
        stats = self.stats
        stats.message_count = snap["message_count"]
        stats.bit_count = snap["bit_count"]
        stats.max_edge_bits_per_round = snap["max_edge_bits"]
        stats.max_edge_messages_per_round = snap["max_edge_messages"]
        stats.round_series[:] = snap["round_series"]
        stats.worst_edge = snap["worst_edge"]
        if stats.cut is not None and snap["cut"] is not None:
            stats.cut.__dict__.update(snap["cut"].__dict__)

    def _coordinator_state(self, round_number: int) -> Dict[str, Any]:
        """The merge-loop state paired with the shard snapshots.

        Restart counters are deliberately absent: the respawn budget
        tracks wall-clock reality and must never roll back with the
        protocol state.
        """
        return {
            "round": round_number,
            "done": bytes(self.done),
            "done_count": self.done_count,
            "alive": list(self.alive),
            "min_wake": list(self.min_wake),
            "min_future": list(self.min_future),
            "pending_frames": [list(f) for f in self.pending_frames],
            "pending_min_due": list(self.pending_min_due),
            "fresh_next": self.fresh_next,
            "last_progress": self.last_progress,
            "residue": list(self.residue),
            "dead_payloads": dict(self.dead_payloads),
            "infra_dead": set(self.infra_dead),
            "cross_messages": self.cross_messages,
            "cross_bits": self.cross_bits,
            "ledger_words": list(self.ledger_words),
            "stats": self._stats_state(),
        }

    def _restore_coordinator_state(self, snap: Dict[str, Any]) -> None:
        self.done = bytearray(snap["done"])
        self.done_count = snap["done_count"]
        self.alive = list(snap["alive"])
        self.min_wake = list(snap["min_wake"])
        self.min_future = list(snap["min_future"])
        self.pending_frames = [list(f) for f in snap["pending_frames"]]
        self.pending_min_due = list(snap["pending_min_due"])
        self.fresh_next = snap["fresh_next"]
        self.last_progress = snap["last_progress"]
        self.residue = list(snap["residue"])
        self.dead_payloads = dict(snap["dead_payloads"])
        self.infra_dead = set(snap.get("infra_dead", ()))
        self.cross_messages = snap["cross_messages"]
        self.cross_bits = snap["cross_bits"]
        self.ledger_words = list(snap["ledger_words"])
        self._restore_stats(snap["stats"])

    def _capture_state(self, round_number: int) -> Dict[str, Any]:
        """In-memory snapshot taken in the parent (pre-round-0 only for
        shards >= 1, whose parent-side copies stay frozen at round 0)."""
        blobs = {}
        for shard in range(1, self.n_shards):
            if self.alive[shard]:
                blobs[shard] = self._workers[shard].snapshot_blob()
        blobs[0] = self.worker0.snapshot_blob()
        return {
            "round": round_number,
            "shards": blobs,
            "coordinator": pickle.dumps(
                self._coordinator_state(round_number),
                protocol=pickle.HIGHEST_PROTOCOL,
            ),
        }

    def _ckpt_meta(self) -> Dict[str, Any]:
        """The caller's metadata, then the run identity and its key
        (last, so no caller key can overwrite them)."""
        return dict(
            self.supervision.meta or {}, **self._identity,
            run_key=self._run_key,
        )

    def _write_checkpoint(self, round_number: int) -> None:
        """Snapshot every shard at the current barrier and commit it."""
        sup = self.supervision
        started = time.perf_counter()
        blobs = self._broadcast_collect(
            ("checkpoint",), round_number, local=self.worker0.snapshot_blob
        )
        coord = pickle.dumps(
            self._coordinator_state(round_number),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        ckpt = write_checkpoint(
            self._ckpt_run_dir, round_number, blobs, coord,
            self._ckpt_meta(),
        )
        self._last_ckpt_round = round_number
        self.checkpoints_written += 1
        self.checkpoint_bytes += sum(len(b) for b in blobs.values()) + len(
            coord
        )
        plan = self.plan
        if plan is not None and round_number in getattr(
            plan, "corrupt_checkpoint_rounds", ()
        ):
            corrupt_checkpoint(ckpt, plan.seed, round_number)
        prune_checkpoints(self._ckpt_run_dir, keep=sup.keep_checkpoints)
        self.checkpoint_seconds += time.perf_counter() - started
        if sup.stop_after is not None and round_number >= sup.stop_after:
            raise CheckpointPause(ckpt, round_number)

    def _load_resume_state(self, path) -> Dict[str, Any]:
        ckpt = resolve_checkpoint(Path(path))
        state = read_checkpoint(ckpt)
        meta = state["manifest"].get("meta", {})
        # A manifest written before the identity grew records only some
        # of its fields; those are the ones it can be checked on.
        mismatches = [
            key if key in ("faults", "config", "cut")
            else "{}: checkpoint has {!r}, this run has {!r}".format(
                key, meta[key], ours
            )
            for key, ours in self._identity.items()
            if key in meta and meta[key] != ours
        ]
        if mismatches:
            raise CheckpointError(
                "checkpoint {} belongs to a different run — {}".format(
                    ckpt, "; ".join(mismatches)
                )
            )
        return state

    def _load_rollback_state(self) -> Dict[str, Any]:
        """Newest loadable snapshot: disk checkpoints newest-first (a
        corrupt one is skipped, which the checksum turns loud-but-safe),
        then the in-memory fallback (resume point or round 0)."""
        if self._ckpt_run_dir is not None:
            for ckpt in reversed(list_checkpoints(self._ckpt_run_dir)):
                try:
                    return read_checkpoint(ckpt)
                except CheckpointError:
                    continue
        return self._fallback_state

    def _restore_from_state(self, state: Dict[str, Any]) -> None:
        snap = pickle.loads(state["coordinator"])
        self._restore_coordinator_state(snap)
        self.worker0.restore_state(pickle.loads(state["shards"][0]))
        if "merged_fault_payloads" in snap:
            # Written before dead shards' fault counters were absorbed on
            # arrival: in such a checkpoint they are still pending.
            for shard, payload in self.dead_payloads.items():
                self._absorb_faults(shard, payload)
        # A rollback may land before a checkpoint the run already wrote;
        # allow the replay to rewrite the newer ones (atomically), so a
        # corrupt snapshot heals instead of poisoning every later
        # recovery.
        self._last_ckpt_round = state["round"]

    # ------------------------------------------------------------------
    # supervision: watchdog recv + recovery
    # ------------------------------------------------------------------
    def _recv(self, shard: int, conn, proc, round_number: int):
        """One worker reply — blocking when unsupervised, watchdog-polled
        (dead vs hung) when supervised."""
        sup = self.supervision
        if sup is None:
            try:
                return conn.recv()
            except EOFError:
                raise RuntimeError(
                    "shard worker {} exited unexpectedly at round "
                    "{}".format(shard, round_number)
                )
        heartbeat = self.heartbeats[shard]
        wait_start = time.monotonic()
        step = min(0.05, sup.heartbeat_timeout / 4.0)
        while True:
            try:
                if conn.poll(step):
                    return conn.recv()
            except (EOFError, OSError):
                raise WorkerFailure(
                    shard, "died",
                    "pipe closed at round {}".format(round_number),
                )
            if not proc.is_alive():
                raise WorkerFailure(
                    shard, "died",
                    "process exited at round {}".format(round_number),
                )
            last_beat = wait_start
            if heartbeat is not None and heartbeat.value > last_beat:
                last_beat = heartbeat.value
            stale = time.monotonic() - last_beat
            if stale > sup.heartbeat_timeout:
                raise WorkerFailure(
                    shard, "hung",
                    "no heartbeat for {:.1f}s at round {}".format(
                        stale, round_number
                    ),
                )

    def _death_payload_from_blob(self, state: Dict[str, Any]) -> Dict[str, Any]:
        """A ``_death_payload`` equivalent built from a checkpoint blob —
        the handover when a worker's restart budget is exhausted and its
        shard is abandoned at its last checkpointed state."""
        nodes = state["nodes"]
        return {
            "faults": state["faults"],
            "cross_messages": state["cross_messages"],
            "cross_bits": state["cross_bits"],
            "ledger_words": _ledger_words(nodes.values()),
            "nodes": [_handover(v, nodes[v]) for v in sorted(nodes)],
            "residue": sorted(state["wake_heap"]),
        }

    def _recover(self, failure: WorkerFailure) -> int:
        """Global rollback after a worker failure; returns the round to
        re-enter the loop at.

        Within budget: kill every child, restore the newest loadable
        snapshot into the parent, re-fork all workers from its blobs
        (after exponential backoff) and replay — bit-identical by the
        barrier-snapshot + keyed-hash-fault argument.  Budget exhausted:
        same rollback, but the failed shard is handed to the existing
        whole-shard-kill machinery (its members reported dead at their
        checkpointed state) and the run degrades deterministically to a
        partial CompletenessReport instead of stalling forever.
        """
        sup = self.supervision
        shard = failure.shard
        if failure.reason == "hung":
            self.hang_detections += 1
        self.rollbacks += 1
        self.shutdown(notify=False)
        state = self._load_rollback_state()
        if self.restarts[shard] >= sup.max_restarts:
            self._restore_from_state(state)
            payload = self._death_payload_from_blob(
                pickle.loads(state["shards"][shard])
            )
            self._mark_dead(shard, payload)
            self.infra_dead.add(shard)
            self._spawn_children(state)
            return state["round"]
        self.restarts[shard] += 1
        backoff = sup.backoff(self.restarts[shard] - 1)
        if backoff > 0:
            time.sleep(backoff)
        self._restore_from_state(state)
        self._spawn_children(state)
        return state["round"]

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        return self.n - self.done_count

    def unfinished(self) -> Tuple[int, ...]:
        return tuple(v for v in range(self.n) if not self.done[v])

    def next_future(self) -> Optional[int]:
        dues = [
            due for due in self.min_future + self.pending_min_due
            if due is not None
        ]
        return min(dues) if dues else None

    def arrivals(self, round_number: int) -> bool:
        if self.fresh_next:
            return True
        future = self.next_future()
        return future is not None and future <= round_number

    def next_wake(self, round_number: int) -> Optional[int]:
        """The earliest wake of a live shard, else of a dead shard's
        residue.

        When no live shard wakes by ``round_number`` the round is idle
        for every worker: the dead shards' residual wakes due by then are
        accounted here (crash-round parity with the event engine) and
        the rest bound the fast-forward.
        """
        wakes = [
            wake for wake, alive in zip(self.min_wake, self.alive)
            if alive and wake is not None
        ]
        wake = min(wakes) if wakes else None
        if wake is not None and wake <= round_number:
            return wake
        self._pop_residue(round_number)
        if self.residue and (wake is None or self.residue[0][0] < wake):
            wake = self.residue[0][0]
        if wake is None and self.infra_dead and self.next_future() is None:
            # Nothing will ever wake again and a shard was abandoned
            # mid-protocol.  Without a fault plan no stall deadline
            # exists, so degrade to the partial collection here instead
            # of fast-forwarding into the round-limit abort.
            self.stall(round_number)
        return wake

    # ------------------------------------------------------------------
    # dead-shard residue (crash accounting parity with the event engine)
    # ------------------------------------------------------------------
    def _pop_residue(self, round_number: int) -> None:
        residue = self.residue
        if not residue or residue[0][0] > round_number:
            return
        woken: Set[int] = set()
        while residue and residue[0][0] <= round_number:
            _, node_id = heapq.heappop(residue)
            woken.add(node_id)
        faults = self.sim.faults
        if faults is None:
            # Supervision can abandon a shard with no fault plan at all
            # (externally killed worker, restart budget exhausted); there
            # is no crash accounting to mirror then.
            return
        for node_id in sorted(woken):
            faults.note_crash_skip(node_id, round_number)

    # ------------------------------------------------------------------
    # report handling
    # ------------------------------------------------------------------
    def _apply_report(self, shard: int, report: Dict[str, Any]) -> None:
        for node_id, flag in report["done_changes"]:
            old = self.done[node_id]
            new = 1 if flag else 0
            if old != new:
                self.done[node_id] = new
                self.done_count += 1 if new else -1
        if report["last_progress"] > self.last_progress:
            self.last_progress = report["last_progress"]
        self.min_wake[shard] = report["min_wake"]
        self.min_future[shard] = report["min_future"]
        if report["fresh_next"]:
            self.fresh_next = True

    def _route_outbox(
        self, shard: int, round_number: int, report: Dict[str, Any]
    ) -> None:
        for dst, batch in report["outbox"].items():
            word, bits, opaque, has_fresh, min_due = batch
            self.pending_frames[dst].append(
                (shard, round_number, word, bits, opaque)
            )
            if has_fresh:
                self.fresh_next = True
            if min_due is not None:
                current = self.pending_min_due[dst]
                if current is None or min_due < current:
                    self.pending_min_due[dst] = min_due

    def _mark_dead(self, shard: int, payload: Dict[str, Any]) -> None:
        self.alive[shard] = False
        self.dead_payloads[shard] = payload
        for entry in payload["residue"]:
            heapq.heappush(self.residue, tuple(entry))
        self.min_wake[shard] = None
        self._absorb_common(shard, payload)

    def _absorb_faults(self, shard: int, payload: Dict[str, Any]) -> None:
        # Shard 0 steps on this process's own injector, so its counters
        # are already live there; a child's arrive in its payload.
        if shard != 0 and payload["faults"] is not None:
            self.sim.faults.absorb(payload["faults"])

    def _absorb_common(self, shard: int, payload: Dict[str, Any]) -> None:
        self._absorb_faults(shard, payload)
        self.cross_messages += payload["cross_messages"]
        self.cross_bits += payload["cross_bits"]
        self.ledger_words[shard] = payload["ledger_words"]

    # ------------------------------------------------------------------
    # worker conversation
    # ------------------------------------------------------------------
    def _collect_round_reports(
        self, round_number: int
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """Every live shard's report for one round.

        A shard that fails stops at its first error, as the event engine
        does over all nodes, and its worker exits.  All reports are read
        before anything is raised, shard 0's in-process error included:
        the event engine steps nodes in id order, so of the round's
        budget violations it raises the one with the lowest sender.
        """
        frames = self.pending_frames
        reports: List[Tuple[int, Dict[str, Any]]] = []
        for shard, conn, _proc in self.children:
            if self.alive[shard]:
                conn.send(("round", round_number, frames[shard]))
                frames[shard] = []
                self.pending_min_due[shard] = None
        if self.alive[0]:
            try:
                report0 = self.worker0.process_round(round_number, frames[0])
            except Exception as exc:
                report0 = {"error": exc}
            frames[0] = []
            self.pending_min_due[0] = None
            reports.append((0, report0))
        for shard, conn, proc in self.children:
            if self.alive[shard]:
                reports.append(
                    (shard, self._recv(shard, conn, proc, round_number))
                )
        errors = []
        for shard, report in reports:
            if "error" in report:
                self.alive[shard] = False
                errors.append(report["error"])
        if errors:
            violations = [
                error for error in errors
                if isinstance(error, CongestViolationError)
            ]
            if violations:
                raise min(violations, key=attrgetter("sender"))
            raise errors[0]
        return reports

    def _broadcast_collect(
        self, command, round_number: int = -1, local=None
    ) -> Dict[int, Any]:
        """Send one command to every live child and gather the replies.

        ``local`` computes shard 0's share in this process while the
        children compute theirs; its result is reply 0.
        """
        replies: Dict[int, Any] = {}
        for shard, conn, _proc in self.children:
            if self.alive[shard]:
                conn.send(command)
        if local is not None:
            replies[0] = local()
        for shard, conn, proc in self.children:
            if self.alive[shard]:
                reply = self._recv(shard, conn, proc, round_number)
                if isinstance(reply, dict) and "error" in reply:
                    self.shutdown()
                    raise reply["error"]
                replies[shard] = reply
        return replies

    # ------------------------------------------------------------------
    # run-end reconciliation
    # ------------------------------------------------------------------
    def _patch_clean(self, extracts) -> None:
        nodes = self.sim.nodes
        for node_id, bc_raw, diameter, start, done in extracts:
            node = nodes[node_id]
            inner = _unwrap(node)
            if hasattr(inner, "aggregation"):
                inner.aggregation.betweenness_raw = bc_raw
            _patch_node(node, diameter, start, done)

    def _patch_partial(self, extracts) -> None:
        nodes = self.sim.nodes
        for node_id, partial, sent, diameter, start, done in extracts:
            node = nodes[node_id]
            inner = _unwrap(node)
            # Shadow the plain methods with the remote-computed values;
            # the pipeline's _collect_partial recomputes the identical
            # complete set from the shadowed sent_sources, so the
            # ignored argument is safe.
            inner.sent_sources = (lambda _s=sent: _s)
            inner.partial_betweenness_raw = (
                lambda _complete, _v=partial: _v
            )
            _patch_node(node, diameter, start, done)

    def _dead_partial(self, payload, complete_set) -> List[tuple]:
        """A dead shard's ``partial_reply`` extracts, from its handover."""
        arith = self.arith
        extracts = []
        for entry in payload["nodes"]:
            node_id = entry["node"]
            total = arith.psi_zero()
            for source, sigma, psi in entry["rows"]:
                if source != node_id and source in complete_set:
                    total = arith.psi_add(
                        total, arith.dependency(psi, sigma)
                    )
            extracts.append((
                node_id, total, entry["sent"],
                entry["diameter"], entry["start"], entry["done"],
            ))
        return extracts

    def _mark_remote(self) -> None:
        """Tag this process's copies of nodes that other shards ran.

        Only their results were patched in above; their ledgers and
        dependencies stay in the worker, since shipping them back would
        put the Theta(N^2) ledger words in one process again.  The
        result surface refuses to read them (see ``remote_shard``).
        """
        for shard in range(1, self.n_shards):
            for v in self.shards[shard]:
                _unwrap(self.sim.nodes[v]).remote_shard = shard

    def _attach_shard_summary(self) -> None:
        self.stats.shard = {
            "workers": self.n_shards,
            "partitioner": self.partitioner,
            "edge_cut": self.cut_edges,
            "cross_messages": self.cross_messages,
            "cross_bits": self.cross_bits,
            "per_shard": [
                {
                    "shard": shard,
                    "nodes": len(self.shards[shard]),
                    "ledger_words": self.ledger_words[shard],
                }
                for shard in range(self.n_shards)
            ],
        }
        if self.supervision is not None or self.resumed_from is not None:
            self.stats.supervisor = {
                "restarts": sum(self.restarts),
                "restarts_per_shard": list(self.restarts),
                "hang_detections": self.hang_detections,
                "rollbacks": self.rollbacks,
                "checkpoints_written": self.checkpoints_written,
                "checkpoint_bytes": self.checkpoint_bytes,
                "checkpoint_seconds": round(self.checkpoint_seconds, 6),
                "last_checkpoint_round": (
                    self._last_ckpt_round
                    if self._last_ckpt_round >= 0 else None
                ),
                "resumed_from": self.resumed_from,
                "shards_abandoned": sorted(self.infra_dead),
            }

    def _close_run(self) -> None:
        """Run-end bookkeeping shared by the clean and stalled paths."""
        if self.alive[0]:
            self._absorb_common(0, self.worker0._common_reply())
        if self.sim.faults is not None:
            # Multi-process accumulation interleaves shards, so normalize
            # to a deterministic order (the single-process list is
            # append-ordered; only its length is surfaced in summaries).
            self.sim.faults.stats.recoveries.sort()
        self._mark_remote()
        self._attach_shard_summary()

    def _finish(self, round_number: int) -> SimulationStats:
        replies = self._broadcast_collect(("finish",), round_number)
        for shard, reply in replies.items():
            self._absorb_common(shard, reply)
            self._patch_clean(reply["extracts"])
        for payload in self.dead_payloads.values():
            # A permanently-crashed shard cannot have let the run reach
            # clean termination, but reconcile defensively.
            self._patch_clean(
                (e["node"], None, e["diameter"], e["start"], e["done"])
                for e in payload["nodes"]
            )
        self._close_run()
        return self.stats

    def stall(self, round_number: int) -> None:
        """Three-phase stall collection, then raise the structured error."""
        sim = self.sim
        sent_by_node: Dict[int, frozenset] = {}
        for reply in self._broadcast_collect(
            ("stall",),
            round_number,
            local=self.worker0.stall_sent_sources if self.alive[0] else None,
        ).values():
            sent_by_node.update(reply)
        for payload in self.dead_payloads.values():
            for entry in payload["nodes"]:
                sent_by_node[entry["node"]] = entry["sent"]
        from repro.core.pipeline import complete_sources

        config = self.config
        complete = frozenset(complete_sources(
            (
                v for v in range(self.n)
                if config is not None and config.is_source(v)
            ),
            sent_by_node,
        ))
        for shard, reply in self._broadcast_collect(
            ("partial", complete), round_number
        ).items():
            self._absorb_common(shard, reply)
            self._patch_partial(reply["extracts"])
        for payload in self.dead_payloads.values():
            self._patch_partial(self._dead_partial(payload, complete))
        self._close_run()
        crashed = (
            tuple(sim.faults.crashed_nodes(round_number))
            if sim.faults is not None else ()
        )
        if self.infra_dead:
            # Members of abandoned shards are unreachable for the same
            # practical reason crashed nodes are; report them alongside.
            merged = set(crashed)
            for shard in self.infra_dead:
                merged.update(self.shards[shard])
            crashed = tuple(sorted(merged))
        raise SimulationStalledError(
            round_number,
            self.last_progress,
            self.unfinished(),
            crashed,
        )

    # ------------------------------------------------------------------
    def run_round(self, round_number: int) -> EdgeLoad:
        """One barrier round; returns its merged per-edge loads.

        The checkpoint comes first (pre-round state, so a resumed run
        re-enters the driver right here), then residue accounting, then
        the barrier itself.
        """
        every = self._checkpoint_every
        if (
            every
            and round_number > 0
            and round_number % every == 0
            and round_number > self._last_ckpt_round
        ):
            self._write_checkpoint(round_number)
        self._pop_residue(round_number)
        self.fresh_next = False
        reports = self._collect_round_reports(round_number)
        merged: EdgeLoad = {}
        edge_lists = [
            report["edges"] for _shard, report in reports if report["edges"]
        ]
        if edge_lists:
            if len(edge_lists) == 1:
                entries = edge_lists[0]
            else:
                entries = heapq.merge(*edge_lists, key=itemgetter(0))
            for sender, receiver, messages, bits in entries:
                merged[(sender, receiver)] = [messages, bits]
        for shard, report in reports:
            self._apply_report(shard, report)
        for shard, report in reports:
            self._route_outbox(shard, round_number, report)
        for shard, report in reports:
            if "shard_dead" in report:
                self._mark_dead(shard, report["shard_dead"])
        return merged

    def run(self) -> SimulationStats:
        """Drive the rounds, recovering from worker failures.

        Unsupervised this is exactly one :func:`drive_rounds` pass.
        Supervised, a :class:`WorkerFailure` escaping it (dead or hung
        worker, detected anywhere a reply is awaited) triggers a
        rollback in ``_recover`` and the driver re-enters at the
        restored round.
        """
        start = self.start_round
        while True:
            try:
                return self._finish(drive_rounds(self, self.sim, start))
            except WorkerFailure as failure:
                start = self._recover(failure)


def run_shard(simulator) -> SimulationStats:
    """Execute ``simulator`` across ``simulator.workers`` processes.

    Called by :meth:`Simulator.run` for ``engine="shard"`` (after the
    dispatcher validated the capability envelope).  Returns the populated
    stats; raises exactly the errors the event engine would.
    """
    coordinator = _Coordinator(simulator)
    coordinator.start()
    try:
        return coordinator.run()
    finally:
        # Clean termination and the stall path already told every live
        # worker to exit (the finish/partial commands are terminal);
        # this sweep covers abrupt error paths and is idempotent.
        coordinator.shutdown()
