"""The round kernel: one synchronous CONGEST round, written once.

Section III-A of the paper defines a round as *receive, compute, send*
under a per-edge O(log N)-bit budget.  :class:`RoundKernel` holds the
round state of one network (or of one shard of it) and performs that
round in four steps:

1. :meth:`~RoundKernel.deliver` matures the delayed deliveries due this
   round, then moves every in-flight message into its receiver's
   deferred inbox, asking :meth:`NodeAlgorithm.message_wakes` whether
   the arrival wakes the receiver;
2. :meth:`~RoundKernel.activate` picks the nodes to step — all of them
   in sweep mode and in round 0, otherwise the woken receivers plus the
   due self-wakes — and drops crashed nodes;
3. :meth:`~RoundKernel.step` steps them in id order, bills every send
   through the :meth:`~RoundKernel.biller` closure (bit size, tracer
   and telemetry hooks, per-edge load, the strict budget, frame
   collection) and routes it (fault delivery, local or cross-shard);
4. :meth:`~RoundKernel.close_round` runs the frame audit and hands over
   the round's per-edge loads.

:func:`drive_rounds` is the one outer loop around a round: the tick,
the stall deadline, the round limit, the termination test, the idle
fast-forward and the per-round stats.  It drives one of three *round
sources*: a :class:`RoundKernel` in one process (the sweep and event
engines); the coordinator of :mod:`repro.shard.runtime`, whose round is
a barrier exchange with shard workers that each run
:meth:`RoundKernel.run_round`; and the bulk engine's replay
(:mod:`repro.engines.bulk`), which bills its planned sends through the
kernel's closure.

Routing is one decision, an optional node -> shard owner table.
Without one (a single process) every send goes to the local in-flight
lists; with one, sends to nodes of another shard go to the cross-shard
outbox instead.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.congest.node import Inbox, NodeAlgorithm, RoundContext
from repro.exceptions import (
    CongestViolationError,
    SimulationNotTerminatedError,
    SimulationStalledError,
    WireCodecError,
)
from repro.wire import Message, WireFormat, encode_frame

#: Per-round accounting buffer: directed edge -> [messages, bits].
EdgeLoad = Dict[Tuple[int, int], List[int]]


class RoundKernel:
    """The round state of one network or shard, and its four steps.

    In one process the kernel is also the round source of
    :func:`drive_rounds` (:meth:`run_round` and the horizon queries
    below it).

    Parameters
    ----------
    sim:
        The :class:`~repro.congest.simulator.Simulator` whose nodes,
        wire format, budget, frame audit, faults, tracer and telemetry
        the kernel uses.
    sweep:
        Sweep mode steps every node every round, never consults
        ``message_wakes`` and ignores ``wake_at``.  Otherwise (the event
        and shard engines) only woken nodes step.
    owner:
        Node -> shard table of a sharded run, ``None`` in one process.
    shard:
        The shard whose nodes this kernel steps (with ``owner``).
    """

    def __init__(self, sim, sweep: bool = False, owner=None, shard: int = 0):
        nodes = sim.nodes
        self.nodes = nodes
        self.sweep = sweep
        self.owner = owner
        self.shard = shard
        #: The nodes this kernel steps, ascending.
        self.members = [
            v for v in range(len(nodes)) if owner is None or owner[v] == shard
        ]
        #: Members not done; :meth:`step` keeps it current.
        self.pending = sum(1 for v in self.members if not nodes[v].done)
        self.wire: WireFormat = sim.wire
        self.budget = sim.bit_budget if sim.strict else None
        self.faults = sim.faults
        self.tracer = sim.tracer
        telemetry = sim.telemetry
        self.on_send = None
        self.profiler = None
        if telemetry is not None:
            self.profiler = telemetry.profiler
            if telemetry.wants_sends:
                self.on_send = telemetry.on_send
        # Messages delivered at the start of the next round: receiver ->
        # [(sender, message)].  Senders step in id order, so each list
        # is sender-sorted by construction.
        self.in_flight: Dict[int, List[Tuple[int, Message]]] = {}
        # Deliveries due later than next round (fault delays and
        # duplicates), keyed (due, send round, sender, seq, target,
        # message).  Within one process this pops in send order; across
        # shards a sender lives in one shard, so the order is the same.
        self.future: List[Tuple[int, int, int, int, int, Message]] = []
        self.fseq = 0
        # Delivered but unconsumed messages per node.  A node consumes
        # its inbox when stepped; passive arrivals may wait here across
        # several rounds, and a crashed node keeps its inbox.
        self.deferred: List[Optional[Inbox]] = [None] * len(nodes)
        # Nodes woken by this round's arrivals (deliver -> activate).
        self.receivers: Set[int] = set()
        # Pending self-wakes: a heap of (round, node) plus a per-node
        # set of registered rounds that deduplicates re-requests.
        self.wake_heap: List[Tuple[int, int]] = []
        self.wake_pending: List[Set[int]] = [set() for _ in nodes]
        # Nodes whose class overrides message_wakes get the per-message
        # filter; everyone else wakes on any arrival without a method
        # call per message.  Sweep mode filters nothing.
        base_wakes = NodeAlgorithm.message_wakes
        self.has_filter = [
            not sweep and type(node).message_wakes is not base_wakes
            for node in nodes
        ]
        self.edge_load: EdgeLoad = {}
        # Frame audit only: directed edge -> the round's messages.
        self.frames: Optional[Dict[Tuple[int, int], List[Message]]] = (
            {} if sim.frame_audit else None
        )
        # Cross-shard sends of this round: dst shard -> [(sender,
        # target, due, message)], and the traffic billed to them.
        self.outbox: Dict[int, List[Tuple[int, int, int, Message]]] = {}
        self.cross_messages = 0
        self.cross_bits = 0
        #: The ``(node, done)`` flips of the last :meth:`run_round`.
        self.done_changes: List[Tuple[int, bool]] = []

    # ------------------------------------------------------------------
    def post(
        self, send_round: int, sender: int, target: int, due: int, message
    ) -> None:
        """Queue one local delivery: in flight if due next round, else
        on the future heap."""
        if due == send_round + 1:
            self.in_flight.setdefault(target, []).append((sender, message))
        else:
            self.fseq += 1
            heapq.heappush(
                self.future,
                (due, send_round, sender, self.fseq, target, message),
            )

    def _wake(self, node_id: int, wake_round: int) -> None:
        """Register a self-wake of ``node_id`` at ``wake_round``."""
        pending = self.wake_pending[node_id]
        if wake_round not in pending:
            pending.add(wake_round)
            heapq.heappush(self.wake_heap, (wake_round, node_id))

    # ------------------------------------------------------------------
    def deliver(self, round_number: int) -> bool:
        """Step 1: mature due futures, then deliver; True if anything
        arrived.

        A matured message queues after the round's fresh arrivals, so
        receivers must not rely on sender-sorted inboxes under a fault
        plan.
        """
        in_flight = self.in_flight
        future = self.future
        while future and future[0][0] <= round_number:
            _due, _sent, sender, _seq, target, message = heapq.heappop(future)
            in_flight.setdefault(target, []).append((sender, message))
        if not in_flight:
            return False
        profiler = self.profiler
        started = perf_counter() if profiler is not None else 0.0
        self.in_flight = {}
        nodes = self.nodes
        deferred = self.deferred
        has_filter = self.has_filter
        receivers = self.receivers
        for target, arrivals in in_flight.items():
            box = deferred[target]
            if box is None:
                deferred[target] = arrivals
            else:
                box.extend(arrivals)
            if has_filter[target]:
                wakes = nodes[target].message_wakes
                for sender, message in arrivals:
                    if wakes(sender, message):
                        receivers.add(target)
                        break
            else:
                receivers.add(target)
        if profiler is not None:
            profiler.add("engine.deliver", perf_counter() - started)
        return True

    def activate(self, round_number: int) -> Sequence[int]:
        """Step 2: the node ids to step this round, ascending."""
        receivers = self.receivers
        self.receivers = set()
        if self.sweep or round_number == 0:
            # Round 0 gives every node on_start + on_round in all modes.
            active: Sequence[int] = self.members
        else:
            heap = self.wake_heap
            while heap and heap[0][0] <= round_number:
                _, node_id = heapq.heappop(heap)
                self.wake_pending[node_id].discard(round_number)
                receivers.add(node_id)
            active = sorted(receivers)
        faults = self.faults
        if faults is None or not active:
            return active
        # Fail-pause: a crashed node is frozen, not stepped, and keeps
        # its deferred inbox; outside sweep mode it is woken again at
        # its first alive round so a finite crash window resumes.
        alive: List[int] = []
        for node_id in active:
            if not faults.node_crashed(node_id, round_number):
                alive.append(node_id)
                continue
            faults.note_crash_skip(node_id, round_number)
            if not self.sweep:
                crash_end = faults.crash_end_after(node_id, round_number)
                if crash_end is not None:
                    self._wake(node_id, crash_end)
        return alive

    def step(
        self, round_number: int, active: Sequence[int]
    ) -> List[Tuple[int, bool]]:
        """Step 3: step ``active``, bill every send and route it.

        Returns the ``(node, done)`` flips of this round.
        """
        profiler = self.profiler
        started = perf_counter() if profiler is not None else 0.0
        nodes = self.nodes
        deferred = self.deferred
        bill = self.biller(round_number)
        faults = self.faults
        owner = self.owner
        shard = self.shard
        in_flight = self.in_flight
        in_flight_get = in_flight.get
        wakes = not self.sweep
        empty_inbox: Inbox = []
        done_changes: List[Tuple[int, bool]] = []
        for node_id in active:
            node = nodes[node_id]
            inbox = deferred[node_id]
            if inbox is None:
                inbox = empty_inbox
            else:
                deferred[node_id] = None
            was_done = node.done
            ctx = RoundContext(node_id, round_number, node.neighbors)
            if round_number == 0:
                node.on_start(ctx)
            node.on_round(ctx, inbox)
            for target, message in ctx.drain():
                bits = bill(node_id, target, message)
                # The send is billed above regardless of its fate: the
                # sender transmitted; the network decides delivery.
                if owner is not None and owner[target] != shard:
                    self._send_remote(
                        round_number, node_id, target, message, bits
                    )
                elif faults is None:
                    bucket = in_flight_get(target)
                    if bucket is None:
                        in_flight[target] = [(node_id, message)]
                    else:
                        bucket.append((node_id, message))
                else:
                    for due, delivered in faults.deliveries(
                        round_number, node_id, target, message
                    ):
                        self.post(
                            round_number, node_id, target, due, delivered
                        )
            if wakes and ctx._wakes is not None:
                for wake_round in ctx.drain_wakes():
                    self._wake(node_id, wake_round)
            if node.done != was_done:
                done_changes.append((node_id, node.done))
                self.pending += -1 if node.done else 1
        if profiler is not None:
            profiler.add("engine.step", perf_counter() - started)
            profiler.bump("engine.active_node_steps", len(active))
        return done_changes

    def biller(self, round_number: int) -> Callable[[int, int, Message], int]:
        """The per-send billing of one round, as ``bill(sender, target,
        message) -> bits``.

        ``bill`` sizes the message, calls the tracer and the telemetry
        send hook, adds the bits to the edge's load, enforces the strict
        budget and collects the frame.  Where the send goes is the
        caller's business.  Build it once per round: it holds the
        round's load buffer, which :meth:`close_round` swaps out.
        """
        wire = self.wire
        tracer = self.tracer
        on_send = self.on_send
        budget = self.budget
        frames = self.frames
        edge_load = self.edge_load
        edge_load_get = edge_load.get

        def bill(sender: int, target: int, message: Message) -> int:
            bits = message.bit_size(wire)
            if tracer is not None:
                tracer.record(round_number, sender, target, message, bits)
            if on_send is not None:
                on_send(round_number, sender, target, message, bits)
            key = (sender, target)
            load = edge_load_get(key)
            if load is None:
                edge_load[key] = [1, bits]
                total = bits
            else:
                load[0] += 1
                total = load[1] = load[1] + bits
            if budget is not None and total > budget:
                raise CongestViolationError(
                    round_number, sender, target, total, budget
                )
            if frames is not None:
                frames.setdefault(key, []).append(message)
            return bits

        return bill

    def _send_remote(
        self, round_number: int, sender: int, target: int, message, bits: int
    ) -> None:
        """Route one billed send to another shard's outbox entry."""
        self.cross_messages += 1
        self.cross_bits += bits
        if self.faults is None:
            outcomes = ((round_number + 1, message),)
        else:
            outcomes = self.faults.deliveries(
                round_number, sender, target, message
            )
        dst = self.owner[target]
        for due, delivered in outcomes:
            self.outbox.setdefault(dst, []).append(
                (sender, target, due, delivered)
            )

    def close_round(self, round_number: int) -> EdgeLoad:
        """Step 4: audit the round's frames and hand over its per-edge
        loads (the next round fills a fresh buffer)."""
        edge_load = self.edge_load
        if edge_load:
            self.edge_load = {}
            frames = self.frames
            if frames is not None:
                audit_frames(self.wire, round_number, edge_load, frames)
                frames.clear()
        return edge_load

    # ------------------------------------------------------------------
    # round source of drive_rounds (one process)
    # ------------------------------------------------------------------
    def run_round(self, round_number: int) -> EdgeLoad:
        """Steps 1-4 for one round; returns its per-edge loads and keeps
        its done flips in :attr:`done_changes`."""
        had_traffic = self.deliver(round_number)
        active = self.activate(round_number)
        self.done_changes = self.step(round_number, active) if active else []
        if had_traffic and not active and self.profiler is not None:
            # Every arrival this round was passive: the round elapses
            # (the messages were on the wire) but no node steps.
            self.profiler.bump("engine.passive_rounds")
        return self.close_round(round_number)

    def arrivals(self, round_number: int) -> bool:
        """Whether anything is delivered in ``round_number``."""
        future = self.future
        return bool(self.in_flight) or (
            bool(future) and future[0][0] <= round_number
        )

    def next_future(self) -> Optional[int]:
        """The due round of the earliest delayed delivery, if any."""
        return self.future[0][0] if self.future else None

    def next_wake(self, round_number: int) -> Optional[int]:
        """The earliest registered self-wake; every round in sweep mode,
        which steps every node every round."""
        if self.sweep:
            return round_number
        return self.wake_heap[0][0] if self.wake_heap else None

    @property
    def last_progress(self) -> int:
        """The last round with fresh traffic (fault runs only)."""
        return self.faults.last_progress_round

    def unfinished(self) -> Tuple[int, ...]:
        """Ids of the members not done."""
        nodes = self.nodes
        return tuple(
            nodes[v].node_id for v in self.members if not nodes[v].done
        )

    def stall(self, round_number: int) -> None:
        """Raise the stall :func:`drive_rounds` declared."""
        faults = self.faults
        raise SimulationStalledError(
            round_number,
            faults.last_progress_round,
            self.unfinished(),
            faults.crashed_nodes(round_number),
        )

    # ------------------------------------------------------------------
    # barrier snapshot (shard checkpoints)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The round state of this kernel's nodes at a round barrier."""
        deferred = self.deferred
        pending = self.wake_pending
        return {
            "in_flight": self.in_flight,
            "future": list(self.future),
            "fseq": self.fseq,
            "cross_messages": self.cross_messages,
            "cross_bits": self.cross_bits,
            "deferred": {
                v: deferred[v] for v in self.members if deferred[v] is not None
            },
            "wake_heap": list(self.wake_heap),
            "wake_pending": {
                v: set(pending[v]) for v in self.members if pending[v]
            },
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot`; replaces all round state."""
        n = len(self.nodes)
        self.in_flight = state["in_flight"]
        self.future = list(state["future"])
        self.fseq = state["fseq"]
        self.cross_messages = state["cross_messages"]
        self.cross_bits = state["cross_bits"]
        self.deferred = [None] * n
        for v, box in state["deferred"].items():
            self.deferred[v] = box
        self.pending = sum(1 for v in self.members if not self.nodes[v].done)
        self.receivers = set()
        self.wake_heap = list(state["wake_heap"])
        self.wake_pending = [set() for _ in range(n)]
        for v, pending in state["wake_pending"].items():
            self.wake_pending[v] = set(pending)
        self.edge_load = {}
        if self.frames is not None:
            self.frames = {}
        self.outbox = {}


def drive_rounds(source, sim, round_number: int = 0) -> int:
    """Drive ``source`` round by round until the run ends; return the
    final round (also stored as ``sim.stats.rounds``).

    ``sim`` is the :class:`~repro.congest.simulator.Simulator` whose
    stats, round limit, telemetry and fault plan apply.  The source
    keeps ``pending`` (nodes not done) and ``last_progress`` (the last
    round with fresh traffic), reports its horizons (``arrivals``,
    ``next_wake``, ``next_future``) and its ``unfinished`` node ids,
    runs one round (``run_round`` returns the round's per-edge loads)
    and raises its own stall (``stall``).

    A round nothing arrives in and no node wakes in is idle: by the wake
    contract no node would change state, so the loop fast-forwards to
    the next wake, delayed delivery or stall deadline.  With none of
    them the network is silent for good, and the counter runs out to
    the round limit so the failure matches sweep mode's.

    Crash-aware termination: a fault run stalls at the first round more
    than ``patience`` rounds after its last fresh traffic while nodes
    are pending.  Patience floors at 2N: the protocol's legitimate
    quiet stretches (the aggregation schedule's gaps and its
    finish-horizon wait) are O(diameter) < 2N rounds, while recovery
    churn repeats every <= 16 rounds, so 2N rounds of no fresh traffic
    cannot be a healthy run.  Every engine visits that deadline round,
    so every engine stalls at the same round.
    """
    stats = sim.stats
    max_rounds = sim.max_rounds
    telemetry = sim.telemetry
    profiler = None
    on_tick = None
    on_round_end = None
    if telemetry is not None:
        profiler = telemetry.profiler
        on_round_end = telemetry.on_round_end
        # Streaming/progress tick: None on the fast path, so a run
        # without a bus or estimator pays one identity check a round.
        if getattr(telemetry, "wants_ticks", False):
            on_tick = telemetry.on_round_tick
    patience = None
    if sim.faults is not None:
        patience = max(sim.faults.plan.stall_patience, 2 * len(sim.nodes))
    while True:
        if on_tick is not None:
            on_tick(round_number)
        if (
            patience is not None
            and source.pending
            and round_number - source.last_progress > patience
        ):
            source.stall(round_number)
        if round_number > max_rounds:
            raise SimulationNotTerminatedError(
                round_number, max_rounds, source.unfinished(), sim.graph.name
            )
        # Round 0 always runs, so an empty network ends after it.
        if round_number > 0 and not source.arrivals(round_number):
            future = source.next_future()
            if not source.pending and future is None:
                break
            wake = source.next_wake(round_number)
            if wake is None or wake > round_number:
                skip_to = max_rounds + 1
                if patience is not None and source.pending:
                    deadline = source.last_progress + patience + 1
                    skip_to = min(skip_to, deadline)
                for bound in (wake, future):
                    if bound is not None and bound < skip_to:
                        skip_to = bound
                if profiler is not None:
                    profiler.bump(
                        "engine.fast_forwarded_rounds",
                        skip_to - round_number,
                    )
                while round_number < skip_to:
                    stats.start_round()
                    round_number += 1
                continue
        edge_load = source.run_round(round_number)
        stats.start_round()
        if edge_load:
            stats.observe_round(round_number, edge_load)
            if on_round_end is not None:
                on_round_end(round_number, edge_load)
        round_number += 1
    stats.rounds = round_number
    return round_number


def audit_frames(
    wire: WireFormat,
    round_number: int,
    edge_load: EdgeLoad,
    frames: Dict[Tuple[int, int], List[Message]],
) -> None:
    """Check every edge's coalesced frame of one round (see
    :func:`check_frame`)."""
    for edge, load in edge_load.items():
        check_frame(wire, round_number, edge, frames[edge], load[1])


def check_frame(
    wire: WireFormat,
    round_number: int,
    edge: Tuple[int, int],
    messages: List[Message],
    charged: int,
) -> None:
    """Materialize one edge's coalesced frame and check its length.

    The accounting charged ``sum(bit_size)`` on the edge; the codec
    guarantees a coalesced frame is exactly that long.  A mismatch
    means a message lied about its size (or mutated after being
    enqueued) and the CONGEST budget was enforced on wrong numbers.
    """
    _word, frame_bits = encode_frame(messages, wire)
    if frame_bits != charged:
        sender, receiver = edge
        raise WireCodecError(
            "round {}: edge {}->{} charged {} bits but its "
            "encoded frame is {} bits".format(
                round_number, sender, receiver, charged, frame_bits
            )
        )
