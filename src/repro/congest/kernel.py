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
3. :meth:`~RoundKernel.step` steps them in id order and bills every
   send: bit size, tracer and telemetry hooks, per-edge load, the
   strict budget, frame collection, fault delivery and routing;
4. :meth:`~RoundKernel.close_round` runs the frame audit and hands over
   the round's per-edge loads.

Only the outer loops live elsewhere: termination, the round limit and
fast-forwarding in :class:`~repro.congest.simulator.Simulator`, and the
cross-shard frame exchange in :mod:`repro.shard.runtime`.

Routing is one decision, an optional node -> shard owner table.
Without one (a single process) every send goes to the local in-flight
lists; with one, sends to nodes of another shard go to the cross-shard
outbox instead.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.congest.node import Inbox, NodeAlgorithm, RoundContext
from repro.exceptions import CongestViolationError, WireCodecError
from repro.wire import Message, WireFormat, encode_frame

#: Per-round accounting buffer: directed edge -> [messages, bits].
EdgeLoad = Dict[Tuple[int, int], List[int]]


class RoundKernel:
    """The round state of one network or shard, and its four steps.

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
        """Step 3: step ``active`` and bill every send.

        Returns the ``(node, done)`` flips of this round.
        """
        profiler = self.profiler
        started = perf_counter() if profiler is not None else 0.0
        nodes = self.nodes
        deferred = self.deferred
        wire = self.wire
        tracer = self.tracer
        on_send = self.on_send
        budget = self.budget
        frames = self.frames
        faults = self.faults
        owner = self.owner
        shard = self.shard
        edge_load = self.edge_load
        edge_load_get = edge_load.get
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
                bits = message.bit_size(wire)
                if tracer is not None:
                    tracer.record(round_number, node_id, target, message, bits)
                if on_send is not None:
                    on_send(round_number, node_id, target, message, bits)
                key = (node_id, target)
                load = edge_load_get(key)
                if load is None:
                    edge_load[key] = [1, bits]
                    total = bits
                else:
                    load[0] += 1
                    total = load[1] = load[1] + bits
                if budget is not None and total > budget:
                    raise CongestViolationError(
                        round_number, node_id, target, total, budget
                    )
                if frames is not None:
                    frames.setdefault(key, []).append(message)
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
        if profiler is not None:
            profiler.add("engine.step", perf_counter() - started)
            profiler.bump("engine.active_node_steps", len(active))
        return done_changes

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
        self.receivers = set()
        self.wake_heap = list(state["wake_heap"])
        self.wake_pending = [set() for _ in range(n)]
        for v, pending in state["wake_pending"].items():
            self.wake_pending[v] = set(pending)
        self.edge_load = {}
        if self.frames is not None:
            self.frames = {}
        self.outbox = {}


def audit_frames(
    wire: WireFormat,
    round_number: int,
    edge_load: EdgeLoad,
    frames: Dict[Tuple[int, int], List[Message]],
) -> None:
    """Materialize each edge's coalesced frame and check its length.

    The accounting charged ``sum(bit_size)`` per edge; the codec
    guarantees a coalesced frame is exactly that long.  A mismatch
    means a message lied about its size (or mutated after being
    enqueued) and the CONGEST budget was enforced on wrong numbers.
    """
    for key, load in edge_load.items():
        _word, frame_bits = encode_frame(frames[key], wire)
        if frame_bits != load[1]:
            sender, receiver = key
            raise WireCodecError(
                "round {}: edge {}->{} charged {} bits but its "
                "encoded frame is {} bits".format(
                    round_number, sender, receiver, load[1], frame_bits
                )
            )
