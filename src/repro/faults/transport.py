"""Reliable transport over faulty channels: the self-healing layer.

:class:`ResilientNode` wraps any :class:`~repro.congest.node.
NodeAlgorithm` in a per-link ack/retransmit transport plus an
alpha-synchronizer, making the wrapped ("inner") protocol run correctly
over channels that drop, duplicate, delay or corrupt messages and
across fail-pause crash windows — without modifying the inner protocol
at all.

How it works
------------
The inner protocol runs in **logical rounds**, decoupled from the
simulator's physical rounds:

* Every inner message travels in an :class:`Envelope` carrying a
  per-link sequence number and the logical round it belongs to.
* After executing logical round ``r``, a node sends every neighbor a
  :class:`Fence` for ``r`` stating how many data envelopes that
  neighbor was sent in ``r`` (possibly zero).  A fence whose ``done``
  flag is set additionally promises that **no** data follows for any
  later logical round.
* A node executes logical round ``r`` only once, for every neighbor,
  round ``r-1`` is *complete*: the fence for ``r-1`` arrived and as
  many data envelopes as it announced.  This is the alpha-synchronizer
  condition — it guarantees the logical-round inbox is exactly the
  reliable run's inbox.
* Envelopes and fences are retransmitted on a round-based timeout with
  exponential backoff (``RETRY_INTERVAL`` doubling up to
  ``RETRY_INTERVAL_CAP``) until cumulatively acknowledged; receivers
  deduplicate by sequence number and acknowledge the highest
  *contiguous* sequence received (go-back-N style, one :class:`Ack`
  per link per round).

Because logical inboxes are reassembled in ``(sender id, sequence)``
order — exactly the sender-sorted enqueue order the reliable simulator
guarantees — the inner protocol's execution is **bit-identical** to a
reliable sweep-engine run: same settle rounds, same sigma/psi values,
same betweenness.  Recovery changes only *when* (in physical rounds)
each logical round executes, never *what* it computes.  That is the
differential guarantee the fault tests pin down: under any recoverable
plan, recovered BC equals the fault-free run (and Brandes) exactly.

Limits: a permanently crashed node stalls its neighbors' logical clock
forever (retransmissions are not progress), which the injector's stall
detector converts into a structured partial result — see
``docs/fault-model.md``.

At most one logical round executes per physical round, so the per-edge
physical budget is the inner round's traffic plus a constant transport
overhead (envelope headers, one fence, one ack, bounded-burst
retransmissions) — CONGEST's O(log N) per edge per round is preserved
up to the constant tracked by :data:`RESILIENT_CONGEST_FACTOR`.
"""

from __future__ import annotations

from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.congest.node import Inbox, NodeAlgorithm, NodeFactory, RoundContext
from repro.congest.simulator import DEFAULT_CONGEST_FACTOR
from repro.exceptions import ProtocolError
from repro.wire import FLAG, ROUND, UINT, Message, WireFormat, uint_bits

#: Suggested ``congest_factor`` for resilient runs: the transport adds
#: a constant per-edge overhead (envelope headers, fences, acks,
#: retransmission bursts) on top of the inner protocol's worst round.
RESILIENT_CONGEST_FACTOR = 4 * DEFAULT_CONGEST_FACTOR

#: Initial retransmission timeout in physical rounds.  The loss-free
#: round trip is 2 rounds (deliver + ack back); 4 leaves headroom for
#: bounded delivery delay before retransmitting needlessly.
RETRY_INTERVAL = 4

#: Backoff cap for the doubling retransmission interval.
RETRY_INTERVAL_CAP = 16

#: Maximum retransmissions per link per round (oldest-first), bounding
#: the recovery traffic's contribution to the per-edge bit budget.
RETRANSMIT_BURST = 3


class Envelope(Message):
    """A transport frame carrying one inner message.

    Not registered in the 4-bit wire tag space (the registry is full);
    the envelope is still *sized* honestly — header fields plus the
    inner message's full frame — so the CONGEST accounting charges the
    real cost of running the transport.
    """

    __slots__ = ("seq", "inner_round", "retransmit", "inner_message")

    def __init__(
        self,
        seq: int,
        inner_round: int,
        retransmit: bool,
        inner_message: Message,
    ):
        self.seq = seq
        self.inner_round = inner_round
        self.retransmit = retransmit
        self.inner_message = inner_message
        self._bit_cache = None

    def payload_bits(self, wire: WireFormat) -> int:
        return (
            uint_bits(self.seq)
            + wire.round_bits
            + 1
            + self.inner_message.bit_size(wire)
        )

    @property
    def fault_progress(self) -> bool:
        """First transmissions are progress; retransmissions are not."""
        return not self.retransmit

    def with_message(self, inner_message: Message) -> "Envelope":
        """Copy with a substituted inner message (corruption path)."""
        return Envelope(self.seq, self.inner_round, self.retransmit, inner_message)

    def __repr__(self) -> str:
        return "Envelope(seq={}, r={}, retx={}, inner={!r})".format(
            self.seq, self.inner_round, self.retransmit, self.inner_message
        )


class Fence(Message):
    """End-of-logical-round marker: ``count`` data envelopes were sent.

    ``done`` promises that no data follows for any logical round after
    ``inner_round`` (the wrapped node finished its protocol).
    """

    __slots__ = ("seq", "inner_round", "count", "done", "retransmit")

    WIRE_LAYOUT: ClassVar[Tuple[Tuple[str, str], ...]] = (
        ("seq", UINT),
        ("inner_round", ROUND),
        ("count", UINT),
        ("done", FLAG),
        ("retransmit", FLAG),
    )

    def __init__(
        self,
        seq: int,
        inner_round: int,
        count: int,
        done: bool,
        retransmit: bool = False,
    ):
        self.seq = seq
        self.inner_round = inner_round
        self.count = count
        self.done = done
        self.retransmit = retransmit
        self._bit_cache = None

    def payload_bits(self, wire: WireFormat) -> int:
        # Closed form of WIRE_LAYOUT: two varints, a round, two flags.
        return (
            uint_bits(self.seq) + wire.round_bits + uint_bits(self.count) + 2
        )

    @property
    def fault_progress(self) -> bool:
        return not self.retransmit

    def __repr__(self) -> str:
        return "Fence(seq={}, r={}, count={}, done={}, retx={})".format(
            self.seq, self.inner_round, self.count, self.done, self.retransmit
        )


class Ack(Message):
    """Cumulative acknowledgement: every seq <= ``upto`` was received."""

    __slots__ = ("upto",)

    WIRE_LAYOUT: ClassVar[Tuple[Tuple[str, str], ...]] = (("upto", UINT),)

    #: Acks are recovery traffic, never progress (see the stall detector).
    fault_progress: ClassVar[bool] = False

    def __init__(self, upto: int):
        self.upto = upto
        self._bit_cache = None

    def payload_bits(self, wire: WireFormat) -> int:
        # Closed form of WIRE_LAYOUT: one varint.
        return uint_bits(self.upto)

    def __repr__(self) -> str:
        return "Ack(upto={})".format(self.upto)


class _Pending:
    """One unacknowledged outbound transport frame."""

    __slots__ = ("seq", "kind", "inner_round", "payload", "next_retry", "interval")

    def __init__(self, seq: int, kind: str, inner_round: int, payload):
        self.seq = seq
        #: "data" (payload = inner message) or "fence" (payload = (count, done)).
        self.kind = kind
        self.inner_round = inner_round
        self.payload = payload
        #: None until first transmitted.
        self.next_retry: Optional[int] = None
        self.interval = RETRY_INTERVAL

    def build(self, retransmit: bool) -> Message:
        if self.kind == "data":
            return Envelope(self.seq, self.inner_round, retransmit, self.payload)
        count, done = self.payload
        return Fence(self.seq, self.inner_round, count, done, retransmit)


class _Channel:
    """Per-neighbor transport state (both directions)."""

    __slots__ = (
        "peer",
        "next_seq",
        "pending",
        "frontier",
        "ooo",
        "data",
        "fence_counts",
        "done_round",
        "arrived",
        "retransmissions",
    )

    def __init__(self, peer: int):
        self.peer = peer
        # -- outbound --
        self.next_seq = 0
        #: seq -> _Pending, insertion (= seq) ordered.
        self.pending: Dict[int, _Pending] = {}
        self.retransmissions = 0
        # -- inbound --
        #: highest seq n with every seq <= n received (-1 initially).
        self.frontier = -1
        #: received seqs beyond the contiguous frontier.
        self.ooo: set = set()
        #: inner round -> [(seq, inner message), ...] undelivered data.
        self.data: Dict[int, List[Tuple[int, Message]]] = {}
        #: inner round -> announced data count.
        self.fence_counts: Dict[int, int] = {}
        #: inner round of the peer's done fence (fences every later round).
        self.done_round: Optional[int] = None
        #: transport frames received this physical round (ack trigger).
        self.arrived = False

    # -- inbound ---------------------------------------------------------
    def receive_seq(self, seq: int) -> bool:
        """Register a received seq; False when it is a duplicate."""
        self.arrived = True
        if seq <= self.frontier or seq in self.ooo:
            return False
        if seq == self.frontier + 1:
            self.frontier = seq
            while self.frontier + 1 in self.ooo:
                self.frontier += 1
                self.ooo.discard(self.frontier)
        else:
            self.ooo.add(seq)
        return True

    # -- outbound --------------------------------------------------------
    def enqueue(self, kind: str, inner_round: int, payload) -> None:
        seq = self.next_seq
        self.next_seq = seq + 1
        self.pending[seq] = _Pending(seq, kind, inner_round, payload)

    def acknowledge(self, upto: int) -> None:
        # Acks are cumulative and ``pending`` is seq ordered, so the
        # acknowledged frames are a prefix of it.
        pending = self.pending
        while pending:
            seq = next(iter(pending))
            if seq > upto:
                return
            del pending[seq]


class ResilientNode(NodeAlgorithm):
    """Transport wrapper running ``inner`` over unreliable channels."""

    def __init__(
        self,
        node_id: int,
        neighbors: Sequence[int],
        inner: NodeAlgorithm,
    ):
        super().__init__(node_id, neighbors)
        self.inner = inner
        self.channels: Dict[int, _Channel] = {
            peer: _Channel(peer) for peer in self.neighbors
        }
        self._sorted_peers: Tuple[int, ...] = tuple(sorted(self.neighbors))
        #: next logical round to execute.
        self.inner_round = 0
        self._started = False
        self._done_announced = False
        #: logical rounds executed after the inner node finished (these
        #: only consume late inbound data and must produce no sends).
        self.catchup_rounds = 0

    # ------------------------------------------------------------------
    def on_round(self, ctx: RoundContext, inbox: Inbox) -> None:
        round_number = ctx.round_number
        channels = self.channels
        # 1. inbound: dedup, store data/fences, collect acks.
        for sender, message in inbox:
            channel = channels[sender]
            kind = type(message)
            if kind is Ack:
                channel.acknowledge(message.upto)
            elif kind is Envelope:
                if channel.receive_seq(message.seq):
                    channel.data.setdefault(message.inner_round, []).append(
                        (message.seq, message.inner_message)
                    )
            elif kind is Fence:
                if channel.receive_seq(message.seq):
                    channel.fence_counts[message.inner_round] = message.count
                    if message.done and (
                        channel.done_round is None
                        or message.inner_round < channel.done_round
                    ):
                        channel.done_round = message.inner_round
            else:
                raise ProtocolError(
                    "transport received unexpected message {!r}".format(
                        type(message).__name__
                    )
                )
        # 2. advance the logical clock by at most one round.  Round 0
        # needs no fences; steps 3-5 change nothing that ``ready`` reads.
        ready = not self._started or self._can_advance()
        if ready:
            self._started = True
            self._execute_inner_round(ctx, self.inner_round)
            ready = self._can_advance()
        # 3. transmissions: fresh frames, expired retransmissions, acks.
        next_wake: Optional[int] = None
        for peer in self._sorted_peers:
            channel = channels[peer]
            burst = 0
            for pending in channel.pending.values():
                next_retry = pending.next_retry
                if next_retry is None:
                    ctx.send(peer, pending.build(retransmit=False))
                    next_retry = round_number + pending.interval
                    pending.next_retry = next_retry
                elif next_retry <= round_number:
                    if burst < RETRANSMIT_BURST:
                        burst += 1
                        channel.retransmissions += 1
                        ctx.send(peer, pending.build(retransmit=True))
                        pending.interval = min(
                            pending.interval * 2, RETRY_INTERVAL_CAP
                        )
                        next_retry = round_number + pending.interval
                    else:
                        # The burst cap keeps recovery traffic inside
                        # the budget; a frame it skipped retries next
                        # round.
                        next_retry = round_number + 1
                    pending.next_retry = next_retry
                if next_wake is None or next_retry < next_wake:
                    next_wake = next_retry
            if channel.arrived:
                channel.arrived = False
                # Nothing to acknowledge while only out-of-order frames
                # beyond a lost seq 0 have arrived; retransmission will
                # close the gap and the next arrival acks cumulatively.
                if channel.frontier >= 0:
                    ctx.send(peer, Ack(channel.frontier))
        # 4. wake scheduling (event engine): earliest retransmit timer,
        # or the immediately-next round when more backlog is executable.
        if ready and (next_wake is None or round_number + 1 < next_wake):
            next_wake = round_number + 1
        if next_wake is not None and next_wake > round_number:
            ctx.wake_at(next_wake)
        # 5. global completion: inner finished, promise announced, every
        # outbound frame acknowledged, no undelivered inbound data.
        self.done = (
            self.inner.done
            and self._done_announced
            and not self._has_backlog()
            and all(not c.pending for c in channels.values())
        )

    # ------------------------------------------------------------------
    def _can_advance(self) -> bool:
        """Whether the next logical round may execute: the previous one
        is complete on every link and the inner node has work left."""
        return self._fences_complete(self.inner_round - 1) and (
            not self.inner.done or self._has_backlog()
        )

    def _fences_complete(self, inner_round: int) -> bool:
        """Whether every peer's ``inner_round`` is complete: its fence
        arrived with all the data it announced, or an earlier done
        fence covers it (see module doc)."""
        if inner_round < 0:
            return True
        for channel in self.channels.values():
            count = channel.fence_counts.get(inner_round)
            if count is None:
                done_round = channel.done_round
                if done_round is None or inner_round <= done_round:
                    return False
            elif len(channel.data.get(inner_round, ())) != count:
                return False
        return True

    def _has_backlog(self) -> bool:
        for channel in self.channels.values():
            if channel.data:
                return True
        return False

    def _execute_inner_round(self, ctx: RoundContext, round_number: int) -> None:
        """Run one logical round of the inner protocol.

        The logical inbox is reassembled in (sender id, seq) order —
        identical to the reliable simulator's sender-sorted, enqueue-
        ordered inboxes, which is what makes the inner execution
        bit-identical to a fault-free run.
        """
        channels = self.channels
        inner_inbox: Inbox = []
        previous = round_number - 1
        for peer in self._sorted_peers:
            entries = channels[peer].data.pop(previous, None)
            if entries:
                entries.sort()
                inner_inbox.extend((peer, message) for _seq, message in entries)
        inner = self.inner
        inner_ctx = RoundContext(self.node_id, round_number, inner.neighbors)
        if round_number == 0:
            inner.on_start(inner_ctx)
        inner.on_round(inner_ctx, inner_inbox)
        # The transport owns physical scheduling; logical wake requests
        # are moot because every logical round executes in order.
        inner_ctx.drain_wakes()
        sends = inner_ctx.drain()
        if self._done_announced:
            self.catchup_rounds += 1
            if sends:
                raise ProtocolError(
                    "node {} sent after announcing done (logical round "
                    "{})".format(self.node_id, round_number)
                )
        counts = dict.fromkeys(self._sorted_peers, 0)
        for target, message in sends:
            channels[target].enqueue("data", round_number, message)
            counts[target] += 1
        if not self._done_announced:
            done = inner.done
            for peer in self._sorted_peers:
                channels[peer].enqueue(
                    "fence", round_number, (counts[peer], done)
                )
            if done:
                self._done_announced = True
        self.inner_round = round_number + 1

    # ------------------------------------------------------------------
    def retransmission_count(self) -> int:
        """Total retransmitted frames across this node's links."""
        return sum(c.retransmissions for c in self.channels.values())

    def __repr__(self) -> str:
        return "ResilientNode(node={}, inner_round={}, done={}, inner={!r})".format(
            self.node_id, self.inner_round, self.done, self.inner
        )


def make_resilient_factory(inner_factory: NodeFactory) -> NodeFactory:
    """Wrap a node factory so every node runs behind the transport."""

    def factory(node_id: int, neighbors: Tuple[int, ...]) -> ResilientNode:
        return ResilientNode(node_id, neighbors, inner_factory(node_id, neighbors))

    return factory


def unwrap_node(node: NodeAlgorithm) -> NodeAlgorithm:
    """The protocol node behind a transport wrapper (identity otherwise)."""
    inner = getattr(node, "inner", None)
    return inner if isinstance(inner, NodeAlgorithm) else node
