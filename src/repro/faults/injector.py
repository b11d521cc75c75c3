"""The fault injector: deterministic realization of a FaultPlan.

The simulator consults one :class:`FaultInjector` at two points:

* per enqueued message — :meth:`FaultInjector.deliveries` maps the
  reliable delivery (next round, original message) to a list of
  ``(delivery round, message)`` outcomes: empty for a loss, late for a
  delay, two entries for a duplication, a *different* message object
  for undetected corruption;
* per node per round — :meth:`FaultInjector.node_crashed` implements
  the fail-pause crash windows.

Along the way the injector records the last round that carried fresh
(non-recovery) traffic, ``last_progress_round``.  The round driver
(:func:`repro.congest.kernel.drive_rounds`) reads it for crash-aware
termination: when recovery traffic (retransmissions, acks) is the only
thing on the wire for ``stall_patience`` rounds, the run is declared
stalled and ends with a structured error instead of spinning to the
round limit.

Determinism
-----------
Every probabilistic decision is a pure function of ``(plan.seed, fault
kind, send round, sender, receiver, per-edge message index)`` hashed
through BLAKE2b — no consumed RNG stream.  The hashed bytes are
``kind:round:sender:receiver:index`` under the seed as key; the
per-send decisions take them from one keyed state per kind that has
already absorbed ``kind:``, which yields the same digest as hashing
the whole string in one shot (:meth:`FaultInjector._unit`).  Since
both simulator engines present the identical send sequence (same
rounds, same per-edge order), the injected faults are identical under
``engine="sweep"`` and ``engine="event"``, which is what makes fault
runs differentially testable at all.

State
-----
The per-run state (counters, recovery spans, per-edge message indices,
first-crash rounds, last progress round) is plain data:
:meth:`FaultInjector.snapshot` returns it, :meth:`FaultInjector.restore`
puts it back (a checkpoint resume replays the same decisions) and
:meth:`FaultInjector.absorb` adds another copy's counters (a shard
worker that ran on its own copy of the injector).

Corruption
----------
Bit-flip corruption is realized *physically* where possible: the
message is encoded through :func:`repro.wire.encode_frame_checked`,
``corrupt_bits`` payload bits are flipped, and the frame is decoded
through the checksum-verifying path.  A rejected frame (CRC mismatch —
certain for single-bit flips — or an unparseable payload) counts as a
*detected* loss; an undetected corruption delivers the decoded, altered
message.  Messages outside the codec registry (transport envelopes,
opaque payloads) or without an arithmetic context fall back to the
modeled outcome: corruption detected, frame dropped.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import SimulatorConfigError, WireCodecError
from repro.faults.plan import FaultPlan
from repro.wire import Message

#: 2**64 as a float divisor for hash -> unit-interval mapping.
_UNIT_SCALE = float(1 << 64)

#: The additive FaultStats counters, in snapshot order.
_COUNTERS = (
    "dropped",
    "duplicated",
    "delayed",
    "corrupted_detected",
    "corrupted_undetected",
    "crash_dropped",
    "link_dropped",
    "crash_rounds",
)


class FaultStats:
    """Counters for every injected fault (attached to SimulationStats)."""

    __slots__ = _COUNTERS + ("recoveries",)

    def __init__(self):
        for name in _COUNTERS:
            setattr(self, name, 0)
        #: (node, crash start, first alive round) per finite crash window.
        self.recoveries: List[Tuple[int, int, int]] = []

    @property
    def total_injected(self) -> int:
        return (
            self.dropped
            + self.duplicated
            + self.delayed
            + self.corrupted_detected
            + self.corrupted_undetected
            + self.crash_dropped
            + self.link_dropped
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "corrupted_detected": self.corrupted_detected,
            "corrupted_undetected": self.corrupted_undetected,
            "crash_dropped": self.crash_dropped,
            "link_dropped": self.link_dropped,
            "crash_rounds": self.crash_rounds,
            "recoveries": len(self.recoveries),
            "total_injected": self.total_injected,
        }

    def __repr__(self) -> str:
        return "FaultStats({})".format(self.as_dict())


class FaultInjector:
    """Realizes one :class:`FaultPlan` against one simulation run.

    One injector observes one run — build a fresh one per run (it holds
    per-run progress and sequence state; see :meth:`snapshot`).

    Parameters
    ----------
    plan:
        The fault scenario.
    arith:
        Optional arithmetic context, required only to *physically*
        corrupt frames carrying SIGMA/PSI fields; without it those
        corruptions fall back to detected drops.
    tracer:
        Optional :class:`~repro.congest.trace.Tracer`; injected faults
        are recorded via its ``record_fault`` hook.
    """

    def __init__(self, plan: FaultPlan, arith=None, tracer=None):
        self.plan = plan
        self.arith = arith
        self.tracer = tracer
        self.stats = FaultStats()
        self._key = plan.seed.to_bytes(8, "big", signed=True)
        #: Keyed hash state per per-send decision kind, already fed
        #: ``b"<kind>:"``; None when the plan's rate is zero.  Derived
        #: from the plan alone, so checkpoints never store them.
        self._drop_draw = self._prefix("drop", plan.drop_rate)
        self._corrupt_draw = self._prefix("corrupt", plan.corrupt_rate)
        self._delay_draw = self._prefix("delay", plan.delay_rate)
        self._dup_draw = self._prefix("dup", plan.duplicate_rate)
        #: per directed edge: messages ever sent (the decision index).
        self._edge_seq: Dict[Tuple[int, int], int] = {}
        #: node -> sorted crash windows.
        self._crash_windows: Dict[int, List] = {}
        for window in plan.crashes:
            self._crash_windows.setdefault(window.node, []).append(window)
        for windows in self._crash_windows.values():
            windows.sort(key=lambda w: w.start)
        #: undirected edge -> outage windows.
        self._outages: Dict[Tuple[int, int], List] = {}
        for outage in plan.link_outages:
            key = (min(outage.u, outage.v), max(outage.u, outage.v))
            self._outages.setdefault(key, []).append(outage)
        self._wire = None
        #: last round that carried fresh (non-recovery) traffic.
        self.last_progress_round = 0
        #: nodes recorded as crashed at least once (for recovery spans).
        self._seen_crashed: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def bind(self, simulator) -> None:
        """Attach per-run context; called by ``Simulator.__init__``."""
        self._wire = simulator.wire

    # ------------------------------------------------------------------
    # state: checkpoints and multi-process runs
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The injector's run state as plain data.

        Counters, recovery spans, per-edge message indices, first-crash
        rounds and the last progress round.  Every decision is a keyed
        hash of the plan and these indices, so an injector given this
        state by :meth:`restore` makes exactly the decisions the
        original would have made from here on.
        """
        stats = self.stats
        return {
            "counters": {name: getattr(stats, name) for name in _COUNTERS},
            "recoveries": list(stats.recoveries),
            "edge_seq": dict(self._edge_seq),
            "seen_crashed": dict(self._seen_crashed),
            "last_progress": self.last_progress_round,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Replace this injector's run state with a :meth:`snapshot`."""
        stats = self.stats
        for name, value in state["counters"].items():
            setattr(stats, name, value)
        stats.recoveries[:] = [tuple(entry) for entry in state["recoveries"]]
        self._edge_seq = dict(state["edge_seq"])
        self._seen_crashed = dict(state["seen_crashed"])
        self.last_progress_round = state["last_progress"]

    def absorb(self, state: Dict[str, Any]) -> None:
        """Add the counters of another copy of this injector.

        ``state`` is a :meth:`snapshot` of an injector that observed a
        disjoint set of senders and nodes (a shard worker's copy); its
        counters and recovery spans add to this one's, and a node's
        first-crash round is the earlier of the two.  Message indices
        and the progress round stay this injector's own.
        """
        stats = self.stats
        for name, value in state["counters"].items():
            setattr(stats, name, getattr(stats, name) + value)
        stats.recoveries.extend(tuple(entry) for entry in state["recoveries"])
        seen = self._seen_crashed
        for node_id, first in state["seen_crashed"].items():
            if node_id not in seen or first < seen[node_id]:
                seen[node_id] = first

    # ------------------------------------------------------------------
    # deterministic decisions
    # ------------------------------------------------------------------
    def _unit(
        self, kind: str, round_number: int, sender: int, receiver: int, index: int
    ) -> float:
        """A reproducible uniform draw in [0, 1) for one decision site."""
        digest = hashlib.blake2b(
            "{}:{}:{}:{}:{}".format(
                kind, round_number, sender, receiver, index
            ).encode("ascii"),
            digest_size=8,
            key=self._key,
        ).digest()
        return int.from_bytes(digest, "big") / _UNIT_SCALE

    def _prefix(self, kind: str, rate: float):
        """The keyed hash state that has absorbed ``kind:``, or None
        when ``rate`` never fires."""
        if rate <= 0.0:
            return None
        state = hashlib.blake2b(digest_size=8, key=self._key)
        state.update(kind.encode("ascii") + b":")
        return state

    def _span(
        self,
        kind: str,
        round_number: int,
        sender: int,
        receiver: int,
        index: int,
        bound: int,
    ) -> int:
        """A reproducible draw in ``1..bound``."""
        if bound <= 1:
            return 1
        draw = int(self._unit(kind, round_number, sender, receiver, index) * bound)
        return 1 + draw % bound

    # ------------------------------------------------------------------
    # crash windows
    # ------------------------------------------------------------------
    def node_crashed(self, node_id: int, round_number: int) -> bool:
        """Whether ``node_id`` is inside a crash window this round.

        Pure query (no counters) — it is consulted once per delivery
        attempt *and* once per step; :meth:`note_crash_skip` does the
        once-per-node-per-round accounting.
        """
        windows = self._crash_windows.get(node_id)
        if windows is None:
            return False
        return any(window.covers(round_number) for window in windows)

    def note_crash_skip(self, node_id: int, round_number: int) -> None:
        """Account one crashed node-round (called by the step loop)."""
        self.stats.crash_rounds += 1
        if node_id not in self._seen_crashed:
            self._seen_crashed[node_id] = round_number
            for window in self._crash_windows.get(node_id, ()):
                if window.end is not None:
                    self.stats.recoveries.append(
                        (node_id, window.start, window.end)
                    )

    def crash_end_after(self, node_id: int, round_number: int) -> Optional[int]:
        """First round >= ``round_number`` at which the node is alive.

        ``None`` when the covering window is permanent.  Only meaningful
        when :meth:`node_crashed` just returned True for this round.
        """
        windows = self._crash_windows.get(node_id)
        if windows is None:
            return round_number
        round_alive = round_number
        for window in windows:
            if window.covers(round_alive):
                if window.end is None:
                    return None
                round_alive = window.end
        return round_alive

    def crashed_nodes(self, round_number: int) -> Tuple[int, ...]:
        """Ids crashed in ``round_number`` (without counter side effects)."""
        out = []
        for node_id, windows in self._crash_windows.items():
            if any(w.covers(round_number) for w in windows):
                out.append(node_id)
        return tuple(sorted(out))

    def _link_down(self, sender: int, receiver: int, round_number: int) -> bool:
        outages = self._outages.get(
            (min(sender, receiver), max(sender, receiver))
        )
        return outages is not None and any(
            o.covers(round_number) for o in outages
        )

    # ------------------------------------------------------------------
    # the per-message fault pipeline
    # ------------------------------------------------------------------
    def deliveries(
        self,
        round_number: int,
        sender: int,
        receiver: int,
        message: Message,
    ) -> List[Tuple[int, Message]]:
        """Map one send to its delivery outcomes.

        Returns ``[(delivery_round, message), ...]`` — empty for a
        loss; the reliable outcome is ``[(round + 1, message)]``.
        The send is billed by the simulator regardless (the sender
        transmitted; the network ate it).
        """
        plan = self.plan
        key = (sender, receiver)
        index = self._edge_seq.get(key, 0)
        self._edge_seq[key] = index + 1
        # Only fresh traffic is progress: retransmissions and acks (which
        # set ``fault_progress`` False) keep a dead protocol *looking*
        # busy forever.
        if getattr(message, "fault_progress", True):
            self.last_progress_round = round_number
        if self._outages and self._link_down(sender, receiver, round_number):
            self.stats.link_dropped += 1
            self._trace(round_number, "link_down", sender, receiver)
            return []
        # Each draw below hashes ``kind:`` + this tail, exactly the
        # bytes _unit hashes in one shot.
        tail = b"%d:%d:%d:%d" % (round_number, sender, receiver, index)
        if self._drop_draw is not None:
            draw = self._drop_draw.copy()
            draw.update(tail)
            if int.from_bytes(draw.digest(), "big") / _UNIT_SCALE < (
                plan.drop_rate
            ):
                self.stats.dropped += 1
                self._trace(round_number, "drop", sender, receiver)
                return []
        if self._corrupt_draw is not None:
            draw = self._corrupt_draw.copy()
            draw.update(tail)
            if int.from_bytes(draw.digest(), "big") / _UNIT_SCALE < (
                plan.corrupt_rate
            ):
                message = self._corrupt(
                    round_number, sender, receiver, index, message
                )
                if message is None:
                    return []
        delivery_round = round_number + 1
        if self._delay_draw is not None:
            draw = self._delay_draw.copy()
            draw.update(tail)
            if int.from_bytes(draw.digest(), "big") / _UNIT_SCALE < (
                plan.delay_rate
            ):
                delivery_round += self._span(
                    "delay_span", round_number, sender, receiver, index,
                    plan.max_delay,
                )
                self.stats.delayed += 1
                self._trace(round_number, "delay", sender, receiver)
        crashes = self._crash_windows
        outcomes = []
        if not crashes or not self.node_crashed(receiver, delivery_round):
            outcomes.append((delivery_round, message))
        else:
            self.stats.crash_dropped += 1
            self._trace(round_number, "crash_drop", sender, receiver)
        if self._dup_draw is not None:
            draw = self._dup_draw.copy()
            draw.update(tail)
            if int.from_bytes(draw.digest(), "big") / _UNIT_SCALE < (
                plan.duplicate_rate
            ):
                dup_round = round_number + 1 + self._span(
                    "dup_span", round_number, sender, receiver, index,
                    plan.max_delay,
                )
                self.stats.duplicated += 1
                self._trace(round_number, "duplicate", sender, receiver)
                if not crashes or not self.node_crashed(receiver, dup_round):
                    outcomes.append((dup_round, message))
                else:
                    self.stats.crash_dropped += 1
        return outcomes

    def _corrupt(
        self,
        round_number: int,
        sender: int,
        receiver: int,
        index: int,
        message: Message,
    ) -> Optional[Message]:
        """Flip bits in the encoded frame; None = detected, dropped."""
        from repro.wire import decode_frame_checked, encode_frame_checked
        from repro.exceptions import FrameChecksumError

        inner = getattr(message, "inner_message", None)
        victim = inner if inner is not None else message
        wire = self._wire
        if (
            wire is None
            or type(victim).wire_tag is None
            or type(victim).WIRE_LAYOUT is None
        ):
            # Not physically encodable here: model the corruption as
            # caught by the checksum (certain for <= 8 flipped bits).
            self.stats.corrupted_detected += 1
            self._trace(round_number, "corrupt_detected", sender, receiver)
            return None
        try:
            word, bits = encode_frame_checked((victim,), wire)
        except WireCodecError:
            self.stats.corrupted_detected += 1
            self._trace(round_number, "corrupt_detected", sender, receiver)
            return None
        flipped = word
        for flip in range(self.plan.corrupt_bits):
            position = int(
                self._unit(
                    "corrupt_bit{}".format(flip),
                    round_number,
                    sender,
                    receiver,
                    index,
                )
                * bits
            ) % bits
            flipped ^= 1 << position
        try:
            decoded = decode_frame_checked(
                flipped, bits, wire, arith=self.arith
            )
        except (FrameChecksumError, WireCodecError):
            self.stats.corrupted_detected += 1
            self._trace(round_number, "corrupt_detected", sender, receiver)
            return None
        if len(decoded) != 1:
            self.stats.corrupted_detected += 1
            self._trace(round_number, "corrupt_detected", sender, receiver)
            return None
        self.stats.corrupted_undetected += 1
        self._trace(round_number, "corrupt_undetected", sender, receiver)
        mutated = decoded[0]
        if inner is not None:
            return message.with_message(mutated)
        return mutated

    # ------------------------------------------------------------------
    def _trace(
        self, round_number: int, kind: str, sender: int, receiver: int
    ) -> None:
        tracer = self.tracer
        if tracer is not None:
            record_fault = getattr(tracer, "record_fault", None)
            if record_fault is not None:
                record_fault(round_number, kind, sender, receiver)

    def __repr__(self) -> str:
        return "FaultInjector(plan={!r}, stats={!r})".format(
            self.plan, self.stats
        )


def as_injector(faults, arith=None, tracer=None) -> FaultInjector:
    """The run's injector for a ``faults=`` argument.

    A :class:`FaultPlan` gets a fresh injector; a given
    :class:`FaultInjector` is used as is, with ``arith`` and ``tracer``
    filling in whichever of its own is None.  Anything else raises
    :class:`SimulatorConfigError`.
    """
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults, arith=arith, tracer=tracer)
    if not isinstance(faults, FaultInjector):
        raise SimulatorConfigError(
            "faults must be a FaultPlan or a FaultInjector, got "
            "{!r}".format(faults)
        )
    if faults.arith is None:
        faults.arith = arith
    if faults.tracer is None:
        faults.tracer = tracer
    return faults
