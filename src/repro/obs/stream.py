"""Streaming telemetry: the bus, live JSONL sinks, progress estimation.

PR 2's :class:`~repro.obs.telemetry.Telemetry` is strictly post-hoc: it
buffers everything and yields a JSONL only after the run ends.  This
module adds the *incremental* side:

* :class:`TelemetryBus` — a tiny fan-out hub the telemetry facade
  publishes rows to as they happen.  Consumers attach either a bounded
  ring-buffer :class:`BusSubscriber` (in-process, drop-oldest under
  pressure) or a sink callback; :meth:`TelemetryBus.attach_jsonl` wires
  a :class:`JsonlStreamWriter` that flushes every row, so a crashed or
  chaos-killed run leaves a usable partial log behind.
* :class:`ProgressEstimator` — percent-complete and ETA from the
  protocol's *closed-form* round schedule
  (:func:`repro.core.schedule.expected_phase_schedule`, the same numbers
  the bulk engine plans with).  The synchronous protocol is
  round-deterministic, so inside the stock envelope the prediction is
  exact: the estimator reaches 100% precisely at termination.
* :class:`ConsoleProgress` — a bus sink rendering a live one-line
  progress display (the CLI ``--progress`` flag).

The streamed **core rows** (``meta``, ``phase``, ``metric``,
``monitor``, ``profile``) are exactly the rows
:meth:`Telemetry.events` exports after the run; streaming adds
``progress`` heartbeat rows on top.  Nothing here touches the
simulator's zero-cost fast paths: a telemetry without a bus or
estimator reports ``wants_ticks == False`` and the engines never call
the tick hook, and streaming never flips ``wants_sends`` /
``wants_rounds`` (so the bulk engine keeps its closed-form path).
"""

from __future__ import annotations

import json
import sys
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import ReproError

__all__ = [
    "BusSubscriber",
    "ConsoleProgress",
    "JsonlStreamWriter",
    "ProgressEstimator",
    "TelemetryBus",
    "schedule_for_simulator",
]

#: Default ring-buffer capacity of a subscriber.
DEFAULT_SUBSCRIBER_CAPACITY = 4096

#: Round heartbeats aim for this many progress rows per run when the
#: schedule is known; unknown-schedule runs tick every fallback interval.
PROGRESS_ROWS_PER_RUN = 100
FALLBACK_TICK_INTERVAL = 64


class BusSubscriber:
    """A bounded ring-buffer view of a :class:`TelemetryBus`.

    Rows beyond ``capacity`` drop the oldest entry (``dropped`` counts
    them); a live dashboard wants the newest rows, not backpressure on
    the simulator.
    """

    def __init__(self, capacity: int = DEFAULT_SUBSCRIBER_CAPACITY):
        self._rows: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self.capacity = capacity
        self.seen = 0
        self.dropped = 0

    def push(self, row: Dict[str, Any]) -> None:
        self.seen += 1
        if len(self._rows) == self.capacity:
            self.dropped += 1
        self._rows.append(row)

    def drain(self) -> List[Dict[str, Any]]:
        """Remove and return every buffered row, oldest first."""
        out = list(self._rows)
        self._rows.clear()
        return out

    def peek(self) -> List[Dict[str, Any]]:
        """The buffered rows without consuming them."""
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


class JsonlStreamWriter:
    """Appends one JSON line per published row, flushed immediately.

    The flush-per-row discipline is the point: a run killed mid-flight
    (chaos, OOM, ^C) leaves every completed row on disk, and at worst
    one torn tail line — which the partial-log readers skip.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self.rows_written = 0

    def __call__(self, row: Dict[str, Any]) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(row) + "\n")
        self._fh.flush()
        self.rows_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlStreamWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class TelemetryBus:
    """Fan-out hub between one run's telemetry and any number of consumers.

    Publishing is synchronous and in-order (the simulator thread calls
    straight through), so a subscriber's view is always a prefix-window
    of the final event list.  A sink that raises poisons the run —
    sinks are trusted code (file writers, renderers), not plugins.
    """

    def __init__(self):
        self._subscribers: List[BusSubscriber] = []
        self._sinks: List[Callable[[Dict[str, Any]], None]] = []
        self._writers: List[JsonlStreamWriter] = []
        self.published = 0

    def subscribe(
        self, capacity: int = DEFAULT_SUBSCRIBER_CAPACITY
    ) -> BusSubscriber:
        subscriber = BusSubscriber(capacity)
        self._subscribers.append(subscriber)
        return subscriber

    def attach_sink(self, sink: Callable[[Dict[str, Any]], None]) -> None:
        """Attach a callback invoked with every published row."""
        self._sinks.append(sink)

    def attach_jsonl(self, path) -> JsonlStreamWriter:
        """Stream every published row to ``path`` as flushed JSON Lines."""
        writer = JsonlStreamWriter(path)
        self._writers.append(writer)
        self._sinks.append(writer)
        return writer

    def publish(self, row: Dict[str, Any]) -> None:
        self.published += 1
        for subscriber in self._subscribers:
            subscriber.push(row)
        for sink in self._sinks:
            sink(row)

    def close(self) -> None:
        """Close attached JSONL writers (subscribers keep their rows)."""
        for writer in self._writers:
            writer.close()

    def __enter__(self) -> "TelemetryBus":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def schedule_for_simulator(simulator):
    """The run's exact :class:`~repro.core.schedule.PhaseSchedule`, or None.

    The closed-form schedule holds inside a protocol envelope — every
    node the exact class the run's registered protocol declares, one
    shared config and one root, no fault injection, a connected graph.
    Protocols publish their round-boundary oracle via
    ``Protocol.schedule``; a protocol without one (or an unregistered
    node algorithm) simply runs without a total, reporting rounds
    instead of percentages.  (Unlike the bulk engine's probe this needs
    neither numpy nor L-float arithmetic: round boundaries depend only
    on topology and sources.)
    """
    from repro.core.node import BetweennessNode

    if simulator.faults is not None:
        return None
    protocol = getattr(simulator, "protocol", None)
    if protocol is not None and protocol.schedule is None:
        return None
    expected_class = (
        protocol.node_class if protocol is not None else BetweennessNode
    )
    nodes = simulator.nodes
    if len(nodes) < 2:
        return None
    config = None
    root = None
    roots = 0
    for node in nodes:
        if type(node) is not expected_class:
            return None
        if config is None:
            config = node.config
        elif node.config is not config:
            return None
        if node.tree.is_root:
            roots += 1
            root = node.node_id
    if roots != 1 or config is None:
        return None
    n = simulator.graph.num_nodes
    if config.sources is not None and any(
        not 0 <= s < n for s in config.sources
    ):
        return None
    if protocol is not None:
        oracle = protocol.schedule
    else:
        from repro.core.schedule import expected_phase_schedule

        oracle = expected_phase_schedule
    try:
        return oracle(
            simulator.graph,
            root=root,
            sources=config.sources,
            aggregate=config.aggregate,
        )
    except ReproError:
        return None


class ProgressEstimator:
    """Percent-complete and ETA from the closed-form phase schedule.

    Bind a schedule explicitly, or let :meth:`bind` probe the simulator
    at run start (the telemetry facade calls it from ``on_run_start``).
    Without a schedule the estimator still emits heartbeat rows — round
    and phase, no percentage.
    """

    def __init__(self, schedule=None, clock=time.perf_counter):
        self.schedule = schedule
        self._clock = clock
        self._started: Optional[float] = None
        self.current_round = 0
        self.finished = False
        self._phase: Optional[str] = None

    # ------------------------------------------------------------------
    def bind(self, simulator) -> None:
        """Called at run start: derive the schedule if worthwhile.

        Sweep, event and shard runs tick through
        :func:`repro.congest.kernel.drive_rounds` as their rounds run,
        and the schedule turns those ticks into percentages.  Deriving it is an O(N·E)
        pure-Python sweep that would tax exactly the engine chosen for
        speed, so bulk runs get none.  The bulk fast path has no round
        loop and skips straight to the terminal 100% row; a bulk run
        that replays its sends (a tracer, a frame audit or a send or
        round monitor) ticks through ``drive_rounds`` like sweep, with
        heartbeat rows that carry the round but no percentage.
        """
        if (
            self.schedule is None
            and getattr(simulator, "engine", None) != "bulk"
        ):
            self.schedule = schedule_for_simulator(simulator)
        self._started = self._clock()

    def suggest_interval(self) -> int:
        """Rounds between heartbeat rows (~100 per run when predictable)."""
        if self.schedule is None:
            return FALLBACK_TICK_INTERVAL
        return max(1, self.schedule.total_rounds // PROGRESS_ROWS_PER_RUN)

    def note_phase(self, name: str) -> None:
        self._phase = name

    # ------------------------------------------------------------------
    @property
    def fraction(self) -> Optional[float]:
        """Completed fraction in [0, 1], or None without a schedule."""
        if self.finished:
            return 1.0 if self.schedule is not None else None
        if self.schedule is None:
            return None
        return self.schedule.fraction(self.current_round)

    def eta_seconds(self) -> Optional[float]:
        """Predicted remaining wall time (None when unknowable yet)."""
        fraction = self.fraction
        if fraction is None or self._started is None or fraction <= 0.0:
            return None
        elapsed = self._clock() - self._started
        if fraction >= 1.0:
            return 0.0
        return elapsed * (1.0 - fraction) / fraction

    def row(self, round_number: int) -> Dict[str, Any]:
        """One ``progress`` heartbeat row for the stream."""
        self.current_round = round_number
        schedule = self.schedule
        row: Dict[str, Any] = {
            "event": "progress",
            "round": round_number,
        }
        if schedule is not None:
            row["rounds_total"] = schedule.total_rounds
            row["percent"] = round(100.0 * schedule.fraction(round_number), 2)
            row["phase"] = self._phase or schedule.phase_at(round_number)
            eta = self.eta_seconds()
            if eta is not None:
                row["eta_seconds"] = round(eta, 3)
        elif self._phase is not None:
            row["phase"] = self._phase
        return row

    def finish(self, total_rounds: int) -> Dict[str, Any]:
        """The terminal progress row; pins the estimate to 100%."""
        self.current_round = total_rounds
        self.finished = True
        row: Dict[str, Any] = {
            "event": "progress",
            "round": total_rounds,
            "final": True,
        }
        if self.schedule is not None:
            row["rounds_total"] = self.schedule.total_rounds
            row["percent"] = round(
                100.0 * self.schedule.fraction(total_rounds), 2
            )
            row["exact"] = total_rounds == self.schedule.total_rounds
        else:
            # No schedule (unpredictable run, or a bulk run that never
            # heartbeats) — the run ending IS 100%, just not "exact".
            row["percent"] = 100.0
        if self._phase is not None:
            row["phase"] = self._phase
        return row


def _format_eta(seconds: float) -> str:
    seconds = max(0, int(round(seconds)))
    minutes, secs = divmod(seconds, 60)
    if minutes >= 60:
        hours, minutes = divmod(minutes, 60)
        return "{}:{:02d}:{:02d}".format(hours, minutes, secs)
    return "{}:{:02d}".format(minutes, secs)


class ConsoleProgress:
    """Bus sink rendering ``progress`` rows as a live one-line display.

    Writes carriage-return-refreshed lines to ``stream`` (stderr by
    default, keeping stdout parseable) and a final newline when the run
    completes.  Non-progress rows are ignored.
    """

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr
        self._dirty = False

    def __call__(self, row: Dict[str, Any]) -> None:
        if row.get("event") != "progress":
            return
        parts = []
        percent = row.get("percent")
        if percent is not None:
            parts.append("{:6.2f}%".format(percent))
        phase = row.get("phase")
        if phase:
            parts.append(phase)
        total = row.get("rounds_total")
        if total is not None:
            parts.append("round {}/{}".format(row.get("round", 0), total))
        else:
            parts.append("round {}".format(row.get("round", 0)))
        eta = row.get("eta_seconds")
        if eta is not None and not row.get("final"):
            parts.append("eta {}".format(_format_eta(eta)))
        line = "  ".join(str(p) for p in parts)
        self.stream.write("\r" + line.ljust(64))
        if row.get("final"):
            self.stream.write("\n")
            self._dirty = False
        else:
            self._dirty = True
        self.stream.flush()

    def close(self) -> None:
        if self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False
