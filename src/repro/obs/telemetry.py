"""The telemetry facade: one object wiring a run's observability.

A :class:`Telemetry` instance bundles the four observability concerns —
a :class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.spans.PhaseTracker`, a list of
:class:`~repro.obs.monitors.Monitor` instances, and an optional
:class:`~repro.obs.profiler.Profiler` — behind the narrow hook surface
the simulator and pipeline drive:

* the **simulator** calls :meth:`on_run_start`, :meth:`on_send` (only
  if a monitor wants sends), :meth:`on_round_end` (with the round's
  per-edge accounting) and :meth:`on_run_end`;
* the **protocol** (the root :class:`~repro.core.node.BetweennessNode`)
  calls :meth:`phase_begin` / :meth:`phase_end` at protocol-state
  transitions;
* the **pipeline** calls :meth:`finalize_run` with the collected
  result so post-run monitors (the Theorem 1 error check) can judge.

One instance observes one run — build a fresh one per run.  Everything
is duck-typed from the caller's side: neither the simulator nor the
pipeline imports this module, so ``telemetry=None`` (the default
everywhere) costs a handful of identity checks per run.

Export: :meth:`events` yields structured rows (one header, then one
row per phase span, metric, monitor verdict and profile section);
:meth:`write_jsonl` streams them as JSON Lines for external tooling.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.monitors import Monitor, MonitorVerdict, default_monitors
from repro.obs.profiler import Profiler
from repro.obs.spans import PhaseTracker

#: Schema marker stamped on the JSONL header row.
METRICS_SCHEMA = "repro-metrics-v1"


class Telemetry:
    """Per-run observability bundle (see the module docstring).

    Parameters
    ----------
    monitors:
        Invariant monitors to drive; empty by default.  Use
        :meth:`with_monitors` for the standard Lemma 4 / bandwidth /
        Theorem 1 trio.
    profile:
        Attach a :class:`Profiler`; the simulator then times its hot
        sections (delivery, node stepping) and counts engine events.
    registry:
        Share an existing :class:`MetricsRegistry` instead of creating
        a fresh one.
    bus:
        Optional :class:`~repro.obs.stream.TelemetryBus` (duck-typed).
        When given, the facade *streams*: the meta row at run start,
        each phase row the moment its span closes, throttled
        ``progress`` heartbeats from the per-round tick hook, and the
        metric/monitor/profile rows at :meth:`finalize_run` — so a live
        subscriber sees exactly the :meth:`events` rows (plus the
        heartbeats), incrementally.
    progress:
        Optional :class:`~repro.obs.stream.ProgressEstimator`
        (duck-typed).  Bound to the simulator at run start; drives the
        percent/ETA fields of the streamed ``progress`` rows.

    Streaming deliberately does **not** change :attr:`wants_sends` /
    :attr:`wants_rounds` (those stay tied to monitors), so attaching a
    bus never pushes the bulk engine off its closed-form fast path.
    """

    def __init__(
        self,
        monitors: Optional[List[Monitor]] = None,
        profile: bool = False,
        registry: Optional[MetricsRegistry] = None,
        bus=None,
        progress=None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.phases = PhaseTracker()
        self.monitors: List[Monitor] = list(monitors or ())
        self.profiler: Optional[Profiler] = Profiler() if profile else None
        base_send = Monitor.on_send
        base_round = Monitor.on_round_end
        self._send_monitors: Tuple[Monitor, ...] = tuple(
            m for m in self.monitors if type(m).on_send is not base_send
        )
        self._round_monitors: Tuple[Monitor, ...] = tuple(
            m for m in self.monitors if type(m).on_round_end is not base_round
        )
        self._meta: Dict[str, Any] = {}
        self._wall_start: Optional[float] = None
        self._started_epoch: Optional[float] = None
        self.bus = bus
        self.progress = progress
        self._spans_published = 0
        self._tick_interval = 64
        self._next_tick_round = 0
        self._stream_finalized = False

    @classmethod
    def with_monitors(cls, mode: str = "record", profile: bool = False) -> "Telemetry":
        """A telemetry bundle carrying the standard monitor trio."""
        return cls(monitors=default_monitors(mode), profile=profile)

    @classmethod
    def with_streaming(
        cls,
        jsonl_path=None,
        progress: bool = True,
        console=None,
        monitors: Optional[List[Monitor]] = None,
        profile: bool = False,
    ) -> "Telemetry":
        """A telemetry bundle wired for live streaming.

        Builds a fresh :class:`~repro.obs.stream.TelemetryBus`, attaches
        a flushed JSONL writer when ``jsonl_path`` is given and a
        :class:`~repro.obs.stream.ConsoleProgress` renderer when
        ``console`` is truthy (a stream object, or ``True`` for stderr),
        and binds a :class:`~repro.obs.stream.ProgressEstimator` unless
        ``progress`` is False.
        """
        from repro.obs.stream import (
            ConsoleProgress,
            ProgressEstimator,
            TelemetryBus,
        )

        bus = TelemetryBus()
        if jsonl_path is not None:
            bus.attach_jsonl(jsonl_path)
        if console:
            bus.attach_sink(
                ConsoleProgress(None if console is True else console)
            )
        estimator = ProgressEstimator() if progress else None
        return cls(
            monitors=monitors, profile=profile, bus=bus, progress=estimator
        )

    # ------------------------------------------------------------------
    # simulator hooks
    # ------------------------------------------------------------------
    @property
    def wants_sends(self) -> bool:
        """Whether the simulator should call :meth:`on_send` per message."""
        return bool(self._send_monitors)

    @property
    def wants_rounds(self) -> bool:
        """Whether any monitor needs the per-round edge-load snapshots.

        The bulk engine consults this: when no round monitor is attached
        it skips the per-round replay entirely and reduces its send
        tables with array ops.
        """
        return bool(self._round_monitors)

    @property
    def wants_ticks(self) -> bool:
        """Whether the engines should call :meth:`on_round_tick` per round.

        True only when a bus or progress estimator is attached, so the
        plain (non-streaming) telemetry keeps the round loops untouched.
        """
        return self.bus is not None or self.progress is not None

    def on_run_start(self, simulator) -> None:
        """Bind per-run constants; called by :meth:`Simulator.run`."""
        self._wall_start = time.perf_counter()
        self._started_epoch = time.time()
        graph = simulator.graph
        self._meta = {
            "graph": graph.name,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "engine": simulator.engine,
            "strict": simulator.strict,
            "bit_budget": simulator.bit_budget,
        }
        # Which registered protocol the run executes (None for
        # unregistered custom node algorithms): runs of rival protocols
        # must never be comparable rows in exported metrics.
        protocol = getattr(simulator, "protocol", None)
        if protocol is not None:
            self._meta["protocol"] = protocol.name
        # The dispatcher's decision (requested engine, probe reason)
        # rides along so exported runs explain *why* this engine ran.
        requested = getattr(simulator, "engine_requested", None)
        if requested is not None:
            self._meta["engine_requested"] = requested
        decision = getattr(simulator, "engine_decision", None)
        if decision is not None:
            self._meta["engine_reason"] = decision.reason
        gauge = self.registry.gauge
        gauge("run.num_nodes").set(graph.num_nodes)
        gauge("run.num_edges").set(graph.num_edges)
        gauge("run.bit_budget").set(simulator.bit_budget)
        for monitor in self.monitors:
            monitor.on_run_start(simulator)
        progress = self.progress
        if progress is not None:
            progress.bind(simulator)
            self._tick_interval = progress.suggest_interval()
        self._next_tick_round = 0
        if self.bus is not None:
            self.bus.publish(self._meta_row())

    def on_send(
        self,
        round_number: int,
        sender: int,
        receiver: int,
        message: Any,
        bits: int,
    ) -> None:
        for monitor in self._send_monitors:
            monitor.on_send(round_number, sender, receiver, message, bits)

    def on_round_end(
        self,
        round_number: int,
        edge_load: Dict[Tuple[int, int], List[int]],
    ) -> None:
        for monitor in self._round_monitors:
            monitor.on_round_end(round_number, edge_load)

    def on_round_tick(self, round_number: int) -> None:
        """Lightweight per-round streaming hook (sweep/event engines).

        Only called when :attr:`wants_ticks` is True.  Updates the
        progress estimator and publishes a throttled ``progress``
        heartbeat row; the throttle interval is derived from the
        schedule (~100 rows per run) so streaming cost stays flat in N.
        """
        progress = self.progress
        if progress is not None:
            progress.current_round = round_number
        if round_number < self._next_tick_round:
            return
        self._next_tick_round = round_number + self._tick_interval
        if self.bus is not None:
            if progress is not None:
                row = progress.row(round_number)
            else:
                row = {"event": "progress", "round": round_number}
            self.bus.publish(row)

    def on_run_end(self, stats) -> None:
        """Close open spans and record the run's aggregate statistics."""
        self.phases.end(stats.rounds)
        self._publish_closed_spans()
        progress = self.progress
        if progress is not None:
            final_row = progress.finish(stats.rounds)
            if self.bus is not None:
                self.bus.publish(final_row)
        gauge = self.registry.gauge
        gauge("run.rounds").set(stats.rounds)
        gauge("run.messages").set(stats.message_count)
        gauge("run.bits").set(stats.bit_count)
        gauge("run.max_edge_bits_per_round").set(stats.max_edge_bits_per_round)
        if self._wall_start is not None:
            gauge("run.wall_seconds").set(
                time.perf_counter() - self._wall_start
            )
        faults = getattr(stats, "faults", None)
        if faults is not None:
            # A faulted run (Simulator faults=...) hangs its FaultStats
            # off the simulation stats; surface every injection counter
            # as a gauge so exported metrics carry the chaos profile.
            for name, value in faults.as_dict().items():
                gauge("faults.{}".format(name)).set(value)
        shard = getattr(stats, "shard", None)
        if shard is not None:
            # Sharded runs split the exact totals by process boundary:
            # cross-shard bits/messages are a view of the same billed
            # traffic (run.bits is unchanged), and per-shard ledger
            # words document the memory the partition keeps off any
            # single process.
            gauge("shard.workers").set(shard["workers"])
            gauge("shard.edge_cut").set(shard["edge_cut"])
            gauge("shard.cross_messages").set(shard["cross_messages"])
            gauge("shard.cross_bits").set(shard["cross_bits"])
            for entry in shard["per_shard"]:
                prefix = "shard.{}".format(entry["shard"])
                gauge("{}.nodes".format(prefix)).set(entry["nodes"])
                gauge("{}.ledger_words".format(prefix)).set(
                    entry["ledger_words"]
                )
        supervisor = getattr(stats, "supervisor", None)
        if supervisor is not None:
            # Supervised runs surface their recovery story: restarts and
            # hang detections count infrastructure events (never protocol
            # traffic — run.bits is identical with or without them), and
            # the checkpoint figures price the durability overhead.
            gauge("supervisor.restarts").set(supervisor["restarts"])
            gauge("supervisor.hang_detections").set(
                supervisor["hang_detections"]
            )
            gauge("supervisor.rollbacks").set(supervisor["rollbacks"])
            gauge("supervisor.checkpoints_written").set(
                supervisor["checkpoints_written"]
            )
            gauge("supervisor.checkpoint_bytes").set(
                supervisor["checkpoint_bytes"]
            )
            gauge("supervisor.checkpoint_seconds").set(
                supervisor["checkpoint_seconds"]
            )
            gauge("supervisor.shards_abandoned").set(
                len(supervisor["shards_abandoned"])
            )
            if supervisor["resumed_from"] is not None:
                gauge("supervisor.resumed_from").set(
                    supervisor["resumed_from"]
                )

    # ------------------------------------------------------------------
    # protocol hooks
    # ------------------------------------------------------------------
    def phase_begin(self, name: str, round_number: int) -> None:
        """Mark a protocol phase boundary (see :class:`PhaseTracker`)."""
        self.phases.begin(name, round_number)
        if self.progress is not None:
            self.progress.note_phase(name)
        self._publish_closed_spans()

    def phase_end(self, round_number: int) -> None:
        """Close the open phase; idempotent once closed."""
        self.phases.end(round_number)
        self._publish_closed_spans()

    def _publish_closed_spans(self) -> None:
        """Stream phase rows the moment their spans close.

        Spans close in order and never reopen, so a cursor suffices;
        the published rows are byte-identical to the :meth:`events`
        phase rows of the finished run.
        """
        if self.bus is None:
            return
        spans = self.phases.spans()
        cursor = self._spans_published
        while cursor < len(spans) and spans[cursor].end_round is not None:
            self.bus.publish(dict(event="phase", **spans[cursor].as_dict()))
            cursor += 1
        self._spans_published = cursor

    # ------------------------------------------------------------------
    # pipeline hooks
    # ------------------------------------------------------------------
    def finalize_run(self, result) -> None:
        """Run post-run monitors against the collected pipeline result."""
        diameter = getattr(result, "diameter", None)
        if diameter is not None:
            self.registry.gauge("run.diameter").set(diameter)
        nodes = getattr(result, "nodes", None)
        if nodes:
            # Network-wide ledger footprint (the state the protocol
            # accumulated): the measurable form of the array-ledger
            # refactor's memory claim, and the ``repro report`` memory
            # line.  Summing storage_summary() is O(N) — the summaries
            # are O(1) off the column lengths.
            from repro.core.records import ledger_storage_totals

            ledgers = (
                node.ledger for node in nodes if hasattr(node, "ledger")
            )
            totals = ledger_storage_totals(ledgers)
            gauge = self.registry.gauge
            gauge("ledger.records").set(totals["records"])
            gauge("ledger.pred_links").set(totals["pred_links"])
            gauge("ledger.words").set(totals["words"])
        for monitor in self.monitors:
            monitor.finalize(result)
        self.flush_stream()

    def flush_stream(self) -> None:
        """Publish the final metric/monitor/profile rows to the bus, once.

        Called by :meth:`finalize_run` (the pipeline invokes that after
        every run); bare-:class:`Simulator` users streaming to a bus
        should call it themselves after ``run()``.  Idempotent.
        """
        if self.bus is None or self._stream_finalized:
            return
        self._stream_finalized = True
        self._publish_closed_spans()
        publish = self.bus.publish
        for name, snapshot in sorted(self.registry.snapshot().items()):
            publish(dict(event="metric", name=name, **snapshot))
        for verdict in self.verdicts():
            publish(dict(event="monitor", **verdict.as_dict()))
        if self.profiler is not None:
            for section, numbers in sorted(self.profiler.summary().items()):
                publish(dict(event="profile", section=section, **numbers))

    # ------------------------------------------------------------------
    # verdicts and export
    # ------------------------------------------------------------------
    def verdicts(self) -> List[MonitorVerdict]:
        return [monitor.verdict() for monitor in self.monitors]

    def all_ok(self) -> bool:
        """True when no monitor recorded a violation (skips count as ok)."""
        return all(v.ok for v in self.verdicts())

    def _meta_row(self) -> Dict[str, Any]:
        return dict(
            event="meta",
            schema=METRICS_SCHEMA,
            started_epoch=self._started_epoch,
            **self._meta,
        )

    def events(self) -> List[Dict[str, Any]]:
        """Structured export rows: header, phases, metrics, verdicts."""
        rows: List[Dict[str, Any]] = [self._meta_row()]
        for span in self.phases.spans():
            rows.append(dict(event="phase", **span.as_dict()))
        for name, snapshot in sorted(self.registry.snapshot().items()):
            rows.append(dict(event="metric", name=name, **snapshot))
        for verdict in self.verdicts():
            rows.append(dict(event="monitor", **verdict.as_dict()))
        if self.profiler is not None:
            for section, numbers in sorted(self.profiler.summary().items()):
                rows.append(dict(event="profile", section=section, **numbers))
        return rows

    def to_jsonl(self) -> str:
        """The :meth:`events` rows as JSON Lines text."""
        return "\n".join(json.dumps(row) for row in self.events()) + "\n"

    def write_jsonl(self, path) -> None:
        """Stream the export rows to ``path`` as JSON Lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    def __repr__(self) -> str:
        return "Telemetry(phases={}, monitors={}, metrics={}, profile={})".format(
            len(self.phases),
            len(self.monitors),
            len(self.registry),
            self.profiler is not None,
        )
