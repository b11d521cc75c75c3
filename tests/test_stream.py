"""Streaming telemetry: bus fan-out, live JSONL, progress estimation.

The contract under test (docs/observability.md, "Streaming"):

* streaming *observes*, never perturbs — a streamed run's outputs are
  bit-identical to a bare run's, and the live JSONL's core rows are
  exactly the rows :meth:`Telemetry.events` exports post-hoc;
* the :class:`~repro.obs.stream.ProgressEstimator` predicts from the
  closed-form phase schedule, so inside the stock envelope it reaches
  100% *exactly* at termination;
* telemetry-off keeps the zero-cost fast paths dark, and streaming
  flips only ``wants_ticks`` (never the per-send/per-round snapshots).
"""

import json

import pytest

from repro.cli import main
from repro.core import distributed_betweenness
from repro.core.config import ProtocolConfig
from repro.graphs import (
    balanced_tree,
    connected_erdos_renyi_graph,
    cycle_graph,
    path_graph,
)
from repro.obs import (
    BandwidthMonitor,
    BusSubscriber,
    ProgressEstimator,
    Telemetry,
    TelemetryBus,
    load_jsonl_rows,
    validate_rows,
)

ENGINES = ("sweep", "event")


def _fingerprint(result):
    return (
        sorted(result.betweenness.items()),
        result.diameter,
        result.rounds,
        result.stats.summary(),
    )


class TestBusFanout:
    @pytest.mark.parametrize("engine", ENGINES + ("auto",))
    def test_live_jsonl_matches_final_export(self, engine, tmp_path):
        """Core rows streamed live == rows exported after the run."""
        live = tmp_path / "live.jsonl"
        telemetry = Telemetry.with_streaming(
            jsonl_path=str(live), progress=True, console=False
        )
        distributed_betweenness(
            path_graph(16), engine=engine, telemetry=telemetry
        )
        telemetry.bus.close()
        streamed = [json.loads(line) for line in live.read_text().splitlines()]
        core = [row for row in streamed if row.get("event") != "progress"]
        assert core == telemetry.events()
        # Streaming-only rows ride on top and end with the pinned final.
        progress = [row for row in streamed if row.get("event") == "progress"]
        assert progress
        assert progress[-1]["final"] is True

    def test_subscriber_sees_every_row_in_order(self):
        telemetry = Telemetry.with_streaming(progress=True, console=False)
        subscriber = telemetry.bus.subscribe()
        distributed_betweenness(
            cycle_graph(12), engine="event", telemetry=telemetry
        )
        telemetry.bus.close()
        rows = subscriber.drain()
        assert subscriber.seen == telemetry.bus.published
        assert subscriber.dropped == 0
        core = [row for row in rows if row.get("event") != "progress"]
        assert core == telemetry.events()
        assert rows[0]["event"] == "meta"

    def test_ring_buffer_drops_oldest_under_pressure(self):
        bus = TelemetryBus()
        subscriber = bus.subscribe(capacity=4)
        for i in range(10):
            bus.publish({"event": "metric", "i": i})
        assert subscriber.seen == 10
        assert subscriber.dropped == 6
        kept = subscriber.peek()
        assert [row["i"] for row in kept] == [6, 7, 8, 9]
        # drain() consumes; a second drain is empty.
        assert subscriber.drain() == kept
        assert subscriber.drain() == []
        assert len(subscriber) == 0

    def test_standalone_subscriber_capacity(self):
        subscriber = BusSubscriber(capacity=2)
        for i in range(3):
            subscriber.push({"i": i})
        assert [row["i"] for row in subscriber.peek()] == [1, 2]

    @pytest.mark.parametrize("engine", ("event", "auto"))
    def test_streaming_never_perturbs_results(self, engine, tmp_path):
        graph = cycle_graph(24)
        bare = distributed_betweenness(graph, engine=engine)
        telemetry = Telemetry.with_streaming(
            jsonl_path=str(tmp_path / "s.jsonl"), progress=True, console=False
        )
        streamed = distributed_betweenness(
            graph, engine=engine, telemetry=telemetry
        )
        telemetry.bus.close()
        assert _fingerprint(streamed) == _fingerprint(bare)

    def test_streaming_off_keeps_fast_paths_dark(self):
        plain = Telemetry()
        assert plain.wants_ticks is False
        assert plain.wants_rounds is False
        assert plain.wants_sends is False
        streaming = Telemetry.with_streaming(progress=True, console=False)
        assert streaming.wants_ticks is True
        # Never flip the expensive hooks: that would force the bulk
        # engine off its closed-form no-replay path.
        assert streaming.wants_rounds is False
        assert streaming.wants_sends is False


class TestProgressEstimator:
    @pytest.mark.parametrize(
        "graph",
        [path_graph(20), cycle_graph(17), connected_erdos_renyi_graph(18, 0.2, seed=5)],
        ids=["path", "cycle", "er"],
    )
    @pytest.mark.parametrize("engine", ENGINES)
    def test_estimate_is_exact_at_termination(self, graph, engine):
        """The closed-form prediction lands on 100% at the final round."""
        telemetry = Telemetry.with_streaming(progress=True, console=False)
        subscriber = telemetry.bus.subscribe(capacity=100_000)
        result = distributed_betweenness(
            graph, engine=engine, telemetry=telemetry
        )
        telemetry.bus.close()
        progress = [
            row for row in subscriber.drain() if row.get("event") == "progress"
        ]
        final = progress[-1]
        assert final["final"] is True
        assert final["percent"] == 100.0
        assert final["exact"] is True
        assert final["round"] == result.rounds
        assert final["rounds_total"] == result.rounds
        percents = [row["percent"] for row in progress if "percent" in row]
        assert percents == sorted(percents)
        assert all(0.0 <= p <= 100.0 for p in percents)

    @pytest.mark.parametrize("aggregate", [True, False])
    def test_estimate_is_exact_when_the_token_walk_outlives_the_run(
        self, aggregate
    ):
        """With one source the DFS token is still walking when the last
        node finishes; the run stops mid-walk, and so must the schedule."""
        telemetry = Telemetry.with_streaming(progress=True, console=False)
        subscriber = telemetry.bus.subscribe(capacity=100_000)
        result = distributed_betweenness(
            balanced_tree(2, 3),
            engine="event",
            telemetry=telemetry,
            config=ProtocolConfig(sources=frozenset({0}), aggregate=aggregate),
        )
        telemetry.bus.close()
        final = [
            row for row in subscriber.drain() if row.get("event") == "progress"
        ][-1]
        assert final["exact"] is True
        assert final["rounds_total"] == result.rounds

    def test_bulk_pins_terminal_row_without_schedule(self):
        """Bulk has no round loop: one terminal 100% row, no derivation."""
        pytest.importorskip("numpy")
        telemetry = Telemetry.with_streaming(progress=True, console=False)
        subscriber = telemetry.bus.subscribe()
        result = distributed_betweenness(
            cycle_graph(16), engine="bulk", telemetry=telemetry
        )
        telemetry.bus.close()
        progress = [
            row for row in subscriber.drain() if row.get("event") == "progress"
        ]
        assert len(progress) == 1
        assert progress[0]["final"] is True
        assert progress[0]["percent"] == 100.0
        assert progress[0]["round"] == result.rounds
        # The schedule was never derived for the bulk run (it would be
        # pure overhead), so the row carries no exactness claim.
        assert "rounds_total" not in progress[0]

    def test_replaying_bulk_run_heartbeats_like_sweep(self):
        """A monitored bulk run replays under ``drive_rounds``, which
        publishes round heartbeats as it does for sweep; the bulk engine
        derives no schedule, so the rows carry no percentages."""
        pytest.importorskip("numpy")
        telemetry = Telemetry.with_streaming(
            progress=True, console=False, monitors=[BandwidthMonitor()]
        )
        subscriber = telemetry.bus.subscribe()
        result = distributed_betweenness(
            cycle_graph(16), engine="bulk", telemetry=telemetry
        )
        telemetry.bus.close()
        progress = [
            row for row in subscriber.drain() if row.get("event") == "progress"
        ]
        assert result.rounds == 142
        assert progress[:-1] == [
            {"event": "progress", "round": r} for r in (0, 64, 128)
        ]
        assert progress[-1]["final"] is True
        assert progress[-1]["percent"] == 100.0
        assert progress[-1]["round"] == result.rounds

    def test_unpredictable_run_reports_rounds_only(self):
        estimator = ProgressEstimator()
        row = estimator.row(10)
        assert row == {"event": "progress", "round": 10}
        assert estimator.fraction is None
        assert estimator.eta_seconds() is None
        final = estimator.finish(37)
        assert final["percent"] == 100.0
        assert "exact" not in final

    def test_eta_shrinks_with_progress(self):
        from repro.core.schedule import expected_phase_schedule

        ticks = iter(range(1, 100))
        estimator = ProgressEstimator(
            schedule=expected_phase_schedule(path_graph(10), root=0),
            clock=lambda: float(next(ticks)),
        )
        estimator._started = 0.0
        total = estimator.schedule.total_rounds
        early = estimator.row(max(1, total // 10))
        late = estimator.row(total - 1)
        assert early["eta_seconds"] > 0
        assert late["percent"] > early["percent"]


class TestStreamSchemaAndTornTail:
    def _streamed_rows(self, tmp_path):
        live = tmp_path / "run.jsonl"
        telemetry = Telemetry.with_streaming(
            jsonl_path=str(live), progress=True, console=False
        )
        distributed_betweenness(
            path_graph(12), engine="event", telemetry=telemetry
        )
        telemetry.bus.close()
        return live

    def test_streamed_jsonl_validates(self, tmp_path):
        live = self._streamed_rows(tmp_path)
        rows, warnings = load_jsonl_rows(str(live))
        assert not warnings
        assert validate_rows(rows, stream=True) == []
        # Progress heartbeats are stream-only: the strict (post-hoc)
        # vocabulary rejects them.
        assert validate_rows(rows) != []

    def test_torn_tail_is_skipped_with_warning(self, tmp_path):
        live = self._streamed_rows(tmp_path)
        text = live.read_text()
        complete = text.splitlines()[:-1]
        live.write_text("\n".join(complete) + '\n{"event": "metr')
        rows, warnings = load_jsonl_rows(str(live), allow_partial=True)
        assert len(rows) == len(complete)
        assert len(warnings) == 1
        assert "torn" in warnings[0] or "partial" in warnings[0]

    def test_validator_script_accepts_stream_log(self, tmp_path, capsys):
        import sys

        sys.path.insert(0, "scripts")
        try:
            import validate_telemetry
        finally:
            sys.path.pop(0)
        live = self._streamed_rows(tmp_path)
        assert validate_telemetry.main(["--stream", str(live)]) == 0
        assert "OK" in capsys.readouterr().out
        # Strict mode rejects the same file (progress rows).
        assert validate_telemetry.main([str(live)]) == 1


class TestCliStreaming:
    def run(self, *argv):
        return main(list(argv))

    def test_report_stream_jsonl_and_from_roundtrip(self, tmp_path, capsys):
        live = tmp_path / "run.jsonl"
        assert self.run(
            "report", "--graph", "path:10", "--stream-jsonl", str(live)
        ) == 0
        first = capsys.readouterr().out
        assert "engine: requested=" in first
        assert self.run("report", "--from", str(live)) == 0
        replay = capsys.readouterr().out
        assert "phase" in replay

    def test_report_from_tolerates_torn_tail(self, tmp_path, capsys):
        """Satellite: a crashed run's log still renders, with a warning."""
        live = tmp_path / "run.jsonl"
        assert self.run(
            "report", "--graph", "path:10", "--stream-jsonl", str(live)
        ) == 0
        capsys.readouterr()
        live.write_text(live.read_text() + '{"event": "monitor", "na')
        assert self.run("report", "--from", str(live)) == 0
        captured = capsys.readouterr()
        assert "torn" in captured.err or "partial" in captured.err

    def test_report_from_flags_incomplete_run(self, tmp_path, capsys):
        live = tmp_path / "run.jsonl"
        assert self.run(
            "report", "--graph", "path:10", "--stream-jsonl", str(live)
        ) == 0
        capsys.readouterr()
        rows = [json.loads(line) for line in live.read_text().splitlines()]
        head = [
            row for row in rows
            if row.get("event") in ("meta", "phase", "progress")
        ]
        live.write_text("\n".join(json.dumps(row) for row in head) + "\n")
        assert self.run("report", "--from", str(live)) == 0
        assert "INCOMPLETE" in capsys.readouterr().out

    def test_watch_renders_completed_log(self, tmp_path, capsys):
        live = tmp_path / "run.jsonl"
        assert self.run(
            "report", "--graph", "cycle:8", "--stream-jsonl", str(live)
        ) == 0
        capsys.readouterr()
        assert self.run("watch", str(live), "--no-follow") == 0
        out = capsys.readouterr().out
        assert "cycle-8" in out

    def test_chrome_trace_export(self, tmp_path, capsys):
        live = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.trace.json"
        assert self.run(
            "report", "--graph", "path:8",
            "--stream-jsonl", str(live), "--chrome-trace", str(chrome),
        ) == 0
        payload = json.loads(chrome.read_text())
        events = payload["traceEvents"]
        assert any(event["ph"] == "X" for event in events)
        assert any(event["ph"] == "M" for event in events)

    def test_run_many_stream_dir(self, tmp_path):
        from repro.analysis import run_many
        from repro.graphs import path_graph as build

        run_many(
            [build(6), build(8)],
            family="path",
            engine="event",
            stream_dir=str(tmp_path / "streams"),
        )
        streams = sorted((tmp_path / "streams").glob("*.jsonl"))
        assert len(streams) == 2
        for stream in streams:
            rows, warnings = load_jsonl_rows(str(stream))
            assert not warnings
            assert rows[0]["event"] == "meta"
            assert validate_rows(rows, stream=True) == []
