"""Observability for the CONGEST reproduction: metrics, phases, monitors.

The :mod:`repro.obs` package is strictly *downstream* of the simulator
and protocol packages: it imports :mod:`repro.core` and
:mod:`repro.congest` types where needed, but nothing in those packages
imports ``repro.obs`` — telemetry reaches them only as a duck-typed
``telemetry=None`` parameter, so the core stays importable (and fast)
without this package in the picture.

Entry point: build a :class:`Telemetry` (usually via
:meth:`Telemetry.with_monitors`, or :meth:`Telemetry.with_streaming`
for live output) and pass it to
:func:`repro.core.pipeline.distributed_betweenness` or a
:class:`repro.congest.simulator.Simulator`.

Beyond the per-run facade, the package hosts the observability *suite*:
the streaming bus (:mod:`repro.obs.stream`), the schema validator and
partial-log reader (:mod:`repro.obs.schema`), the run-history ledger
and regression gates (:mod:`repro.obs.history`), trace-diff forensics
(:mod:`repro.obs.tracediff`) and the Chrome trace-event exporter
(:mod:`repro.obs.chrometrace`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    ".monitors": (
        "Monitor",
        "MonitorVerdict",
        "AggregationCollisionMonitor",
        "BandwidthMonitor",
        "LFloatErrorMonitor",
        "SelfHealingMonitor",
        "WireExactnessMonitor",
        "default_monitors",
    ),
    ".profiler": ("Profiler",),
    ".spans": ("PhaseSpan", "PhaseTracker"),
    ".telemetry": ("Telemetry", "METRICS_SCHEMA"),
    # streaming bus
    ".stream": (
        "TelemetryBus",
        "BusSubscriber",
        "JsonlStreamWriter",
        "ProgressEstimator",
        "ConsoleProgress",
        "schedule_for_simulator",
    ),
    # schema / partial logs
    ".schema": ("load_jsonl_rows", "validate_rows", "validate_jsonl_text"),
    # run history + regression gates
    ".history": (
        "HistoryLedger",
        "RegressionGates",
        "Violation",
        "compare_payloads",
        "entry_from_result",
        "entry_from_rows",
        "git_revision",
        "graph_fingerprint",
        "run_key",
    ),
    # forensics
    ".tracediff": (
        "Divergence",
        "first_divergence",
        "round_frame_diff",
        "diff_report",
    ),
    ".chrometrace": ("chrome_trace", "write_chrome_trace"),
})
