"""Quick engine-comparison smoke gate.

Runs a reduced version of ``benchmarks/bench_engine.py`` (one small size
plus N = 400, the regime the vectorized-engine acceptance gate cares
about), writes the same ``BENCH_engine.json`` artifact at the repo root,
and exits non-zero if either

* any engine disagrees with the sweep on any output (results, rounds,
  statistics, per-round series), or
* the event engine is *slower* than the sweep at any N >= 200 instance,
  or
* the bulk engine is below 5x over the sweep at any N >= 400 instance
  (the full benchmark reports 10-15x; 5x is the noise-proof floor).

Without numpy the bulk engine is skipped (the dispatcher would refuse
it) and only the sweep/event gates run.

Usage::

    python scripts/bench_smoke.py          # ~1 min on a 1-core container

The full benchmark (more sizes, N = 800, the stats-scaling microbench,
pytest-benchmark integration) lives in ``benchmarks/bench_engine.py``;
this script exists so CI and humans can get a pass/fail answer without
pulling in the pytest machinery.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from benchmarks.bench_engine import measure, write_json, _print_rows  # noqa: E402
from benchmarks.bench_faults import (  # noqa: E402
    measure_disabled_overhead,
    measure_recovery_overhead,
    print_report as print_faults_report,
    write_json as write_faults_json,
)

SIZES = (64, 400)
REPS = 2


def main() -> int:
    from repro.engines import numpy_available

    engines = ("sweep", "event", "bulk") if numpy_available() else ("sweep", "event")
    rows = measure(sizes=SIZES, reps=REPS, engines=engines)
    write_json(rows)
    _print_rows(rows, "engine smoke (best of {} interleaved reps)".format(REPS))
    print("wrote {}".format(ROOT / "BENCH_engine.json"))

    # Fault-layer gate: disabled path identical, recovery exact.
    disabled = measure_disabled_overhead(n=64, reps=REPS)
    recovery = measure_recovery_overhead(drop_rates=(0.0, 0.05))
    faults_payload = write_faults_json(disabled, recovery)
    print()
    print_faults_report(disabled, recovery)
    print("wrote {}".format(ROOT / "BENCH_faults.json"))

    # Record both payloads in the append-only run-history ledger so
    # ``repro bench compare --ledger`` and future sessions can gate
    # against this machine's trajectory, keyed by git revision.
    import json

    from repro.obs.history import DEFAULT_HISTORY_PATH, HistoryLedger, git_revision

    ledger = HistoryLedger(ROOT / DEFAULT_HISTORY_PATH)
    rev = git_revision(str(ROOT))
    engine_payload = json.loads((ROOT / "BENCH_engine.json").read_text())
    recorded = ledger.ingest(engine_payload, git_rev=rev)
    recorded += ledger.ingest(faults_payload, git_rev=rev)
    print(
        "ledger: {} entries appended to {} (rev {})".format(
            recorded, ledger.path, rev or "unknown"
        )
    )

    failures = []
    for row in rows:
        if not row["identical_results"]:
            failures.append(
                "{family}-{n}: engines disagree on outputs".format(**row)
            )
        if row["n"] >= 200 and row["event_speedup"] <= 1.0:
            failures.append(
                "{family}-{n}: event engine slower than sweep "
                "({event_seconds}s vs {sweep_seconds}s)".format(**row)
            )
        if row["n"] >= 400 and row.get("bulk_speedup", 10.0) < 5.0:
            failures.append(
                "{family}-{n}: bulk engine below 5x over sweep "
                "({bulk_seconds}s vs {sweep_seconds}s)".format(**row)
            )
    if not disabled["identical_results"]:
        failures.append(
            "fault layer: faults=None run differs from the bare call"
        )
    for row in recovery["rows"]:
        if not row["recovered_exactly"]:
            failures.append(
                "fault layer: drop rate {} did not recover exactly".format(
                    row["drop_rate"]
                )
            )
    if failures:
        for line in failures:
            print("FAIL: " + line, file=sys.stderr)
        return 1
    big = min(row["event_speedup"] for row in rows if row["n"] >= 200)
    line = "OK: outputs identical; event >= sweep at N >= 200 " \
        "(min speedup {:.2f}x)".format(big)
    bulk = [row["bulk_speedup"] for row in rows
            if row["n"] >= 400 and "bulk_speedup" in row]
    if bulk:
        line += "; bulk {:.1f}x over sweep at N >= 400".format(min(bulk))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
