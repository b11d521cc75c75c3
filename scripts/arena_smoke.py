"""Quick protocol-arena smoke gate.

Runs a reduced version of ``benchmarks/bench_arena.py`` — every
registered protocol over a small family × size grid on the event
engine — writes the same ``BENCH_arena.json`` artifact at the repo
root, ingests it into the run-history ledger, and exits non-zero if

* any protocol's output falls outside the Theorem 1 relative-error
  envelope against exact Brandes, or
* any two protocols disagree on a structural total (rounds, billed
  bits, messages) for the same instance — the league table's headline
  finding is that the rival accumulation schedule changes *when*
  traffic flows, never *how much*.

Usage::

    python scripts/arena_smoke.py          # ~15 s on a 1-core container

The full benchmark (larger sizes, pytest-benchmark integration) lives
in ``benchmarks/bench_arena.py``; this script exists so CI and humans
can get a pass/fail answer without the pytest machinery.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from benchmarks.bench_arena import (  # noqa: E402
    identical_totals,
    measure_arena,
    print_league_table,
    write_json,
)

SIZES = (24, 48)
REPS = 1


def main() -> int:
    rows = measure_arena(sizes=SIZES, reps=REPS)
    payload = write_json(rows)
    print_league_table(rows, "protocol arena smoke ({} reps)".format(REPS))
    print("wrote {}".format(ROOT / "BENCH_arena.json"))

    from repro.obs.history import (
        DEFAULT_HISTORY_PATH,
        HistoryLedger,
        git_revision,
    )

    ledger = HistoryLedger(ROOT / DEFAULT_HISTORY_PATH)
    recorded = ledger.ingest(payload, git_rev=git_revision(str(ROOT)))
    print("ledger: {} entries appended to {}".format(recorded, ledger.path))

    failures = []
    for row in rows:
        if not row["matches_brandes"]:
            failures.append(
                "{protocol} on {family}-{n}: max relative error "
                "{max_rel_error:.3e} exceeds the Theorem 1 envelope "
                "{theorem1_envelope:.3e}".format(**row)
            )
    if not identical_totals(rows):
        failures.append(
            "protocols disagree on structural totals for at least one "
            "instance (see the table above)"
        )
    if failures:
        for line in failures:
            print("FAIL: " + line, file=sys.stderr)
        return 1
    print(
        "OK: {} protocols x {} instances all inside the Theorem 1 "
        "envelope, structural totals identical".format(
            len(payload["protocols"]),
            len(rows) // max(1, len(payload["protocols"])),
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
