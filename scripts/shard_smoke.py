"""Sharded-runtime smoke gate.

Runs a reduced version of ``benchmarks/bench_shard.py`` — the identity
matrix at one small size with 2 and 4 workers plus the per-shard
ledger-split check — writes the same ``BENCH_shard.json`` artifact at
the repo root, appends it to the run-history ledger, and exits non-zero
if

* any sharded run disagrees with the event engine on any output
  (betweenness, rounds, billed bits, messages, per-round series,
  worst edge), or
* cross-shard traffic is not a strict subset of the billed totals, or
* any shard holds the entire ledger (the memory split did not happen).

Wall-clock is reported but never gated: this script must pass on a
single-core CI runner, where a multi-process runtime cannot beat the
single-process engine (see the ``timing_note`` in the payload).

Usage::

    python scripts/shard_smoke.py          # ~1 min on a 1-core container

The full benchmark (more sizes, both protocols, the N = 2000 memory
run) lives in ``benchmarks/bench_shard.py``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from benchmarks.bench_shard import (  # noqa: E402
    _print_rows,
    measure,
    measure_memory_split,
    write_json,
)

SIZES = (100,)
WORKER_COUNTS = (2, 4)
MEMORY_N = 400


def main() -> int:
    rows = measure(sizes=SIZES, worker_counts=WORKER_COUNTS)
    memory = measure_memory_split(n=MEMORY_N)
    payload = write_json(rows, memory=memory)
    _print_rows(rows, "shard smoke (W in {})".format(WORKER_COUNTS))
    print("wrote {}".format(ROOT / "BENCH_shard.json"))

    from repro.obs.history import (
        DEFAULT_HISTORY_PATH,
        HistoryLedger,
        git_revision,
    )

    ledger = HistoryLedger(ROOT / DEFAULT_HISTORY_PATH)
    rev = git_revision(str(ROOT))
    recorded = ledger.ingest(payload, git_rev=rev)
    print(
        "ledger: {} entries appended to {} (rev {})".format(
            recorded, ledger.path, rev or "unknown"
        )
    )

    failures = []
    for row in rows:
        label = "{family}-{n}/{protocol} W={workers}".format(**row)
        if not row["identical_results"]:
            failures.append(label + ": sharded run differs from event")
        if not 0 < row["cross_bits"] < row["bits"]:
            failures.append(
                label + ": cross-shard bits {} outside (0, {})".format(
                    row["cross_bits"], row["bits"]
                )
            )
        if row["max_shard_ledger_words"] >= row["total_ledger_words"]:
            failures.append(label + ": ledger did not split across shards")
    if memory["max_shard_fraction"] >= 0.5:
        failures.append(
            "memory split: one shard holds {:.0%} of the ledger".format(
                memory["max_shard_fraction"]
            )
        )
    if failures:
        for line in failures:
            print("FAIL: " + line, file=sys.stderr)
        return 1
    print(
        "OK: {} sharded runs bit-identical to event; max shard holds "
        "{:.0%} of the N={} ledger".format(
            len(rows), memory["max_shard_fraction"], memory["n"]
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
