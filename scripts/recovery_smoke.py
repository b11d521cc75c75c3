"""Recovery smoke gate: checkpoint, SIGKILL, resume, bit-identity.

Two layers, both of which must pass on a single-core CI runner:

1. **Process-level kill/resume** — for each protocol, launch
   ``repro bc --engine shard`` as a subprocess with checkpointing
   enabled, SIGKILL the whole process group mid-run (after the first
   snapshot lands), then ``repro resume <dir> --check`` and demand
   exit 0: the resumed run must be bit-identical to a fresh
   uninterrupted run (betweenness, rounds, bits, messages).
2. **Shared checkpoint root** — two ``repro bc --engine shard`` runs
   that differ only in ``--arithmetic`` checkpoint into one fresh
   root and must land in two run directories: the run key covers every
   setting that changes the run, so neither run can restore the
   other's snapshots.
3. **In-process matrix** — a reduced ``benchmarks/bench_recovery.py``
   (resume identity + hang respawn + the N = 400 overhead row), written
   to ``BENCH_recovery.json`` at the repo root and appended to the
   run-history ledger, for ``repro bench compare`` gating.

Wall-clock figures are recorded but only identity/restart counts fail
this script: the overhead ceiling is a *soft* gate enforced by
``repro bench compare`` (and skipped entirely under ``--no-wall``).

Usage::

    python scripts/recovery_smoke.py       # ~2-3 min on a 1-core container
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from benchmarks.bench_recovery import (  # noqa: E402
    _print_rows,
    measure_overhead,
    measure_respawn,
    measure_resume,
    write_json,
)

KILL_GRAPH = "cycle:48"
KILL_PROTOCOLS = ("hua-bc", "cfp-bc")


def _cli(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro"] + args,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,
        **kwargs,
    )


def kill_and_resume(protocol):
    """SIGKILL a checkpointing run mid-flight, resume it, check exit 0."""
    ckpt_root = tempfile.mkdtemp(prefix="recovery-smoke-")
    proc = _cli([
        "bc", "--graph", KILL_GRAPH, "--engine", "shard",
        "--workers", "3", "--protocol", protocol,
        "--checkpoint-every", "10", "--checkpoint-dir", ckpt_root,
    ])
    # Wait for the first durable snapshot (manifest.json is written
    # last, atomically — its presence proves a complete checkpoint).
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if list(Path(ckpt_root).glob("*/ckpt-*/manifest.json")):
            break
        if proc.poll() is not None:
            out = proc.stdout.read().decode(errors="replace")
            return "run exited (rc {}) before its first checkpoint:\n{}".format(
                proc.returncode, out
            )
        time.sleep(0.05)
    else:
        proc.kill()
        return "no checkpoint appeared within 120s"
    # Kill the whole process group: coordinator and workers die together,
    # exactly like a machine loss.
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    resume = _cli(["resume", ckpt_root, "--check"])
    out, _ = resume.communicate(timeout=600)
    if resume.returncode != 0:
        return "resume --check exited {} for {}:\n{}".format(
            resume.returncode, protocol, out.decode(errors="replace")
        )
    return None


def shared_root():
    """Two runs differing only in arithmetic, one checkpoint root: each
    must get its own run directory."""
    with tempfile.TemporaryDirectory(prefix="recovery-smoke-") as ckpt_root:
        for extra in ([], ["--arithmetic", "exact"]):
            run = _cli([
                "bc", "--graph", KILL_GRAPH, "--engine", "shard",
                "--workers", "3", "--checkpoint-every", "10",
                "--checkpoint-dir", ckpt_root,
            ] + extra)
            out, _ = run.communicate(timeout=600)
            if run.returncode != 0:
                return "run {} exited {}:\n{}".format(
                    extra, run.returncode, out.decode(errors="replace")
                )
        runs = sorted(p.name for p in Path(ckpt_root).iterdir())
    if len(runs) != 2:
        return "{} run directories {}, expected 2".format(len(runs), runs)
    return None


def main() -> int:
    failures = []

    for protocol in KILL_PROTOCOLS:
        error = kill_and_resume(protocol)
        if error:
            failures.append("kill/resume [{}]: {}".format(protocol, error))
        else:
            print(
                "kill/resume [{}]: resumed run bit-identical "
                "(exit 0)".format(protocol)
            )

    error = shared_root()
    if error:
        failures.append("shared root: " + error)
    else:
        print("shared root: lfloat and exact runs keep two run directories")

    rows = measure_resume(sizes=(48,))
    rows += measure_respawn(n=48)
    overhead = measure_overhead()
    rows.append(overhead)
    payload = write_json(rows)
    _print_rows(rows, "recovery smoke -> BENCH_recovery.json")
    print("wrote {}".format(ROOT / "BENCH_recovery.json"))

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

    for row in rows:
        label = "{family}-{n}/{protocol} [{scenario}]".format(**row)
        if not row["identical_after_resume"]:
            failures.append(
                label + ": recovered run differs from uninterrupted run"
            )
        if row["scenario"].startswith("hang_respawn"):
            expected = int(row["scenario"][-1])
            if row["restarts"] != expected:
                failures.append(
                    label + ": {} restarts, expected {}".format(
                        row["restarts"], expected
                    )
                )
    if overhead["checkpoints_written"] < 2:
        failures.append(
            "overhead row wrote only {} checkpoint(s); the cadence no "
            "longer exercises the subsystem".format(
                overhead["checkpoints_written"]
            )
        )

    if failures:
        for line in failures:
            print("FAIL: " + line, file=sys.stderr)
        return 1
    print(
        "OK: {} recovery scenarios bit-identical; checkpoint overhead "
        "{:.1%} of the supervised run (soft ceiling 5%)".format(
            len(rows), overhead["overhead_fraction"]
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
