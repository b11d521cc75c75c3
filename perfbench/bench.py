"""One benchmark run: inputs from the seed, a closed job loop, metrics.

A run is a closed loop with one client: it runs one job at a time, back
to back, in this process (the shard workload forks one worker, so at
most two processes compute at once).  A job is one
``repro.core.distributed_betweenness`` call on the workload's graph,
timed from call to return; the answer check and the checkpoint clean-up
run outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs and prints the per-layer metrics, including the
tracing overhead between the two kinds.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench.checks import COUNT_KEYS, AnswerCheck, job_counts, max_rel_err
from perfbench.metrics import (
    END_TO_END,
    PER_LAYER,
    TRACE_TOLERANCE,
    as_output,
    median_metrics,
    traced_job_metrics,
)
from perfbench.tracing import JOB_SPAN, LayerTracer
from perfbench.workloads import WORKLOADS, edge_list_text, fault_plan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Temporary inputs and checkpoints (removed) and run records (kept).
OUT = ROOT / ".perfbench"
#: Fresh interpreters per ``setup_s`` and ``cli.import_s`` measurement.
SETUP_SAMPLES = 5
#: Reads of the edge-list file per ``graphs.load_s`` measurement.
LOAD_SAMPLES = 5


@dataclass
class JobSample:
    """One job's times, check verdict and (traced jobs) layer values."""

    wall: float
    cpu_self: float
    cpu_children: float
    failures: List[str]
    steal: Optional[int] = None
    layers: Optional[Dict[str, float]] = None
    residual: float = 0.0

    @property
    def cpu(self) -> float:
        return self.cpu_self + self.cpu_children


class Bench:
    """A run's inputs, references and job counters for one workload."""

    def __init__(self, workload, seed: int, workdir: Path):
        from repro.centrality.brandes import brandes_betweenness
        from repro.core import distributed_betweenness
        from repro.graphs import read_edge_list

        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        #: max relative BC error of the first job that passed its check
        self.bc_error: Optional[float] = None
        self.graph_path = workdir / "graph.edges"
        self.graph_path.write_text(
            edge_list_text(workload, seed), encoding="utf-8"
        )
        self.graph = read_edge_list(self.graph_path)
        self.plan = fault_plan(workload)
        self.clean_counts: Optional[Dict[str, int]] = None
        clean_bc = None
        if self.plan is not None:
            # The fault-free answer the recovered run must match bit for
            # bit, on the reference single-process engine.
            clean = distributed_betweenness(
                self.graph, protocol=workload.job_args["protocol"],
                engine="event",
            )
            self.clean_counts = job_counts(clean)
            clean_bc = clean.betweenness
        self.check = AnswerCheck(
            brandes_betweenness(self.graph, exact=True),
            workload.engine,
            clean_bc,
        )

    def job(self, tracer: Optional[LayerTracer] = None) -> JobSample:
        """Run, time and check one job (traced when ``tracer`` is given)."""
        from repro.core import distributed_betweenness

        kwargs = dict(self.workload.job_args)
        if self.plan is not None:
            kwargs["faults"] = self.plan
        ckpt = None
        if self.workload.checkpoint_every:
            ckpt = tempfile.mkdtemp(prefix="ckpt-", dir=self.workdir)
            kwargs["checkpoint_every"] = self.workload.checkpoint_every
            kwargs["checkpoint_dir"] = ckpt
        call = distributed_betweenness
        telemetry = None
        if tracer is not None:
            from repro.obs import Telemetry

            telemetry = Telemetry(profile=True)
            kwargs["telemetry"] = telemetry
            call = tracer.wrap(JOB_SPAN, distributed_betweenness, store=True)
            tracer.install()
        job_id = self.attempted
        gc.collect()
        result = None
        error = None
        steal_before = steal_ticks()
        before = _cpu_times()
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin_job(job_id)
        try:
            result = call(self.graph, **kwargs)
        except Exception:  # a failed job is counted, not fatal
            error = traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.end_job()
        wall = time.perf_counter() - start
        after = _cpu_times()
        steal_after = steal_ticks()
        if tracer is not None:
            tracer.uninstall()
        if ckpt is not None:
            shutil.rmtree(ckpt)
        cpu_self = after[0] - before[0]
        cpu_children = after[1] - before[1]
        if error is not None:
            print(error, file=sys.stderr)
            failures = ["raised " + error.strip().splitlines()[-1]]
        else:
            failures = self.check.failures(result)
        self.attempted += 1
        if failures:
            self.failed += 1
            print("job {} failed: {}".format(job_id, "; ".join(failures)),
                  file=sys.stderr)
        elif self.bc_error is None:
            self.bc_error = max_rel_err(
                result.betweenness, self.check.reference
            )
        sample = JobSample(wall, cpu_self, cpu_children, failures)
        if steal_before is not None and steal_after is not None:
            sample.steal = steal_after - steal_before
        if tracer is not None and not failures:
            sample.layers, sample.residual = traced_job_metrics(
                tracer, job_id, result, telemetry, wall, cpu_self,
                cpu_children, self.clean_counts,
            )
        return sample


def _cpu_times() -> Tuple[float, float]:
    """CPU seconds (user + system) of this process and of reaped children.

    ``getrusage`` reports microseconds; ``os.times`` counts 10 ms ticks,
    too coarse for sub-second jobs.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + own.ru_stime,
        children.ru_utime + children.ru_stime,
    )


# ----------------------------------------------------------------------
# fixed costs outside the job
# ----------------------------------------------------------------------
def _python(args: List[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable] + args, cwd=str(cwd), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120, check=False,
    )


def setup_samples(workload, workdir: Path) -> List[float]:
    """Wall times of fresh ``python -m repro`` runs on ``cycle:8``.

    Each is the workload's own command line (protocol, engine, workers,
    fault and checkpoint flags) on an 8-node cycle: interpreter start,
    imports, parsing, dispatch, worker fork and output.
    """
    times = []
    for _ in range(SETUP_SAMPLES):
        args = ["-m", "repro"] + list(workload.cli) + ["--graph", "cycle:8"]
        ckpt = None
        if workload.checkpoint_every:
            ckpt = tempfile.mkdtemp(prefix="cli-", dir=workdir)
            args += ["--checkpoint-dir", ckpt]
        start = time.perf_counter()
        done = _python(args, workdir)
        times.append(time.perf_counter() - start)
        if ckpt is not None:
            shutil.rmtree(ckpt)
        if done.returncode != 0:
            raise RuntimeError(
                "setup command {} exited {}: {}".format(
                    args, done.returncode, done.stderr.strip()
                )
            )
    return times


def cli_import_samples(workdir: Path) -> List[float]:
    """Seconds a fresh interpreter spends in ``import repro.cli``."""
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    times = []
    for _ in range(SETUP_SAMPLES):
        done = _python(["-c", code], workdir)
        if done.returncode != 0:
            raise RuntimeError("import repro.cli failed: " + done.stderr)
        times.append(float(done.stdout.strip()))
    return times


def load_samples(path: Path) -> List[float]:
    """Wall times of ``read_edge_list`` on the workload's graph file."""
    from repro.graphs import read_edge_list

    times = []
    for _ in range(LOAD_SAMPLES):
        start = time.perf_counter()
        read_edge_list(path)
        times.append(time.perf_counter() - start)
    return times


# ----------------------------------------------------------------------
# host drift record (not gated)
# ----------------------------------------------------------------------
def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: the host's speed now."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        table: Dict[int, int] = {}
        for i in range(200_000):
            acc += i * i % 7
            table[i & 1023] = acc
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def steal_ticks() -> Optional[int]:
    """Cumulative steal ticks of all CPUs from ``/proc/stat`` (Linux)."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def peak_rss_mb() -> float:
    """Peak resident set of the largest process of this run so far."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def job_loop(bench: Bench, seconds: float, tracer=None):
    """Back-to-back jobs for ``seconds``: untraced ones, and with a
    ``tracer`` a traced job after each untraced one."""
    untraced: List[JobSample] = []
    traced: List[JobSample] = []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(bench.job())
        if tracer is not None:
            traced.append(bench.job(tracer))
        if time.perf_counter() >= deadline:
            return untraced, traced


def end_to_end(
    bench: Bench, setup: List[float], rss_mb: float, samples: List[JobSample]
):
    """The end-to-end metrics of an untraced run."""
    counts = bench.check.counts or dict.fromkeys(COUNT_KEYS, 0)
    job_s = statistics.median(s.wall for s in samples)
    values: Dict[str, float] = dict(counts)
    values.update(
        setup_s=statistics.median(setup),
        job_s_p50=job_s,
        cpu_s_p50=statistics.median(s.cpu for s in samples),
        msgs_per_s=counts["messages"] / job_s,
        peak_rss_mb=rss_mb,
        bc_max_rel_err=bench.bc_error if bench.bc_error is not None else 1.0,
        ok_frac=(bench.attempted - bench.failed) / bench.attempted,
    )
    return values


def per_layer(bench: Bench, untraced, traced, workdir: Path):
    """The per-layer metrics of a traced run (None if no traced job passed)."""
    passed = [s.layers for s in traced if s.layers is not None]
    if not passed:
        return None
    values = median_metrics(passed)
    values["cli.import_s"] = statistics.median(cli_import_samples(workdir))
    values["graphs.load_s"] = statistics.median(load_samples(bench.graph_path))
    values["trace.overhead_frac"] = (
        statistics.median(s.wall for s in traced)
        / statistics.median(s.wall for s in untraced)
        - 1.0
    )
    return values


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit("perfbench: no program sources under {}".format(SRC))
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit("perfbench: imported repro from {}, not {}".format(
            repro.__file__, SRC))


def run(args: argparse.Namespace) -> Dict[str, Any]:
    """Run the workload once; returns the result object to print."""
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    stem = "{}-seed{}-trace{}".format(workload.name, args.seed, args.trace)
    host = {"calib_s_start": calibration_s(), "steal_start": steal_ticks()}
    try:
        bench = Bench(workload, args.seed, workdir)
        setup = [] if args.trace else setup_samples(workload, workdir)
        bench.job()  # untimed warm-up: imports, lazy set-up, caches
        # One job's peak, as one CLI call holds; read before the loop so
        # it does not depend on how many jobs fit in --seconds.
        rss_mb = peak_rss_mb()
        tracer = LayerTracer() if args.trace else None
        untraced, traced = job_loop(bench, args.seconds, tracer)
        correct = bench.failed == 0
        if args.trace:
            values = per_layer(bench, untraced, traced, workdir)
            worst = max(
                (abs(s.residual) for s in traced if s.layers is not None),
                default=float("inf"),
            )
            if values is None or worst > TRACE_TOLERANCE:
                correct = False
                print("trace self-check failed: residual {:.3g} > {}".format(
                    worst, TRACE_TOLERANCE), file=sys.stderr)
            table = PER_LAYER
            tracer.dump(
                OUT / "trace-{}.json".format(stem),
                {"workload": workload.name, "seed": args.seed},
            )
        else:
            values = end_to_end(bench, setup, rss_mb, untraced)
            table = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal_end = steal_ticks()
    host.update(
        calib_s_end=calibration_s(),
        steal_ticks=(
            steal_end - host["steal_start"]
            if steal_end is not None and host["steal_start"] is not None
            else None
        ),
        nproc=os.cpu_count(),
    )
    del host["steal_start"]
    metrics = as_output(values or {name: 0 for name, _ in table}, table)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "host": host, "metrics": metrics,
        "job_walls": [s.wall for s in untraced],
        "job_cpus": [s.cpu for s in untraced],
        "job_steal_ticks": [s.steal for s in untraced],
        "traced_job_walls": [s.wall for s in traced],
        "setup_walls": setup,
    }
    with open(OUT / "run-{}.json".format(stem), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, entry in metrics.items():
        print("{:38s} {:>16.6g} {}".format(name, entry["value"], entry["unit"]))
    print("jobs: {} untraced, {} traced, {} failed".format(
        len(untraced), len(traced), bench.failed))
    print("host: " + " ".join(
        "{}={}".format(k, v) for k, v in sorted(host.items())))
    return {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    print(json.dumps(run(args)))
    return 0
