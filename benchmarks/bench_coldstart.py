"""Cold start: the auto crossover and what a small CLI call loads.

The paper's algorithm takes O(N) rounds, so on a small graph the run
itself is a few milliseconds and a ``repro bc`` call is almost all
fixed cost: interpreter start, imports, graph parse and dispatch.  Two
decisions set that cost, and this benchmark writes the evidence for
both to ``BENCH_coldstart.json``:

* **The crossover table.**  In process, with numpy already imported,
  event and bulk run the same graph interleaved (min of ``REPS``) on
  six families at N in ``SIZES``; each cell is the event/bulk time
  ratio, and the two results must be identical.  The crossover is the
  smallest tabulated N from which the median family's ratio stays at
  or above 1, i.e. bulk is at least as fast as event.
  :data:`repro.engines.dispatcher.AUTO_BULK_MIN_NODES` must equal it:
  below it ``engine="auto"`` runs event, and the call never imports
  numpy or the bulk engine.
* **CLI rows.**  Fresh interpreters, interleaved, ``CLI_SAMPLES`` per
  row: a bare interpreter, ``import repro.cli``, and ``repro bc
  --graph cycle:8`` with ``--engine`` auto, event and bulk.  Each row
  reports the median and quartiles of the process wall time, and, from
  one more probed run of the same command, how many ``repro`` modules
  and source lines it loaded, whether numpy loaded, and
  ``sys.flags.dont_write_bytecode`` (with it set, every fresh process
  compiles every source file it imports, so module counts turn
  directly into time).

``test_crossover_constant_matches_committed_table`` reads only the
committed JSON, so it runs in milliseconds and keeps the constant from
drifting away from its evidence without a new measurement.  No wall
figure is gated: rows are interleaved min-of-N (table) or medians
(CLI) on whatever host runs the benchmark.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis import print_table
from repro.core import distributed_betweenness
from repro.engines.dispatcher import AUTO_BULK_MIN_NODES
from repro.graphs import (
    barabasi_albert_graph,
    complete_graph,
    connected_erdos_renyi_graph,
    cycle_graph,
    path_graph,
    star_graph,
)

from .conftest import once

FAMILIES = {
    "path": path_graph,
    "cycle": cycle_graph,
    "star": star_graph,
    "complete": complete_graph,
    "ba3": lambda n: barabasi_albert_graph(n, 3, seed=1),
    "er0.3": lambda n: connected_erdos_renyi_graph(n, 0.3, seed=1),
}
SIZES = (6, 8, 10, 12, 14, 16, 20, 24)
REPS = 9
CLI_SAMPLES = 11
CLI_GRAPH = "cycle:8"
_BC = ("-m", "repro", "bc", "--graph", CLI_GRAPH, "--protocol", "hua-bc")
#: Interpreter arguments per CLI row.
CLI_ROWS = {
    "python": ("-c", "pass"),
    "import repro.cli": ("-c", "import repro.cli"),
    "bc auto": _BC + ("--engine", "auto"),
    "bc event": _BC + ("--engine", "event"),
    "bc bulk": _BC + ("--engine", "bulk"),
}
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT = ROOT / "BENCH_coldstart.json"

#: Run after a command in the same interpreter: what it loaded.
_PROBE = """
import json, sys
repro = {name: getattr(mod, "__file__", None) for name, mod in
         list(sys.modules.items()) if name.split(".")[0] == "repro"}
lines = 0
for path in filter(None, repro.values()):
    with open(path, encoding="utf-8") as fh:
        lines += sum(1 for _ in fh)
print(json.dumps({"repro_modules": len(repro), "repro_lines": lines,
                  "numpy_loaded": "numpy" in sys.modules,
                  "dont_write_bytecode": sys.flags.dont_write_bytecode}))
"""


def _fingerprint(result):
    """Everything event and bulk must agree on, in comparable form."""
    return (
        sorted(result.betweenness.items()),
        result.diameter,
        result.rounds,
        sorted(result.start_times.items()),
        result.stats.summary(),
        result.stats.round_series,
        result.stats.worst_edge,
    )


def measure_crossover(families=FAMILIES, sizes=SIZES, reps=REPS):
    """Event/bulk ratio per family x N, interleaved min-of-``reps``."""
    distributed_betweenness(path_graph(4), engine="bulk")  # import numpy
    rows = []
    for family, build in families.items():
        for n in sizes:
            graph = build(n)
            best = {}
            outputs = {}
            for _ in range(reps):
                for engine in ("event", "bulk"):
                    start = time.perf_counter()
                    result = distributed_betweenness(graph, engine=engine)
                    elapsed = time.perf_counter() - start
                    best[engine] = min(best.get(engine, elapsed), elapsed)
                    outputs[engine] = _fingerprint(result)
            rows.append({
                "family": family,
                "n": n,
                "event_seconds": round(best["event"], 6),
                "bulk_seconds": round(best["bulk"], 6),
                "ratio": round(best["event"] / best["bulk"], 3),
                "identical_results": outputs["event"] == outputs["bulk"],
            })
    return rows


def median_ratios(rows):
    """``{N: median event/bulk ratio over the families}``."""
    by_n = {}
    for row in rows:
        by_n.setdefault(row["n"], []).append(row["ratio"])
    return {n: statistics.median(ratios) for n, ratios in sorted(by_n.items())}


def crossover(rows):
    """Smallest N from which the median ratio is >= 1 at every larger N."""
    medians = median_ratios(rows)
    sizes = sorted(medians)
    for i, n in enumerate(sizes):
        if all(medians[m] >= 1.0 for m in sizes[i:]):
            return n
    return None


def _python(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable] + list(argv), env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=120, check=True,
    )


def _probe(row):
    """What one fresh run of ``row`` loads, reported from inside it."""
    argv = CLI_ROWS[row]
    if argv[0] == "-c":
        code = argv[1]
    else:
        code = (
            "import runpy, sys\nsys.argv = {!r}\ntry:\n"
            "    runpy.run_module({!r}, run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exit:\n    assert not exit.code\n"
        ).format(list(argv[1:]), argv[1])
    done = _python(["-c", code + _PROBE])
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_cli(samples=CLI_SAMPLES):
    """Median and quartiles of fresh-process wall time per CLI row."""
    times = {row: [] for row in CLI_ROWS}
    for _ in range(samples):
        for row in CLI_ROWS:
            start = time.perf_counter()
            _python(CLI_ROWS[row])
            times[row].append(time.perf_counter() - start)
    rows = []
    for row, taken in times.items():
        q1, median, q3 = statistics.quantiles(taken, n=4)
        rows.append(dict(
            {
                "name": row,
                "argv": list(CLI_ROWS[row]),
                "samples": len(taken),
                "median_s": round(median, 4),
                "q1_s": round(q1, 4),
                "q3_s": round(q3, 4),
            },
            **_probe(row),
        ))
    return rows


def write_json(table, cli, path=OUTPUT):
    payload = {
        "benchmark": "coldstart",
        "host": {
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "auto_bulk_min_nodes": AUTO_BULK_MIN_NODES,
        "crossover": {
            "reps": REPS,
            "note": "ratio = event / bulk wall, in process with numpy "
            "already imported, interleaved min-of-reps",
            "rows": table,
            "median_ratio": {
                str(n): round(r, 3) for n, r in median_ratios(table).items()
            },
            "crossover_n": crossover(table),
        },
        "cli": {
            "graph": CLI_GRAPH,
            "note": "wall seconds of a fresh interpreter per run, rows "
            "interleaved; module counts from one more probed run",
            "rows": cli,
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _print(payload):
    table = payload["crossover"]
    print_table(
        ["N"] + list(FAMILIES) + ["median"],
        [
            [n] + [
                row["ratio"] for row in table["rows"] if row["n"] == int(n)
            ] + [median]
            for n, median in table["median_ratio"].items()
        ],
        title="event/bulk time ratio (crossover N={}) -> {}".format(
            table["crossover_n"], OUTPUT.name
        ),
    )
    print_table(
        ["command", "median s", "q1 s", "q3 s", "modules", "lines", "numpy"],
        [
            [r["name"], r["median_s"], r["q1_s"], r["q3_s"],
             r["repro_modules"], r["repro_lines"], r["numpy_loaded"]]
            for r in payload["cli"]["rows"]
        ],
        title="fresh-process CLI cost on {} ({} interleaved samples)".format(
            CLI_GRAPH, CLI_SAMPLES
        ),
    )


def test_coldstart_table_and_cli_rows(benchmark):
    pytest.importorskip("numpy")
    table, cli = once(benchmark, lambda: (measure_crossover(), measure_cli()))
    payload = write_json(table, cli)
    _print(payload)
    assert all(row["identical_results"] for row in table)
    rows = {row["name"]: row for row in cli}
    assert not rows["bc auto"]["numpy_loaded"]
    assert rows["bc bulk"]["numpy_loaded"]
    assert payload["crossover"]["crossover_n"] == AUTO_BULK_MIN_NODES


def test_crossover_constant_matches_committed_table():
    committed = json.loads(OUTPUT.read_text())
    assert crossover(committed["crossover"]["rows"]) == AUTO_BULK_MIN_NODES
