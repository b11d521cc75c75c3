"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.tracing import LayerTracer
from perfbench.workloads import WORKLOADS, edge_list_text, fault_plan

ROOT = Path(__file__).resolve().parent.parent


def _tiny(name, nodes=12):
    """A workload's job arguments on a small graph, for fast tests."""
    return dataclasses.replace(WORKLOADS[name], nodes=nodes)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    workload = WORKLOADS[name]
    assert edge_list_text(workload, 7) == edge_list_text(workload, 7)
    plan_a, plan_b = fault_plan(workload), fault_plan(workload)
    if plan_a is not None:
        assert plan_a.to_json() == plan_b.to_json()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_gives_different_edge_list_of_the_same_graph(name):
    from repro.graphs.io import loads_edge_list

    workload = WORKLOADS[name]
    text_a, text_b = edge_list_text(workload, 1), edge_list_text(workload, 2)
    assert text_a != text_b
    assert loads_edge_list(text_a) == loads_edge_list(text_b)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        names = [name for name, _unit in table]
        assert len(set(names)) == len(names)
        for name in names:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert [(m["name"], m["unit"]) for m in spec[key]] == list(table)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def _bench(tmp_path, workload):
    return bench.Bench(workload, seed=3, workdir=tmp_path)


def test_good_jobs_pass(tmp_path):
    run = _bench(tmp_path, _tiny("cfp-auto"))
    samples = [run.job(), run.job()]
    assert [s.failures for s in samples] == [[], []]
    values = bench.end_to_end(run, [0.1], 1.0, samples)
    assert values["ok_frac"] == 1.0
    assert 0 < values["bc_max_rel_err"]


def test_wrong_bc_is_counted_as_failed(tmp_path, monkeypatch):
    import repro.core

    real = repro.core.distributed_betweenness

    def wrong_bc(graph, **kwargs):
        result = real(graph, **kwargs)
        result.betweenness[max(result.betweenness)] += 1.0
        return result

    run = _bench(tmp_path, _tiny("cfp-auto"))
    monkeypatch.setattr(repro.core, "distributed_betweenness", wrong_bc)
    sample = run.job()
    assert any("Theorem 1" in reason for reason in sample.failures)
    assert (run.attempted, run.failed) == (1, 1)
    assert bench.end_to_end(run, [0.1], 1.0, [sample])["ok_frac"] == 0.0


def test_unexpected_engine_is_counted_as_failed(tmp_path, monkeypatch):
    import repro.core

    real = repro.core.distributed_betweenness

    def fallback(graph, **kwargs):
        kwargs["engine"] = "sweep"
        return real(graph, **kwargs)

    run = _bench(tmp_path, _tiny("cfp-auto"))
    run.job()
    monkeypatch.setattr(repro.core, "distributed_betweenness", fallback)
    sample = run.job()
    assert any("engine 'sweep'" in reason for reason in sample.failures)
    assert (run.attempted, run.failed) == (2, 1)


def test_recovered_bc_must_match_the_clean_run(tmp_path, monkeypatch):
    import repro.core

    real = repro.core.distributed_betweenness

    def nudged(graph, **kwargs):
        result = real(graph, **kwargs)
        node = max(result.betweenness)
        result.betweenness[node] = result.betweenness[node] * (1 + 1e-12)
        return result

    run = _bench(tmp_path, _tiny("chaos-shard"))
    monkeypatch.setattr(repro.core, "distributed_betweenness", nudged)
    sample = run.job()
    assert sample.failures == ["BC differs from the fault-free run"]


def test_traced_job_accounts_for_its_wall_and_restores_the_program(tmp_path):
    from repro.congest.simulator import Simulator

    original_run = Simulator.run
    run = _bench(tmp_path, _tiny("chaos-shard"))
    sample = run.job(LayerTracer())
    assert sample.failures == []
    assert Simulator.run is original_run
    assert abs(sample.residual) <= bench.TRACE_TOLERANCE
    measured_here = {"cli.import_s", "graphs.load_s", "trace.overhead_frac"}
    assert set(sample.layers) == {n for n, _ in PER_LAYER} - measured_here
    assert sample.layers["shard.checkpoints"] >= 1
    assert sample.layers["shard.barriers"] > 0
    assert sample.layers["faults.round_overhead"] > 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cfp-auto",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
