"""Metric names, units and how each is derived from measured jobs.

End-to-end metrics come from untraced runs only; per-layer metrics from
the traced jobs of a ``--trace 1`` run.  A layer metric's ``*_s`` value
is the self time of the wrapped calls (their duration minus the part
their own wrapped child calls cover), except ``congest.init_s``,
``congest.run_s``, ``shard.partition_s`` and ``shard.checkpoint_write_s``,
which are whole span durations.  Times are medians over the run's traced
jobs; counts repeat exactly from job to job.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Mapping, Optional, Tuple

from perfbench.tracing import JOB_SPAN

#: ``(name, unit)`` of every end-to-end metric, printed by untraced runs.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("job_s_p50", "s"),
    ("cpu_s_p50", "s"),
    ("msgs_per_s", "msg/s"),
    ("peak_rss_mb", "MB"),
    ("rounds", "count"),
    ("bits", "count"),
    ("messages", "count"),
    ("max_edge_bits", "count"),
    ("bc_max_rel_err", "ratio"),
    ("ok_frac", "ratio"),
)

PHASES = ("tree_build", "counting", "diameter_broadcast", "aggregation")

#: ``(name, unit)`` of every per-layer metric, printed by traced runs.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("cli.import_s", "s"),
    ("graphs.load_s", "s"),
    ("congest.init_s", "s"),
    ("congest.run_s", "s"),
    ("congest.self_s", "s"),
    ("congest.step_s", "s"),
    ("congest.deliver_s", "s"),
    ("congest.stats_s", "s"),
    ("congest.active_node_steps", "count"),
    ("congest.fast_forwarded_rounds", "count"),
    ("congest.active_ratio", "ratio"),
    ("core.on_round_s", "s"),
    ("core.counting_s", "s"),
    ("core.aggregation_s", "s"),
    ("core.collect_s", "s"),
    ("core.ledger_words", "count"),
) + tuple(("core.phase_rounds." + p, "count") for p in PHASES) + (
    ("arithmetic.lfloat_ops", "count"),
    ("arithmetic.lfloat_s", "s"),
    ("wire.bit_size_calls", "count"),
    ("wire.bit_size_s", "s"),
    ("wire.sizes_per_message", "ratio"),
    ("engines.bulk.plan_s", "s"),
    ("engines.bulk.stats_s", "s"),
    ("engines.bulk.sends", "count"),
    ("faults.injected", "count"),
    ("faults.dropped", "count"),
    ("faults.duplicated", "count"),
    ("faults.delayed", "count"),
    ("faults.round_overhead", "ratio"),
    ("faults.message_overhead", "ratio"),
    ("faults.transport_s", "s"),
    ("faults.deliveries_s", "s"),
    ("shard.partition_s", "s"),
    ("shard.barriers", "count"),
    ("shard.ipc_wait_s", "s"),
    ("shard.ipc_send_s", "s"),
    ("shard.ipc_bytes", "bytes"),
    ("shard.coordinator_cpu_s", "s"),
    ("shard.worker_cpu_s", "s"),
    ("shard.edge_cut", "count"),
    ("shard.cross_messages", "count"),
    ("shard.cross_bits", "count"),
    ("shard.cross_fraction", "ratio"),
    ("shard.restarts", "count"),
    ("shard.checkpoints", "count"),
    ("shard.checkpoint_bytes", "bytes"),
    ("shard.checkpoint_s", "s"),
    ("shard.checkpoint_write_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)

#: Largest share of a traced job's wall by which the layer self times
#: plus the unattributed time may miss the measured job wall.
TRACE_TOLERANCE = 0.01


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_job_metrics(
    tracer,
    job: int,
    result,
    telemetry,
    wall: float,
    cpu_self: float,
    cpu_children: float,
    clean_counts: Optional[Mapping[str, int]],
) -> Tuple[Dict[str, float], float]:
    """One traced job's per-layer values, and its self-check residual.

    ``wall`` is the job's wall time as the benchmark measured it around
    the call, and ``cpu_self``/``cpu_children`` its CPU time in this
    process and in reaped child processes.  The residual is
    ``(layer self times + unattributed - wall) / wall``, where the
    unattributed time is the part of ``wall`` outside the root span; it
    must stay within :data:`TRACE_TOLERANCE`.
    """
    from repro.core.records import ledger_storage_totals

    stats = result.stats
    spans = tracer.job_spans(job)
    record = next(r for r in tracer.jobs if r["job"] == job)
    leaves: Dict[str, List[float]] = record["leaves"]
    ipc: Dict[str, int] = record["ipc"]

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def self_of(name: str) -> float:
        return sum(s["self"] for s in spans if s["name"] == name)

    def leaf(name: str, index: int) -> float:
        return leaves.get(name, (0, 0.0, 0.0))[index]

    profiler = telemetry.profiler
    n = result.graph.num_nodes
    messages = stats.message_count
    steps = profiler.count("engine.active_node_steps")
    phases = telemetry.phases.rounds_by_phase()
    fstats = stats.faults
    shard = stats.shard or {}
    supervisor = stats.supervisor or {}
    on_shard = stats.engine == "shard"
    covered = total(JOB_SPAN)
    values: Dict[str, float] = {
        "congest.init_s": total("congest.init"),
        "congest.run_s": total("congest.run"),
        "congest.self_s": self_of("congest.run"),
        "congest.step_s": profiler.seconds("engine.step"),
        "congest.deliver_s": profiler.seconds("engine.deliver"),
        "congest.stats_s": leaf("congest.observe_round", 2),
        "congest.active_node_steps": steps,
        "congest.fast_forwarded_rounds": profiler.count(
            "engine.fast_forwarded_rounds"
        ),
        "congest.active_ratio": _ratio(steps, n * stats.rounds),
        "core.on_round_s": leaf("core.on_round", 2),
        "core.counting_s": leaf("core.counting", 2),
        "core.aggregation_s": leaf("core.aggregation", 2),
        "core.collect_s": covered - total("congest.init")
        - total("congest.run"),
        "core.ledger_words": ledger_storage_totals(
            node.ledger for node in result.nodes if hasattr(node, "ledger")
        )["words"],
        "arithmetic.lfloat_ops": leaf("arithmetic.lfloat_add", 0)
        + leaf("arithmetic.lfloat_mul", 0),
        "arithmetic.lfloat_s": leaf("arithmetic.lfloat_add", 2)
        + leaf("arithmetic.lfloat_mul", 2),
        "wire.bit_size_calls": leaf("wire.bit_size", 0),
        "wire.bit_size_s": leaf("wire.bit_size", 2),
        "wire.sizes_per_message": _ratio(leaf("wire.bit_size", 0), messages),
        "engines.bulk.plan_s": profiler.seconds("engine.bulk.plan"),
        "engines.bulk.stats_s": profiler.seconds("engine.bulk.stats"),
        "engines.bulk.sends": profiler.count("engine.bulk.sends"),
        "faults.injected": fstats.total_injected if fstats else 0,
        "faults.dropped": fstats.dropped if fstats else 0,
        "faults.duplicated": fstats.duplicated if fstats else 0,
        "faults.delayed": fstats.delayed if fstats else 0,
        "faults.round_overhead": 0.0,
        "faults.message_overhead": 0.0,
        "faults.transport_s": leaf("faults.transport", 2),
        "faults.deliveries_s": leaf("faults.deliveries", 2),
        "shard.partition_s": total("shard.partition"),
        "shard.barriers": ipc.get("barriers", 0),
        "shard.ipc_wait_s": leaf("shard.ipc_poll", 2)
        + leaf("shard.ipc_recv", 2),
        "shard.ipc_send_s": leaf("shard.ipc_send", 2),
        "shard.ipc_bytes": ipc.get("sent", 0) + ipc.get("received", 0),
        "shard.coordinator_cpu_s": cpu_self if on_shard else 0.0,
        "shard.worker_cpu_s": cpu_children,
        "shard.edge_cut": shard.get("edge_cut", 0),
        "shard.cross_messages": shard.get("cross_messages", 0),
        "shard.cross_bits": shard.get("cross_bits", 0),
        "shard.cross_fraction": _ratio(
            shard.get("cross_messages", 0), messages
        ),
        "shard.restarts": supervisor.get("restarts", 0),
        "shard.checkpoints": supervisor.get("checkpoints_written", 0),
        "shard.checkpoint_bytes": supervisor.get("checkpoint_bytes", 0),
        "shard.checkpoint_s": supervisor.get("checkpoint_seconds", 0.0),
        "shard.checkpoint_write_s": total("shard.checkpoint_write"),
        "trace.unattributed_frac": _ratio(wall - covered, wall),
    }
    for phase in PHASES:
        values["core.phase_rounds." + phase] = phases.get(phase, 0)
    if clean_counts is not None:
        values["faults.round_overhead"] = (
            stats.rounds / clean_counts["rounds"] - 1.0
        )
        values["faults.message_overhead"] = (
            messages / clean_counts["messages"] - 1.0
        )
    attributed = sum(s["self"] for s in spans) + sum(
        agg[2] for agg in leaves.values()
    )
    residual = _ratio(attributed + (wall - covered) - wall, wall)
    return values, residual


def median_metrics(per_job: List[Dict[str, float]]) -> Dict[str, float]:
    """The median of every per-job value (counts stay whole numbers)."""
    out: Dict[str, float] = {}
    for name in per_job[0]:
        values = [job[name] for job in per_job]
        if all(isinstance(v, int) for v in values):
            out[name] = statistics.median_low(values)
        else:
            out[name] = statistics.median(values)
    return out


def as_output(values: Mapping[str, Any], table) -> Dict[str, Dict[str, Any]]:
    """``{name: {"value", "unit"}}`` for every metric of ``table``."""
    return {
        name: {"value": values[name], "unit": unit} for name, unit in table
    }
