"""E15 — execution-engine comparison: sweep vs event vs vectorized bulk.

The sweep engine steps all N nodes every round; under the paper's
pipelined schedule most of those steps are no-ops (a node settles each
source once and sends each aggregation value at one scheduled round).
The event engine steps only active nodes, so its work tracks the
protocol's true activity volume instead of N × rounds.  The bulk engine
drops the round loop entirely: it derives the protocol's closed-form
schedule and executes it as numpy array programs (`docs/simulator.md`,
"Bulk engine"), so its cost tracks the total send volume.

This benchmark times all three engines on the high-diameter families
from E6 (where idle rounds dominate), checks the outputs are
bit-identical, and writes the measured trajectory to
``BENCH_engine.json`` at the repo root.  On a single-core container the
event engine lands around 2× over sweep and the bulk engine at 10-15×
(N ≥ 400), tapering slightly at N = 800 where the O(sends · log sends)
sort terms grow.

Timings are wall-clock and noisy on shared machines, so measurements
interleave the engines and keep the best of ``REPS`` repetitions; the
hard assertions are deliberately conservative while the table and JSON
report the actual ratios.

A scaling microbenchmark additionally gates the bulk engine's stats
reduction (:func:`repro.engines.bulk.edge_round_groups` +
:func:`repro.engines.bulk.populate_stats`): quadrupling N at fixed
broadcast, multicast and unicast volumes must not materially change its
runtime — the reduction is O(table rows), never O(N × rounds).  A memory
gate holds one BA N = 400 bulk job's traced peak under a fixed ceiling,
and a cost gate holds a monitored bulk job, which replays every send
through ``drive_rounds``, well under the sweep engine's time.
"""

import json
import time
from pathlib import Path

import pytest

from repro.analysis import print_table
from repro.core import distributed_betweenness
from repro.graphs import cycle_graph, path_graph
from repro.obs import Telemetry
from repro.wire import (
    BfsWave,
    IntMessage,
    WireFormat,
    encode_frame,
    registered_types,
)

from .conftest import once

SIZES = (100, 200, 400, 800)
ENGINES = ("sweep", "event", "bulk")
FAMILIES = {"path": path_graph, "cycle": cycle_graph}
REPS = 2
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _fingerprint(result):
    """Everything the two engines must agree on, in comparable form."""
    return (
        sorted(result.betweenness.items()),
        result.diameter,
        result.rounds,
        sorted(result.start_times.items()),
        result.stats.summary(),
        result.stats.round_series,
        result.stats.worst_edge,
    )


def measure(sizes=SIZES, families=None, reps=REPS, engines=ENGINES):
    """Time each engine on each family × size; best-of-``reps``.

    The engines are interleaved within each repetition so ambient noise
    (another process, thermal drift) hits them roughly equally.  Returns
    one row dict per instance with the best wall-clock per engine, the
    sweep-relative speedups, the result-identity check, and a ``phases``
    map of per-phase round counts — collected by one extra
    telemetry-carrying run *outside* the timed repetitions, so the timed
    runs keep the telemetry-disabled fast path.
    """
    families = dict(FAMILIES) if families is None else families
    rows = []
    for family, build in sorted(families.items()):
        for n in sizes:
            graph = build(n)
            best = {}
            outputs = {}
            for _ in range(max(1, reps)):
                for engine in engines:
                    start = time.perf_counter()
                    result = distributed_betweenness(
                        graph, arithmetic="lfloat", engine=engine
                    )
                    elapsed = time.perf_counter() - start
                    if engine not in best or elapsed < best[engine]:
                        best[engine] = elapsed
                    outputs[engine] = _fingerprint(result)
            telemetry = Telemetry()
            distributed_betweenness(
                graph, arithmetic="lfloat", engine="event", telemetry=telemetry
            )
            reference = outputs[engines[0]]
            reference_summary = reference[4]
            row = {
                "family": family,
                "n": n,
                "rounds": reference[2],
                # Structural metrics: machine-independent, so the
                # history ledger's regression gates require them to
                # match exactly across runs of an identical config.
                "bits": reference_summary["bits"],
                "messages": reference_summary["messages"],
                "identical_results": all(
                    outputs[engine] == reference for engine in engines
                ),
                "phases": telemetry.phases.rounds_by_phase(),
                # Aggregate NodeLedger footprint (records + CSR
                # predecessor links, in abstract words) — the array
                # ledger's memory trajectory, from the telemetry run's
                # finalize gauges.
                "ledger_words": telemetry.registry.gauge(
                    "ledger.words"
                ).value,
            }
            for engine in engines:
                row[engine + "_seconds"] = round(best[engine], 4)
            if "event" in best:
                row["event_speedup"] = round(best["sweep"] / best["event"], 3)
            if "bulk" in best:
                row["bulk_speedup"] = round(best["sweep"] / best["bulk"], 3)
            rows.append(row)
    return rows


def write_json(rows, path=OUTPUT):
    """Persist the measured trajectory as ``BENCH_engine.json``.

    The ``bulk_speedup`` summary maps each family to its best
    bulk-over-sweep ratio at N ≥ 400 — the acceptance regime for the
    vectorized engine.
    """
    big = [row for row in rows if row["n"] >= 200]
    bulk_speedup = {}
    for row in rows:
        if row["n"] >= 400 and "bulk_speedup" in row:
            family = row["family"]
            bulk_speedup[family] = max(
                bulk_speedup.get(family, 0.0), row["bulk_speedup"]
            )
    payload = {
        "benchmark": "engine_comparison",
        "arithmetic": "lfloat",
        "engines": list(ENGINES),
        "reps": REPS,
        "rows": rows,
        "summary": {
            "all_identical": all(row["identical_results"] for row in rows),
            "peak_ledger_words": max(
                (row["ledger_words"] for row in rows
                 if row.get("ledger_words") is not None),
                default=None,
            ),
            "min_event_speedup_n_ge_200": min(
                (row["event_speedup"] for row in big if "event_speedup" in row),
                default=None,
            ),
            "bulk_speedup": bulk_speedup or None,
            "families_ge_10x_at_n_ge_400": sum(
                1 for ratio in bulk_speedup.values() if ratio >= 10.0
            ),
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _print_rows(rows, title):
    print_table(
        [
            "family",
            "N",
            "rounds",
            "sweep s",
            "event s",
            "bulk s",
            "event x",
            "bulk x",
            "identical",
        ],
        [
            [
                row["family"],
                row["n"],
                row["rounds"],
                row["sweep_seconds"],
                row.get("event_seconds", "-"),
                row.get("bulk_seconds", "-"),
                row.get("event_speedup", "-"),
                row.get("bulk_speedup", "-"),
                row["identical_results"],
            ]
            for row in rows
        ],
        title=title,
    )


def test_engine_speedup_and_identity(benchmark):
    rows = once(benchmark, measure)
    payload = write_json(rows)
    _print_rows(
        rows,
        "E15 engine comparison (best of {} interleaved reps) -> {}".format(
            REPS, OUTPUT.name
        ),
    )
    # Bit-identical outputs on every instance, all engines.
    assert payload["summary"]["all_identical"]
    big = [row for row in rows if row["n"] >= 200]
    assert big, "benchmark must cover N >= 200"
    # Conservative gates (noise-proof); the JSON holds the real ratios.
    assert all(row["event_speedup"] > 1.0 for row in big)
    assert all(row["bulk_speedup"] > 3.0 for row in rows if row["n"] >= 400)
    assert payload["summary"]["families_ge_10x_at_n_ge_400"] >= 2
    # The telemetry run must have seen all four protocol phases, with
    # the phase rounds partitioning the run (minus the final quiet round).
    for row in rows:
        assert sorted(row["phases"]) == [
            "aggregation",
            "counting",
            "diameter_broadcast",
            "tree_build",
        ]
        assert sum(row["phases"].values()) <= row["rounds"]
        # The array ledger stores N records per node on the full
        # protocol: the aggregate words gauge must reflect that scale.
        assert row["ledger_words"] is not None
        assert row["ledger_words"] >= 4 * row["n"] * row["n"]


# ----------------------------------------------------------------------
# bulk stats-reduction scaling: O(active edges), never O(N x rounds)
# ----------------------------------------------------------------------
STATS_BROADCASTS = 50_000
STATS_MULTICASTS = 50_000
STATS_UNICASTS = 100_000
STATS_DEGREE = 4


def measure_stats_scaling(
    broadcasts=STATS_BROADCASTS,
    multicasts=STATS_MULTICASTS,
    unicasts=STATS_UNICASTS,
):
    """Time the bulk stats reduction at fixed table sizes while N grows 4x.

    A per-round accumulator that touched every node (the sweep's shape)
    would slow down ~4x; the bulk reduction groups the three send tables
    directly — broadcasts and multicasts per (round, sender), unicasts
    per directed edge — so its runtime must track the table sizes alone
    (plus an O(rounds) tail for the round series, held constant here).
    Every node has degree 4, so the broadcasts stand for 4x their row
    count in sends at both sizes.  Each multicast covers its own pair's
    first 1-4 neighbors and falls in a later round on a (round, sender)
    key of its own, as the AggValue sends do, so the reduction takes its
    path without per-link rows.
    """
    np = pytest.importorskip("numpy")
    from repro.congest.stats import SimulationStats
    from repro.engines.bulk import edge_round_groups, populate_stats

    rounds = 2_000
    timings = {}
    rng = np.random.default_rng(7)
    for n_nodes in (2_000, 8_000):
        # Circulant adjacency: v's neighbors are v +/- 1 and v +/- 2.
        offsets = np.array([-2, -1, 1, 2], dtype=np.int64)
        nodes = np.arange(n_nodes, dtype=np.int64)
        indices = np.sort((nodes[:, None] + offsets) % n_nodes, axis=1).ravel()
        indptr = np.arange(n_nodes + 1, dtype=np.int64) * STATS_DEGREE
        bcast = (
            rng.integers(0, rounds, size=broadcasts),
            rng.integers(0, n_nodes, size=broadcasts),
            np.full(broadcasts, 4, dtype=np.int64),
            rng.integers(8, 64, size=broadcasts),
        )
        # Multicast j is pair j, on distinct (round, sender) keys in
        # rounds [rounds, 2 * rounds).
        key = rng.choice(rounds * n_nodes, size=multicasts, replace=False)
        m_snd = key % n_nodes
        fan = rng.integers(1, STATS_DEGREE + 1, size=multicasts)
        pred_indptr = np.zeros(multicasts + 1, dtype=np.int64)
        np.cumsum(fan, out=pred_indptr[1:])
        seq = np.arange(pred_indptr[-1]) - np.repeat(pred_indptr[:-1], fan)
        pred_rows = indices[np.repeat(m_snd * STATS_DEGREE, fan) + seq]
        mcast = (
            rounds + key // n_nodes,
            m_snd,
            np.arange(multicasts, dtype=np.int64),
            rng.integers(8, 64, size=multicasts),
        )
        snd = rng.integers(0, n_nodes, size=unicasts)
        ucast = (
            np.sort(rng.integers(0, rounds, size=unicasts)),
            snd,
            indices[snd * STATS_DEGREE + rng.integers(0, STATS_DEGREE, size=unicasts)],
            rng.integers(8, 64, size=unicasts),
            np.arange(unicasts, dtype=np.int64),
        )
        best = None
        for _ in range(3):
            stats = SimulationStats()
            start = time.perf_counter()
            populate_stats(stats, 2 * rounds, edge_round_groups(
                indptr, indices, pred_indptr, pred_rows, bcast, mcast, ucast,
            ))
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
            assert stats.message_count == (
                STATS_DEGREE * broadcasts + int(fan.sum()) + unicasts
            )
        timings[n_nodes] = best
    return {
        "broadcasts": broadcasts,
        "multicasts": multicasts,
        "unicasts": unicasts,
        "rounds": 2 * rounds,
        "seconds_n_2000": round(timings[2_000], 4),
        "seconds_n_8000": round(timings[8_000], 4),
        "n_scaling_ratio": round(timings[8_000] / timings[2_000], 3),
    }


def test_bulk_stats_reduction_is_active_edge_bound(benchmark):
    stats = once(benchmark, measure_stats_scaling)
    print_table(
        ["metric", "value"],
        [[key, value] for key, value in stats.items()],
        title="E15c bulk stats-reduction scaling (fixed tables, N x4)",
    )
    # 4x the nodes at a fixed send volume: an O(N)-per-round accumulator
    # would show ~4x; allow generous noise headroom around flat.
    assert stats["n_scaling_ratio"] < 2.0


# ----------------------------------------------------------------------
# bulk job memory: one BA N = 400 job's traced peak
# ----------------------------------------------------------------------
#: Ceiling on one job's tracemalloc peak, in MB (41 MB measured).  Laying
#: the AggValue sends out as one row per predecessor link (306,344 rows
#: here) instead of one per (source, node) pair takes it to 70 MB.
BULK_JOB_PEAK_MB = 48


def measure_bulk_job_peak():
    """Traced peak of one BA N = 400 (m = 3, seed 1) bulk job, in MB.

    numpy reports its buffers to :mod:`tracemalloc`, so the peak covers
    the plan, send-table and edge-round-group arrays.  A warm-up job
    first imports every module the run needs.
    """
    pytest.importorskip("numpy")
    import tracemalloc

    from repro.graphs import barabasi_albert_graph

    graph = barabasi_albert_graph(400, 3, seed=1)
    distributed_betweenness(graph, arithmetic="lfloat", engine="bulk")
    tracemalloc.start()
    try:
        result = distributed_betweenness(
            graph, arithmetic="lfloat", engine="bulk"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "messages": result.stats.message_count,
        "traced_peak_mb": round(peak / 1e6, 2),
    }


def test_bulk_job_traced_peak_memory(benchmark):
    stats = once(benchmark, measure_bulk_job_peak)
    print_table(
        ["metric", "value"],
        [[key, value] for key, value in stats.items()],
        title="E15d bulk job traced peak (BA N=400, m=3, seed 1)",
    )
    assert stats["messages"] == 1_264_319
    assert stats["traced_peak_mb"] <= BULK_JOB_PEAK_MB


# ----------------------------------------------------------------------
# bulk replay cost: a monitored job replays every send
# ----------------------------------------------------------------------
#: Ceiling on a monitored bulk job's time as a share of sweep's.  A
#: round monitor makes the bulk engine replay every send under
#: ``drive_rounds``; that measured 0.36-0.64x of sweep on BA N = 100 on a
#: noisy 2-vCPU VM.
REPLAY_SWEEP_RATIO = 0.8


def measure_replay_cost(reps=3):
    """Best-of-``reps`` interleaved times of one BA N = 100 (m = 3,
    seed 1) job with a :class:`~repro.obs.BandwidthMonitor`, on bulk
    (which replays) and on sweep, in process."""
    pytest.importorskip("numpy")
    from repro.graphs import barabasi_albert_graph
    from repro.obs import BandwidthMonitor

    graph = barabasi_albert_graph(100, 3, seed=1)
    best = {}
    outputs = {}
    for _ in range(reps):
        for engine in ("bulk", "sweep"):
            monitor = BandwidthMonitor()
            start = time.perf_counter()
            result = distributed_betweenness(
                graph, arithmetic="lfloat", engine=engine,
                telemetry=Telemetry(monitors=[monitor]),
            )
            elapsed = time.perf_counter() - start
            best[engine] = min(best.get(engine, elapsed), elapsed)
            outputs[engine] = (_fingerprint(result), monitor.verdict())
    return {
        "messages": result.stats.message_count,
        "identical": outputs["bulk"] == outputs["sweep"],
        "bulk_seconds": round(best["bulk"], 4),
        "sweep_seconds": round(best["sweep"], 4),
        "bulk_sweep_ratio": round(best["bulk"] / best["sweep"], 3),
    }


def test_monitored_bulk_replay_cost(benchmark):
    stats = once(benchmark, measure_replay_cost)
    print_table(
        ["metric", "value"],
        [[key, value] for key, value in stats.items()],
        title="E15e monitored bulk replay vs sweep (BA N=100, m=3, seed 1)",
    )
    assert stats["identical"]
    assert stats["bulk_sweep_ratio"] <= REPLAY_SWEEP_RATIO


# ----------------------------------------------------------------------
# message-layer micro-benchmark (wire codec + __slots__ messages)
# ----------------------------------------------------------------------
MESSAGE_COUNT = 100_000
FRAME_BATCH = 2_048


def measure_message_layer(count=MESSAGE_COUNT, batch=FRAME_BATCH):
    """Bulk construction + exact sizing + frame encoding throughput.

    Every message class carries ``__slots__`` and memoizes its encoded
    width, so the simulator's hot loop (construct, size, bill) stays
    allocation-light.  Rates are wall-clock and machine-dependent; the
    test's gates are set an order of magnitude below anything a working
    implementation produces, so they only trip on a real regression
    (e.g. a message type silently growing a ``__dict__``).
    """
    wire = WireFormat(1024)

    start = time.perf_counter()
    total_bits = 0
    for i in range(count):
        message = BfsWave(i & 1023, i & 4095, i & 1023, (i & 0xFFFF) + 1)
        total_bits += message.bit_size(wire)
    construct_seconds = time.perf_counter() - start

    shared = BfsWave(1, 2, 3, 4)
    start = time.perf_counter()
    for _ in range(count):
        shared.bit_size(wire)
    cached_seconds = time.perf_counter() - start

    frame = [IntMessage(i) for i in range(batch)]
    start = time.perf_counter()
    _word, frame_bits = encode_frame(frame, wire)
    encode_seconds = time.perf_counter() - start
    assert frame_bits == sum(m.bit_size(wire) for m in frame)

    return {
        "messages": count,
        "total_bits": total_bits,
        "construct_per_second": round(count / construct_seconds),
        "cached_size_per_second": round(count / cached_seconds),
        "frame_messages": batch,
        "frame_bits": frame_bits,
        "encode_per_second": round(batch / encode_seconds),
    }


def test_message_layer_microbench(benchmark):
    import repro.congest.primitives  # noqa: F401 -- registers tags 12-15

    stats = once(benchmark, measure_message_layer)
    print_table(
        ["metric", "value"],
        [[key, value] for key, value in stats.items()],
        title="E15b message-layer micro-benchmark",
    )
    # Every registered message type is slotted: no class in its MRO
    # lacks __slots__, so instances carry no __dict__ and the
    # bulk-construction path cannot regress by silent dict allocation.
    for cls in registered_types().values():
        assert all(
            hasattr(klass, "__slots__") for klass in cls.__mro__ if klass is not object
        ), cls.__name__
    # Conservative throughput gates (real rates are >10x higher).
    assert stats["construct_per_second"] > 20_000
    assert stats["cached_size_per_second"] > 100_000
    assert stats["encode_per_second"] > 10_000
