"""Supervised shard runtime: checkpoints, resume, watchdog, respawn.

Recovery must never trade correctness for liveness: a resumed run, a
run that survived a hung worker via respawn, and an uninterrupted run
all produce byte-identical betweenness, rounds, bits, messages and
per-round series.  A snapshot that cannot be proven intact (torn
manifest, checksum mismatch, wrong schema) raises
:class:`CheckpointError` — the runtime falls back to an older snapshot
or degrades to a *partial* answer, but never resumes from garbage.
"""

import multiprocessing
import pickle
import signal
import time
import types
from pathlib import Path

import pytest

from repro.core import distributed_betweenness
from repro.exceptions import (
    CheckpointError,
    CheckpointPause,
    EngineCapabilityError,
    SupervisionConfigError,
)
from repro.faults import CrashWindow, FaultPlan, SlowWorker, WorkerHang
from repro.graphs import (
    barabasi_albert_graph,
    cycle_graph,
    figure1_graph,
    grid_graph,
    lollipop_graph,
    path_graph,
)
from repro.obs.history import entry_from_result
from repro.shard import (
    CHECKPOINT_SCHEMA,
    SupervisionConfig,
    list_checkpoints,
    load_checkpoint,
    read_checkpoint,
    read_manifest,
    resolve_checkpoint,
    supervision_for,
    write_checkpoint,
)
from repro.shard.checkpoint import (
    corrupt_checkpoint,
    prune_checkpoints,
)
from repro.shard.supervisor import DEFAULT_HEARTBEAT_TIMEOUT, WorkerFailure


def _fingerprint(result):
    """Every observable of a protocol run, in comparable form."""
    return {
        "betweenness": sorted(result.betweenness.items()),
        "diameter": result.diameter,
        "rounds": result.rounds,
        "start_times": sorted(result.start_times.items()),
        "summary": result.stats.summary(),
        "round_series": result.stats.round_series,
        "worst_edge": result.stats.worst_edge,
    }


def _fingerprint_sans_faults(result):
    """Fingerprint of an infra-fault run, comparable to a fault-free one.

    Worker hangs/stragglers are machine faults, not protocol faults:
    the summary grows a ``faults`` block merely because a plan was
    attached, but every counter in it must be zero — asserted here —
    and the rest of the fingerprint must match the clean run exactly.
    """
    fp = _fingerprint(result)
    summary = dict(fp["summary"])
    faults = summary.pop("faults", None)
    if faults is not None:
        assert all(not v for v in faults.values()), faults
    return dict(fp, summary=summary)


def _with_pending_fault_counters(ckpt):
    """Rewrite a checkpoint in the layout that kept every dead shard's
    fault counters pending in ``coordinator.bin`` (to be merged at run
    end) instead of absorbed into shard 0's injector."""
    state = read_checkpoint(ckpt)
    coord = pickle.loads(state["coordinator"])
    shard0 = pickle.loads(state["shards"][0])
    assert coord["dead_payloads"]
    own = shard0["faults"]
    for shard, payload in coord["dead_payloads"].items():
        if shard == 0:
            continue  # shard 0 counted on this injector all along
        for name, value in payload["faults"]["counters"].items():
            own["counters"][name] -= value
        for span in payload["faults"]["recoveries"]:
            own["recoveries"].remove(span)
    coord["dead_seen"] = set()
    coord["merged_fault_payloads"] = [
        payload["faults"] for payload in coord["dead_payloads"].values()
    ]
    write_checkpoint(
        ckpt.parent,
        state["round"],
        {**state["shards"], 0: pickle.dumps(shard0)},
        pickle.dumps(coord),
        state["manifest"]["meta"],
    )


# ----------------------------------------------------------------------
# checkpoint store
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def _write(self, run_dir, round_number=4, payload=b"shard-state"):
        return write_checkpoint(
            run_dir,
            round_number,
            {1: payload, 2: payload * 2},
            b"coordinator-state",
            {"n": 10, "workers": 3},
        )

    def test_round_trip(self, tmp_path):
        ckpt = self._write(tmp_path)
        manifest, files = load_checkpoint(ckpt)
        assert manifest["schema"] == CHECKPOINT_SCHEMA
        assert manifest["round"] == 4
        assert manifest["meta"] == {"n": 10, "workers": 3}
        assert files["shard-1.bin"] == b"shard-state"
        assert files["shard-2.bin"] == b"shard-state" * 2
        assert files["coordinator.bin"] == b"coordinator-state"

    def test_resolve_prefers_highest_valid_round(self, tmp_path):
        self._write(tmp_path, round_number=4)
        newest = self._write(tmp_path, round_number=12)
        assert resolve_checkpoint(tmp_path) == newest
        # Pointing straight at a snapshot dir resolves to itself.
        assert resolve_checkpoint(newest) == newest

    def test_list_is_oldest_first(self, tmp_path):
        for rnd in (12, 4, 8):
            self._write(tmp_path, round_number=rnd)
        rounds = [read_manifest(p)["round"] for p in list_checkpoints(tmp_path)]
        assert rounds == [4, 8, 12]

    def test_prune_keeps_newest(self, tmp_path):
        for rnd in (2, 4, 6, 8):
            self._write(tmp_path, round_number=rnd)
        removed = prune_checkpoints(tmp_path, keep=2)
        assert removed == 2
        rounds = [read_manifest(p)["round"] for p in list_checkpoints(tmp_path)]
        assert rounds == [6, 8]

    def test_torn_manifest_raises(self, tmp_path):
        ckpt = self._write(tmp_path)
        manifest_path = ckpt / "manifest.json"
        text = manifest_path.read_text()
        manifest_path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError, match="torn manifest"):
            read_manifest(ckpt)

    def test_missing_manifest_raises(self, tmp_path):
        ckpt = self._write(tmp_path)
        (ckpt / "manifest.json").unlink()
        with pytest.raises(CheckpointError, match="no readable manifest"):
            read_manifest(ckpt)

    def test_schema_mismatch_raises(self, tmp_path):
        import json

        ckpt = self._write(tmp_path)
        manifest_path = ckpt / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema"] = "repro-ckpt-v999"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="schema"):
            read_manifest(ckpt)

    def test_flipped_byte_fails_checksum(self, tmp_path):
        ckpt = self._write(tmp_path)
        victim = corrupt_checkpoint(ckpt, seed=3, round_number=4)
        assert victim != "manifest.json"
        with pytest.raises(CheckpointError, match="blake2b"):
            load_checkpoint(ckpt)

    def test_short_file_fails_length_check(self, tmp_path):
        ckpt = self._write(tmp_path)
        path = ckpt / "coordinator.bin"
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CheckpointError, match="bytes"):
            load_checkpoint(ckpt)

    def test_resolve_skips_corrupt_newest(self, tmp_path):
        older = self._write(tmp_path, round_number=4)
        newest = self._write(tmp_path, round_number=8)
        (newest / "manifest.json").write_text("{ not json")
        assert resolve_checkpoint(tmp_path) == older

    def test_resolve_empty_dir_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            resolve_checkpoint(tmp_path)


# ----------------------------------------------------------------------
# supervision config surface
# ----------------------------------------------------------------------
class TestSupervisionConfig:
    def test_checkpoints_need_a_directory(self):
        with pytest.raises(ValueError):
            SupervisionConfig(checkpoint_every=5)

    def test_keep_floor_is_two(self):
        with pytest.raises(ValueError):
            SupervisionConfig(keep_checkpoints=1)

    def test_fills_in_its_own_defaults(self, tmp_path):
        sup = SupervisionConfig(
            heartbeat_timeout=None,
            checkpoint_every=5,
            checkpoint_dir=tmp_path,
            resume_from=tmp_path / "ckpt",
        )
        assert sup.heartbeat_timeout == DEFAULT_HEARTBEAT_TIMEOUT
        assert sup.checkpoint_dir == str(tmp_path)
        assert sup.resume_from == str(tmp_path / "ckpt")

    def test_backoff_doubles_then_caps(self):
        sup = SupervisionConfig(backoff_base=0.1, backoff_cap=0.5)
        delays = [sup.backoff(i) for i in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_infra_fault_plan_implies_supervision(self):
        plan = FaultPlan(seed=1, worker_hangs=(WorkerHang(shard=1, round=3),))
        assert supervision_for(plan, None) is not None
        assert supervision_for(FaultPlan(seed=1), None) is None
        explicit = SupervisionConfig(max_restarts=7)
        assert supervision_for(plan, explicit) is explicit

    def test_supervision_given_two_ways_raises(self, tmp_path):
        """The scalar flags and supervision= never silently merge."""
        with pytest.raises(SupervisionConfigError, match="not both"):
            distributed_betweenness(
                cycle_graph(12),
                engine="shard",
                workers=2,
                checkpoint_every=4,
                checkpoint_dir=str(tmp_path),
                supervision=SupervisionConfig(max_restarts=1),
            )
        assert not any(tmp_path.iterdir())

    def test_supervision_requires_shard_engine(self):
        with pytest.raises(EngineCapabilityError, match="shard"):
            distributed_betweenness(
                figure1_graph(),
                engine="event",
                supervision=SupervisionConfig(max_restarts=1),
            )

    def test_infra_fault_validation(self):
        with pytest.raises(ValueError):
            WorkerHang(shard=0, round=3)  # shard 0 lives in-coordinator
        with pytest.raises(ValueError):
            SlowWorker(shard=1, round=3, delay=0.0)


# ----------------------------------------------------------------------
# pause / resume bit-identity
# ----------------------------------------------------------------------
RESUME_ZOO = [
    cycle_graph(12),
    path_graph(10),
    grid_graph(3, 4),
    lollipop_graph(5, 4),
]


class TestPauseResume:
    @pytest.mark.parametrize("graph", RESUME_ZOO, ids=lambda g: g.name)
    @pytest.mark.parametrize("protocol", ["hua-bc", "cfp-bc"])
    def test_resume_is_bit_identical(self, graph, protocol, tmp_path):
        reference = _fingerprint(
            distributed_betweenness(
                graph, engine="shard", workers=3, protocol=protocol
            )
        )
        # A fully-supervised run writes checkpoints but changes nothing.
        supervised = distributed_betweenness(
            graph,
            engine="shard",
            workers=3,
            protocol=protocol,
            checkpoint_every=3,
            checkpoint_dir=str(tmp_path),
        )
        assert _fingerprint(supervised) == reference
        assert supervised.stats.supervisor["checkpoints_written"] > 0
        # Resume from the newest surviving snapshot: same answer, bit
        # for bit, and the stats ledger knows where it came from.
        ckpt = resolve_checkpoint(tmp_path)
        resumed = distributed_betweenness(
            graph,
            engine="shard",
            workers=3,
            protocol=protocol,
            resume_from=str(ckpt),
        )
        assert _fingerprint(resumed) == reference
        assert resumed.stats.supervisor["resumed_from"] == read_manifest(
            ckpt
        )["round"]

    def test_pause_raises_after_durable_write(self, tmp_path):
        graph = cycle_graph(16)
        sup = SupervisionConfig(
            checkpoint_every=5,
            checkpoint_dir=str(tmp_path),
            stop_after=10,
        )
        with pytest.raises(CheckpointPause) as excinfo:
            distributed_betweenness(
                graph, engine="shard", workers=3, supervision=sup
            )
        pause = excinfo.value
        assert pause.round_number == 10
        # The snapshot named by the pause is already durable and valid.
        manifest, _files = load_checkpoint(pause.checkpoint_path)
        assert manifest["round"] == 10
        reference = _fingerprint(
            distributed_betweenness(graph, engine="shard", workers=3)
        )
        resumed = distributed_betweenness(
            graph,
            engine="shard",
            workers=3,
            resume_from=str(pause.checkpoint_path),
        )
        assert _fingerprint(resumed) == reference

    @pytest.mark.parametrize("protocol", ["hua-bc", "cfp-bc"])
    def test_resume_under_message_and_crash_faults(self, protocol, tmp_path):
        graph = cycle_graph(14)
        plan = FaultPlan(
            seed=11,
            drop_rate=0.03,
            duplicate_rate=0.03,
            crashes=(CrashWindow(5, 8, 20),),
        )
        reference = _fingerprint(
            distributed_betweenness(
                graph,
                engine="shard",
                workers=3,
                protocol=protocol,
                faults=plan,
                resilient=True,
            )
        )
        supervised = distributed_betweenness(
            graph,
            engine="shard",
            workers=3,
            protocol=protocol,
            faults=plan,
            resilient=True,
            checkpoint_every=4,
            checkpoint_dir=str(tmp_path),
        )
        assert _fingerprint(supervised) == reference
        resumed = distributed_betweenness(
            graph,
            engine="shard",
            workers=3,
            protocol=protocol,
            faults=plan,
            resilient=True,
            resume_from=str(resolve_checkpoint(tmp_path)),
        )
        assert _fingerprint(resumed) == reference

    @pytest.mark.parametrize(
        "pair", [(4, 5), (0, 1)], ids=["shard2", "shard0"]
    )
    def test_resume_with_pending_dead_shard_counters(self, pair, tmp_path):
        """A checkpoint whose dead shards' fault counters are still
        pending resumes to the event run's counters."""
        graph = path_graph(8)
        plan = FaultPlan(
            seed=3,
            drop_rate=0.05,
            crashes=tuple(CrashWindow(v, 6, None) for v in pair),
        )
        common = dict(arithmetic="lfloat", faults=plan, resilient=True)
        reference = distributed_betweenness(graph, engine="event", **common)
        sharded = dict(common, engine="shard", workers=4, partitioner="block")
        with pytest.raises(CheckpointPause) as excinfo:
            distributed_betweenness(
                graph,
                supervision=SupervisionConfig(
                    checkpoint_every=10,
                    checkpoint_dir=str(tmp_path),
                    stop_after=20,
                ),
                **sharded,
            )
        ckpt = Path(excinfo.value.checkpoint_path)
        _with_pending_fault_counters(ckpt)
        resumed = distributed_betweenness(
            graph, resume_from=str(ckpt), **sharded
        )
        assert (
            resumed.stats.faults.as_dict()
            == reference.stats.faults.as_dict()
        )
        assert resumed.completeness == reference.completeness
        assert resumed.betweenness == reference.betweenness

    def test_resume_refuses_a_different_run(self, tmp_path):
        graph = cycle_graph(12)
        sup = SupervisionConfig(
            checkpoint_every=3, checkpoint_dir=str(tmp_path)
        )
        distributed_betweenness(
            graph, engine="shard", workers=3, supervision=sup
        )
        ckpt = resolve_checkpoint(tmp_path)
        same = dict(graph=graph, engine="shard", workers=3)
        for change, field in (
            ({"graph": path_graph(12)}, "graph"),
            ({"workers": 4}, "workers"),
            ({"arithmetic": "exact"}, "arithmetic"),
            ({"resilient": True}, "resilient"),
            ({"faults": FaultPlan(seed=9, drop_rate=0.1)}, "faults"),
            ({"root": 1}, "root"),
        ):
            with pytest.raises(
                CheckpointError, match="different run — .*" + field
            ):
                distributed_betweenness(
                    resume_from=str(ckpt), **dict(same, **change)
                )

    def test_resume_checks_an_older_manifest_on_what_it_records(
        self, tmp_path
    ):
        """A manifest that records only graph, n, workers, partitioner,
        protocol and run_key (the layout before the full run identity)
        still resumes to the uninterrupted result."""
        graph = cycle_graph(14)
        common = dict(
            faults=FaultPlan(seed=11, drop_rate=0.05, duplicate_rate=0.02),
            resilient=True,
        )
        reference = distributed_betweenness(graph, engine="event", **common)
        sharded = dict(common, engine="shard", workers=2)
        with pytest.raises(CheckpointPause) as excinfo:
            distributed_betweenness(
                graph,
                supervision=SupervisionConfig(
                    checkpoint_every=10,
                    checkpoint_dir=str(tmp_path),
                    stop_after=20,
                ),
                **sharded,
            )
        ckpt = Path(excinfo.value.checkpoint_path)
        state = read_checkpoint(ckpt)
        meta = state["manifest"]["meta"]
        old = ("graph", "n", "workers", "partitioner", "protocol", "run_key")
        write_checkpoint(
            ckpt.parent,
            state["round"],
            state["shards"],
            state["coordinator"],
            {key: meta[key] for key in old},
        )
        assert set(read_manifest(ckpt)["meta"]) == set(old)
        resumed = distributed_betweenness(
            graph, resume_from=str(ckpt), **sharded
        )
        assert resumed.betweenness == reference.betweenness
        assert resumed.rounds == reference.rounds
        assert resumed.stats.summary() == reference.stats.summary()


# ----------------------------------------------------------------------
# one checkpoint root shared by different runs
# ----------------------------------------------------------------------
class TestSharedCheckpointRoot:
    @pytest.mark.parametrize(
        "setting",
        [{"arithmetic": "exact"}, {"resilient": True}, {"root": 5}],
        ids=["arithmetic", "resilient", "root"],
    )
    def test_runs_differing_in_one_setting_never_mix(
        self, setting, tmp_path
    ):
        """Two runs sharing a checkpoint root and a worker-hang plan
        (so a rollback reads the root) keep to their own snapshots."""
        # No symmetry: on a cycle the root-0 and root-5 runs coincide.
        graph = barabasi_albert_graph(24, 2, seed=1)
        plan = FaultPlan(seed=3, worker_hangs=(WorkerHang(shard=1, round=45),))

        def shard_run(**kwargs):
            return distributed_betweenness(
                graph,
                engine="shard",
                workers=2,
                faults=plan,
                supervision=SupervisionConfig(
                    heartbeat_timeout=0.5,
                    max_restarts=1,
                    checkpoint_every=10,
                    checkpoint_dir=str(tmp_path),
                ),
                **kwargs,
            )

        shard_run()
        second = shard_run(**setting)
        assert second.stats.supervisor["rollbacks"] == 1
        assert len(list(tmp_path.iterdir())) == 2
        reference = distributed_betweenness(graph, engine="event", **setting)
        assert second.rounds == reference.rounds
        assert second.stats.bit_count == reference.stats.bit_count
        assert second.betweenness == reference.betweenness


# ----------------------------------------------------------------------
# watchdog: hang detection, respawn, stragglers, budget exhaustion
# ----------------------------------------------------------------------
class TestWatchdog:
    @pytest.mark.parametrize("protocol", ["hua-bc", "cfp-bc"])
    def test_hung_worker_respawned_identical(self, protocol, tmp_path):
        graph = cycle_graph(12)
        reference = _fingerprint(
            distributed_betweenness(
                graph, engine="shard", workers=3, protocol=protocol
            )
        )
        plan = FaultPlan(seed=7, worker_hangs=(WorkerHang(shard=1, round=9),))
        recovered = distributed_betweenness(
            graph,
            engine="shard",
            workers=3,
            protocol=protocol,
            faults=plan,
            supervision=SupervisionConfig(
                heartbeat_timeout=0.5,
                max_restarts=2,
                checkpoint_every=4,
                checkpoint_dir=str(tmp_path),
            ),
        )
        assert _fingerprint_sans_faults(recovered) == reference
        sup = recovered.stats.supervisor
        assert sup["restarts"] == 1
        assert sup["hang_detections"] == 1
        assert sup["rollbacks"] == 1
        assert sup["shards_abandoned"] == []
        assert recovered.completeness is None or recovered.completeness.complete

    def test_hang_without_checkpoints_replays_from_round_zero(self):
        graph = cycle_graph(10)
        reference = _fingerprint(
            distributed_betweenness(graph, engine="shard", workers=3)
        )
        plan = FaultPlan(seed=3, worker_hangs=(WorkerHang(shard=2, round=6),))
        recovered = distributed_betweenness(
            graph,
            engine="shard",
            workers=3,
            faults=plan,
            supervision=SupervisionConfig(
                heartbeat_timeout=0.5, max_restarts=1
            ),
        )
        assert _fingerprint_sans_faults(recovered) == reference
        assert recovered.stats.supervisor["restarts"] == 1

    def test_repeat_hang_consumes_budget_then_succeeds(self):
        graph = cycle_graph(10)
        reference = _fingerprint(
            distributed_betweenness(graph, engine="shard", workers=3)
        )
        plan = FaultPlan(
            seed=5, worker_hangs=(WorkerHang(shard=1, round=5, repeats=2),)
        )
        recovered = distributed_betweenness(
            graph,
            engine="shard",
            workers=3,
            faults=plan,
            supervision=SupervisionConfig(
                heartbeat_timeout=0.5, max_restarts=3, backoff_base=0.01
            ),
        )
        assert _fingerprint_sans_faults(recovered) == reference
        assert recovered.stats.supervisor["restarts"] == 2
        assert recovered.stats.supervisor["hang_detections"] == 2

    def test_slow_worker_is_not_a_false_positive(self):
        graph = cycle_graph(10)
        reference = _fingerprint(
            distributed_betweenness(graph, engine="shard", workers=3)
        )
        plan = FaultPlan(
            seed=9, slow_workers=(SlowWorker(shard=1, round=4, delay=1.2),)
        )
        tolerated = distributed_betweenness(
            graph,
            engine="shard",
            workers=3,
            faults=plan,
            supervision=SupervisionConfig(heartbeat_timeout=0.5),
        )
        # The straggler keeps heartbeating through its delay, so the
        # watchdog must wait it out rather than declare it hung.
        assert _fingerprint_sans_faults(tolerated) == reference
        assert tolerated.stats.supervisor["hang_detections"] == 0
        assert tolerated.stats.supervisor["restarts"] == 0

    def test_budget_exhausted_degrades_to_partial(self):
        graph = cycle_graph(10)
        plan = FaultPlan(
            seed=7, worker_hangs=(WorkerHang(shard=1, round=5, repeats=99),)
        )
        result = distributed_betweenness(
            graph,
            engine="shard",
            workers=3,
            faults=plan,
            resilient=True,
            supervision=SupervisionConfig(
                heartbeat_timeout=0.5, max_restarts=0
            ),
        )
        # No restart budget: the shard is abandoned and the run returns
        # a partial CompletenessReport instead of stalling forever.
        assert not result.completeness.complete
        sup = result.stats.supervisor
        assert sup["shards_abandoned"] == [1]
        assert sup["restarts"] == 0
        assert sup["hang_detections"] >= 1

    def test_abandoned_shard_stalls_once_nothing_can_wake(self):
        # Without the resilient transport no retransmission timer keeps
        # the survivors waking, so the run falls silent.  It stalls
        # there, before any stall deadline (last progress + patience +
        # 1 > patience) could fire.
        plan = FaultPlan(
            seed=7, worker_hangs=(WorkerHang(shard=1, round=5, repeats=99),)
        )
        result = distributed_betweenness(
            cycle_graph(10),
            engine="shard",
            workers=3,
            faults=plan,
            supervision=SupervisionConfig(
                heartbeat_timeout=0.5, max_restarts=0
            ),
        )
        report = result.completeness
        assert not report.complete
        assert result.stats.supervisor["shards_abandoned"] == [1]
        assert report.stalled_round <= plan.stall_patience

    def test_corrupt_newest_checkpoint_falls_back_to_older(self, tmp_path):
        graph = cycle_graph(12)
        reference = _fingerprint(
            distributed_betweenness(graph, engine="shard", workers=3)
        )
        # Every snapshot this plan writes at round 8 is corrupted on
        # disk right after the write; the hang at round 9 then forces a
        # rollback, which must reject round 8 and restore round 4.
        plan = FaultPlan(
            seed=13,
            worker_hangs=(WorkerHang(shard=1, round=9),),
            corrupt_checkpoint_rounds=(8,),
        )
        recovered = distributed_betweenness(
            graph,
            engine="shard",
            workers=3,
            faults=plan,
            supervision=SupervisionConfig(
                heartbeat_timeout=0.5,
                max_restarts=2,
                checkpoint_every=4,
                checkpoint_dir=str(tmp_path),
            ),
        )
        assert _fingerprint_sans_faults(recovered) == reference
        assert recovered.stats.supervisor["restarts"] == 1


# ----------------------------------------------------------------------
# shutdown escalation
# ----------------------------------------------------------------------
def _sigterm_immune_child():
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(3600)


class TestShutdownEscalation:
    def test_kill_escalation_reaps_a_sigterm_immune_child(self):
        from repro.shard.runtime import _Coordinator

        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_sigterm_immune_child, daemon=True)
        proc.start()
        child_conn.close()
        fake = types.SimpleNamespace(
            children=[(1, parent_conn, proc)],
            alive=[True, False],
            _join_timeout=0.2,
        )
        start = time.monotonic()
        _Coordinator.shutdown(fake, notify=False)
        elapsed = time.monotonic() - start
        assert not proc.is_alive()
        # join(0.2) + terminate + join(0.2) + kill + join(0.2): well
        # under the old block-forever behaviour.
        assert elapsed < 5.0
        proc.join()


# ----------------------------------------------------------------------
# history ledger fields
# ----------------------------------------------------------------------
class TestHistoryFields:
    def test_restart_and_resume_fields_do_not_fork_the_key(self, tmp_path):
        graph = cycle_graph(12)
        plain = distributed_betweenness(graph, engine="shard", workers=3)
        plan = FaultPlan(seed=7, worker_hangs=(WorkerHang(shard=1, round=9),))
        recovered = distributed_betweenness(
            graph,
            engine="shard",
            workers=3,
            faults=plan,
            supervision=SupervisionConfig(
                heartbeat_timeout=0.5, max_restarts=1
            ),
        )
        entry_plain = entry_from_result(plain, graph, git_rev="t")
        entry_rec = entry_from_result(recovered, graph, git_rev="t")
        assert entry_plain["workers_restarted"] == 0
        assert entry_plain["resumed_from"] is None
        assert entry_rec["workers_restarted"] == 1
        assert entry_rec["resumed_from"] is None
        # Restart history is operational noise, not identity: the two
        # runs computed the same thing under the same config... except
        # the fault plan, which legitimately forks the key.  Compare a
        # resumed run against its uninterrupted twin instead.
        supervised = distributed_betweenness(
            graph,
            engine="shard",
            workers=3,
            checkpoint_every=4,
            checkpoint_dir=str(tmp_path),
        )
        resumed = distributed_betweenness(
            graph,
            engine="shard",
            workers=3,
            resume_from=str(resolve_checkpoint(tmp_path)),
        )
        entry_sup = entry_from_result(supervised, graph, git_rev="t")
        entry_res = entry_from_result(resumed, graph, git_rev="t")
        assert entry_res["resumed_from"] is not None
        assert entry_res["key"] == entry_sup["key"] == entry_plain["key"]


# ----------------------------------------------------------------------
# failure-path plumbing
# ----------------------------------------------------------------------
class TestWorkerFailure:
    def test_carries_shard_and_reason(self):
        failure = WorkerFailure(2, "hung", "no heartbeat for 1.0s")
        assert failure.shard == 2
        assert failure.reason == "hung"
        assert "no heartbeat" in str(failure)
