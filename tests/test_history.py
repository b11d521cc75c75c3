"""Run-history ledger: content-addressed keys, ingestion, regression gates.

The ledger (:mod:`repro.obs.history`) is an append-only JSONL file keyed
by a content address over (graph fingerprint, config, engine, git rev):
identical runs map to identical keys, so a regression is literally "the
same key with different numbers".  ``repro bench compare`` turns the
committed BENCH payloads into go/no-go gates: structural metrics
(rounds, billed bits, message counts, result identity) must match
exactly; wall-clock ratios get configurable headroom.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import distributed_betweenness
from repro.graphs import cycle_graph, path_graph
from repro.obs import (
    HistoryLedger,
    RegressionGates,
    compare_payloads,
    entry_from_result,
    graph_fingerprint,
    run_key,
)
from repro.obs.history import BENCH_SPECS

CONFIG = {"arithmetic": "lfloat", "strict": True}


def engine_payload(**overrides):
    """A minimal BENCH_engine.json-shaped payload for gate tests."""
    row = {
        "family": "cycle",
        "n": 400,
        "rounds": 1206,
        "bits": 5_222_400,
        "messages": 320_400,
        "identical_results": True,
        "sweep_seconds": 2.0,
        "event_seconds": 1.0,
        "bulk_seconds": 0.2,
        "event_speedup": 2.0,
        "bulk_speedup": 10.0,
    }
    row.update(overrides)
    return {
        "benchmark": "engine_comparison",
        "engines": ["sweep", "event", "bulk"],
        "rows": [row],
    }


class TestContentAddressing:
    def test_identical_runs_identical_keys(self):
        graph = path_graph(9)
        key_a = run_key(graph_fingerprint(graph), CONFIG, "event", "abc123")
        key_b = run_key(graph_fingerprint(path_graph(9)), CONFIG, "event", "abc123")
        assert key_a == key_b
        assert len(key_a) == 16
        int(key_a, 16)  # hex-addressable

    def test_any_ingredient_changes_the_key(self):
        base = run_key(graph_fingerprint(path_graph(9)), CONFIG, "event", "abc")
        assert run_key(
            graph_fingerprint(path_graph(10)), CONFIG, "event", "abc"
        ) != base
        assert run_key(
            graph_fingerprint(path_graph(9)), CONFIG, "sweep", "abc"
        ) != base
        assert run_key(
            graph_fingerprint(path_graph(9)),
            dict(CONFIG, strict=False),
            "event",
            "abc",
        ) != base
        assert run_key(
            graph_fingerprint(path_graph(9)), CONFIG, "event", "def"
        ) != base

    def test_key_ignores_dict_ordering(self):
        shuffled = {"strict": True, "arithmetic": "lfloat"}
        fingerprint = graph_fingerprint(path_graph(9))
        assert run_key(fingerprint, CONFIG, "event", "abc") == run_key(
            fingerprint, shuffled, "event", "abc"
        )

    def test_graph_fingerprint_is_topology_only(self):
        from repro.graphs import Graph

        a = path_graph(7)
        b = Graph(7, [(i, i + 1) for i in range(6)], name="renamed")
        assert graph_fingerprint(a) == graph_fingerprint(b)


class TestLedger:
    def test_append_and_latest_by_key(self, tmp_path):
        ledger = HistoryLedger(tmp_path / "history.jsonl")
        graph = cycle_graph(10)
        result = distributed_betweenness(graph, engine="event")
        entry = entry_from_result(
            result, graph, CONFIG, git_rev="abc", wall_seconds=0.5
        )
        ledger.append(entry)
        ledger.append(dict(entry, wall_seconds=0.4))
        assert len(ledger) == 2
        latest = ledger.latest(entry["key"])
        assert latest["wall_seconds"] == 0.4
        assert latest["rounds"] == result.rounds
        assert latest["schema"] == "repro-history-v1"

    def test_identical_runs_share_a_ledger_key(self, tmp_path):
        ledger = HistoryLedger(tmp_path / "history.jsonl")
        keys = set()
        for _ in range(2):
            graph = cycle_graph(10)
            result = distributed_betweenness(graph, engine="event")
            stored = ledger.append(
                entry_from_result(result, graph, CONFIG, git_rev="abc")
            )
            keys.add(stored["key"])
        assert len(keys) == 1

    def test_append_repairs_torn_tail(self, tmp_path):
        """Appending after a crash must not corrupt the next record."""
        path = tmp_path / "history.jsonl"
        ledger = HistoryLedger(path)
        ledger.append({"kind": "run", "key": "a" * 16})
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "run", "key": "tor')  # no newline: torn
        ledger.append({"kind": "run", "key": "b" * 16})
        entries = ledger.entries()
        assert [e["key"] for e in entries] == ["a" * 16, "b" * 16]
        assert ledger.skipped_lines == 1

    def test_entries_filter_by_kind_and_key(self, tmp_path):
        ledger = HistoryLedger(tmp_path / "history.jsonl")
        ledger.append({"kind": "run", "key": "k1"})
        ledger.append({"kind": "bench_engine", "key": "k2"})
        assert [e["key"] for e in ledger.entries(kind="run")] == ["k1"]
        assert [e["key"] for e in ledger.entries(key="k2")] == ["k2"]

    def test_bench_ingestion(self, tmp_path):
        ledger = HistoryLedger(tmp_path / "history.jsonl")
        count = ledger.ingest(engine_payload(), git_rev="abc")
        assert count == 1
        entry = ledger.entries(kind="bench_engine")[0]
        assert entry["rounds"] == 1206
        assert entry["bits"] == 5_222_400
        assert entry["git_rev"] == "abc"


class TestRegressionGates:
    def test_self_compare_is_clean(self):
        violations, compared = compare_payloads(
            engine_payload(), engine_payload()
        )
        assert violations == []
        assert compared == 1

    def test_detects_injected_2x_slowdown(self):
        current = engine_payload(
            sweep_seconds=4.0, event_seconds=2.5, bulk_seconds=0.2
        )
        violations, _ = compare_payloads(engine_payload(), current)
        assert violations
        assert all(not v.hard for v in violations)
        assert any("event_seconds" == v.gate for v in violations)

    def test_detects_changed_rounds_as_hard_violation(self):
        violations, _ = compare_payloads(
            engine_payload(), engine_payload(rounds=1213)
        )
        assert any(v.gate == "rounds" and v.hard for v in violations)

    def test_detects_changed_billed_bits_as_hard_violation(self):
        violations, _ = compare_payloads(
            engine_payload(), engine_payload(bits=5_222_401)
        )
        assert any(v.gate == "bits" and v.hard for v in violations)

    def test_detects_speedup_regression(self):
        violations, _ = compare_payloads(
            engine_payload(), engine_payload(bulk_speedup=5.0)
        )
        assert any(v.gate == "bulk_speedup" for v in violations)
        # A drop within the 20% envelope passes.
        violations, _ = compare_payloads(
            engine_payload(), engine_payload(bulk_speedup=8.5)
        )
        assert violations == []

    def test_identity_break_is_hard(self):
        violations, _ = compare_payloads(
            engine_payload(), engine_payload(identical_results=False)
        )
        assert any(v.gate == "identity" and v.hard for v in violations)

    def test_no_wall_skips_soft_gates_only(self):
        gates = RegressionGates(check_wall=False)
        current = engine_payload(sweep_seconds=40.0, rounds=9999)
        violations, _ = compare_payloads(
            engine_payload(), current, gates=gates
        )
        assert violations
        assert all(v.hard for v in violations)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rounds", 1213),
            ("identical_results", False),
            ("bulk_speedup", 5.0),
            ("event_seconds", 3.0),
        ],
    )
    def test_message_names_row_and_key(self, key, value):
        violations, _ = compare_payloads(
            engine_payload(), engine_payload(**{key: value})
        )
        assert len(violations) == 1
        assert all(
            part in violations[0].message
            for part in ("family=cycle", "n=400", key)
        )

    def test_mismatched_benchmark_kind_is_a_schema_violation(self):
        violations, compared = compare_payloads(
            engine_payload(), {"benchmark": "fault_layer"}
        )
        assert compared == 0
        assert any(v.gate == "schema" and v.hard for v in violations)


class TestCliBench:
    def run(self, *argv):
        return main(list(argv))

    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_compare_clean_exits_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", engine_payload())
        cur = self._write(tmp_path, "cur.json", engine_payload())
        assert self.run("bench", "compare", base, cur) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_compare_slowdown_exits_nonzero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", engine_payload())
        cur = self._write(
            tmp_path, "cur.json",
            engine_payload(sweep_seconds=4.0, event_seconds=2.5),
        )
        assert self.run("bench", "compare", base, cur) == 1
        assert "event_seconds" in capsys.readouterr().out

    def test_compare_changed_rounds_exits_nonzero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", engine_payload())
        cur = self._write(tmp_path, "cur.json", engine_payload(rounds=1300))
        assert self.run("bench", "compare", base, cur) == 1
        assert "rounds" in capsys.readouterr().out

    def test_warn_only_downgrades_exit_code(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", engine_payload())
        cur = self._write(tmp_path, "cur.json", engine_payload(rounds=1300))
        assert self.run("bench", "compare", base, cur, "--warn-only") == 0
        assert "rounds" in capsys.readouterr().out

    def test_no_wall_ignores_slowdown(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", engine_payload())
        cur = self._write(
            tmp_path, "cur.json", engine_payload(sweep_seconds=40.0)
        )
        assert self.run("bench", "compare", base, cur, "--no-wall") == 0

    def test_compare_records_to_ledger(self, tmp_path):
        base = self._write(tmp_path, "base.json", engine_payload())
        cur = self._write(tmp_path, "cur.json", engine_payload())
        ledger_path = tmp_path / "history.jsonl"
        assert self.run(
            "bench", "compare", base, cur, "--ledger", str(ledger_path)
        ) == 0
        assert len(HistoryLedger(ledger_path).entries(kind="bench_engine")) == 1

    def test_bench_ingest(self, tmp_path, capsys):
        payload = self._write(tmp_path, "bench.json", engine_payload())
        ledger_path = tmp_path / "history.jsonl"
        assert self.run(
            "bench", "ingest", payload, "--ledger", str(ledger_path)
        ) == 0
        assert len(HistoryLedger(ledger_path)) == 1

    def test_compare_ledger_skips_unknown_kind(self, tmp_path, capsys):
        payload = self._write(tmp_path, "cs.json", {"benchmark": "coldstart"})
        ledger_path = tmp_path / "history.jsonl"
        self.run(
            "bench", "compare", payload, payload, "--ledger", str(ledger_path)
        )
        out = capsys.readouterr().out
        assert "current payload not recorded: unknown benchmark kind" in out
        assert not ledger_path.exists()

    @pytest.mark.parametrize("verb", ["compare", "ingest"])
    @pytest.mark.parametrize(
        "content", [None, "{not json", "[1, 2]"],
        ids=["missing", "not-json", "list"],
    )
    def test_unreadable_payload_exits_with_message(
        self, tmp_path, verb, content
    ):
        path = tmp_path / "bench.json"
        if content is not None:
            path.write_text(content)
        argv = ["bench", verb, str(path)]
        if verb == "compare":
            argv.append(str(path))
        else:
            argv += ["--ledger", str(tmp_path / "history.jsonl")]
        with pytest.raises(SystemExit) as exit:
            self.run(*argv)
        assert str(exit.value.code).startswith("cannot read {}: ".format(path))

    @pytest.mark.parametrize("verb", ["compare", "ingest"])
    def test_help_names_every_gated_file(self, verb, capsys):
        with pytest.raises(SystemExit):
            self.run("bench", verb, "--help")
        help_text = " ".join(capsys.readouterr().out.split())
        for spec in BENCH_SPECS:
            assert "BENCH_{}.json".format(spec.name) in help_text


def test_observability_doc_lists_every_gate():
    """docs/observability.md has one gate-table line per spec entry,
    naming each key the spec gates."""
    doc = (
        Path(__file__).resolve().parent.parent / "docs" / "observability.md"
    ).read_text(encoding="utf-8")
    lines = doc.splitlines()
    for spec in BENCH_SPECS:
        prefix = "| `BENCH_{}.json`".format(spec.name)
        (line,) = [ln for ln in lines if ln.startswith(prefix)]
        keys = (
            [key for table in spec.tables for key in table.ids]
            + list(spec.exact) + [flag for flag, _ in spec.flags]
            + list(spec.speedups) + list(spec.slowdowns)
            + list(spec.ceilings)
        )
        for key in keys:
            assert "`{}`".format(key) in line, (spec.name, key)
