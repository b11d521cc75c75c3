"""One gate table for every benchmark ``repro bench compare`` holds.

Each committed ``BENCH_*.json`` baseline must compare clean against
itself, and every injected regression must give exactly the expected
``(gate, hard)`` verdicts: a bumped exact key, a flipped must-stay-true
flag, a tripled wall time, a halved speedup, a dropped row, and a
checkpoint overhead over the 5% ceiling.  Bumping a recorded but
ungated key must give none.  The table below is written out by hand,
independent of the spec table in :mod:`repro.obs.history`, so a spec
edit that changes a verdict fails here.

Ledger records of the committed payloads are pinned too: the content
key and the field names of one record per row table, at a fixed git
revision, so the history trajectory cannot fork silently.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.obs.history import HistoryLedger, RegressionGates, compare_payloads

ROOT = Path(__file__).resolve().parent.parent

#: Per benchmark: rows a self-compare counts, then one entry per row
#: table — its path in the payload (a dict there is a single row), the
#: row id keys, and what the gate holds on those rows.
GATES = {
    "engine": (4, [
        dict(
            path=("rows",), ids=("family", "n"),
            exact=("rounds", "bits", "messages"),
            flags={"identical_results": "identity"},
            speedups=("event_speedup", "bulk_speedup"),
            slowdowns=("sweep_seconds", "event_seconds", "bulk_seconds"),
            ungated=("ledger_words",),
        ),
    ]),
    "faults": (3, [
        dict(
            path=("disabled_overhead",), ids=(),
            flags={"identical_results": "identity"},
            slowdowns=("overhead_ratio",),
            ungated=("bare_seconds", "faults_none_seconds"),
        ),
        dict(
            path=("recovery_overhead", "rows"), ids=("drop_rate",),
            exact=("rounds", "dropped"),
            flags={"recovered_exactly": "recovery"},
            ungated=("round_overhead", "seconds"),
        ),
    ]),
    "arena": (12, [
        dict(
            path=("rows",), ids=("protocol", "family", "n"),
            exact=("rounds", "bits", "messages"),
            flags={"matches_brandes": "identity"},
            slowdowns=("wall_seconds",),
            ungated=("max_edge_bits", "max_rel_error"),
        ),
    ]),
    "shard": (8, [
        dict(
            path=("rows",),
            ids=("family", "n", "protocol", "workers", "partitioner"),
            exact=(
                "rounds", "bits", "messages", "edge_cut", "cross_bits",
                "cross_messages",
            ),
            flags={"identical_results": "identity"},
            speedups=("projected_speedup",),
            slowdowns=("event_seconds", "shard_seconds"),
            ungated=("max_shard_ledger_words", "shard_cpu_seconds"),
        ),
    ]),
    "recovery": (9, [
        dict(
            path=("rows",), ids=("family", "n", "protocol", "scenario"),
            exact=("rounds", "bits", "messages", "restarts"),
            flags={"identical_after_resume": "identity"},
            slowdowns=("recovery_seconds", "supervised_seconds"),
            ceiling="overhead_fraction",
            ungated=("checkpoints_written", "checkpoint_bytes"),
        ),
    ]),
}

#: Fields every ledger record of a benchmark payload carries.
STAMP = ("benchmark", "git_rev", "key", "kind", "recorded_unix", "schema")

#: Ledger records pinned per kind for ``HistoryLedger.ingest(committed
#: payload, git_rev="abc")``: the record count, then (record index,
#: content key, fields beyond :data:`STAMP`) for one record per table.
LEDGER_PINS = {
    "engine": ("bench_engine", 4, [
        (0, "b3998f3b67a2e117",
         "arithmetic bits bulk_seconds bulk_speedup engines event_seconds "
         "event_speedup family identical_results messages n rounds "
         "sweep_seconds"),
    ]),
    "faults": ("bench_faults", 3, [
        (0, "5c9c6e8510faa870",
         "gate graph identical_results overhead_ratio"),
        (2, "9cc2ac3e652bc523",
         "complete drop_rate dropped gate graph recovered_exactly "
         "round_overhead rounds seconds"),
    ]),
    "arena": ("bench_arena", 12, [
        (0, "271d72cab786a364",
         "arithmetic bits engine family matches_brandes max_edge_bits "
         "messages n protocol rounds wall_seconds"),
    ]),
    "shard": ("bench_shard", 8, [
        (0, "5ad60734b1b28978",
         "arithmetic bits cross_bits cross_messages edge_cut event_seconds "
         "family identical_results max_shard_ledger_words messages n "
         "partitioner projected_speedup protocol rounds shard_cpu_seconds "
         "shard_seconds workers"),
    ]),
    "recovery": ("bench_recovery", 9, [
        (0, "a263c34c81c2dde6",
         "bits checkpoint_bytes checkpoints_written family "
         "identical_after_resume messages n protocol recovery_seconds "
         "restarts rounds scenario supervised_seconds workers"),
    ]),
}

NO_WALL = RegressionGates(check_wall=False)


def committed(kind):
    with open(ROOT / "BENCH_{}.json".format(kind), encoding="utf-8") as fh:
        return json.load(fh)


def table_rows(payload, path):
    """The row list at ``path``; a dict there is one row."""
    node = payload
    for key in path:
        node = node[key]
    return [node] if isinstance(node, dict) else node


def _bump(value):
    return not value if isinstance(value, bool) else value + 1


def _mutations(table):
    """(case id, mutated key, mutation, expected ``(gate, hard)`` set)."""
    for key in table.get("exact", ()):
        yield "bump-" + key, key, _bump, {(key, True)}
    for flag, gate in table.get("flags", {}).items():
        yield "flip-" + flag, flag, lambda v: False, {(gate, True)}
    for key in table.get("slowdowns", ()):
        yield "triple-" + key, key, lambda v: v * 3, {(key, False)}
    for key in table.get("speedups", ()):
        yield "halve-" + key, key, lambda v: v / 2, {(key, False)}
    if table.get("ceiling"):
        key = table["ceiling"]
        yield "over-ceiling", key, lambda v: 0.06, {(key, False)}
    for key in table.get("ungated", ()):
        yield "ungated-" + key, key, _bump, set()


def _cases():
    for kind, (compared, tables) in GATES.items():
        for t, table in enumerate(tables):
            for case, key, change, expected in _mutations(table):
                yield pytest.param(
                    kind, t, key, change, expected, compared,
                    id="{}-{}-{}".format(kind, table["path"][0], case),
                )


def _verdicts(violations):
    return {(v.gate, v.hard) for v in violations}


def _wall_free(expected):
    """What ``--no-wall`` keeps: hard gates and coverage."""
    return {(g, hard) for g, hard in expected if hard or g == "coverage"}


@pytest.mark.parametrize("kind", sorted(GATES))
def test_committed_baseline_self_compares_clean(kind):
    payload = committed(kind)
    for gates in (RegressionGates(), NO_WALL):
        violations, compared = compare_payloads(payload, payload, gates)
        assert violations == []
        assert compared == GATES[kind][0]


@pytest.mark.parametrize(
    "kind, table_index, key, change, expected, compared", list(_cases())
)
def test_injected_regression(kind, table_index, key, change, expected,
                             compared):
    table = GATES[kind][1][table_index]
    baseline = committed(kind)
    current = copy.deepcopy(baseline)
    # The last row that holds the key: for faults that is drop rate
    # 0.05, where rounds are gated exactly like every other rate.
    row = [r for r in table_rows(current, table["path"]) if key in r][-1]
    row[key] = change(row[key])
    ids = [str(row[k]) for k in table["ids"]]
    for gates, want in ((RegressionGates(), expected),
                        (NO_WALL, _wall_free(expected))):
        violations, got_compared = compare_payloads(baseline, current, gates)
        assert _verdicts(violations) == want
        assert len(violations) == len(want)
        assert got_compared == compared
        for violation in violations:
            assert all(value in violation.message for value in ids)


@pytest.mark.parametrize(
    "kind, table_index",
    [
        (kind, t)
        for kind, (_, tables) in GATES.items()
        for t, table in enumerate(tables)
        if table["ids"]
    ],
)
def test_dropped_row_reports_coverage(kind, table_index):
    """A baseline row the current run lacks is a soft coverage gap,
    reported under ``--no-wall`` too; for faults this is drop rate 0.05.
    """
    table = GATES[kind][1][table_index]
    baseline = committed(kind)
    current = copy.deepcopy(baseline)
    rows = table_rows(current, table["path"])
    dropped = rows.pop()
    for gates in (RegressionGates(), NO_WALL):
        violations, compared = compare_payloads(baseline, current, gates)
        assert _verdicts(violations) == {("coverage", False)}
        assert len(violations) == 1
        assert compared == GATES[kind][0] - 1
        assert all(
            str(dropped[k]) in violations[0].message for k in table["ids"]
        )


@pytest.mark.parametrize("kind", sorted(LEDGER_PINS))
def test_ledger_records_are_pinned(kind, tmp_path):
    record_kind, count, pins = LEDGER_PINS[kind]
    ledger = HistoryLedger(tmp_path / "history.jsonl")
    assert ledger.ingest(committed(kind), git_rev="abc") == count
    records = ledger.entries()
    assert [r["kind"] for r in records] == [record_kind] * count
    assert len({r["key"] for r in records}) == count
    for index, key, fields in pins:
        record = records[index]
        assert record["key"] == key
        assert record["git_rev"] == "abc"
        assert sorted(record) == sorted(STAMP + tuple(fields.split()))
