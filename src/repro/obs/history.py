"""Run-history ledger: content-addressed run records and regression gates.

The BENCH_*.json artifacts are overwritten on every benchmark run, so
the repo's perf trajectory was empty — this module makes it accumulate.
Every record appended to the ledger (``.repro-history.jsonl`` by
default) carries a **content-addressed key**: a blake2b digest over the
canonical JSON of (graph fingerprint, protocol config, engine, git
revision).  Two identical runs — same topology, same configuration,
same code — therefore land under the same key, and a key whose metrics
*change* is, by construction, a regression or an environment delta.

Two families of record kinds share the ledger:

* ``run`` — one protocol run (ingested from a pipeline result or from
  exported repro-metrics-v1 rows);
* ``bench_<name>`` — one row of a gated ``BENCH_<name>.json`` payload,
  one kind per :data:`BENCH_SPECS` entry (``bench_engine`` holds one
  family × N row of ``BENCH_engine.json``, and so on).

The registered protocol is part of every ``run`` record's config, so a
``hua-bc`` run and a ``cfp-bc`` run over the same graph land under
*different* content keys and never gate against each other.

The regression gates (:func:`compare_payloads`) power ``repro bench
compare``: structural metrics (rounds, billed bits, messages,
result-identity) must match **exactly** for an identical config — they
are machine-independent — while wall-clock metrics get configurable
ratio gates (speedup drop, slowdown factor) because timers are not
portable across hosts.  Each gated benchmark is one :class:`BenchSpec`
entry: gating a new benchmark means adding an entry, not code.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "BENCH_SPECS",
    "DEFAULT_HISTORY_PATH",
    "HISTORY_SCHEMA",
    "BenchSpec",
    "HistoryLedger",
    "RegressionGates",
    "RowTable",
    "Violation",
    "MAX_CHECKPOINT_OVERHEAD",
    "compare_payloads",
    "entry_from_result",
    "entry_from_rows",
    "git_revision",
    "graph_fingerprint",
    "run_key",
]

HISTORY_SCHEMA = "repro-history-v1"
DEFAULT_HISTORY_PATH = ".repro-history.jsonl"

#: Hex digits kept from the blake2b digests (64 bits — plenty for a
#: per-repo ledger, short enough to eyeball).
_KEY_LEN = 16


def _canonical(payload: Any) -> bytes:
    """Deterministic JSON bytes: sorted keys, no whitespace drift."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def graph_fingerprint(graph) -> str:
    """Content hash of a topology: node count + sorted edge list."""
    edges = sorted(tuple(sorted(e)) for e in graph.edges())
    digest = hashlib.blake2b(
        _canonical([graph.num_nodes, edges]), digest_size=16
    )
    return digest.hexdigest()[:_KEY_LEN]


def run_key(
    graph_hash: str,
    config: Dict[str, Any],
    engine: str,
    git_rev: Optional[str] = None,
) -> str:
    """The content address of one run configuration."""
    digest = hashlib.blake2b(
        _canonical(
            {
                "graph": graph_hash,
                "config": config,
                "engine": engine,
                "git_rev": git_rev,
            }
        ),
        digest_size=16,
    )
    return digest.hexdigest()[:_KEY_LEN]


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The working tree's HEAD commit, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=cwd,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.decode("ascii", "replace").strip() or None


# ----------------------------------------------------------------------
# record builders
# ----------------------------------------------------------------------
def entry_from_result(
    result,
    graph,
    config: Optional[Dict[str, Any]] = None,
    git_rev: Optional[str] = None,
    wall_seconds: Optional[float] = None,
) -> Dict[str, Any]:
    """A ``run`` record from a pipeline result object."""
    stats = result.stats
    cfg = dict(config or {})
    cfg.setdefault("arithmetic", getattr(result, "arithmetic", None))
    cfg.setdefault("protocol", getattr(result, "protocol", "hua-bc"))
    graph_hash = graph_fingerprint(graph)
    engine = stats.engine or "unknown"
    entry = {
        "kind": "run",
        "key": run_key(graph_hash, cfg, engine, git_rev),
        "graph": graph.name,
        "graph_hash": graph_hash,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "config": cfg,
        "engine": engine,
        "git_rev": git_rev,
        "rounds": stats.rounds,
        "messages": stats.message_count,
        "bits": stats.bit_count,
        "max_edge_bits": stats.max_edge_bits_per_round,
        "diameter": getattr(result, "diameter", None),
    }
    # Worker count is recorded for provenance but deliberately kept out
    # of the hashed config: a sharded run is bit-identical to the
    # single-process one, so W must not fork the content key.
    shard = getattr(stats, "shard", None)
    entry["workers"] = shard["workers"] if shard else 1
    # Same rule for supervision: respawns and resume points are wall-
    # clock history, not protocol configuration — a recovered or resumed
    # run IS the uninterrupted run, so neither may fork the content key.
    supervisor = getattr(stats, "supervisor", None)
    entry["workers_restarted"] = (
        supervisor["restarts"] if supervisor else 0
    )
    entry["resumed_from"] = (
        supervisor["resumed_from"] if supervisor else None
    )
    if wall_seconds is not None:
        entry["wall_seconds"] = round(wall_seconds, 6)
    return entry


def entry_from_rows(
    rows: Iterable[Dict[str, Any]],
    git_rev: Optional[str] = None,
) -> Dict[str, Any]:
    """A ``run`` record from exported repro-metrics-v1 rows.

    Exported rows carry the graph's name and size but not its edges, so
    the "graph hash" falls back to hashing (name, N, E) — stable for
    the deterministic generators the CLI uses.
    """
    meta: Dict[str, Any] = {}
    metrics: Dict[str, Any] = {}
    for row in rows:
        if row.get("event") == "meta":
            meta = row
        elif row.get("event") == "metric":
            metrics[row.get("name")] = row.get("value")
    if not meta:
        raise ValueError("no meta header row: not a telemetry export")
    pseudo = hashlib.blake2b(
        _canonical(
            [meta.get("graph"), meta.get("num_nodes"), meta.get("num_edges")]
        ),
        digest_size=16,
    ).hexdigest()[:_KEY_LEN]
    cfg = {
        "strict": meta.get("strict"),
        "bit_budget": meta.get("bit_budget"),
        "protocol": meta.get("protocol", "hua-bc"),
    }
    engine = meta.get("engine", "unknown")
    entry = {
        "kind": "run",
        "key": run_key(pseudo, cfg, engine, git_rev),
        "graph": meta.get("graph"),
        "graph_hash": pseudo,
        "num_nodes": meta.get("num_nodes"),
        "num_edges": meta.get("num_edges"),
        "config": cfg,
        "engine": engine,
        "engine_requested": meta.get("engine_requested"),
        "engine_reason": meta.get("engine_reason"),
        "git_rev": git_rev,
        "rounds": metrics.get("run.rounds"),
        "messages": metrics.get("run.messages"),
        "bits": metrics.get("run.bits"),
        "max_edge_bits": metrics.get("run.max_edge_bits_per_round"),
        "wall_seconds": metrics.get("run.wall_seconds"),
    }
    return entry


class HistoryLedger:
    """Append-only JSONL ledger of run and benchmark records."""

    def __init__(self, path=DEFAULT_HISTORY_PATH):
        self.path = path
        #: Unparseable lines seen by the most recent :meth:`entries` read.
        self.skipped_lines = 0

    # ------------------------------------------------------------------
    def append(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        """Stamp and append one record; returns the stored form."""
        stored = dict(entry)
        stored.setdefault("schema", HISTORY_SCHEMA)
        stored.setdefault("recorded_unix", round(time.time(), 3))
        with open(self.path, "a+b") as fh:
            # A prior process killed mid-append leaves a torn line with
            # no newline; start fresh so we don't concatenate onto it.
            fh.seek(0, os.SEEK_END)
            if fh.tell() > 0:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
            fh.write(
                (json.dumps(stored, sort_keys=True) + "\n").encode("utf-8")
            )
            fh.flush()
        return stored

    def entries(
        self,
        kind: Optional[str] = None,
        key: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """All stored records, oldest first.

        The ledger is appended to by many short-lived processes over its
        lifetime, so a torn line (process killed mid-append) can sit
        anywhere, not just at the tail — unparseable lines are skipped
        and counted in :attr:`skipped_lines` rather than raised.
        """
        self.skipped_lines = 0
        if not os.path.exists(self.path):
            return []
        out: List[Dict[str, Any]] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for line in lines:
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError:
                self.skipped_lines += 1
                continue
            if kind is not None and row.get("kind") != kind:
                continue
            if key is not None and row.get("key") != key:
                continue
            out.append(row)
        return out

    def latest(self, key: str) -> Optional[Dict[str, Any]]:
        """Most recent record under a content key."""
        matches = self.entries(key=key)
        return matches[-1] if matches else None

    def __len__(self) -> int:
        return len(self.entries())

    def ingest(
        self, payload: Dict[str, Any], git_rev: Optional[str] = None
    ) -> int:
        """Append one record per row of a gated BENCH payload.

        Returns the record count.  Raises ``ValueError`` when the
        payload's ``benchmark`` marker names no :data:`BENCH_SPECS`
        entry.
        """
        spec = _SPECS.get(payload.get("benchmark"))
        if spec is None:
            raise ValueError(
                "unknown benchmark kind {!r}".format(payload.get("benchmark"))
            )
        recorded = (
            spec.exact + tuple(flag for flag, _ in spec.flags)
            + spec.speedups + spec.slowdowns + spec.ceilings + spec.extra
        )
        count = 0
        for table in spec.tables:
            holder, rows = _table_rows(payload, table)
            for row in rows:
                ident: Dict[str, Any] = {"benchmark": spec.benchmark}
                if table.name:
                    ident["gate"] = table.name
                ident.update((key, row.get(key)) for key in table.ids)
                ident.update((key, holder.get(key)) for key in spec.ident)
                entry = {
                    "kind": "bench_" + spec.name,
                    "key": run_key(
                        "bench", ident, spec.engine(holder, row), git_rev
                    ),
                    "git_rev": git_rev,
                }
                entry.update(ident)
                entry.update((key, row[key]) for key in recorded if key in row)
                self.append(entry)
                count += 1
        return count


# ----------------------------------------------------------------------
# regression gates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Violation:
    """One failed gate.  ``hard`` gates are machine-independent facts
    (rounds, bits, result identity); soft gates are wall-clock ratios.
    """

    gate: str
    message: str
    hard: bool = True

    def __str__(self) -> str:
        return "[{}{}] {}".format(
            self.gate, "" if self.hard else ", wall-clock", self.message
        )


@dataclass(frozen=True)
class RegressionGates:
    """Configurable thresholds for ``repro bench compare``.

    ``max_speedup_drop`` — fail when an engine's speedup over sweep
    falls by more than this fraction (default 20%).
    ``max_slowdown`` — fail when a timed section takes more than this
    multiple of the baseline (default 2x — the acceptance scenario).
    ``check_wall`` — set False to skip wall-clock gates entirely
    (cross-machine comparisons where only structure is meaningful).
    """

    max_speedup_drop: float = 0.20
    max_slowdown: float = 2.0
    check_wall: bool = True


#: Checkpoint overhead ceiling: a supervised run with checkpoints on
#: may cost at most this fraction of wall time over the unsupervised
#: run (the PR acceptance figure, enforced as a wall-clock gate).
MAX_CHECKPOINT_OVERHEAD = 0.05


@dataclass(frozen=True)
class RowTable:
    """One table of rows in a benchmark payload: ``ids`` are the row
    keys that match a baseline row to a current one, ``path`` leads
    from the payload to the rows (a dict there is a single row), and a
    ``name`` labels the table in messages and in the ledger's ``gate``.
    """

    ids: Tuple[str, ...]
    path: Tuple[str, ...] = ("rows",)
    name: Optional[str] = None


@dataclass(frozen=True)
class BenchSpec:
    """How ``repro bench compare`` and the ledger read one payload:
    ``BENCH_<name>.json``, whose ``benchmark`` marker picks the spec.

    Hard gates on every matched row: each ``exact`` key is unchanged,
    and no ``(flag, gate)`` flag flips from true to false.  Soft
    wall-clock gates, skipped under ``check_wall=False``: ``speedups``
    keys may drop by at most ``max_speedup_drop``, ``slowdowns`` keys
    may grow by at most ``max_slowdown`` (:class:`RegressionGates`), and
    ``ceilings`` keys may not exceed :data:`MAX_CHECKPOINT_OVERHEAD`.

    The ledger's ``bench_<name>`` record of a row holds the gated keys
    plus ``extra``, keyed by the row ids, the table name, the ``ident``
    fields of the dict holding the rows, and the ``engine`` label
    computed from that dict and the row.
    """

    name: str
    benchmark: str
    tables: Tuple[RowTable, ...]
    engine: Callable[[Dict[str, Any], Dict[str, Any]], str]
    exact: Tuple[str, ...] = ()
    flags: Tuple[Tuple[str, str], ...] = ()
    speedups: Tuple[str, ...] = ()
    slowdowns: Tuple[str, ...] = ()
    ceilings: Tuple[str, ...] = ()
    extra: Tuple[str, ...] = ()
    ident: Tuple[str, ...] = ()


#: Every benchmark ``repro bench compare`` gates, in help-text order.
BENCH_SPECS: Tuple[BenchSpec, ...] = (
    BenchSpec(
        "engine", "engine_comparison",
        tables=(RowTable(("family", "n")),),
        exact=("rounds", "bits", "messages"),
        flags=(("identical_results", "identity"),),
        speedups=("event_speedup", "bulk_speedup"),
        slowdowns=("sweep_seconds", "event_seconds", "bulk_seconds"),
        ident=("engines", "arithmetic"),
        engine=lambda holder, row: ",".join(holder.get("engines") or ()),
    ),
    BenchSpec(
        "faults", "fault_layer",
        tables=(
            RowTable((), ("disabled_overhead",), "disabled_overhead"),
            RowTable(
                ("drop_rate",), ("recovery_overhead", "rows"), "recovery"
            ),
        ),
        exact=("rounds", "dropped"),
        flags=(
            ("identical_results", "identity"),
            ("recovered_exactly", "recovery"),
        ),
        slowdowns=("overhead_ratio",),
        extra=("round_overhead", "complete", "seconds"),
        ident=("graph",),
        engine=lambda holder, row: "faults",
    ),
    BenchSpec(
        "arena", "protocol_arena",
        tables=(RowTable(("protocol", "family", "n")),),
        exact=("rounds", "bits", "messages"),
        flags=(("matches_brandes", "identity"),),
        slowdowns=("wall_seconds",),
        extra=("engine", "max_edge_bits"),
        ident=("arithmetic",),
        engine=lambda holder, row: row.get("engine", "auto"),
    ),
    BenchSpec(
        "shard", "shard_runtime",
        tables=(
            RowTable(("family", "n", "protocol", "workers", "partitioner")),
        ),
        exact=(
            "rounds", "bits", "messages", "edge_cut", "cross_bits",
            "cross_messages",
        ),
        flags=(("identical_results", "identity"),),
        speedups=("projected_speedup",),
        slowdowns=("event_seconds", "shard_seconds"),
        extra=("max_shard_ledger_words", "shard_cpu_seconds"),
        ident=("arithmetic",),
        engine=lambda holder, row: "shard",
    ),
    BenchSpec(
        "recovery", "recovery",
        tables=(RowTable(("family", "n", "protocol", "scenario")),),
        # Fault plans are keyed hashes, so the restart count replays
        # exactly: a drifting count means the supervisor changed.
        exact=("rounds", "bits", "messages", "restarts"),
        flags=(("identical_after_resume", "identity"),),
        slowdowns=("recovery_seconds", "supervised_seconds"),
        ceilings=("overhead_fraction",),
        extra=(
            "checkpoints_written", "checkpoint_bytes", "workers", "faults",
            "uninterrupted_seconds",
        ),
        engine=lambda holder, row: "shard",
    ),
)

_SPECS = {spec.benchmark: spec for spec in BENCH_SPECS}


def _table_rows(payload: Dict[str, Any], table: RowTable):
    """``(holder, rows)``: the dict holding the table's rows, and them."""
    holder = payload
    for key in table.path[:-1]:
        holder = holder.get(key) or {}
    rows = holder.get(table.path[-1]) or ()
    if isinstance(rows, dict):
        return rows, (rows,)
    return holder, rows


def _rows_by_id(payload: Dict[str, Any], table: RowTable):
    return {
        tuple(row.get(key) for key in table.ids): row
        for row in _table_rows(payload, table)[1]
    }


def _row_verdicts(spec, base, cur, gates):
    """``(gate, hard, detail)`` for each gate a matched row fails."""
    for key in spec.exact:
        if key in base and key in cur and base[key] != cur[key]:
            yield key, True, "{} changed for an identical config: " \
                "{} -> {}".format(key, base[key], cur[key])
    for flag, gate in spec.flags:
        if base.get(flag) and not cur.get(flag, True):
            yield gate, True, "{} is no longer true".format(flag)
    if not gates.check_wall:
        return
    for key in spec.speedups:
        if key not in base or key not in cur:
            continue
        floor = base[key] * (1.0 - gates.max_speedup_drop)
        if cur[key] < floor:
            yield key, False, "{} dropped {:.0%}+: {:.2f}x -> {:.2f}x " \
                "(floor {:.2f}x)".format(
                    key, gates.max_speedup_drop, base[key], cur[key], floor
                )
    for key in spec.slowdowns:
        if not base.get(key) or not cur.get(key):
            continue
        ratio = cur[key] / base[key]
        if ratio > gates.max_slowdown:
            yield key, False, "{} slowed {:.2f}x over baseline " \
                "({} -> {}; gate {:.2f}x)".format(
                    key, ratio, base[key], cur[key], gates.max_slowdown
                )
    for key in spec.ceilings:
        if cur.get(key, 0) > MAX_CHECKPOINT_OVERHEAD:
            yield key, False, "{} is {:.1%} of wall time " \
                "(ceiling {:.0%})".format(
                    key, cur[key], MAX_CHECKPOINT_OVERHEAD
                )


def compare_payloads(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    gates: RegressionGates = RegressionGates(),
) -> Tuple[List[Violation], int]:
    """Gate a fresh BENCH payload against a baseline of the same kind.

    The payloads' ``benchmark`` marker picks the :data:`BENCH_SPECS`
    entry.  A baseline row the current run lacks is a soft ``coverage``
    gap, even under ``check_wall=False``.  Returns ``(violations,
    rows_compared)``.
    """
    kind_b = baseline.get("benchmark")
    kind_c = current.get("benchmark")
    if kind_b != kind_c:
        return [Violation("schema", "payload kinds differ: baseline {!r} "
                          "vs current {!r}".format(kind_b, kind_c))], 0
    spec = _SPECS.get(kind_b)
    if spec is None:
        return [Violation(
            "schema", "unknown benchmark kind {!r}".format(kind_b)
        )], 0
    violations: List[Violation] = []
    compared = 0
    for table in spec.tables:
        cur_rows = _rows_by_id(current, table)
        for ident, base in _rows_by_id(baseline, table).items():
            label = " ".join(
                ([table.name] if table.name else [])
                + ["{}={}".format(*pair) for pair in zip(table.ids, ident)]
            )
            cur = cur_rows.get(ident)
            if cur is None:
                verdicts: Iterable[Tuple[str, bool, str]] = [(
                    "coverage", False,
                    "baseline row missing from the current run",
                )]
            else:
                compared += 1
                verdicts = _row_verdicts(spec, base, cur, gates)
            violations.extend(
                Violation(gate, "{}: {}".format(label, detail), hard)
                for gate, hard, detail in verdicts
            )
    return violations, compared
