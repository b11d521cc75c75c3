"""Experiment grid runner: sweep graph families × sizes × arithmetics.

The scaling and compliance benchmarks all share a shape — build a grid
of instances, run the protocol on each, collect per-run metrics, fit or
tabulate.  :class:`ExperimentRunner` factors that shape out and adds
CSV export so results can leave the terminal.

Independent instances of a grid don't share state, so they can run in
worker processes: :func:`run_many` fans a batch of graphs over a
``multiprocessing`` pool and returns plain :class:`RunRecord` rows
(picklable by construction), falling back to a serial loop when a pool
isn't available or isn't worth it.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.complexity import LinearFit, linear_fit
from repro.analysis.tables import render_table
from repro.core.pipeline import distributed_betweenness
from repro.graphs.graph import Graph

PathLike = Union[str, "os.PathLike[str]"]


@dataclass
class RunRecord:
    """Metrics of one protocol run on one instance."""

    family: str
    graph_name: str
    num_nodes: int
    num_edges: int
    diameter: int
    rounds: int
    messages: int
    bits: int
    max_edge_bits: int
    arithmetic: str
    extra: Dict[str, float] = field(default_factory=dict)

    FIELDS = (
        "family",
        "graph_name",
        "num_nodes",
        "num_edges",
        "diameter",
        "rounds",
        "messages",
        "bits",
        "max_edge_bits",
        "arithmetic",
    )

    def as_row(self) -> List:
        """Base fields + sorted extras, for tables and CSV."""
        row = [getattr(self, name) for name in self.FIELDS]
        row.extend(value for _key, value in sorted(self.extra.items()))
        return row


class ExperimentRunner:
    """Run the distributed protocol over a grid of graph instances.

    Parameters
    ----------
    arithmetic:
        Arithmetic mode passed to every run.
    metrics:
        Optional map of name -> callable(result) adding custom columns
        (e.g. error against a reference).
    run:
        Override the runner itself (default:
        :func:`repro.core.distributed_betweenness`); must return an
        object with the ``rounds``/``diameter``/``stats`` interface.
    engine:
        Simulator engine passed to every run (``"auto"`` by default,
        matching :func:`repro.core.distributed_betweenness`).
    workers, partitioner:
        Shard-runtime knobs forwarded to every run (meaningful with
        ``engine="shard"`` only).  See :func:`run_many` for how the
        pool interacts with sharded runs.
    protocol:
        Registered protocol name passed to every run (None means the
        registry default, ``hua-bc``).  Kept as a name rather than a
        descriptor so grids stay picklable across the worker pool.
    collect_phases:
        Attach a phases-only :class:`~repro.obs.Telemetry` to every run
        and add one ``phase_<name>_rounds`` column per protocol phase
        to each record's ``extra``.  Incompatible with a custom ``run``
        callable (the runner cannot thread telemetry through it).
    """

    def __init__(
        self,
        arithmetic: str = "lfloat",
        metrics: Optional[Dict[str, Callable]] = None,
        run: Optional[Callable] = None,
        engine: str = "auto",
        collect_phases: bool = False,
        protocol: Optional[str] = None,
        workers: int = 1,
        partitioner: str = "greedy",
    ):
        #: The :func:`repro.core.distributed_betweenness` keywords every
        #: run of the grid gets, serial or pooled.
        self.options = {
            "arithmetic": arithmetic,
            "engine": engine,
            "protocol": protocol,
            "workers": workers,
            "partitioner": partitioner,
        }
        self.metrics = metrics or {}
        self.collect_phases = collect_phases
        self._custom_run = run is not None
        if self._custom_run and collect_phases:
            raise ValueError(
                "collect_phases needs the default runner; a custom run "
                "callable would have to accept telemetry itself"
            )
        self._run = run or _default_run(self.options)
        self.records: List[RunRecord] = []

    # ------------------------------------------------------------------
    def run_family(self, family: str, graphs: Iterable[Graph]) -> List[RunRecord]:
        """Execute the protocol on every instance of ``family``."""
        out = [
            _record(
                self._run, family, graph, self.collect_phases,
                metrics=self.metrics,
                arithmetic=self.options["arithmetic"],
            )
            for graph in graphs
        ]
        self.records.extend(out)
        return out

    def run_family_parallel(
        self,
        family: str,
        graphs: Iterable[Graph],
        processes: Optional[int] = None,
        stream_dir: Optional[PathLike] = None,
    ) -> List[RunRecord]:
        """Like :meth:`run_family`, fanned out via :func:`run_many`.

        Custom ``metrics``/``run`` callables are not supported here —
        they would have to cross a process boundary; configure the
        runner with the defaults or use the serial :meth:`run_family`.
        """
        if self.metrics or self._custom_run:
            raise ValueError(
                "custom metrics/run callables are not picklable across "
                "the worker pool; use run_family() for those grids"
            )
        out = run_many(
            graphs,
            family=family,
            processes=processes,
            collect_phases=self.collect_phases,
            stream_dir=stream_dir,
            **self.options,
        )
        self.records.extend(out)
        return out

    # ------------------------------------------------------------------
    # analysis over collected records
    # ------------------------------------------------------------------
    def families(self) -> List[str]:
        """Distinct family labels, in first-run order."""
        seen: Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.family, None)
        return list(seen)

    def fit_rounds(self, family: str) -> LinearFit:
        """Least-squares fit of rounds against N for one family."""
        samples = [r for r in self.records if r.family == family]
        return linear_fit(
            [r.num_nodes for r in samples], [r.rounds for r in samples]
        )

    def table(self, family: Optional[str] = None) -> str:
        """Render collected records as an aligned text table."""
        records = [
            r
            for r in self.records
            if family is None or r.family == family
        ]
        extra_keys = sorted(
            {key for r in records for key in r.extra}
        )
        headers = list(RunRecord.FIELDS) + extra_keys
        return render_table(headers, [r.as_row() for r in records])

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_csv(self, path: Optional[PathLike] = None) -> str:
        """Write records as CSV; returns the CSV text."""
        extra_keys = sorted({key for r in self.records for key in r.extra})
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(list(RunRecord.FIELDS) + extra_keys)
        for record in self.records:
            row = [getattr(record, name) for name in RunRecord.FIELDS]
            row.extend(record.extra.get(key, "") for key in extra_keys)
            writer.writerow(row)
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        return text


def _safe_name(name: str) -> str:
    """Graph names can contain path-hostile characters; keep it boring."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


def _phase_columns(telemetry) -> Dict[str, float]:
    """``phase_<name>_rounds`` extras from a run's closed phase spans."""
    return {
        "phase_{}_rounds".format(name): rounds
        for name, rounds in telemetry.phases.rounds_by_phase().items()
    }


# ----------------------------------------------------------------------
# multiprocessing fan-out
# ----------------------------------------------------------------------
def default_max_workers() -> int:
    """The pool width :func:`run_many` uses when ``processes`` is None.

    One worker per CPU (``os.cpu_count()``), floored at 1.  Exposed so
    callers sizing a grid — or splitting the machine between the pool
    and the shard runtime's own worker processes — can see the default
    instead of re-deriving it.
    """
    return os.cpu_count() or 1


def _default_run(options: Dict) -> Callable:
    """One :func:`repro.core.distributed_betweenness` run per graph,
    with ``options`` as its keywords."""
    return lambda graph, telemetry=None: distributed_betweenness(
        graph, telemetry=telemetry, **options
    )


def _record(
    run: Callable,
    family: str,
    graph: Graph,
    collect_phases: bool,
    stream_path: Optional[str] = None,
    metrics: Optional[Dict[str, Callable]] = None,
    arithmetic: Optional[str] = None,
) -> RunRecord:
    """One ``run`` on ``graph`` -> one plain-data record.

    The run gets a telemetry only when it streams (a live JSONL per
    run: a killed worker still leaves its rows) or collects phases;
    ``arithmetic`` labels a result that does not name its own.
    """
    telemetry = None
    if stream_path is not None or collect_phases:
        from repro.obs import Telemetry

        telemetry = (
            Telemetry.with_streaming(jsonl_path=stream_path, progress=True)
            if stream_path is not None
            else Telemetry()
        )
    result = run(graph) if telemetry is None else run(graph, telemetry)
    extra = {name: fn(result) for name, fn in (metrics or {}).items()}
    if telemetry is not None:
        extra.update(_phase_columns(telemetry))
        if telemetry.bus is not None:
            telemetry.bus.close()
    return RunRecord(
        family=family,
        graph_name=graph.name,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        diameter=result.diameter,
        rounds=result.rounds,
        messages=result.stats.message_count,
        bits=result.stats.bit_count,
        max_edge_bits=result.stats.max_edge_bits_per_round,
        arithmetic=getattr(result, "arithmetic", arithmetic),
        extra=extra,
    )


#: A pool task: family, graph, run keywords, collect_phases, stream path.
_Task = Tuple[str, Graph, Dict, bool, Optional[str]]


def _run_one(task: _Task) -> RunRecord:
    """Worker body: one protocol run -> one plain-data record.

    Module-level (not a closure) so a ``multiprocessing`` pool can
    pickle it; the graph rides along in the task tuple, and the
    protocol travels as its registry name (descriptors hold closures).
    """
    family, graph, options, collect_phases, stream_path = task
    return _record(
        _default_run(options), family, graph, collect_phases, stream_path
    )


def run_many(
    graphs: Iterable[Graph],
    family: str = "batch",
    arithmetic: str = "lfloat",
    engine: str = "auto",
    processes: Optional[int] = None,
    collect_phases: bool = False,
    stream_dir: Optional[PathLike] = None,
    protocol: Optional[str] = None,
    workers: int = 1,
    partitioner: str = "greedy",
) -> List[RunRecord]:
    """Run the protocol on every graph, fanning out across processes.

    Protocol runs are CPU-bound pure Python, so threads cannot
    parallelize them; separate processes can.  Each worker executes
    :func:`_run_one` and ships back a picklable :class:`RunRecord`.
    Records are returned in input order regardless of completion order.

    Parameters
    ----------
    graphs:
        The instances to run (must be picklable, which the plain
        :class:`~repro.graphs.graph.Graph` is).
    family:
        Label stamped on every record.
    arithmetic, engine:
        Passed to :func:`repro.core.distributed_betweenness`.
    processes:
        Worker count; defaults to :func:`default_max_workers`
        (``os.cpu_count()``) capped at the number of graphs.
        ``processes <= 1`` (or a pool that cannot be created, e.g. on
        restricted platforms) runs serially in this process — same
        records, no pool.
    collect_phases:
        Add ``phase_<name>_rounds`` extras per record (phase spans are
        plain numbers, so they cross the pool boundary untouched).
    stream_dir:
        Stream each run's telemetry live to
        ``<stream_dir>/<family>-<index>-<name>.jsonl`` (flushed per
        event, so a crashed worker leaves a readable partial log);
        implies per-run telemetry with phase collection.
    protocol:
        Registered protocol name for every run (None → registry
        default).  A string, not a descriptor, so tasks stay picklable.
    workers, partitioner:
        Shard-runtime knobs forwarded to every run (meaningful with
        ``engine="shard"`` only).  The grid pool and the shard runtime
        both spawn processes, so combining them would oversubscribe
        the machine W-fold: when the pool actually fans out, sharded
        runs are forced back to ``workers=1`` (with a warning) — one
        process per run, parallelism across the grid.  A serial grid
        (``processes <= 1``) keeps the requested worker count.
    """
    if stream_dir is not None:
        os.makedirs(stream_dir, exist_ok=True)
    graphs = list(graphs)
    if not graphs:
        return []
    if processes is None:
        processes = default_max_workers()
    processes = min(processes, len(graphs))
    options = {
        "arithmetic": arithmetic,
        "engine": engine,
        "protocol": protocol,
        "workers": workers,
        "partitioner": partitioner,
    }
    if engine == "shard" and workers != 1 and processes > 1:
        import warnings

        warnings.warn(
            "run_many: engine='shard' with workers={} inside a {}-process "
            "pool would oversubscribe the machine; forcing workers=1 "
            "(run serially with processes=1 to keep the shard "
            "fan-out)".format(workers, processes),
            RuntimeWarning,
            stacklevel=2,
        )
        options["workers"] = 1
    tasks = [
        (
            family,
            graph,
            options,
            collect_phases,
            (
                os.path.join(
                    str(stream_dir),
                    "{}-{:03d}-{}.jsonl".format(
                        family, index, _safe_name(graph.name)
                    ),
                )
                if stream_dir is not None
                else None
            ),
        )
        for index, graph in enumerate(graphs)
    ]
    if processes <= 1:
        return [_run_one(task) for task in tasks]
    try:
        from multiprocessing import Pool
    except ImportError:  # pragma: no cover - restricted platforms
        return [_run_one(task) for task in tasks]
    try:
        with Pool(processes=processes) as pool:
            return pool.map(_run_one, tasks)
    except (OSError, PermissionError):  # pragma: no cover - sandboxed envs
        return [_run_one(task) for task in tasks]
