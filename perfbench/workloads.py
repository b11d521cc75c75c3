"""The benchmark's workloads and the inputs each one builds from a seed.

Every workload simulates one fixed graph (and chaos-shard one fixed
fault plan), so every run does the same simulated work: rounds, bits,
messages and the betweenness error repeat exactly, and only host time
varies between runs.  The ``--seed`` argument picks how the graph is
written to its edge-list file -- the line order and the orientation of
each edge -- which the program's reader canonicalises away.  A seed that
picked the graph itself would make those counts, and the job time, vary
from run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Generator seed of every workload's Barabasi-Albert graph.
GRAPH_SEED = 1
#: Seed of chaos-shard's fault plan.
FAULT_SEED = 1
#: Edges each new Barabasi-Albert node attaches with.
BA_EDGES = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a graph size and the job's arguments.

    ``engine`` is the engine the job must resolve to (``stats.engine``);
    a job that silently runs on another engine fails its check.
    ``cli`` is the same job as a ``python -m repro`` command line, used
    on ``--graph cycle:8`` to time the fixed cost of a CLI call.
    """

    name: str
    why: str
    nodes: int
    engine: str
    job_args: Dict[str, object]
    cli: Tuple[str, ...]
    faults: Optional[Dict[str, float]] = None
    checkpoint_every: int = 0


_CHAOS_RATES = {"drop_rate": 0.02, "duplicate_rate": 0.01, "delay_rate": 0.02}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The default path of a clean `repro bc`: the numpy bulk engine
        # does nearly all the work (memory-bound N^2 plan arrays) and the
        # per-send Python path is bypassed.  Heavy-tailed degrees push
        # sigma toward the Large Value Challenge.
        Workload(
            name="hua-auto",
            why="hua-bc on BA N=400 via engine=auto: the numpy bulk engine "
            "does the work, the per-send event path is bypassed",
            nodes=400,
            engine="bulk",
            job_args={"protocol": "hua-bc", "engine": "auto"},
            cli=("bc", "--protocol", "hua-bc", "--engine", "auto"),
        ),
        # cfp-bc is not bulk-capable, so auto falls back to the event
        # engine: protocol handlers, LFloat, wire sizing, edge accounting,
        # delivery and stats all run per send in Python; the bulk engine
        # does nothing.
        Workload(
            name="cfp-auto",
            why="cfp-bc on BA N=200 via engine=auto falls back to the event "
            "engine: the per-send Python hot path, bulk engine bypassed",
            nodes=200,
            engine="event",
            job_args={"protocol": "cfp-bc", "engine": "auto"},
            cli=("bc", "--protocol", "cfp-bc", "--engine", "auto"),
        ),
        # The only workload where the shard runtime (fork, pipes, frames,
        # barriers), checkpoint writes and the fault injector with the
        # ack/retransmit transport do real work.
        Workload(
            name="chaos-shard",
            why="hua-bc on BA N=40, 2 shard workers, resilient transport "
            "under drops/dups/delays, checkpoint every 50 rounds",
            nodes=40,
            engine="shard",
            job_args={
                "protocol": "hua-bc",
                "engine": "shard",
                "workers": 2,
                "partitioner": "greedy",
                "resilient": True,
            },
            cli=(
                "chaos", "--protocol", "hua-bc", "--engine", "shard",
                "--workers", "2", "--partitioner", "greedy",
                "--drop", str(_CHAOS_RATES["drop_rate"]),
                "--dup", str(_CHAOS_RATES["duplicate_rate"]),
                "--delay-rate", str(_CHAOS_RATES["delay_rate"]),
                "--seed", str(FAULT_SEED),
                "--checkpoint-every", "50",
            ),
            faults=_CHAOS_RATES,
            checkpoint_every=50,
        ),
    )
}


def base_graph(workload: Workload):
    """The workload's graph, independent of the seed."""
    from repro.graphs.generators import barabasi_albert_graph

    return barabasi_albert_graph(workload.nodes, BA_EDGES, seed=GRAPH_SEED)


def edge_list_text(workload: Workload, seed: int) -> str:
    """The workload's graph as an edge-list file, laid out by ``seed``.

    The seed shuffles the line order and flips edge orientations; the
    parsed graph is the same for every seed.
    """
    graph = base_graph(workload)
    rng = random.Random(seed)
    edges = [
        (v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges()
    ]
    rng.shuffle(edges)
    lines = ["# name: {}".format(graph.name),
             "# nodes: {}".format(graph.num_nodes)]
    lines.extend("{} {}".format(u, v) for u, v in edges)
    return "\n".join(lines) + "\n"


def fault_plan(workload: Workload):
    """The workload's fault plan, or None for a fault-free workload."""
    if workload.faults is None:
        return None
    from repro.faults import FaultPlan

    return FaultPlan(seed=FAULT_SEED, **workload.faults)
