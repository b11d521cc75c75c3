"""Chaos smoke gate: recovery and determinism across seeds and plans.

Replays a small matrix of fault plans — drop, delay, transient crash —
across several seeds on both engines, and fails unless

* every recoverable plan recovers the exact fault-free betweenness
  (equal to Brandes, since the arithmetic is exact),
* the recovery is deterministic: both engines agree on the recovered
  values, the round count and every engine-independent fault counter,
* the unrecoverable plan (a permanent crash) terminates early with a
  completeness report naming the crashed node and a partial
  betweenness that matches a Brandes restricted to the surviving
  sources, and sweep, event and a two-worker shard run stall at the
  same round with the same complete sources, partial values and
  engine-independent fault counters; event and shard also agree on
  ``crash_rounds``.

Usage::

    python scripts/chaos_smoke.py       # ~30 s on a 1-core container

This is the chaos entry of CI's ``bench-gate`` matrix; the full
differential suite lives in ``tests/test_faults.py``.
"""

import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import (  # noqa: E402
    CrashWindow,
    FaultPlan,
    distributed_betweenness,
)
from repro.graphs import connected_erdos_renyi_graph, figure1_graph  # noqa: E402

SEEDS = (1, 2, 3, 4, 5)
ENGINES = ("sweep", "event")
#: (engine, workers) for the unrecoverable plan's stall-parity check.
STALL_ENGINES = (("sweep", 1), ("event", 1), ("shard", 2))


def _plans(seed):
    return {
        "drop": FaultPlan(seed=seed, drop_rate=0.08),
        "delay": FaultPlan(seed=seed, delay_rate=0.15, max_delay=3),
        "crash-transient": FaultPlan(
            seed=seed, crashes=(CrashWindow(2, 10, 30),)
        ),
    }


def _brandes_subset(graph, sources):
    nodes = list(graph.nodes())
    acc = {v: Fraction(0) for v in nodes}
    for s in sources:
        dist = {s: 0}
        sigma = {v: Fraction(0) for v in nodes}
        sigma[s] = Fraction(1)
        order = []
        preds = {v: [] for v in nodes}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in graph.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist.get(w) == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = {v: Fraction(0) for v in nodes}
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
            if w != s:
                acc[w] += delta[w]
    return {v: value / 2 for v, value in acc.items()}


def _comparable(result):
    """Everything recovery determinism requires the engines to agree on."""
    counters = result.stats.faults.as_dict()
    counters.pop("crash_rounds")  # engine-dependent by design
    return (
        sorted(result.betweenness_exact.items()),
        result.rounds,
        counters,
    )


def main() -> int:
    failures = []
    graph = connected_erdos_renyi_graph(12, 0.3, seed=9)
    reference = distributed_betweenness(graph, arithmetic="exact")
    checked = 0

    for seed in SEEDS:
        for name, plan in _plans(seed).items():
            outcomes = {}
            for engine in ENGINES:
                result = distributed_betweenness(
                    graph,
                    arithmetic="exact",
                    engine=engine,
                    faults=plan,
                    resilient=True,
                )
                outcomes[engine] = _comparable(result)
                checked += 1
                if not result.completeness.complete:
                    failures.append(
                        "seed {} plan {} engine {}: did not recover".format(
                            seed, name, engine
                        )
                    )
                elif (
                    result.betweenness_exact != reference.betweenness_exact
                ):
                    failures.append(
                        "seed {} plan {} engine {}: recovered values "
                        "differ from Brandes".format(seed, name, engine)
                    )
            if outcomes["sweep"] != outcomes["event"]:
                failures.append(
                    "seed {} plan {}: engines disagree on the recovered "
                    "run".format(seed, name)
                )

    # Unrecoverable plan: early termination + honest partial result,
    # the same on every engine.
    fig = figure1_graph()
    stalls = {}
    crash_rounds = {}
    for engine, workers in STALL_ENGINES:
        partial = distributed_betweenness(
            fig,
            arithmetic="exact",
            engine=engine,
            workers=workers,
            faults=FaultPlan(seed=1, crashes=(CrashWindow(3, 40, None),)),
            resilient=True,
        )
        report = partial.completeness
        checked += 1
        if report.complete or report.crashed_nodes != (3,):
            failures.append(
                "permanent crash, engine {}: completeness report "
                "wrong".format(engine)
            )
            continue
        subset = _brandes_subset(fig, report.complete_sources)
        if any(
            partial.betweenness_exact[v] != subset[v] for v in fig.nodes()
        ):
            failures.append(
                "permanent crash, engine {}: partial values diverge from "
                "the source-subset Brandes".format(engine)
            )
        stalls["{} W={}".format(engine, workers)] = (
            report.stalled_round,
            report.complete_sources,
            _comparable(partial),
        )
        crash_rounds[engine] = partial.stats.faults.crash_rounds
    if len(set(map(repr, stalls.values()))) > 1:
        failures.append(
            "permanent crash: engines disagree on the stalled run "
            "(stalled round {})".format(
                {name: stall[0] for name, stall in stalls.items()}
            )
        )
    # Sweep steps every node every round, so only the wake-driven
    # engines count the same crashed node-rounds.
    if crash_rounds.get("event") != crash_rounds.get("shard"):
        failures.append(
            "permanent crash: crash_rounds {} on event, {} on shard".format(
                crash_rounds.get("event"), crash_rounds.get("shard")
            )
        )

    if failures:
        for line in failures:
            print("FAIL: " + line, file=sys.stderr)
        return 1
    print(
        "OK: {} chaos runs recovered exactly and deterministically; "
        "permanent crash degraded to an honest partial result, stalled "
        "at round {} on every engine".format(
            checked, next(iter(stalls.values()))[0]
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
