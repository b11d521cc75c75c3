"""Closed-form round model of the full protocol.

Every phase of the implementation has deterministic timing, so the
*exact* number of synchronous rounds a run takes is computable without
simulating a single message.  :mod:`repro.core.schedule` derives that
timeline once (for the phase oracle and the bulk engine's plan too);
:func:`predict_rounds` reports it for an all-source run.  The numbers
it documents:

========================  =============================================
census round  r_N         post-order recursion over BFS(u0):
                           ``S(v) = max(depth(v) + 2, max_c S(c) + 1)``
BFS start times T_s       tree-walk DFS offsets anchored at r_N + 1
last settle  L(v)         ``max_s (T_s + d(s, v))``
announce     A(v)         ``r_N + depth(v)``
done reports R(v)         ``max(L(v), A(v), max_c R(c) + 1)``
aggregation base          ``R(u0) + D + 1``
horizon                   ``base + T_max + D``
total rounds              ``horizon + 2``
========================  =============================================

(The +2: nodes finalize their betweenness while processing round
``horizon + 1``, and the simulator detects global quiescence at the top
of round ``horizon + 2``.)

The model doubles as documentation of the protocol's timing and as a
*strong* regression oracle: ``tests/test_roundmodel.py`` asserts the
predictions equal the simulator's measurements **exactly** across graph
families — any timing drift in a future change breaks the test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.schedule import _timeline
from repro.graphs.graph import Graph


@dataclass
class RoundModel:
    """Predicted timing of one protocol run (all values exact)."""

    graph: Graph
    root: int
    #: round in which the root computes N (end of the census).
    census_round: int
    #: T_s for every source, in absolute simulator rounds.
    start_times: Dict[int, int]
    #: max_s T_s.
    t_max: int
    #: per node: the round its ledger becomes complete.
    last_settle: Dict[int, int]
    #: round the root completes the done-convergecast (fixes D).
    completion_round: int
    #: the AggStart anchor ``base``.
    agg_base: int
    #: diameter.
    diameter: int
    #: last round with any aggregation traffic in flight.
    horizon: int
    #: total rounds the simulator reports for the full BC run.
    total_rounds: int


def predict_rounds(graph: Graph, root: int = 0) -> RoundModel:
    """Compute the closed-form timing of a full protocol run.

    Costs one BFS per node (O(N·M)) for the last-settle terms, which is
    orders of magnitude cheaper than simulating the Θ(M·N) message
    deliveries but still quadratic; comfortable up to a few thousand
    nodes.
    """
    schedule, first_visit, last_settle = _timeline(graph, root, None, True)
    return RoundModel(
        graph=graph,
        root=root,
        census_round=schedule.r_census,
        start_times={v: first_visit[v] + 1 for v in graph.nodes()},
        t_max=schedule.t_max,
        last_settle=dict(enumerate(last_settle)),
        completion_round=schedule.r_result,
        agg_base=schedule.base,
        diameter=schedule.diameter,
        horizon=schedule.base + schedule.t_max + schedule.diameter,
        total_rounds=schedule.total_rounds,
    )


def rounds_upper_bound(num_nodes: int, diameter: int) -> int:
    """A closed-form worst-case bound: ``rounds <= 6N + 8D + 3``.

    With the tree walk, ``T_max <= census + 1 + 3(N - 1)`` and
    ``census <= 2D + 2``; completion adds at most ``2D``, the anchor
    ``D + 1``, the aggregation another ``T_max + D``, and quiescence
    detection ``2`` — linear in N, Theorem 3's claim with an explicit
    constant for this implementation.
    """
    t_max = (2 * diameter + 2) + 1 + 3 * max(0, num_nodes - 1)
    completion = t_max + diameter + diameter  # last settle + convergecast
    return completion + diameter + 1 + t_max + diameter + 2
