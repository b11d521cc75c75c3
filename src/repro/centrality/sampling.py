"""Sampling-based betweenness approximation (related work, Section II).

The paper contrasts its exact distributed algorithm with the sampling
approximations of Brandes–Pich [11] / Eppstein–Wang [12] and the
adaptive scheme of Bader et al. [13].  We implement both so the
benchmark suite can reproduce the accuracy-versus-work trade-off the
related-work section describes:

* :func:`sampled_betweenness` extrapolates from k uniformly random
  pivot sources: the estimate of CB(v) is ``(N / k) * sum over sampled
  sources of delta_s·(v)`` (halved for the undirected convention).
  Hoeffding gives the paper's quoted Omega(log(N/delta)/eps^2) sample
  bound for +-eps*N(N-1)/2... accuracy.
* :func:`adaptive_sampled_betweenness` targets one node and keeps
  sampling until its accumulated dependency exceeds ``c * N``, after
  which the estimate ``N * S / k`` is within a constant factor with
  high probability for high-centrality nodes.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.centrality.accumulation import (
    accumulate_dependencies,
    single_source_shortest_paths,
)
from repro.exceptions import UnknownNodeError
from repro.graphs.graph import Graph


def sampled_betweenness(
    graph: Graph,
    num_samples: int,
    seed: int = 0,
    normalized: bool = False,
) -> Dict[int, float]:
    """Brandes–Pich pivot sampling estimate of every node's BC.

    Parameters
    ----------
    num_samples:
        Number of pivot sources k (sampled without replacement when
        k <= N, otherwise with replacement).
    seed:
        RNG seed; the estimate is deterministic given the seed.
    normalized:
        Divide by (N-1)(N-2)/2 as in :func:`brandes_betweenness`.
    """
    n = graph.num_nodes
    if n == 0 or num_samples <= 0:
        return {v: 0.0 for v in graph.nodes()}
    rng = random.Random(seed)
    if num_samples <= n:
        pivots = rng.sample(range(n), num_samples)
    else:
        pivots = [rng.randrange(n) for _ in range(num_samples)]
    totals = {v: 0.0 for v in graph.nodes()}
    for s in pivots:
        result = single_source_shortest_paths(graph, s)
        delta = accumulate_dependencies(result, exact=False)
        for v in graph.nodes():
            if v != s:
                totals[v] += delta[v]
    scale = n / len(pivots) / 2.0  # extrapolate, then undirected halving
    estimate = {v: value * scale for v, value in totals.items()}
    if normalized:
        pairs = (n - 1) * (n - 2) / 2.0
        if pairs > 0:
            estimate = {v: value / pairs for v, value in estimate.items()}
        else:
            estimate = {v: 0.0 for v in estimate}
    return estimate


def required_samples(num_nodes: int, eps: float, delta: float) -> int:
    """The Omega(log(N/delta)/eps^2) sample count quoted in Section II."""
    import math

    if eps <= 0 or not 0 < delta < 1:
        raise ValueError("need eps > 0 and 0 < delta < 1")
    if num_nodes < 2:
        return 1
    return max(1, int(math.ceil(math.log(num_nodes / delta) / (eps * eps))))


def adaptive_sampled_betweenness(
    graph: Graph,
    node: int,
    c: float = 5.0,
    seed: int = 0,
    max_samples: Optional[int] = None,
) -> Tuple[float, int]:
    """Bader-style adaptive estimate of one node's BC.

    Samples random sources, accumulating S = sum delta_s·(node), and
    stops as soon as ``S >= c * N`` (the node has proven itself
    high-centrality) or after ``max_samples`` (default N) sources.

    Returns
    -------
    (estimate, samples_used):
        The BC estimate ``N * S / (2 * k)`` and the number of SSSP
        computations spent.
    """
    n = graph.num_nodes
    if not graph.has_node(node):
        raise UnknownNodeError(
            "node {} is not a node of the graph (N={})".format(node, n)
        )
    if n < 3:
        return 0.0, 0
    rng = random.Random(seed)
    budget = max_samples if max_samples is not None else n
    accumulated = 0.0
    used = 0
    while used < budget:
        s = rng.randrange(n)
        used += 1
        if s != node:
            result = single_source_shortest_paths(graph, s)
            delta = accumulate_dependencies(result, exact=False)
            accumulated += delta[node]
        if accumulated >= c * n:
            break
    if used == 0:
        return 0.0, 0
    return n * accumulated / (2.0 * used), used
