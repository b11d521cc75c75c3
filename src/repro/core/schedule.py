"""Analytic schedule computations (Figure 1 and Lemma 4).

The correctness of Algorithm 3 rests on one invariant over the BFS
start times produced by the DFS of Algorithm 2:

    **separation:**  for any two sources s, t with T_t > T_s,
    ``T_t >= T_s + d(s, t) + 1``.

Given start times satisfying separation, every node's aggregation sends
``T_s(u) = T_s + D - d(s, u)`` are pairwise distinct per node (Lemma 4),
so no two aggregation messages ever share an edge-direction in a round.

This module computes start times *analytically* (without running the
simulator) under two DFS-token models, both satisfying separation:

* ``"shortcut"`` — the token hops from each newly visited node to the
  next preorder node along a shortest graph path:
  ``T_next = T_prev + d(prev, next) + 1``.  This reproduces the paper's
  Figure 1 numbers exactly (T_{v1..v5} = 0, 2, 4, 6, 8).
* ``"tree_walk"`` — the token physically backtracks along tree edges,
  as the message-passing implementation does:
  ``T_next = T_prev + walk_length + 1``.

It also provides the collision detector used by the scheduling ablation
(benchmark E12): hand it *any* assignment of start times and it counts
how many (node, round) pairs would have to send values for two
different sources simultaneously — zero for separated schedules,
positive for naive ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import GraphError, UnknownNodeError
from repro.graphs.graph import Graph
from repro.graphs.properties import (
    all_pairs_distances,
    bfs_parents,
    diameter as graph_diameter,
    require_connected,
)


def bfs_tree_children(graph: Graph, root: int) -> Dict[int, List[int]]:
    """Children lists of the BFS(root) tree with min-id parent choice."""
    parents = bfs_parents(graph, root)
    children: Dict[int, List[int]] = {v: [] for v in graph.nodes()}
    for v, parent in enumerate(parents):
        if parent is not None:
            children[parent].append(v)
    for v in children:
        children[v].sort()
    return children


def dfs_preorder(graph: Graph, root: int) -> List[int]:
    """DFS preorder of the BFS(root) tree, children visited in id order."""
    children = bfs_tree_children(graph, root)
    order: List[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(children[v]))
    return order


def tree_walk_lengths(graph: Graph, root: int) -> List[Tuple[int, int]]:
    """(node, hops-from-previous-preorder-node) along the Euler tour.

    The hop count is the number of tree edges the DFS token traverses
    between consecutive first-visits (1 for a child descent, more when
    backtracking), which is what the message-passing token pays.
    """
    children = bfs_tree_children(graph, root)
    parents = {root: None}
    for parent, kids in children.items():
        for kid in kids:
            parents[kid] = parent
    order = dfs_preorder(graph, root)
    depths: Dict[int, int] = {root: 0}
    for v in order[1:]:
        depths[v] = depths[parents[v]] + 1
    result: List[Tuple[int, int]] = [(root, 0)]
    for prev, nxt in zip(order, order[1:]):
        # tree walk distance = depth(prev) + depth(nxt) - 2 * depth(lca)
        a, b = prev, nxt
        da, db = depths[a], depths[b]
        while da > db:
            a = parents[a]
            da -= 1
        while db > da:
            b = parents[b]
            db -= 1
        while a != b:
            a, b = parents[a], parents[b]
        lca_depth = depths[a] if a is not None else 0
        hops = depths[prev] + depths[nxt] - 2 * lca_depth
        result.append((nxt, hops))
    return result


def bfs_start_times(
    graph: Graph,
    root: int = 0,
    mode: str = "shortcut",
    t0: int = 0,
) -> Dict[int, int]:
    """Start time T_s for every source under the chosen token model.

    ``t0`` is the root's start time (the paper's Figure 1 uses 0).
    """
    require_connected(graph)
    if not graph.has_node(root):
        raise UnknownNodeError(
            "root {} is not a node of the graph (N={})".format(
                root, graph.num_nodes
            )
        )
    if mode == "shortcut":
        dist = all_pairs_distances(graph)
        order = dfs_preorder(graph, root)
        times: Dict[int, int] = {root: t0}
        for prev, nxt in zip(order, order[1:]):
            times[nxt] = times[prev] + dist[prev][nxt] + 1
        return times
    if mode == "tree_walk":
        times = {}
        clock = t0
        for index, (node, hops) in enumerate(tree_walk_lengths(graph, root)):
            if index == 0:
                times[node] = clock
            else:
                clock = clock + hops + 1
                times[node] = clock
        return times
    raise GraphError("unknown DFS token mode {!r}".format(mode))


def sending_times(
    graph: Graph,
    start_times: Dict[int, int],
    diameter: Optional[int] = None,
) -> Dict[int, Dict[int, int]]:
    """The Algorithm 3 schedule: ``source -> {node: T_s + D - d(s, node)}``.

    This is exactly the table Figure 1 prints for each BFS tree of the
    5-node example.
    """
    if diameter is None:
        diameter = graph_diameter(graph)
    dist = all_pairs_distances(graph)
    return {
        s: {
            v: start_times[s] + diameter - dist[s][v]
            for v in graph.nodes()
        }
        for s in start_times
    }


def verify_separation(graph: Graph, start_times: Dict[int, int]) -> bool:
    """Check the Lemma 4 invariant T_t >= T_s + d(s, t) + 1 for all pairs."""
    dist = all_pairs_distances(graph)
    ordered = sorted(start_times.items(), key=lambda kv: kv[1])
    for i, (s, ts) in enumerate(ordered):
        for t, tt in ordered[i + 1:]:
            if tt < ts + dist[s][t] + 1:
                return False
    return True


def count_collisions(
    graph: Graph,
    start_times: Dict[int, int],
    diameter: Optional[int] = None,
) -> int:
    """Number of simultaneous multi-source sends the schedule forces.

    For each node u, sources s != u are bucketed by their send round
    ``T_s + D - d(s, u)``; every round asking u to emit values for k > 1
    distinct sources contributes k - 1 collisions (k - 1 extra messages
    that would have to share u's per-round budget).  Lemma 4 says this
    is 0 whenever the start times are separated; naive schedules (all
    sources starting together) produce Theta(N) collisions, which the
    ablation benchmark demonstrates.
    """
    if diameter is None:
        diameter = graph_diameter(graph)
    dist = all_pairs_distances(graph)
    collisions = 0
    for u in graph.nodes():
        buckets: Dict[int, int] = {}
        for s in start_times:
            if s == u:
                continue
            send_round = start_times[s] + diameter - dist[s][u]
            buckets[send_round] = buckets.get(send_round, 0) + 1
        collisions += sum(count - 1 for count in buckets.values() if count > 1)
    return collisions


def naive_start_times(graph: Graph, offset: int = 0) -> Dict[int, int]:
    """The ablation schedule: every source starts at the same round."""
    return {v: offset for v in graph.nodes()}


def figure1_tables(graph: Graph = None) -> Dict[int, Dict[int, int]]:
    """The exact sending-time tables of Figure 1 (a)–(e).

    Returns ``source -> {node: sending time}`` computed with the
    shortcut token model on the paper's 5-node graph; the values match
    the figure: e.g. in BFS(v1) node v4 sends at 0, and in BFS(v5) node
    v4 sends at 10.
    """
    from repro.graphs.generators import figure1_graph

    graph = graph or figure1_graph()
    times = bfs_start_times(graph, root=0, mode="shortcut", t0=0)
    return sending_times(graph, times)


# ----------------------------------------------------------------------
# Closed-form round schedule of the message-passing protocol.
#
# These helpers replay the protocol's control flow *analytically*: the
# BFS(u0) tree build, the subtree census convergecast, the DFS token
# walk, and the completion convergecast whose arrival at the root
# triggers the diameter broadcast.  The vectorized bulk engine derives
# its whole execution plan from them, and the progress estimator
# (:class:`repro.obs.stream.ProgressEstimator`) uses the same numbers to
# predict phase boundaries for *any* engine — the round schedule depends
# only on the topology and the source set, never on the arithmetic.
# ----------------------------------------------------------------------
def tree_schedule(
    graph: Graph, root: int
) -> Tuple[List[int], List[Optional[int]], List[List[int]]]:
    """BFS depths, min-id parents and children of the BFS(u0) tree."""
    n = graph.num_nodes
    depth = [-1] * n
    parent: List[Optional[int]] = [None] * n
    children: List[List[int]] = [[] for _ in range(n)]
    depth[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            dv = depth[v] + 1
            for u in graph.neighbors(v):
                if depth[u] < 0:
                    depth[u] = dv
                    # min-id parent: the settling node picks the least
                    # sender id; all depth-(d-1) neighbors send, so that
                    # is simply the least such neighbor.
                    parent[u] = min(
                        w for w in graph.neighbors(u) if depth[w] == dv - 1
                    )
                    nxt.append(u)
        frontier = nxt
    for u in range(n):
        if parent[u] is not None:
            children[parent[u]].append(u)
    for ch in children:
        ch.sort()
    return depth, parent, children


def census_schedule(
    depth: List[int], children: List[List[int]], root: int
) -> Tuple[List[int], int, List[int]]:
    """SubtreeCount send rounds S(v) and the census round at the root.

    ``S(v) = max(depth(v) + 2, max_c S(c) + 1)``: a node's children are
    final two rounds after it settles, and every child's count must have
    arrived (sent at S(c), received at S(c) + 1).
    """
    n = len(depth)
    order = sorted(range(n), key=depth.__getitem__, reverse=True)
    send = [0] * n
    size = [1] * n
    for v in order:
        s = depth[v] + 2
        for c in children[v]:
            size[v] += size[c]
            if send[c] + 1 > s:
                s = send[c] + 1
        send[v] = s
    return send, send[root], size


def dfs_token_schedule(
    children: List[List[int]],
    parent: List[Optional[int]],
    root: int,
    r_census: int,
    slot_forward: int = 0,
    slot_back: int = 0,
) -> Tuple[List[int], List[Tuple[int, int, int, int, int]], int]:
    """Replay the DFS token walk analytically.

    The root treats census completion as its first visit and forwards
    one round later; a newly visited node forwards one round after
    arrival (the paper's line-3 pause); a backtrack hop is forwarded in
    the round it arrives.  Returns per-node first-visit rounds, the full
    list of token sends ``(round, sender, target, returning, slot)``,
    and the round the root observed DFS completion.  ``slot_forward`` /
    ``slot_back`` tag each send with the caller's drain-order slot (the
    bulk engine's global ordering key; estimators pass the defaults).
    """
    n = len(children)
    first_visit = [0] * n
    first_visit[root] = r_census
    next_child = [0] * n
    sends: List[Tuple[int, int, int, int, int]] = []
    v, t, slot = root, r_census + 1, slot_forward
    while True:
        ch = children[v]
        i = next_child[v]
        if i < len(ch):
            next_child[v] = i + 1
            c = ch[i]
            sends.append((t, v, c, 0, slot))
            first_visit[c] = t + 1
            v, t, slot = c, t + 2, slot_forward
        elif v == root:
            return first_visit, sends, t
        else:
            p = parent[v]
            sends.append((t, v, p, 1, slot))
            v, t, slot = p, t + 1, slot_back


def run_end_round(last_done: int, token_sends) -> int:
    """The round a run ends (its ``stats.rounds``).

    ``last_done`` is the round the last node finished.  Engines stop at
    the first later round that delivers nothing, and by then only the
    DFS token can still be moving: with few sources its walk outlives
    the protocol.  A backtrack hop is forwarded the round it arrives,
    keeping the network busy, but a first visit pauses one round — a
    silent round in which the run ends, so the scheduled forward is
    never sent.
    """
    sent = {send[0] for send in token_sends}
    end = last_done + 1
    while end - 1 in sent:
        end += 1
    return end


#: Protocol phases in execution order, paired with the schedule
#: attribute holding each phase's start round.
PHASE_ORDER = (
    ("tree_build", "start_round"),
    ("counting", "r_census"),
    ("diameter_broadcast", "r_result"),
    ("aggregation", "base"),
)


@dataclass(frozen=True)
class PhaseSchedule:
    """The protocol's closed-form round plan for one configuration.

    All boundaries are *exact*: the synchronous protocol is round-
    deterministic, so a run on the same (graph, root, sources,
    aggregate) configuration terminates at exactly ``total_rounds`` on
    every engine.  ``aggregate=False`` runs (distributed APSP) stop
    after the diameter broadcast; their aggregation boundaries are the
    termination round.
    """

    num_nodes: int
    root: int
    num_sources: int
    aggregate: bool
    r_census: int  #: tree_build -> counting boundary
    r_result: int  #: counting -> diameter_broadcast boundary
    base: int  #: diameter_broadcast -> aggregation boundary
    diameter: int  #: max distance from any source to any node
    t_max: int  #: largest BFS start time T_s
    total_rounds: int  #: exact stats.rounds of the finished run

    start_round = 0

    def boundaries(self) -> List[Tuple[str, int]]:
        """(phase name, start round) pairs in execution order."""
        out = [("tree_build", 0), ("counting", self.r_census)]
        if self.aggregate:
            out.append(("diameter_broadcast", self.r_result))
            out.append(("aggregation", self.base))
        else:
            out.append(("diameter_broadcast", self.r_result))
        return [(name, r) for name, r in out if r <= self.total_rounds]

    def phase_at(self, round_number: int) -> str:
        """Name of the phase a round falls in."""
        current = "tree_build"
        for name, start in self.boundaries():
            if round_number >= start:
                current = name
        return current

    def fraction(self, round_number: int) -> float:
        """Completed fraction of the run at ``round_number`` (clamped)."""
        if self.total_rounds <= 0:
            return 1.0
        return max(0.0, min(1.0, round_number / self.total_rounds))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "num_nodes": self.num_nodes,
            "root": self.root,
            "num_sources": self.num_sources,
            "aggregate": self.aggregate,
            "r_census": self.r_census,
            "r_result": self.r_result,
            "base": self.base,
            "diameter": self.diameter,
            "t_max": self.t_max,
            "total_rounds": self.total_rounds,
        }


def expected_phase_schedule(
    graph: Graph,
    root: int = 0,
    sources: Optional[Iterable[int]] = None,
    aggregate: bool = True,
) -> PhaseSchedule:
    """Predict the protocol's phase boundaries without running it.

    Mirrors the bulk engine's plan derivation in pure Python: the census
    round, the completion convergecast (``done_send`` recursion over the
    tree, driven by the last BFS wave settling at each node), the
    diameter broadcast window and the aggregation horizon.  Cost is one
    BFS per source — O(S * (N + E)) — far below the run itself.
    """
    require_connected(graph)
    n = graph.num_nodes
    depth, parent, children = tree_schedule(graph, root)
    census_send, r_census, _size = census_schedule(depth, children, root)
    first_visit, token_sends, _dfs_complete = dfs_token_schedule(
        children, parent, root, r_census
    )
    src_list = sorted(sources) if sources is not None else list(range(n))
    all_sources = sources is None
    # Per-source BFS, folded into the two per-node aggregates the
    # completion recursion needs: the eccentricity over sources and the
    # settle round of the last wave, T_s + d(s, v).
    ecc = [0] * n
    last_settle = [0] * n
    t_max = 0
    for s in src_list:
        t_s = first_visit[s] + 1
        if t_s > t_max:
            t_max = t_s
        dist = [-1] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                dv = dist[v] + 1
                for u in graph.neighbors(v):
                    if dist[u] < 0:
                        dist[u] = dv
                        nxt.append(u)
            frontier = nxt
        for v in range(n):
            d = dist[v]
            if d > ecc[v]:
                ecc[v] = d
            settle = t_s + d
            if settle > last_settle[v]:
                last_settle[v] = settle
    bottom_up = sorted(range(n), key=depth.__getitem__, reverse=True)
    done_send = [0] * n
    for v in bottom_up:
        r = depth[v] + 2  # children_final
        if all_sources:
            # num_nodes (hence the expected ledger size) is known to the
            # root at the census and to others when the announce arrives.
            known = r_census if v == root else r_census + depth[v]
            if known > r:
                r = known
        if last_settle[v] > r:
            r = last_settle[v]
        for c in children[v]:
            if done_send[c] + 1 > r:
                r = done_send[c] + 1
        done_send[v] = r
    r_result = done_send[root]
    diameter = max(ecc)
    base = r_result + diameter + 1
    if aggregate:
        last_done = base + t_max + diameter + 1
    else:
        # Counting-only runs (distributed APSP) halt when the AggStart
        # broadcast reaches the deepest leaves.
        last_done = r_result + max(depth)
    total_rounds = run_end_round(last_done, token_sends)
    return PhaseSchedule(
        num_nodes=n,
        root=root,
        num_sources=len(src_list),
        aggregate=aggregate,
        r_census=r_census,
        r_result=r_result,
        base=base,
        diameter=diameter,
        t_max=t_max,
        total_rounds=total_rounds,
    )
