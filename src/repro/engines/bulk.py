"""The bulk engine: whole-protocol execution as closed-form schedule + arrays.

The paper's protocol is *oblivious*: once the graph, the root and the
configuration are fixed, every round of every phase is determined by
closed-form recurrences (Lemmas 2-5) — the spanning-tree flood settles
node v at its BFS depth, the DFS token walk is a fixed Euler tour, BFS(s)
reaches v exactly at round ``T_s + d(s, v)``, and the aggregation send
for (s, v) fires at ``base + T_s + D - d(s, v)``.  This engine therefore
never steps node objects.  It

1. derives the full round schedule in O(N + E) Python (tree depths,
   census/announce rounds, the token walk, the completion convergecast),
2. runs one *batched* multi-source BFS over all sources at once as numpy
   structure-of-arrays ops — per-(source, node) distance/sigma/psi lanes
   with :mod:`repro.engines.lfmath` carrying the L-float mantissa and
   exponent in int64 arrays, bit-identical to the scalar arithmetic the
   other engines run,
3. lays every send out in two tables — one row per broadcast (a
   TreeWave, or a settled (source, node) pair's BfsWave, standing for
   one send to each neighbor) and one row per addressed unicast — and
   reduces them into :class:`SimulationStats` per edge-round group
   with array ops, sorting only the unicasts, and
4. back-fills the node objects (tree / counting / aggregation state and
   lazily-materialized ledgers) so every public observable — results,
   stats, per-node state — is indistinguishable from a ``sweep`` run.

Billed bits are computed from the closed-form wire widths (the codec's
layouts are fixed-width except the census varints, which are computed
per value); a deterministic **sampling audit** encodes a sample of
per-edge round frames through :func:`repro.wire.codec.encode_frame` and
cross-checks the charged totals, failing with the same
:class:`~repro.exceptions.WireCodecError` the round kernel's frame
audit raises.  When a run needs per-send observability (a tracer, the full
frame audit, telemetry send/round monitors) or ends exceptionally
(strict-mode violation, round-limit overrun), the engine *replays* the
send tables, expanded to one row per send, through the exact billing
sequence of the round kernel's ``RoundKernel.step`` — same drain order,
same message objects, same partial state at the point of raise.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.arithmetic.lfloat import LFloat, Rounding
from repro.congest.kernel import audit_frames
from repro.core.config import UNIT_STRESS
from repro.core.records import NodeLedger
from repro.core.schedule import (
    census_schedule,
    dfs_token_schedule,
    run_end_round,
    tree_schedule,
)
from repro.engines import lfmath
from repro.exceptions import (
    CongestViolationError,
    SimulationNotTerminatedError,
    WireCodecError,
)
from repro.wire import (
    AggStart,
    AggValue,
    Announce,
    BfsWave,
    DfsToken,
    DoneReport,
    SubtreeCount,
    TreeJoin,
    TreeWave,
)
from repro.wire.bits import uint_bits
from repro.wire.codec import encode_frame
from repro.wire.format import TYPE_TAG_BITS

__all__ = ["run_bulk", "edge_round_groups", "populate_stats"]

# ---------------------------------------------------------------------------
# Drain-order slots.
#
# The sweep engine steps nodes in id order and drains each node's sends
# in the order the phase handlers enqueue them.  Within one node's round
# that order is fixed by the handler sequence in BetweennessNode.on_round
# (tree -> counting -> aggregation) and by each handler's internal order;
# the slots below encode it, so the global drain order of any send is the
# tuple (round, sender, slot, seq).  Slots 4 and 6 never co-occur (the
# separation invariant), and every (round, sender, slot, seq) is unique.
# ---------------------------------------------------------------------------
_SLOT_TREE_WAVE = 0  # TreePhase._settle: TreeWave broadcast
_SLOT_TREE_JOIN = 1  # TreePhase._settle: TreeJoin to the parent
_SLOT_CENSUS = 2  # _maybe_send_count: SubtreeCount, or the root's Announce
_SLOT_ANNOUNCE_FWD = 3  # _handle_announce: forward Announce to children
_SLOT_WAVE_SETTLE = 4  # CountingPhase._settle_source broadcast
_SLOT_TOKEN_BACK = 5  # _handle_tokens: immediate forward of a backtrack
_SLOT_WAVE_OWN = 6  # _maybe_start_bfs: own-BFS launch broadcast
_SLOT_TOKEN_DELAY = 7  # _maybe_forward_token: the one-slot-delayed forward
_SLOT_REPORT = 8  # _maybe_report_done: DoneReport, or the root's AggStart
_SLOT_AGGSTART_FWD = 9  # AggregationPhase.handle_start forward
_SLOT_AGGVALUE = 10  # AggregationPhase.on_round scheduled send
_SLOT_STRIDE = 16

# Message kinds of the control unicasts (``_Sends.py_kind``); ``aux``
# carries the kind-specific payload (a scalar).
_K_TREE_JOIN = 0
_K_COUNT = 1
_K_ANNOUNCE = 2
_K_TOKEN = 3
_K_DONE = 4
_K_AGGSTART = 5

#: Edge-round frames cross-checked against the exact codec per fast run.
_AUDIT_SAMPLES = 64


def _lf(m: int, e: int, L: int, mode: Rounding) -> LFloat:
    """Rebuild a scalar LFloat from int64 mantissa/exponent lanes."""
    if m == 0:
        return LFloat.zero(L, mode)
    return LFloat(int(m), int(e), L, mode)


def _rebuild_ledger(state: Dict) -> NodeLedger:
    """Pickle helper: a materialized bulk ledger travels as a plain one."""
    ledger = NodeLedger.__new__(NodeLedger)
    ledger.__setstate__(state)
    return ledger


#: NodeLedger state read by every accessor — index, columns and the CSR
#: predecessor buffers.  Reading any of them on a not-yet-filled bulk
#: ledger triggers the one-time materialization.
_LAZY_ATTRS = frozenset(
    (
        "_index",
        "row_of",
        "source_col",
        "start_col",
        "dist_col",
        "sigma_col",
        "psi_col",
        "sent_col",
        "_pred_flat",
        "_pred_off",
    )
)


class _BulkLedger(NodeLedger):
    """A :class:`NodeLedger` whose rows materialize on first access.

    The bulk engine holds every ledger row in shared plan arrays;
    filling Theta(N^2) per-node ledger rows eagerly would cost more
    than the whole vectorized run.  Any read of the index or a column —
    directly or through a base-class accessor — triggers the one-time
    fill, in ascending settle-round order exactly as the sweep engine
    inserted them.
    """

    def __init__(
        self,
        owner: int,
        fill: Callable[["_BulkLedger"], None],
        summary: Optional[Callable[[], Dict[str, int]]] = None,
    ):
        super().__init__(owner)
        self._fill: Optional[Callable[["_BulkLedger"], None]] = fill
        self._summary = summary

    def __getattribute__(self, name):
        if (
            name in _LAZY_ATTRS
            # __dict__ lookup, not attribute lookup: _fill is absent
            # while the base __init__ seeds the empty columns.
            and object.__getattribute__(self, "__dict__").get("_fill")
            is not None
        ):
            object.__getattribute__(self, "_materialize")()
        return object.__getattribute__(self, name)

    def _materialize(self) -> None:
        fill = self._fill
        if fill is not None:
            self._fill = None
            fill(self)

    def storage_summary(self):
        # The telemetry gauges ask every ledger for its footprint; a
        # closed-form answer off the plan arrays keeps instrumented
        # bulk runs from materializing Theta(N^2) rows just to be
        # measured.
        if self.__dict__.get("_fill") is not None and self._summary is not None:
            return self._summary()
        return NodeLedger.storage_summary(self)

    def __reduce__(self):
        # Closures over the plan arrays don't pickle; a materialized
        # ledger is indistinguishable from a plain one, so ship that
        # (run_many's parallel mode pickles result nodes back).
        self._materialize()
        state = self.__getstate__()
        state.pop("_fill", None)
        state.pop("_summary", None)
        return (_rebuild_ledger, (state,))


class _Plan:
    """Everything :func:`run_bulk` derives before touching the stats."""

    __slots__ = (
        "N", "root", "L", "aggregate", "indptr", "indices", "deg",
        "depth", "parent", "children", "depth_max",
        "census_send", "r_census", "subtree_size",
        "first_visit", "token_sends", "visited", "next_child",
        "dfs_complete",
        "src", "s_idx_of", "T",
        "dist_flat", "sig_m", "sig_e", "psi_m", "psi_e", "val_m", "val_e",
        "pred_indptr", "pred_rows", "pair_rows",
        "ecc", "subtree_ecc", "done_send", "r_result",
        "diameter", "t_max", "base", "horizon",
        "rounds", "done_round",
        "bet_m", "bet_e",
    )


# ---------------------------------------------------------------------------
# schedule derivation
# ---------------------------------------------------------------------------
def _csr(graph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR adjacency with neighbor lists in ascending-id order."""
    n = graph.num_nodes
    deg = np.empty(n, dtype=np.int64)
    chunks: List[Tuple[int, ...]] = []
    for v in range(n):
        nbrs = graph.neighbors(v)
        deg[v] = len(nbrs)
        chunks.append(nbrs)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.fromiter(
        (u for nbrs in chunks for u in nbrs), dtype=np.int64, count=int(indptr[-1])
    )
    return indptr, indices, deg


# The tree / census / DFS-token schedules are shared with the pure-
# Python progress estimator and live in repro.core.schedule; the bulk
# engine wires its drain-order slot constants into the token walk.


# ---------------------------------------------------------------------------
# the batched multi-source BFS and the psi recursion
# ---------------------------------------------------------------------------
def _ordered_fold(acc_m, acc_e, src_m, src_e, first, counts, L, mode):
    """Left-fold ``src`` rows into ``acc`` per group, in row order.

    Groups are contiguous runs ``src[first[g] : first[g] + counts[g]]``;
    the fold applies ``acc = lf_add(acc, row)`` one position at a time
    across all groups simultaneously, reproducing the scalar engines'
    strictly sequential accumulation order (ascending sender) bit for
    bit.  The loop runs ``max(counts)`` times — the max in-degree of the
    level, not the total row count.
    """
    j = 0
    while True:
        live = counts > j
        if not live.any():
            return acc_m, acc_e
        rows = first[live] + j
        nm, ne = lfmath.lf_add(
            acc_m[live], acc_e[live], src_m[rows], src_e[rows], L, mode
        )
        acc_m[live] = nm
        acc_e[live] = ne
        j += 1


def _batched_bfs(plan: _Plan, indptr, indices, deg):
    """All-source level-synchronous BFS with packed (source, node) keys.

    Pair ``p = s_idx * N + v`` settles at level ``d(s, v)``; per level
    the predecessor rows (pair, pred) are kept — sorted by (pair, pred),
    which is both the scalar inbox order (ascending sender) and the
    record's sorted predecessor tuple.  Sigma lanes are folded in that
    order with ceil rounding, exactly like ``CountingPhase._settle_source``.
    """
    N = plan.N
    L = plan.L
    S = len(plan.src)
    pair0 = np.arange(S, dtype=np.int64) * N + plan.src
    dist = np.full(S * N, -1, dtype=np.int64)
    dist[pair0] = 0
    sig_m = np.zeros(S * N, dtype=np.int64)
    sig_e = np.zeros(S * N, dtype=np.int64)
    one = np.int64(1) << (L - 1)
    sig_m[pair0] = one  # sigma_one = from_int(1) = (2**(L-1), 1)
    sig_e[pair0] = 1
    level_rows: List[Tuple[np.ndarray, np.ndarray]] = []
    settled: List[np.ndarray] = [pair0]
    frontier = pair0
    level = 0
    while frontier.size:
        level += 1
        vs = frontier % N
        s_part = frontier - vs
        counts = deg[vs]
        rp = np.repeat(frontier, counts)
        starts = np.repeat(indptr[vs], counts)
        offsets = np.arange(rp.size, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        targets = indices[starts + offsets]
        cand = np.repeat(s_part, counts) + targets
        mask = dist[cand] < 0
        cand = cand[mask]
        senders = rp[mask] % N
        if cand.size == 0:
            break
        order = np.lexsort((senders, cand))
        qs = cand[order]
        ps = senders[order]
        first = np.concatenate(([0], np.flatnonzero(qs[1:] != qs[:-1]) + 1))
        cnts = np.diff(np.concatenate((first, [qs.size])))
        uniq = qs[first]
        dist[uniq] = level
        sender_pairs = (qs - qs % N) + ps
        acc_m = sig_m[sender_pairs[first]].copy()
        acc_e = sig_e[sender_pairs[first]].copy()
        # Remaining predecessors fold in ascending-sender order (ceil).
        _ordered_fold(
            acc_m, acc_e,
            sig_m[sender_pairs], sig_e[sender_pairs],
            first + 1, cnts - 1, L, "ceil",
        )
        sig_m[uniq] = acc_m
        sig_e[uniq] = acc_e
        level_rows.append((qs, ps))
        settled.append(uniq)
        frontier = uniq
    plan.dist_flat = dist
    plan.sig_m = sig_m
    plan.sig_e = sig_e
    return level_rows, settled


def _psi_recursion(plan: _Plan, config, level_rows, settled):
    """Descending-level psi/value computation (Algorithm 3, Eq. 14).

    Values telescope down the BFS DAG: pairs at level l send
    ``unit + psi`` to their predecessors at level l - 1, whose psi is the
    ascending-sender floor-fold of the arriving values — one fold per
    pair, because all of a pair's successors send in the same round.
    """
    N = plan.N
    L = plan.L
    size = plan.sig_m.size
    psi_m = np.zeros(size, dtype=np.int64)
    psi_e = np.zeros(size, dtype=np.int64)
    val_m = np.zeros(size, dtype=np.int64)
    val_e = np.zeros(size, dtype=np.int64)
    one = np.int64(1) << (L - 1)
    # The unit term, masked to target pairs (non-targets relay psi only).
    target_mask = np.fromiter(
        (config.is_target(v) for v in range(N)), dtype=bool, count=N
    )
    tpair = np.tile(target_mask, size // N)
    if config.unit == UNIT_STRESS:
        unit_m = np.where(tpair, one, np.int64(0))
        unit_e = np.where(tpair, np.int64(1), np.int64(0))
    else:
        rm, re = lfmath.lf_reciprocal(
            np.where(tpair, plan.sig_m, one),
            np.where(tpair, plan.sig_e, np.int64(0)),
            L,
        )
        unit_m = np.where(tpair, rm, np.int64(0))
        unit_e = np.where(tpair, re, np.int64(0))
    for lev in range(len(level_rows), 0, -1):
        pairs = settled[lev]
        vm, ve = lfmath.lf_add(
            unit_m[pairs], unit_e[pairs], psi_m[pairs], psi_e[pairs], L, "floor"
        )
        val_m[pairs] = vm
        val_e[pairs] = ve
        qs, ps = level_rows[lev - 1]
        recv = (qs - qs % N) + ps
        order = np.lexsort((qs, recv))
        recv_s = recv[order]
        send_s = qs[order]
        first = np.concatenate(
            ([0], np.flatnonzero(recv_s[1:] != recv_s[:-1]) + 1)
        )
        cnts = np.diff(np.concatenate((first, [recv_s.size])))
        uniq = recv_s[first]
        acc_m = np.zeros(uniq.size, dtype=np.int64)
        acc_e = np.zeros(uniq.size, dtype=np.int64)
        _ordered_fold(
            acc_m, acc_e,
            val_m[send_s], val_e[send_s],
            first, cnts, L, "floor",
        )
        psi_m[uniq] = acc_m
        psi_e[uniq] = acc_e
    plan.psi_m = psi_m
    plan.psi_e = psi_e
    plan.val_m = val_m
    plan.val_e = val_e


def _betweenness_fold(plan: _Plan):
    """Per-node ledger fold of line 17-18, in settle-round order."""
    N = plan.N
    L = plan.L
    S = len(plan.src)
    dep_m, dep_e = lfmath.lf_mul(
        plan.psi_m, plan.psi_e, plan.sig_m, plan.sig_e, L, "nearest"
    )
    own = np.arange(S, dtype=np.int64) * N + plan.src
    # The node's own source contributes nothing; a zero lane is the
    # exact skip (psi_add(total, zero) returns total verbatim).
    dep_m[own] = 0
    dep_e[own] = 0
    settle = np.repeat(plan.T, N) + plan.dist_flat
    dm = dep_m.reshape(S, N).T
    de = dep_e.reshape(S, N).T
    order = np.argsort(settle.reshape(S, N).T, axis=1)
    dm = np.take_along_axis(dm, order, axis=1)
    de = np.take_along_axis(de, order, axis=1)
    acc_m = np.zeros(N, dtype=np.int64)
    acc_e = np.zeros(N, dtype=np.int64)
    for j in range(S):
        acc_m, acc_e = lfmath.lf_add(
            acc_m, acc_e, dm[:, j], de[:, j], L, "floor"
        )
    plan.bet_m = acc_m
    plan.bet_e = acc_e


# ---------------------------------------------------------------------------
# send tables
# ---------------------------------------------------------------------------
def _widths(wire, n_nodes: int, L: int) -> Dict[str, int]:
    """Billed bits of each fixed-width message kind.

    The census :class:`SubtreeCount` is the only varint-sized message;
    its width is computed per value when the rows are built.
    """
    tag = TYPE_TAG_BITS
    lfloat = 2 * L + 1
    return {
        "tree_wave": tag + wire.distance_bits,
        "tree_join": tag,
        "announce": tag + uint_bits(n_nodes),
        "token": tag + 1,
        "bfs_wave": (
            tag + wire.id_bits + wire.round_bits + wire.distance_bits + lfloat
        ),
        "done": tag + wire.distance_bits,
        "agg_start": tag + wire.distance_bits + 2 * wire.round_bits,
        "agg_value": tag + wire.id_bits + lfloat,
    }


class _Sends:
    """Every send of the run, as two tables.

    ``broadcasts`` = (round, sender, slot, bits) holds one row per
    :class:`TreeWave` (row ``v`` is node v's) and one per settled
    (source, node) pair (row ``N + p`` is pair p's :class:`BfsWave`);
    each row stands for one send to every neighbor of its sender, in
    ascending neighbor order.  ``unicasts`` = (round, sender, target,
    bits, drain rank) holds one row per addressed send: the control
    rows (tree, census, token and report traffic, whose (kind, aux)
    message handles are kept in ``py_kind`` / ``py_aux``) and then one
    :class:`AggValue` row per predecessor link, in ``plan.pair_rows``
    order.
    """

    __slots__ = ("broadcasts", "unicasts", "py_kind", "py_aux")

    def total(self, deg) -> int:
        """The number of billed sends the tables stand for."""
        return int(deg[self.broadcasts[1]].sum()) + self.unicasts[0].size


def _send_tables(plan: _Plan, wire) -> _Sends:
    """Build both send tables straight from the plan.

    The control traffic is O(N) and assembled in Python; the BfsWave
    rows (S * N) and the AggValue rows (one per predecessor link) are
    array ops.
    """
    N = plan.N
    width = _widths(wire, N, plan.L)
    tag = TYPE_TAG_BITS

    rows: List[Tuple[int, int, int, int, int, int, int, int]] = []
    depth = plan.depth
    parent = plan.parent
    root = plan.root
    r_census = plan.r_census
    for v in range(N):
        dv = depth[v]
        if v != root:
            rows.append((dv, v, parent[v], width["tree_join"],
                         _SLOT_TREE_JOIN, 0, _K_TREE_JOIN, 0))
            rows.append((plan.census_send[v], v, parent[v],
                         tag + uint_bits(plan.subtree_size[v]), _SLOT_CENSUS,
                         0, _K_COUNT, plan.subtree_size[v]))
            rows.append((plan.done_send[v], v, parent[v], width["done"],
                         _SLOT_REPORT, 0, _K_DONE, plan.subtree_ecc[v]))
        ch = plan.children[v]
        if ch:
            if v == root:
                ann_round, ann_slot = r_census, _SLOT_CENSUS
                agg_round, agg_slot = plan.r_result, _SLOT_REPORT
            else:
                ann_round, ann_slot = r_census + dv, _SLOT_ANNOUNCE_FWD
                agg_round, agg_slot = plan.r_result + dv, _SLOT_AGGSTART_FWD
            for i, c in enumerate(ch):
                rows.append((ann_round, v, c, width["announce"], ann_slot, i,
                             _K_ANNOUNCE, N))
                rows.append((agg_round, v, c, width["agg_start"], agg_slot,
                             i, _K_AGGSTART, 0))
    for t, snd, tgt, returning, slot in plan.token_sends:
        rows.append((t, snd, tgt, width["token"], slot, 0, _K_TOKEN,
                     returning))
    py = np.array(rows, dtype=np.int64)
    u_parts = [
        py[:, 0], py[:, 1], py[:, 2], py[:, 3],
        _drain_rank(N, py[:, 0], py[:, 1], py[:, 4], py[:, 5]),
    ]

    # AggValue sends: pair (s, v) to each predecessor, at
    # base + T_s + D - d(s, v), in sorted-predecessor order.
    if plan.aggregate and plan.pred_rows.size:
        pair_rows = plan.pair_rows
        send_round = (
            plan.base + plan.diameter + np.repeat(plan.T, N) - plan.dist_flat
        )
        counts = np.diff(plan.pred_indptr)
        seq = np.arange(pair_rows.size, dtype=np.int64) - np.repeat(
            plan.pred_indptr[:-1], counts
        )
        av_r = send_round[pair_rows]
        av_snd = pair_rows % N
        av = (
            av_r, av_snd, plan.pred_rows,
            np.full(av_r.size, width["agg_value"], dtype=np.int64),
            _drain_rank(N, av_r, av_snd, _SLOT_AGGVALUE, seq),
        )
        u_parts = [np.concatenate(pair) for pair in zip(u_parts, av)]

    # Broadcasts: every node's TreeWave at its settle round, then every
    # settled pair's BfsWave (own launches use the later slot).
    S = len(plan.src)
    nodes = np.arange(N, dtype=np.int64)
    sends = _Sends()
    sends.broadcasts = (
        np.concatenate((
            np.asarray(depth, dtype=np.int64),
            np.repeat(plan.T, N) + plan.dist_flat,
        )),
        np.tile(nodes, S + 1),
        np.concatenate((
            np.full(N, _SLOT_TREE_WAVE, dtype=np.int64),
            np.where(plan.dist_flat == 0, _SLOT_WAVE_OWN, _SLOT_WAVE_SETTLE),
        )),
        np.concatenate((
            np.full(N, width["tree_wave"], dtype=np.int64),
            np.full(S * N, width["bfs_wave"], dtype=np.int64),
        )),
    )
    sends.unicasts = tuple(u_parts)
    sends.py_kind = py[:, 6]
    sends.py_aux = py[:, 7]
    return sends


def _drain_rank(n_nodes, r, snd, slot, seq):
    """Global drain-order key of a send: the tuple (round, sender, slot, seq)."""
    return ((r * n_nodes + snd) * _SLOT_STRIDE + slot) * n_nodes + seq


# ---------------------------------------------------------------------------
# stats assembly (the fast path)
# ---------------------------------------------------------------------------
def _neighbor_seq(indptr, indices, v, u):
    """u's index in v's ascending adjacency list, elementwise."""
    n = indptr.size - 1
    edge_key = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    edge_key *= n
    edge_key += indices
    return np.searchsorted(edge_key, v * n + u) - indptr[v]


def _runs(sorted_keys):
    """Start offsets and lengths of the equal-key runs of a sorted array."""
    first = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    return first, np.diff(np.append(first, sorted_keys.size))


class _Groups:
    """The run's traffic per edge-round group, built without per-send rows.

    An *edge-round group* is everything directed edge v -> u carries in
    round r: the broadcasts at (r, v) plus the unicasts at (r, v, u).
    Broadcast groups (``bg_*``, keyed ``r * N + v``) and unicast groups
    (``ug_*``, keyed ``(r * N + v) * N + u``) are reduced separately;
    ``ug_shared`` links a unicast group to the broadcast group on its
    (round, sender), or holds -1.  ``max_bits`` / ``max_messages`` /
    ``worst`` are the run's per-edge maxima and the worst edge.
    """

    __slots__ = (
        "n", "indptr", "indices", "deg", "broadcasts", "unicasts",
        "b_order", "b_first", "bg_key", "bg_bits", "bg_count", "bg_slot",
        "u_order", "u_first", "ug_key", "ug_bits", "ug_count", "ug_shared",
        "max_bits", "max_messages", "worst",
    )

    def frame(self, r: int, v: int, u: int):
        """Group (r, v -> u): its rows in drain order and its billed bits.

        Rows are ``(rank, is_unicast, table row)`` tuples.
        """
        n = self.n
        rows: List[Tuple[int, bool, int]] = []
        charged = 0
        key = r * n + v
        g = int(np.searchsorted(self.bg_key, key))
        if g < self.bg_key.size and self.bg_key[g] == key:
            lo, hi = self.indptr[v], self.indptr[v + 1]
            seq = int(np.searchsorted(self.indices[lo:hi], u))
            slot = self.broadcasts[2]
            for row in self.b_order[
                self.b_first[g]: self.b_first[g] + self.bg_count[g]
            ].tolist():
                rank = _drain_rank(n, r, v, int(slot[row]), seq)
                rows.append((rank, False, row))
            charged += int(self.bg_bits[g])
        key = key * n + u
        h = int(np.searchsorted(self.ug_key, key))
        if h < self.ug_key.size and self.ug_key[h] == key:
            rank = self.unicasts[4]
            for row in self.u_order[
                self.u_first[h]: self.u_first[h] + self.ug_count[h]
            ].tolist():
                rows.append((int(rank[row]), True, row))
            charged += int(self.ug_bits[h])
        rows.sort()
        return rows, charged


def edge_round_groups(indptr, indices, broadcasts, unicasts) -> _Groups:
    """Reduce the two send tables into edge-round groups.

    ``broadcasts`` = (round, sender, slot, bits) rows each stand for one
    send to every neighbor of the sender (CSR ``indptr`` / ``indices``,
    neighbors ascending); ``unicasts`` = (round, sender, target, bits,
    drain rank).  Only the unicasts are sorted per edge: the cost is
    O(unicasts * log unicasts + broadcasts * log broadcasts), whatever
    the degrees.

    The maxima reproduce ``observe_round`` exactly.  Bits are positive,
    so a broadcast group at the maximum shares its (round, sender) with
    no unicast — all its edges tie, and the scan meets v's first
    neighbor first.  Otherwise a group's first-send rank is the smaller
    of its first unicast's rank and its broadcasts' rank on that edge,
    and ``worst`` is the group at the maximum with the least of them.
    """
    n = indptr.size - 1
    deg = np.diff(indptr)
    b_r, b_v, b_slot, b_bits = broadcasts
    u_r, u_v, u_t, u_bits, u_rank = unicasts
    gr = _Groups()
    gr.n = n
    gr.indptr = indptr
    gr.indices = indices
    gr.deg = deg
    gr.broadcasts = broadcasts
    gr.unicasts = unicasts

    key = b_r * n + b_v
    gr.b_order = np.argsort(key)
    key = key[gr.b_order]
    gr.b_first, gr.bg_count = _runs(key)
    gr.bg_key = key[gr.b_first]
    gr.bg_bits = np.add.reduceat(b_bits[gr.b_order], gr.b_first)
    gr.bg_slot = np.minimum.reduceat(b_slot[gr.b_order], gr.b_first)

    key = (u_r * n + u_v) * n + u_t
    gr.u_order = np.argsort(key)
    key = key[gr.u_order]
    gr.u_first, gr.ug_count = _runs(key)
    gr.ug_key = key[gr.u_first]
    gr.ug_bits = np.add.reduceat(u_bits[gr.u_order], gr.u_first)
    ug_rank = np.minimum.reduceat(u_rank[gr.u_order], gr.u_first)

    # Join each unicast group to the broadcast group on its (r, v): the
    # edge-round group's totals and first-send rank.  Both key arrays
    # are sorted, so only the unicast groups up to the last broadcast's
    # (r, v) can meet one — the aggregation traffic never does.
    rv = gr.ug_key // n
    reach = np.searchsorted(rv, gr.bg_key[-1], side="right")
    at = np.minimum(
        np.searchsorted(gr.bg_key, rv[:reach]), gr.bg_key.size - 1
    )
    shared = np.flatnonzero(gr.bg_key[at] == rv[:reach])
    at = at[shared]
    gr.ug_shared = np.full(rv.size, -1, dtype=np.int64)
    gr.ug_shared[shared] = at
    bits = gr.ug_bits.copy()
    bits[shared] += gr.bg_bits[at]
    count = gr.ug_count.copy()
    count[shared] += gr.bg_count[at]
    r, v = np.divmod(rv[shared], n)
    ug_rank[shared] = np.minimum(
        ug_rank[shared],
        _drain_rank(
            n, r, v, gr.bg_slot[at],
            _neighbor_seq(indptr, indices, v, gr.ug_key[shared] % n),
        ),
    )

    gr.max_bits = max(int(bits.max()), int(gr.bg_bits.max()))
    gr.max_messages = max(int(count.max()), int(gr.bg_count.max()))
    best = None
    at_max = np.flatnonzero(bits == gr.max_bits)
    if at_max.size:
        h = at_max[np.argmin(ug_rank[at_max])]
        key = int(gr.ug_key[h])
        best = (int(ug_rank[h]), (key // (n * n), (key // n) % n, key % n))
    at_max = np.flatnonzero(gr.bg_bits == gr.max_bits)
    if at_max.size:
        # bg_key is sorted, so the first candidate has the least rank.
        g = at_max[0]
        key = int(gr.bg_key[g])
        v = key % n
        rank = _drain_rank(n, key // n, v, int(gr.bg_slot[g]), 0)
        if best is None or rank < best[0]:
            best = (rank, (key // n, v, int(indices[indptr[v]])))
    gr.worst = best[1]
    return gr


def populate_stats(stats, rounds: int, groups: _Groups) -> None:
    """Fold edge-round groups into ``stats``, as ``observe_round`` would.

    Totals and the per-round series are ``bincount``s over the two
    tables, broadcasts weighted by their sender's degree, so the cost
    tracks the table sizes, never N * rounds.  The cut tracker (if
    armed) counts crossing *groups* as messages and sums their bits,
    with per-round totals keyed in ascending round order, exactly as
    the scan inserts them.
    """
    n = groups.n
    deg = groups.deg
    b_r, b_v, _b_slot, b_bits = groups.broadcasts
    u_r, u_v, u_t, u_bits, _u_rank = groups.unicasts
    fan = deg[b_v]
    stats.message_count += int(fan.sum()) + int(u_r.size)
    stats.bit_count += int((b_bits * fan).sum()) + int(u_bits.sum())
    msgs_pr = np.bincount(b_r, weights=fan, minlength=rounds) + np.bincount(
        u_r, minlength=rounds
    )
    bits_pr = np.bincount(
        b_r, weights=b_bits * fan, minlength=rounds
    ) + np.bincount(u_r, weights=u_bits, minlength=rounds)
    stats.round_series.extend(
        zip(msgs_pr.astype(np.int64).tolist(), bits_pr.astype(np.int64).tolist())
    )
    stats.max_edge_bits_per_round = groups.max_bits
    stats.max_edge_messages_per_round = groups.max_messages
    stats.worst_edge = groups.worst
    cut = stats.cut
    if cut is not None:
        left = np.zeros(n, dtype=bool)
        left[list(cut.left)] = True
        owner = np.repeat(np.arange(n, dtype=np.int64), deg)
        cross_deg = np.bincount(
            owner[left[owner] != left[groups.indices]], minlength=n
        )
        # A broadcast puts one crossing group on each crossing edge of
        # its sender; a crossing unicast group is a group of its own
        # unless it shares a broadcast's (round, sender).
        b_cross = b_bits * cross_deg[b_v]
        u_cross = left[u_v] != left[u_t]
        ug_key = groups.ug_key
        ug_cross = left[(ug_key // n) % n] != left[ug_key % n]
        cut.messages += int(cross_deg[groups.bg_key % n].sum()) + int(
            (ug_cross & (groups.ug_shared < 0)).sum()
        )
        cut.bits += int(b_cross.sum()) + int(u_bits[u_cross].sum())
        per_round = np.bincount(
            b_r, weights=b_cross, minlength=rounds
        ) + np.bincount(u_r[u_cross], weights=u_bits[u_cross], minlength=rounds)
        for rr in np.flatnonzero(per_round).tolist():
            cut.bits_per_round[rr] = (
                cut.bits_per_round.get(rr, 0) + int(per_round[rr])
            )


# ---------------------------------------------------------------------------
# message materialization (replay + sampling audit)
# ---------------------------------------------------------------------------
class _Materializer:
    """Rebuilds the concrete :mod:`repro.wire` message of a table row."""

    def __init__(self, plan: _Plan, sends: _Sends):
        self.plan = plan
        self.sends = sends
        self._waves: Dict[int, BfsWave] = {}
        self._values: Dict[int, AggValue] = {}
        self._agg_start = AggStart(plan.diameter, plan.t_max, plan.base)
        self._announce = Announce(plan.N)
        self._token = DfsToken()
        self._token_back = DfsToken(returning=True)
        self._join = TreeJoin()

    def broadcast(self, row: int):
        plan = self.plan
        if row < plan.N:
            return TreeWave(plan.depth[row])
        p = row - plan.N
        cached = self._waves.get(p)
        if cached is None:
            sigma = _lf(plan.sig_m[p], plan.sig_e[p], plan.L, Rounding.CEIL)
            cached = BfsWave(
                int(plan.src[p // plan.N]),
                int(plan.T[p // plan.N]),
                int(plan.dist_flat[p]),
                sigma,
            )
            self._waves[p] = cached
        return cached

    def unicast(self, row: int):
        sends = self.sends
        n_py = sends.py_kind.size
        if row >= n_py:
            plan = self.plan
            p = int(plan.pair_rows[row - n_py])
            cached = self._values.get(p)
            if cached is None:
                value = _lf(
                    plan.val_m[p], plan.val_e[p], plan.L, Rounding.FLOOR
                )
                cached = AggValue(int(plan.src[p // plan.N]), value)
                self._values[p] = cached
            return cached
        kind = int(sends.py_kind[row])
        aux = int(sends.py_aux[row])
        if kind == _K_TREE_JOIN:
            return self._join
        if kind == _K_COUNT:
            return SubtreeCount(aux)
        if kind == _K_ANNOUNCE:
            return self._announce
        if kind == _K_TOKEN:
            return self._token_back if aux else self._token
        if kind == _K_DONE:
            return DoneReport(aux)
        return self._agg_start  # _K_AGGSTART


def _spread(count: int, k: int):
    """At most ``k`` evenly strided indices into ``range(count)``."""
    if count <= k:
        return np.arange(count)
    return np.unique(np.linspace(0, count - 1, k).astype(np.int64))


def _sampling_audit(sim, plan: _Plan, sends: _Sends, groups: _Groups) -> None:
    """Spot-check billed totals against the exact codec.

    A deterministic sample of edge-round groups — an even stride over
    the broadcast groups (each on its sender's first edge) and over the
    unicast groups, plus the worst edge — is re-encoded through
    :func:`encode_frame` in drain order; any disagreement with the
    billed bits raises the same :class:`WireCodecError` as the round
    kernel's frame audit.
    """
    n = groups.n
    half = _AUDIT_SAMPLES // 2
    edges = {groups.worst}
    for key in groups.bg_key[_spread(groups.bg_key.size, half)].tolist():
        v = key % n
        edges.add((key // n, v, int(groups.indices[groups.indptr[v]])))
    for key in groups.ug_key[_spread(groups.ug_key.size, half)].tolist():
        edges.add((key // (n * n), (key // n) % n, key % n))
    mat = _Materializer(plan, sends)
    wire = sim.wire
    for r, v, u in sorted(edges):
        rows, charged = groups.frame(r, v, u)
        messages = [
            mat.unicast(row) if is_unicast else mat.broadcast(row)
            for _rank, is_unicast, row in rows
        ]
        _word, frame_bits = encode_frame(messages, wire)
        if frame_bits != charged:
            raise WireCodecError(
                "round {}: edge {}->{} charged {} bits but its "
                "encoded frame is {} bits".format(r, v, u, charged, frame_bits)
            )


# ---------------------------------------------------------------------------
# replay (exact per-send observability)
# ---------------------------------------------------------------------------
def _replay(sim, plan: _Plan, sends: _Sends) -> None:
    """Drive the send tables through sweep-exact billing, one send at a time.

    Used whenever a run needs per-send hooks (tracer, telemetry send or
    round monitors, the full frame audit) or ends exceptionally; follows
    ``RoundKernel.step`` line for line — same drain order, same per-edge
    totals, same raise points, same partial tracer/stats state.  The
    only place the broadcasts are expanded into per-send rows.
    """
    stats = sim.stats
    wire = sim.wire
    tracer = sim.tracer
    telemetry = sim.telemetry
    on_send = None
    on_round_end = None
    if telemetry is not None:
        if telemetry.wants_sends:
            on_send = telemetry.on_send
        on_round_end = telemetry.on_round_end
    budget = sim.bit_budget if sim.strict else None
    audit = sim.frame_audit
    max_rounds = sim.max_rounds
    N = plan.N
    b_r, b_v, b_slot, _b_bits = sends.broadcasts
    u_r, u_v, u_t, _u_bits, u_rank = sends.unicasts
    fan = plan.deg[b_v]
    row = np.repeat(np.arange(b_r.size, dtype=np.int64), fan)
    seq = np.arange(row.size, dtype=np.int64) - np.repeat(
        np.cumsum(fan) - fan, fan
    )
    order = np.argsort(np.concatenate((
        _drain_rank(N, b_r[row], b_v[row], b_slot[row], seq), u_rank,
    )))
    n_bcast = b_r.size
    r_l = np.concatenate((b_r[row], u_r))[order].tolist()
    snd_l = np.concatenate((b_v[row], u_v))[order].tolist()
    tgt_l = np.concatenate((
        plan.indices[np.repeat(plan.indptr[b_v], fan) + seq], u_t,
    ))[order].tolist()
    # One handle per send: a broadcast row, or n_bcast + a unicast row.
    handle_l = np.concatenate((
        row, n_bcast + np.arange(u_r.size, dtype=np.int64),
    ))[order].tolist()
    mat = _Materializer(plan, sends)
    broadcast = mat.broadcast
    unicast = mat.unicast
    total_sends = len(r_l)
    i = 0
    edge_load: Dict[Tuple[int, int], List[int]] = {}
    frames: Dict[Tuple[int, int], List[Any]] = {}
    # Like the round loop, the limit is checked before the termination
    # test, so the terminal round itself can overrun it.
    for round_number in range(plan.rounds + 1):
        if round_number > max_rounds:
            raise SimulationNotTerminatedError(
                round_number,
                max_rounds,
                tuple(
                    v for v in range(plan.N)
                    if plan.done_round[v] > max_rounds
                ),
                sim.graph.name,
            )
        if round_number == plan.rounds:
            return
        stats.start_round()
        while i < total_sends and r_l[i] == round_number:
            sender = snd_l[i]
            target = tgt_l[i]
            h = handle_l[i]
            message = broadcast(h) if h < n_bcast else unicast(h - n_bcast)
            bits = message.bit_size(wire)
            if tracer is not None:
                tracer.record(round_number, sender, target, message, bits)
            if on_send is not None:
                on_send(round_number, sender, target, message, bits)
            key = (sender, target)
            load = edge_load.get(key)
            if load is None:
                edge_load[key] = [1, bits]
                total = bits
            else:
                load[0] += 1
                total = load[1] = load[1] + bits
            if budget is not None and total > budget:
                raise CongestViolationError(
                    round_number, sender, target, total, budget
                )
            if audit:
                frame = frames.get(key)
                if frame is None:
                    frames[key] = [message]
                else:
                    frame.append(message)
            i += 1
        if edge_load:
            if audit:
                audit_frames(wire, round_number, edge_load, frames)
                frames.clear()
            stats.observe_round(round_number, edge_load)
            if on_round_end is not None:
                on_round_end(round_number, edge_load)
            edge_load.clear()


# ---------------------------------------------------------------------------
# node back-fill
# ---------------------------------------------------------------------------
def _plan_storage_summary(plan: _Plan, v: int) -> Dict[str, int]:
    """One node's NodeLedger.storage_summary(), straight off the plan."""
    S = len(plan.src)
    pairs = np.arange(S, dtype=np.int64) * plan.N + v
    links = int(
        (plan.pred_indptr[pairs + 1] - plan.pred_indptr[pairs]).sum()
    )
    return {
        "records": S,
        "pred_links": links,
        "fields": 4 * S,
        "words": 4 * S + links,
    }


def _fill_ledger(plan: _Plan, ledger: NodeLedger) -> None:
    """Materialize one node's rows, in ascending settle-round order."""
    v = ledger.owner
    N = plan.N
    L = plan.L
    S = len(plan.src)
    pairs = np.arange(S, dtype=np.int64) * N + v
    dists = plan.dist_flat[pairs]
    order = np.argsort(plan.T + dists)
    src = plan.src
    aggregate = plan.aggregate
    psi_col = ledger.psi_col
    sent_col = ledger.sent_col
    for s_i in order.tolist():
        p = s_i * N + v
        source = int(src[s_i])
        sigma = _lf(plan.sig_m[p], plan.sig_e[p], L, Rounding.CEIL)
        lo, hi = plan.pred_indptr[p], plan.pred_indptr[p + 1]
        preds = tuple(int(x) for x in plan.pred_rows[lo:hi])
        row = ledger.add_row(
            source, int(plan.T[s_i]), int(dists[s_i]), sigma, preds
        )
        if aggregate:
            psi_col[row] = _lf(plan.psi_m[p], plan.psi_e[p], L, Rounding.FLOOR)
            sent_col[row] = 1 if source != v else 0


def _populate_nodes(sim, plan: _Plan) -> None:
    """Back-fill node/phase state to match a completed sweep run."""
    N = plan.N
    L = plan.L
    S = len(plan.src)
    root = plan.root
    aggregate = plan.aggregate
    horizon = plan.horizon
    send_rounds = None
    if aggregate:
        # Per-node ascending aggregation send rounds, one row per node:
        # a source's own pair parks at the int64 max, so it sorts last.
        send_round = (
            plan.base + plan.diameter + plan.T[:, None]
            - plan.dist_flat.reshape(S, N)
        )
        send_round[np.arange(S), plan.src] = np.iinfo(np.int64).max
        send_rounds = np.sort(send_round.T, axis=1).tolist()
    s_idx_of = plan.s_idx_of.tolist()
    T = plan.T.tolist()
    bet_m = plan.bet_m.tolist() if aggregate else None
    bet_e = plan.bet_e.tolist() if aggregate else None
    for v in range(N):
        node = sim.nodes[v]
        tree = node.tree
        counting = node.counting
        agg = node.aggregation
        dv = plan.depth[v]
        ch = plan.children[v]
        tree.dist = dv
        tree.parent = plan.parent[v]
        tree.settle_round = dv
        tree.children = set(ch)
        tree.children_final = True
        tree._count_sent = True
        tree._child_counts = {c: plan.subtree_size[c] for c in ch}
        tree.num_nodes = N
        if v == root:
            tree.census_round = plan.r_census
        visited = plan.visited[v]
        counting.visited = visited
        counting._bfs_start_round = None
        # Only a node first visited in the run's last rounds still holds
        # its token forward: the run ended before the pause ran out.
        forward = plan.first_visit[v] + 1
        counting._token_forward_round = (
            forward if visited and forward >= plan.rounds else None
        )
        counting._next_child_index = plan.next_child[v]
        s_i = s_idx_of[v]
        counting.own_start_time = T[s_i] if s_i >= 0 else None
        counting._done_reported = True
        counting._child_done = {c: plan.subtree_ecc[c] for c in ch}
        if v == root:
            counting.dfs_complete_round = plan.dfs_complete
            counting.counting_result = (plan.diameter, plan.t_max, plan.base)
            counting.result_round = plan.r_result
            node._dfs_started = True
        agg.armed = True
        agg.diameter = plan.diameter
        agg.max_start_time = plan.t_max
        agg.base = plan.base
        agg._horizon = horizon
        agg._schedule = {}
        if aggregate:
            rounds_v = send_rounds[v]
            if s_i >= 0:
                rounds_v.pop()  # the parked own pair
            agg._send_rounds = rounds_v
            agg._send_cursor = len(rounds_v)  # every scheduled send fired
            agg.betweenness_raw = _lf(bet_m[v], bet_e[v], L, Rounding.FLOOR)
            agg.finished_round = horizon + 1
        else:
            agg._send_rounds = []
            agg._send_cursor = 0
            agg.betweenness_raw = node.arith.psi_zero()
            agg.finished_round = None
        agg.finished = True
        node.done = True
        if node.telemetry is not None:
            node._phase_cursor = 4 if aggregate else 3
        ledger = _BulkLedger(
            v,
            lambda led, _plan=plan: _fill_ledger(_plan, led),
            lambda _plan=plan, _v=v: _plan_storage_summary(_plan, _v),
        )
        node.ledger = ledger
        counting.ledger = ledger
        agg.ledger = ledger


def _emit_phase_marks(sim, plan: _Plan) -> None:
    """Emit the root's telemetry phase marks, sweep-identically."""
    telemetry = sim.nodes[plan.root].telemetry
    if telemetry is None:
        return
    telemetry.phase_begin("tree_build", 0)
    telemetry.phase_begin("counting", plan.r_census)
    telemetry.phase_begin("diameter_broadcast", plan.r_result)
    telemetry.phase_begin("aggregation", plan.base)
    if plan.aggregate:
        telemetry.phase_end(plan.horizon + 1)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------
def _compute(sim) -> _Plan:
    """Derive the complete plan: schedule, arrays, results."""
    graph = sim.graph
    N = graph.num_nodes
    node0 = sim.nodes[0]
    config = node0.config
    arith = node0.arith
    plan = _Plan()
    plan.N = N
    plan.L = arith.precision
    plan.aggregate = config.aggregate
    plan.root = next(
        v for v in range(N) if sim.nodes[v].tree.is_root
    )
    indptr, indices, deg = _csr(graph)
    plan.indptr = indptr
    plan.indices = indices
    plan.deg = deg
    depth, parent, children = tree_schedule(graph, plan.root)
    plan.depth = depth
    plan.parent = parent
    plan.children = children
    plan.depth_max = max(depth)
    plan.census_send, plan.r_census, plan.subtree_size = census_schedule(
        depth, children, plan.root
    )
    plan.first_visit, token_sends, plan.dfs_complete = dfs_token_schedule(
        children, parent, plan.root, plan.r_census,
        _SLOT_TOKEN_DELAY, _SLOT_TOKEN_BACK,
    )
    if config.sources is None:
        src_list = list(range(N))
    else:
        src_list = sorted(config.sources)
    S = len(src_list)
    plan.src = np.asarray(src_list, dtype=np.int64)
    plan.s_idx_of = np.full(N, -1, dtype=np.int64)
    plan.s_idx_of[plan.src] = np.arange(S, dtype=np.int64)
    plan.T = np.asarray(
        [plan.first_visit[s] + 1 for s in src_list], dtype=np.int64
    )

    level_rows, settled = _batched_bfs(plan, indptr, indices, deg)
    if level_rows:
        qs_all = np.concatenate([q for q, _ in level_rows])
        ps_all = np.concatenate([p for _, p in level_rows])
    else:  # pragma: no cover - N >= 2 and connected always yields levels
        qs_all = np.empty(0, dtype=np.int64)
        ps_all = np.empty(0, dtype=np.int64)
    row_order = np.lexsort((ps_all, qs_all))
    plan.pair_rows = qs_all[row_order]
    plan.pred_rows = ps_all[row_order]
    plan.pred_indptr = np.zeros(S * N + 1, dtype=np.int64)
    plan.pred_indptr[1:] = np.cumsum(
        np.bincount(plan.pair_rows, minlength=S * N)
    )

    # Completion convergecast: eccentricities, done-report rounds, and
    # the root's counting result.
    dist2d = plan.dist_flat.reshape(S, N)
    ecc = dist2d.max(axis=0)
    plan.ecc = ecc.tolist()
    bottom_up = sorted(range(N), key=depth.__getitem__, reverse=True)
    subtree_ecc = [0] * N
    for v in bottom_up:
        e = plan.ecc[v]
        for c in children[v]:
            if subtree_ecc[c] > e:
                e = subtree_ecc[c]
        subtree_ecc[v] = e
    plan.subtree_ecc = subtree_ecc
    last_settle = (plan.T[:, None] + dist2d).max(axis=0).tolist()
    all_sources = config.sources is None
    done_send = [0] * N
    for v in bottom_up:
        r = depth[v] + 2  # children_final
        if all_sources:
            # num_nodes (hence the expected ledger size) is known to the
            # root at the census and to others when the announce arrives.
            known = plan.r_census if v == plan.root else (
                plan.r_census + depth[v]
            )
            if known > r:
                r = known
        if last_settle[v] > r:
            r = last_settle[v]
        for c in children[v]:
            if done_send[c] + 1 > r:
                r = done_send[c] + 1
        done_send[v] = r
    plan.done_send = done_send
    plan.r_result = done_send[plan.root]
    plan.diameter = subtree_ecc[plan.root]
    plan.t_max = int(plan.T.max())
    plan.base = plan.r_result + plan.diameter + 1
    plan.horizon = plan.base + plan.t_max + plan.diameter
    if plan.aggregate:
        plan.done_round = [plan.horizon + 1] * N
        _psi_recursion(plan, config, level_rows, settled)
        _betweenness_fold(plan)
    else:
        # Counting-only runs (distributed APSP): every node halts the
        # round its AggStart arrives; the last delivery reaches the
        # deepest leaves at r_result + depth_max.
        plan.done_round = [plan.r_result + depth[v] for v in range(N)]
        plan.psi_m = plan.psi_e = None
        plan.val_m = plan.val_e = None
        plan.bet_m = plan.bet_e = None
    _cut_token_walk(plan, token_sends)
    return plan


def _cut_token_walk(plan: _Plan, token_sends) -> None:
    """End the run where the round loop would, and the token walk with it.

    With few sources the DFS token can still be walking when the last
    node finishes.  The run lasts while the walk keeps the network
    busy (see :func:`repro.core.schedule.run_end_round`); every hop
    from the final round on is never sent, so the walk's end state —
    visited nodes, children handed the token, the root's completion
    round — is the prefix the run reached.
    """
    plan.rounds = run_end_round(max(plan.done_round), token_sends)
    kept = [send for send in token_sends if send[0] < plan.rounds]
    plan.token_sends = kept
    visited = [False] * plan.N
    visited[plan.root] = True
    next_child = [0] * plan.N
    for _t, snd, tgt, returning, _slot in kept:
        if not returning:
            next_child[snd] += 1
            visited[tgt] = True
    plan.visited = visited
    plan.next_child = next_child
    if len(kept) < len(token_sends):
        plan.dfs_complete = None


def run_bulk(sim):
    """Execute ``sim`` with the bulk engine; returns the populated stats.

    The caller (:meth:`Simulator.run`) has already resolved capability
    via the dispatcher; this function assumes the protocol envelope
    (stock nodes, one root, shared L-float arithmetic, no faults, a
    connected graph).  The send tables live only for this call: held
    results keep the plan (their ledgers read it), never the sends.
    """
    telemetry = sim.telemetry
    profiler = telemetry.profiler if telemetry is not None else None
    started = perf_counter()
    plan = _compute(sim)
    sends = _send_tables(plan, sim.wire)
    if profiler is not None:
        profiler.add("engine.bulk.plan", perf_counter() - started)
        profiler.bump("engine.bulk.sends", sends.total(plan.deg))
    needs_replay = (
        sim.tracer is not None
        or sim.frame_audit
        or (
            telemetry is not None
            and (
                telemetry.wants_sends
                or getattr(telemetry, "wants_rounds", True)
            )
        )
        or plan.rounds > sim.max_rounds
    )
    started = perf_counter()
    groups = None
    if not needs_replay:
        groups = edge_round_groups(
            plan.indptr, plan.indices, sends.broadcasts, sends.unicasts
        )
        # Bits are positive, so a send breaks the budget exactly when
        # some edge-round total does; replay raises at that send.
        if sim.strict and groups.max_bits > sim.bit_budget:
            groups = None
    if groups is None:
        _replay(sim, plan, sends)  # raises on violation / round-limit overrun
        if profiler is not None:
            profiler.add("engine.bulk.replay", perf_counter() - started)
    else:
        populate_stats(sim.stats, plan.rounds, groups)
        _sampling_audit(sim, plan, sends, groups)
        if profiler is not None:
            profiler.add("engine.bulk.stats", perf_counter() - started)
    _emit_phase_marks(sim, plan)
    _populate_nodes(sim, plan)
    sim.stats.rounds = plan.rounds
    return sim.stats
