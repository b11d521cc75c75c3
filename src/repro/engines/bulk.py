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
3. materializes the complete send inventory (round, sender, target,
   bits, drain rank) and reduces it into :class:`SimulationStats`
   entirely with array ops, and
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
precomputed send inventory through the exact billing sequence of the
round kernel's ``RoundKernel.step`` — same drain order, same message
objects, same partial state at the point of raise.
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
from repro.wire.codec import encode_frame
from repro.wire.format import TYPE_TAG_BITS

__all__ = ["run_bulk", "populate_stats"]

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

# Message kinds in the send inventory (column ``kind``); ``aux`` carries
# the kind-specific payload handle (a scalar, or a packed pair index).
_K_TREE_WAVE = 0
_K_TREE_JOIN = 1
_K_COUNT = 2
_K_ANNOUNCE = 3
_K_TOKEN = 4
_K_WAVE = 5
_K_DONE = 6
_K_AGGSTART = 7
_K_AGGVALUE = 8

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
        "N", "root", "L", "aggregate",
        "depth", "parent", "children", "depth_max",
        "census_send", "r_census", "subtree_size",
        "first_visit", "dfs_complete",
        "src", "s_idx_of", "T",
        "dist_flat", "sig_m", "sig_e", "psi_m", "psi_e", "val_m", "val_e",
        "pred_indptr", "pred_rows", "pair_rows",
        "ecc", "subtree_ecc", "done_send", "r_result",
        "diameter", "t_max", "base", "horizon",
        "rounds", "done_round",
        "bet_m", "bet_e",
        "r_col", "snd_col", "tgt_col", "bits_col", "rank",
        "block_sizes", "py_rows", "deg", "kind_col", "aux_col",
        "violation",
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
# send inventory
# ---------------------------------------------------------------------------
def _send_inventory(plan: _Plan, sim, indptr, indices, deg, token_sends):
    """Materialize every send as parallel (round, sender, target, ...) columns.

    Tree/census/token/report traffic is O(N + E) and assembled in
    Python; the BFS-wave broadcasts (S * 2E rows) and the aggregation
    values (the predecessor rows) are assembled as array ops.
    """
    N = plan.N
    wire = sim.wire
    L = plan.L
    tag = TYPE_TAG_BITS
    from repro.wire.bits import uint_bits

    tw_bits = tag + wire.distance_bits
    tj_bits = tag
    an_bits = tag + uint_bits(N)
    tk_bits = tag + 1
    bw_bits = tag + wire.id_bits + wire.round_bits + wire.distance_bits + (
        2 * L + 1
    )
    dr_bits = tag + wire.distance_bits
    as_bits = tag + wire.distance_bits + 2 * wire.round_bits
    av_bits = tag + wire.id_bits + (2 * L + 1)

    rows: List[Tuple[int, int, int, int, int, int, int, int]] = []
    depth = plan.depth
    children = plan.children
    parent = plan.parent
    root = plan.root
    r_census = plan.r_census
    for v in range(N):
        dv = depth[v]
        if v != root:
            rows.append((dv, v, parent[v], tj_bits, _SLOT_TREE_JOIN, 0,
                         _K_TREE_JOIN, 0))
            rows.append((plan.census_send[v], v, parent[v],
                         tag + uint_bits(plan.subtree_size[v]), _SLOT_CENSUS,
                         0, _K_COUNT, plan.subtree_size[v]))
            rows.append((plan.done_send[v], v, parent[v], dr_bits,
                         _SLOT_REPORT, 0, _K_DONE, plan.subtree_ecc[v]))
        ch = children[v]
        if ch:
            if v == root:
                ann_round, ann_slot = r_census, _SLOT_CENSUS
                agg_round, agg_slot = plan.r_result, _SLOT_REPORT
            else:
                ann_round, ann_slot = r_census + dv, _SLOT_ANNOUNCE_FWD
                agg_round, agg_slot = plan.r_result + dv, _SLOT_AGGSTART_FWD
            for i, c in enumerate(ch):
                rows.append((ann_round, v, c, an_bits, ann_slot, i,
                             _K_ANNOUNCE, N))
                rows.append((agg_round, v, c, as_bits, agg_slot, i,
                             _K_AGGSTART, 0))
    for t, snd, tgt, returning, slot in token_sends:
        rows.append((t, snd, tgt, tk_bits, slot, 0, _K_TOKEN, returning))

    py = np.array(rows, dtype=np.int64)
    py_rank = (
        (py[:, 0] * N + py[:, 1]) * _SLOT_STRIDE + py[:, 4]
    ) * N + py[:, 5]

    # Only the five columns the stats reduction consumes are built
    # eagerly; slot/seq fold into the drain rank per block and the
    # replay/audit metadata (kind, aux) is reconstructed on demand by
    # _materialize_meta — the metadata columns would double the memory
    # traffic of the fast path for nothing.
    r_parts = [py[:, 0]]
    snd_parts = [py[:, 1]]
    tgt_parts = [py[:, 2]]
    bits_parts = [py[:, 3]]
    rank_parts = [py_rank]

    def _rank(r, snd, slot, seq):
        out = r * N
        out += snd
        out *= _SLOT_STRIDE
        out += slot
        out *= N
        out += seq
        return out

    # TreeWave broadcasts: every node, at its settle round, to every
    # neighbor.
    depth_arr = np.asarray(depth, dtype=np.int64)
    seq_base = np.arange(indices.size, dtype=np.int64) - np.repeat(
        indptr[:-1], deg
    )
    tw_snd = np.repeat(np.arange(N, dtype=np.int64), deg)
    r_parts.append(np.repeat(depth_arr, deg))
    snd_parts.append(tw_snd)
    tgt_parts.append(indices)
    bits_parts.append(np.full(indices.size, tw_bits, dtype=np.int64))
    rank_parts.append(
        _rank(r_parts[-1], tw_snd, np.int64(_SLOT_TREE_WAVE), seq_base)
    )

    # BfsWave broadcasts: every settled pair re-broadcasts once (own
    # launches use the later slot).
    S = len(plan.src)
    bc_round = np.repeat(plan.T, N) + plan.dist_flat
    slot_pair = np.where(
        plan.dist_flat == 0, np.int64(_SLOT_WAVE_OWN), np.int64(_SLOT_WAVE_SETTLE)
    )
    deg_t = np.tile(deg, S)
    bw_r = np.repeat(bc_round, deg_t)
    bw_snd = np.tile(tw_snd, S)
    r_parts.append(bw_r)
    snd_parts.append(bw_snd)
    tgt_parts.append(np.tile(indices, S))
    bits_parts.append(np.full(bw_r.size, bw_bits, dtype=np.int64))
    rank_parts.append(
        _rank(bw_r, bw_snd, np.repeat(slot_pair, deg_t), np.tile(seq_base, S))
    )

    # AggValue sends: pair (s, v) to each predecessor, at
    # base + T_s + D - d(s, v), in sorted-predecessor order.
    if plan.aggregate and plan.pred_rows.size:
        pair_rows, pred_rows = plan.pair_rows, plan.pred_rows
        send_round = (
            plan.base
            + np.repeat(plan.T, N)
            + plan.diameter
            - plan.dist_flat
        )
        counts = np.diff(plan.pred_indptr)
        seq = np.arange(pred_rows.size, dtype=np.int64) - np.repeat(
            plan.pred_indptr[:-1], counts
        )
        av_r = send_round[pair_rows]
        av_snd = pair_rows % N
        r_parts.append(av_r)
        snd_parts.append(av_snd)
        tgt_parts.append(pred_rows)
        bits_parts.append(np.full(av_r.size, av_bits, dtype=np.int64))
        rank_parts.append(
            _rank(av_r, av_snd, np.int64(_SLOT_AGGVALUE), seq)
        )

    plan.r_col = np.concatenate(r_parts)
    plan.snd_col = np.concatenate(snd_parts)
    plan.tgt_col = np.concatenate(tgt_parts)
    plan.bits_col = np.concatenate(bits_parts)
    plan.rank = np.concatenate(rank_parts)
    plan.block_sizes = tuple(part.size for part in r_parts)
    plan.py_rows = py
    plan.deg = deg
    plan.kind_col = None
    plan.aux_col = None


def _materialize_meta(plan: _Plan) -> None:
    """Build the (kind, aux) metadata columns for replay / frame audits.

    Deferred from :func:`_send_inventory`: the fast path never touches
    them.  Block order mirrors the inventory concatenation exactly —
    Python rows, TreeWave, BfsWave, then AggValue.
    """
    if plan.kind_col is not None:
        return
    sizes = plan.block_sizes
    py = plan.py_rows
    deg = plan.deg
    N = plan.N
    S = len(plan.src)
    depth_arr = np.asarray(plan.depth, dtype=np.int64)
    kind_parts = [py[:, 6]]
    aux_parts = [py[:, 7]]
    kind_parts.append(np.full(sizes[1], _K_TREE_WAVE, dtype=np.int64))
    aux_parts.append(np.repeat(depth_arr, deg))
    kind_parts.append(np.full(sizes[2], _K_WAVE, dtype=np.int64))
    aux_parts.append(np.repeat(np.arange(S * N, dtype=np.int64), np.tile(deg, S)))
    if len(sizes) > 3:
        kind_parts.append(np.full(sizes[3], _K_AGGVALUE, dtype=np.int64))
        aux_parts.append(plan.pair_rows)
    plan.kind_col = np.concatenate(kind_parts)
    plan.aux_col = np.concatenate(aux_parts)

# ---------------------------------------------------------------------------
# stats assembly (the fast path)
# ---------------------------------------------------------------------------
def _group_sends(n_nodes, r, snd, tgt, bits, rank):
    """Sort sends into (round, edge) groups, rank-ordered within a group.

    Returns ``(order, first, counts, group_keys, group_bits)``: the
    permutation, the per-group start offsets into it, group sizes, the
    packed ``(round * N + sender) * N + target`` group keys, and each
    group's total bits.  Computed once and shared by the stats
    reduction, the strict-mode violation scan and the sampling audit —
    the sort is the fast path's dominant cost.
    """
    key = (r * n_nodes + snd) * n_nodes + tgt
    order = np.lexsort((rank, key))
    ks = key[order]
    first = np.concatenate(
        ([0], np.flatnonzero(ks[1:] != ks[:-1]) + 1)
    )
    counts = np.diff(np.concatenate((first, [ks.size])))
    group_bits = np.add.reduceat(bits[order], first)
    return order, first, counts, ks[first], group_bits


def populate_stats(stats, rounds, n_nodes, r, snd, tgt, bits, rank,
                   grouping=None):
    """Reduce a send inventory into ``stats`` with array ops.

    Work is O(sends log sends) — per-round cost scales with the *active*
    edges of that round, never with N (the bench suite gates this with a
    scaling microbenchmark).  Reproduces ``observe_round`` exactly:

    * ``worst_edge`` is the first edge-round group, scanning rounds in
      order and groups in first-send order within a round, to reach the
      global per-edge bit maximum — i.e. the minimum first-send drain
      rank among the groups achieving the maximum;
    * the cut tracker (if armed) sees per-round crossing totals keyed in
      ascending round order, exactly as the scan inserts them.

    Returns the per-group arrays ``(order, first, counts, group_bits,
    round, sender, target)`` of the (round, sender, target) grouping for
    reuse by the sampling audit.
    """
    if grouping is None:
        grouping = _group_sends(n_nodes, r, snd, tgt, bits, rank)
    order, first, counts, uniq, group_bits = grouping
    g_round = uniq // (n_nodes * n_nodes)
    g_snd = (uniq // n_nodes) % n_nodes
    g_tgt = uniq % n_nodes

    stats.message_count += int(r.size)
    stats.bit_count += int(bits.sum())
    msgs_pr = np.bincount(r, minlength=rounds)
    bits_pr = np.bincount(r, weights=bits, minlength=rounds).astype(np.int64)
    stats.round_series.extend(
        zip(msgs_pr.tolist(), bits_pr.tolist())
    )
    max_bits = int(group_bits.max())
    stats.max_edge_bits_per_round = max_bits
    stats.max_edge_messages_per_round = int(counts.max())
    at_max = group_bits == max_bits
    first_rank = rank[order][first]
    winner = np.flatnonzero(at_max)[np.argmin(first_rank[at_max])]
    stats.worst_edge = (
        int(g_round[winner]), int(g_snd[winner]), int(g_tgt[winner])
    )
    cut = stats.cut
    if cut is not None:
        # CutTracker.observe runs once per (round, edge) accounting
        # group, so ``messages`` counts crossing *groups* (matching the
        # batched sweep semantics), while ``bits`` sums their loads.
        left = np.zeros(n_nodes, dtype=bool)
        left[list(cut.left)] = True
        crossing = left[g_snd] != left[g_tgt]
        cut.messages += int(crossing.sum())
        cbits = group_bits[crossing]
        cut.bits += int(cbits.sum())
        per_round = np.bincount(
            g_round[crossing], weights=cbits, minlength=rounds
        )
        for rr in np.flatnonzero(per_round):
            cut.bits_per_round[int(rr)] = (
                cut.bits_per_round.get(int(rr), 0) + int(per_round[rr])
            )
    return order, first, counts, group_bits, g_round, g_snd, g_tgt


def _first_violation(plan: _Plan, grouping, budget: int):
    """The earliest strict-mode violation in drain order, if any.

    Mirrors the sweep engine: per directed edge per round, the running
    bit total is checked after each send; the violating send is the one
    with the minimum drain rank whose cumulative edge-round total
    exceeds the budget.  Returns (round, sender, target, bits_used) or
    None.
    """
    order, first, _counts, _keys, group_bits = grouping
    if int(group_bits.max()) <= budget:
        # Bits are positive, so every running prefix is bounded by its
        # group total — no group over budget means no violating send.
        return None
    bs = plan.bits_col[order]
    cum = np.cumsum(bs)
    base = np.zeros(bs.size, dtype=np.int64)
    base[first[1:]] = cum[first[1:] - 1]
    cum = cum - np.maximum.accumulate(base)
    bad = np.flatnonzero(cum > budget)
    if bad.size == 0:
        return None
    ranks = plan.rank[order][bad]
    pick = bad[np.argmin(ranks)]
    row = order[pick]
    return (
        int(plan.r_col[row]),
        int(plan.snd_col[row]),
        int(plan.tgt_col[row]),
        int(cum[pick]),
    )


# ---------------------------------------------------------------------------
# message materialization (replay + sampling audit)
# ---------------------------------------------------------------------------
class _Materializer:
    """Rebuilds the concrete :mod:`repro.wire` message for a send row."""

    def __init__(self, plan: _Plan):
        self.plan = plan
        self._lf_cache: Dict[Tuple[int, int], Any] = {}
        self._agg_start = AggStart(plan.diameter, plan.t_max, plan.base)
        n = plan.N
        self._announce = Announce(n)
        self._token = DfsToken()
        self._token_back = DfsToken(returning=True)
        self._join = TreeJoin()

    def message(self, kind: int, aux: int):
        plan = self.plan
        if kind == _K_WAVE:
            cached = self._lf_cache.get((kind, aux))
            if cached is None:
                p = aux
                sigma = _lf(
                    plan.sig_m[p], plan.sig_e[p], plan.L, Rounding.CEIL
                )
                cached = BfsWave(
                    int(plan.src[p // plan.N]),
                    int(plan.T[p // plan.N]),
                    int(plan.dist_flat[p]),
                    sigma,
                )
                self._lf_cache[(kind, aux)] = cached
            return cached
        if kind == _K_AGGVALUE:
            cached = self._lf_cache.get((kind, aux))
            if cached is None:
                p = aux
                value = _lf(
                    plan.val_m[p], plan.val_e[p], plan.L, Rounding.FLOOR
                )
                cached = AggValue(int(plan.src[p // plan.N]), value)
                self._lf_cache[(kind, aux)] = cached
            return cached
        if kind == _K_TREE_WAVE:
            return TreeWave(aux)
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


def _sampling_audit(sim, plan: _Plan, grouping) -> None:
    """Spot-check billed totals against the exact codec.

    A deterministic sample of edge-round groups (the worst edge plus an
    even stride across all groups) is re-encoded through
    :func:`encode_frame`; any disagreement with the vectorized billing
    raises the same :class:`WireCodecError` as the sweep engine's frame
    audit.
    """
    order, first, counts, group_bits, g_round, g_snd, g_tgt = grouping
    n_groups = first.size
    if n_groups <= _AUDIT_SAMPLES:
        sample = np.arange(n_groups)
    else:
        sample = np.unique(
            np.concatenate((
                np.linspace(0, n_groups - 1, _AUDIT_SAMPLES).astype(np.int64),
                [int(np.argmax(group_bits))],
            ))
        )
    mat = _Materializer(plan)
    wire = sim.wire
    _materialize_meta(plan)
    kind = plan.kind_col
    aux = plan.aux_col
    rank = plan.rank
    for g in sample:
        rows = order[first[g]: first[g] + counts[g]]
        rows = rows[np.argsort(rank[rows])]
        messages = [mat.message(int(kind[i]), int(aux[i])) for i in rows]
        _word, frame_bits = encode_frame(messages, wire)
        if frame_bits != int(group_bits[g]):
            raise WireCodecError(
                "round {}: edge {}->{} charged {} bits but its "
                "encoded frame is {} bits".format(
                    int(g_round[g]), int(g_snd[g]), int(g_tgt[g]),
                    int(group_bits[g]), frame_bits,
                )
            )


# ---------------------------------------------------------------------------
# replay (exact per-send observability)
# ---------------------------------------------------------------------------
def _replay(sim, plan: _Plan) -> None:
    """Drive the precomputed send inventory through sweep-exact billing.

    Used whenever a run needs per-send hooks (tracer, telemetry send or
    round monitors, the full frame audit) or ends exceptionally; follows
    ``RoundKernel.step`` line for line — same drain order, same per-edge
    totals, same raise points, same partial tracer/stats state.
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
    _materialize_meta(plan)
    order = np.argsort(plan.rank)
    r_l = plan.r_col[order].tolist()
    snd_l = plan.snd_col[order].tolist()
    tgt_l = plan.tgt_col[order].tolist()
    kind_l = plan.kind_col[order].tolist()
    aux_l = plan.aux_col[order].tolist()
    mat = _Materializer(plan)
    message_of = mat.message
    total_sends = len(r_l)
    i = 0
    edge_load: Dict[Tuple[int, int], List[int]] = {}
    frames: Dict[Tuple[int, int], List[Any]] = {}
    for round_number in range(plan.rounds):
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
        stats.start_round()
        while i < total_sends and r_l[i] == round_number:
            sender = snd_l[i]
            target = tgt_l[i]
            message = message_of(kind_l[i], aux_l[i])
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
    root = plan.root
    aggregate = plan.aggregate
    horizon = plan.horizon
    # Per-node sorted aggregation send rounds (ascending), vectorized:
    # own pairs park at int64 max so a column sort pushes them last.
    send_rounds_sorted = None
    if aggregate:
        send_round = (
            plan.base
            + np.repeat(plan.T, N)
            + plan.diameter
            - plan.dist_flat
        ).reshape(len(plan.src), N)
        own_rows = np.arange(len(plan.src))
        send_round = send_round.copy()
        send_round[own_rows, plan.src] = np.iinfo(np.int64).max
        send_rounds_sorted = np.sort(send_round, axis=0)
    s_idx_of = plan.s_idx_of
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
        counting.visited = True
        counting._bfs_start_round = None
        counting._token_forward_round = None
        counting._next_child_index = len(ch)
        s_i = s_idx_of[v]
        counting.own_start_time = int(plan.T[s_i]) if s_i >= 0 else None
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
            # A source column carries its own pair parked at the int64
            # sentinel (sorted last); every other column is all real.
            n_real = len(plan.src) - (1 if s_i >= 0 else 0)
            agg._send_rounds = [
                int(x) for x in send_rounds_sorted[:n_real, v]
            ]
            agg._send_cursor = n_real  # every scheduled send fired
            agg.betweenness_raw = _lf(
                plan.bet_m[v], plan.bet_e[v], L, Rounding.FLOOR
            )
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
    """Derive the complete plan: schedule, arrays, sends, results."""
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
    plan.ecc = [int(x) for x in ecc]
    bottom_up = sorted(range(N), key=depth.__getitem__, reverse=True)
    subtree_ecc = [0] * N
    for v in bottom_up:
        e = int(ecc[v])
        for c in children[v]:
            if subtree_ecc[c] > e:
                e = subtree_ecc[c]
        subtree_ecc[v] = e
    plan.subtree_ecc = subtree_ecc
    last_settle = (plan.T[:, None] + dist2d).max(axis=0)
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
        ls = int(last_settle[v])
        if ls > r:
            r = ls
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
        plan.rounds = plan.horizon + 2
        plan.done_round = [plan.horizon + 1] * N
        _psi_recursion(plan, config, level_rows, settled)
        _betweenness_fold(plan)
    else:
        # Counting-only runs (distributed APSP): every node halts the
        # round its AggStart arrives; the last delivery reaches the
        # deepest leaves at r_result + depth_max.
        plan.rounds = plan.r_result + plan.depth_max + 1
        plan.done_round = [plan.r_result + depth[v] for v in range(N)]
        plan.psi_m = plan.psi_e = None
        plan.val_m = plan.val_e = None
        plan.bet_m = plan.bet_e = None

    _send_inventory(plan, sim, indptr, indices, deg, token_sends)
    return plan


def run_bulk(sim):
    """Execute ``sim`` with the bulk engine; returns the populated stats.

    The caller (:meth:`Simulator.run`) has already resolved capability
    via the dispatcher; this function assumes the protocol envelope
    (stock nodes, one root, shared L-float arithmetic, no faults, a
    connected graph).
    """
    telemetry = sim.telemetry
    profiler = telemetry.profiler if telemetry is not None else None
    started = perf_counter()
    plan = _compute(sim)
    grouping = None
    plan.violation = None
    if sim.strict:
        grouping = _group_sends(
            plan.N, plan.r_col, plan.snd_col, plan.tgt_col,
            plan.bits_col, plan.rank,
        )
        plan.violation = _first_violation(plan, grouping, sim.bit_budget)
    if profiler is not None:
        profiler.add("engine.bulk.plan", perf_counter() - started)
        profiler.bump("engine.bulk.sends", int(plan.r_col.size))
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
        or plan.violation is not None
        or plan.rounds > sim.max_rounds
    )
    started = perf_counter()
    if needs_replay:
        _replay(sim, plan)  # raises on violation / round-limit overrun
        if profiler is not None:
            profiler.add("engine.bulk.replay", perf_counter() - started)
    else:
        grouping = populate_stats(
            sim.stats, plan.rounds, plan.N,
            plan.r_col, plan.snd_col, plan.tgt_col, plan.bits_col, plan.rank,
            grouping=grouping,
        )
        _sampling_audit(sim, plan, grouping)
        if profiler is not None:
            profiler.add("engine.bulk.stats", perf_counter() - started)
    _emit_phase_marks(sim, plan)
    _populate_nodes(sim, plan)
    sim.stats.rounds = plan.rounds
    return sim.stats
