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
3. lays every send out in three tables — broadcasts (one row per
   TreeWave, or per settled (source, node) pair's BfsWave, standing for
   one send to each neighbor), multicasts (one row per (source, node)
   pair's AggValue, standing for one send to each BFS predecessor) and
   unicasts (one row per addressed control send) — and reduces them
   into :class:`SimulationStats` per edge-round group with array ops,
   sorting the fan-out rows per (round, sender) and only the unicasts
   per edge, and
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
send tables, expanded to one row per send in drain order, as the third
round source of :func:`repro.congest.kernel.drive_rounds` next to the
round kernel and the shard coordinator: each send is billed by the
kernel's own per-send billing, and ``drive_rounds`` closes, limits and
records the rounds, so the partial state at the point of raise is the
sweep engine's.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.arithmetic.lfloat import LFloat, Rounding
from repro.congest.kernel import EdgeLoad, RoundKernel, check_frame, drive_rounds
from repro.core.config import UNIT_STRESS
from repro.core.records import NodeLedger
from repro.core.schedule import (
    census_schedule,
    dfs_token_schedule,
    done_schedule,
    run_end_round,
    tree_schedule,
)
from repro.engines import lfmath
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
        "depth", "parent", "children",
        "census_send", "r_census", "subtree_size",
        "first_visit", "token_sends", "visited", "next_child",
        "dfs_complete",
        "src", "s_idx_of", "T",
        "dist_flat", "sig_m", "sig_e", "psi_m", "psi_e", "val_m", "val_e",
        "pred_indptr", "pred_rows",
        "subtree_ecc", "done_send", "r_result",
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


# The tree / census / DFS-token schedules and the completion recursion
# are shared with the pure-Python progress estimator and the round model
# and live in repro.core.schedule; the bulk engine wires its drain-order
# slot constants into the token walk.


# ---------------------------------------------------------------------------
# the batched multi-source BFS and the psi recursion
# ---------------------------------------------------------------------------
def _ordered_fold(acc_m, acc_e, src_m, src_e, first, counts, L, mode):
    """Left-fold ``src`` rows into ``acc`` per group, in row order.

    Groups are contiguous runs ``src[first[g] : first[g] + counts[g]]``;
    the fold applies ``acc = lf_add(acc, row)`` one position at a time
    across all groups simultaneously, reproducing the scalar engines'
    strictly sequential accumulation order (ascending sender) bit for
    bit.  The groups are sorted once by count, descending, so pass j
    touches only the leading groups that still have a j-th row: the
    work is the number of rows, not groups times the max in-degree.
    """
    busy = np.flatnonzero(counts)
    busy = busy[np.argsort(-counts[busy], kind="stable")]
    # live[j]: how many groups have more than j rows.
    live = busy.size - np.cumsum(np.bincount(counts[busy]))
    m = acc_m[busy]
    e = acc_e[busy]
    start = first[busy]
    for j, k in enumerate(live[:-1].tolist()):
        rows = start[:k] + j
        m[:k], e[:k] = lfmath.lf_add(
            m[:k], e[:k], src_m[rows], src_e[rows], L, mode
        )
    acc_m[busy] = m
    acc_e[busy] = e
    return acc_m, acc_e


def _batched_bfs(plan: _Plan, indptr, indices, deg):
    """All-source level-synchronous BFS with packed (source, node) keys.

    Pair ``p = s_idx * N + v`` settles at level ``d(s, v)``; per level
    the predecessor links are kept as sorted keys ``p * N + pred`` —
    (pair, pred) order, which is both the scalar inbox order (ascending
    sender) and the record's sorted predecessor tuple.  Sigma lanes are
    folded in that order with ceil rounding, exactly like
    ``CountingPhase._settle_source``.
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
    level_keys: List[np.ndarray] = []
    settled: List[np.ndarray] = [pair0]
    frontier = pair0
    level = 0
    while frontier.size:
        level += 1
        vs = frontier % N
        counts = deg[vs]
        ends = np.cumsum(counts)
        # Expanded row i of frontier pair f reads adjacency slot
        # indptr[v_f] + (i - the first row of f).
        slots = np.repeat(indptr[vs] - ends + counts, counts)
        slots += np.arange(slots.size, dtype=np.int64)
        cand = np.repeat(frontier - vs, counts) + indices[slots]
        fresh = dist[cand] < 0
        if not fresh.any():
            break
        # One (candidate pair, sender) key per row: unique, and below
        # N**3, which fits int64 for N < 2,097,152.
        key = np.sort(cand[fresh] * N + np.repeat(vs, counts)[fresh])
        qs, ps = np.divmod(key, N)
        first, cnts = _runs(qs)
        uniq = qs[first]
        dist[uniq] = level
        sender_pairs = (qs - qs % N) + ps
        acc_m = sig_m[sender_pairs[first]]
        acc_e = sig_e[sender_pairs[first]]
        # Remaining predecessors fold in ascending-sender order (ceil).
        _ordered_fold(
            acc_m, acc_e,
            sig_m[sender_pairs], sig_e[sender_pairs],
            first + 1, cnts - 1, L, "ceil",
        )
        sig_m[uniq] = acc_m
        sig_e[uniq] = acc_e
        level_keys.append(key)
        settled.append(uniq)
        frontier = uniq
    plan.dist_flat = dist
    plan.sig_m = sig_m
    plan.sig_e = sig_e
    return level_keys, settled


def _psi_recursion(plan: _Plan, config, level_keys, settled):
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
    for lev in range(len(level_keys), 0, -1):
        pairs = settled[lev]
        vm, ve = lfmath.lf_add(
            unit_m[pairs], unit_e[pairs], psi_m[pairs], psi_e[pairs], L, "floor"
        )
        val_m[pairs] = vm
        val_e[pairs] = ve
        qs, ps = np.divmod(level_keys[lev - 1], N)
        t = qs % N
        # (receiver pair, sender node) keys, unique and below N**3.
        recv_s, t = np.divmod(np.sort((qs - t + ps) * N + t), N)
        send_s = recv_s - recv_s % N + t
        first, cnts = _runs(recv_s)
        uniq = recv_s[first]
        # psi starts at zero, and zero + v is v verbatim: start from
        # each receiver's first value and fold in the rest.
        acc_m = val_m[send_s[first]]
        acc_e = val_e[send_s[first]]
        _ordered_fold(
            acc_m, acc_e,
            val_m[send_s], val_e[send_s],
            first + 1, cnts - 1, L, "floor",
        )
        psi_m[uniq] = acc_m
        psi_e[uniq] = acc_e
    plan.psi_m = psi_m
    plan.psi_e = psi_e
    plan.val_m = val_m
    plan.val_e = val_e


def _betweenness_fold(plan: _Plan, settle):
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
    """Every send of the run, as three tables.

    ``broadcasts`` = (round, sender, slot, bits) holds one row per
    :class:`TreeWave` (row ``v`` is node v's) and one per settled
    (source, node) pair (row ``N + p`` is pair p's :class:`BfsWave`);
    each row stands for one send to every neighbor of its sender, in
    ascending neighbor order.  ``multicasts`` = (round, sender, pair,
    bits) holds one :class:`AggValue` row per (source, node) pair that
    has predecessors, in ascending pair order; each row stands for one
    send to every BFS(s) predecessor of its pair (the plan's
    ``pred_indptr`` / ``pred_rows`` CSR), in ascending order.
    ``unicasts`` = (round, sender, target, bits, drain rank) holds one
    row per addressed control send (tree, census, token and report
    traffic), whose (kind, aux) message handles are kept in
    ``py_kind`` / ``py_aux``.
    """

    __slots__ = ("broadcasts", "multicasts", "unicasts", "py_kind", "py_aux")

    def total(self, deg, pred_indptr) -> int:
        """The number of billed sends the tables stand for."""
        pair = self.multicasts[2]
        return (
            int(deg[self.broadcasts[1]].sum())
            + int((pred_indptr[pair + 1] - pred_indptr[pair]).sum())
            + self.unicasts[0].size
        )


def _send_tables(plan: _Plan, wire, settle, value_round) -> _Sends:
    """Build the three send tables straight from the plan.

    The control traffic is O(N) and assembled in Python; the BfsWave
    rows (S * N, at the ``settle`` rounds) and the AggValue rows (one
    per pair with predecessors, at the ``value_round`` rounds) are
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
    sends = _Sends()
    sends.unicasts = (
        py[:, 0], py[:, 1], py[:, 2], py[:, 3],
        _drain_rank(N, py[:, 0], py[:, 1], py[:, 4], py[:, 5]),
    )
    sends.py_kind = py[:, 6]
    sends.py_aux = py[:, 7]

    # AggValue sends: every pair (s, v) with predecessors, at its one
    # scheduled round.
    pairs = np.empty(0, dtype=np.int64)
    m_round = pairs
    if plan.aggregate:
        pairs = np.flatnonzero(np.diff(plan.pred_indptr))
        m_round = value_round[pairs]
    sends.multicasts = (
        m_round, pairs % N, pairs,
        np.full(pairs.size, width["agg_value"], dtype=np.int64),
    )

    # Broadcasts: every node's TreeWave at its settle round, then every
    # settled pair's BfsWave (own launches use the later slot).
    S = len(plan.src)
    nodes = np.arange(N, dtype=np.int64)
    sends.broadcasts = (
        np.concatenate((np.asarray(depth, dtype=np.int64), settle)),
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
    return sends


def _drain_rank(n_nodes, r, snd, slot, seq):
    """Global drain-order key of a send: the tuple (round, sender, slot, seq)."""
    return ((r * n_nodes + snd) * _SLOT_STRIDE + slot) * n_nodes + seq


def _fan_out(indptr, targets, heads):
    """Expand fan-out rows into one row per send.

    Row j stands for one send to each of ``targets[indptr[h] :
    indptr[h + 1]]``, in order, where ``h = heads[j]`` (a broadcast's
    sender in the adjacency CSR, a multicast's pair in the predecessor
    CSR).  Returns ``(row, seq, target)`` per send, rows ascending.
    """
    counts = indptr[heads + 1] - indptr[heads]
    row = np.repeat(np.arange(heads.size, dtype=np.int64), counts)
    seq = np.arange(row.size, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return row, seq, targets[indptr[heads][row] + seq]


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


#: Row kinds of an edge-round group's frame (:meth:`_Groups.frame`).
_BROADCAST, _MULTICAST, _UNICAST = 0, 1, 2


class _Groups:
    """The run's traffic per edge-round group, built without per-send rows.

    An *edge-round group* is everything directed edge v -> u carries in
    round r: the broadcasts at (r, v), the multicasts at (r, v) whose
    pair has predecessor u, and the unicasts at (r, v, u).  Broadcast
    groups (``bg_*``, keyed ``r * N + v``) and unicast groups (``ug_*``,
    keyed ``(r * N + v) * N + u``) are reduced separately; ``ug_shared``
    links a unicast group to the broadcast group on its (round, sender),
    or holds -1.  ``multicasts`` share their (round, sender) with no
    other row, so every link they cover is a one-send group of its own;
    ``mg_key`` holds their ``r * N + v`` keys ascending and ``m_order``
    their rows in that order.  When some multicast did share, the
    multicasts were expanded into per-link unicasts instead:
    ``multicasts`` is then empty, ``unicasts`` holds the expanded links
    after its first ``n_unicast`` rows, and ``m_link_end`` the running
    link count of each multicast row.  ``max_bits`` / ``max_messages`` /
    ``worst`` are the run's per-edge maxima and the worst edge.
    """

    __slots__ = (
        "n", "indptr", "indices", "deg", "pred_indptr", "pred_rows",
        "broadcasts", "multicasts", "unicasts",
        "b_order", "b_first", "bg_key", "bg_bits", "bg_count", "bg_slot",
        "m_order", "mg_key", "n_unicast", "m_link_end",
        "u_order", "u_first", "ug_key", "ug_bits", "ug_count", "ug_shared",
        "max_bits", "max_messages", "worst",
    )

    def frame(self, r: int, v: int, u: int):
        """Group (r, v -> u): its rows in drain order and its billed bits.

        Rows are ``(rank, kind, table row)`` tuples.  A multicast row
        indexes the multicast table the groups were built from, also
        when its links were expanded into unicasts.
        """
        n = self.n
        rows: List[Tuple[int, int, int]] = []
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
                rows.append((rank, _BROADCAST, row))
            charged += int(self.bg_bits[g])
        g = int(np.searchsorted(self.mg_key, key))
        if g < self.mg_key.size and self.mg_key[g] == key:
            row = int(self.m_order[g])
            pair = int(self.multicasts[2][row])
            lo, hi = self.pred_indptr[pair], self.pred_indptr[pair + 1]
            seq = int(np.searchsorted(self.pred_rows[lo:hi], u))
            if seq < hi - lo and self.pred_rows[lo + seq] == u:
                rank = _drain_rank(n, r, v, _SLOT_AGGVALUE, seq)
                rows.append((rank, _MULTICAST, row))
                charged += int(self.multicasts[3][row])
        key = key * n + u
        h = int(np.searchsorted(self.ug_key, key))
        if h < self.ug_key.size and self.ug_key[h] == key:
            rank = self.unicasts[4]
            for row in self.u_order[
                self.u_first[h]: self.u_first[h] + self.ug_count[h]
            ].tolist():
                link = row - self.n_unicast
                if link < 0:
                    rows.append((int(rank[row]), _UNICAST, row))
                else:
                    origin = np.searchsorted(self.m_link_end, link, "right")
                    rows.append((int(rank[row]), _MULTICAST, int(origin)))
            charged += int(self.ug_bits[h])
        rows.sort()
        return rows, charged


def _collide(keys, *others) -> bool:
    """Whether sorted ``keys`` repeat a value or meet one of sorted ``others``."""
    if keys.size == 0:
        return False
    if (keys[1:] == keys[:-1]).any():
        return True
    for other in others:
        # Only the part of ``other`` inside keys' range can meet one: on
        # a protocol run, the aggregation rounds follow all the waves.
        other = other[
            np.searchsorted(other, keys[0]):
            np.searchsorted(other, keys[-1], "right")
        ]
        at = np.searchsorted(keys, other)
        if (keys[at] == other).any():
            return True
    return False


def edge_round_groups(
    indptr, indices, pred_indptr, pred_rows, broadcasts, multicasts, unicasts
) -> _Groups:
    """Reduce the three send tables into edge-round groups.

    ``broadcasts`` = (round, sender, slot, bits) rows each stand for one
    send to every neighbor of the sender (CSR ``indptr`` / ``indices``,
    neighbors ascending).  ``multicasts`` = (round, sender, pair, bits)
    rows each stand for one send, in the AggValue drain slot, to every
    predecessor of the pair (CSR ``pred_indptr`` / ``pred_rows``,
    ascending, at least one per row's pair).  ``unicasts`` = (round, sender, target, bits,
    drain rank).  Broadcasts and multicasts are sorted per (round,
    sender), never per edge, and only the unicasts per edge: the cost is
    O(B log B + M log M + U log U) in the three row counts, whatever the
    degrees.

    When no other row shares a multicast's (round, sender) — Lemma 4
    allows one AggValue send per node per round, and other traffic
    seldom falls on that node in that round — each link the multicast
    covers is a one-send group and needs no row of its own.  Otherwise
    (a DFS-token hop in the same round, or two multicasts on one key)
    every multicast is expanded into per-link unicasts first.

    The maxima reproduce ``observe_round`` exactly.  Bits are positive,
    so a broadcast group at the maximum shares its (round, sender) with
    no unicast — all its edges tie, and the scan meets v's first
    neighbor first.  A multicast at the maximum is met first on its
    pair's first predecessor, and among those the least (round, sender)
    key has the least rank.  Otherwise a group's first-send rank is the
    smaller of its first unicast's rank and its broadcasts' rank on that
    edge, and ``worst`` is the group at the maximum with the least of
    them.
    """
    n = indptr.size - 1
    deg = np.diff(indptr)
    b_r, b_v, b_slot, b_bits = broadcasts
    m_r, m_v, m_pair, m_bits = multicasts
    gr = _Groups()
    gr.n = n
    gr.indptr = indptr
    gr.indices = indices
    gr.deg = deg
    gr.pred_indptr = pred_indptr
    gr.pred_rows = pred_rows
    gr.broadcasts = broadcasts

    key = b_r * n + b_v
    gr.b_order = np.argsort(key)
    key = key[gr.b_order]
    gr.b_first, gr.bg_count = _runs(key)
    gr.bg_key = key[gr.b_first]
    gr.bg_bits = np.add.reduceat(b_bits[gr.b_order], gr.b_first)
    gr.bg_slot = np.minimum.reduceat(b_slot[gr.b_order], gr.b_first)

    key = m_r * n + m_v
    gr.m_order = np.argsort(key)
    gr.mg_key = key[gr.m_order]
    gr.n_unicast = unicasts[0].size
    gr.m_link_end = None
    if _collide(gr.mg_key, gr.bg_key, np.sort(unicasts[0] * n + unicasts[1])):
        row, seq, target = _fan_out(pred_indptr, pred_rows, m_pair)
        r, v = m_r[row], m_v[row]
        links = (
            r, v, target, m_bits[row],
            _drain_rank(n, r, v, _SLOT_AGGVALUE, seq),
        )
        unicasts = tuple(np.concatenate(pair) for pair in zip(unicasts, links))
        gr.m_link_end = np.cumsum(pred_indptr[m_pair + 1] - pred_indptr[m_pair])
        multicasts = tuple(column[:0] for column in multicasts)
        gr.m_order = gr.mg_key = m_pair[:0]
    gr.multicasts = multicasts
    gr.unicasts = unicasts
    _m_r, _m_v, m_pair, m_bits = multicasts
    u_r, u_v, u_t, u_bits, u_rank = unicasts

    key = (u_r * n + u_v) * n + u_t
    gr.u_order = np.argsort(key)
    key = key[gr.u_order]
    gr.u_first, gr.ug_count = _runs(key)
    gr.ug_key = key[gr.u_first]
    gr.ug_bits = np.add.reduceat(u_bits[gr.u_order], gr.u_first)
    ug_rank = np.minimum.reduceat(u_rank[gr.u_order], gr.u_first)

    # Join each unicast group to the broadcast group on its (r, v): the
    # edge-round group's totals and first-send rank.
    rv = gr.ug_key // n
    at = np.minimum(np.searchsorted(gr.bg_key, rv), gr.bg_key.size - 1)
    shared = np.flatnonzero(gr.bg_key[at] == rv)
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

    gr.max_bits = max(
        int(bits.max()), int(gr.bg_bits.max()), int(m_bits.max(initial=0))
    )
    # A multicast link carries one send, and a broadcast group at least
    # one on every edge.
    gr.max_messages = max(int(count.max()), int(gr.bg_count.max()))
    candidates = []
    at_max = np.flatnonzero(bits == gr.max_bits)
    if at_max.size:
        h = at_max[np.argmin(ug_rank[at_max])]
        key = int(gr.ug_key[h])
        candidates.append(
            (int(ug_rank[h]), (key // (n * n), (key // n) % n, key % n))
        )
    # bg_key and mg_key are sorted, so each table's first candidate has
    # its least rank.
    at_max = np.flatnonzero(gr.bg_bits == gr.max_bits)
    if at_max.size:
        key = int(gr.bg_key[at_max[0]])
        v = key % n
        rank = _drain_rank(n, key // n, v, int(gr.bg_slot[at_max[0]]), 0)
        candidates.append((rank, (key // n, v, int(indices[indptr[v]]))))
    at_max = np.flatnonzero(m_bits[gr.m_order] == gr.max_bits)
    if at_max.size:
        key = int(gr.mg_key[at_max[0]])
        v = key % n
        pair = m_pair[gr.m_order[at_max[0]]]
        rank = _drain_rank(n, key // n, v, _SLOT_AGGVALUE, 0)
        candidates.append(
            (rank, (key // n, v, int(pred_rows[pred_indptr[pair]])))
        )
    gr.worst = min(candidates)[1]
    return gr


def populate_stats(stats, rounds: int, groups: _Groups) -> None:
    """Fold edge-round groups into ``stats``, as ``observe_round`` would.

    Totals and the per-round series are ``bincount``s over the three
    tables, broadcasts weighted by their sender's degree and multicasts
    by their pair's predecessor count, so the cost tracks the table
    sizes, never N * rounds.  The cut tracker (if armed) counts
    crossing *groups* as messages and sums their bits, with per-round
    totals keyed in ascending round order, exactly as the scan inserts
    them.
    """
    n = groups.n
    deg = groups.deg
    pred_indptr = groups.pred_indptr
    b_r, b_v, _b_slot, b_bits = groups.broadcasts
    m_r, m_v, m_pair, m_bits = groups.multicasts
    u_r, u_v, u_t, u_bits, _u_rank = groups.unicasts
    fan = deg[b_v]
    m_fan = pred_indptr[m_pair + 1] - pred_indptr[m_pair]
    stats.message_count += int(fan.sum()) + int(m_fan.sum()) + int(u_r.size)
    stats.bit_count += (
        int((b_bits * fan).sum())
        + int((m_bits * m_fan).sum())
        + int(u_bits.sum())
    )
    msgs_pr = (
        np.bincount(b_r, weights=fan, minlength=rounds)
        + np.bincount(m_r, weights=m_fan, minlength=rounds)
        + np.bincount(u_r, minlength=rounds)
    )
    bits_pr = (
        np.bincount(b_r, weights=b_bits * fan, minlength=rounds)
        + np.bincount(m_r, weights=m_bits * m_fan, minlength=rounds)
        + np.bincount(u_r, weights=u_bits, minlength=rounds)
    )
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
        # its sender, and a multicast one on each crossing link; a
        # crossing unicast group is a group of its own unless it shares
        # a broadcast's (round, sender).
        b_cross = b_bits * cross_deg[b_v]
        in_left = np.concatenate(([0], np.cumsum(left[groups.pred_rows])))
        m_links = in_left[pred_indptr[m_pair + 1]] - in_left[pred_indptr[m_pair]]
        m_links = np.where(left[m_v], m_fan - m_links, m_links)
        m_cross = m_bits * m_links
        u_cross = left[u_v] != left[u_t]
        ug_key = groups.ug_key
        ug_cross = left[(ug_key // n) % n] != left[ug_key % n]
        cut.messages += (
            int(cross_deg[groups.bg_key % n].sum())
            + int(m_links.sum())
            + int((ug_cross & (groups.ug_shared < 0)).sum())
        )
        cut.bits += (
            int(b_cross.sum()) + int(m_cross.sum()) + int(u_bits[u_cross].sum())
        )
        per_round = (
            np.bincount(b_r, weights=b_cross, minlength=rounds)
            + np.bincount(m_r, weights=m_cross, minlength=rounds)
            + np.bincount(u_r[u_cross], weights=u_bits[u_cross], minlength=rounds)
        )
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

    def multicast(self, row: int):
        cached = self._values.get(row)
        if cached is None:
            plan = self.plan
            p = int(self.sends.multicasts[2][row])
            value = _lf(plan.val_m[p], plan.val_e[p], plan.L, Rounding.FLOOR)
            cached = AggValue(int(plan.src[p // plan.N]), value)
            self._values[row] = cached
        return cached

    def unicast(self, row: int):
        sends = self.sends
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
    the broadcast groups (each on its sender's first edge), over the
    multicast groups (each on its pair's first predecessor) and over the
    unicast groups, plus the worst edge — is re-encoded through
    :func:`encode_frame` in drain order; any disagreement with the
    billed bits raises the same :class:`WireCodecError` as the round
    kernel's frame audit.
    """
    n = groups.n
    quarter = _AUDIT_SAMPLES // 4
    edges = {groups.worst}
    for key in groups.bg_key[_spread(groups.bg_key.size, 2 * quarter)].tolist():
        v = key % n
        edges.add((key // n, v, int(groups.indices[groups.indptr[v]])))
    pick = _spread(groups.mg_key.size, quarter)
    first_pred = groups.pred_indptr[groups.multicasts[2][groups.m_order[pick]]]
    for key, u in zip(
        groups.mg_key[pick].tolist(), groups.pred_rows[first_pred].tolist()
    ):
        edges.add((key // n, key % n, u))
    for key in groups.ug_key[_spread(groups.ug_key.size, quarter)].tolist():
        edges.add((key // (n * n), (key // n) % n, key % n))
    mat = _Materializer(plan, sends)
    kinds = (mat.broadcast, mat.multicast, mat.unicast)
    for r, v, u in sorted(edges):
        rows, charged = groups.frame(r, v, u)
        messages = [kinds[kind](row) for _rank, kind, row in rows]
        check_frame(sim.wire, r, (v, u), messages, charged)


# ---------------------------------------------------------------------------
# replay (exact per-send observability)
# ---------------------------------------------------------------------------
class _Replay:
    """The send tables as a round source of :func:`drive_rounds`.

    Used whenever a run needs per-send hooks (tracer, telemetry send or
    round monitors, the full frame audit) or ends exceptionally.  Round
    r bills the plan's round-r sends in drain order through a
    :class:`RoundKernel`'s per-send billing and closes the round with
    its ``close_round``; ``drive_rounds`` does the rest.  The sends,
    per-edge totals, raise points and partial tracer and stats state
    are therefore the sweep engine's.  The only place the broadcasts,
    and (outside the shared-round fallback of :func:`edge_round_groups`)
    the multicasts, are expanded into per-send rows.
    """

    def __init__(self, sim, plan: _Plan, sends: _Sends):
        self.kernel = RoundKernel(sim)
        self.done_round = plan.done_round
        self.rounds = plan.rounds
        N = plan.N
        b_r, b_v, b_slot, _b_bits = sends.broadcasts
        m_r, m_v, m_pair, _m_bits = sends.multicasts
        u_r, u_v, u_t, _u_bits, u_rank = sends.unicasts
        b_row, b_seq, b_tgt = _fan_out(plan.indptr, plan.indices, b_v)
        m_row, m_seq, m_tgt = _fan_out(plan.pred_indptr, plan.pred_rows, m_pair)
        rounds = np.concatenate((b_r[b_row], m_r[m_row], u_r))
        senders = np.concatenate((b_v[b_row], m_v[m_row], u_v))
        k_b = b_row.size
        k_bm = k_b + m_row.size
        order = np.argsort(np.concatenate((
            _drain_rank(N, rounds[:k_b], senders[:k_b], b_slot[b_row], b_seq),
            _drain_rank(
                N, rounds[k_b:k_bm], senders[k_b:k_bm], _SLOT_AGGVALUE, m_seq
            ),
            u_rank,
        )))
        # Drain order is round-major: round r's sends are
        # [starts[r], starts[r + 1]).
        self.starts = np.searchsorted(
            rounds[order], np.arange(plan.rounds + 1)
        ).tolist()
        self.senders = senders[order].tolist()
        self.targets = np.concatenate((b_tgt, m_tgt, u_t))[order].tolist()
        # One handle per send: a broadcast row, n_b + a multicast row, or
        # n_bm + a unicast row.
        self.n_b = b_r.size
        self.n_bm = self.n_b + m_r.size
        self.handles = np.concatenate((
            b_row, self.n_b + m_row,
            self.n_bm + np.arange(u_r.size, dtype=np.int64),
        ))[order].tolist()
        self.mat = _Materializer(plan, sends)
        self.next_round = 0

    def run_round(self, round_number: int) -> EdgeLoad:
        """Bill round ``round_number``'s sends; return its per-edge loads."""
        bill = self.kernel.biller(round_number)
        mat = self.mat
        broadcast = mat.broadcast
        multicast = mat.multicast
        unicast = mat.unicast
        n_b = self.n_b
        n_bm = self.n_bm
        lo = self.starts[round_number]
        hi = self.starts[round_number + 1]
        for sender, target, h in zip(
            self.senders[lo:hi], self.targets[lo:hi], self.handles[lo:hi]
        ):
            if h < n_b:
                message = broadcast(h)
            elif h < n_bm:
                message = multicast(h - n_b)
            else:
                message = unicast(h - n_bm)
            bill(sender, target, message)
        self.next_round = round_number + 1
        return self.kernel.close_round(round_number)

    def arrivals(self, round_number: int) -> bool:
        return round_number < self.rounds

    def next_wake(self, round_number: int) -> int:
        # A sweep run never fast-forwards.
        return round_number

    def next_future(self) -> None:
        return None

    def unfinished(self) -> Tuple[int, ...]:
        """Nodes that finish in the next round or later."""
        r = self.next_round
        return tuple(
            v for v, done in enumerate(self.done_round) if done >= r
        )

    @property
    def pending(self) -> int:
        return len(self.unfinished())


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


def _populate_nodes(sim, plan: _Plan, value_round) -> None:
    """Back-fill node/phase state to match a completed sweep run.

    ``value_round`` is the run's last use of that array: its own-pair
    lanes are overwritten here.
    """
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
        send_round = value_round.reshape(S, N)
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
def _compute(sim):
    """Derive the complete plan: schedule, arrays, results.

    Returns ``(plan, settle, value_round)``.  The two S * N round arrays
    are per-run: ``settle`` holds T_s + d(s, v), the round pair (s, v)
    settles and broadcasts its BfsWave, and ``value_round`` (None on
    counting-only runs) holds base + D + T_s - d(s, v), the round the
    pair sends its AggValue.  The plan, which held results keep, holds
    neither.
    """
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

    level_keys, settled = _batched_bfs(plan, indptr, indices, deg)
    # Levels hold disjoint pairs: one sort orders every link by pair.
    pair_rows, plan.pred_rows = np.divmod(
        np.sort(np.concatenate(level_keys)), N
    )
    plan.pred_indptr = np.zeros(S * N + 1, dtype=np.int64)
    plan.pred_indptr[1:] = np.cumsum(np.bincount(pair_rows, minlength=S * N))
    del pair_rows

    # Completion convergecast: eccentricities, done-report rounds, and
    # the root's counting result.
    settle = np.repeat(plan.T, N) + plan.dist_flat
    ecc = plan.dist_flat.reshape(S, N).max(axis=0).tolist()
    bottom_up = sorted(range(N), key=depth.__getitem__, reverse=True)
    subtree_ecc = [0] * N
    for v in bottom_up:
        e = ecc[v]
        for c in children[v]:
            if subtree_ecc[c] > e:
                e = subtree_ecc[c]
        subtree_ecc[v] = e
    plan.subtree_ecc = subtree_ecc
    last_settle = settle.reshape(S, N).max(axis=0).tolist()
    plan.done_send = done_schedule(
        depth, children, plan.r_census, last_settle, config.sources is None
    )
    plan.r_result = plan.done_send[plan.root]
    plan.diameter = subtree_ecc[plan.root]
    plan.t_max = int(plan.T.max())
    plan.base = plan.r_result + plan.diameter + 1
    plan.horizon = plan.base + plan.t_max + plan.diameter
    value_round = None
    if plan.aggregate:
        plan.done_round = [plan.horizon + 1] * N
        _psi_recursion(plan, config, level_keys, settled)
        _betweenness_fold(plan, settle)
        value_round = (
            plan.base + plan.diameter
            + (plan.T[:, None] - plan.dist_flat.reshape(S, N))
        ).ravel()
    else:
        # Counting-only runs (distributed APSP): every node halts the
        # round its AggStart arrives; the last delivery reaches the
        # deepest leaves at r_result + max(depth).
        plan.done_round = [plan.r_result + depth[v] for v in range(N)]
        plan.psi_m = plan.psi_e = None
        plan.val_m = plan.val_e = None
        plan.bet_m = plan.bet_e = None
    _cut_token_walk(plan, token_sends)
    return plan, settle, value_round


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
    plan, settle, value_round = _compute(sim)
    sends = _send_tables(plan, sim.wire, settle, value_round)
    del settle  # the BfsWave rows hold a copy
    if profiler is not None:
        profiler.add("engine.bulk.plan", perf_counter() - started)
        profiler.bump(
            "engine.bulk.sends", sends.total(plan.deg, plan.pred_indptr)
        )
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
            plan.indptr, plan.indices, plan.pred_indptr, plan.pred_rows,
            sends.broadcasts, sends.multicasts, sends.unicasts,
        )
        # Bits are positive, so a send breaks the budget exactly when
        # some edge-round total does; replay raises at that send.
        if sim.strict and groups.max_bits > sim.bit_budget:
            groups = None
    if groups is None:
        # Raises on a strict violation or a round-limit overrun.
        drive_rounds(_Replay(sim, plan, sends), sim)
        if profiler is not None:
            profiler.add("engine.bulk.replay", perf_counter() - started)
    else:
        populate_stats(sim.stats, plan.rounds, groups)
        _sampling_audit(sim, plan, sends, groups)
        if profiler is not None:
            profiler.add("engine.bulk.stats", perf_counter() - started)
    # The tables and groups are the run's largest arrays after the plan:
    # free them before the node back-fill allocates its own.
    del sends, groups
    _emit_phase_marks(sim, plan)
    _populate_nodes(sim, plan, value_round)
    sim.stats.rounds = plan.rounds
    return sim.stats
