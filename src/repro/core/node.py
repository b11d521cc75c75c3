"""The composite per-node state machine of the distributed BC algorithm.

:class:`BetweennessNode` wires the three phase handlers together and
routes each round's inbox by message type:

1. :class:`~repro.core.tree.TreePhase` — spanning tree + census
   (phase 0, an implementation necessity the paper folds into its
   "build a BFS tree rooted in a randomly selected vertex" premise).
2. :class:`~repro.core.counting.CountingPhase` — Algorithm 2: the DFS
   token, the pipelined BFS waves and the completion convergecast.
3. :class:`~repro.core.aggregation.AggregationPhase` — Algorithm 3: the
   collision-free scheduled dependency aggregation and the final local
   betweenness computation.

The node's :attr:`done` flag rises only when the aggregation phase has
produced the local betweenness value, so the simulator's termination
round is the full protocol's round complexity.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.arithmetic.context import ArithmeticContext
from repro.congest.node import Inbox, NodeAlgorithm, RoundContext
from repro.core.aggregation import AggregationPhase
from repro.core.config import ProtocolConfig
from repro.core.counting import CountingPhase
from repro.wire import PROTOCOL_MESSAGES, AggStart, BfsWave
from repro.core.records import NodeLedger
from repro.core.tree import TreePhase
from repro.exceptions import ProtocolError


class BetweennessNode(NodeAlgorithm):
    """One network node running the full distributed BC protocol.

    Parameters
    ----------
    node_id, neighbors:
        Supplied by the simulator's node factory.
    root:
        The id of the node u0 hosting the BFS(u0) tree and the DFS.
    arith:
        The arithmetic context (exact or L-bit float, Section VI).
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` (duck-typed;
        this module does not import ``repro.obs``).  Give it to the
        *root* node only: the root's phase handlers hold the global
        phase boundaries as protocol state (``census_round``,
        ``result_round``, the AggStart ``base``, ``finished_round``),
        so it emits each phase mark exactly once, with the
        protocol-exact round number rather than a guess from traffic.
    """

    #: Phase-class hooks: a protocol variant (see :mod:`repro.protocols`)
    #: subclasses the node and swaps one of these to re-time or replace
    #: a phase while inheriting the dispatch loop, the wake
    #: registration and the output surface unchanged.
    counting_class = CountingPhase
    aggregation_class = AggregationPhase

    #: After an ``engine="shard"`` run, the worker shard that kept this
    #: node's per-source state (ledger, dependencies); the object here
    #: then carries only the reconciled results.  None: the state is in
    #: this process.
    remote_shard: Optional[int] = None

    def __init__(
        self,
        node_id: int,
        neighbors: Sequence[int],
        root: int,
        arith: ArithmeticContext,
        config: ProtocolConfig = ProtocolConfig(),
        telemetry=None,
    ):
        super().__init__(node_id, neighbors)
        self.arith = arith
        self.config = config
        self.telemetry = telemetry
        self.ledger = NodeLedger(node_id)
        self.tree = TreePhase(node_id, is_root=(node_id == root))
        self.counting = self.counting_class(
            node_id, self.tree, self.ledger, arith, config=config
        )
        self.aggregation = self.aggregation_class(
            node_id, self.tree, self.ledger, arith, config=config
        )
        self._dfs_started = False
        # Phase-mark cursor: index into _PHASE_MARKS of the next
        # boundary to emit (marks are strictly ordered, so a single
        # integer suffices).  Stays 0 forever when telemetry is None.
        self._phase_cursor = 0

    # ------------------------------------------------------------------
    def on_start(self, ctx: RoundContext) -> None:
        if self.telemetry is not None:
            self.telemetry.phase_begin("tree_build", ctx.round_number)

    def on_round(self, ctx: RoundContext, inbox: Inbox) -> None:
        # Single code path for every round: split the inbox into typed
        # buckets (lists only materialize for the types actually
        # present — almost every step carries one or two), then step the
        # phases in order, skipping handlers that provably have nothing
        # to do.
        (
            tree_waves,
            tree_joins,
            subtree_counts,
            announces,
            tokens,
            bfs_waves,
            done_reports,
            agg_starts,
            agg_values,
        ) = _split_inbox(inbox)
        no = _NO_MESSAGES
        tree = self.tree
        if (
            tree.num_nodes is None
            or tree_waves is not no
            or tree_joins is not no
            or subtree_counts is not no
            or announces is not no
        ):
            # Once the census announce has arrived the tree phase is
            # fully message-driven and inert (its only timer,
            # ``children_final``, precedes the announce), so it only
            # needs stepping while building or on tree traffic.
            tree.on_round(
                ctx, tree_waves, tree_joins, subtree_counts, announces
            )
        if (
            tree.is_root
            and not self._dfs_started
            and tree.census_round is not None
        ):
            # Census done: the root is the DFS's first "visit".
            self._dfs_started = True
            self.counting.begin_dfs(ctx)
        self.counting.on_round(ctx, bfs_waves, tokens, done_reports)
        if (
            tree.is_root
            and self.counting.counting_result is not None
            and not self.aggregation.armed
        ):
            diameter, t_max, base = self.counting.counting_result
            self.aggregation.arm(AggStart(diameter, t_max, base))
        aggregation = self.aggregation
        if agg_starts is not no:
            aggregation.handle_start(ctx, agg_starts)
        aggregation.on_round(ctx, agg_values)
        if aggregation.finished:
            self.done = True
        if self.telemetry is not None:
            self._phase_transitions()
        self._register_wakes(ctx)

    def _phase_transitions(self) -> None:
        """Emit any phase marks whose protocol evidence just appeared.

        Each entry of :data:`_PHASE_MARKS` names a phase and the piece
        of root state holding its protocol-exact start round; the marks
        are strictly ordered, so a cursor walks them at most once per
        run.  The final aggregation ``finished_round`` closes the last
        span.  Only called on the telemetry-carrying (root) node.
        """
        telemetry = self.telemetry
        cursor = self._phase_cursor
        marks = _PHASE_MARKS
        while cursor < len(marks):
            name, owner, attribute = marks[cursor]
            boundary = getattr(getattr(self, owner), attribute)
            if boundary is None:
                break
            if name is None:
                telemetry.phase_end(boundary)
            else:
                telemetry.phase_begin(name, boundary)
            cursor += 1
        self._phase_cursor = cursor

    def message_wakes(self, sender: int, message: Any) -> bool:
        """Delivery-time wake filter (see :class:`NodeAlgorithm`).

        A BFS wave for a source this node has already settled at a
        nearer or equal distance is a broadcast echo: the counting
        phase validates and discards it without changing state or
        sending, so it need not trigger a step of its own.  On
        high-diameter graphs these echoes are roughly half of all
        deliveries, so deferring them halves the event engine's work.
        A wave that would fail the late-arrival check
        (``dist + 1 <= record.dist``) still wakes the node, so the
        :class:`~repro.exceptions.ProtocolError` fires in the same
        round as under the sweep engine.
        """
        if type(message) is BfsWave:
            row = self.ledger.row_of(message.source)
            if row is not None and message.dist + 1 > self.ledger.dist_col[row]:
                return False
        return True

    def _register_wakes(self, ctx: RoundContext) -> None:
        """Register the node's next round-triggered action with the engine.

        The phases expose their pending timers (``children_final``, the
        delayed BFS launch / token forward, the aggregation send
        schedule and the post-horizon finish); the earliest one is
        registered via :meth:`RoundContext.wake_at` so the event engine
        steps this node exactly when needed.  Re-registration on every
        step keeps the invariant simple: the node is always stepped at
        its earliest pending timer, at which point it registers the
        next one.
        """
        wake = self.tree.next_event()
        candidate = self.counting.next_event()
        if candidate is not None and (wake is None or candidate < wake):
            wake = candidate
        candidate = self.aggregation.next_event(ctx.round_number)
        if candidate is not None and (wake is None or candidate < wake):
            wake = candidate
        if wake is not None and wake > ctx.round_number:
            ctx.wake_at(wake)

    # ------------------------------------------------------------------
    # outputs (read by the pipeline after the run)
    # ------------------------------------------------------------------
    @property
    def betweenness_raw(self) -> Any:
        """Sum of dependencies (before the undirected halving)."""
        if self.aggregation.betweenness_raw is None:
            raise ProtocolError(
                "node {} has not finished the protocol".format(self.node_id)
            )
        return self.aggregation.betweenness_raw

    @property
    def diameter(self) -> Optional[int]:
        """The network diameter as learned from the AggStart broadcast."""
        return self.aggregation.diameter

    def sent_sources(self) -> frozenset:
        """Sources whose scheduled aggregation send this node executed.

        A sent record's psi is final (every BFS(s) descendant sent
        strictly earlier), so these are the sources for which this
        node's dependency delta_s·(v) is trustworthy even in a run that
        was cut short.
        """
        ledger = self.ledger
        source_col = ledger.source_col
        sent_col = ledger.sent_col
        return frozenset(
            source_col[row] for row in range(len(ledger)) if sent_col[row]
        )

    def partial_betweenness_raw(self, complete_sources) -> Any:
        """Raw betweenness restricted to ``complete_sources``.

        The per-source telescoping (Eq. 14) is independent across
        sources, so summing dependencies over any source subset is
        exact for that subset — this is the bounded-partial output a
        faulted run degrades to instead of returning wrong totals.
        """
        arith = self.arith
        total = arith.psi_zero()
        node_id = self.node_id
        ledger = self.ledger
        source_col = ledger.source_col
        sigma_col = ledger.sigma_col
        psi_col = ledger.psi_col
        for row in range(len(ledger)):
            source = source_col[row]
            if source == node_id or psi_col[row] is None:
                continue
            if source in complete_sources:
                total = arith.psi_add(
                    total, arith.dependency(psi_col[row], sigma_col[row])
                )
        return total


def make_node_factory(
    root: int,
    arith: ArithmeticContext,
    config: ProtocolConfig = ProtocolConfig(),
    telemetry=None,
    node_class=None,
):
    """The factory the simulator calls for every node.

    ``telemetry`` is handed to the root node only (see
    :class:`BetweennessNode`); every other node keeps the zero-cost
    ``None`` default.  ``node_class`` lets a protocol variant (see
    :mod:`repro.protocols`) substitute its node subclass.
    """
    cls = BetweennessNode if node_class is None else node_class

    def factory(node_id: int, neighbors: Tuple[int, ...]) -> BetweennessNode:
        return cls(
            node_id,
            neighbors,
            root,
            arith,
            config=config,
            telemetry=telemetry if node_id == root else None,
        )

    return factory


#: Shared empty-inbox-slot sentinel for the typed dispatch above: phase
#: handlers only iterate / truth-test their message lists, so an empty
#: tuple is a safe stand-in that costs no allocation.
_NO_MESSAGES: Tuple = ()


#: Ordered phase boundaries for telemetry, each as (phase name to open,
#: attribute owner on the node, attribute holding the start round); a
#: ``None`` name closes the final span instead.  The boundaries are the
#: protocol state the root sets as the run progresses: the census
#: completes the tree build, ``result_round`` ends the pipelined
#: counting, the AggStart ``base`` ends the D-round diameter broadcast,
#: and ``finished_round`` is the final local computation.
_PHASE_MARKS: Tuple[Tuple[Optional[str], str, str], ...] = (
    ("counting", "tree", "census_round"),
    ("diameter_broadcast", "counting", "result_round"),
    ("aggregation", "aggregation", "base"),
    (None, "aggregation", "finished_round"),
)


#: The single routing table: message class -> bucket index, derived
#: from the codec registry's canonical protocol-message order.  This
#: replaces the per-type ``isinstance`` / elif chains that used to be
#: duplicated across the dispatch paths.
_BUCKET_OF = {cls: index for index, cls in enumerate(PROTOCOL_MESSAGES)}


def _split_inbox(inbox: Inbox) -> List[Any]:
    """Partition an inbox into per-type buckets in one pass.

    Returns one bucket per :data:`PROTOCOL_MESSAGES` entry, in that
    order; absent types get the shared :data:`_NO_MESSAGES` sentinel
    (phase handlers only iterate / truth-test their lists).  Any other
    message type on a protocol edge is a :class:`ProtocolError`.
    """
    buckets: List[Any] = [_NO_MESSAGES] * len(PROTOCOL_MESSAGES)
    for pair in inbox:
        index = _BUCKET_OF.get(type(pair[1]))
        if index is None:
            raise ProtocolError(
                "unexpected message type {!r}".format(type(pair[1]).__name__)
            )
        bucket = buckets[index]
        if bucket is _NO_MESSAGES:
            buckets[index] = [pair]
        else:
            bucket.append(pair)
    return buckets
