"""The synchronous CONGEST-model network simulator.

Semantics (matching Section III-A of the paper):

* Execution proceeds in globally synchronized rounds ``0, 1, 2, ...``.
* A message enqueued in round ``t`` is delivered at the start of round
  ``t + 1``; channels are reliable and FIFO.
* Within a round a node first receives, then computes (for free), then
  sends — so a node at distance ℓ from a BFS source settles *and*
  forwards the wave in round ``T_s + ℓ``, exactly the timing the paper's
  Lemma 4 arithmetic assumes.
* In **strict mode** the simulator enforces the CONGEST bandwidth
  restriction: the bits enqueued on one directed edge in one round may
  not exceed ``congest_factor * ceil(log2 N)``; an overflow raises
  :class:`~repro.exceptions.CongestViolationError`.  The factor models
  the O(·) constant; the paper's algorithm needs only a small constant
  because at most one BFS wave, one aggregation message, one token and
  one control message share an edge per round.

The simulator is deterministic: nodes act in id order, and each inbox
lists messages in sender-id order (senders act in id order, so the
in-flight lists are sender-sorted by construction — no per-round sort is
needed), so every run (and therefore every benchmark table) is exactly
reproducible.

The pure-Python engines are one round kernel
(:class:`~repro.congest.kernel.RoundKernel`) in two modes, driven by
one outer loop in :meth:`Simulator.run`:

* ``engine="sweep"`` (the default) calls ``on_round`` on **every** node
  **every** round, exactly like a lockstep hardware network would.  It
  makes no assumptions about the node algorithm and is the reference
  for differential testing, tracing and debugging.
* ``engine="event"`` only steps **active** nodes: nodes with a
  newly delivered *waking* message, plus nodes that registered an
  explicit self-wake via :meth:`RoundContext.wake_at`.  Rounds in which
  no node is active are fast-forwarded without touching any node.  The
  paper's pipelined schedule (Lemma 4) leaves most nodes idle in most
  rounds, so this drops the O(N * rounds) Python-level sweep to the
  protocol's true activity volume.  **Contract:** a node stepped with
  an empty inbox outside its registered wake rounds must not change
  state or send — protocols whose idle ``on_round`` has side effects
  (e.g. counting quiet rounds) must either register wakes or use the
  sweep engine.

  Receivers can additionally declare individual arrivals *passive* via
  :meth:`NodeAlgorithm.message_wakes`: a passive message is delivered
  (it lands in the node's inbox and counts toward the round's traffic
  and edge budgets exactly as under the sweep engine) but does not by
  itself cause a step — it is processed in batch at the node's next
  step.  This is only sound for messages whose handling neither
  mutates state nor sends (pure acknowledgements / broadcast echoes);
  the betweenness protocol uses it for the BFS-wave echoes that ripple
  back from already-settled nodes, which dominate the active-step
  count on high-diameter graphs.
"""

from __future__ import annotations

import gc
from typing import Iterable, List, Optional, Tuple

from repro.congest.kernel import RoundKernel
from repro.congest.node import NodeAlgorithm, NodeFactory
from repro.congest.stats import CutTracker, SimulationStats
from repro.exceptions import SimulationNotTerminatedError
from repro.wire import WireFormat
from repro.graphs.graph import Graph

#: Default per-edge budget multiplier: budget = factor * ceil(log2 N).
#: The pipeline's worst round stacks a BFS wave (id + round stamp +
#: distance + a 2L+1-bit float), a token and a control message, all
#: O(log N); 32 covers L = 3 log2 N comfortably while still catching the
#: Theta(N)-bit messages of exact arithmetic on path-count-heavy graphs.
DEFAULT_CONGEST_FACTOR = 32

#: Recognized execution engines (see the module docstring).  ``"auto"``
#: resolves to the fastest capable engine at construction time via
#: :func:`repro.engines.decide_engine`; ``"bulk"`` is the vectorized
#: numpy backend and ``"shard"`` the multi-process runtime of
#: :mod:`repro.shard` (both raise
#: :class:`~repro.exceptions.EngineCapabilityError` when the run falls
#: outside their envelope).  ``"auto"`` never resolves to ``"shard"``
#: — multi-process execution is an explicit opt-in.
ENGINES = ("sweep", "event", "bulk", "shard", "auto")


class Simulator:
    """Run a :class:`NodeAlgorithm` on every node of a graph.

    Parameters
    ----------
    graph:
        The communication topology.
    node_factory:
        Called as ``node_factory(node_id, neighbors)`` for every node.
    strict:
        Enforce the per-edge bit budget (default True).
    congest_factor:
        Budget multiplier c (a positive int) in ``c * ceil(log2 N)``
        bits per directed edge per round.
    max_rounds:
        Safety valve; exceeded ⇒ :class:`SimulationNotTerminatedError`.
        Defaults to ``20 * N + 1000``, far above the paper's O(N) bound.
    cut:
        Optional node set: traffic crossing the induced 2-partition is
        tallied in ``stats.cut`` (used by the Section IX experiments).
    wire:
        Override the :class:`WireFormat` (defaults to one sized for the
        graph).
    tracer:
        Optional :class:`~repro.congest.trace.Tracer` recording every
        delivery for post-run inspection.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` (duck-typed —
        this module does not import ``repro.obs``).  When given, the
        simulator calls ``on_run_start(self)`` before the first round,
        ``on_send(round, sender, receiver, message, bits)`` per enqueued
        message (only if ``telemetry.wants_sends``), ``on_round_end(
        round, edge_load)`` after each round with traffic (with the
        round's per-edge accounting buffer), and
        ``on_run_end(stats)`` after termination.  If
        ``telemetry.profiler`` is set, the engines additionally time
        their delivery/step sections and count scheduling events.  The
        disabled path (``None``, the default) costs one identity check
        per hook site, mirroring ``tracer``.
    engine:
        ``"sweep"`` (default) steps every node every round; ``"event"``
        steps only nodes with pending messages or registered wakes and
        fast-forwards idle rounds.  Both engines produce identical
        results for protocols honoring the wake contract (see the
        module docstring).
    frame_audit:
        When True, the simulator additionally *materializes* every
        per-edge per-round frame through the wire codec
        (:func:`repro.wire.encode_frame` coalesces the edge's messages
        into one bit string) and verifies its length equals the bits
        the accounting charged; a disagreement raises
        :class:`~repro.exceptions.WireCodecError`.  This turns the
        bandwidth numbers from "trusted bookkeeping" into "checked
        against real encoded frames" at the cost of encoding every
        message, so it is off by default.  (Incompatible with resilient
        transport runs, whose envelopes are honestly sized but live
        outside the 4-bit tag registry.)
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` or pre-built
        :class:`~repro.faults.injector.FaultInjector`.  When given,
        every send is routed through the injector's delivery pipeline
        (drop / duplicate / delay / corrupt / link-down), nodes inside
        crash windows are skipped instead of stepped, and a per-round
        stall check converts a starved run into
        :class:`~repro.exceptions.SimulationStalledError`.  ``None``
        (the default) is a zero-cost fast path: one identity check per
        hook site, and the run is bit-identical to a faultless build.
    protocol:
        Optional protocol name or :class:`~repro.protocols.Protocol`
        descriptor identifying the algorithm the node factory builds.
        When omitted it is inferred from the constructed nodes' exact
        class (``None`` for unregistered custom algorithms).  The
        engine dispatcher, the progress estimator and the telemetry
        metadata consult it instead of probing for the stock node.
    gc_pause:
        Pause the cyclic garbage collector for the duration of the
        run.  Off by default — the array-backed ledger removed the
        Theta(N^2) tracked records that once made this dominate (see
        :meth:`run`); opt in for long single-process event-engine
        sweeps, where skipping collections over the message churn is
        still worth ~15% at N = 800.
    workers:
        Number of worker processes for ``engine="shard"`` (ignored by
        the single-process engines).  Shard 0 runs inside this process;
        the rest are forked children exchanging encoded wire frames per
        round.  See ``docs/sharding.md``.
    partitioner:
        Node-partitioning strategy for ``engine="shard"``: ``"greedy"``
        (default, graph-growing edge-cut minimizer) or ``"block"``
        (contiguous id ranges).
    supervision:
        A :class:`repro.shard.supervisor.SupervisionConfig` turning the
        shard coordinator into a supervisor (heartbeat watchdog, worker
        respawn, round-boundary checkpoints, resume).  Requires
        ``engine="shard"``; see ``docs/recovery.md``.
    checkpoint_every, checkpoint_dir, max_restarts, heartbeat_timeout,
    resume_from:
        Scalar shorthands assembled into a ``SupervisionConfig`` when
        ``supervision`` is not given.  All default to off; setting any
        of them implies supervision (and therefore ``engine="shard"``).
    """

    def __init__(
        self,
        graph: Graph,
        node_factory: NodeFactory,
        strict: bool = True,
        congest_factor: int = DEFAULT_CONGEST_FACTOR,
        max_rounds: Optional[int] = None,
        cut: Optional[Iterable[int]] = None,
        wire: Optional[WireFormat] = None,
        tracer=None,
        telemetry=None,
        engine: str = "sweep",
        frame_audit: bool = False,
        faults=None,
        protocol=None,
        gc_pause: bool = False,
        workers: int = 1,
        partitioner: str = "greedy",
        supervision=None,
        checkpoint_every: int = 0,
        checkpoint_dir=None,
        max_restarts: int = 0,
        heartbeat_timeout: Optional[float] = None,
        resume_from=None,
    ):
        if engine not in ENGINES:
            raise ValueError(
                "unknown engine {!r} (expected one of {})".format(
                    engine, ENGINES
                )
            )
        if not isinstance(workers, int) or workers < 1:
            raise ValueError(
                "workers must be a positive int, got {!r}".format(workers)
            )
        if not isinstance(congest_factor, int) or congest_factor < 1:
            raise ValueError(
                "congest_factor must be a positive int, got {!r}".format(
                    congest_factor
                )
            )
        # Worker count and partitioner apply to engine="shard" only;
        # they are validated here (and the partitioner name by
        # repro.shard.partition at run time) so a typo fails fast even
        # when the run resolves to a single-process engine.
        from repro.shard.partition import PARTITIONERS

        if partitioner not in PARTITIONERS:
            raise ValueError(
                "unknown partitioner {!r} (expected one of {})".format(
                    partitioner, PARTITIONERS
                )
            )
        self.workers = workers
        self.partitioner = partitioner
        # Supervision (heartbeats, respawn, round-boundary checkpoints,
        # resume) for engine="shard".  An explicit SupervisionConfig
        # wins; otherwise the scalar knobs assemble one; otherwise None
        # keeps the unsupervised fast path byte-for-byte intact.
        if supervision is not None:
            self.supervision = supervision
        elif (
            checkpoint_every
            or max_restarts
            or heartbeat_timeout is not None
            or checkpoint_dir is not None
            or resume_from is not None
        ):
            from repro.shard.supervisor import (
                DEFAULT_HEARTBEAT_TIMEOUT,
                SupervisionConfig,
            )

            self.supervision = SupervisionConfig(
                heartbeat_timeout=(
                    heartbeat_timeout if heartbeat_timeout is not None
                    else DEFAULT_HEARTBEAT_TIMEOUT
                ),
                max_restarts=max_restarts,
                checkpoint_every=checkpoint_every,
                checkpoint_dir=(
                    str(checkpoint_dir) if checkpoint_dir is not None
                    else None
                ),
                resume_from=(
                    str(resume_from) if resume_from is not None else None
                ),
            )
        else:
            self.supervision = None
        self.graph = graph
        self.strict = strict
        self.engine = engine
        self.wire = wire or WireFormat(max(1, graph.num_nodes))
        # O(log N) hides an additive constant; flooring the log factor
        # at 4 bits keeps degenerate 2-node networks from being starved
        # below a single float-carrying message.
        self.bit_budget = congest_factor * max(4, self.wire.id_bits)
        self.max_rounds = (
            max_rounds if max_rounds is not None else 20 * graph.num_nodes + 1000
        )
        self.stats = SimulationStats()
        self.tracer = tracer
        if tracer is not None and hasattr(tracer, "bind_wire"):
            # Payload-capturing tracers encode each message through the
            # run's wire format (see repro.congest.trace).
            tracer.bind_wire(self.wire)
        self.telemetry = telemetry
        if cut is not None:
            self.stats.cut = CutTracker(frozenset(cut))
        self.nodes: List[NodeAlgorithm] = [
            node_factory(v, graph.neighbors(v)) for v in graph.nodes()
        ]
        self.frame_audit = frame_audit
        # Fault injection (None = zero-cost fast path).  A bare
        # FaultPlan is wrapped in a fresh injector here; the import is
        # lazy so repro.congest keeps no hard dependency on repro.faults.
        if faults is not None and not hasattr(faults, "deliveries"):
            from repro.faults.injector import FaultInjector

            faults = FaultInjector(faults, tracer=tracer)
        self.faults = faults
        if faults is not None:
            faults.bind(self)
            self.stats.faults = faults.stats
        #: Explicit GC pause around the run loop.  The PR 1 workaround
        #: for the old object-ledger's Theta(N^2) tracked records; the
        #: array-backed ledger keeps its rows in GC-invisible buffers,
        #: so the pause is off by default and opt-in for long sweeps.
        self.gc_pause = gc_pause
        # The registered protocol this run executes: an explicit name /
        # descriptor, or inferred from the node class the factory built
        # (transport wrappers expose the protocol node as ``.inner``).
        # None for unregistered custom algorithms.  Lazy import keeps
        # repro.congest importable without the protocols package.
        from repro.protocols import get_protocol, protocol_of_node

        if protocol is not None:
            self.protocol = get_protocol(protocol)
        else:
            probe = self.nodes[0] if self.nodes else None
            if probe is not None:
                probe = getattr(probe, "inner", probe)
            self.protocol = (
                protocol_of_node(probe) if probe is not None else None
            )
        # Resolve "auto" / validate "bulk" now that nodes and faults are
        # in place, so self.engine is a concrete name before run() (and
        # before telemetry snapshots it in on_run_start).  Lazy import:
        # repro.congest stays importable without the engines package.
        self.engine_requested = engine
        self.engine_decision = None
        if engine in ("auto", "bulk", "shard"):
            from repro.engines import decide_engine

            self.engine_decision = decide_engine(engine, self)
            self.engine = self.engine_decision.resolved
        if self.supervision is not None and self.engine != "shard":
            # Supervision only exists in the multi-process runtime; a
            # silently-ignored checkpoint/resume request would be a
            # durability lie, so fail loudly instead.
            from repro.exceptions import EngineCapabilityError

            raise EngineCapabilityError(
                self.engine,
                "supervision (checkpoints, restarts, resume) requires "
                "engine='shard'",
            )
        self.stats.engine = self.engine

    # ------------------------------------------------------------------
    def run(self) -> SimulationStats:
        """Drive rounds until every node is done and no message is in flight.

        Historical note: PR 1 paused the cyclic garbage collector here
        unconditionally, because the old object-backed ledger grew
        Theta(N^2) tracked records and each allocation-triggered
        collection scanned them for nothing (over half the wall clock
        at N = 800).  The array-backed
        :class:`~repro.core.records.NodeLedger` keeps its rows in flat
        buffers the collector never sees, so the unconditional pause is
        retired: runs up to N = 2000 complete on the event engine with
        GC live.  What remains is ordinary collection pressure from the
        per-round message churn — measured ~15% of wall clock at
        N = 800 on the event engine — so the pause survives as the
        opt-in ``gc_pause`` flag for long single-process sweeps
        (correctness is identical either way).

        Returns the populated :class:`SimulationStats`.
        """
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.on_run_start(self)
        pause = self.gc_pause and gc.isenabled()
        if pause:
            gc.disable()
        try:
            if self.engine == "bulk":
                from repro.engines.bulk import run_bulk

                stats = run_bulk(self)
            elif self.engine == "shard":
                from repro.shard.runtime import run_shard

                stats = run_shard(self)
            else:
                stats = self._run_rounds()
        finally:
            if pause:
                gc.enable()
        if telemetry is not None:
            telemetry.on_run_end(stats)
        return stats

    def _run_rounds(self) -> SimulationStats:
        """The sweep/event outer loop around one :class:`RoundKernel`."""
        sweep = self.engine == "sweep"
        kernel = RoundKernel(self, sweep=sweep)
        nodes = self.nodes
        stats = self.stats
        faults = self.faults
        max_rounds = self.max_rounds
        telemetry = self.telemetry
        profiler = None
        on_tick = None
        on_round_end = None
        if telemetry is not None:
            profiler = telemetry.profiler
            on_round_end = telemetry.on_round_end
            # Streaming/progress tick: None on the fast path, so a run
            # without a bus or estimator pays one identity check a round.
            if getattr(telemetry, "wants_ticks", False):
                on_tick = telemetry.on_round_tick
        pending = sum(1 for node in nodes if not node.done)
        round_number = 0
        while True:
            if on_tick is not None:
                on_tick(round_number)
            if faults is not None:
                faults.check_stalled(round_number, self)
            if round_number > max_rounds:
                raise SimulationNotTerminatedError(
                    round_number,
                    max_rounds,
                    tuple(n.node_id for n in nodes if not n.done),
                    self.graph.name,
                )
            had_traffic = kernel.deliver(round_number)
            if (
                not had_traffic
                and round_number > 0
                and not pending
                and not kernel.future
            ):
                break
            active = kernel.activate(round_number)
            # Round 0 is always stepped, even with nobody active, so an
            # empty network ends after it in both modes.
            if not active and round_number > 0 and not sweep:
                if had_traffic:
                    # Every arrival this round was passive: the round
                    # elapses (the messages were on the wire) but no
                    # node needs stepping.
                    if profiler is not None:
                        profiler.bump("engine.passive_rounds")
                    skip_to = round_number + 1
                else:
                    # Idle round(s): by the wake contract no node would
                    # change state, so fast-forward to the next
                    # registered wake or delayed delivery.  With neither
                    # the network is permanently silent: run the counter
                    # out so the failure matches sweep mode's.
                    skip_to = max_rounds + 1
                    if kernel.wake_heap:
                        skip_to = min(skip_to, kernel.wake_heap[0][0])
                    if kernel.future:
                        skip_to = min(skip_to, kernel.future[0][0])
                    if profiler is not None:
                        profiler.bump(
                            "engine.fast_forwarded_rounds",
                            skip_to - round_number,
                        )
                while round_number < skip_to:
                    stats.start_round()
                    round_number += 1
                continue
            stats.start_round()
            for _node_id, done in kernel.step(round_number, active):
                pending += -1 if done else 1
            edge_load = kernel.close_round(round_number)
            if edge_load:
                stats.observe_round(round_number, edge_load)
                if on_round_end is not None:
                    on_round_end(round_number, edge_load)
            round_number += 1
        stats.rounds = round_number
        return stats


def run_protocol(
    graph: Graph,
    node_factory: NodeFactory,
    **kwargs,
) -> Tuple[List[NodeAlgorithm], SimulationStats]:
    """Convenience wrapper: build a :class:`Simulator`, run it, return nodes.

    Returns
    -------
    (nodes, stats):
        The node objects after termination (holding their local outputs)
        and the run statistics.
    """
    sim = Simulator(graph, node_factory, **kwargs)
    stats = sim.run()
    return sim.nodes, stats
