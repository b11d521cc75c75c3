"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so a
caller can catch all library-specific failures with a single ``except``
clause.  Sub-hierarchies mirror the package layout: graph construction
errors, CONGEST-model violations raised by the simulator, arithmetic
errors from the L-bit floating point substrate, and protocol errors from
the distributed algorithm itself.
"""

from __future__ import annotations

import inspect


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package.

    Subclasses whose constructor takes structured fields store each
    parameter under its own name; pickling rebuilds them from those
    fields (``args`` holds only the formatted message), so an error
    raised in a forked shard worker reaches the coordinator intact.
    """

    def __reduce__(self):
        names = [
            name
            for name, param in inspect.signature(
                type(self).__init__
            ).parameters.items()
            if param.kind is param.POSITIONAL_OR_KEYWORD and name != "self"
        ]
        if not names:
            return super().__reduce__()
        fields = tuple(getattr(self, name) for name in names)
        return (type(self), fields, self.__dict__)


class GraphError(ReproError):
    """Base class for graph construction or query failures."""


class InvalidEdgeError(GraphError):
    """An edge is malformed: a self loop, a duplicate, or an unknown node."""


class UnknownNodeError(GraphError, KeyError):
    """A node identifier does not exist in the graph."""

    # KeyError.__str__ would quote a message; print it as written.
    __str__ = ReproError.__str__


class GraphNotConnectedError(GraphError):
    """An algorithm requiring a connected graph was given a disconnected one.

    The paper's algorithm pipelines one BFS per node over a single global
    BFS tree, so every node must be reachable from the root.
    """


class EmptyGraphError(GraphError):
    """An operation that needs at least one node was given an empty graph."""


class CongestError(ReproError):
    """Base class for CONGEST-model simulator failures."""


class CongestViolationError(CongestError):
    """A node exceeded the per-edge per-round bit budget in strict mode.

    Attributes
    ----------
    round_number:
        The round in which the violation occurred.
    sender, receiver:
        The directed edge on which too many bits were enqueued.
    bits_used, bits_allowed:
        The offending load and the configured budget.
    """

    def __init__(self, round_number, sender, receiver, bits_used, bits_allowed):
        self.round_number = round_number
        self.sender = sender
        self.receiver = receiver
        self.bits_used = bits_used
        self.bits_allowed = bits_allowed
        super().__init__(
            "CONGEST violation in round {}: edge {} -> {} carries {} bits "
            "but only {} are allowed".format(
                round_number, sender, receiver, bits_used, bits_allowed
            )
        )


class EngineCapabilityError(CongestError):
    """A run was pinned to an engine that cannot execute it.

    Raised when ``engine="bulk"`` is requested explicitly but the run
    falls outside the bulk engine's capability envelope (numpy missing,
    exact arithmetic, fault injection, custom node algorithms, ...).
    ``engine="auto"`` never raises this: the dispatcher silently falls
    back to the next capable engine instead.  A sharded result raises it
    too, from ``dependency()`` and ``distances()``, for a node whose
    per-source state stayed in a shard worker.

    Attributes
    ----------
    engine:
        The engine that was requested.
    reason:
        Why the engine cannot run this simulation.
    """

    def __init__(self, engine: str, reason: str):
        self.engine = engine
        self.reason = reason
        super().__init__(
            "engine {!r} cannot run this simulation: {}".format(engine, reason)
        )


class SimulationNotTerminatedError(CongestError):
    """The simulator hit its round limit before all nodes halted.

    Attributes
    ----------
    round_number:
        The round at which the simulator gave up (first round past the
        limit).
    round_limit:
        The configured ``max_rounds`` safety valve.
    pending_nodes:
        Ids of the nodes that had not set ``done`` when the limit was
        hit — the first place to look when a protocol hangs.
    graph_name:
        Name of the graph the run was on (diagnostic convenience).
    """

    def __init__(self, round_number, round_limit, pending_nodes, graph_name=None):
        self.round_number = round_number
        self.round_limit = round_limit
        self.pending_nodes = tuple(pending_nodes)
        self.graph_name = graph_name
        shown = ", ".join(str(v) for v in self.pending_nodes[:10])
        if len(self.pending_nodes) > 10:
            shown += ", ... ({} total)".format(len(self.pending_nodes))
        super().__init__(
            "simulation exceeded {} rounds on {!r}: {} node(s) never "
            "halted ({})".format(
                round_limit,
                graph_name,
                len(self.pending_nodes),
                shown or "none pending, messages still in flight",
            )
        )


class SimulationStalledError(CongestError):
    """Fault injection starved the run of progress (crash-aware termination).

    Raised by the round driver when no *fresh* protocol traffic (a
    send that is neither a retransmission nor an acknowledgement) has
    appeared for ``FaultPlan.stall_patience`` consecutive rounds while
    nodes are still pending — the signature of an unrecoverable fault
    (e.g. a permanently crashed node partitioning the protocol).  The
    pipeline converts it into a structured *partial* result instead of
    letting the run spin to the round limit.

    Attributes
    ----------
    round_number:
        The round at which the stall was declared.
    last_progress_round:
        The last round that carried fresh (non-recovery) traffic.
    pending_nodes:
        Ids of nodes that had not halted at stall time.
    crashed_nodes:
        Ids of nodes inside a crash window at stall time (permanent
        crashes stay here forever).
    """

    def __init__(
        self, round_number, last_progress_round, pending_nodes, crashed_nodes
    ):
        self.round_number = round_number
        self.last_progress_round = last_progress_round
        self.pending_nodes = tuple(pending_nodes)
        self.crashed_nodes = tuple(crashed_nodes)
        super().__init__(
            "simulation stalled at round {}: no fresh traffic since round "
            "{}; {} node(s) pending, {} crashed ({})".format(
                round_number,
                last_progress_round,
                len(self.pending_nodes),
                len(self.crashed_nodes),
                ", ".join(str(v) for v in self.crashed_nodes[:10]) or "-",
            )
        )


class WireCodecError(CongestError):
    """The typed wire codec was misused or detected an inconsistency.

    Raised when a value cannot be represented in its declared field
    (negative or over-wide), when an unregistered message type is
    encoded or an unknown type tag decoded, and by the simulator's
    frame audit when a materialized per-edge frame disagrees with the
    bits the accounting charged for it.
    """


class FrameChecksumError(WireCodecError):
    """A checked frame failed its CRC-8 verification.

    Raised by :func:`repro.wire.codec.decode_frame_checked` when the
    transmitted checksum disagrees with the one recomputed from the
    received payload — the corruption-rejecting decode path of the
    fault model (a receiver discards the frame; link-level recovery is
    the transport's job).

    Attributes
    ----------
    expected, actual:
        The recomputed and the transmitted CRC-8 values.
    """

    def __init__(self, expected, actual):
        self.expected = expected
        self.actual = actual
        super().__init__(
            "frame checksum mismatch: payload hashes to {:#04x} but the "
            "frame carries {:#04x}".format(expected, actual)
        )


class CheckpointError(CongestError):
    """A shard-runtime checkpoint could not be read back safely.

    Raised by :mod:`repro.shard.checkpoint` when a snapshot directory is
    unusable: a missing or torn manifest, a schema-version mismatch, a
    per-file blake2b checksum that does not match the bytes on disk, or
    metadata (graph fingerprint, worker count, partitioner, protocol)
    that disagrees with the run asking to resume.  The invariant is
    *fail loudly, never resume wrong*: a corrupt checkpoint produces
    this error (and the supervisor falls back to an older snapshot),
    not a silently divergent run.
    """


class CheckpointPause(CongestError):
    """Control-flow signal: a run stopped cleanly at a checkpoint.

    Raised by the shard coordinator when ``SupervisionConfig.stop_after``
    is set, *after* the round-``stop_after`` checkpoint is durably on
    disk.  Test harnesses and the CLI catch it to simulate "the process
    died here" without an actual SIGKILL; the CLI converts it into
    exit code 3 and prints the checkpoint path to resume from.

    Attributes
    ----------
    checkpoint_path:
        Directory of the snapshot the run can be resumed from.
    round_number:
        The round boundary at which the run paused.
    """

    def __init__(self, checkpoint_path, round_number):
        self.checkpoint_path = str(checkpoint_path)
        self.round_number = round_number
        super().__init__(
            "run paused at round {} after writing checkpoint {}".format(
                round_number, self.checkpoint_path
            )
        )


class SupervisionConfigError(ReproError, ValueError):
    """A shard supervision setting is out of range.

    Raised by :class:`~repro.shard.supervisor.SupervisionConfig`, and so
    by the ``--heartbeat-timeout``, ``--max-restarts`` and
    ``--checkpoint-*`` flags: a heartbeat timeout that is not positive,
    a negative restart budget, interval or backoff, checkpointing
    without a directory, or fewer than two kept snapshots.  It is also
    a ``ValueError``, so code that catches that keeps working.
    """


class SimulatorConfigError(ReproError, ValueError):
    """A :class:`~repro.congest.simulator.Simulator` setting is invalid.

    Raised for an unknown engine or partitioner name, or a worker count
    or ``congest_factor`` that is not a positive int; the pipeline
    entry points such as
    :func:`~repro.core.pipeline.distributed_betweenness` pass these
    through.  It is also a ``ValueError``, so code that catches that
    keeps working.
    """


class SampleSizeError(ReproError, ValueError):
    """A sampled run asks for a pivot count outside ``1 .. N``.

    Raised by :func:`repro.core.pipeline.distributed_sampled_betweenness`, and so by
    ``repro sample --pivots``.  It is also a ``ValueError``, so code
    that catches that keeps working.
    """


class InvariantViolationError(CongestError):
    """A telemetry monitor observed a violated runtime invariant.

    Raised only by monitors configured with ``mode="raise"``
    (:mod:`repro.obs.monitors`): an aggregation-schedule collision that
    Lemma 4 forbids, a per-edge load above the CONGEST budget of
    Lemmas 3–5, or an L-float error outside the Theorem 1 envelope.

    Attributes
    ----------
    monitor:
        Name of the monitor that fired.
    description:
        Human-readable account of the specific violation.
    """

    def __init__(self, monitor: str, description: str):
        self.monitor = monitor
        self.description = description
        super().__init__("[{}] {}".format(monitor, description))


class ProtocolError(ReproError):
    """A distributed protocol reached an internally inconsistent state.

    Raised, for example, when two aggregation messages for different
    sources collide at a node in the same round, which Lemma 4 of the
    paper proves cannot happen; seeing this error indicates a scheduling
    bug rather than a user mistake.
    """


class ArithmeticModeError(ReproError, ValueError):
    """An arithmetic value or mode was used inconsistently.

    Also raised for an arithmetic mode spec that names no mode, such as
    ``lfloat-x``.  It is also a ``ValueError``, so code that catches
    that keeps working.
    """


class LFloatRangeError(ArithmeticModeError):
    """A value falls outside the representable range of the L-bit format.

    The paper's format stores a number ``a = y * 2**x`` with an L-bit
    mantissa and an exponent bounded by ``|x| <= 2**L - 1``; values beyond
    that range cannot be encoded and indicate L was chosen too small for
    the graph at hand.
    """


class LowerBoundParameterError(ReproError):
    """Parameters for a lower-bound gadget violate its preconditions.

    The Figure 2 construction needs ``x >= 8`` and an even ``m`` with
    ``C(m, m/2) >= n**2``; the Figure 3 construction inherits the subset
    family requirements.
    """
