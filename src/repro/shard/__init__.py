"""Sharded multi-process CONGEST runtime.

``repro.shard`` partitions the node set across worker processes and
steps each shard through the round kernel of the event engine
(:class:`repro.congest.kernel.RoundKernel`), exchanging only
cross-shard traffic per round as encoded wire frames over
``multiprocessing`` pipes.  See ``docs/sharding.md`` for the wire
batching format, the barrier protocol and the fault semantics.

Public surface:

* :func:`repro.shard.partition.partition_nodes` / ``edge_cut`` — the
  block and greedy edge-cut partitioners.
* :func:`repro.shard.frames.encode_shard_frame` /
  ``decode_shard_frame`` — the per-(src, dst) shard-frame batch codec.
* :func:`repro.shard.runtime.run_shard` — the parent coordinator,
  invoked by ``Simulator(engine="shard", workers=W)``.
* :class:`repro.shard.supervisor.SupervisionConfig` — heartbeats,
  worker respawn and round-boundary checkpoints for the coordinator;
  see ``docs/recovery.md``.
* :mod:`repro.shard.checkpoint` — the ``repro-ckpt-v1`` snapshot
  layout behind ``--checkpoint-every`` and ``repro resume``.
"""

from repro.shard.partition import edge_cut, partition_nodes
from repro.shard.frames import decode_shard_frame, encode_shard_frame
from repro.shard.checkpoint import (
    CHECKPOINT_SCHEMA,
    list_checkpoints,
    load_checkpoint,
    read_manifest,
    resolve_checkpoint,
    write_checkpoint,
)
from repro.shard.supervisor import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    SupervisionConfig,
    supervision_for,
)

__all__ = [
    "edge_cut",
    "partition_nodes",
    "encode_shard_frame",
    "decode_shard_frame",
    "CHECKPOINT_SCHEMA",
    "list_checkpoints",
    "load_checkpoint",
    "read_manifest",
    "resolve_checkpoint",
    "write_checkpoint",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "SupervisionConfig",
    "supervision_for",
]
