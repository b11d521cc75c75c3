"""Round-boundary checkpoints for the sharded runtime.

At a barrier every worker is quiescent: messages either sit in a node's
deferred inbox, in the worker's local future heap, or coordinator-side
as already-encoded cross-shard wire frames.  That makes a shard's state
a finite, picklable value — node objects (array-backed ``NodeLedger``
columns and all protocol fields), the event-engine wake structures, and
the fault injector's snapshot (pure counters, thanks to the keyed-hash
fault replay).  This module only moves bytes: the coordinator collects
one blob per shard plus its own merge state and this module lays them
out on disk; :func:`read_checkpoint` is the exact inverse.

Layout (content-addressed by the run key of ``repro.obs.history``, so
two different runs can share one checkpoint root without colliding)::

    <checkpoint_dir>/<run_key>/ckpt-00000024/
        shard-0.bin       pickled shard state, one per live shard
        shard-1.bin
        coordinator.bin   pickled coordinator merge state
        manifest.json     written last, atomically (tmp + rename)

The manifest is the commit record: schema ``repro-ckpt-v1``, the round,
a blake2b checksum per file, and the caller's ``meta``, where the shard
runtime keeps the run's identity (every setting that changes a round)
and run key, to refuse a resume against the wrong run.  A checkpoint
without a valid manifest does not exist; a checksum mismatch raises
:class:`CheckpointError` and the caller falls back to an older
snapshot.  Mirroring the torn-tail rule of the history ledger: a crash
mid-write can only ever lose the newest checkpoint, never corrupt the
answer.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import CheckpointError

#: Manifest schema identifier; bump on any incompatible layout change.
CHECKPOINT_SCHEMA = "repro-ckpt-v1"

#: Snapshots kept per run after pruning.  Two, not one: the supervisor
#: must survive the *newest* checkpoint being corrupt (torn write,
#: injected corruption) by falling back to its predecessor.
KEEP_CHECKPOINTS = 2

_MANIFEST = "manifest.json"
_COORDINATOR = "coordinator.bin"


def _shard_file(shard: int) -> str:
    return "shard-{}.bin".format(shard)


def _file_checksum(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def checkpoint_dir_name(round_number: int) -> str:
    return "ckpt-{:08d}".format(round_number)


def write_checkpoint(
    run_dir: Path,
    round_number: int,
    shard_blobs: Dict[int, bytes],
    coordinator_blob: bytes,
    meta: Dict[str, Any],
) -> Path:
    """Write one snapshot; returns its directory.

    Files first, manifest last via tmp + atomic rename: until the
    rename lands the checkpoint does not exist, so a crash at any point
    leaves either a complete snapshot or an ignorable partial one.
    """
    run_dir = Path(run_dir)
    ckpt = run_dir / checkpoint_dir_name(round_number)
    ckpt.mkdir(parents=True, exist_ok=True)
    files = {}
    total = 0
    payloads = {
        _shard_file(shard): blob for shard, blob in shard_blobs.items()
    }
    payloads[_COORDINATOR] = coordinator_blob
    for name in sorted(payloads):
        data = payloads[name]
        (ckpt / name).write_bytes(data)
        files[name] = {"bytes": len(data), "blake2b": _file_checksum(data)}
        total += len(data)
    manifest = {
        "schema": CHECKPOINT_SCHEMA,
        "round": round_number,
        "shards": sorted(shard_blobs),
        "files": files,
        "total_bytes": total,
        "meta": meta,
    }
    tmp = ckpt / (_MANIFEST + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(str(tmp), str(ckpt / _MANIFEST))
    return ckpt


def read_checkpoint(ckpt_dir: Path) -> Dict[str, Any]:
    """Inverse of :func:`write_checkpoint`, checksums verified.

    Returns ``{"round", "shards", "coordinator", "manifest"}``:
    the snapshot's round, its shard blobs by shard id, the coordinator
    blob and the parsed manifest.  Raises :class:`CheckpointError` like
    :func:`load_checkpoint`, and when a listed file is missing from the
    manifest.
    """
    manifest, files = load_checkpoint(ckpt_dir)
    try:
        shards = {
            int(shard): files[_shard_file(shard)]
            for shard in manifest["shards"]
        }
        coordinator = files[_COORDINATOR]
    except KeyError as err:
        raise CheckpointError(
            "checkpoint {} manifest lists no file {}".format(ckpt_dir, err)
        )
    return {
        "round": manifest["round"],
        "shards": shards,
        "coordinator": coordinator,
        "manifest": manifest,
    }


def read_manifest(ckpt_dir: Path) -> Dict[str, Any]:
    """Parse and schema-check a snapshot's manifest.

    Raises :class:`CheckpointError` on a missing, torn (truncated JSON)
    or version-mismatched manifest — the caller must treat the snapshot
    as nonexistent, never guess at its contents.
    """
    path = Path(ckpt_dir) / _MANIFEST
    try:
        text = path.read_text()
    except OSError as err:
        raise CheckpointError(
            "checkpoint {} has no readable manifest: {}".format(
                ckpt_dir, err
            )
        )
    try:
        manifest = json.loads(text)
    except ValueError as err:
        raise CheckpointError(
            "checkpoint {} has a torn manifest (truncated write?): "
            "{}".format(ckpt_dir, err)
        )
    schema = manifest.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            "checkpoint {} has schema {!r}; this build reads {!r} "
            "only".format(ckpt_dir, schema, CHECKPOINT_SCHEMA)
        )
    if not isinstance(manifest.get("round"), int) or not isinstance(
        manifest.get("files"), dict
    ):
        raise CheckpointError(
            "checkpoint {} manifest is missing round/files".format(ckpt_dir)
        )
    return manifest


def load_checkpoint(
    ckpt_dir: Path,
) -> Tuple[Dict[str, Any], Dict[str, bytes]]:
    """Read a snapshot back, verifying every per-file checksum.

    Returns ``(manifest, files)`` with ``files`` mapping the manifest
    file names to their verified bytes.  Any missing file, short read
    or checksum mismatch raises :class:`CheckpointError`.
    """
    ckpt_dir = Path(ckpt_dir)
    manifest = read_manifest(ckpt_dir)
    files: Dict[str, bytes] = {}
    for name, entry in manifest["files"].items():
        path = ckpt_dir / name
        try:
            data = path.read_bytes()
        except OSError as err:
            raise CheckpointError(
                "checkpoint {} is missing {}: {}".format(ckpt_dir, name, err)
            )
        if len(data) != entry.get("bytes"):
            raise CheckpointError(
                "checkpoint {} file {} is {} bytes, manifest says "
                "{}".format(ckpt_dir, name, len(data), entry.get("bytes"))
            )
        if _file_checksum(data) != entry.get("blake2b"):
            raise CheckpointError(
                "checkpoint {} file {} fails its blake2b checksum "
                "(corrupt snapshot)".format(ckpt_dir, name)
            )
        files[name] = data
    return manifest, files


def list_checkpoints(run_dir: Path) -> Tuple[Path, ...]:
    """Snapshot directories under one run, oldest first.

    Only directories carrying a manifest file count; a partial write
    (files but no manifest) is invisible here by construction.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        return ()
    found = []
    for entry in sorted(run_dir.iterdir()):
        if entry.is_dir() and entry.name.startswith("ckpt-") and (
            entry / _MANIFEST
        ).is_file():
            found.append(entry)
    return tuple(found)


def resolve_checkpoint(path: Path) -> Path:
    """Resolve a user-supplied path to one snapshot directory.

    Accepts the snapshot directory itself, a run directory (picks the
    newest snapshot whose manifest parses), or a checkpoint root
    holding run-key directories (searches one level down).  Raises
    :class:`CheckpointError` when nothing valid is found.
    """
    path = Path(path)
    if (path / _MANIFEST).is_file():
        return path
    candidates = list(list_checkpoints(path))
    if not candidates and path.is_dir():
        for sub in sorted(path.iterdir()):
            if sub.is_dir():
                candidates.extend(list_checkpoints(sub))
    best: Optional[Path] = None
    best_round = -1
    for ckpt in candidates:
        try:
            manifest = read_manifest(ckpt)
        except CheckpointError:
            continue
        if manifest["round"] > best_round:
            best, best_round = ckpt, manifest["round"]
    if best is None:
        raise CheckpointError(
            "no resumable checkpoint under {} (need a ckpt-*/manifest.json "
            "written by a --checkpoint-every run)".format(path)
        )
    return best


def prune_checkpoints(run_dir: Path, keep: int = KEEP_CHECKPOINTS) -> int:
    """Delete all but the ``keep`` newest snapshots; returns how many."""
    snapshots = list_checkpoints(run_dir)
    removed = 0
    for ckpt in snapshots[: max(0, len(snapshots) - keep)]:
        for entry in sorted(ckpt.iterdir()):
            try:
                entry.unlink()
            except OSError:
                pass
        try:
            ckpt.rmdir()
            removed += 1
        except OSError:
            pass
    return removed


def corrupt_checkpoint(ckpt_dir: Path, seed: int, round_number: int) -> str:
    """Flip one byte of one snapshot file (fault injection only).

    The victim file and offset are derived from a keyed hash of
    ``(seed, round)`` so the corruption replays deterministically, the
    same contract every channel fault follows.  Returns the damaged
    file's name.  The manifest itself is never the target — checksum
    *verification* is the behavior under test, and a corrupt manifest
    would exercise the (separately tested) torn-manifest path instead.
    """
    ckpt_dir = Path(ckpt_dir)
    manifest = read_manifest(ckpt_dir)
    names = sorted(manifest["files"])
    digest = hashlib.blake2b(
        "ckpt-corrupt:{}:{}".format(seed, round_number).encode(),
        digest_size=8,
    ).digest()
    pick = int.from_bytes(digest[:4], "big")
    name = names[pick % len(names)]
    path = ckpt_dir / name
    data = bytearray(path.read_bytes())
    if not data:
        return name
    offset = int.from_bytes(digest[4:], "big") % len(data)
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
    return name
