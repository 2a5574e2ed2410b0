"""Engine-level durability: epoch snapshots, manifests, and WAL recovery.

A snapshot *directory* holds a sequence of **epochs**.  Epoch ``e`` consists
of::

    shard-<k>-<e>.snap     per-shard snapshot (flat arrays + base columns + id map)
    engine-<e>.state       engine bookkeeping (owner map, tombstones, cursors)
    wal-<e>-shard<k>.log   the delta log that extends epoch e (one per shard)
    MANIFEST-<e>.json      the commit record, written last via rename

The manifest rename is the commit point: every other file of the epoch is
fully written and fsynced before it appears, so a crash anywhere inside
:func:`save_engine_snapshot` leaves the previous epoch (and its WAL chain)
untouched and authoritative.

Recovery (:func:`open_engine`) walks manifests newest-first and restores the
first epoch whose files all pass validation, then replays **every** WAL with
epoch >= the restored one, oldest first — epochs partition time, so the
concatenated logs replay the exact acknowledged write sequence.  Torn WAL
tails are truncated, never fatal.  Replayed writes land in the shards'
in-memory delta logs and fold into the shards' overlays through the
ordinary refresh at the next batch boundary — no node tree is built.

Crash-consistency argument (the "acknowledged => recovered" contract):

1. a write is acknowledged only after its WAL record is appended (and, per
   fsync policy, fsynced) to the WAL of the current epoch ``t``;
2. ``save_engine_snapshot`` first folds every buffered write into the new
   epoch's snapshot files, then creates the empty epoch-``e`` WALs, and only
   then commits ``MANIFEST-<e>``;
3. hence for any recovery base ``b``: an acknowledged write either predates
   epoch ``b`` (it is inside the epoch-``b`` snapshot arrays) or was logged
   to the WAL of some epoch ``t >= b`` that recovery replays.  Old WALs are
   deleted only when their epoch falls out of the retained window, which is
   strictly after a newer manifest committed.
"""

from __future__ import annotations

import json
import os
import re
from typing import Optional

import numpy as np

from ..core.errors import SnapshotCorruptError
from ..core.flat import FlatAIT, validate_columns
from .checksum import CHECKSUM_ALGORITHM
from .snapshot import (
    FORMAT_VERSION,
    READABLE_VERSIONS,
    flat_from_arrays,
    flat_to_arrays,
    fsync_directory,
    load_arrays,
    save_arrays,
)
from .wal import DeltaLog

__all__ = ["save_engine_snapshot", "open_engine", "snapshot_epochs"]

_ID = np.int64

_MANIFEST_RE = re.compile(r"^MANIFEST-(\d+)\.json$")
_WAL_RE = re.compile(r"^wal-(\d+)-shard(\d+)\.log$")


def _manifest_name(epoch: int) -> str:
    return f"MANIFEST-{epoch}.json"


def _shard_name(shard_id: int, epoch: int) -> str:
    return f"shard-{shard_id}-{epoch}.snap"


def _engine_name(epoch: int) -> str:
    return f"engine-{epoch}.state"


def _wal_name(epoch: int, shard_id: int) -> str:
    return f"wal-{epoch}-shard{shard_id}.log"


def snapshot_epochs(directory) -> list[int]:
    """Committed epochs in ``directory`` (ascending); [] when none exist."""
    try:
        names = os.listdir(os.fspath(directory))
    except FileNotFoundError:
        return []
    epochs = []
    for name in names:
        match = _MANIFEST_RE.match(name)
        if match:
            epochs.append(int(match.group(1)))
    return sorted(epochs)


def _wal_files(directory) -> dict[int, dict[int, str]]:
    """Map epoch -> shard index -> WAL path for every log in the directory."""
    out: dict[int, dict[int, str]] = {}
    try:
        names = os.listdir(os.fspath(directory))
    except FileNotFoundError:
        return out
    for name in names:
        match = _WAL_RE.match(name)
        if match:
            epoch, shard = int(match.group(1)), int(match.group(2))
            out.setdefault(epoch, {})[shard] = os.path.join(os.fspath(directory), name)
    return out


# ---------------------------------------------------------------------- #
# save
# ---------------------------------------------------------------------- #
def _save_shard(shard, path: str, weighted: bool, fsync: bool) -> dict:
    lefts, rights, weights = shard.columns
    snapshot = shard.snapshot
    deleted = shard.dead
    if shard.overlay is not None:
        # Compaction folds every overlay into the base, except on a shard
        # with no live interval left: its tombstones cover the whole base,
        # so it saves as an all-dead base with an empty snapshot.
        deleted = np.union1d(deleted, shard.overlay.tombstones)
        snapshot = FlatAIT.from_arrays(np.empty(0), np.empty(0))
    arrays = flat_to_arrays(snapshot, prefix="flat.")
    arrays["col_lefts"] = lefts
    arrays["col_rights"] = rights
    if weighted:
        arrays["col_weights"] = weights
    arrays["deleted"] = np.asarray(deleted, dtype=_ID)
    # Kept for the file layout: a shard never recycles column slots.
    arrays["free_slots"] = np.empty(0, dtype=_ID)
    arrays["global_ids"] = shard.global_map
    meta = {
        "kind": "shard",
        "shard_id": shard.shard_id,
        "weighted": weighted,
        "version": shard.version,
    }
    save_arrays(path, arrays, meta=meta, fsync=fsync)
    return meta


def save_engine_snapshot(engine, directory=None, fsync: bool = True,
                         retain: int = 2) -> int:
    """Persist a full engine checkpoint; return the committed epoch number.

    Folds every buffered write into fresh shard snapshots, writes one epoch
    of files, rotates the write-ahead logs, commits the manifest, and
    garbage-collects epochs older than the ``retain`` newest.  The engine
    stays attached to ``directory``: subsequent buffered writes are
    journaled to the new epoch's WALs.

    .. warning::
       The engine (like all of its methods) is **not thread-safe**, and this
       function mutates it in several steps: a write dispatched by another
       thread between the refresh and the WAL rotation would be journaled to
       the *old* epoch's log yet be missing from the new snapshot — recovery
       replays only WALs with epoch >= the restored base, so that
       acknowledged write would be lost.  When the engine is served through
       a live :class:`~repro.service.gateway.RequestGateway`, checkpoint via
       :meth:`RequestGateway.checkpoint`, which runs this function on the
       dispatcher thread, serialised with every write.
    """
    if directory is None:
        directory = getattr(engine, "_persist_dir", None)
        if directory is None:
            raise ValueError(
                "engine is not attached to a snapshot directory; pass one explicitly"
            )
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)

    # Every acknowledged write folds into the new snapshot files: each
    # shard's overlay is compacted into its base, which is what gets saved.
    engine.refresh()
    for shard in engine._shards:
        shard.compact()

    known = set(snapshot_epochs(directory)) | set(_wal_files(directory))
    epoch = max(known, default=0) + 1
    weighted = engine.is_weighted

    shard_files = []
    for shard in engine._shards:
        name = _shard_name(shard.shard_id, epoch)
        _save_shard(shard, os.path.join(directory, name), weighted, fsync)
        shard_files.append(name)

    deleted = np.fromiter(sorted(engine._deleted), dtype=_ID, count=len(engine._deleted))
    engine_arrays = {
        "owner": engine._owner[: engine._owner_count],
        "deleted": deleted,
        "shard_versions": np.asarray(engine.versions(), dtype=_ID),
    }
    if engine._range_bounds is not None:
        engine_arrays["range_bounds"] = engine._range_bounds
    engine_meta = {
        "kind": "engine",
        "policy": engine.policy,
        "weighted": weighted,
        "num_shards": engine.num_shards,
        "next_global": int(engine._next_global),
        "rr_cursor": int(engine._rr_cursor),
        "active": int(engine._active),
    }
    engine_name = _engine_name(epoch)
    save_arrays(
        os.path.join(directory, engine_name), engine_arrays, meta=engine_meta, fsync=fsync
    )

    # Rotate the WALs: new epoch logs exist (empty, synced) before the
    # manifest commits, so post-commit writes have a durable home and a
    # pre-commit crash recovers cleanly from the previous epoch + old WALs.
    wal_policy = getattr(engine, "_wal_fsync", None) or "batch"
    new_wals = [
        DeltaLog(os.path.join(directory, _wal_name(epoch, k)), fsync=wal_policy, epoch=epoch)
        for k in range(engine.num_shards)
    ]

    manifest = {
        "format_version": FORMAT_VERSION,
        "epoch": epoch,
        "num_shards": engine.num_shards,
        "checksum_algorithm": CHECKSUM_ALGORITHM,
        "engine": engine_name,
        "shards": shard_files,
        "wals": [_wal_name(epoch, k) for k in range(engine.num_shards)],
    }
    manifest_path = os.path.join(directory, _manifest_name(epoch))
    tmp = manifest_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, manifest_path)  # <-- the commit point
    if fsync:
        fsync_directory(directory)

    # Attach the rotated logs (old WALs are superseded by the new epoch).
    for shard, log in zip(engine._shards, new_wals):
        old = shard.wal
        shard.wal = log
        if old is not None:
            old.close()
    engine._persist_dir = directory
    engine._persist_epoch = epoch
    engine._wal_fsync = wal_policy

    _collect_old_epochs(directory, keep_from=epoch, retain=retain)
    return epoch


def _collect_old_epochs(directory: str, keep_from: int, retain: int) -> None:
    """Drop epochs older than the ``retain`` newest manifests (best effort)."""
    committed = snapshot_epochs(directory)
    keep = set(committed[-max(1, int(retain)):]) | {keep_from}
    horizon = min(keep)
    doomed = [epoch for epoch in committed if epoch < horizon]
    wal_map = _wal_files(directory)
    for epoch in doomed:
        # Manifest first: once it is gone the epoch can never be chosen as a
        # recovery base, so removing its data files afterwards is safe.
        _unlink_quiet(os.path.join(directory, _manifest_name(epoch)))
        _unlink_quiet(os.path.join(directory, _engine_name(epoch)))
        for name in os.listdir(directory):
            if re.match(rf"^shard-\d+-{epoch}\.snap$", name):
                _unlink_quiet(os.path.join(directory, name))
    for epoch, paths in wal_map.items():
        if epoch < horizon:
            for path in paths.values():
                _unlink_quiet(path)


def _unlink_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


# ---------------------------------------------------------------------- #
# open / recover
# ---------------------------------------------------------------------- #
def _restore_shard(shard_cls, arrays: dict, meta: dict):
    """Reassemble one shard; reject columns no valid engine could have saved."""
    weighted = bool(meta["weighted"])
    try:
        lefts, rights, weights = validate_columns(
            arrays["col_lefts"], arrays["col_rights"],
            arrays["col_weights"] if weighted else None,
        )
    except ValueError as exc:
        raise SnapshotCorruptError(f"shard {meta['shard_id']}: {exc}") from exc
    global_ids, dead = arrays["global_ids"], arrays["deleted"]
    n = lefts.shape[0]
    if global_ids.shape[0] != n or (dead.shape[0] and not 0 <= dead.min() <= dead.max() < n):
        raise SnapshotCorruptError(
            f"shard {meta['shard_id']}: id map or dead slots do not fit {n} intervals"
        )
    return shard_cls.restore(
        shard_id=int(meta["shard_id"]),
        lefts=lefts,
        rights=rights,
        weights=weights,
        snapshot=flat_from_arrays(arrays, weighted, meta["format_version"], prefix="flat."),
        global_ids=global_ids,
        dead=dead,
        version=int(meta.get("version", 1)),
    )


def _read_manifest(directory: str, epoch: int) -> dict:
    path = os.path.join(directory, _manifest_name(epoch))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except ValueError as exc:
        raise SnapshotCorruptError(f"{path}: manifest is not valid JSON") from exc
    if manifest.get("format_version") not in READABLE_VERSIONS:
        raise SnapshotCorruptError(
            f"{path}: unsupported manifest format version "
            f"{manifest.get('format_version')!r}"
        )
    if manifest.get("epoch") != epoch:
        raise SnapshotCorruptError(f"{path}: manifest epoch mismatch")
    return manifest


def _load_epoch(engine_cls, directory: str, manifest: dict, mmap: bool, verify: bool,
                executor):
    from ..service.executor import resolve_executor
    from ..service.shard import Shard

    engine_arrays, engine_meta = load_arrays(
        os.path.join(directory, manifest["engine"]), mmap=mmap, verify=verify
    )
    if engine_meta.get("kind") != "engine":
        raise SnapshotCorruptError(f"{manifest['engine']}: not an engine state file")
    shards = []
    for name in manifest["shards"]:
        arrays, meta = load_arrays(os.path.join(directory, name), mmap=mmap, verify=verify)
        if meta.get("kind") != "shard":
            raise SnapshotCorruptError(f"{name}: not a shard snapshot file")
        if meta["format_version"] != manifest["format_version"]:
            raise SnapshotCorruptError(
                f"{name}: format version {meta['format_version']} does not match "
                f"its manifest's {manifest['format_version']}"
            )
        shards.append(_restore_shard(Shard, arrays, meta))
    shards.sort(key=lambda shard: shard.shard_id)

    engine = engine_cls.__new__(engine_cls)
    engine._weighted = bool(engine_meta["weighted"])
    engine._policy = str(engine_meta["policy"])
    engine._executor, engine._owns_executor = resolve_executor(executor)
    engine._shards = shards
    owner = np.asarray(engine_arrays["owner"], dtype=_ID).copy()  # grows on insert
    engine._owner = owner
    engine._owner_count = int(owner.shape[0])
    engine._next_global = int(engine_meta["next_global"])
    engine._deleted = set(int(g) for g in engine_arrays["deleted"])
    engine._active = int(engine_meta["active"])
    engine._rr_cursor = int(engine_meta["rr_cursor"])
    bounds = engine_arrays.get("range_bounds")
    engine._range_bounds = (
        np.asarray(bounds, dtype=np.float64).copy() if bounds is not None else None
    )
    return engine


def _record_recovered_owners(engine, global_ids: np.ndarray, shard_index: int) -> None:
    top = int(global_ids.max()) + 1
    if top > engine._owner.shape[0]:
        grow = max(16, top - engine._owner.shape[0], engine._owner.shape[0] // 2)
        # -1, not np.empty: one shard's torn WAL tail can leave id gaps below
        # another shard's surviving ids, and those gap entries sit inside the
        # new _owner_count.  A garbage shard index there would route a later
        # delete_many to the wrong shard; -1 marks the id as never recovered
        # (delete_many and shard_of treat negative owners as unknown).
        engine._owner = np.concatenate((engine._owner, np.full(grow, -1, dtype=_ID)))
    engine._owner[global_ids] = shard_index
    engine._owner_count = max(engine._owner_count, top)
    engine._next_global = max(engine._next_global, top)


def _apply_wal_records(engine, shard_index: int, records: list) -> int:
    """Re-buffer recovered delta ops; returns how many ops were applied."""
    shard = engine._shards[shard_index]
    applied = 0
    for op in records:
        if op[0] == "insert_many":
            _, global_ids, lefts, rights = op
            shard.buffer_insert_many(global_ids, lefts, rights)
            _record_recovered_owners(engine, global_ids, shard_index)
            engine._active += int(global_ids.shape[0])
        else:
            global_ids = op[1]
            shard.buffer_delete_many(global_ids)
            engine._deleted.update(int(g) for g in global_ids)
            engine._active -= int(global_ids.shape[0])
        applied += len(op[1])
    return applied


def open_engine(engine_cls, directory, mmap: bool = True, verify: bool = True,
                fsync: str = "batch", executor=None):
    """Restore a :class:`ShardedEngine` from its newest valid epoch.

    Falls back epoch by epoch when validation fails (a half-written epoch
    whose manifest survived a crashed GC, a bit-flipped segment, ...), then
    replays every WAL at or after the chosen base epoch, oldest first.
    Replayed writes sit in the shards' delta logs and apply through the
    normal overlay refresh on first use.
    """
    directory = os.fspath(directory)
    epochs = snapshot_epochs(directory)
    if not epochs:
        raise SnapshotCorruptError(f"{directory}: no committed snapshot manifest found")

    engine = None
    base_epoch = None
    last_error: Optional[Exception] = None
    for epoch in reversed(epochs):
        try:
            manifest = _read_manifest(directory, epoch)
            engine = _load_epoch(engine_cls, directory, manifest, mmap, verify, executor)
            base_epoch = epoch
            break
        except (
            SnapshotCorruptError,
            FileNotFoundError,
            KeyError,
            # A corrupt-but-CRC-valid header field surfaces as a parse error,
            # not a SnapshotCorruptError: np.dtype on a mangled dtype string
            # or resolve_checksum on an unknown algorithm raise ValueError,
            # and a missing array feeds None into flat_from_arrays
            # (AttributeError/TypeError).  All of them mean "this epoch is
            # unusable" and must fall back, not abort recovery.
            ValueError,
            TypeError,
            AttributeError,
        ) as exc:
            last_error = exc
    if engine is None:
        raise SnapshotCorruptError(
            f"{directory}: no epoch passed validation (last error: {last_error})"
        )

    # Replay the WAL chain: every log at or after the base epoch, in epoch
    # order.  The newest epoch's logs are recovered in place (torn tails
    # truncated) and stay attached for future appends.
    wal_map = _wal_files(directory)
    replay_epochs = sorted(epoch for epoch in wal_map if epoch >= base_epoch)
    tail_epoch = replay_epochs[-1] if replay_epochs else base_epoch
    for epoch in replay_epochs:
        for shard_index in range(engine.num_shards):
            path = os.path.join(directory, _wal_name(epoch, shard_index))
            if epoch == tail_epoch:
                log, records = DeltaLog.recover(path, fsync=fsync, epoch=epoch)
                _apply_wal_records(engine, shard_index, records)
                engine._shards[shard_index].wal = log
            elif shard_index in wal_map.get(epoch, {}):
                _, records, _ = DeltaLog.scan(path)
                _apply_wal_records(engine, shard_index, records)
    if tail_epoch == base_epoch and not replay_epochs:
        for shard_index in range(engine.num_shards):
            path = os.path.join(directory, _wal_name(tail_epoch, shard_index))
            engine._shards[shard_index].wal = DeltaLog(path, fsync=fsync, epoch=tail_epoch)

    if engine._policy == "round_robin":
        # Invariant of the routing policy: the cursor tracks the global id
        # counter modulo K (both advance together on every insert).
        engine._rr_cursor = int(engine._next_global % engine.num_shards)

    engine._persist_dir = directory
    engine._persist_epoch = tail_epoch
    engine._wal_fsync = fsync
    return engine
