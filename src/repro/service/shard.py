"""One shard of a :class:`~repro.service.engine.ShardedEngine`.

A shard owns a disjoint subset of the engine's intervals, kept as an
immutable **base** plus a small per-version **overlay** — the
static-to-dynamic split of Bentley & Saxe ("Decomposable searching problems
I", J. Algorithms 1980), with deletions kept as a differential file
(Severance & Lohman, "Differential files", TODS 1976):

* the **base** — the shard's intervals as of the last compaction as plain
  endpoint (and, for weighted engines, weight) columns addressed by
  *base-local* ids, the :class:`~repro.core.flat.FlatAIT` snapshot built
  from them by :meth:`FlatAIT.from_arrays`, and the local→global id map.
  The base is built once — at construction, restore or compaction — and
  writes never touch it;
* the **overlay** (:class:`~repro.service.shm.Overlay`) — a delta
  :class:`FlatAIT` rebuilt with :meth:`FlatAIT.from_arrays` over the live
  inserts since the last compaction, plus tombstones for deleted base ids;
* a **delta log** of buffered writes.

Writes never touch the base or the overlay directly: the engine appends them
to the delta log (:meth:`Shard.buffer_insert` / :meth:`Shard.buffer_delete`,
or the bulk :meth:`Shard.buffer_insert_many` / :meth:`Shard.buffer_delete_many`)
and :meth:`Shard.refresh` — which the engine calls at *batch boundaries
only*, so a batch never sees a half-applied write — folds the log into a
new overlay and bumps :attr:`Shard.version`.  A write therefore costs a
rebuild of the small delta, not of the shard.  Once the overlay entries
rebuilt since the last compaction, summed over refreshes, pass
:data:`COMPACT_WORK` times the base size, :meth:`Shard.compact` folds the
overlay into a new base and bumps :attr:`Shard.base_rebuilds`; only then
does a process executor republish the base segment.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..core.dataset import IntervalDataset
from ..core.flat import FlatAIT
from .shm import Overlay

__all__ = ["Shard", "DeltaOp", "COMPACT_WORK"]

_ID = np.int64
_F8 = np.float64
_NO_IDS = np.empty(0, dtype=_ID)

#: One buffered write batch: ``("insert_many", global_ids, lefts, rights)``
#: or ``("delete_many", global_ids)`` carrying whole arrays (scalar writes
#: buffer as one-element batches).
DeltaOp = Union[
    tuple[str, np.ndarray, np.ndarray, np.ndarray],
    tuple[str, np.ndarray],
]

#: A refresh compacts once the overlay work since the last compaction — the
#: overlay entries (live inserts plus tombstones) each refresh rebuilt,
#: summed — exceeds this multiple of the base's interval count.  A write
#: rebuilds and republishes the whole overlay, at ~0.7-1.4 us per entry; a
#: compaction rebuilds and republishes the base, at ~2.3-2.7 us per interval
#: (``overlay`` rows of ``BENCH_updates.json``; the measured break-even is
#: 1.9-3.3 over 20k-200k shards).  At the break-even the overlay rebuilds
#: between two compactions cost about one compaction, and under one-interval
#: writes the overlay peaks near ``sqrt(2 * COMPACT_WORK * n)`` entries — the
#: Bentley-Saxe square-root split, and the peak that minimises the mean cost
#: of a write.  Anywhere in the measured range this is within 1% of it.
COMPACT_WORK = 2.5


class Shard:
    """A partition of the engine's dataset: immutable base, overlay and delta log."""

    __slots__ = (
        "shard_id",
        "wal",
        "_lefts",
        "_rights",
        "_weights",
        "_dead",
        "_snapshot",
        "_global_map",
        "_id_index",
        "_delta_gids",
        "_delta_lefts",
        "_delta_rights",
        "_tombstones",
        "_overlay",
        "_pending",
        "_version",
        "_base_rebuilds",
        "_overlay_work",
    )

    def __init__(
        self,
        shard_id: int,
        dataset: IntervalDataset,
        global_ids: np.ndarray,
        weighted: bool,
    ) -> None:
        self.shard_id = int(shard_id)
        global_ids = np.asarray(global_ids, dtype=_ID)
        lefts = dataset.lefts[global_ids]
        rights = dataset.rights[global_ids]
        weights = dataset.weights[global_ids] if weighted else None
        snapshot = FlatAIT.from_arrays(lefts, rights, weights=weights)
        self._start(lefts, rights, weights, snapshot, global_ids, version=1)

    @classmethod
    def restore(
        cls,
        shard_id: int,
        lefts: np.ndarray,
        rights: np.ndarray,
        weights: Optional[np.ndarray],
        snapshot: FlatAIT,
        global_ids: np.ndarray,
        dead: np.ndarray,
        version: int = 1,
    ) -> "Shard":
        """Reassemble a shard from persisted state without rebuilding anything.

        Used by :func:`repro.persist.durable.open_engine`: ``lefts`` /
        ``rights`` / ``weights`` are the base columns, ``snapshot`` the
        loaded — typically mmap-backed — :class:`FlatAIT` over them,
        ``global_ids`` the saved local->global id map, and ``dead`` the
        base-local ids the snapshot does not index.  The delta log starts
        empty; recovered WAL records are re-buffered afterwards and fold into
        the overlay through the normal :meth:`refresh`.
        """
        shard = cls.__new__(cls)
        shard.shard_id = int(shard_id)
        shard._start(lefts, rights, weights, snapshot, global_ids, version, dead)
        return shard

    def _start(self, lefts, rights, weights, snapshot, global_ids, version, dead=_NO_IDS) -> None:
        #: Optional write-ahead log (:class:`repro.persist.DeltaLog`); when
        #: set, every buffered batch is journaled durably *before* joining
        #: the in-memory delta log.
        self.wal = None
        self._pending: list[DeltaOp] = []
        self._version = int(version)
        self._base_rebuilds = 0
        global_map = np.asarray(global_ids, dtype=_ID).copy()
        dead = np.unique(np.asarray(dead, dtype=_ID))
        self._set_base(lefts, rights, weights, snapshot, global_map, dead)

    def _set_base(self, lefts, rights, weights, snapshot, global_map, dead=_NO_IDS) -> None:
        """Install a new base and clear the overlay it absorbed."""
        self._lefts = lefts
        self._rights = rights
        self._weights = weights
        #: Sorted base-local ids the snapshot does not index: only a restored
        #: checkpoint has any (an emptied shard saves its whole base as dead).
        self._dead = dead
        self._snapshot = snapshot
        self._global_map = global_map
        #: (sorted global ids, their base-local ids), built on the first delete.
        self._id_index: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._delta_gids = np.empty(0, dtype=_ID)
        self._delta_lefts = np.empty(0, dtype=_F8)
        self._delta_rights = np.empty(0, dtype=_F8)
        self._tombstones = np.empty(0, dtype=_ID)
        self._overlay: Optional[Overlay] = None
        #: Overlay entries rebuilt since this base was installed (see COMPACT_WORK).
        self._overlay_work = 0

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def base_size(self) -> int:
        """Intervals the base snapshot indexes (tombstoned ones included)."""
        return int(self._lefts.shape[0]) - int(self._dead.shape[0])

    @property
    def size(self) -> int:
        """Intervals active in this shard as of the last :meth:`refresh`."""
        return (
            self.base_size
            - int(self._tombstones.shape[0])
            + int(self._delta_gids.shape[0])
        )

    @property
    def version(self) -> int:
        """Snapshot version; advances whenever :meth:`refresh` changed visible state."""
        return self._version

    @property
    def base_rebuilds(self) -> int:
        """How often a compaction rebuilt the base since construction or restore."""
        return self._base_rebuilds

    @property
    def pending_ops(self) -> int:
        """Number of buffered writes not yet applied to the overlay."""
        return sum(int(op[1].shape[0]) for op in self._pending)

    @property
    def snapshot(self) -> FlatAIT:
        """The base :class:`FlatAIT` (the writes since it was built are in :attr:`overlay`)."""
        return self._snapshot

    @property
    def overlay(self) -> Optional[Overlay]:
        """Delta index + tombstones over the base, or ``None`` when there are none."""
        return self._overlay

    @property
    def global_map(self) -> np.ndarray:
        """Base-local→global id map, aligned with :attr:`snapshot`.

        Fixed between compactions — buffered writes do not move it — so it
        is safe to publish to executor workers together with the base
        arrays (:mod:`repro.service.shm`).
        """
        return self._global_map

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """The base's ``(lefts, rights, weights)`` columns by base-local id.

        ``weights`` is ``None`` for unweighted shards.  Slots listed in
        :attr:`dead` are not indexed by :attr:`snapshot`.
        """
        return self._lefts, self._rights, self._weights

    @property
    def dead(self) -> np.ndarray:
        """Sorted base-local ids the base snapshot does not index."""
        return self._dead

    def nbytes(self) -> int:
        """Approximate memory footprint: base columns, base snapshot, overlay."""
        total = int(self._lefts.nbytes + self._rights.nbytes) + int(self._snapshot.nbytes())
        if self._weights is not None:
            total += int(self._weights.nbytes)
        return total + (self._overlay.nbytes() if self._overlay is not None else 0)

    def _base_locals(self, global_ids: np.ndarray) -> np.ndarray:
        """Base-local id of each global id, -1 where the base does not hold it."""
        if self._id_index is None:
            order = np.argsort(self._global_map, kind="stable").astype(_ID, copy=False)
            self._id_index = (self._global_map[order], order)
        keys, order = self._id_index
        if keys.shape[0] == 0:
            return np.full(global_ids.shape[0], -1, dtype=_ID)
        pos = np.searchsorted(keys, global_ids)
        np.minimum(pos, keys.shape[0] - 1, out=pos)
        return np.where(keys[pos] == global_ids, order[pos], -1)

    # ------------------------------------------------------------------ #
    # delta log
    # ------------------------------------------------------------------ #
    def buffer_insert(self, global_id: int, left: float, right: float) -> None:
        """Append one insertion to the delta log (a one-element bulk entry)."""
        self.buffer_insert_many(
            np.asarray([global_id], dtype=np.int64),
            np.asarray([left], dtype=np.float64),
            np.asarray([right], dtype=np.float64),
        )

    def buffer_delete(self, global_id: int) -> None:
        """Append one deletion to the delta log (a one-element bulk entry)."""
        self.buffer_delete_many(np.asarray([global_id], dtype=np.int64))

    def buffer_insert_many(
        self, global_ids: np.ndarray, lefts: np.ndarray, rights: np.ndarray
    ) -> None:
        """Append a whole insertion batch to the delta log as one bulk op.

        With a write-ahead log attached the batch is journaled durably
        first — write-ahead ordering: if the record is not on disk (per the
        log's fsync policy), the write is not in memory either.
        """
        if global_ids.shape[0]:
            gids = np.asarray(global_ids, dtype=np.int64)
            lefts_arr = np.asarray(lefts, dtype=np.float64)
            rights_arr = np.asarray(rights, dtype=np.float64)
            if self.wal is not None:
                self.wal.append_insert(gids, lefts_arr, rights_arr)
            self._pending.append(("insert_many", gids, lefts_arr, rights_arr))

    def buffer_delete_many(self, global_ids: np.ndarray) -> None:
        """Append a whole deletion batch to the delta log as one bulk op."""
        if global_ids.shape[0]:
            gids = np.asarray(global_ids, dtype=np.int64)
            if self.wal is not None:
                self.wal.append_delete(gids)
            self._pending.append(("delete_many", gids))

    def refresh(self) -> bool:
        """Fold the delta log into a new overlay; return True when state changed.

        The engine calls this at the start of every batch — never while a
        batch is executing — so within one scatter-gather round every shard
        serves one consistent version.  Global ids are never reused and a
        delete always follows its insert, so the log folds as one
        concatenation of its inserts followed by one pass over its deletes:
        a deleted insert leaves the delta, a deleted base interval becomes a
        tombstone, an id the shard does not hold is ignored.  The overlay's
        delta is then rebuilt treelessly — or, once the overlay work since
        the last compaction passes :data:`COMPACT_WORK` times the base size,
        the whole overlay is folded into a new base instead.  The new
        overlay or base is built before any shard state changes, so an error
        while building leaves the shard and its delta log as they were, and
        the next refresh retries.
        """
        if not self._pending:
            return False
        gids, lefts, rights, tombstones, changed = self._fold(self._pending)
        if not changed:
            self._pending = []
            return False
        work = self._overlay_work + gids.shape[0] + tombstones.shape[0]
        if work > COMPACT_WORK * self.base_size:
            base = self._build_base(gids, lefts, rights, tombstones)
            if base is not None:
                self._pending = []
                self._install_base(*base)
                return True
        overlay = self._build_overlay(gids, lefts, rights, tombstones)
        self._pending = []
        self._delta_gids, self._delta_lefts, self._delta_rights = gids, lefts, rights
        self._tombstones = tombstones
        self._overlay = overlay
        self._overlay_work = work
        self._version += 1
        return True

    def _fold(self, pending: list[DeltaOp]):
        """The delta arrays and tombstones after applying ``pending``, plus
        whether anything visible changed; shard state is left untouched."""
        gids, lefts, rights = self._delta_gids, self._delta_lefts, self._delta_rights
        inserts = [op for op in pending if op[0] == "insert_many"]
        if inserts:
            gids = np.concatenate([gids] + [op[1] for op in inserts])
            lefts = np.concatenate([lefts] + [op[2] for op in inserts])
            rights = np.concatenate([rights] + [op[3] for op in inserts])
        tombstones = self._tombstones
        deletes = [op[1] for op in pending if op[0] == "delete_many"]
        changed = bool(inserts)
        if deletes:
            doomed = np.concatenate(deletes)
            keep = ~np.isin(gids, doomed)
            if not keep.all():
                gids, lefts, rights = gids[keep], lefts[keep], rights[keep]
                changed = True
            local = self._base_locals(doomed)
            local = local[local >= 0]
            if self._dead.shape[0] and local.shape[0]:
                # Slots already dead in a restored base are not in its snapshot.
                local = local[~np.isin(local, self._dead)]
            if local.shape[0]:
                tombstones = np.union1d(tombstones, local)
                changed = True
        return gids, lefts, rights, tombstones, changed

    def _build_overlay(self, gids, lefts, rights, tombstones) -> Optional[Overlay]:
        if gids.shape[0] == 0 and tombstones.shape[0] == 0:
            return None
        delta = None
        if gids.shape[0]:
            delta = FlatAIT.from_arrays(lefts, rights)
        return Overlay(
            delta,
            gids,
            tombstones,
            np.sort(self._lefts[tombstones]),
            np.sort(self._rights[tombstones]),
        )

    def _build_base(self, gids, lefts, rights, tombstones):
        """A new base folding the given overlay in, as ``(lefts, rights,
        snapshot, global_map)``, or None when no live interval is left to
        build from.

        The new base indexes the live base intervals plus the live inserts,
        ordered by global id.  Only unweighted shards take writes, so it has
        no weight column.
        """
        live = np.ones(self._lefts.shape[0], dtype=bool)
        live[self._dead] = False
        live[tombstones] = False
        live = np.flatnonzero(live)
        all_gids = np.concatenate((self._global_map[live], gids))
        if all_gids.shape[0] == 0:
            return None
        order = np.argsort(all_gids, kind="stable")
        base_lefts = np.concatenate((self._lefts[live], lefts))[order]
        base_rights = np.concatenate((self._rights[live], rights))[order]
        snapshot = FlatAIT.from_arrays(base_lefts, base_rights)
        return base_lefts, base_rights, snapshot, all_gids[order]

    def _install_base(self, lefts, rights, snapshot, global_map) -> None:
        self._set_base(lefts, rights, None, snapshot, global_map)
        self._base_rebuilds += 1
        self._version += 1

    def compact(self) -> bool:
        """Fold the overlay into a new base; return True when the base was rebuilt.

        Applies the delta log first.  A shard without an overlay, or with no
        live interval left, keeps what it has — there is nothing to fold or
        nothing to build a base from.
        """
        self.refresh()
        if self._overlay is None:
            return False
        base = self._build_base(
            self._delta_gids, self._delta_lefts, self._delta_rights, self._tombstones
        )
        if base is None:
            return False
        self._install_base(*base)
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Shard(id={self.shard_id}, size={self.size}, version={self._version}, "
            f"inserts={self._delta_gids.shape[0]}, tombstones={self._tombstones.shape[0]}, "
            f"pending={len(self._pending)})"
        )
