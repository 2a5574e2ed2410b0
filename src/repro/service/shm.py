"""Shared-memory shard views and the process-executor worker protocol.

The engine's scatter-gather step runs one *op* per shard per batch, in one
of two places: inline in the owner process (:func:`run_inline`, over the
live :class:`~repro.service.shard.Shard` objects), or on the worker
processes of a :class:`~repro.service.executor.ProcessExecutor`, where the
shard must be visible from another process without pickling an engine.
This module provides both sides of that bridge:

* :class:`ShardView` — the minimal read surface an op needs: shard id, the
  immutable *base* :class:`~repro.core.flat.FlatAIT` snapshot, its
  local→global id map, and the shard's current :class:`Overlay` (the writes
  since the base was built; ``None`` when there are none).  Both places
  run the *same* module-level op functions over views, so results are
  bit-identical by construction; only where the view's arrays live differs.
* :func:`publish_shard` / :func:`attach_segment` — one
  ``multiprocessing.shared_memory`` segment per (shard, base): the base
  snapshot's arrays (:meth:`FlatAIT.to_buffers`: node arrays, root
  columns and one position key per list entry) plus the global id map,
  copied once behind a JSON-able manifest of (name, dtype, shape, offset)
  entries.  Workers
  rebuild zero-copy views with :meth:`FlatAIT.from_buffers`.
  :func:`publish_overlay` / :func:`attach_overlay` do the same for the small
  per-version overlay, so a write republishes kilobytes, not the base.
* :func:`worker_main` — the long-lived worker loop: attach segments on
  ``publish`` messages (replacing any prior base or overlay of the same
  shard), run op batches on ``op`` messages, exit on ``stop``.  Workers
  never mutate anything: writes, overlay rebuilds and compactions stay on
  the owner process.

The op payloads are compact per-batch task descriptors — plain arrays with
one entry (or row) per query, never engines or closures.  A ``sample``
payload carries, besides the query endpoints, each draw's *rank* (the
engine draws one uniform per sample and scales it by the query's overlap
mass), each query's cumulative per-shard masses and one integer seed per
query.  Every shard op is then a deterministic function of its queries and
ranks: a shard keeps the cells whose rank falls in its mass range and maps
each to the interval at that rank (see :func:`_op_sample`).

Query-parallel tiles.  An ``op`` message addresses work as ``(key, start,
stop)`` tiles: a contiguous query block of one shard (the query scatter, see
:class:`~repro.service.executor.ProcessExecutor`).  :func:`slice_payload`
cuts a tile's payload out of the batch payload, and :func:`merge_block_results`
reassembles per-tile results into the exact value the whole-batch op would
have returned.  Since every op's answer for a query depends only on that
query's payload rows, any tiling reproduces the whole batch bit for bit.
"""

from __future__ import annotations

import sys
import traceback
from multiprocessing import resource_tracker, shared_memory
from typing import Optional

import numpy as np

from ..core.flat import FlatAIT

__all__ = [
    "ShardView",
    "Overlay",
    "run_shard_op",
    "run_inline",
    "slice_payload",
    "merge_block_results",
    "publish_shard",
    "publish_overlay",
    "attach_segment",
    "attach_overlay",
    "worker_main",
    "SHARD_OPS",
]

_ID = np.int64
_F8 = np.float64

#: Rounds of redrawing tombstoned base draws before a sample op finishes the
#: remaining draws by report-and-filter.  Rejection only runs while at most
#: half of a query's base overlap is tombstoned, so every draw is accepted
#: with probability >= 1/2 and the cap is practically never reached; it makes
#: the loop terminate unconditionally.
MAX_REJECTION_ROUNDS = 32

#: Segment alignment for array starts — one cache line, and a multiple of
#: every dtype itemsize in the schema.
_ALIGN = 64


def _members(sorted_values: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Boolean mask: which of ``values`` occur in the sorted array ``sorted_values``."""
    if sorted_values.shape[0] == 0 or values.shape[0] == 0:
        return np.zeros(values.shape[0], dtype=bool)
    pos = np.searchsorted(sorted_values, values)
    np.minimum(pos, sorted_values.shape[0] - 1, out=pos)
    return sorted_values[pos] == values


class Overlay:
    """The writes a shard took since its base snapshot was built.

    * ``delta`` — a :class:`~repro.core.flat.FlatAIT` over the live inserts
      (its ids are positions into ``delta_map``), or ``None`` without any;
    * ``delta_map`` — the global id of every delta position;
    * ``tombstones`` — sorted base-local ids of the deleted base intervals;
    * ``tomb_lefts`` / ``tomb_rights`` — the tombstoned intervals' endpoints,
      each sorted on its own, so the tombstoned intervals overlapping a query
      are counted by the same two-binary-search identity as
      :meth:`FlatAIT.count_many`.

    Immutable once built: every write batch builds a new overlay
    (:meth:`repro.service.shard.Shard.refresh`).  ``segment`` pins the
    shared-memory mapping of a worker-side overlay (:func:`attach_overlay`).
    """

    __slots__ = ("delta", "delta_map", "tombstones", "tomb_lefts", "tomb_rights", "segment")

    def __init__(
        self,
        delta: Optional[FlatAIT],
        delta_map: np.ndarray,
        tombstones: np.ndarray,
        tomb_lefts: np.ndarray,
        tomb_rights: np.ndarray,
        segment: Optional[shared_memory.SharedMemory] = None,
    ) -> None:
        self.delta = delta
        self.delta_map = delta_map
        self.tombstones = tombstones
        self.tomb_lefts = tomb_lefts
        self.tomb_rights = tomb_rights
        self.segment = segment

    def nbytes(self) -> int:
        """Memory held by the delta index, its id map and the tombstones."""
        arrays = (self.delta_map, self.tombstones, self.tomb_lefts, self.tomb_rights)
        total = sum(int(array.nbytes) for array in arrays)
        return total + (self.delta.nbytes() if self.delta is not None else 0)

    def tombstoned(self, local_ids: np.ndarray) -> np.ndarray:
        """Mask of the base-local ids that are tombstoned."""
        return _members(self.tombstones, local_ids)

    def tomb_count(self, ql: np.ndarray, qr: np.ndarray) -> np.ndarray:
        """Tombstoned base intervals overlapping each query."""
        inside = np.searchsorted(self.tomb_lefts, qr, side="right")
        return (inside - np.searchsorted(self.tomb_rights, ql, side="left")).astype(_ID)

    def delta_count(self, ql: np.ndarray, qr: np.ndarray) -> np.ndarray:
        """Live inserts overlapping each query."""
        if self.delta is None:
            return np.zeros(ql.shape[0], dtype=_ID)
        return self.delta._count_many(ql, qr)

    def to_buffers(self) -> dict[str, np.ndarray]:
        """Every array of the overlay, the delta's under a ``delta.`` prefix."""
        arrays = {
            "delta_map": self.delta_map,
            "tombstones": self.tombstones,
            "tomb_lefts": self.tomb_lefts,
            "tomb_rights": self.tomb_rights,
        }
        if self.delta is not None:
            for name, array in self.delta.to_buffers().items():
                arrays["delta." + name] = array
        return arrays

    @classmethod
    def from_buffers(cls, arrays: dict, segment=None) -> "Overlay":
        """Inverse of :meth:`to_buffers` (zero-copy, like :meth:`FlatAIT.from_buffers`)."""
        delta_arrays = {
            name[len("delta.") :]: array
            for name, array in arrays.items()
            if name.startswith("delta.")
        }
        delta = FlatAIT.from_buffers(delta_arrays, False) if delta_arrays else None
        return cls(
            delta,
            arrays["delta_map"],
            arrays["tombstones"],
            arrays["tomb_lefts"],
            arrays["tomb_rights"],
            segment,
        )


class ShardView:
    """The read-only face of one shard: base snapshot, id map and overlay.

    Built either from a live :class:`~repro.service.shard.Shard` (inline
    execution; the arrays are the shard's own) or from shared-memory
    segments (:func:`attach_segment` / :func:`attach_overlay`; the arrays are
    zero-copy views into the segments, and ``segment`` pins the base mapping
    alive).  ``overlay`` is ``None`` for a shard that took no writes since
    its base was built — the ops then run exactly the base-only code path.
    """

    __slots__ = ("shard_id", "snapshot", "global_map", "segment", "overlay")

    def __init__(
        self,
        shard_id: int,
        snapshot: FlatAIT,
        global_map: np.ndarray,
        segment: Optional[shared_memory.SharedMemory] = None,
        overlay: Optional[Overlay] = None,
    ) -> None:
        self.shard_id = int(shard_id)
        self.snapshot = snapshot
        self.global_map = global_map
        self.segment = segment
        self.overlay = overlay

    @classmethod
    def of_shard(cls, shard) -> "ShardView":
        """View a live shard directly (inline execution in the owner process)."""
        return cls(shard.shard_id, shard.snapshot, shard.global_map, overlay=shard.overlay)

    def to_global(self, local_ids: np.ndarray) -> np.ndarray:
        """Map base-local interval ids to engine-global ids."""
        if local_ids.shape[0] == 0:
            return local_ids
        return self.global_map[local_ids]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = "shm" if self.segment is not None else "local"
        return f"ShardView(shard_id={self.shard_id}, backing={where!r})"


# ---------------------------------------------------------------------- #
# per-shard ops (the one implementation, inline or on a worker)
# ---------------------------------------------------------------------- #
def _op_count(view: ShardView, payload: dict) -> np.ndarray:
    ql, qr = payload["ql"], payload["qr"]
    counts = view.snapshot._count_many(ql, qr)
    overlay = view.overlay
    if overlay is None:
        return counts
    return counts - overlay.tomb_count(ql, qr) + overlay.delta_count(ql, qr)


def _op_total_weight(view: ShardView, payload: dict) -> np.ndarray:
    if view.overlay is not None:
        # Only unweighted shards take writes, so with an overlay weight == count.
        return _op_count(view, payload).astype(_F8)
    return view.snapshot._total_weight_many(payload["ql"], payload["qr"])


def _drop_tombstoned(chunks: list[np.ndarray], overlay: Overlay) -> list[np.ndarray]:
    """Filter tombstoned ids out of per-query base-local id chunks (one pass)."""
    lengths = np.fromiter((chunk.shape[0] for chunk in chunks), dtype=_ID, count=len(chunks))
    flat = np.concatenate(chunks)
    keep = ~overlay.tombstoned(flat)
    kept = np.concatenate(([0], np.cumsum(keep, dtype=_ID)))
    ends = np.cumsum(lengths)
    return np.split(flat[keep], np.cumsum(kept[ends] - kept[ends - lengths])[:-1])


def _op_report(view: ShardView, payload: dict) -> list[np.ndarray]:
    ql, qr = payload["ql"], payload["qr"]
    chunks = view.snapshot._report_many(ql, qr)
    overlay = view.overlay
    if overlay is None:
        return [view.to_global(chunk) for chunk in chunks]
    if chunks and overlay.tombstones.shape[0]:
        chunks = _drop_tombstoned(chunks, overlay)
    rows = [view.to_global(chunk) for chunk in chunks]
    if overlay.delta is not None:
        rows = [
            np.concatenate((row, overlay.delta_map[extra]))
            for row, extra in zip(rows, overlay.delta._report_many(ql, qr))
        ]
    return rows


def _redraw_uniforms(seeds: np.ndarray, draws: np.ndarray, round_: int) -> np.ndarray:
    """Uniforms in ``[0, 1)``: a SplitMix64 hash of (row seed, draw index, round).

    Counter-based, so a redraw depends only on its own row's seed and the
    draw's column, never on which other rows share the call: any tiling of a
    batch reproduces it.  Used only for tombstone redraws, which are rare.
    """
    with np.errstate(over="ignore"):
        counter = (draws.astype(np.uint64) << np.uint64(32)) + np.uint64(round_ + 1)
        z = seeds.astype(np.uint64) + counter * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(_F8) * 2.0**-53


def _touched(query_of: np.ndarray, nq: int) -> tuple[np.ndarray, np.ndarray]:
    """The queries some draw belongs to, and every query's position among them."""
    hit = np.zeros(nq, dtype=bool)
    hit[query_of] = True
    return np.flatnonzero(hit), np.cumsum(hit) - 1


def _locate(index: FlatAIT, ql: np.ndarray, qr: np.ndarray, query_of, ranks) -> np.ndarray:
    """``index``-local ids at ``ranks``, traversing only the queries drawn from."""
    queries, slot = _touched(query_of, ql.shape[0])
    records = index.collect_records_batch(ql[queries], qr[queries])
    return index._ids_at_ranks(records, queries.shape[0], slot[query_of], ranks)


def _sample_overlaid(view, ql, qr, query_of, ranks, seeds, draws) -> np.ndarray:
    """Global ids at the shard-local ``ranks`` of a shard with an overlay.

    A query's live overlap is its live base part followed by its delta part,
    so a rank below ``live`` is a base draw and the rest go to the delta at
    ``rank - live``.  A base draw of a query without tombstones reads the
    base at its rank.  Otherwise the base part is not contiguous in rank
    order, so the draw is placed by rejection: each round takes a hashed
    uniform (:func:`_redraw_uniforms`) over the whole base overlap and
    keeps it unless it hits a tombstone — uniform over the live part.  When
    tombstones are more than half of a query's base overlap (or the
    rejection rounds run out), the draw takes the live base ids by
    report-and-filter and reads them at its rank, so the work stays
    bounded.  A rank past the shard's current mass — a payload built before
    later deletes — is clamped to its last member; a query with nothing
    left gets ``-1``.
    """
    overlay, snapshot = view.overlay, view.snapshot
    base_all = snapshot._count_many(ql, qr)
    tombs = overlay.tomb_count(ql, qr)
    live = base_all - tombs
    mass = (live + overlay.delta_count(ql, qr))[query_of]
    ranks = np.minimum(ranks, mass - 1)
    out = np.full(ranks.shape[0], -1, dtype=_ID)
    split = live[query_of]
    to_delta = np.flatnonzero((mass > 0) & (ranks >= split))
    if to_delta.shape[0]:
        at = ranks[to_delta] - split[to_delta]
        out[to_delta] = overlay.delta_map[_locate(overlay.delta, ql, qr, query_of[to_delta], at)]

    to_base = (mass > 0) & (ranks < split)
    tombed = tombs[query_of] > 0
    rejecting = to_base & tombed & (2 * tombs <= base_all)[query_of]
    direct = np.flatnonzero(to_base & ~tombed)
    pending = np.flatnonzero(rejecting)
    # One base traversal serves the direct reads and every rejection round.
    rows, slot = _touched(query_of[to_base & (rejecting | ~tombed)], ql.shape[0])
    records = snapshot.collect_records_batch(ql[rows], qr[rows])

    def read_base(picked: np.ndarray, at: np.ndarray) -> np.ndarray:
        return snapshot._ids_at_ranks(records, rows.shape[0], slot[query_of[picked]], at)

    if direct.shape[0]:
        out[direct] = view.global_map[read_base(direct, ranks[direct])]
    for round_ in range(MAX_REJECTION_ROUNDS):
        if pending.shape[0] == 0:
            break
        span = base_all[query_of[pending]]
        uniforms = _redraw_uniforms(seeds[query_of[pending]], draws[pending], round_)
        picks = np.minimum((uniforms * span).astype(_ID), span - 1)
        local = read_base(pending, picks)
        dead = overlay.tombstoned(local)
        out[pending[~dead]] = view.global_map[local[~dead]]
        pending = pending[dead]

    filtered = np.flatnonzero(to_base & tombed & ~rejecting)
    rest = np.concatenate((filtered, pending))
    if rest.shape[0]:
        queries, slot = _touched(query_of[rest], ql.shape[0])
        chunks = _drop_tombstoned(snapshot._report_many(ql[queries], qr[queries]), overlay)
        lengths = np.fromiter((chunk.shape[0] for chunk in chunks), dtype=_ID, count=len(chunks))
        starts = np.cumsum(lengths) - lengths
        at = slot[query_of[rest]]
        picks = np.minimum(ranks[rest], lengths[at] - 1)
        out[rest] = view.to_global(np.concatenate(chunks)[starts[at] + picks])
    return out


def _op_sample(view: ShardView, payload: dict) -> np.ndarray:
    """The ids at this shard's ranks, in row-major order of the cells it owns.

    ``payload`` carries the live query endpoints ``ql``/``qr``, the draw
    ranks ``ranks`` (queries x draws; integer positions in the query's
    overlap, or points in its total weight for weighted engines), each
    row's cumulative shard masses ``cum`` (queries x shards + 1) and one
    integer ``seeds`` entry per row.  This shard owns the cells whose rank
    lies in ``[cum[:, k], cum[:, k + 1])`` for its id ``k``; it subtracts
    the start to get shard-local ranks and maps each to a global id — from
    the base alone, or from base and overlay (:func:`_sample_overlaid`).
    """
    ranks, cum = payload["ranks"], payload["cum"]
    k = view.shard_id
    owned = (ranks >= cum[:, k, None]) & (ranks < cum[:, k + 1, None])
    rows, draws = np.nonzero(owned)
    local = (ranks - cum[:, k, None])[owned]
    ql, qr = payload["ql"], payload["qr"]
    if view.overlay is not None:
        return _sample_overlaid(view, ql, qr, rows, local, payload["seeds"], draws)
    ids = _locate(view.snapshot, ql, qr, rows, local)
    found = ids >= 0
    ids[found] = view.global_map[ids[found]]
    return ids


#: Op name -> implementation.  Names, not functions, cross the process
#: boundary, so the dispatch table must agree between parent and workers —
#: both sides read this one dict.
SHARD_OPS = {
    "count": _op_count,
    "total_weight": _op_total_weight,
    "report": _op_report,
    "sample": _op_sample,
}


def run_shard_op(op: str, view: ShardView, payload: dict):
    """Execute one named per-shard op over a view (owner process or worker)."""
    return SHARD_OPS[op](view, payload)


def run_inline(shards, op: str, payload: dict) -> list:
    """Run one named op over every live shard in the owner process, in shard order."""
    return [run_shard_op(op, ShardView.of_shard(shard), payload) for shard in shards]


# ---------------------------------------------------------------------- #
# query-parallel tiling: payload slicing + result reassembly
# ---------------------------------------------------------------------- #
def slice_payload(payload: dict, start: int, stop: int) -> dict:
    """Cut the payload for queries ``[start, stop)`` out of a batch payload.

    Every payload entry is a per-query array, so every op slices every entry
    the same way.  Slices are views, not copies.
    """
    return {key: value[start:stop] for key, value in payload.items()}


def merge_block_results(op: str, parts: list):
    """Reassemble per-tile op results into the whole-batch result.

    ``parts`` holds the tiles' results in query order, the tiles partitioning
    the batch.  ``report`` returns one id row per query, so its tiles' row
    lists are joined; every other op returns one array in query order (a
    ``sample`` tile's cells are row-major), so its tiles' arrays are
    concatenated.  Either way the value is, bit for bit, what the op returns
    over the whole batch.
    """
    if op == "report":
        return [row for part in parts for row in part]
    return np.concatenate(parts)


# ---------------------------------------------------------------------- #
# shared-memory publication
# ---------------------------------------------------------------------- #
def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class ShardSegment:
    """Parent-side handle for one published base or overlay segment.

    Owns the :class:`SharedMemory` block — the parent must keep the handle
    alive while any worker might (re)attach by name, and calls
    :meth:`unlink` exactly once when the segment is superseded (a new base
    after a compaction, a new overlay after a write) or the executor shuts
    down.
    """

    __slots__ = ("shm", "manifest")

    def __init__(self, shm: shared_memory.SharedMemory, manifest: dict) -> None:
        self.shm = shm
        self.manifest = manifest

    def unlink(self) -> None:
        """Release the parent mapping and remove the segment's name.

        Workers still holding the old mapping keep reading it safely (POSIX
        shm lives until the last close); no new attach can find it.
        """
        try:
            self.shm.close()
            self.shm.unlink()
        except (OSError, BufferError):  # already gone / still exported
            pass


def _pack(arrays: dict) -> tuple[shared_memory.SharedMemory, list[dict]]:
    """Copy named arrays into one fresh segment; return it with its entries.

    Each array starts on an ``_ALIGN``-byte boundary; the entries (name,
    dtype, shape, offset) are what :func:`_unpack` needs to rebuild views.
    """
    entries: list[dict] = []
    sized: list[tuple[dict, np.ndarray]] = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = _aligned(offset)
        entry = {
            "name": name,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
        }
        entries.append(entry)
        sized.append((entry, array))
        offset += int(array.nbytes)

    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for entry, array in sized:
        if array.nbytes == 0:
            continue
        dst = np.ndarray(
            array.shape, dtype=array.dtype, buffer=shm.buf, offset=entry["offset"]
        )
        dst[...] = array
        del dst  # drop the buffer export before any later close()
    return shm, entries


def publish_shard(shard) -> ShardSegment:
    """Copy one shard's base snapshot + id map into a fresh shared-memory segment.

    The segment packs every array of :meth:`FlatAIT.to_buffers` plus the
    shard's ``global_map``, each aligned to ``_ALIGN`` bytes, behind
    a picklable manifest.  One segment per (shard, base): the caller
    republishes when a compaction replaced the base and unlinks the
    superseded segment.  The overlay travels separately
    (:func:`publish_overlay`).
    """
    arrays = dict(shard.snapshot.to_buffers())
    arrays["global_map"] = shard.global_map
    shm, entries = _pack(arrays)
    manifest = {
        "shm": shm.name,
        "shard_id": int(shard.shard_id),
        "version": int(shard.version),
        "weighted": bool(shard.snapshot.is_weighted),
        "arrays": entries,
    }
    return ShardSegment(shm, manifest)


def publish_overlay(shard) -> Optional[ShardSegment]:
    """Copy one shard's current overlay into a fresh segment (None without one).

    The overlay is small — a delta index over the writes since the last
    compaction plus the tombstones — so this is what a write republishes.
    """
    overlay = shard.overlay
    if overlay is None:
        return None
    shm, entries = _pack(overlay.to_buffers())
    manifest = {"shm": shm.name, "arrays": entries}
    return ShardSegment(shm, manifest)


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting cleanup responsibility.

    Python < 3.13 registers *every* attach with the resource tracker, whose
    exit handler would unlink the segment out from under its owner (and,
    when parent and children share one tracker process, an attach-side
    register/unregister pair corrupts the owner's bookkeeping).  Suppress
    the registration during the attach instead; 3.13+ has ``track=False``
    for exactly this.  Worker processes handle one message at a time, so the
    temporary monkeypatch cannot race.
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    original = resource_tracker.register

    def _skip_shared_memory(rname, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            original(rname, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _unpack(manifest: dict) -> tuple[shared_memory.SharedMemory, dict[str, np.ndarray]]:
    """Attach a published segment; return it with read-only views of its arrays."""
    shm = _attach_shm(manifest["shm"])
    arrays: dict[str, np.ndarray] = {}
    for entry in manifest["arrays"]:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        if int(np.prod(shape)) == 0:
            array = np.empty(shape, dtype=dtype)
        else:
            array = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=entry["offset"])
        array.setflags(write=False)
        arrays[entry["name"]] = array
    return shm, arrays


def attach_segment(manifest: dict) -> ShardView:
    """Rebuild a zero-copy :class:`ShardView` from a published base manifest.

    Every array is an ``np.ndarray`` view straight into the mapped segment
    (read-only — snapshot state is immutable by construction), assembled
    into a :class:`FlatAIT` via :meth:`FlatAIT.from_buffers`, which reads
    no list page.  The returned view holds the
    ``SharedMemory`` object so the mapping outlives the attach scope; its
    overlay starts empty (see :func:`attach_overlay`).
    """
    shm, arrays = _unpack(manifest)
    global_map = arrays.pop("global_map")
    snapshot = FlatAIT.from_buffers(arrays, bool(manifest["weighted"]))
    return ShardView(manifest["shard_id"], snapshot, global_map, segment=shm)


def attach_overlay(manifest: dict) -> Overlay:
    """Rebuild a zero-copy :class:`Overlay` from a :func:`publish_overlay` manifest."""
    shm, arrays = _unpack(manifest)
    return Overlay.from_buffers(arrays, segment=shm)


def _close_quietly(shm: Optional[shared_memory.SharedMemory]) -> None:
    if shm is not None:
        try:
            shm.close()
        except BufferError:  # a stray export keeps the mapping until exit
            pass


def _release_overlay(overlay: Optional[Overlay]) -> None:
    """Drop an overlay's arrays and close its segment mapping (best effort)."""
    if overlay is None:
        return
    shm = overlay.segment
    overlay.segment = overlay.delta = None
    overlay.delta_map = overlay.tombstones = overlay.tomb_lefts = overlay.tomb_rights = None
    _close_quietly(shm)


def _release_view(view: ShardView) -> None:
    """Drop a view's arrays and close its segment mappings (best effort)."""
    _release_overlay(view.overlay)
    shm = view.segment
    view.segment = None
    view.overlay = None
    view.snapshot = None
    view.global_map = None
    _close_quietly(shm)


# ---------------------------------------------------------------------- #
# worker process
# ---------------------------------------------------------------------- #
def worker_main(tasks, results) -> None:
    """Long-lived worker loop for :class:`ProcessExecutor`.

    Every message starts with a sequence number that the reply echoes, as
    ``(seq, status, value)``.  The parent waits for one reply at a time and
    drops any reply older than the one it waits for: the reply of a request
    it gave up on (a batch-mate's error, a timeout) can then never be read
    as the answer to a later one.

    * ``(seq, "publish", key, manifest, overlay_manifest)`` — serve ``key``
      from the base segment ``manifest`` (attached only when it differs from
      the one already served, replacing and closing the old one) and the
      overlay segment ``overlay_manifest`` (``None``: no overlay), replacing
      any previous overlay; reply ``(seq, "ok", None)``.
    * ``(seq, "op", op, payload, tiles)`` — run the named op for every
      ``(key, start, stop)`` query tile in order, each over
      :func:`slice_payload`; reply ``(seq, "ok", [result, ...])``.
    * ``(seq, "stop")`` — release every mapping and exit (no reply).

    Any exception is caught and reported as ``(seq, "error",
    traceback_text)`` — the worker survives and keeps serving.
    """
    views: dict[str, ShardView] = {}
    bases: dict[str, str] = {}
    try:
        while True:
            message = tasks.get()
            seq, kind = message[0], message[1]
            if kind == "stop":
                break
            try:
                if kind == "publish":
                    _, _, key, manifest, overlay_manifest = message
                    view = views.get(key)
                    if view is None or bases[key] != manifest["shm"]:
                        fresh = attach_segment(manifest)
                        if view is not None:
                            _release_view(view)
                        view = views[key] = fresh
                        bases[key] = manifest["shm"]
                    old = view.overlay
                    view.overlay = (
                        attach_overlay(overlay_manifest) if overlay_manifest is not None else None
                    )
                    _release_overlay(old)
                    results.put((seq, "ok", None))
                elif kind == "op":
                    _, _, op, payload, tiles = message
                    out = [
                        run_shard_op(op, views[key], slice_payload(payload, start, stop))
                        for key, start, stop in tiles
                    ]
                    results.put((seq, "ok", out))
                else:
                    results.put((seq, "error", f"unknown worker message kind {kind!r}"))
            except BaseException as exc:
                results.put(
                    (seq, "error", "".join(traceback.format_exception(exc)).strip())
                )
    finally:
        for view in views.values():
            _release_view(view)
