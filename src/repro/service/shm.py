"""Shared-memory shard views and the process-executor worker protocol.

The engine's scatter-gather step runs one *op* per shard per batch.  For the
in-process executors the op closes over the live :class:`~repro.service.shard.Shard`;
for :class:`~repro.service.executor.ProcessExecutor` the shard must be visible
from another process without pickling an engine.  This module provides both
sides of that bridge:

* :class:`ShardView` — the minimal read surface an op needs: shard id, the
  immutable *base* :class:`~repro.core.flat.FlatAIT` snapshot, its
  local→global id map, and the shard's current :class:`Overlay` (the writes
  since the base was built; ``None`` when there are none).  Every executor
  runs the *same* module-level op functions over views, so results are
  bit-identical by construction; only where the view's arrays live differs.
* :func:`publish_shard` / :func:`attach_segment` — one
  ``multiprocessing.shared_memory`` segment per (shard, base): the base
  snapshot's arrays (:meth:`FlatAIT.to_buffers`, derived rank keys included
  so workers never recompute) plus the global id map, copied once behind a
  JSON-able manifest of (name, dtype, shape, offset) entries.  Workers
  rebuild zero-copy views with :meth:`FlatAIT.from_buffers`.
  :func:`publish_overlay` / :func:`attach_overlay` do the same for the small
  per-version overlay, so a write republishes kilobytes, not the base.
* :func:`worker_main` — the long-lived worker loop: attach segments on
  ``publish`` messages (replacing any prior base or overlay of the same
  shard), run op batches on ``op`` messages, exit on ``stop``.  Workers
  never mutate anything: writes, overlay rebuilds and compactions stay on
  the owner process.

The op payloads are compact per-batch task descriptors — query endpoint
arrays, per-shard draw allocations, per-shard RNG *seeds* (plain ints, see
:func:`repro.sampling.rng.spawn_seeds`) — never engines or closures.

Query-parallel tiles.  An ``op`` message addresses work as *specs*: either a
bare segment key (the whole query batch — the data-parallel scatter) or a
``(key, start, stop)`` tile (a contiguous query block — the query-parallel
scatter, see ``ProcessExecutor(scatter=...)``).  :func:`slice_payload` cuts a
tile's payload out of the batch payload, and :func:`merge_block_results`
reassembles per-tile results into the exact value the whole-batch op would
have returned.  Sampling stays bit-identical under any tiling because
:func:`_op_sample` never draws from one batch-wide stream: every canonical
:data:`SEED_BLOCK`-query block derives its own generator from the shard seed
(``SeedSequence(seed, spawn_key=(block,))``), so a block's draws depend only
on that block's queries — executors merely have to cut tiles on
:data:`SEED_BLOCK` boundaries.
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
    "slice_payload",
    "merge_block_results",
    "publish_shard",
    "publish_overlay",
    "attach_segment",
    "attach_overlay",
    "worker_main",
    "SHARD_OPS",
    "SEED_BLOCK",
]

_ID = np.int64
_F8 = np.float64

#: Canonical sampling seed-block width, in queries.  ``_op_sample`` derives
#: one child generator per (shard, block of SEED_BLOCK consecutive batch
#: positions) instead of one stream per shard, so the draws for a block are a
#: pure function of that block's queries.  Any query tiling whose cuts land
#: on multiples of SEED_BLOCK therefore reproduces the whole-batch draws bit
#: for bit.  Changing this value changes which i.i.d. sample a given seed
#: yields (still exactly i.i.d. — just a different, equally valid draw).
SEED_BLOCK = 16

#: Rounds of redrawing tombstoned base draws before a sample op finishes the
#: remaining draws by report-and-filter.  Rejection only runs while at most
#: half of a query's base overlap is tombstoned, so every draw is accepted
#: with probability >= 1/2 and the cap is practically never reached; it makes
#: the loop terminate unconditionally.
MAX_REJECTION_ROUNDS = 32

#: Segment alignment for array starts — one cache line, and a multiple of
#: every dtype itemsize in the schema.
_ALIGN = 64

_EMPTY = np.empty(0, dtype=_ID)


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
    def from_buffers(cls, arrays: dict, kernel_backend=None, segment=None) -> "Overlay":
        """Inverse of :meth:`to_buffers` (zero-copy, like :meth:`FlatAIT.from_buffers`)."""
        delta_arrays = {
            name[len("delta.") :]: array
            for name, array in arrays.items()
            if name.startswith("delta.")
        }
        delta = (
            FlatAIT.from_buffers(delta_arrays, False, kernel_backend=kernel_backend)
            if delta_arrays
            else None
        )
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

    Built either from a live :class:`~repro.service.shard.Shard` (in-process
    executors; the arrays are the shard's own) or from shared-memory
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
        """View a live shard directly (serial / threaded execution)."""
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
# per-shard ops (the one implementation every executor runs)
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


def _block_rng(seed, block_id: int) -> np.random.Generator:
    """The canonical generator for one (shard seed, seed-block) pair.

    ``SeedSequence(seed, spawn_key=(block,))`` is exactly the stream the
    ``block``-th spawned child of ``SeedSequence(seed)`` would get — derived
    directly so block ``b`` costs O(1) instead of spawning ``b`` children.
    """
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(int(block_id),))
    )


def _draw_rows(
    snapshot: FlatAIT, ql: np.ndarray, qr: np.ndarray, need: np.ndarray, rng
) -> list[np.ndarray]:
    """``need[i] > 0`` i.i.d. draws (snapshot-local ids) for every query ``i``.

    The flat sampler draws one fixed count per call, so queries are bucketed
    by the power-of-two ceiling of their need: each bucket draws its own max
    (over-draw bounded at 2x) instead of every query drawing the overall max,
    and each row keeps its first ``need[i]`` draws (rows are exchangeable, so
    a prefix is itself an i.i.d. sample).
    """
    rows: list[np.ndarray] = [_EMPTY] * need.shape[0]
    levels = np.ceil(np.log2(need)).astype(_ID)
    for level in np.unique(levels):
        members = np.flatnonzero(levels == level)
        cap = int(need[members].max())
        drawn = snapshot._sample_many(ql[members], qr[members], cap, rng)
        for member, row in zip(members, drawn):
            rows[int(member)] = row[: need[member]]
    return rows


def _draw_overlaid(
    view: ShardView,
    ql: np.ndarray,
    qr: np.ndarray,
    need: np.ndarray,
    base_all: np.ndarray,
    tombs: np.ndarray,
    delta: np.ndarray,
    rng,
) -> list[np.ndarray]:
    """``need[i]`` i.i.d. global ids per query, uniform over base + overlay.

    A draw uniform over the shard's live overlap falls in the live base with
    probability ``live / (live + delta)``, so one binomial per query splits
    its allocation between the two — the engine's per-shard multinomial
    applied one level down.  Base draws that hit a tombstone are rejected
    and redrawn: a uniform draw over the base overlap conditioned on "not
    tombstoned" is uniform over its live part.  When tombstones are more
    than half of a query's base overlap (or the rejection rounds run out),
    the base part is drawn by report-and-filter instead, so the work stays
    bounded.  A query whose shard has no live overlap left — an allocation
    computed before later deletes — gets a short row instead of spinning.
    """
    overlay = view.overlay
    live = base_all - tombs
    total = live + delta
    need = np.where(total > 0, need, 0)
    p_base = np.divide(live, total, out=np.zeros(need.shape[0], dtype=_F8), where=total > 0)
    from_base = rng.binomial(need, p_base)
    from_delta = need - from_base

    parts: list[list[np.ndarray]] = [[] for _ in range(need.shape[0])]
    missing = from_base.copy()
    active = np.flatnonzero((missing > 0) & (2 * tombs <= base_all))
    for _ in range(MAX_REJECTION_ROUNDS):
        if active.shape[0] == 0:
            break
        drawn = _draw_rows(view.snapshot, ql[active], qr[active], missing[active], rng)
        for index, row in zip(active, drawn):
            kept = row[~overlay.tombstoned(row)]
            parts[index].append(kept)
            missing[index] -= kept.shape[0]
        active = active[missing[active] > 0]
    rest = np.flatnonzero(missing > 0)
    if rest.shape[0]:
        for index, ids in zip(rest, view.snapshot._report_many(ql[rest], qr[rest])):
            ids = ids[~overlay.tombstoned(ids)]
            if ids.shape[0]:
                parts[index].append(ids[rng.integers(0, ids.shape[0], size=missing[index])])

    rows = [view.to_global(np.concatenate(part)) if part else _EMPTY for part in parts]
    wanted = np.flatnonzero(from_delta > 0)
    if wanted.shape[0]:
        drawn = _draw_rows(overlay.delta, ql[wanted], qr[wanted], from_delta[wanted], rng)
        for index, row in zip(wanted, drawn):
            rows[index] = np.concatenate((rows[index], overlay.delta_map[row]))
    return rows


def _op_sample(view: ShardView, payload: dict):
    """Stage 2 of the engine's two-stage sampler, for one shard.

    ``payload`` carries the *live* query endpoints, the stage-1 multinomial
    allocation matrix ``alloc`` (queries x shards), one integer RNG seed per
    shard, and optionally ``offset`` — the batch-global position of this
    payload's first query (0 for a whole batch; the tile start under the
    query-parallel scatter).  This shard reads its own column and seed.

    The draw schedule is *seed-blocked*: queries are grouped by their
    canonical :data:`SEED_BLOCK`-wide batch-position block, and every block
    draws from its own generator (:func:`_block_rng`) — from the base alone
    (:func:`_draw_rows`) or, when the shard has an overlay, from base and
    overlay (:func:`_draw_overlaid`).  Returns ``(selected, counts, rows)``
    with rows already mapped to global ids.
    """
    counts = payload["alloc"][:, view.shard_id]
    selected = np.flatnonzero(counts > 0)
    if selected.shape[0] == 0:
        return selected, counts, []
    ql, qr = payload["ql"][selected], payload["qr"][selected]
    offset = int(payload.get("offset", 0))
    seed = payload["seeds"][view.shard_id]
    caps = counts[selected]
    blocks = (offset + selected) // SEED_BLOCK
    overlay = view.overlay
    if overlay is not None:
        base_all = view.snapshot._count_many(ql, qr)
        tombs = overlay.tomb_count(ql, qr)
        delta = overlay.delta_count(ql, qr)
    rows: list[np.ndarray] = [_EMPTY] * selected.shape[0]
    for block_id in np.unique(blocks):
        rng = _block_rng(seed, block_id)
        members = np.flatnonzero(blocks == block_id)
        if overlay is None:
            drawn = [
                view.to_global(row)
                for row in _draw_rows(view.snapshot, ql[members], qr[members], caps[members], rng)
            ]
        else:
            drawn = _draw_overlaid(
                view,
                ql[members],
                qr[members],
                caps[members],
                base_all[members],
                tombs[members],
                delta[members],
                rng,
            )
        for member, row in zip(members, drawn):
            rows[int(member)] = row
    return selected, counts, rows


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
    """Execute one named per-shard op over a view (any executor, any process)."""
    return SHARD_OPS[op](view, payload)


# ---------------------------------------------------------------------- #
# query-parallel tiling: payload slicing + result reassembly
# ---------------------------------------------------------------------- #
def slice_payload(op: str, payload: dict, start: int, stop: int) -> dict:
    """Cut the payload for queries ``[start, stop)`` out of a batch payload.

    ``ql``/``qr`` are sliced for every op; ``sample`` additionally slices the
    allocation rows, keeps the per-shard seed list whole (the seed schedule
    is shard-wide), and advances ``offset`` so :func:`_op_sample` still sees
    batch-global positions for its seed-block ids.  Slices are views, not
    copies — a tile ships no more bytes than its own queries.
    """
    sliced = {"ql": payload["ql"][start:stop], "qr": payload["qr"][start:stop]}
    if op == "sample":
        sliced["alloc"] = payload["alloc"][start:stop]
        sliced["seeds"] = payload["seeds"]
        sliced["offset"] = int(payload.get("offset", 0)) + int(start)
    return sliced


def merge_block_results(op: str, parts: list):
    """Reassemble per-tile op results into the whole-batch result.

    ``parts`` is a non-empty list of ``(start, result)`` pairs whose tiles
    partition ``[0, nq)``, sorted by ``start``.  The merged value is exactly
    (bit for bit) what the op would have returned over the whole batch:
    count/total_weight concatenate their per-query vectors, report
    concatenates its per-query row lists, and sample re-bases each tile's
    ``selected`` positions by the tile start and concatenates the per-query
    count columns and row lists.
    """
    if op == "report":
        rows: list[np.ndarray] = []
        for _, part in parts:
            rows.extend(part)
        return rows
    if op == "sample":
        selected = np.concatenate(
            [part[0] + int(start) for start, part in parts]
        )
        counts = np.concatenate([part[1] for _, part in parts])
        rows = []
        for _, part in parts:
            rows.extend(part[2])
        return selected, counts, rows
    return np.concatenate([part for _, part in parts])


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

    The segment packs every array of :meth:`FlatAIT.to_buffers` (core arrays
    *and* the derived rank-key pools — attaching must not recompute them)
    plus the shard's ``global_map``, each aligned to ``_ALIGN`` bytes, behind
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
        "kernel": shard.snapshot.kernel_backend,
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
    manifest = {"shm": shm.name, "kernel": shard.snapshot.kernel_backend, "arrays": entries}
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
    into a :class:`FlatAIT` via :meth:`FlatAIT.from_buffers` so the saved
    rank-key pools are adopted, not recomputed.  The returned view holds the
    ``SharedMemory`` object so the mapping outlives the attach scope; its
    overlay starts empty (see :func:`attach_overlay`).
    """
    shm, arrays = _unpack(manifest)
    global_map = arrays.pop("global_map")
    snapshot = FlatAIT.from_buffers(
        arrays, bool(manifest["weighted"]), kernel_backend=manifest.get("kernel")
    )
    return ShardView(manifest["shard_id"], snapshot, global_map, segment=shm)


def attach_overlay(manifest: dict) -> Overlay:
    """Rebuild a zero-copy :class:`Overlay` from a :func:`publish_overlay` manifest."""
    shm, arrays = _unpack(manifest)
    return Overlay.from_buffers(arrays, kernel_backend=manifest.get("kernel"), segment=shm)


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

    Messages (FIFO per worker; the parent awaits one reply per request, so
    replies never interleave):

    * ``("publish", key, manifest, overlay_manifest)`` — serve ``key`` from
      the base segment ``manifest`` (attached only when it differs from the
      one already served, replacing and closing the old one) and the
      overlay segment ``overlay_manifest`` (``None``: no overlay), replacing
      any previous overlay; reply ``("ok", None)``.
    * ``("op", op, payload, specs)`` — run the named op for every spec in
      order; reply ``("ok", [result, ...])``.  A spec is either a bare
      segment ``key`` (whole batch) or a ``(key, start, stop)`` query tile
      executed over :func:`slice_payload`.
    * ``("stop",)`` — release every mapping and exit (no reply).

    Any exception is caught and reported as ``("error", traceback_text)`` —
    the worker survives and keeps serving.
    """
    views: dict[str, ShardView] = {}
    bases: dict[str, str] = {}
    try:
        while True:
            message = tasks.get()
            kind = message[0]
            if kind == "stop":
                break
            try:
                if kind == "publish":
                    _, key, manifest, overlay_manifest = message
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
                    results.put(("ok", None))
                elif kind == "op":
                    _, op, payload, specs = message
                    out = []
                    for spec in specs:
                        if isinstance(spec, str):
                            out.append(run_shard_op(op, views[spec], payload))
                        else:
                            key, start, stop = spec
                            out.append(
                                run_shard_op(
                                    op, views[key], slice_payload(op, payload, start, stop)
                                )
                            )
                    results.put(("ok", out))
                else:
                    results.put(("error", f"unknown worker message kind {kind!r}"))
            except BaseException as exc:
                results.put(
                    ("error", "".join(traceback.format_exception(exc)).strip())
                )
    finally:
        for view in views.values():
            _release_view(view)
