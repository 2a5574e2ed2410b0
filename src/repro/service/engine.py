"""ShardedEngine — scatter-gather query serving on top of FlatAIT snapshots.

This is the serving layer the reproduction grows toward: it partitions an
:class:`~repro.core.dataset.IntervalDataset` across ``K`` shards, keeps one
:class:`~repro.core.flat.FlatAIT` snapshot per shard, and answers the full
batch API (``count_many`` / ``report_many`` / ``sample_many`` /
``total_weight_many``) by fanning each batch out over the shards and merging
the partial results:

* **counting** and **weighted counting** merge by summation — each interval
  lives in exactly one shard, so per-shard results partition ``q ∩ X``;
* **reporting** merges by concatenation, with shard-local ids mapped back to
  engine-global ids;
* **sampling** stays *exactly* i.i.d.: every draw is one uniform, scaled
  to a rank over the query's whole overlap (counts, or overlap *weights*
  for weighted engines).  Ranks order ``q ∩ X`` shard by shard, then
  record by record, then member by member, so the shard whose cumulative
  mass range holds a rank answers that draw at the local rank, and its
  ``FlatAIT`` finds the record and the member the same way — the paper's
  record-then-member argument (Theorem 3 / Corollary 5) applied at every
  level.  See ``docs/ARCHITECTURE.md`` for the full derivation.

Writes (:meth:`ShardedEngine.insert` / :meth:`ShardedEngine.delete`) are
routed to the owning shard's buffered delta log and folded into the shard's
small overlay — a delta index over its inserts plus tombstones for its
deletes, layered over an immutable base snapshot — at the next batch
boundary, never mid-batch, so one scatter-gather round always observes one
consistent version per shard.  See :mod:`repro.service.shard`.

The scatter-gather step runs each per-shard op in one of two places
(:mod:`repro.service.executor`): inline in the owner process by default, or
on the long-lived worker processes of a
:class:`~repro.service.executor.ProcessExecutor` (``executor="process"``),
which attach each shard's snapshot arrays through
``multiprocessing.shared_memory`` and execute the whole per-shard code path
off the owner's GIL.  Either way every per-shard op runs the same
module-level implementation over a :class:`~repro.service.shm.ShardView`
(:meth:`ShardedEngine._scatter`), so results are bit-identical; writes,
overlay rebuilds and compactions always stay on the owner process, and a
shard's version bump triggers re-publication of its overlay segment (and of
its base segment only after a compaction).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.dataset import IntervalDataset
from ..core.errors import EmptyResultError, InvalidIntervalError, StructureStateError
from ..core.flat import FlatAIT, draw_ranks
from ..core.interval import Interval, validate_endpoints
from ..core.query import QueryLike, validate_sample_size
from ..sampling.rng import RandomState, resolve_rng
from .executor import resolve_executor
from .shard import Shard
from .shm import run_inline

__all__ = ["ShardedEngine"]

_ID = np.int64
_F8 = np.float64


class ShardedEngine:
    """Sharded, update-aware, batch-first query service over interval data.

    Parameters
    ----------
    dataset:
        The intervals to serve.  Must contain at least ``num_shards``
        intervals so every shard starts non-empty.
    num_shards:
        Number of partitions (``K``).  ``K = 1`` degenerates to a thin
        wrapper around a single :class:`~repro.core.flat.FlatAIT`.
    policy:
        How intervals map to shards — ``"round_robin"`` (default; balances
        cardinality) or ``"range"`` (contiguous midpoint ranges; narrow
        queries touch few shards).  See
        :meth:`IntervalDataset.partition_indices`.
    weighted:
        Build weighted (AWIT-layout) shard snapshots (weight-proportional
        sampling).  Defaults to ``dataset.is_weighted``.  Weighted engines
        reject updates, mirroring the paper's static AWIT (Section IV-A).
    executor:
        ``None`` / ``"serial"`` (every batch runs inline, in the owner
        process), ``"process"`` (a fresh, engine-owned
        :class:`~repro.service.executor.ProcessExecutor`: long-lived worker
        processes reading shard snapshots from shared memory), or a
        pre-built ``ProcessExecutor`` (adopted, not owned — configure its
        ``scatter`` there).

    Examples
    --------
    >>> from repro import IntervalDataset
    >>> from repro.service import ShardedEngine
    >>> data = IntervalDataset.from_pairs([(0, 10), (5, 15), (20, 30), (25, 40)])
    >>> engine = ShardedEngine(data, num_shards=2)
    >>> engine.count_many([(4, 12), (18, 26)]).tolist()
    [2, 2]
    >>> new_id = engine.insert((8, 22))
    >>> engine.count((4, 12))
    3
    >>> engine.delete(new_id)
    True
    >>> engine.count((4, 12))
    2
    """

    def __init__(
        self,
        dataset: IntervalDataset,
        num_shards: int = 4,
        policy: str = "round_robin",
        weighted: Optional[bool] = None,
        executor=None,
    ) -> None:
        self._weighted = dataset.is_weighted if weighted is None else bool(weighted)
        parts = dataset.partition_indices(num_shards, policy)
        self._policy = policy
        self._executor, self._owns_executor = resolve_executor(executor)
        # Durability attachment (populated by save_snapshot / open).
        self._persist_dir: Optional[str] = None
        self._persist_epoch = 0
        self._wal_fsync: Optional[str] = None

        try:
            self._shards = [
                Shard(index, dataset, ids, self._weighted) for index, ids in enumerate(parts)
            ]
        except BaseException:
            # The executor is created before the shards; don't leak an
            # engine-owned process executor when a shard build fails.
            if self._owns_executor:
                self._executor.shutdown()
            raise

        owner = np.empty(len(dataset), dtype=_ID)
        for i, ids in enumerate(parts):
            owner[ids] = i
        # Global-id -> shard map as a bare int64 array (amortised growth on
        # insert): at the scale this layer targets a boxed-int container
        # would cost an order of magnitude more memory.
        self._owner = owner
        self._owner_count = len(dataset)
        self._next_global = len(dataset)
        self._deleted: set[int] = set()
        self._active = len(dataset)
        self._rr_cursor = len(dataset) % len(self._shards)
        if policy == "range":
            # Upper midpoint of each shard but the last: the routing fence for
            # future inserts (searchsorted keeps new intervals with their
            # nearest midpoint neighbours).
            midpoints = (dataset.lefts + dataset.rights) / 2.0
            self._range_bounds = np.array(
                [float(midpoints[ids].max()) for ids in parts[:-1]], dtype=_F8
            )
        else:
            self._range_bounds = None

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        """Number of shards (``K``)."""
        return len(self._shards)

    @property
    def is_weighted(self) -> bool:
        """True when shards use the weighted (AWIT) layout and sampling is weight-proportional."""
        return self._weighted

    @property
    def policy(self) -> str:
        """The partitioning policy this engine was built with."""
        return self._policy

    @property
    def executor_kind(self) -> str:
        """``"serial"`` (inline) or ``"process"``: where this engine's shard ops run.

        Exposed through :meth:`RequestGateway.stats` so deployments can tell
        which execution tier is live.
        """
        return "serial" if self._executor is None else self._executor.kind

    @property
    def scatter(self) -> Optional[str]:
        """The process executor's scatter strategy, or ``None`` when serial.

        ``"query"`` / ``"auto"`` for a
        :class:`~repro.service.executor.ProcessExecutor`; ``None`` when
        every batch runs inline.  Exposed through :meth:`RequestGateway.stats`.
        """
        return None if self._executor is None else self._executor.scatter

    @property
    def placements(self) -> Optional[dict[str, int]]:
        """Read batches per placement (``inline`` / ``query``).

        The :attr:`ProcessExecutor.placements
        <repro.service.executor.ProcessExecutor.placements>` counter, so an
        operator can see where reads ran; ``None`` without a process
        executor, when every batch runs in the owner process.  Exposed
        through :meth:`RequestGateway.stats`.
        """
        return None if self._executor is None else self._executor.placements

    @property
    def resends(self) -> int:
        """Messages the process executor resent to a respawned worker.

        The :attr:`ProcessExecutor.resends
        <repro.service.executor.ProcessExecutor.resends>` counter: the
        serving stack's only retries.  0 without a process executor.
        Exposed through :meth:`RequestGateway.stats`.
        """
        return 0 if self._executor is None else self._executor.resends

    @property
    def size(self) -> int:
        """Number of active intervals, including writes still in delta logs."""
        return self._active

    def __len__(self) -> int:
        return self._active

    @property
    def shards(self) -> tuple[Shard, ...]:
        """The shard objects, in partition order (read-only view)."""
        return tuple(self._shards)

    def shard_sizes(self) -> list[int]:
        """Active interval count per shard (snapshot view; pending writes excluded)."""
        return [shard.size for shard in self._shards]

    def versions(self) -> list[int]:
        """Current snapshot version of every shard."""
        return [shard.version for shard in self._shards]

    def pending_ops(self) -> int:
        """Total buffered writes not yet folded into shard snapshots."""
        return sum(shard.pending_ops for shard in self._shards)

    def shard_of(self, global_id: int) -> int:
        """Index of the shard owning ``global_id`` (deleted ids keep their owner)."""
        g = int(global_id)
        if g < 0 or g >= self._owner_count or self._owner[g] < 0:
            # Negative entries mark id-space gaps left by crash recovery
            # (ids lost to a torn WAL tail below a surviving shard's ids).
            raise KeyError(f"interval id {global_id} was never assigned")
        return int(self._owner[g])

    def _append_owners(self, owners: np.ndarray) -> None:
        """Record the owning shard of freshly assigned global ids (amortised growth)."""
        need = self._owner_count + int(owners.shape[0])
        if need > self._owner.shape[0]:
            grow = max(16, need - self._owner.shape[0], self._owner.shape[0] // 2)
            # -1 fill: entries beyond _owner_count are unreachable here, but
            # the recovery path can surface id gaps (see shard_of), so the
            # whole array keeps the invariant "unassigned slot == -1".
            self._owner = np.concatenate((self._owner, np.full(grow, -1, dtype=_ID)))
        self._owner[self._owner_count : need] = owners
        self._owner_count = need

    def nbytes(self) -> int:
        """Approximate memory footprint across all shards (columns, snapshots, overlays)."""
        return sum(shard.nbytes() for shard in self._shards)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "weighted " if self._weighted else ""
        return (
            f"ShardedEngine({self._active} {kind}intervals, "
            f"shards={self.num_shards}, policy={self._policy!r})"
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def refresh(self) -> list[int]:
        """Apply every buffered write and return the new per-shard versions.

        Called automatically at the start of every batch; exposed so callers
        can pay the refresh cost at a moment of their choosing (e.g. off the
        request path).  A shard whose refresh raises keeps its delta log, so
        the error surfaces here and the next refresh retries it.
        """
        for shard in self._shards:
            if shard.pending_ops:
                shard.refresh()
        return self.versions()

    def close(self) -> None:
        """Flush and close any write-ahead logs; shut down an owned executor.

        Graceful shutdown fsyncs each shard's WAL, so every buffered write —
        acknowledged or not — survives into the next :meth:`open`.
        Idempotent.
        """
        for shard in self._shards:
            if shard.wal is not None:
                shard.wal.close()
        if self._owns_executor:
            self._executor.shutdown()

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #
    @property
    def snapshot_dir(self) -> Optional[str]:
        """Directory this engine checkpoints to, or None when not attached."""
        return self._persist_dir

    @property
    def snapshot_epoch(self) -> int:
        """Epoch of the newest snapshot/WAL generation this engine is on."""
        return self._persist_epoch

    def save_snapshot(self, directory=None, fsync: bool = True, retain: int = 2) -> int:
        """Checkpoint the whole engine to ``directory``; return the new epoch.

        Folds every buffered write into fresh per-shard snapshot files,
        writes the engine state, rotates the write-ahead logs, and commits
        the epoch with an atomic manifest rename (see
        :mod:`repro.persist.durable`).  ``directory`` defaults to the
        directory the engine is already attached to.  ``retain`` older
        epochs are kept as fallbacks; the rest are garbage-collected.

        Like every engine method this is **not thread-safe**: when the
        engine is served through a running
        :class:`~repro.service.gateway.RequestGateway`, use
        :meth:`RequestGateway.checkpoint` instead, which executes the
        checkpoint on the dispatcher thread, serialised with the write path
        (a concurrent write could otherwise land in the outgoing epoch's WAL
        but miss the new snapshot, and be dropped by recovery).
        """
        from ..persist.durable import save_engine_snapshot

        return save_engine_snapshot(self, directory, fsync=fsync, retain=retain)

    @classmethod
    def open(
        cls,
        directory,
        mmap: bool = True,
        verify: bool = True,
        fsync: str = "batch",
        executor=None,
    ) -> "ShardedEngine":
        """Restore an engine from its newest valid snapshot epoch + WAL chain.

        ``mmap=True`` (default) maps the snapshot arrays read-only with lazy
        page-in — opening a million-interval engine costs a header parse,
        not a rebuild.  ``verify=True`` checks every array checksum.
        ``fsync`` is the durability policy for the write-ahead logs this
        engine will append to.  Recovered-but-unapplied WAL writes sit in
        the shards' delta logs and fold in at the first batch boundary.
        """
        from ..persist.durable import open_engine

        return open_engine(
            cls, directory, mmap=mmap, verify=verify, fsync=fsync, executor=executor
        )

    def sync_wal(self) -> None:
        """fsync every shard's write-ahead log that took appends since its last sync.

        Under the ``"batch"`` fsync policy this is the acknowledgement
        barrier: the gateway calls it once per micro-batch, after the write
        dispatch and before completing the write futures.  Clean logs are
        skipped (:meth:`repro.persist.DeltaLog.sync`), so a write to one
        shard costs one fsync, not ``K``.
        """
        for shard in self._shards:
            if shard.wal is not None:
                shard.wal.sync()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _scatter(self, op: str, payload: dict) -> list:
        """Run one named per-shard query op on every shard, in shard order.

        Both places run the same module-level op implementations
        (:data:`repro.service.shm.SHARD_OPS`) over ``ShardView``\\ s, so
        results are bit-identical regardless of where the work executes.
        Without a process executor the batch runs inline
        (:func:`~repro.service.shm.run_inline`); a :class:`ProcessExecutor`
        receives the live shards and places the batch itself — inline, or on
        its workers after republishing any shard whose snapshot version
        changed since its last publication.
        """
        if self._executor is None:
            return run_inline(self._shards, op, payload)
        return self._executor.run_shard_op(self._shards, op, payload)

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert(self, interval: Interval | tuple[float, float]) -> int:
        """Buffer the insertion of a new interval; return its global id.

        The write lands in the owning shard's delta log and becomes visible
        to the first batch that starts after it (the next snapshot refresh).
        Round-robin engines rotate ownership; range engines route by
        midpoint so the shard keyspace stays contiguous.  Thin wrapper over
        :meth:`insert_many`.
        """
        if isinstance(interval, Interval):
            left, right = interval.left, interval.right
        else:
            try:
                left, right = interval
                left, right = float(left), float(right)
            except (TypeError, ValueError) as exc:
                raise InvalidIntervalError(
                    f"insert expects an Interval or a (left, right) pair, got {interval!r}"
                ) from exc
        validate_endpoints(left, right)
        return int(self.insert_many([left], [right])[0])

    def insert_many(self, lefts, rights) -> np.ndarray:
        """Buffer a whole insertion batch; return the assigned global ids.

        Validation, shard routing and delta-log buffering are all
        vectorised: range engines bucket the batch by midpoint with one
        ``searchsorted``, round-robin engines deal the batch out cyclically,
        and each owning shard receives a single bulk delta-log entry that
        :meth:`Shard.refresh` later folds into the shard's overlay.

        Examples
        --------
        >>> from repro import IntervalDataset
        >>> from repro.service import ShardedEngine
        >>> data = IntervalDataset.from_pairs([(0, 10), (5, 15), (20, 30), (25, 40)])
        >>> engine = ShardedEngine(data, num_shards=2)
        >>> ids = engine.insert_many([8.0, 9.0], [22.0, 23.0])
        >>> ids.tolist()
        [4, 5]
        >>> engine.count((21, 21))
        3
        """
        if self._weighted:
            raise StructureStateError(
                "weighted engines are static: the AWIT does not support updates (Section IV-A)"
            )
        lefts_arr = np.ascontiguousarray(lefts, dtype=np.float64).reshape(-1)
        rights_arr = np.ascontiguousarray(rights, dtype=np.float64).reshape(-1)
        if lefts_arr.shape != rights_arr.shape:
            raise InvalidIntervalError(
                f"insert_many expects equally long columns, got {lefts_arr.shape[0]} "
                f"lefts and {rights_arr.shape[0]} rights"
            )
        count = int(lefts_arr.shape[0])
        bad = ~(np.isfinite(lefts_arr) & np.isfinite(rights_arr)) | (lefts_arr > rights_arr)
        if bad.any():
            first = int(np.flatnonzero(bad)[0])
            raise InvalidIntervalError(
                f"invalid interval [{lefts_arr[first]}, {rights_arr[first]}] "
                f"at position {first}"
            )
        if count == 0:
            return np.empty(0, dtype=_ID)

        if self._range_bounds is not None:
            midpoints = (lefts_arr + rights_arr) / 2.0
            owners = np.searchsorted(self._range_bounds, midpoints, side="left").astype(_ID)
        else:
            owners = (self._rr_cursor + np.arange(count, dtype=_ID)) % len(self._shards)
            self._rr_cursor = int((self._rr_cursor + count) % len(self._shards))
        global_ids = np.arange(self._next_global, self._next_global + count, dtype=_ID)
        self._next_global += count
        self._append_owners(owners)
        for shard_idx in np.unique(owners):
            members = owners == shard_idx
            self._shards[int(shard_idx)].buffer_insert_many(
                global_ids[members], lefts_arr[members], rights_arr[members]
            )
        self._active += count
        return global_ids

    def delete(self, global_id: int) -> bool:
        """Buffer the deletion of ``global_id``; return True when it was active.

        Like :meth:`insert`, the write is applied at the next snapshot
        refresh; double deletes and unknown ids return False immediately.
        Thin wrapper over :meth:`delete_many`.
        """
        return bool(self.delete_many([global_id])[0])

    def delete_many(self, global_ids) -> np.ndarray:
        """Buffer a whole deletion batch; return per-id success flags.

        Unknown ids, already-deleted ids and duplicates within the batch
        report False (after the first occurrence); accepted ids are grouped
        by owning shard and buffered as one bulk delta-log entry each.

        Examples
        --------
        >>> from repro import IntervalDataset
        >>> from repro.service import ShardedEngine
        >>> data = IntervalDataset.from_pairs([(0, 10), (5, 15), (20, 30), (25, 40)])
        >>> engine = ShardedEngine(data, num_shards=2)
        >>> engine.delete_many([3, 3, 99]).tolist()
        [True, False, False]
        >>> engine.size
        3
        """
        if self._weighted:
            raise StructureStateError(
                "weighted engines are static: the AWIT does not support updates (Section IV-A)"
            )
        try:
            requested = list(global_ids)
        except TypeError:
            requested = [global_ids]
        results = np.zeros(len(requested), dtype=bool)
        accepted: list[int] = []
        for position, raw in enumerate(requested):
            try:
                g = int(raw)
            except (TypeError, ValueError):
                continue
            if g < 0 or g >= self._owner_count or g in self._deleted:
                continue
            if self._owner[g] < 0:
                continue  # recovery id gap (torn WAL tail): id never existed here
            self._deleted.add(g)
            accepted.append(g)
            results[position] = True
        if accepted:
            accepted_arr = np.asarray(accepted, dtype=_ID)
            owners = self._owner[accepted_arr]
            for shard_idx in np.unique(owners):
                self._shards[int(shard_idx)].buffer_delete_many(
                    accepted_arr[owners == shard_idx]
                )
            self._active -= len(accepted)
        return results

    # ------------------------------------------------------------------ #
    # batch queries (scatter-gather)
    # ------------------------------------------------------------------ #
    def count_many(self, queries) -> np.ndarray:
        """``|q ∩ X|`` per query: per-shard flat counts, merged by summation."""
        ql, qr = FlatAIT.coerce_queries(queries)
        self.refresh()
        rows = self._scatter("count", {"ql": ql, "qr": qr})
        return np.sum(rows, axis=0, dtype=_ID) if rows else np.zeros(ql.shape[0], dtype=_ID)

    def total_weight_many(self, queries) -> np.ndarray:
        """Total weight of ``q ∩ X`` per query (counts for unweighted engines)."""
        ql, qr = FlatAIT.coerce_queries(queries)
        self.refresh()
        rows = self._scatter("total_weight", {"ql": ql, "qr": qr})
        return np.sum(rows, axis=0, dtype=_F8) if rows else np.zeros(ql.shape[0], dtype=_F8)

    def report_many(self, queries) -> list[np.ndarray]:
        """Overlapping global ids per query, shard-major (per-shard traversal order)."""
        ql, qr = FlatAIT.coerce_queries(queries)
        self.refresh()
        per_shard = self._scatter("report", {"ql": ql, "qr": qr})
        nq = int(ql.shape[0])
        if nq == 0:
            return []
        return [
            np.concatenate([chunks[i] for chunks in per_shard]) for i in range(nq)
        ]

    def sample_many(
        self,
        queries,
        sample_size: int,
        random_state: RandomState = None,
        on_empty: str = "empty",
    ) -> list[np.ndarray]:
        """Draw ``sample_size`` i.i.d. samples per query across all shards.

        Every draw is one uniform from ``random_state``, scaled to a rank
        over the query's whole overlap (:func:`~repro.core.flat.draw_ranks`:
        an integer position for counts, a point in the total weight for
        weighted engines).  Ranks order the overlap shard by shard, so the
        shard whose cumulative mass range holds a rank answers that draw, at
        the rank minus the range start (:func:`repro.service.shm._op_sample`,
        over base and overlay).  A uniform rank is a uniform (weight-
        proportional) draw, so every cell is exactly ``1/|q ∩ X|``
        (``w(x)/W`` when weighted) and independent of the others — see
        ``docs/ARCHITECTURE.md``.
        """
        if on_empty not in ("empty", "raise"):
            raise ValueError(f"on_empty must be 'empty' or 'raise', got {on_empty!r}")
        sample_size = validate_sample_size(sample_size)
        ql, qr = FlatAIT.coerce_queries(queries)
        self.refresh()
        rng = resolve_rng(random_state)
        nq = int(ql.shape[0])

        op = "total_weight" if self._weighted else "count"
        mass = np.stack(self._scatter(op, {"ql": ql, "qr": qr}), axis=1)
        if self._weighted:
            # A shard whose overlap weighs nothing can come out a rounding
            # error below zero; it owns no rank.
            np.maximum(mass, 0.0, out=mass)
        # Per-query cumulative shard masses (queries x shards + 1).
        cum = np.zeros((nq, mass.shape[1] + 1), dtype=mass.dtype)
        np.cumsum(mass, axis=1, out=cum[:, 1:])
        answerable = cum[:, -1] > 0
        if on_empty == "raise" and not answerable.all():
            bad = int(np.flatnonzero(~answerable)[0])
            raise EmptyResultError(f"query [{ql[bad]}, {qr[bad]}] matched no intervals")

        empty = np.empty(0, dtype=_ID)
        if sample_size == 0 or not answerable.any():
            return [empty.copy() for _ in range(nq)]

        live = np.flatnonzero(answerable)
        cum = cum[live]
        ranks = draw_ranks(rng.random((live.shape[0], sample_size)), cum[:, -1])
        seeds = rng.integers(0, 2**63 - 1, size=live.shape[0], dtype=_ID)
        payload = {"ql": ql[live], "qr": qr[live], "ranks": ranks, "cum": cum, "seeds": seeds}
        merged = np.empty(ranks.shape, dtype=_ID)
        for k, ids in enumerate(self._scatter("sample", payload)):
            merged[(ranks >= cum[:, k, None]) & (ranks < cum[:, k + 1, None])] = ids

        out: list[np.ndarray] = [empty] * nq
        for row, query_index in enumerate(live):
            out[int(query_index)] = merged[row]
        return out

    # ------------------------------------------------------------------ #
    # scalar convenience wrappers
    # ------------------------------------------------------------------ #
    def count(self, query: QueryLike) -> int:
        """``|q ∩ X|`` for a single query."""
        return int(self.count_many([query])[0])

    def total_weight(self, query: QueryLike) -> float:
        """Total weight of ``q ∩ X`` for a single query."""
        return float(self.total_weight_many([query])[0])

    def report(self, query: QueryLike) -> np.ndarray:
        """Global ids of the intervals overlapping a single query."""
        return self.report_many([query])[0]

    def sample(
        self,
        query: QueryLike,
        sample_size: int,
        random_state: RandomState = None,
        on_empty: str = "empty",
    ) -> np.ndarray:
        """Draw ``sample_size`` i.i.d. samples from a single query's result set."""
        return self.sample_many([query], sample_size, random_state, on_empty)[0]
