"""AIT — the Augmented Interval Tree (Section III of the paper).

The AIT augments Edelsbrunner's interval tree so that, for any query interval
``q``, the set of intervals overlapping ``q`` can be described by ``O(log n)``
*node records* — contiguous runs of per-node sorted lists — computed with at
most one binary search per visited node.  Independent range sampling then
reduces to (i) building a Walker alias table over the record sizes and
(ii) drawing a uniform position inside the chosen record, giving
``O(log^2 n + s)`` query time overall (Theorem 2) while preserving the exact
``1 / |q ∩ X|`` per-draw probability (Theorem 3).

The same record collection yields ``|q ∩ X|`` for free, so the AIT also
answers range counting in ``O(log^2 n)`` (Corollary 1) and range reporting in
``O(log^2 n + |q ∩ X|)``.

Updates (Section III-D) — one-by-one insertion, pooled batch insertion and
deletion — are implemented in :mod:`repro.core.updates` and exposed here as
thin methods.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np

from ..sampling.alias import AliasTable
from ..sampling.cumulative import range_weight
from ..sampling.rng import RandomState, resolve_rng
from .base import OnEmpty, SamplingIndex
from .dataset import IntervalDataset
from .flat import FlatAIT
from .interval import Interval
from .node import AITNode
from .query import QueryLike
from .records import ListKind, NodeRecord

__all__ = ["AIT"]


class AIT(SamplingIndex):
    """Augmented interval tree supporting O(log^2 n + s) independent range sampling.

    Parameters
    ----------
    dataset:
        The intervals to index.  The dataset is not modified; the tree keeps
        its own growable copies of the endpoint (and weight) columns so that
        updates do not mutate the caller's data.
    weighted:
        When True the node lists additionally carry cumulative weight arrays
        (this is how :class:`~repro.core.awit.AWIT` is realised).  The plain
        AIT leaves them out and samples uniformly.
    batch_pool_size:
        Capacity of the pooled-insertion buffer.  ``None`` (default) uses the
        paper's ``O(log^2 n)`` rule.
    build_backend:
        How full :class:`~repro.core.flat.FlatAIT` snapshots are built and
        when the Python node tree is materialised.  ``"columnar"`` (default)
        defers the node tree: construction only copies the endpoint columns,
        and the first snapshot is built *treelessly* by
        :meth:`FlatAIT.from_arrays` — the node tree is materialised lazily
        the first time a tree-dependent API (scalar record collection,
        updates, structural introspection) needs it, producing exactly the
        structure an eager build would have.  ``"tree"`` keeps the legacy
        eager build: nodes are materialised in the constructor and snapshots
        always serialise them via :meth:`FlatAIT.from_tree` (the equivalence
        oracle for the columnar path).

    Examples
    --------
    >>> from repro import AIT, IntervalDataset
    >>> data = IntervalDataset.from_pairs([(0, 10), (5, 15), (20, 30)])
    >>> tree = AIT(data)
    >>> tree.count((4, 12))
    2
    >>> sorted(tree.report((4, 12)).tolist())
    [0, 1]
    >>> len(tree.sample((4, 12), 5, random_state=0))
    5
    """

    def __init__(
        self,
        dataset: IntervalDataset,
        weighted: bool = False,
        batch_pool_size: Optional[int] = None,
        build_backend: str = "columnar",
    ) -> None:
        super().__init__(dataset)
        if build_backend not in ("tree", "columnar"):
            raise ValueError(
                f"build_backend must be 'tree' or 'columnar', got {build_backend!r}"
            )
        self._build_backend = build_backend
        self._tree_deferred = False
        self._built_version = 0
        # Columnar storage with amortised capacity-doubling growth: the
        # capacity arrays (`_col_*`) may be longer than the logical column
        # length (`_col_len`); `_lefts` / `_rights` / `_weights` expose the
        # logical prefix as views.  Deleted ids park in `_free_slots` and are
        # recycled by later insertions, so churn workloads do not leak
        # columns.
        self._col_lefts = dataset.lefts.copy()
        self._col_rights = dataset.rights.copy()
        self._col_weights = dataset.weights.copy()
        self._col_len = len(dataset)
        self._free_slots: list[int] = []
        self._weighted = bool(weighted)
        self._deleted: set[int] = set()
        self._active_count = len(dataset)
        self._pool: list[int] = []
        self._pool_epoch = 0
        self._explicit_pool_size = batch_pool_size
        self._root: Optional[AITNode] = None
        self._height = 0
        self._rebuild_count = 0
        self._structure_version = 0
        self._flat: Optional["FlatAIT"] = None
        self._flat_version = -1
        self._rebuild()

    # ------------------------------------------------------------------ #
    # columnar storage
    # ------------------------------------------------------------------ #
    @property
    def _lefts(self) -> np.ndarray:
        """Logical left-endpoint column (view of the capacity buffer)."""
        return self._col_lefts[: self._col_len]

    @property
    def _rights(self) -> np.ndarray:
        """Logical right-endpoint column (view of the capacity buffer)."""
        return self._col_rights[: self._col_len]

    @property
    def _weights(self) -> np.ndarray:
        """Logical weight column (view of the capacity buffer)."""
        return self._col_weights[: self._col_len]

    def _ensure_column_capacity(self, extra: int) -> None:
        """Grow the capacity buffers so ``extra`` more rows fit (amortised O(1))."""
        need = self._col_len + int(extra)
        capacity = int(self._col_lefts.shape[0])
        if need <= capacity:
            return
        new_capacity = max(need, 2 * capacity, 16)
        for name in ("_col_lefts", "_col_rights", "_col_weights"):
            old = getattr(self, name)
            grown = np.empty(new_capacity, dtype=old.dtype)
            grown[: self._col_len] = old[: self._col_len]
            setattr(self, name, grown)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _rebuild(self) -> None:
        """(Re)build the tree from the currently active intervals.

        With the ``"columnar"`` backend the node tree is *not* materialised
        here: the rebuild is recorded logically (version counters) and
        :meth:`_ensure_tree` constructs the identical node graph on first
        use, while snapshots build straight from the endpoint columns via
        :meth:`FlatAIT.from_arrays`.
        """
        # Drop the cached snapshot now so it does not outlive its structure.
        self._flat = None
        self._flat_version = -1
        self._structure_version += 1
        self._built_version = self._structure_version
        self._root = None
        self._height = 0
        self._tree_deferred = False
        # The batch pool is always empty when a rebuild runs (every caller
        # drains it first), so the active set is "all non-deleted rows".
        if self._col_len - len(self._deleted) == 0:
            return
        self._rebuild_count += 1
        if self._build_backend == "columnar":
            self._tree_deferred = True
            return
        self._materialise_tree()

    def _indexed_ids(self) -> np.ndarray:
        """Ids the tree indexes: active rows minus the batch-insertion pool."""
        n = int(self._col_len)
        mask = np.ones(n, dtype=bool)
        if self._deleted:
            mask[np.fromiter(self._deleted, dtype=np.int64, count=len(self._deleted))] = (
                False
            )
        if self._pool:
            mask[np.asarray(self._pool, dtype=np.int64)] = False
        return np.flatnonzero(mask).astype(np.int64, copy=False)

    def _materialise_tree(self) -> None:
        """Build the node graph over the currently indexed intervals."""
        active = self._indexed_ids()
        if active.shape[0] == 0:
            self._root = None
            self._height = 0
            return
        ids_by_left = active[np.argsort(self._lefts[active], kind="stable")]
        ids_by_right = active[np.argsort(self._rights[active], kind="stable")]
        self._root, self._height = self._build_node(ids_by_left, ids_by_right, depth=1)

    def _ensure_tree(self) -> None:
        """Materialise a deferred node tree (columnar backend), exactly once.

        The materialised graph is identical to what an eager build would
        have produced — same active set, same build algorithm.
        """
        if not self._tree_deferred:
            return
        self._tree_deferred = False
        self._materialise_tree()

    def _build_node(
        self, ids_by_left: np.ndarray, ids_by_right: np.ndarray, depth: int
    ) -> tuple[AITNode, int]:
        """Recursively build the subtree for the given (pre-sorted) interval ids."""
        lefts_sorted = self._lefts[ids_by_left]
        rights_for_left_order = self._rights[ids_by_left]
        rights_sorted = self._rights[ids_by_right]
        lefts_for_right_order = self._lefts[ids_by_right]

        endpoints = np.concatenate((lefts_sorted, rights_sorted))
        center = float(np.median(endpoints))

        node = AITNode(center)
        node.subtree_ids_by_left = ids_by_left
        node.subtree_lefts = lefts_sorted
        node.subtree_ids_by_right = ids_by_right
        node.subtree_rights = rights_sorted

        # Classification relative to the center, in both sort orders so the
        # children inherit already-sorted id arrays (no per-node re-sorting).
        stab_mask_l = (lefts_sorted <= center) & (rights_for_left_order >= center)
        left_mask_l = rights_for_left_order < center
        right_mask_l = lefts_sorted > center

        stab_mask_r = (lefts_for_right_order <= center) & (rights_sorted >= center)
        left_mask_r = rights_sorted < center
        right_mask_r = lefts_for_right_order > center

        node.stab_ids_by_left = ids_by_left[stab_mask_l]
        node.stab_lefts = lefts_sorted[stab_mask_l]
        node.stab_ids_by_right = ids_by_right[stab_mask_r]
        node.stab_rights = rights_sorted[stab_mask_r]

        if self._weighted:
            node.stab_weight_by_left = np.cumsum(self._weights[node.stab_ids_by_left])
            node.stab_weight_by_right = np.cumsum(self._weights[node.stab_ids_by_right])
            node.subtree_weight_by_left = np.cumsum(self._weights[node.subtree_ids_by_left])
            node.subtree_weight_by_right = np.cumsum(self._weights[node.subtree_ids_by_right])

        height = depth
        left_ids_l = ids_by_left[left_mask_l]
        if left_ids_l.shape[0]:
            node.left, child_height = self._build_node(
                left_ids_l, ids_by_right[left_mask_r], depth + 1
            )
            height = max(height, child_height)
        right_ids_l = ids_by_left[right_mask_l]
        if right_ids_l.shape[0]:
            node.right, child_height = self._build_node(
                right_ids_l, ids_by_right[right_mask_r], depth + 1
            )
            height = max(height, child_height)
        return node, height

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def root(self) -> Optional[AITNode]:
        """Root node of the tree (None when every interval was deleted).

        Materialises a deferred (columnar-backend) node tree on access.
        """
        self._ensure_tree()
        return self._root

    @property
    def height(self) -> int:
        """Current height of the tree (number of levels).

        Materialises a deferred (columnar-backend) node tree on access.
        """
        self._ensure_tree()
        return self._height

    @property
    def build_backend(self) -> str:
        """The full-build route this tree was configured with ('tree' | 'columnar')."""
        return self._build_backend

    @property
    def tree_materialised(self) -> bool:
        """False while the columnar backend is still deferring node construction."""
        return not self._tree_deferred

    @property
    def size(self) -> int:
        """Number of currently active (non-deleted) intervals, including pooled ones."""
        return self._active_count

    @property
    def is_weighted(self) -> bool:
        """True when the tree carries cumulative weight arrays (AWIT)."""
        return self._weighted

    @property
    def rebuild_count(self) -> int:
        """How many times the tree has been (re)built, including the initial build."""
        return self._rebuild_count

    @property
    def structure_version(self) -> int:
        """Monotone counter bumped on every structural change of the tree.

        Rebuilds, immediate insertions, pool flushes and deletions of indexed
        intervals all advance the version.  Operations confined to the
        batch-insertion pool do not: a pooled insertion, or a deletion that
        removes a still-pooled interval, changes the active set without
        touching the tree.  Snapshot consumers such as :meth:`flat` compare
        this counter against the version they serialised to decide whether a
        cached snapshot is still valid; they exclude the pool (the query
        wrappers merge it separately), so pool-only changes need no
        re-snapshot.  Consumers that additionally cache pool-derived state
        must also watch :attr:`pool_epoch`, which *does* advance on
        pool-membership changes.

        Examples
        --------
        >>> from repro import AIT, IntervalDataset
        >>> tree = AIT(IntervalDataset.from_pairs([(0, 1), (2, 3)]))
        >>> before = tree.structure_version
        >>> _ = tree.insert((4, 5), immediate=True)
        >>> tree.structure_version > before
        True
        """
        return self._structure_version

    @property
    def pool_epoch(self) -> int:
        """Monotone counter bumped on every batch-pool membership change.

        Pooled insertions, deletions of still-pooled intervals, and pool
        flushes all advance it.  Together with :attr:`structure_version` it
        fully captures every visible-state change: a consumer that caches a
        flat snapshot *plus* pool-derived state (the pattern the query
        wrappers use internally) is stale exactly when either counter moved.
        Without it, a deletion of a still-pooled interval is invisible to
        version checks — the pool shrinks but ``structure_version`` stays
        put by design.

        Examples
        --------
        >>> from repro import AIT, IntervalDataset
        >>> tree = AIT(IntervalDataset.from_pairs([(0, 1), (2, 3)]))
        >>> pooled = tree.insert((4, 5))            # pooled: epoch moves,
        >>> structure = tree.structure_version      # structure version not
        >>> epoch = tree.pool_epoch
        >>> tree.delete(pooled)                     # pooled delete: same
        True
        >>> (tree.structure_version, tree.pool_epoch) == (structure, epoch)
        False
        >>> tree.structure_version == structure
        True
        """
        return self._pool_epoch

    @property
    def column_capacity(self) -> int:
        """Allocated rows in the columnar buffers (>= logical length)."""
        return int(self._col_lefts.shape[0])

    @property
    def free_slot_count(self) -> int:
        """Vacated column slots awaiting recycling by future insertions."""
        return len(self._free_slots)

    @property
    def pending_pool_size(self) -> int:
        """Number of intervals waiting in the batch-insertion pool."""
        return len(self._pool)

    @property
    def batch_pool_capacity(self) -> int:
        """Capacity of the batch-insertion pool (the paper's ``O(log^2 n)`` rule)."""
        if self._explicit_pool_size is not None:
            return max(1, int(self._explicit_pool_size))
        n = max(2, self._active_count)
        return max(16, int(math.ceil(math.log2(n)) ** 2))

    def interval(self, interval_id: int) -> Interval:
        """Materialise the interval with the given id from the tree's own columns."""
        i = int(interval_id)
        if i < 0 or i >= self._lefts.shape[0] or i in self._deleted:
            raise KeyError(f"interval id {interval_id} is not active in this tree")
        return Interval(float(self._lefts[i]), float(self._rights[i]), float(self._weights[i]))

    def iter_nodes(self) -> Iterator[AITNode]:
        """Depth-first iteration over every node of the tree.

        Materialises a deferred (columnar-backend) node tree on first use.
        """
        self._ensure_tree()
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            yield node
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)

    def node_count(self) -> int:
        """Number of nodes in the tree."""
        return sum(1 for _ in self.iter_nodes())

    def memory_bytes(
        self, include_capacity: bool = True, materialise: bool = True
    ) -> int:
        """Approximate memory footprint of the tree structure in bytes.

        Parameters
        ----------
        include_capacity:
            Count the full capacity of the growable columnar buffers (what
            the process actually holds; default) rather than only the live
            row prefix.  The difference is exactly
            ``(column_capacity - len(columns)) * 24`` bytes — three float64
            columns of slack.
        materialise:
            Materialise a deferred (columnar-backend) node tree before
            measuring, so the reported figure covers the complete structure
            an eager build would hold (default).  Pass ``False`` to measure
            only what currently exists, without forcing a deferred node
            graph into being just to size it.

        Flat snapshots are measured separately via
        :meth:`FlatAIT.nbytes`, which counts every array a snapshot holds.
        """
        if materialise:
            self._ensure_tree()
        total = 0
        if not self._tree_deferred:
            # iter_nodes' own _ensure_tree is a no-op here, so this never
            # forces a deferred tree.
            total += sum(node.nbytes() for node in self.iter_nodes())
        if include_capacity:
            total += int(
                self._col_lefts.nbytes + self._col_rights.nbytes + self._col_weights.nbytes
            )
        else:
            total += int(self._lefts.nbytes + self._rights.nbytes + self._weights.nbytes)
        return total

    # ------------------------------------------------------------------ #
    # record collection (the candidate-computation phase of Algorithm 1)
    # ------------------------------------------------------------------ #
    def collect_records(self, query: QueryLike) -> list[NodeRecord]:
        """Collect the node records describing ``q ∩ X`` (pooled inserts excluded).

        This is the first phase of Algorithm 1: a root-to-leaf walk that, per
        visited node, runs at most one binary search and appends at most one
        record — except for the single *case 3* node (query straddles the
        node's center), which contributes up to three records and terminates
        the walk.
        """
        query_left, query_right = self._coerce(query)
        self._ensure_tree()
        records: list[NodeRecord] = []
        node = self._root
        while node is not None:
            if query_right < node.center:
                # Case 1: every stab interval whose left endpoint is <= q.r overlaps q.
                hi = int(np.searchsorted(node.stab_lefts, query_right, side="right")) - 1
                if hi >= 0:
                    records.append(self._make_record(node, ListKind.STAB_BY_LEFT, 0, hi))
                node = node.left
            elif node.center < query_left:
                # Case 2: every stab interval whose right endpoint is >= q.l overlaps q.
                lo = int(np.searchsorted(node.stab_rights, query_left, side="left"))
                if lo < node.stab_rights.shape[0]:
                    records.append(
                        self._make_record(
                            node, ListKind.STAB_BY_RIGHT, lo, node.stab_rights.shape[0] - 1
                        )
                    )
                node = node.right
            else:
                # Case 3: q straddles the center; all stab intervals overlap q and the
                # children's subtree lists finish the job.  At most one node ever
                # reaches this branch (it ends the traversal).
                if node.stab_count:
                    records.append(
                        self._make_record(node, ListKind.STAB_BY_LEFT, 0, node.stab_count - 1)
                    )
                if node.left is not None:
                    child = node.left
                    lo = int(np.searchsorted(child.subtree_rights, query_left, side="left"))
                    if lo < child.subtree_rights.shape[0]:
                        records.append(
                            self._make_record(
                                child,
                                ListKind.SUBTREE_BY_RIGHT,
                                lo,
                                child.subtree_rights.shape[0] - 1,
                            )
                        )
                if node.right is not None:
                    child = node.right
                    hi = int(np.searchsorted(child.subtree_lefts, query_right, side="right")) - 1
                    if hi >= 0:
                        records.append(
                            self._make_record(child, ListKind.SUBTREE_BY_LEFT, 0, hi)
                        )
                break
        return records

    def _make_record(self, node: AITNode, kind: ListKind, lo: int, hi: int) -> NodeRecord:
        if self._weighted:
            weight = range_weight(node.list_weight_prefix(kind), lo, hi)
        else:
            weight = float(hi - lo + 1)
        return NodeRecord(node, kind, lo, hi, weight)

    def _pool_match_ids(self, query_left: float, query_right: float) -> np.ndarray:
        """Ids of pooled (not yet indexed) intervals overlapping the query."""
        if not self._pool:
            return np.empty(0, dtype=np.int64)
        ids = np.asarray(self._pool, dtype=np.int64)
        mask = (self._lefts[ids] <= query_right) & (query_left <= self._rights[ids])
        return ids[mask]

    # ------------------------------------------------------------------ #
    # counting / reporting
    # ------------------------------------------------------------------ #
    def count(self, query: QueryLike) -> int:
        """Exact ``|q ∩ X|`` in O(log^2 n) time (Corollary 1)."""
        query_left, query_right = self._coerce(query)
        records = self.collect_records((query_left, query_right))
        total = sum(rec.count for rec in records)
        total += int(self._pool_match_ids(query_left, query_right).shape[0])
        return total

    def report(self, query: QueryLike) -> np.ndarray:
        """Ids of all intervals overlapping ``query`` (range reporting)."""
        query_left, query_right = self._coerce(query)
        records = self.collect_records((query_left, query_right))
        chunks = [rec.interval_ids() for rec in records]
        pool_ids = self._pool_match_ids(query_left, query_right)
        if pool_ids.shape[0]:
            chunks.append(pool_ids)
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks).astype(np.int64, copy=False)

    def report_intervals(self, query: QueryLike) -> list[Interval]:
        """Overlapping intervals as :class:`Interval` objects."""
        return [self.interval(int(i)) for i in self.report(query)]

    # ------------------------------------------------------------------ #
    # flat engine + batch queries
    # ------------------------------------------------------------------ #
    def flat(self) -> FlatAIT:
        """The flat (structure-of-arrays) engine for the current tree.

        The snapshot is cached and refreshed lazily whenever the tree
        structure changes (rebuilds, immediate inserts, pool flushes,
        deletions).  Pooled-but-unflushed inserts do not invalidate it — the
        batch query wrappers scan the pool separately, like the scalar path
        does.

        Every refresh is a full rebuild.  It routes through the *treeless
        columnar builder* (:meth:`FlatAIT.from_arrays`) whenever the
        configured ``build_backend`` is ``"columnar"`` and the tree is
        *pristine* — no structural mutation since the last logical rebuild —
        in which case the node tree (possibly still deferred) is guaranteed
        to equal a fresh build over the current columns and the two builders
        produce bit-identical arrays.  Once scalar updates have reshaped the
        tree, it serialises the actual node graph with
        :meth:`FlatAIT.from_tree`.
        """
        if self._flat is None or self._flat_version != self._structure_version:
            if (
                self._build_backend == "columnar"
                and self._structure_version == self._built_version
            ):
                active = self._indexed_ids()
                self._flat = FlatAIT.from_arrays(
                    self._lefts[active],
                    self._rights[active],
                    ids=active,
                    weights=self._weights[active] if self._weighted else None,
                )
            else:
                self._ensure_tree()
                self._flat = FlatAIT.from_tree(self)
            self._flat_version = self._structure_version
        return self._flat

    def _pool_match_mask(self, ql: np.ndarray, qr: np.ndarray) -> Optional[np.ndarray]:
        """Boolean (queries x pooled ids) overlap matrix, or None when no pool."""
        if not self._pool:
            return None
        ids = np.asarray(self._pool, dtype=np.int64)
        return (self._lefts[ids][None, :] <= qr[:, None]) & (
            ql[:, None] <= self._rights[ids][None, :]
        )

    def count_many(self, queries) -> np.ndarray:
        """Vectorised :meth:`count` for a batch of queries.

        Accepts an ``(n, 2)`` array or any sequence of query-likes; returns
        an ``int64`` array of ``|q ∩ X|`` per query.  Results are exactly
        equal to calling :meth:`count` per query, including pooled inserts.
        """
        ql, qr = FlatAIT.coerce_queries(queries)
        counts = self.flat()._count_many(ql, qr)
        pool_mask = self._pool_match_mask(ql, qr)
        if pool_mask is not None:
            counts = counts + pool_mask.sum(axis=1)
        return counts

    def report_many(self, queries) -> list[np.ndarray]:
        """Vectorised :meth:`report` for a batch of queries.

        Returns one id array per query, in the same order :meth:`report`
        produces (records in traversal order, then pooled matches).
        """
        ql, qr = FlatAIT.coerce_queries(queries)
        reported = self.flat()._report_many(ql, qr)
        pool_mask = self._pool_match_mask(ql, qr)
        if pool_mask is not None:
            ids = np.asarray(self._pool, dtype=np.int64)
            reported = [
                np.concatenate((chunk, ids[pool_mask[i]])) if pool_mask[i].any() else chunk
                for i, chunk in enumerate(reported)
            ]
        return reported

    def sample_many(
        self,
        queries,
        sample_size: int,
        random_state: RandomState = None,
        on_empty: OnEmpty = "empty",
    ) -> list[np.ndarray]:
        """Vectorised :meth:`sample` for a batch of queries.

        Each query draws ``sample_size`` ids independently with the same
        per-draw distribution as :meth:`sample` (``1/|q ∩ X|``, or ``w(x)/W``
        for weighted trees).  While the batch-insertion pool is non-empty the
        call falls back to the scalar path per query (the pool is transient
        by construction); once flushed, the whole batch runs vectorised on
        the flat engine.
        """
        if on_empty not in ("empty", "raise"):
            raise ValueError(f"on_empty must be 'empty' or 'raise', got {on_empty!r}")
        ql, qr = FlatAIT.coerce_queries(queries)
        if self._pool:
            rng = resolve_rng(random_state)
            return [
                self.sample((left, right), sample_size, random_state=rng, on_empty=on_empty)
                for left, right in zip(ql.tolist(), qr.tolist())
            ]
        return self.flat()._sample_many(ql, qr, sample_size, random_state, on_empty)

    # ------------------------------------------------------------------ #
    # independent range sampling (second phase of Algorithm 1)
    # ------------------------------------------------------------------ #
    def sample(
        self,
        query: QueryLike,
        sample_size: int,
        random_state: RandomState = None,
        on_empty: OnEmpty = "empty",
    ) -> np.ndarray:
        """Draw ``sample_size`` interval ids uniformly and independently from ``q ∩ X``."""
        query_pair = self._coerce(query)
        sample_size = self._validate_sample_size(sample_size)
        records = self.collect_records(query_pair)
        pool_ids = self._pool_match_ids(*query_pair)
        return self._sample_from_records(
            records, pool_ids, sample_size, resolve_rng(random_state), on_empty, query_pair
        )

    def _sample_from_records(
        self,
        records: Sequence[NodeRecord],
        pool_ids: np.ndarray,
        sample_size: int,
        rng: np.random.Generator,
        on_empty: OnEmpty,
        query_pair: tuple[float, float],
    ) -> np.ndarray:
        weights = [rec.weight for rec in records]
        if pool_ids.shape[0]:
            pool_weight = (
                float(self._weights[pool_ids].sum()) if self._weighted else float(pool_ids.shape[0])
            )
            weights.append(pool_weight)
        if not weights or sum(weights) <= 0:
            empty = self._handle_empty(sample_size, on_empty, query_pair)
            return empty
        if sample_size == 0:
            return np.empty(0, dtype=np.int64)

        if len(records) == 1 and not pool_ids.shape[0]:
            # Single-record fast path: every draw lands in the one record, so
            # the alias table over record weights is pure overhead.
            return self._draw_within_record(records[0], sample_size, rng)

        alias = AliasTable(weights)
        choices = alias.sample_many(sample_size, rng)
        result = np.empty(sample_size, dtype=np.int64)
        for index, record in enumerate(records):
            mask = choices == index
            hits = int(mask.sum())
            if hits == 0:
                continue
            result[mask] = self._draw_within_record(record, hits, rng)
        if pool_ids.shape[0]:
            mask = choices == len(records)
            hits = int(mask.sum())
            if hits:
                result[mask] = self._draw_from_pool(pool_ids, hits, rng)
        return result

    def _draw_within_record(
        self, record: NodeRecord, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Positions inside the record, mapped to interval ids.

        Unweighted trees draw positions uniformly (O(1) per draw); weighted
        trees draw proportionally to interval weight via a binary search on
        the node's cumulative weight array (O(log n) per draw), which is the
        cumulative-sum method of Section II-C applied to a precomputed prefix.
        """
        if not self._weighted:
            offsets = rng.integers(record.lo, record.hi + 1, size=count)
            return record.node.list_ids(record.kind)[offsets].astype(np.int64, copy=False)
        prefix = record.node.list_weight_prefix(record.kind)
        before = float(prefix[record.lo - 1]) if record.lo > 0 else 0.0
        total = float(prefix[record.hi]) - before
        thresholds = before + rng.random(count) * total
        window = prefix[record.lo : record.hi + 1]
        offsets = np.searchsorted(window, thresholds, side="left") + record.lo
        offsets = np.minimum(offsets, record.hi)
        return record.node.list_ids(record.kind)[offsets].astype(np.int64, copy=False)

    def _draw_from_pool(
        self, pool_ids: np.ndarray, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        positions = rng.integers(0, pool_ids.shape[0], size=count)
        return pool_ids[positions]

    def sample_intervals(
        self,
        query: QueryLike,
        sample_size: int,
        random_state: RandomState = None,
        on_empty: OnEmpty = "empty",
    ) -> list[Interval]:
        """Like :meth:`sample` but returns :class:`Interval` objects."""
        ids = self.sample(query, sample_size, random_state=random_state, on_empty=on_empty)
        return [self.interval(int(i)) for i in ids]

    # ------------------------------------------------------------------ #
    # updates (Section III-D) — implemented in repro.core.updates
    # ------------------------------------------------------------------ #
    def insert(self, interval: Interval | tuple[float, float], immediate: bool = False) -> int:
        """Insert a new interval and return its id.

        By default the interval joins the batch-insertion pool and is merged
        into the tree once the pool reaches its ``O(log^2 n)`` capacity;
        queries issued in the meantime still see it (the pool is scanned,
        which is the paper's amortisation strategy).  Pass ``immediate=True``
        for the one-by-one insertion path.

        On weighted trees (:class:`~repro.core.awit.AWIT`) the scalar call is
        routed through the bulk :meth:`insert_many` path, which maintains
        the positional weight-prefix arrays by wholesale recomputation per
        touched list — the paper's Section IV-A restriction only rules out
        *positional patching*, not the bulk route, so the scalar API works
        on both engines.  ``immediate`` is ignored there (the bulk path
        always merges at once).  Pass an :class:`Interval` carrying a weight
        to insert a weighted interval; bare pairs get weight 1.
        """
        from .updates import _coerce_new_interval, insert_immediate, insert_pooled

        if self._weighted:
            left, right, weight = _coerce_new_interval(interval)
            return int(self.insert_many([left], [right], weights=[weight])[0])
        if immediate:
            return insert_immediate(self, interval)
        return insert_pooled(self, interval)

    def insert_many(self, lefts, rights, weights=None) -> np.ndarray:
        """Insert a batch of intervals in one vectorised pass; return their ids.

        The endpoints are validated vectorised, appended to the columnar
        storage in one amortised write (recycling vacated slots first), and
        merged into the tree through the pooled-insertion machinery with a
        single deferred re-sort per touched list — orders of magnitude
        faster than a loop of :meth:`insert` calls.  When the batch is at
        least as large as the indexed portion of the tree, the merge is a
        single vectorised rebuild instead.

        Unlike the scalar :meth:`insert`, this path also supports weighted
        trees (pass ``weights``): the touched lists' weight prefix arrays
        are recomputed wholesale, which sidesteps the positional-update
        problem that makes scalar AWIT updates unsupported (Section IV-A).

        Examples
        --------
        >>> from repro import AIT, IntervalDataset
        >>> tree = AIT(IntervalDataset.from_pairs([(0, 10), (20, 30)]))
        >>> ids = tree.insert_many([2, 4], [6, 8])
        >>> len(ids)
        2
        >>> tree.count((3, 5))
        3
        """
        from .updates import insert_many

        return insert_many(self, lefts, rights, weights)

    def delete_many(self, interval_ids) -> np.ndarray:
        """Delete a batch of interval ids in one pass; return per-id success flags.

        Equivalent to a loop of :meth:`delete` calls (duplicates within the
        batch report ``False`` after the first occurrence) but removes all
        ids from each touched node's lists at once and bumps
        :attr:`structure_version` a single time.  Supported on weighted
        trees too, like :meth:`insert_many`.

        Examples
        --------
        >>> from repro import AIT, IntervalDataset
        >>> tree = AIT(IntervalDataset.from_pairs([(0, 10), (20, 30), (40, 50)]))
        >>> tree.delete_many([1, 1, 99]).tolist()
        [True, False, False]
        >>> tree.size
        2
        """
        from .updates import delete_many

        return delete_many(self, interval_ids)

    def flush_pool(self) -> int:
        """Merge all pooled insertions into the tree; return how many were merged."""
        from .updates import flush_pool

        return flush_pool(self)

    def delete(self, interval_id: int) -> bool:
        """Delete the interval with the given id; return True when it was present.

        On weighted trees the scalar call is routed through the bulk
        :meth:`delete_many` path (see :meth:`insert` for why that sidesteps
        the Section IV-A restriction), so deletion works on both engines.
        """
        from .updates import delete_interval

        if self._weighted:
            return bool(self.delete_many([interval_id])[0])
        return delete_interval(self, interval_id)

    # ------------------------------------------------------------------ #
    # invariants (used by the test-suite; cheap enough to run on demand)
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Validate the structural invariants of the tree; raise AssertionError on violation."""
        for node in self.iter_nodes():
            stab_left = self._lefts[node.stab_ids_by_left]
            stab_right = self._rights[node.stab_ids_by_left]
            assert np.all(stab_left <= node.center) and np.all(stab_right >= node.center), (
                "stab list must contain exactly the intervals overlapping the center"
            )
            assert np.all(np.diff(node.stab_lefts) >= 0), "L^l must be sorted by left endpoint"
            assert np.all(np.diff(node.stab_rights) >= 0), "L^r must be sorted by right endpoint"
            assert np.all(np.diff(node.subtree_lefts) >= 0), "AL^l must be sorted by left endpoint"
            assert np.all(np.diff(node.subtree_rights) >= 0), (
                "AL^r must be sorted by right endpoint"
            )
            assert set(node.stab_ids_by_left.tolist()) == set(node.stab_ids_by_right.tolist())
            assert set(node.subtree_ids_by_left.tolist()) == set(
                node.subtree_ids_by_right.tolist()
            )
            if node.left is not None:
                assert np.all(self._rights[node.left.subtree_ids_by_left] < node.center), (
                    "left subtree intervals must end before the center"
                )
            if node.right is not None:
                assert np.all(self._lefts[node.right.subtree_ids_by_left] > node.center), (
                    "right subtree intervals must start after the center"
                )
            subtree = set(node.subtree_ids_by_left.tolist())
            children = set(node.stab_ids_by_left.tolist())
            if node.left is not None:
                children |= set(node.left.subtree_ids_by_left.tolist())
            if node.right is not None:
                children |= set(node.right.subtree_ids_by_left.tolist())
            assert subtree == children, "AL lists must equal stab list plus child AL lists"
            if self._weighted:
                for ids, prefix in (
                    (node.stab_ids_by_left, node.stab_weight_by_left),
                    (node.stab_ids_by_right, node.stab_weight_by_right),
                    (node.subtree_ids_by_left, node.subtree_weight_by_left),
                    (node.subtree_ids_by_right, node.subtree_weight_by_right),
                ):
                    assert prefix is not None and np.allclose(
                        prefix, np.cumsum(self._weights[ids])
                    ), "weight prefix arrays must match the cumulative list weights"
