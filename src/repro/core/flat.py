"""FlatAIT — a flattened, array-backed execution engine for the AIT / AWIT.

The pointer-based :class:`~repro.core.ait.AIT` is faithful to the paper but
pays Python-level dispatch for every visited node of every query: attribute
loads, one ``np.searchsorted`` call per node, and a fresh
:class:`~repro.sampling.alias.AliasTable` per ``sample`` call.  Those constant
factors — not the ``O(log^2 n + s)`` asymptotics — dominate wall-clock time.

``FlatAIT`` serialises a *built* tree into a handful of contiguous NumPy
arrays (structure-of-arrays, the layout trick flat interval indexes like HINT
use to beat pointer trees in practice):

* per node: ``centers``, ``left_child`` / ``right_child`` indices (-1 = none),
  and offset/length slices into the list pools;
* four concatenated *list pools* — the per-node stab lists (sorted by left and
  by right endpoint) and subtree lists (idem) laid back to back, values and
  interval ids side by side;
* for weighted trees, pools of per-node inclusive weight prefix sums aligned
  with each list pool.

On top of that layout it offers **batch** query APIs — :meth:`count_many`,
:meth:`report_many`, :meth:`sample_many`, :meth:`total_weight_many` — that
advance *all* queries through the tree level-synchronously: one round
classifies every live query against its current node's center (the three
cases of Algorithm 1) with pure array ops, resolves all binary searches of
the round with two global ``np.searchsorted`` calls over precomputed rank
keys (see :meth:`FlatAIT._build_rank_keys`), emits node records as flat
arrays, and descends.  The per-query Python interpreter work drops from
``O(height)`` to ``O(1)``, which is worth an order of magnitude on realistic
batch sizes.

Scalar :meth:`count` / :meth:`report` / :meth:`sample` fast paths reuse the
same arrays (no node objects, no per-node attribute chasing) and skip alias
table construction entirely — records are few (``O(log n)``), so a direct
draw (<= 2 records) or one cumulative inverse-CDF search is cheaper than
building a Walker table per query.

The engine is a *snapshot*: updates applied to the owning ``AIT`` after
:meth:`from_tree` are not visible.  :meth:`AIT.flat` re-snapshots lazily
whenever the tree structure has changed; the batch-insertion pool is scanned
separately by the ``AIT`` wrappers, exactly like the scalar query path does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..sampling.cumulative import record_weights, segmented_inverse_cdf
from ..sampling.rng import RandomState, resolve_rng
from .errors import EmptyResultError, InvalidIntervalError, InvalidWeightError
from .query import QueryLike, coerce_query, coerce_query_batch, validate_sample_size

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .ait import AIT

__all__ = ["FlatAIT"]

_ID = np.int64
_F8 = np.float64

#: Pool order used for the concatenated id / weight-prefix super-pools.
#: Indices match :class:`~repro.core.records.ListKind`:
#: 0 = stab by left, 1 = stab by right, 2 = subtree by right, 3 = subtree by left.
_KIND_COUNT = 4


class _RecordBatch:
    """Node records for a whole query batch, as flat parallel arrays.

    ``query`` holds the query ordinal of each record; ``glo``/``ghi`` the
    inclusive global index range into the concatenated id super-pool
    (:attr:`FlatAIT._all_ids`); ``gbase`` the start of the owning node
    segment inside that super-pool (needed to read per-node weight prefixes);
    ``weight`` the record's total sampling weight.  Records of one query are
    stored consecutively, in scalar traversal order.
    """

    __slots__ = ("query", "glo", "ghi", "gbase", "weight")

    def __init__(
        self,
        query: np.ndarray,
        glo: np.ndarray,
        ghi: np.ndarray,
        gbase: np.ndarray,
        weight: np.ndarray,
    ) -> None:
        self.query = query
        self.glo = glo
        self.ghi = ghi
        self.gbase = gbase
        self.weight = weight

    def __len__(self) -> int:
        return int(self.query.shape[0])

    @property
    def counts(self) -> np.ndarray:
        """Number of intervals covered by each record."""
        return self.ghi - self.glo + 1


def _ranges_to_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], starts[i] + lengths[i])`` for all i.

    Standard O(total) vectorised expansion: seed an array of ones, place jump
    deltas at run boundaries, and cumulative-sum.  All lengths must be >= 1.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=_ID)
    out = np.ones(total, dtype=_ID)
    out[0] = starts[0]
    boundaries = np.cumsum(lengths)[:-1]
    out[boundaries] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(out)


def segmented_cumsum(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums per segment, bit-identical to per-segment ``np.cumsum``.

    A global cumsum with per-segment offset subtraction would accumulate in a
    different floating-point order than the per-node ``np.cumsum`` the tree
    build uses, so the results would only be *close*, not equal.  Instead,
    segments are bucketed by length and every bucket runs one 2-D
    ``np.cumsum(axis=1)`` — row-sequential accumulation, i.e. exactly the
    rounding order of a 1-D cumsum over each segment — so the output matches
    a Python loop of per-segment cumsums bit for bit, at a cost of one
    vectorised pass per *distinct* segment length.
    """
    out = np.empty(values.shape[0], dtype=_F8)
    lengths = lengths[lengths > 0]
    if lengths.shape[0] == 0:
        return out
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        idx = starts[rows][:, None] + np.arange(int(length), dtype=_ID)[None, :]
        out[idx] = np.cumsum(values[idx], axis=1)
    return out


class FlatAIT:
    """Structure-of-arrays snapshot of a built AIT / AWIT with batch queries.

    Build it with :meth:`from_tree` (or, more conveniently, via
    :meth:`repro.AIT.flat`).  All query methods exclude the owning tree's
    batch-insertion pool — the ``AIT`` wrapper methods merge pooled intervals
    in, mirroring how the scalar path scans the pool per query.

    Examples
    --------
    >>> from repro import AIT, IntervalDataset
    >>> data = IntervalDataset.from_pairs([(0, 10), (5, 15), (20, 30)])
    >>> engine = AIT(data).flat()
    >>> engine.count_many([(4, 12), (18, 25)]).tolist()
    [2, 1]
    """

    #: Snapshot array schema: ``(public name, attribute)`` for the 13 core
    #: arrays.  Shared by the persistence layer (:mod:`repro.persist.snapshot`)
    #: and the shared-memory publisher (:mod:`repro.service.shm`), so every
    #: serialisation of a snapshot enumerates exactly the same fields.
    #: ``all_weight_prefix`` is ``None`` for unweighted snapshots.
    CORE_FIELDS = (
        ("centers", "_centers"),
        ("left_child", "_left_child"),
        ("right_child", "_right_child"),
        ("stab_off", "_stab_off"),
        ("stab_len", "_stab_len"),
        ("sub_off", "_sub_off"),
        ("sub_len", "_sub_len"),
        ("stab_lefts", "_stab_lefts"),
        ("stab_rights", "_stab_rights"),
        ("sub_lefts", "_sub_lefts"),
        ("sub_rights", "_sub_rights"),
        ("all_ids", "_all_ids"),
        ("all_weight_prefix", "_all_weight_prefix"),
    )
    #: The 4 derived rank-key pools (:meth:`_build_rank_keys`).  Optional in
    #: any serialised form: :meth:`from_buffers` adopts them when present and
    #: recomputes them otherwise.
    RANK_KEY_FIELDS = (
        ("rank_stab_lefts", "_stab_lefts_key"),
        ("rank_stab_rights", "_stab_rights_key"),
        ("rank_sub_lefts", "_sub_lefts_key"),
        ("rank_sub_rights", "_sub_rights_key"),
    )

    def __init__(
        self,
        centers: np.ndarray,
        left_child: np.ndarray,
        right_child: np.ndarray,
        stab_off: np.ndarray,
        stab_len: np.ndarray,
        sub_off: np.ndarray,
        sub_len: np.ndarray,
        stab_lefts: np.ndarray,
        stab_rights: np.ndarray,
        sub_lefts: np.ndarray,
        sub_rights: np.ndarray,
        all_ids: np.ndarray,
        all_weight_prefix: Optional[np.ndarray],
        weighted: bool,
    ) -> None:
        self._centers = centers
        self._left_child = left_child
        self._right_child = right_child
        self._stab_off = stab_off
        self._stab_len = stab_len
        self._sub_off = sub_off
        self._sub_len = sub_len
        self._stab_lefts = stab_lefts
        self._stab_rights = stab_rights
        self._sub_lefts = sub_lefts
        self._sub_rights = sub_rights
        # Id super-pool: the four list pools concatenated in ListKind order
        # (stab-by-left, stab-by-right, subtree-by-right, subtree-by-left),
        # so a (kind, pool index) pair maps to one flat index.
        self._all_ids = all_ids
        self._all_weight_prefix = all_weight_prefix
        self._weighted = bool(weighted)
        stab_total = int(stab_lefts.shape[0])
        sub_total = int(sub_lefts.shape[0])
        self._kind_base = np.array(
            [0, stab_total, 2 * stab_total, 2 * stab_total + sub_total], dtype=_ID
        )
        # Set by from_tree: the serialised node objects in preorder and their
        # id() -> index map.  Holding strong references keeps the node object
        # ids stable, which is what lets a later incremental refresh match
        # this snapshot's segments against the owning tree's dirty journal.
        self._nodes: Optional[list] = None
        self._node_index: Optional[dict[int, int]] = None
        #: True when this snapshot was produced by the delta-aware splice
        #: path of :meth:`from_tree` rather than a full re-flatten.
        self.built_incrementally = False
        self._build_rank_keys()

    def _build_rank_keys(self) -> None:
        """Precompute rank keys turning per-segment binary searches into two
        global ``np.searchsorted`` calls.

        Every value in every list pool is an endpoint of an active interval,
        and the root's subtree lists are exactly the globally sorted endpoint
        columns — so they serve as free rank dictionaries.  Each pool element
        gets the integer key ``node * M + rank(value)``; keys are globally
        nondecreasing (pools are laid out in node order and sorted within a
        node), so the insertion point of a query endpoint inside *any* node's
        segment is ``searchsorted(keys, node * M + rank(endpoint))`` — no
        per-lane binary-search loop, just two C-level searches per batch.

        The ranks themselves need no binary search either: every pool value
        is some active interval's endpoint, so its first-occurrence rank in
        the root column can be scattered once per interval id and gathered
        per pool element — O(pool) gathers instead of O(pool log n) searches,
        which measurably shortens snapshot construction at millions of list
        entries.
        """
        n_active = int(self._sub_len[0]) if self.node_count else 0
        self._sorted_lefts = self._sub_lefts[:n_active]
        self._sorted_rights = self._sub_rights[:n_active]
        self._rank_m = n_active + 1
        if n_active == 0:
            empty = np.empty(0, dtype=_ID)
            self._stab_lefts_key = empty
            self._stab_rights_key = empty
            self._sub_lefts_key = empty
            self._sub_rights_key = empty
            return

        def first_occurrence_ranks(sorted_values: np.ndarray) -> np.ndarray:
            # rank(v) == searchsorted(sorted_values, v, 'left') for members.
            first = np.empty(n_active, dtype=bool)
            first[0] = True
            np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:])
            return np.maximum.accumulate(
                np.where(first, np.arange(n_active, dtype=_ID), 0)
            )

        kb = self._kind_base
        root_by_right = self._all_ids[kb[2] : kb[2] + n_active]
        root_by_left = self._all_ids[kb[3] : kb[3] + n_active]
        size = int(max(root_by_left.max(), root_by_right.max())) + 1
        if size <= max(16 * n_active, 1 << 20):
            # Dense id space (every internal caller: ids are column rows):
            # one scatter per dictionary, O(1) lookups.
            rank_left_of = np.empty(size, dtype=_ID)
            rank_right_of = np.empty(size, dtype=_ID)
            rank_left_of[root_by_left] = first_occurrence_ranks(self._sorted_lefts)
            rank_right_of[root_by_right] = first_occurrence_ranks(self._sorted_rights)
        else:
            # Sparse id space (from_arrays with caller-supplied huge ids): an
            # id-sized scatter table would be absurd, so compact the ids and
            # look ranks up through one searchsorted per pool instead.
            unique_ids = np.sort(root_by_left)
            rank_left_of = np.empty(n_active, dtype=_ID)
            rank_right_of = np.empty(n_active, dtype=_ID)
            rank_left_of[np.searchsorted(unique_ids, root_by_left)] = (
                first_occurrence_ranks(self._sorted_lefts)
            )
            rank_right_of[np.searchsorted(unique_ids, root_by_right)] = (
                first_occurrence_ranks(self._sorted_rights)
            )

            class _CompactLookup:
                __slots__ = ("table",)

                def __init__(self, table: np.ndarray) -> None:
                    self.table = table

                def __getitem__(self, id_segment: np.ndarray) -> np.ndarray:
                    return self.table[np.searchsorted(unique_ids, id_segment)]

            rank_left_of = _CompactLookup(rank_left_of)
            rank_right_of = _CompactLookup(rank_right_of)

        def node_base(lengths: np.ndarray) -> np.ndarray:
            node_of = np.repeat(np.arange(lengths.shape[0], dtype=_ID), lengths)
            node_of *= self._rank_m
            return node_of

        stab_base = node_base(self._stab_len)
        sub_base = node_base(self._sub_len)
        self._stab_lefts_key = stab_base + rank_left_of[self._all_ids[kb[0] : kb[1]]]
        self._stab_rights_key = stab_base + rank_right_of[self._all_ids[kb[1] : kb[2]]]
        self._sub_rights_key = sub_base + rank_right_of[self._all_ids[kb[2] : kb[3]]]
        self._sub_lefts_key = sub_base + rank_left_of[self._all_ids[kb[3] :]]

    def _rank_search(
        self,
        key_pool: np.ndarray,
        sorted_values: np.ndarray,
        nodes: np.ndarray,
        needles: np.ndarray,
        side: str,
    ) -> np.ndarray:
        """Insertion points of ``needles`` inside the given nodes' segments.

        Equivalent to a per-node ``searchsorted`` over each node's sorted
        run, resolved through the precomputed rank keys: rank each needle
        against the global ``sorted_values`` column, then search ``key_pool``
        for ``node * M + rank``.  Returns *global* pool indices.
        """
        rank = np.searchsorted(sorted_values, needles, side=side)
        return np.searchsorted(key_pool, nodes * self._rank_m + rank, side="left")

    def _endpoint_ranks(
        self, ql: np.ndarray, qr: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per query: ``#(lefts <= q.r)`` and ``#(rights < q.l)`` as int64 arrays.

        The two binary-search ranks behind the closed-form count and the
        weighted total, over the root's globally sorted endpoint columns.
        """
        not_right = np.searchsorted(self._sorted_lefts, qr, side="right")
        left_of = np.searchsorted(self._sorted_rights, ql, side="left")
        return not_right, left_of

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_tree(
        cls,
        tree: "AIT",
        previous: Optional["FlatAIT"] = None,
        dirty: Optional[dict] = None,
        max_dirty_fraction: float = 0.5,
    ) -> "FlatAIT":
        """Serialise the current structure of ``tree`` into flat arrays.

        With ``previous`` (the last snapshot of the same tree) and ``dirty``
        (the tree's dirty-node journal: ``id(node) -> node`` for every node
        whose lists changed since that snapshot), the serialisation is
        *delta-aware*: pool segments of clean nodes are spliced out of the
        previous snapshot's arrays in contiguous runs, and only dirty or
        newly created nodes are re-gathered from their node objects.  The
        result is bit-identical to a full re-flatten.

        A full rebuild remains the fallback when no usable previous snapshot
        exists or the dirty node fraction exceeds ``max_dirty_fraction``
        (re-gathering nearly everything through the splice path would only
        add bookkeeping).  Check :attr:`built_incrementally` on the result —
        or the owning tree's ``snapshot_full_builds`` /
        ``snapshot_incremental_refreshes`` counters — to see which path ran.
        """
        if previous is not None and dirty is not None:
            engine = cls._incremental_from_tree(tree, previous, dirty, max_dirty_fraction)
            if engine is not None:
                return engine
        return cls._full_from_tree(tree)

    @classmethod
    def from_arrays(
        cls,
        lefts,
        rights,
        ids=None,
        weights=None,
    ) -> "FlatAIT":
        """Build the flattened index directly from endpoint arrays — no node tree.

        This is the *treeless columnar builder*: an iterative,
        level-synchronous replay of the AIT construction (median centers,
        three-way stab / left-subtree / right-subtree split) executed entirely
        on NumPy arrays.  The output is **bit-identical** to
        ``FlatAIT.from_tree(AIT(dataset))`` for a freshly built tree over the
        same intervals — same preorder node layout, same pool contents, same
        weight prefixes — but skips every Python-level ``AITNode`` allocation
        and per-node list gather, which makes it the fast path for full
        (re)builds of large snapshots.

        Per level, the builder keeps three pools grouped into per-node
        segments: the live interval positions in by-left order (``L^l`` /
        ``AL^l`` order), in by-right order (``L^r`` / ``AL^r``), and the
        merged endpoint multiset in sorted order.  One round computes every
        node's center from the two middle endpoints of its merged segment,
        classifies all live intervals against their node's center with pure
        array ops, extracts the stab lists, and forwards the two subtree
        classes to the next level — boolean masking preserves both sort
        orders, so no re-sorting is ever needed below the root.  A final
        vectorised BFS-to-preorder renumbering assembles the pools in the
        exact layout :meth:`from_tree` produces.

        Parameters
        ----------
        lefts, rights:
            Endpoint columns of the intervals to index (validated: finite,
            ``lefts <= rights``).
        ids:
            Interval ids stored in the list pools; defaults to
            ``arange(len(lefts))``.
        weights:
            When given, builds the weighted (AWIT) layout with per-list
            inclusive weight-prefix pools (validated: finite, non-negative).

        Examples
        --------
        >>> import numpy as np
        >>> from repro import FlatAIT
        >>> engine = FlatAIT.from_arrays([0.0, 5.0, 20.0], [10.0, 15.0, 30.0])
        >>> engine.count_many([(4, 12), (18, 25)]).tolist()
        [2, 1]
        """
        lefts = np.ascontiguousarray(lefts, dtype=_F8).reshape(-1)
        rights = np.ascontiguousarray(rights, dtype=_F8).reshape(-1)
        n = int(lefts.shape[0])
        if int(rights.shape[0]) != n:
            raise InvalidIntervalError(
                f"from_arrays expects equally long columns, got {n} lefts and "
                f"{rights.shape[0]} rights"
            )
        if ids is None:
            ids = np.arange(n, dtype=_ID)
        else:
            ids = np.ascontiguousarray(ids, dtype=_ID).reshape(-1)
            if int(ids.shape[0]) != n:
                raise InvalidIntervalError(
                    f"from_arrays got {ids.shape[0]} ids for {n} intervals"
                )
            # Duplicate or negative ids would silently corrupt the rank-key
            # dictionaries (they are scattered per id in _build_rank_keys);
            # reject them like every other malformed input.
            if n and int(ids.min()) < 0:
                raise InvalidIntervalError("from_arrays ids must be non-negative")
            if n and int(np.unique(ids).shape[0]) != n:
                raise InvalidIntervalError("from_arrays ids must be unique")
        finite = np.isfinite(lefts) & np.isfinite(rights)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise InvalidIntervalError(
                f"interval endpoints must be finite, got [{lefts[bad]}, {rights[bad]}] "
                f"at position {bad}"
            )
        inverted = lefts > rights
        if inverted.any():
            bad = int(np.flatnonzero(inverted)[0])
            raise InvalidIntervalError(
                f"interval left endpoint must not exceed right endpoint, got "
                f"[{lefts[bad]}, {rights[bad]}] at position {bad}"
            )
        weighted = weights is not None
        if weighted:
            weights = np.ascontiguousarray(weights, dtype=_F8).reshape(-1)
            if int(weights.shape[0]) != n:
                raise InvalidWeightError(
                    f"from_arrays got {weights.shape[0]} weights for {n} intervals"
                )
            valid = np.isfinite(weights) & (weights >= 0)
            if not valid.all():
                bad = int(np.flatnonzero(~valid)[0])
                raise InvalidWeightError(
                    f"interval weight must be finite and non-negative, got "
                    f"{weights[bad]!r} at position {bad}"
                )

        if n == 0:
            return cls(
                np.empty(0, dtype=_F8),
                np.empty(0, dtype=_ID),
                np.empty(0, dtype=_ID),
                np.empty(0, dtype=_ID),
                np.empty(0, dtype=_ID),
                np.empty(0, dtype=_ID),
                np.empty(0, dtype=_ID),
                np.empty(0, dtype=_F8),
                np.empty(0, dtype=_F8),
                np.empty(0, dtype=_F8),
                np.empty(0, dtype=_F8),
                np.empty(0, dtype=_ID),
                np.empty(0, dtype=_F8) if weighted else None,
                weighted,
            )

        # ---- level-synchronous partitioning over positions 0..n-1 -------- #
        # Two pools, each grouped into contiguous per-node segments: the live
        # interval positions in by-left order and in by-right order.  Both
        # inherit their in-segment ordering through the boolean-mask splits
        # below, exactly like the recursive build's children do.  Positions
        # are 32-bit where possible — these are the hot per-level arrays, and
        # halving their width measurably cuts the whole build.
        pos_dtype = np.int32 if n < 2**31 - 1 else _ID
        cur_l = np.argsort(lefts, kind="stable").astype(pos_dtype, copy=False)
        cur_r = np.argsort(rights, kind="stable").astype(pos_dtype, copy=False)
        seg_len = np.array([n], dtype=_ID)

        cls_buf = np.empty(n, dtype=np.int8)

        lv_centers: list[np.ndarray] = []
        lv_seg_len: list[np.ndarray] = []
        lv_stab_counts: list[np.ndarray] = []
        lv_stab_l: list[np.ndarray] = []
        lv_stab_r: list[np.ndarray] = []
        lv_sub_l: list[np.ndarray] = []
        lv_sub_r: list[np.ndarray] = []
        lv_left_child: list[np.ndarray] = []
        lv_right_child: list[np.ndarray] = []
        lv_first_node: list[int] = []
        node_total = 0

        def merged_kth(sorted_l, sorted_r, off, m, count):
            """Per segment, the ``count``-th smallest (1-based) of the union
            of its m sorted left values and m sorted right values.

            Vectorised binary search on the split point (how many values the
            union prefix takes from the left column) — O(k log m) instead of
            materialising merged endpoint pools, with clipped gathers keeping
            converged lanes in bounds.
            """
            lo = np.maximum(count - m, 0)
            hi = np.minimum(count, m)
            while True:
                active = lo < hi
                if not active.any():
                    break
                i = (lo + hi) >> 1
                j = count - i
                take_more = active & (
                    sorted_r[off + np.maximum(j - 1, 0)]
                    > sorted_l[off + np.minimum(i, m - 1)]
                )
                lo = np.where(take_more, i + 1, lo)
                hi = np.where(active & ~take_more, i, hi)
            i = lo
            j = count - i
            from_l = np.where(
                i > 0, sorted_l[off + np.maximum(i - 1, 0)], -np.inf
            )
            from_r = np.where(
                j > 0, sorted_r[off + np.maximum(j - 1, 0)], -np.inf
            )
            return np.maximum(from_l, from_r)

        while seg_len.shape[0]:
            k = int(seg_len.shape[0])
            lv_first_node.append(node_total)
            m = seg_len
            off = np.concatenate(([0], np.cumsum(m)[:-1])).astype(_ID, copy=False)

            seg_lefts = lefts[cur_l]
            seg_rights = rights[cur_l]
            sorted_rights = rights[cur_r]
            # Median of each node's 2m merged endpoints: the mean of the two
            # middle order statistics, matching np.median on an even-length
            # array bit for bit.
            centers = (
                merged_kth(seg_lefts, sorted_rights, off, m, m)
                + merged_kth(seg_lefts, sorted_rights, off, m, m + 1)
            ) / 2.0

            cen = np.repeat(centers, m)
            left_m = seg_rights < cen
            right_m = seg_lefts > cen
            # Classify once per interval (each lives in exactly one node per
            # level) and scatter, so the by-right pool reuses the decision
            # instead of re-deriving it from endpoint comparisons.
            codes = np.ones(cur_l.shape[0], dtype=np.int8)
            codes[left_m] = 0
            codes[right_m] = 2
            cls_buf[cur_l] = codes
            cls_r = cls_buf[cur_r]

            node_of = np.repeat(np.arange(k, dtype=pos_dtype), m)
            stab_m = codes == 1
            stab_counts = np.bincount(node_of[stab_m], minlength=k).astype(_ID, copy=False)
            lv_centers.append(centers)
            lv_seg_len.append(m)
            lv_stab_counts.append(stab_counts)
            lv_stab_l.append(cur_l[stab_m])
            lv_stab_r.append(cur_r[cls_r == 1])
            lv_sub_l.append(cur_l)
            lv_sub_r.append(cur_r)

            left_counts = np.bincount(node_of[left_m], minlength=k).astype(_ID, copy=False)
            right_counts = np.bincount(node_of[right_m], minlength=k).astype(
                _ID, copy=False
            )
            has_left = left_counts > 0
            has_right = right_counts > 0
            n_left = int(has_left.sum())
            n_right = int(has_right.sum())
            lchild = np.full(k, -1, dtype=_ID)
            rchild = np.full(k, -1, dtype=_ID)
            # Children get BFS ids on the next level: all left children of
            # the level first, then all right children — matching the
            # concatenation order of the next level's segments below.  (The
            # final preorder renumbering erases this choice.)
            base = node_total + k
            lchild[has_left] = base + np.arange(n_left, dtype=_ID)
            rchild[has_right] = base + n_left + np.arange(n_right, dtype=_ID)
            lv_left_child.append(lchild)
            lv_right_child.append(rchild)
            node_total += k

            if n_left + n_right:
                cur_l = np.concatenate((cur_l[left_m], cur_l[right_m]))
                cur_r = np.concatenate((cur_r[cls_r == 0], cur_r[cls_r == 2]))
                seg_len = np.concatenate(
                    (left_counts[has_left], right_counts[has_right])
                )
            else:
                seg_len = np.empty(0, dtype=_ID)

        # ---- BFS -> preorder renumbering --------------------------------- #
        total_nodes = node_total
        bfs_center = np.concatenate(lv_centers)
        bfs_sub_len = np.concatenate(lv_seg_len).astype(_ID, copy=False)
        bfs_stab_len = np.concatenate(lv_stab_counts).astype(_ID, copy=False)
        bfs_left = np.concatenate(lv_left_child)
        bfs_right = np.concatenate(lv_right_child)

        level_count = len(lv_centers)
        # Subtree node counts, bottom-up (children live one level deeper).
        subtree_nodes = np.ones(total_nodes, dtype=_ID)
        for li in range(level_count - 1, -1, -1):
            start = lv_first_node[li]
            stop = start + lv_centers[li].shape[0]
            lc = bfs_left[start:stop]
            rc = bfs_right[start:stop]
            extra = np.zeros(stop - start, dtype=_ID)
            has = lc >= 0
            extra[has] = subtree_nodes[lc[has]]
            has = rc >= 0
            extra[has] += subtree_nodes[rc[has]]
            subtree_nodes[start:stop] = 1 + extra
        # Preorder ranks, top-down: left child follows its parent directly,
        # the right child follows the whole left subtree.
        pos = np.empty(total_nodes, dtype=_ID)
        pos[0] = 0
        for li in range(level_count):
            start = lv_first_node[li]
            stop = start + lv_centers[li].shape[0]
            lc = bfs_left[start:stop]
            rc = bfs_right[start:stop]
            parent_pos = pos[start:stop]
            has_l = lc >= 0
            pos[lc[has_l]] = parent_pos[has_l] + 1
            right_base = parent_pos + 1
            right_base = right_base.copy()
            right_base[has_l] += subtree_nodes[lc[has_l]]
            has_r = rc >= 0
            pos[rc[has_r]] = right_base[has_r]

        centers = np.empty(total_nodes, dtype=_F8)
        centers[pos] = bfs_center
        stab_len = np.empty(total_nodes, dtype=_ID)
        stab_len[pos] = bfs_stab_len
        sub_len = np.empty(total_nodes, dtype=_ID)
        sub_len[pos] = bfs_sub_len
        left_child = np.full(total_nodes, -1, dtype=_ID)
        has = bfs_left >= 0
        left_child[pos[has]] = pos[bfs_left[has]]
        right_child = np.full(total_nodes, -1, dtype=_ID)
        has = bfs_right >= 0
        right_child[pos[has]] = pos[bfs_right[has]]
        stab_off = np.concatenate(([0], np.cumsum(stab_len)[:-1])).astype(_ID, copy=False)
        sub_off = np.concatenate(([0], np.cumsum(sub_len)[:-1])).astype(_ID, copy=False)

        # ---- pool assembly in preorder ----------------------------------- #
        # Per-node start offsets into the level-concatenated stab / sub
        # arrays, then one index expansion per pool family gathers every
        # node's segment in preorder.
        all_stab_l = np.concatenate(lv_stab_l)
        all_stab_r = np.concatenate(lv_stab_r)
        all_sub_l = np.concatenate(lv_sub_l)
        all_sub_r = np.concatenate(lv_sub_r)
        bfs_stab_start = np.empty(total_nodes, dtype=_ID)
        bfs_sub_start = np.empty(total_nodes, dtype=_ID)
        stab_base = 0
        sub_base = 0
        for li in range(level_count):
            start = lv_first_node[li]
            k = lv_centers[li].shape[0]
            counts = lv_stab_counts[li]
            bfs_stab_start[start : start + k] = stab_base + np.concatenate(
                ([0], np.cumsum(counts)[:-1])
            )
            stab_base += int(counts.sum())
            counts = lv_seg_len[li]
            bfs_sub_start[start : start + k] = sub_base + np.concatenate(
                ([0], np.cumsum(counts)[:-1])
            )
            sub_base += int(counts.sum())
        stab_start = np.empty(total_nodes, dtype=_ID)
        stab_start[pos] = bfs_stab_start
        sub_start = np.empty(total_nodes, dtype=_ID)
        sub_start[pos] = bfs_sub_start

        nz = stab_len > 0
        stab_idx = _ranges_to_indices(stab_start[nz], stab_len[nz])
        nz = sub_len > 0
        sub_idx = _ranges_to_indices(sub_start[nz], sub_len[nz])
        stab_pos_l = all_stab_l[stab_idx]
        stab_pos_r = all_stab_r[stab_idx]
        sub_pos_l = all_sub_l[sub_idx]
        sub_pos_r = all_sub_r[sub_idx]

        if n == int(ids.shape[0]) and ids[0] == 0 and ids[-1] == n - 1 and np.array_equal(
            ids, np.arange(n, dtype=_ID)
        ):
            # Identity id map (the common full-build case): positions ARE the
            # ids, so skip four pool-sized random gathers.
            id_pools = (stab_pos_l, stab_pos_r, sub_pos_r, sub_pos_l)
            all_ids = np.concatenate(id_pools).astype(_ID, copy=False)
        else:
            all_ids = np.concatenate(
                (ids[stab_pos_l], ids[stab_pos_r], ids[sub_pos_r], ids[sub_pos_l])
            )
        all_weight_prefix = None
        if weighted:
            all_weight_prefix = np.concatenate(
                (
                    segmented_cumsum(weights[stab_pos_l], stab_len),
                    segmented_cumsum(weights[stab_pos_r], stab_len),
                    segmented_cumsum(weights[sub_pos_r], sub_len),
                    segmented_cumsum(weights[sub_pos_l], sub_len),
                )
            )
        return cls(
            centers,
            left_child,
            right_child,
            stab_off,
            stab_len,
            sub_off,
            sub_len,
            lefts[stab_pos_l],
            rights[stab_pos_r],
            lefts[sub_pos_l],
            rights[sub_pos_r],
            all_ids,
            all_weight_prefix,
            weighted,
        )

    def to_buffers(self) -> dict[str, np.ndarray]:
        """Every array of this snapshot as a flat ``{name: array}`` mapping.

        The inverse of :meth:`from_buffers`: core arrays plus the derived
        rank-key pools, keyed by the :attr:`CORE_FIELDS` /
        :attr:`RANK_KEY_FIELDS` names.  ``None`` entries (the weight prefix
        of an unweighted snapshot) are omitted.  The arrays are the live
        ones, not copies — callers serialising them must copy.
        """
        out: dict[str, np.ndarray] = {}
        for name, attr in self.CORE_FIELDS + self.RANK_KEY_FIELDS:
            array = getattr(self, attr)
            if array is not None:
                out[name] = array
        return out

    @classmethod
    def from_buffers(cls, arrays: dict, weighted: bool) -> "FlatAIT":
        """Reassemble a snapshot around existing buffers without copying.

        ``arrays`` maps :attr:`CORE_FIELDS` names (plus, optionally,
        :attr:`RANK_KEY_FIELDS` names) to arrays — typically views into a
        memory-mapped snapshot file or a ``multiprocessing.shared_memory``
        segment.  Bypasses ``__init__`` so saved rank-key pools are adopted
        instead of recomputed: recomputation would touch every page of the
        backing store, defeating lazy attach.  Derived scalars and views
        (``_kind_base``, the root-sorted endpoint views, ``_rank_m``) are
        cheap and rebuilt in place.  The returned snapshot aliases the given
        buffers: they must outlive it and stay unmodified.
        """
        flat = cls.__new__(cls)
        for name, attr in cls.CORE_FIELDS:
            setattr(flat, attr, arrays.get(name))
        if flat._all_weight_prefix is None and weighted:
            raise InvalidWeightError(
                "weighted snapshot buffers are missing the all_weight_prefix array"
            )
        flat._weighted = bool(weighted)
        stab_total = int(flat._stab_lefts.shape[0])
        sub_total = int(flat._sub_lefts.shape[0])
        flat._kind_base = np.array(
            [0, stab_total, 2 * stab_total, 2 * stab_total + sub_total], dtype=_ID
        )
        flat._nodes = None
        flat._node_index = None
        flat.built_incrementally = False
        have_keys = all(
            arrays.get(name) is not None for name, _ in cls.RANK_KEY_FIELDS
        )
        if have_keys:
            for name, attr in cls.RANK_KEY_FIELDS:
                setattr(flat, attr, arrays[name])
            n_active = int(flat._sub_len[0]) if flat._centers.shape[0] else 0
            flat._sorted_lefts = flat._sub_lefts[:n_active]
            flat._sorted_rights = flat._sub_rights[:n_active]
            flat._rank_m = n_active + 1
        else:
            flat._build_rank_keys()
        return flat

    @staticmethod
    def _walk_preorder(tree: "AIT") -> list:
        """The tree's nodes in preorder (node index = discovery order)."""
        nodes: list = []
        if tree.root is not None:
            stack = [tree.root]
            while stack:
                node = stack.pop()
                nodes.append(node)
                if node.right is not None:
                    stack.append(node.right)
                if node.left is not None:
                    stack.append(node.left)
        return nodes

    @classmethod
    def _full_from_tree(cls, tree: "AIT") -> "FlatAIT":
        """Classic full serialisation: walk every node, gather every list."""
        weighted = tree.is_weighted
        nodes = cls._walk_preorder(tree)
        m = len(nodes)
        index_of = {id(node): i for i, node in enumerate(nodes)}

        centers = np.empty(m, dtype=_F8)
        left_child = np.full(m, -1, dtype=_ID)
        right_child = np.full(m, -1, dtype=_ID)
        stab_len = np.empty(m, dtype=_ID)
        sub_len = np.empty(m, dtype=_ID)
        for i, node in enumerate(nodes):
            centers[i] = node.center
            if node.left is not None:
                left_child[i] = index_of[id(node.left)]
            if node.right is not None:
                right_child[i] = index_of[id(node.right)]
            stab_len[i] = node.stab_ids_by_left.shape[0]
            sub_len[i] = node.subtree_ids_by_left.shape[0]
        stab_off = np.concatenate(([0], np.cumsum(stab_len)[:-1])) if m else np.empty(0, dtype=_ID)
        sub_off = np.concatenate(([0], np.cumsum(sub_len)[:-1])) if m else np.empty(0, dtype=_ID)

        def _cat(arrays, dtype):
            if not arrays:
                return np.empty(0, dtype=dtype)
            return np.concatenate(arrays).astype(dtype, copy=False)

        stab_lefts = _cat([n.stab_lefts for n in nodes], _F8)
        stab_rights = _cat([n.stab_rights for n in nodes], _F8)
        sub_lefts = _cat([n.subtree_lefts for n in nodes], _F8)
        sub_rights = _cat([n.subtree_rights for n in nodes], _F8)
        all_ids = _cat(
            [n.stab_ids_by_left for n in nodes]
            + [n.stab_ids_by_right for n in nodes]
            + [n.subtree_ids_by_right for n in nodes]
            + [n.subtree_ids_by_left for n in nodes],
            _ID,
        )
        all_weight_prefix = None
        if weighted:
            all_weight_prefix = _cat(
                [n.stab_weight_by_left for n in nodes]
                + [n.stab_weight_by_right for n in nodes]
                + [n.subtree_weight_by_right for n in nodes]
                + [n.subtree_weight_by_left for n in nodes],
                _F8,
            )
        engine = cls(
            centers,
            left_child,
            right_child,
            stab_off.astype(_ID, copy=False),
            stab_len,
            sub_off.astype(_ID, copy=False),
            sub_len,
            stab_lefts,
            stab_rights,
            sub_lefts,
            sub_rights,
            all_ids,
            all_weight_prefix,
            weighted,
        )
        engine._nodes = nodes
        engine._node_index = index_of
        return engine

    @classmethod
    def _incremental_from_tree(
        cls,
        tree: "AIT",
        previous: "FlatAIT",
        dirty: dict,
        max_dirty_fraction: float,
    ) -> Optional["FlatAIT"]:
        """Delta-aware serialisation; returns None when it cannot apply.

        Splices the pool segments of *clean* nodes (present in ``previous``
        and absent from ``dirty``) out of the previous snapshot's arrays in
        maximal contiguous runs, and gathers only dirty / new nodes from
        their node objects.  Handles created leaves and pruned nodes — the
        current preorder decides segment placement; clean runs just avoid
        re-reading unchanged lists.
        """
        weighted = tree.is_weighted
        if (
            previous._nodes is None
            or previous._node_index is None
            or previous._weighted != weighted
            or previous.node_count == 0
        ):
            return None
        nodes = cls._walk_preorder(tree)
        m = len(nodes)
        if m == 0:
            return None

        old_index = previous._node_index
        clean_old = np.empty(m, dtype=_ID)
        dirty_count = 0
        for i, node in enumerate(nodes):
            nid = id(node)
            if nid in dirty or nid not in old_index:
                clean_old[i] = -1
                dirty_count += 1
            else:
                clean_old[i] = old_index[nid]
        if dirty_count > max_dirty_fraction * m:
            return None

        # Maximal runs: ("old", first_old_index, last_old_index) for clean
        # stretches whose previous positions are contiguous too, or
        # ("new", first_pos, last_pos) for stretches gathered from nodes.
        runs: list[tuple[str, int, int]] = []
        i = 0
        while i < m:
            j = i
            if clean_old[i] >= 0:
                while j + 1 < m and clean_old[j + 1] == clean_old[j] + 1:
                    j += 1
                runs.append(("old", int(clean_old[i]), int(clean_old[j])))
            else:
                while j + 1 < m and clean_old[j + 1] < 0:
                    j += 1
                runs.append(("new", i, j))
            i = j + 1

        centers = np.empty(m, dtype=_F8)
        left_child = np.full(m, -1, dtype=_ID)
        right_child = np.full(m, -1, dtype=_ID)
        stab_len = np.empty(m, dtype=_ID)
        sub_len = np.empty(m, dtype=_ID)
        index_of = {id(node): i for i, node in enumerate(nodes)}
        for i, node in enumerate(nodes):
            centers[i] = node.center
            if node.left is not None:
                left_child[i] = index_of[id(node.left)]
            if node.right is not None:
                right_child[i] = index_of[id(node.right)]
            stab_len[i] = node.stab_ids_by_left.shape[0]
            sub_len[i] = node.subtree_ids_by_left.shape[0]
        stab_off = np.concatenate(([0], np.cumsum(stab_len)[:-1])).astype(_ID, copy=False)
        sub_off = np.concatenate(([0], np.cumsum(sub_len)[:-1])).astype(_ID, copy=False)

        p_stab_off, p_stab_len = previous._stab_off, previous._stab_len
        p_sub_off, p_sub_len = previous._sub_off, previous._sub_len
        p_kind_base = previous._kind_base

        def splice(old_pool, old_off, old_len, attr, base=0):
            """Assemble one pool: old-run slices + per-node arrays for new runs."""
            chunks = []
            for kind, a, b in runs:
                if kind == "old":
                    start = base + int(old_off[a])
                    stop = base + int(old_off[b]) + int(old_len[b])
                    chunks.append(old_pool[start:stop])
                else:
                    chunks.extend(getattr(nodes[p], attr) for p in range(a, b + 1))
            return chunks

        def _cat(arrays, dtype):
            if not arrays:
                return np.empty(0, dtype=dtype)
            return np.concatenate(arrays).astype(dtype, copy=False)

        stab_lefts = _cat(splice(previous._stab_lefts, p_stab_off, p_stab_len, "stab_lefts"), _F8)
        stab_rights = _cat(
            splice(previous._stab_rights, p_stab_off, p_stab_len, "stab_rights"), _F8
        )
        sub_lefts = _cat(splice(previous._sub_lefts, p_sub_off, p_sub_len, "subtree_lefts"), _F8)
        sub_rights = _cat(
            splice(previous._sub_rights, p_sub_off, p_sub_len, "subtree_rights"), _F8
        )
        all_ids = _cat(
            splice(previous._all_ids, p_stab_off, p_stab_len, "stab_ids_by_left", int(p_kind_base[0]))
            + splice(previous._all_ids, p_stab_off, p_stab_len, "stab_ids_by_right", int(p_kind_base[1]))
            + splice(previous._all_ids, p_sub_off, p_sub_len, "subtree_ids_by_right", int(p_kind_base[2]))
            + splice(previous._all_ids, p_sub_off, p_sub_len, "subtree_ids_by_left", int(p_kind_base[3])),
            _ID,
        )
        all_weight_prefix = None
        if weighted:
            prefix = previous._all_weight_prefix
            all_weight_prefix = _cat(
                splice(prefix, p_stab_off, p_stab_len, "stab_weight_by_left", int(p_kind_base[0]))
                + splice(prefix, p_stab_off, p_stab_len, "stab_weight_by_right", int(p_kind_base[1]))
                + splice(prefix, p_sub_off, p_sub_len, "subtree_weight_by_right", int(p_kind_base[2]))
                + splice(prefix, p_sub_off, p_sub_len, "subtree_weight_by_left", int(p_kind_base[3])),
                _F8,
            )
        engine = cls(
            centers,
            left_child,
            right_child,
            stab_off,
            stab_len,
            sub_off,
            sub_len,
            stab_lefts,
            stab_rights,
            sub_lefts,
            sub_rights,
            all_ids,
            all_weight_prefix,
            weighted,
        )
        engine._nodes = nodes
        engine._node_index = index_of
        engine.built_incrementally = True
        return engine

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def node_count(self) -> int:
        """Number of serialised tree nodes."""
        return int(self._centers.shape[0])

    def arrays_equal(self, other: "FlatAIT", include_rank_keys: bool = True) -> bool:
        """True when every array of both snapshots is bit-identical.

        The shared equality oracle for the two build routes
        (:meth:`from_tree` / :meth:`from_arrays`): structure arrays, all
        list pools, weight prefixes, and (by default) the derived rank-key
        pools.  Used by the equivalence tests, the ``build_throughput``
        experiment and ``scripts/bench_build.py`` so "equal" means one
        thing everywhere.
        """
        names = [
            "_centers",
            "_left_child",
            "_right_child",
            "_stab_off",
            "_stab_len",
            "_sub_off",
            "_sub_len",
            "_stab_lefts",
            "_stab_rights",
            "_sub_lefts",
            "_sub_rights",
            "_all_ids",
            "_all_weight_prefix",
        ]
        if include_rank_keys:
            names += [
                "_stab_lefts_key",
                "_stab_rights_key",
                "_sub_lefts_key",
                "_sub_rights_key",
            ]
        if self._weighted != other._weighted:
            return False
        for name in names:
            mine = getattr(self, name)
            theirs = getattr(other, name)
            if (mine is None) != (theirs is None):
                return False
            if mine is None:
                continue
            if mine.dtype != theirs.dtype or not np.array_equal(mine, theirs):
                return False
        return True

    @property
    def is_weighted(self) -> bool:
        """True when the snapshot carries weight prefix pools (AWIT)."""
        return self._weighted

    def nbytes(self, include_rank_keys: bool = True) -> int:
        """Memory footprint of the flat arrays in bytes.

        ``include_rank_keys=False`` excludes the four precomputed rank-key
        pools (:meth:`_build_rank_keys`) — derived acceleration structures
        that could be recomputed from the list pools — leaving only the
        serialised index itself.  The default counts everything the snapshot
        actually holds in memory, which is what capacity planning needs.
        """
        arrays = [
            self._centers,
            self._left_child,
            self._right_child,
            self._stab_off,
            self._stab_len,
            self._sub_off,
            self._sub_len,
            self._stab_lefts,
            self._stab_rights,
            self._sub_lefts,
            self._sub_rights,
            self._all_ids,
            self._all_weight_prefix,
        ]
        if include_rank_keys:
            arrays += [
                self._stab_lefts_key,
                self._stab_rights_key,
                self._sub_lefts_key,
                self._sub_rights_key,
            ]
        return sum(int(arr.nbytes) for arr in arrays if arr is not None)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path, fsync: bool = True) -> None:
        """Write this snapshot to a checksummed, page-aligned container file.

        The file stores every array (including the derived rank-key pools,
        so :meth:`load` never has to recompute them) behind a
        self-describing header: magic, format version, dtype/shape table
        and one checksum per array.  The write is atomic — assembled in a
        ``.tmp`` sibling and renamed over ``path``.  See
        :mod:`repro.persist.snapshot` for the format.
        """
        from ..persist.snapshot import save_flat

        save_flat(self, path, fsync=fsync)

    @classmethod
    def load(cls, path, mmap: bool = True, verify: bool = True) -> "FlatAIT":
        """Load a snapshot written by :meth:`save`.

        With ``mmap=True`` (default) the arrays are read-only memory maps:
        the load itself is O(header) and pages fault in lazily as queries
        touch them — cold-starting a million-interval index costs
        milliseconds instead of a columnar rebuild.  ``verify=True`` checks
        every array checksum (reads the file once; pages stay cached).
        Raises :class:`~repro.core.errors.SnapshotCorruptError` on any
        validation failure.
        """
        from ..persist.snapshot import load_flat

        return load_flat(path, mmap=mmap, verify=verify)

    # ------------------------------------------------------------------ #
    # query coercion
    # ------------------------------------------------------------------ #
    @staticmethod
    def coerce_queries(queries) -> tuple[np.ndarray, np.ndarray]:
        """Normalise a batch of queries to validated ``(lefts, rights)`` arrays.

        Thin alias of :func:`repro.core.query.coerce_query_batch` — accepts
        an ``(n, 2)`` float array (validated vectorised, the fastest input
        path) or any sequence of :class:`Interval` / pair objects.
        """
        return coerce_query_batch(queries)

    # ------------------------------------------------------------------ #
    # batched record collection (Algorithm 1, level-synchronous)
    # ------------------------------------------------------------------ #
    def collect_records_batch(self, ql: np.ndarray, qr: np.ndarray) -> _RecordBatch:
        """Collect node records for every query at once (Algorithm 1, batched).

        Each round advances all still-live queries one level: classify
        against the current centers (case 1 / 2 / 3), resolve every binary
        search of the round via the precomputed rank keys
        (:meth:`_rank_search` — two global ``np.searchsorted`` calls per
        search site), emit the resulting records, and step to the child
        (case 3 terminates a query after emitting up to three records).

        The records come back grouped by query ordinal, and within one query
        in scalar traversal order (the order of :meth:`collect_ranges`):
        case 1 and case 2 emit at most one record per level on the way down,
        and the terminal case-3 node emits its stab record, then the left
        child's subtree record, then the right child's.  A final stable sort
        by query ordinal of the level-synchronous emission restores it.
        """
        nq = int(ql.shape[0])
        chunks: list[tuple[np.ndarray, int, np.ndarray, np.ndarray, np.ndarray]] = []

        def emit(
            queries: np.ndarray, kind: int, lo: np.ndarray, hi: np.ndarray, seg: np.ndarray
        ) -> None:
            if queries.shape[0]:
                chunks.append((queries, kind, lo, hi, seg))

        if nq and self.node_count:
            qidx = np.arange(nq, dtype=_ID)
            node = np.zeros(nq, dtype=_ID)
            live_l, live_r = ql, qr
            while qidx.shape[0]:
                center = self._centers[node]
                c1 = live_r < center
                c2 = center < live_l
                c3 = ~(c1 | c2)

                if c1.any():
                    n1 = node[c1]
                    off = self._stab_off[n1]
                    ins = self._rank_search(
                        self._stab_lefts_key, self._sorted_lefts, n1, live_r[c1], "right"
                    )
                    hi = ins - 1
                    ok = hi >= off
                    emit(qidx[c1][ok], 0, off[ok], hi[ok], off[ok])

                if c2.any():
                    n2 = node[c2]
                    off = self._stab_off[n2]
                    end = off + self._stab_len[n2]
                    ins = self._rank_search(
                        self._stab_rights_key, self._sorted_rights, n2, live_l[c2], "left"
                    )
                    ok = ins < end
                    emit(qidx[c2][ok], 1, ins[ok], end[ok] - 1, off[ok])

                if c3.any():
                    n3 = node[c3]
                    q3 = qidx[c3]
                    # All stab intervals of the straddled node overlap q.
                    off = self._stab_off[n3]
                    ln = self._stab_len[n3]
                    ok = ln > 0
                    emit(q3[ok], 0, off[ok], (off + ln)[ok] - 1, off[ok])
                    # Left child: subtree list by right endpoint vs q.l.
                    lc = self._left_child[n3]
                    has = lc >= 0
                    if has.any():
                        child = lc[has]
                        off = self._sub_off[child]
                        end = off + self._sub_len[child]
                        ins = self._rank_search(
                            self._sub_rights_key,
                            self._sorted_rights,
                            child,
                            live_l[c3][has],
                            "left",
                        )
                        ok = ins < end
                        emit(q3[has][ok], 2, ins[ok], end[ok] - 1, off[ok])
                    # Right child: subtree list by left endpoint vs q.r.
                    rc = self._right_child[n3]
                    has = rc >= 0
                    if has.any():
                        child = rc[has]
                        off = self._sub_off[child]
                        ins = self._rank_search(
                            self._sub_lefts_key,
                            self._sorted_lefts,
                            child,
                            live_r[c3][has],
                            "right",
                        )
                        hi = ins - 1
                        ok = hi >= off
                        emit(q3[has][ok], 3, off[ok], hi[ok], off[ok])

                nxt = np.where(c1, self._left_child[node], self._right_child[node])
                nxt = np.where(c3, -1, nxt)
                alive = nxt >= 0
                qidx = qidx[alive]
                node = nxt[alive]
                live_l = live_l[alive]
                live_r = live_r[alive]

        if not chunks:
            empty = np.empty(0, dtype=_ID)
            return _RecordBatch(empty, empty, empty, empty, np.empty(0, dtype=_F8))

        query = np.concatenate([c[0] for c in chunks])
        kind = np.concatenate([np.full(c[0].shape[0], c[1], dtype=_ID) for c in chunks])
        lo = np.concatenate([c[2] for c in chunks])
        hi = np.concatenate([c[3] for c in chunks])
        seg_off = np.concatenate([c[4] for c in chunks])

        base = self._kind_base[kind]
        glo = base + lo
        ghi = base + hi
        gbase = base + seg_off
        order = np.argsort(query, kind="stable")
        query = query[order]
        glo = glo[order]
        ghi = ghi[order]
        gbase = gbase[order]
        weight = record_weights(
            self._all_weight_prefix if self._weighted else None, glo, ghi, gbase
        )
        return _RecordBatch(query, glo, ghi, gbase, weight)

    # ------------------------------------------------------------------ #
    # batch queries
    # ------------------------------------------------------------------ #
    def count_many(self, queries) -> np.ndarray:
        """``|q ∩ X|`` for every query, excluding pooled inserts.

        Counting (unlike reporting/sampling) has an exact closed form over
        the flat layout: an interval overlaps ``q`` unless it lies entirely
        left (``right < q.l``) or entirely right (``left > q.r``) of it, and
        those two exclusions are disjoint, so
        ``|q ∩ X| = #(lefts <= q.r) - #(rights < q.l)``.  The root node's
        subtree lists are the globally sorted endpoint columns, so the whole
        batch reduces to two ``np.searchsorted`` calls — no traversal at all.
        The record-based count (what the scalar AIT does) is still available
        via :meth:`collect_records_batch` and produces identical totals.
        """
        return self._count_many(*self.coerce_queries(queries))

    def _count_many(self, ql: np.ndarray, qr: np.ndarray) -> np.ndarray:
        """:meth:`count_many` over pre-coerced endpoint arrays."""
        if self.node_count == 0:
            return np.zeros(ql.shape[0], dtype=_ID)
        not_right, left_of = self._endpoint_ranks(ql, qr)
        return (not_right - left_of).astype(_ID, copy=False)

    def total_weight_many(self, queries) -> np.ndarray:
        """Total weight of ``q ∩ X`` for every query (weighted counting).

        Same inclusion-exclusion as :meth:`count_many`, read off the root
        node's weight prefix pools: ``W(q ∩ X) = W(lefts <= q.r) -
        W(rights < q.l)``.
        """
        return self._total_weight_many(*self.coerce_queries(queries))

    def _total_weight_many(self, ql: np.ndarray, qr: np.ndarray) -> np.ndarray:
        """:meth:`total_weight_many` over pre-coerced endpoint arrays."""
        nq = int(ql.shape[0])
        if self.node_count == 0:
            return np.zeros(nq, dtype=_F8)
        if not self._weighted:
            return self._count_many(ql, qr).astype(_F8)
        prefix = self._all_weight_prefix
        n_active = self._sorted_lefts.shape[0]
        # Root segments of the subtree weight pools: by-right at kind 2,
        # by-left at kind 3 (both start at the root's offset 0).
        prefix_by_right = prefix[self._kind_base[2] : self._kind_base[2] + n_active]
        prefix_by_left = prefix[self._kind_base[3] : self._kind_base[3] + n_active]
        not_right, left_of = self._endpoint_ranks(ql, qr)
        weight_not_right = np.where(not_right > 0, prefix_by_left[np.maximum(not_right - 1, 0)], 0.0)
        weight_left_of = np.where(left_of > 0, prefix_by_right[np.maximum(left_of - 1, 0)], 0.0)
        return weight_not_right - weight_left_of

    def report_many(self, queries) -> list[np.ndarray]:
        """Overlapping interval ids per query, in scalar-``report`` order."""
        return self._report_many(*self.coerce_queries(queries))

    def _report_many(self, ql: np.ndarray, qr: np.ndarray) -> list[np.ndarray]:
        """:meth:`report_many` over pre-coerced endpoint arrays."""
        if ql.shape[0] == 0:
            return []
        records = self.collect_records_batch(ql, qr)
        per_query = np.zeros(ql.shape[0], dtype=_ID)
        counts = records.counts
        np.add.at(per_query, records.query, counts)
        total = int(counts.sum())
        if len(records) and total >= 64 * len(records):
            # Few large records: one contiguous memcpy per record beats an
            # element-wise fancy-index gather by a wide margin.
            flat = np.empty(total, dtype=_ID)
            ends = np.cumsum(counts)
            glo, ghi = records.glo, records.ghi
            pos = 0
            for i in range(len(records)):
                end = int(ends[i])
                flat[pos:end] = self._all_ids[glo[i] : ghi[i] + 1]
                pos = end
        else:
            flat = self._all_ids[_ranges_to_indices(records.glo, counts)]
        bounds = np.cumsum(per_query)[:-1]
        return [chunk for chunk in np.split(flat, bounds)]

    def sample_many(
        self,
        queries,
        sample_size: int,
        random_state: RandomState = None,
        on_empty: str = "empty",
    ) -> list[np.ndarray]:
        """Draw ``sample_size`` ids independently from each query's result set.

        Record selection runs as one *batched multinomial* over the per-query
        record weights (records are ``O(log n)`` few, so the dense
        query x record matrix is tiny), then every draw picks its position
        inside the chosen record vectorised across the whole batch, and each
        query's row is shuffled.  The shuffle matters: the multinomial
        produces draws grouped by record, and without it position ``i`` of
        the output would carry information about which record it came from
        (a consumer slicing ``ids[:k]`` would see a biased subsample).  After
        the per-row permutation every position is marginally the exact scalar
        per-draw law (``1/|q ∩ X|``, or ``w(x)/W``) and the sequence is
        exchangeable, matching :meth:`sample`.
        """
        ql, qr = self.coerce_queries(queries)
        return self._sample_many(ql, qr, sample_size, random_state, on_empty)

    def _sample_many(
        self,
        ql: np.ndarray,
        qr: np.ndarray,
        sample_size: int,
        random_state: RandomState = None,
        on_empty: str = "empty",
    ) -> list[np.ndarray]:
        """:meth:`sample_many` over pre-coerced endpoint arrays."""
        sample_size = validate_sample_size(sample_size)
        rng = resolve_rng(random_state)
        nq = int(ql.shape[0])
        records = self.collect_records_batch(ql, qr)

        rec_per_query = np.bincount(records.query, minlength=nq) if len(records) else np.zeros(
            nq, dtype=_ID
        )
        rec_end = np.cumsum(rec_per_query)
        rec_start = rec_end - rec_per_query
        total_weight = np.zeros(nq, dtype=_F8)
        np.add.at(total_weight, records.query, records.weight)
        answerable = (rec_per_query > 0) & (total_weight > 0)

        if on_empty == "raise":
            if not answerable.all():
                bad = int(np.flatnonzero(~answerable)[0])
                raise EmptyResultError(
                    f"query [{ql[bad]}, {qr[bad]}] matched no intervals"
                )
        elif on_empty != "empty":
            raise ValueError(f"on_empty must be 'empty' or 'raise', got {on_empty!r}")

        empty = np.empty(0, dtype=_ID)
        if sample_size == 0 or not answerable.any():
            return [empty.copy() for _ in range(nq)]

        draw_queries = np.flatnonzero(answerable)
        n_live = draw_queries.shape[0]

        # Pass 1: how many of each query's draws land in each of its records.
        # Dense (live queries x max records) weight matrix -> one batched
        # multinomial; the matrix is tiny because records are O(log n) few.
        # Width must cover every query that owns records — unanswerable
        # queries (zero total weight) still scatter their records below.
        width = int(rec_per_query.max())
        ordinal = np.arange(len(records), dtype=_ID) - rec_start[records.query]
        dense = np.zeros((nq, width), dtype=_F8)
        dense[records.query, ordinal] = records.weight
        pvals = dense[draw_queries] / total_weight[draw_queries, None]
        hits = rng.multinomial(sample_size, pvals)  # (n_live, width)

        # Map every (query, ordinal) cell back to its flat record index and
        # expand to one entry per draw; draws come out grouped by query (each
        # query contributes exactly sample_size of them, contiguously).
        # Per-draw intermediates use 32-bit indices when the pools allow it —
        # they are the hot multi-million-element arrays, and halving their
        # width measurably cuts the wall-clock of the whole pass.
        idx_dtype = np.int32 if self._all_ids.shape[0] < 2**31 - 1 else _ID
        cell_record = rec_start[draw_queries][:, None] + np.arange(width, dtype=_ID)[None, :]
        cell_record = np.minimum(cell_record, len(records) - 1)  # padding cells get 0 hits
        chosen = np.repeat(cell_record.astype(idx_dtype).ravel(), hits.ravel())

        # Pass 2: pick a position inside the chosen record.
        n_draws = chosen.shape[0]
        if self._weighted:
            positions = segmented_inverse_cdf(
                self._all_weight_prefix,
                records.glo[chosen],
                records.ghi[chosen],
                rng.random(n_draws),
                base=records.gbase[chosen],
            )
        else:
            lengths = records.counts.astype(idx_dtype)[chosen]
            # floor(u * len) can round up to len for very long records; clamp.
            offsets = (rng.random(n_draws) * lengths).astype(idx_dtype)
            np.minimum(offsets, lengths - 1, out=offsets)
            positions = records.glo.astype(idx_dtype)[chosen]
            positions += offsets
        # Restore per-position i.i.d. order: the draws arrive grouped by
        # record; a uniform permutation of each row makes the sequence
        # exchangeable again (see docstring).  Shuffling the (narrower)
        # position array is cheaper than shuffling the gathered ids.
        positions_2d = positions.reshape(n_live, sample_size)
        rng.permuted(positions_2d, axis=1, out=positions_2d)
        ids = self._all_ids[positions].reshape(n_live, sample_size)

        out: list[np.ndarray] = [empty] * nq
        for row, q in enumerate(draw_queries):
            out[int(q)] = ids[row]
        return out

    # ------------------------------------------------------------------ #
    # scalar fast paths
    # ------------------------------------------------------------------ #
    def collect_ranges(self, query: QueryLike) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Scalar record collection over the flat arrays.

        Returns ``(glo, ghi, gbase, weight)`` arrays — one entry per record,
        indices into the id super-pool — without touching any node objects.
        """
        ql, qr = coerce_query(query)
        glo: list[int] = []
        ghi: list[int] = []
        gbase: list[int] = []
        if self.node_count == 0:
            z = np.empty(0, dtype=_ID)
            return z, z, z, np.empty(0, dtype=_F8)
        kb = self._kind_base
        node = 0
        while node >= 0:
            center = self._centers[node]
            off = int(self._stab_off[node])
            ln = int(self._stab_len[node])
            if qr < center:
                hi = int(np.searchsorted(self._stab_lefts[off : off + ln], qr, side="right")) - 1
                if hi >= 0:
                    glo.append(kb[0] + off)
                    ghi.append(kb[0] + off + hi)
                    gbase.append(kb[0] + off)
                node = int(self._left_child[node])
            elif center < ql:
                lo = int(np.searchsorted(self._stab_rights[off : off + ln], ql, side="left"))
                if lo < ln:
                    glo.append(kb[1] + off + lo)
                    ghi.append(kb[1] + off + ln - 1)
                    gbase.append(kb[1] + off)
                node = int(self._right_child[node])
            else:
                if ln:
                    glo.append(kb[0] + off)
                    ghi.append(kb[0] + off + ln - 1)
                    gbase.append(kb[0] + off)
                child = int(self._left_child[node])
                if child >= 0:
                    soff = int(self._sub_off[child])
                    sln = int(self._sub_len[child])
                    lo = int(
                        np.searchsorted(self._sub_rights[soff : soff + sln], ql, side="left")
                    )
                    if lo < sln:
                        glo.append(kb[2] + soff + lo)
                        ghi.append(kb[2] + soff + sln - 1)
                        gbase.append(kb[2] + soff)
                child = int(self._right_child[node])
                if child >= 0:
                    soff = int(self._sub_off[child])
                    sln = int(self._sub_len[child])
                    hi = (
                        int(np.searchsorted(self._sub_lefts[soff : soff + sln], qr, side="right"))
                        - 1
                    )
                    if hi >= 0:
                        glo.append(kb[3] + soff)
                        ghi.append(kb[3] + soff + hi)
                        gbase.append(kb[3] + soff)
                break
        glo_arr = np.asarray(glo, dtype=_ID)
        ghi_arr = np.asarray(ghi, dtype=_ID)
        gbase_arr = np.asarray(gbase, dtype=_ID)
        weight = record_weights(
            self._all_weight_prefix if self._weighted else None, glo_arr, ghi_arr, gbase_arr
        )
        return glo_arr, ghi_arr, gbase_arr, weight

    def count(self, query: QueryLike) -> int:
        """Scalar count over the flat arrays (pooled inserts excluded).

        Uses the same two-binary-search identity as :meth:`count_many`.
        """
        ql, qr = coerce_query(query)
        if self.node_count == 0:
            return 0
        not_right = int(np.searchsorted(self._sorted_lefts, qr, side="right"))
        left_of = int(np.searchsorted(self._sorted_rights, ql, side="left"))
        return not_right - left_of

    def report(self, query: QueryLike) -> np.ndarray:
        """Scalar reporting over the flat arrays (pooled inserts excluded)."""
        glo, ghi, _, _ = self.collect_ranges(query)
        if glo.shape[0] == 0:
            return np.empty(0, dtype=_ID)
        return self._all_ids[_ranges_to_indices(glo, ghi - glo + 1)]

    def sample(
        self,
        query: QueryLike,
        sample_size: int,
        random_state: RandomState = None,
        on_empty: str = "empty",
    ) -> np.ndarray:
        """Scalar sampling over the flat arrays, without alias-table builds.

        Records are ``O(log n)`` few, so record selection uses a direct draw
        when <= 2 records survive (the common case for small queries) and one
        cumulative inverse-CDF search otherwise — both cheaper than building
        a Walker table per query.
        """
        ql, qr = coerce_query(query)
        sample_size = validate_sample_size(sample_size)
        rng = resolve_rng(random_state)
        glo, ghi, gbase, weight = self.collect_ranges((ql, qr))
        total = float(weight.sum())
        if glo.shape[0] == 0 or total <= 0:
            if on_empty == "raise":
                raise EmptyResultError(f"query [{ql}, {qr}] matched no intervals")
            if on_empty != "empty":
                raise ValueError(f"on_empty must be 'empty' or 'raise', got {on_empty!r}")
            return np.empty(0, dtype=_ID)
        if sample_size == 0:
            return np.empty(0, dtype=_ID)

        n_records = glo.shape[0]
        if n_records == 1:
            chosen = np.zeros(sample_size, dtype=_ID)
        elif n_records == 2:
            chosen = (rng.random(sample_size) * total >= weight[0]).astype(_ID)
        else:
            prefix = np.cumsum(weight)
            chosen = np.searchsorted(prefix, rng.random(sample_size) * total, side="right")
            chosen = np.minimum(chosen, n_records - 1)

        rec_glo = glo[chosen]
        if self._weighted:
            positions = segmented_inverse_cdf(
                self._all_weight_prefix,
                rec_glo,
                ghi[chosen],
                rng.random(sample_size),
                base=gbase[chosen],
            )
        else:
            lengths = (ghi - glo + 1)[chosen]
            positions = rec_glo + rng.integers(0, lengths)
        return self._all_ids[positions]
