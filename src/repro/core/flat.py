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
* the root's two sorted endpoint columns and one ``root_ids`` table: the
  interval ids in by-left order, then in by-right order;
* three concatenated *list pools* — the per-node stab lists sorted by left and
  by right endpoint, and one subtree list per non-root node — holding one
  int64 *position key* per entry (:meth:`FlatAIT._rank_search`).  A node
  keeps only the subtree list its parent's case 3 reads: by right endpoint
  for a left child (``AL^r``), by left endpoint for a right child
  (``AL^l``).  The root keeps none: its lists are the root columns;
* for weighted trees, inclusive weight prefix sums aligned with the list
  pools, then the prefix sums of the root's two columns.

Every node's list is a subsequence of the root's sorted order, so an entry
is fully described by its node and its position ``p`` in the root column:
its key is ``node * M + p`` (``p`` offset by ``n`` for by-right lists), its
id is ``root_ids[key % M]`` and its endpoint is the root column at ``p``.

On top of that layout it offers **batch** query APIs — :meth:`count_many`,
:meth:`report_many`, :meth:`sample_many`, :meth:`total_weight_many` — that
advance *all* queries through the tree level-synchronously: one round
classifies every live query against its current node's center (the three
cases of Algorithm 1) with pure array ops, resolves all binary searches of
the round with one global ``np.searchsorted`` per search site over the
position keys (see :meth:`FlatAIT._rank_search`), emits node records as
flat arrays, and descends.  The per-query Python interpreter work drops from
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

from ..sampling.cumulative import (
    record_weights,
    segmented_inverse_cdf,
    segmented_searchsorted,
)
from ..sampling.rng import RandomState, resolve_rng
from .errors import (
    EmptyResultError,
    InvalidIntervalError,
    InvalidWeightError,
    StructureStateError,
)
from .query import QueryLike, coerce_query, coerce_query_batch, validate_sample_size

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .ait import AIT

__all__ = ["FlatAIT", "draw_ranks", "validate_columns"]

_ID = np.int64
_F8 = np.float64
#: Keys turned into ids per step by :meth:`FlatAIT._keys_to_ids`.
_ID_BLOCK = 1 << 14

#: The pool of each :class:`~repro.core.records.ListKind` in the key super-pool:
#: stab by left, stab by right, and one subtree pool for both subtree kinds
#: (2 = by right, held by left children; 3 = by left, held by right children).
_KIND_POOL = (0, 1, 2, 2)


class _RecordBatch:
    """Node records for a whole query batch, as flat parallel arrays.

    ``query`` holds the query ordinal of each record; ``glo``/``ghi`` the
    inclusive global index range into the concatenated key super-pool
    (:attr:`FlatAIT._all_keys`); ``gbase`` the start of the owning node
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


def _key_modulus(n: int) -> int:
    """The key modulus ``M`` for ``n`` intervals: a power of two above ``2n``.

    Ranks run over ``[0, 2n]`` (by-right positions are offset by ``n``), so
    ``node * M + rank`` never reaches the next node's keys, and ``key % M``
    is ``key & (M - 1)``.
    """
    return 1 << (2 * n).bit_length()


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: where each of back-to-back segments starts."""
    return (np.cumsum(lengths) - lengths).astype(_ID, copy=False)


def _pool_bounds(stab_len: np.ndarray, sub_len: np.ndarray) -> np.ndarray:
    """Where each of the three pools starts in the super-pool, and where the last ends."""
    stab, sub = int(stab_len.sum()), int(sub_len.sum())
    return np.array([0, stab, 2 * stab, 2 * stab + sub], dtype=_ID)


def _left_children(left_child: np.ndarray) -> np.ndarray:
    """Per node, whether it is a left child: it keeps its subtree list by right endpoint."""
    mask = np.zeros(left_child.shape[0], dtype=bool)
    mask[left_child[left_child >= 0]] = True
    return mask


def _node_keys(lengths: np.ndarray, m: int) -> np.ndarray:
    """``node * m`` for every list entry, given each node's list length."""
    return np.repeat(np.arange(lengths.shape[0], dtype=_ID) * m, lengths)


def draw_ranks(uniforms: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Turn uniforms ``(rows, s)`` in ``[0, 1)`` into ranks over per-row masses.

    An integer mass ``M`` (an interval count) gives the exact integer rank
    ``floor(u * M)`` in ``[0, M)``; a float mass ``W`` (a total weight) gives
    the point ``u * W`` in ``[0, W)``.  Both clamp the ``u`` whose product
    rounds up to the mass itself.
    """
    scaled = uniforms * mass[:, None]
    if mass.dtype.kind == "f":
        return np.minimum(scaled, np.nextafter(mass, 0.0)[:, None], out=scaled)
    ranks = scaled.astype(_ID)
    return np.minimum(ranks, mass[:, None] - 1, out=ranks)


def validate_columns(lefts, rights, weights=None):
    """Interval columns as contiguous float64 arrays, or a typed error.

    Rejects columns of unequal length, non-finite endpoints, a left endpoint
    above its right one, and (when ``weights`` is given) weights that are
    not finite and non-negative or whose sum overflows.  Returns
    ``(lefts, rights, weights)``; ``weights`` stays ``None`` when not given.
    """
    lefts = np.ascontiguousarray(lefts, dtype=_F8).reshape(-1)
    rights = np.ascontiguousarray(rights, dtype=_F8).reshape(-1)
    n = int(lefts.shape[0])
    if int(rights.shape[0]) != n:
        raise InvalidIntervalError(
            f"expected equally long columns, got {n} lefts and {rights.shape[0]} rights"
        )
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
    if weights is not None:
        weights = np.ascontiguousarray(weights, dtype=_F8).reshape(-1)
        if int(weights.shape[0]) != n:
            raise InvalidWeightError(f"got {weights.shape[0]} weights for {n} intervals")
        valid = np.isfinite(weights) & (weights >= 0)
        if not valid.all():
            bad = int(np.flatnonzero(~valid)[0])
            raise InvalidWeightError(
                f"interval weight must be finite and non-negative, got "
                f"{weights[bad]!r} at position {bad}"
            )
        with np.errstate(over="ignore"):
            total = float(weights.sum())
        if not np.isfinite(total):
            raise InvalidWeightError(
                f"interval weights must be finite and non-negative with a finite sum, "
                f"got a sum of {total} over {n} weights"
            )
    return lefts, rights, weights


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

    #: Snapshot array schema: ``(public name, attribute)`` for the 12 arrays,
    #: in constructor order.  Shared by the persistence layer
    #: (:mod:`repro.persist.snapshot`) and the shared-memory publisher
    #: (:mod:`repro.service.shm`), so every serialisation of a snapshot
    #: enumerates exactly the same fields.  ``all_keys`` holds the three list
    #: pools (``sub_off``/``sub_len`` locate each node's one subtree list);
    #: ``all_weight_prefix`` is ``None`` for unweighted snapshots.
    CORE_FIELDS = (
        ("centers", "_centers"),
        ("left_child", "_left_child"),
        ("right_child", "_right_child"),
        ("stab_off", "_stab_off"),
        ("stab_len", "_stab_len"),
        ("sub_off", "_sub_off"),
        ("sub_len", "_sub_len"),
        ("sorted_lefts", "_sorted_lefts"),
        ("sorted_rights", "_sorted_rights"),
        ("root_ids", "_root_ids"),
        ("all_keys", "_all_keys"),
        ("all_weight_prefix", "_all_weight_prefix"),
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
        sorted_lefts: np.ndarray,
        sorted_rights: np.ndarray,
        root_ids: np.ndarray,
        all_keys: np.ndarray,
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
        # The root's sorted endpoint columns, and the ids in both orders
        # (by-left positions first, by-right positions after them).
        self._sorted_lefts = sorted_lefts
        self._sorted_rights = sorted_rights
        self._root_ids = root_ids
        # Key super-pool: stab-by-left, stab-by-right and subtree pools back
        # to back, so a (kind, pool index) pair maps to one flat index.  The
        # weight prefixes follow the same layout, then the root columns'.
        self._all_keys = all_keys
        self._all_weight_prefix = all_weight_prefix
        self._weighted = bool(weighted)
        self._rank_m = _key_modulus(int(sorted_lefts.shape[0]))
        self._pool_base = pb = _pool_bounds(stab_len, sub_len)
        self._kind_base = pb[list(_KIND_POOL)]
        self._kind_keys = tuple(all_keys[pb[p] : pb[p + 1]] for p in _KIND_POOL)

    @classmethod
    def from_id_pools(
        cls, structure, sorted_lefts, sorted_rights, root_ids, all_ids, all_weight_prefix,
        weighted,
    ) -> "FlatAIT":
        """Build a snapshot from list pools of interval ids.

        ``structure`` holds the seven node arrays in :attr:`CORE_FIELDS`
        order, ``root_ids`` the ids in the root's by-left then by-right
        order, and ``all_ids`` the ids of every list entry in key super-pool
        order: the two stab pools, then each non-root node's one subtree
        list.  Each id becomes its position in the root order, through a
        scatter table when the ids are dense and one ``searchsorted`` over
        the sorted ids when they are sparse.  Raises
        :class:`StructureStateError` when a node's list is not a subsequence
        of the root order: its keys would not increase.
        """
        stab_len, sub_len = structure[4], structure[6]
        n = int(sorted_lefts.shape[0])
        root_ids = np.asarray(root_ids, dtype=_ID)
        if n and int(root_ids.max()) < max(16 * n, 1 << 20):
            # Dense id space (every internal caller: ids are column rows).
            size = int(root_ids.max()) + 1

            def slot(ids):
                return ids
        else:
            # Sparse id space: compact the ids instead of an id-sized table.
            size, unique_ids = n, np.sort(root_ids[:n])

            def slot(ids):
                return np.searchsorted(unique_ids, ids)
        # Row 0: by-left positions; row 1: by-right positions, offset by n.
        position_of = np.empty((2, size), dtype=_ID)
        position_of[0, slot(root_ids[:n])] = np.arange(n, dtype=_ID)
        position_of[1, slot(root_ids[n:])] = np.arange(n, 2 * n, dtype=_ID)
        m = _key_modulus(n)
        pb = _pool_bounds(stab_len, sub_len)
        sides = (0, 1, np.repeat(_left_children(structure[1]).astype(_ID), sub_len))
        all_keys = np.empty(all_ids.shape[0], dtype=_ID)
        for pool, lengths in enumerate((stab_len, stab_len, sub_len)):
            keys = _node_keys(lengths, m)
            keys += position_of[sides[pool], slot(all_ids[pb[pool] : pb[pool + 1]])]
            if not (keys[1:] > keys[:-1]).all():
                raise StructureStateError(
                    "a node list is not a subsequence of the root's sort order"
                )
            all_keys[pb[pool] : pb[pool + 1]] = keys
        return cls(
            *structure,
            sorted_lefts,
            sorted_rights,
            root_ids,
            all_keys,
            all_weight_prefix,
            weighted,
        )

    def _rank_search(self, kind: int, nodes: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Insertion points of root ranks inside the given nodes' lists of one kind.

        ``ranks`` are ``searchsorted`` ranks of needles in the root's sorted
        column of the list's endpoint, offset by ``n`` for by-right lists
        like the keys (:meth:`_query_ranks`).  A list entry's key is
        ``node * M + p`` for its position ``p`` in the same column, and a
        node's entries appear in root order, so searching the kind's key
        pool for ``node * M + rank`` finds exactly the per-node
        ``searchsorted`` of the needle: one global search for every node.
        Returns indices into the kind's pool.
        """
        return np.searchsorted(self._kind_keys[kind], nodes * self._rank_m + ranks, side="left")

    def _query_ranks(self, ql, qr):
        """Per query, the ranks of ``q.r`` for by-left lists and ``q.l`` for by-right ones.

        Every search of a descent places ``q.r`` in a by-left list (entries
        with ``left <= q.r``) or ``q.l`` in a by-right list (entries with
        ``right < q.l``), so two root searches per query serve every node.
        """
        not_right, left_of = self._endpoint_ranks(ql, qr)
        return not_right, left_of + self._sorted_lefts.shape[0]

    def _ids_at(self, positions: np.ndarray) -> np.ndarray:
        """Interval ids of the key super-pool entries at ``positions``."""
        return self._keys_to_ids(self._all_keys[positions])

    def _keys_to_ids(self, keys: np.ndarray) -> np.ndarray:
        """Overwrite a writable array of position keys with their interval ids.

        Block by block, so no temporary as large as ``keys`` is allocated:
        a fresh large buffer pays a page fault per page on first touch.
        """
        mask = self._rank_m - 1
        for start in range(0, keys.shape[0], _ID_BLOCK):
            block = keys[start : start + _ID_BLOCK]
            block[:] = self._root_ids[block & mask]
        return keys

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
    def from_tree(cls, tree: "AIT") -> "FlatAIT":
        """Serialise the current structure of ``tree``: walk every node, gather every kept list."""
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
            # The root keeps no subtree list: the root columns are its lists.
            sub_len[i] = node.subtree_ids_by_left.shape[0] if i else 0
        by_right = _left_children(left_child)

        def _cat(arrays, dtype):
            if not arrays:
                return np.empty(0, dtype=dtype)
            return np.concatenate(arrays).astype(dtype, copy=False)

        def kept(by_right_list, by_left_list):
            return [
                getattr(v, by_right_list if r else by_left_list)
                for v, r in zip(nodes[1:], by_right[1:])
            ]

        root = nodes[:1]
        all_ids = _cat(
            [v.stab_ids_by_left for v in nodes]
            + [v.stab_ids_by_right for v in nodes]
            + kept("subtree_ids_by_right", "subtree_ids_by_left"),
            _ID,
        )
        all_weight_prefix = None
        if weighted:
            all_weight_prefix = _cat(
                [v.stab_weight_by_left for v in nodes]
                + [v.stab_weight_by_right for v in nodes]
                + kept("subtree_weight_by_right", "subtree_weight_by_left")
                + [v.subtree_weight_by_left for v in root]
                + [v.subtree_weight_by_right for v in root],
                _F8,
            )
        structure = (
            centers,
            left_child,
            right_child,
            _offsets(stab_len),
            stab_len,
            _offsets(sub_len),
            sub_len,
        )
        return cls.from_id_pools(
            structure,
            _cat([v.subtree_lefts for v in root], _F8),
            _cat([v.subtree_rights for v in root], _F8),
            _cat(
                [v.subtree_ids_by_left for v in root] + [v.subtree_ids_by_right for v in root],
                _ID,
            ),
            all_ids,
            all_weight_prefix,
            weighted,
        )

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
        lefts, rights, weights = validate_columns(lefts, rights, weights)
        n = int(lefts.shape[0])
        if ids is None:
            ids = np.arange(n, dtype=_ID)
        else:
            ids = np.ascontiguousarray(ids, dtype=_ID).reshape(-1)
            if int(ids.shape[0]) != n:
                raise InvalidIntervalError(
                    f"from_arrays got {ids.shape[0]} ids for {n} intervals"
                )
            # Ids name intervals, and from_id_pools maps each id to one root
            # position: reject duplicate or negative ids like every other
            # malformed input.
            if n and int(ids.min()) < 0:
                raise InvalidIntervalError("from_arrays ids must be non-negative")
            if n and int(np.unique(ids).shape[0]) != n:
                raise InvalidIntervalError("from_arrays ids must be unique")
        weighted = weights is not None

        if n == 0:
            f8, i8 = np.empty(0, dtype=_F8), np.empty(0, dtype=_ID)
            return cls(f8, *[i8] * 6, f8, f8, i8, i8, f8 if weighted else None, weighted)

        # ---- level-synchronous partitioning over positions 0..n-1 -------- #
        # Two pools, each grouped into contiguous per-node segments: the live
        # interval positions in by-left order and in by-right order.  Both
        # inherit their in-segment ordering through the boolean-mask splits
        # below, exactly like the recursive build's children do.  Positions
        # are 32-bit where possible — these are the hot per-level arrays, and
        # halving their width measurably cuts the whole build.
        pos_dtype = np.int32 if n < 2**31 - 1 else _ID
        order_l = cur_l = np.argsort(lefts, kind="stable").astype(pos_dtype, copy=False)
        order_r = cur_r = np.argsort(rights, kind="stable").astype(pos_dtype, copy=False)
        seg_len = np.array([n], dtype=_ID)
        # Every position's root rank: its place in the by-left order, and n
        # plus its place in the by-right order (the keys' ``p``).
        by_left = np.empty(n, dtype=_ID)
        by_left[order_l] = np.arange(n, dtype=_ID)
        by_right = np.empty(n, dtype=_ID)
        by_right[order_r] = np.arange(n, 2 * n, dtype=_ID)

        cls_buf = np.empty(n, dtype=np.int8)

        lv_centers: list[np.ndarray] = []
        lv_seg_len: list[np.ndarray] = []
        lv_stab_counts: list[np.ndarray] = []
        lv_stab_l: list[np.ndarray] = []
        lv_stab_r: list[np.ndarray] = []
        # Root ranks of each level's kept subtree lists (the root keeps none).
        lv_sub: list[np.ndarray] = [np.empty(0, dtype=_ID)]
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
                # A left child keeps its by-right list, a right child its
                # by-left list: the one its parent's case 3 reads.
                split = int(left_counts.sum())
                lv_sub.append(
                    np.concatenate((by_right[cur_r[:split]], by_left[cur_l[split:]]))
                )
            else:
                seg_len = np.empty(0, dtype=_ID)

        # ---- BFS -> preorder renumbering --------------------------------- #
        total_nodes = node_total
        bfs_center = np.concatenate(lv_centers)
        bfs_sub_len = np.concatenate(lv_seg_len).astype(_ID, copy=False)
        bfs_sub_len[0] = 0
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

        # ---- pool assembly in preorder ----------------------------------- #
        # The level-concatenated stab and subtree arrays hold every node's
        # segment in BFS order, so their BFS offsets are running sums; one
        # index expansion per pool family gathers the segments in preorder.
        stab_start = np.empty(total_nodes, dtype=_ID)
        stab_start[pos] = _offsets(bfs_stab_len)
        sub_start = np.empty(total_nodes, dtype=_ID)
        sub_start[pos] = _offsets(bfs_sub_len)
        nz = stab_len > 0
        stab_idx = _ranges_to_indices(stab_start[nz], stab_len[nz])
        nz = sub_len > 0
        sub_idx = _ranges_to_indices(sub_start[nz], sub_len[nz])
        stab_pos_l = np.concatenate(lv_stab_l)[stab_idx]
        stab_pos_r = np.concatenate(lv_stab_r)[stab_idx]
        sub_ranks = np.concatenate(lv_sub)[sub_idx]

        # Position keys: each entry's node times M plus its root rank.
        m = _key_modulus(n)
        stab_keys = _node_keys(stab_len, m)
        all_keys = np.concatenate(
            (
                stab_keys + by_left[stab_pos_l],
                stab_keys + by_right[stab_pos_r],
                _node_keys(sub_len, m) + sub_ranks,
            )
        )
        all_weight_prefix = None
        if weighted:
            # Weights in root rank order: by-left ranks, then by-right ones.
            root_weights = np.concatenate((weights[order_l], weights[order_r]))
            all_weight_prefix = np.concatenate(
                (
                    segmented_cumsum(weights[stab_pos_l], stab_len),
                    segmented_cumsum(weights[stab_pos_r], stab_len),
                    segmented_cumsum(root_weights[sub_ranks], sub_len),
                    segmented_cumsum(root_weights, np.array([n, n], dtype=_ID)),
                )
            )
        return cls(
            centers,
            left_child,
            right_child,
            _offsets(stab_len),
            stab_len,
            _offsets(sub_len),
            sub_len,
            lefts[order_l],
            rights[order_r],
            np.concatenate((ids[order_l], ids[order_r])),
            all_keys,
            all_weight_prefix,
            weighted,
        )

    def to_buffers(self) -> dict[str, np.ndarray]:
        """Every array of this snapshot as a flat ``{name: array}`` mapping.

        The inverse of :meth:`from_buffers`, keyed by the
        :attr:`CORE_FIELDS` names.  ``None`` entries (the weight prefix of
        an unweighted snapshot) are omitted.  The arrays are the live ones,
        not copies — callers serialising them must copy.
        """
        out: dict[str, np.ndarray] = {}
        for name, attr in self.CORE_FIELDS:
            array = getattr(self, attr)
            if array is not None:
                out[name] = array
        return out

    @classmethod
    def from_buffers(cls, arrays: dict, weighted: bool) -> "FlatAIT":
        """Reassemble a snapshot around existing buffers without copying.

        ``arrays`` maps :attr:`CORE_FIELDS` names to arrays — typically
        views into a memory-mapped snapshot file or a
        ``multiprocessing.shared_memory`` segment.  Only the per-node list
        lengths are read (to find the three pools in the key super-pool), so
        attaching touches no list page.  The returned snapshot aliases the
        given buffers: they must outlive it and stay unmodified.
        """
        if arrays.get("all_weight_prefix") is None and weighted:
            raise InvalidWeightError(
                "weighted snapshot buffers are missing the all_weight_prefix array"
            )
        return cls(*(arrays.get(name) for name, _ in cls.CORE_FIELDS), weighted)

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

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def node_count(self) -> int:
        """Number of serialised tree nodes."""
        return int(self._centers.shape[0])

    def arrays_equal(self, other: "FlatAIT") -> bool:
        """True when every array of both snapshots is bit-identical.

        The shared equality oracle for the two build routes
        (:meth:`from_tree` / :meth:`from_arrays`): every
        :attr:`CORE_FIELDS` array, dtype included.  Used by the equivalence
        tests, the ``build_throughput`` experiment and
        ``scripts/bench_build.py`` so "equal" means one thing everywhere.
        """
        if self._weighted != other._weighted:
            return False
        for _, attr in self.CORE_FIELDS:
            mine = getattr(self, attr)
            theirs = getattr(other, attr)
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

    def nbytes(self) -> int:
        """Memory footprint of the snapshot in bytes: every :attr:`CORE_FIELDS` array."""
        return sum(int(array.nbytes) for array in self.to_buffers().values())

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path, fsync: bool = True) -> None:
        """Write this snapshot to a checksummed, page-aligned container file.

        The file stores every :attr:`CORE_FIELDS` array behind a
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
        search of the round via the position keys (:meth:`_rank_search` —
        one global ``np.searchsorted`` per search site, on ranks computed
        once per query by :meth:`_query_ranks`), emit the resulting records,
        and step to the child (case 3 terminates a query after emitting up
        to three records).

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
            rank_r, rank_l = self._query_ranks(ql, qr)
            while qidx.shape[0]:
                center = self._centers[node]
                c1 = live_r < center
                c2 = center < live_l
                c3 = ~(c1 | c2)

                if c1.any():
                    n1 = node[c1]
                    off = self._stab_off[n1]
                    ins = self._rank_search(0, n1, rank_r[c1])
                    hi = ins - 1
                    ok = hi >= off
                    emit(qidx[c1][ok], 0, off[ok], hi[ok], off[ok])

                if c2.any():
                    n2 = node[c2]
                    off = self._stab_off[n2]
                    end = off + self._stab_len[n2]
                    ins = self._rank_search(1, n2, rank_l[c2])
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
                        ins = self._rank_search(2, child, rank_l[c3][has])
                        ok = ins < end
                        emit(q3[has][ok], 2, ins[ok], end[ok] - 1, off[ok])
                    # Right child: subtree list by left endpoint vs q.r.
                    rc = self._right_child[n3]
                    has = rc >= 0
                    if has.any():
                        child = rc[has]
                        off = self._sub_off[child]
                        ins = self._rank_search(3, child, rank_r[c3][has])
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
                rank_l = rank_l[alive]
                rank_r = rank_r[alive]

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
        ``|q ∩ X| = #(lefts <= q.r) - #(rights < q.l)``.  The root's sorted
        endpoint columns hold every interval, so the whole batch reduces to
        two ``np.searchsorted`` calls — no traversal at all.
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

        Same inclusion-exclusion as :meth:`count_many`, read off the weight
        prefixes of the root's two sorted columns, stored after the list
        pools: ``W(q ∩ X) = W(lefts <= q.r) - W(rights < q.l)``.
        """
        return self._total_weight_many(*self.coerce_queries(queries))

    def _total_weight_many(self, ql: np.ndarray, qr: np.ndarray) -> np.ndarray:
        """:meth:`total_weight_many` over pre-coerced endpoint arrays."""
        nq = int(ql.shape[0])
        if self.node_count == 0:
            return np.zeros(nq, dtype=_F8)
        if not self._weighted:
            return self._count_many(ql, qr).astype(_F8)
        # The root columns' prefixes follow the list pools: by left, then by right.
        root = self._all_weight_prefix[self._pool_base[3] :]
        n_active = self._sorted_lefts.shape[0]
        prefix_by_left, prefix_by_right = root[:n_active], root[n_active:]
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
                flat[pos:end] = self._all_keys[glo[i] : ghi[i] + 1]
                pos = end
            self._keys_to_ids(flat)
        else:
            flat = self._ids_at(_ranges_to_indices(records.glo, counts))
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

        Every draw is one uniform ``u``, turned into a *rank* over the
        query's overlap: ``floor(u * count)``, or ``u * weight`` for weighted
        snapshots.  The rank lands in one record (a ``searchsorted`` over the
        query's cumulative record masses) and then on one member of it
        (:meth:`_ids_at_ranks`).  Ranks order the overlap record by record,
        so a uniform rank is a uniform (weight-proportional) draw — the
        paper's record-then-member argument (Theorem 3 / Corollary 5) — and
        every cell of the output is an independent draw with the scalar
        per-draw law, with no grouping by record to undo.
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
        if self._weighted:
            mass = np.bincount(records.query, records.weight, minlength=nq)
        else:
            mass = np.bincount(records.query, records.counts, minlength=nq).astype(_ID)
        answerable = mass > 0

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

        live = np.flatnonzero(answerable)
        ranks = draw_ranks(rng.random((live.shape[0], sample_size)), mass[live])
        query_of = np.broadcast_to(live[:, None], ranks.shape).ravel()
        ids = self._ids_at_ranks(records, nq, query_of, ranks.ravel())
        ids = ids.reshape(ranks.shape)

        out: list[np.ndarray] = [empty] * nq
        for row, q in enumerate(live):
            out[int(q)] = ids[row]
        return out

    def _ids_at_ranks(
        self,
        records: _RecordBatch,
        nq: int,
        query_of: np.ndarray,
        ranks: np.ndarray,
    ) -> np.ndarray:
        """The snapshot id at ``ranks[i]`` of the overlap of query ``query_of[i]``.

        ``records`` are the batch's records (:meth:`collect_records_batch`
        over ``nq`` queries).  A query's overlap is ordered record by record,
        in traversal order, and within a record in pool order; an unweighted
        rank is an integer position in ``[0, count)``, a weighted one a point
        in ``[0, weight)`` of the concatenated member weights.  A rank past
        the query's mass (a stale caller) is clamped to the last member, and
        a draw whose query has no records gets ``-1``.
        """
        per_query = np.bincount(records.query, minlength=nq)
        found = per_query[query_of] > 0 if not per_query.all() else None
        if found is not None:
            ids = np.full(query_of.shape[0], -1, dtype=_ID)
            query_of, ranks = query_of[found], ranks[found]
        if query_of.shape[0] == 0:
            return np.empty(0, dtype=_ID) if found is None else ids
        stop = np.cumsum(per_query)
        first = stop - per_query
        lo, hi = first[query_of], stop[query_of]
        if not self._weighted:
            # One global search: the records' cumulative counts, offset by
            # the mass of the batch's earlier queries, are exact integers.
            counts = records.counts
            ends = np.cumsum(counts)
            starts = ends - counts
            total = ends[hi - 1] - starts[lo]
            target = starts[lo] + np.minimum(ranks, total - 1)
            rec = np.searchsorted(ends, target, side="right")
            positions = records.glo[rec] + (target - starts[rec])
        else:
            # Cumulative weights restart at every query (summed row by row,
            # so they do not depend on the rest of the batch), and a rank is
            # searched for among its own query's records only.
            ordinal = np.arange(len(records), dtype=_ID) - first[records.query]
            dense = np.zeros((nq, int(per_query.max())), dtype=_F8)
            dense[records.query, ordinal] = records.weight
            np.cumsum(dense, axis=1, out=dense)
            ends = dense[records.query, ordinal]
            rec = segmented_searchsorted(ends, lo, hi, ranks, side="right")
            np.minimum(rec, hi - 1, out=rec)
            weight = records.weight[rec]
            residual = ranks - np.where(rec > lo, ends[rec - 1], 0.0)
            fraction = np.divide(residual, weight, out=np.zeros_like(residual), where=weight > 0)
            positions = segmented_inverse_cdf(
                self._all_weight_prefix,
                records.glo[rec],
                records.ghi[rec],
                fraction,
                base=records.gbase[rec],
            )
        if found is None:
            return self._ids_at(positions)
        ids[found] = self._ids_at(positions)
        return ids

    # ------------------------------------------------------------------ #
    # scalar fast paths
    # ------------------------------------------------------------------ #
    def collect_ranges(self, query: QueryLike) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Scalar record collection over the flat arrays.

        Returns ``(glo, ghi, gbase, weight)`` arrays — one entry per record,
        indices into the key super-pool — without touching any node objects.
        """
        ql, qr = coerce_query(query)
        glo: list[int] = []
        ghi: list[int] = []
        gbase: list[int] = []
        if self.node_count == 0:
            z = np.empty(0, dtype=_ID)
            return z, z, z, np.empty(0, dtype=_F8)
        kb = self._kind_base
        rank_r, rank_l = self._query_ranks(ql, qr)
        node = 0
        while node >= 0:
            center = self._centers[node]
            off = int(self._stab_off[node])
            ln = int(self._stab_len[node])
            if qr < center:
                ins = int(self._rank_search(0, node, rank_r))
                if ins > off:
                    glo.append(kb[0] + off)
                    ghi.append(kb[0] + ins - 1)
                    gbase.append(kb[0] + off)
                node = int(self._left_child[node])
            elif center < ql:
                ins = int(self._rank_search(1, node, rank_l))
                if ins < off + ln:
                    glo.append(kb[1] + ins)
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
                    ins = int(self._rank_search(2, child, rank_l))
                    if ins < soff + int(self._sub_len[child]):
                        glo.append(kb[2] + ins)
                        ghi.append(kb[2] + soff + int(self._sub_len[child]) - 1)
                        gbase.append(kb[2] + soff)
                child = int(self._right_child[node])
                if child >= 0:
                    soff = int(self._sub_off[child])
                    ins = int(self._rank_search(3, child, rank_r))
                    if ins > soff:
                        glo.append(kb[3] + soff)
                        ghi.append(kb[3] + ins - 1)
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
        return self._ids_at(_ranges_to_indices(glo, ghi - glo + 1))

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
        return self._ids_at(positions)
