"""Columnar container for interval collections.

The indexes in this library (:class:`~repro.core.ait.AIT`,
:class:`~repro.core.awit.AWIT`, the baselines, ...) all consume an
:class:`IntervalDataset`: a read-mostly, numpy-backed columnar store holding
the left endpoints, right endpoints and weights of ``n`` intervals.  Keeping
the data columnar lets every structure share one copy of the endpoints and
reference intervals by integer id, which is how the paper's C++
implementation works as well.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptyDatasetError, InvalidIntervalError, InvalidWeightError
from .interval import Interval

__all__ = ["IntervalDataset"]


class IntervalDataset:
    """An immutable-by-convention collection of ``n`` intervals.

    Parameters
    ----------
    lefts, rights:
        Array-likes of equal length with ``lefts[i] <= rights[i]``.
    weights:
        Optional array-like of non-negative weights.  When omitted every
        interval gets weight ``1.0`` and :attr:`is_weighted` is False.
    payloads:
        Optional sequence of arbitrary user payloads aligned with the
        intervals.

    Notes
    -----
    The arrays are copied and stored as ``float64``.  Intervals are addressed
    by their integer position (``0 <= i < len(dataset)``); the indexes built
    on top of a dataset store these positions rather than interval objects.

    Examples
    --------
    >>> data = IntervalDataset.from_pairs([(0, 10), (5, 15), (20, 30)])
    >>> len(data)
    3
    >>> data.domain()
    (0.0, 30.0)
    >>> data.overlap_count(4, 12)
    2
    >>> data.is_weighted
    False
    """

    __slots__ = ("_lefts", "_rights", "_weights", "_payloads", "_explicit_weights")

    def __init__(
        self,
        lefts: Iterable[float],
        rights: Iterable[float],
        weights: Iterable[float] | None = None,
        payloads: Sequence | None = None,
    ) -> None:
        lefts_arr = np.asarray(list(lefts) if not isinstance(lefts, np.ndarray) else lefts, dtype=np.float64).copy()
        rights_arr = np.asarray(list(rights) if not isinstance(rights, np.ndarray) else rights, dtype=np.float64).copy()
        if lefts_arr.ndim != 1 or rights_arr.ndim != 1:
            raise InvalidIntervalError("endpoint arrays must be one-dimensional")
        if lefts_arr.shape != rights_arr.shape:
            raise InvalidIntervalError(
                f"endpoint arrays must have equal length, got {lefts_arr.shape[0]} and {rights_arr.shape[0]}"
            )
        if not np.all(np.isfinite(lefts_arr)) or not np.all(np.isfinite(rights_arr)):
            raise InvalidIntervalError("interval endpoints must be finite")
        if np.any(lefts_arr > rights_arr):
            bad = int(np.argmax(lefts_arr > rights_arr))
            raise InvalidIntervalError(
                f"interval {bad} has left endpoint {lefts_arr[bad]} > right endpoint {rights_arr[bad]}"
            )

        if weights is None:
            weights_arr = np.ones_like(lefts_arr)
            explicit = False
        else:
            weights_arr = np.asarray(
                list(weights) if not isinstance(weights, np.ndarray) else weights, dtype=np.float64
            ).copy()
            if weights_arr.shape != lefts_arr.shape:
                raise InvalidWeightError(
                    f"weights must have the same length as the endpoints, got {weights_arr.shape[0]}"
                )
            if not np.all(np.isfinite(weights_arr)) or np.any(weights_arr < 0):
                raise InvalidWeightError("weights must be finite and non-negative")
            with np.errstate(over="ignore"):
                total = float(weights_arr.sum())
            if not np.isfinite(total):
                raise InvalidWeightError(
                    "weights must be finite and non-negative with a finite sum, "
                    f"got a sum of {total}"
                )
            explicit = True

        if payloads is not None and len(payloads) != lefts_arr.shape[0]:
            raise InvalidIntervalError("payloads must have the same length as the endpoints")

        self._lefts = lefts_arr
        self._rights = rights_arr
        self._weights = weights_arr
        self._payloads = list(payloads) if payloads is not None else None
        self._explicit_weights = explicit

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_intervals(cls, intervals: Iterable[Interval]) -> "IntervalDataset":
        """Build a dataset from :class:`~repro.core.interval.Interval` objects."""
        items = list(intervals)
        lefts = [x.left for x in items]
        rights = [x.right for x in items]
        weights = [x.weight for x in items]
        payloads = [x.data for x in items]
        has_weights = any(w != 1.0 for w in weights)
        has_payloads = any(p is not None for p in payloads)
        return cls(
            lefts,
            rights,
            weights if has_weights else None,
            payloads if has_payloads else None,
        )

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[float, float]], weights: Iterable[float] | None = None
    ) -> "IntervalDataset":
        """Build a dataset from ``(left, right)`` pairs."""
        items = list(pairs)
        lefts = [p[0] for p in items]
        rights = [p[1] for p in items]
        return cls(lefts, rights, weights)

    def with_weights(self, weights: Iterable[float]) -> "IntervalDataset":
        """A copy of this dataset carrying the given weights."""
        return IntervalDataset(self._lefts, self._rights, weights, self._payloads)

    def subset(self, indices: Sequence[int] | np.ndarray) -> "IntervalDataset":
        """A new dataset restricted to the intervals at ``indices`` (in order)."""
        idx = np.asarray(indices, dtype=np.int64)
        payloads = [self._payloads[i] for i in idx] if self._payloads is not None else None
        return IntervalDataset(
            self._lefts[idx],
            self._rights[idx],
            self._weights[idx] if self._explicit_weights else None,
            payloads,
        )

    def partition_indices(
        self, num_shards: int, policy: str = "round_robin"
    ) -> list[np.ndarray]:
        """Split the interval ids ``0..n-1`` into ``num_shards`` disjoint groups.

        This is the dataset-partitioning primitive behind
        :class:`repro.service.ShardedEngine`: each returned array names the
        intervals owned by one shard, every id appears in exactly one group,
        and no group is empty.

        Parameters
        ----------
        num_shards:
            Number of groups; must satisfy ``1 <= num_shards <= len(self)``.
        policy:
            ``"round_robin"`` deals ids cyclically (shard ``i`` gets ids
            ``i, i + K, i + 2K, ...``), which balances both cardinality and —
            for workloads uncorrelated with insertion order — query load.
            ``"range"`` sorts the intervals by midpoint and cuts the sorted
            order into ``num_shards`` contiguous runs, so each shard owns a
            compact region of the domain and narrow queries touch few shards.

        Examples
        --------
        >>> from repro import IntervalDataset
        >>> data = IntervalDataset.from_pairs([(0, 2), (10, 12), (4, 6), (20, 22)])
        >>> [part.tolist() for part in data.partition_indices(2)]
        [[0, 2], [1, 3]]
        >>> [part.tolist() for part in data.partition_indices(2, policy="range")]
        [[0, 2], [1, 3]]
        """
        k = int(num_shards)
        if k <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        n = len(self)
        if n < k:
            raise ValueError(
                f"cannot partition {n} intervals into {k} non-empty shards"
            )
        if policy == "round_robin":
            return [np.arange(i, n, k, dtype=np.int64) for i in range(k)]
        if policy == "range":
            midpoints = (self._lefts + self._rights) / 2.0
            order = np.argsort(midpoints, kind="stable").astype(np.int64, copy=False)
            return [chunk for chunk in np.array_split(order, k)]
        raise ValueError(
            f"unknown partition policy {policy!r}; expected 'round_robin' or 'range'"
        )

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self._lefts.shape[0])

    def __iter__(self) -> Iterator[Interval]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, index: int) -> Interval:
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"interval index {index} out of range for dataset of size {len(self)}")
        payload = self._payloads[i] if self._payloads is not None else None
        return Interval(
            float(self._lefts[i]), float(self._rights[i]), float(self._weights[i]), payload
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "weighted " if self.is_weighted else ""
        return f"IntervalDataset({len(self)} {kind}intervals, domain={self.domain()})"

    # ------------------------------------------------------------------ #
    # columnar accessors
    # ------------------------------------------------------------------ #
    @property
    def lefts(self) -> np.ndarray:
        """Left endpoints as a read-only float64 array."""
        return self._lefts

    @property
    def rights(self) -> np.ndarray:
        """Right endpoints as a read-only float64 array."""
        return self._rights

    @property
    def weights(self) -> np.ndarray:
        """Weights as a float64 array (all ones for unweighted datasets)."""
        return self._weights

    @property
    def payloads(self) -> Sequence | None:
        """User payloads, or None when no payloads were supplied."""
        return self._payloads

    @property
    def is_weighted(self) -> bool:
        """True when the dataset was constructed with explicit weights."""
        return self._explicit_weights

    def total_weight(self) -> float:
        """Sum of all interval weights."""
        return float(self._weights.sum())

    # ------------------------------------------------------------------ #
    # dataset-level geometry
    # ------------------------------------------------------------------ #
    def domain(self) -> tuple[float, float]:
        """The ``(min left endpoint, max right endpoint)`` span of the dataset."""
        if len(self) == 0:
            raise EmptyDatasetError("domain() of an empty dataset is undefined")
        return (float(self._lefts.min()), float(self._rights.max()))

    def domain_size(self) -> float:
        """Extent of the dataset domain (max right − min left)."""
        lo, hi = self.domain()
        return hi - lo

    def lengths(self) -> np.ndarray:
        """Per-interval lengths (``rights − lefts``)."""
        return self._rights - self._lefts

    def overlap_mask(self, query_left: float, query_right: float) -> np.ndarray:
        """Boolean mask of intervals overlapping ``[query_left, query_right]``.

        This is the brute-force predicate used by the exhaustive oracle and by
        statistical tests; it costs O(n).
        """
        return (self._lefts <= query_right) & (query_left <= self._rights)

    def overlap_indices(self, query_left: float, query_right: float) -> np.ndarray:
        """Indices of intervals overlapping ``[query_left, query_right]`` (O(n))."""
        return np.nonzero(self.overlap_mask(query_left, query_right))[0]

    def overlap_count(self, query_left: float, query_right: float) -> int:
        """Number of intervals overlapping the query (O(n) oracle)."""
        return int(self.overlap_mask(query_left, query_right).sum())

    def require_nonempty(self) -> None:
        """Raise :class:`EmptyDatasetError` when the dataset has no intervals."""
        if len(self) == 0:
            raise EmptyDatasetError("operation requires a non-empty dataset")
