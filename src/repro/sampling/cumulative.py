"""Cumulative-sum (prefix-sum) weighted sampling.

Given ``n`` weighted objects, an array ``A`` with ``A[j] = w_1 + ... + w_j``
lets us sample object ``k`` with probability ``w_k / W`` by drawing a uniform
value in ``(0, W]`` and binary-searching for the first prefix sum that is not
smaller.  Building the array costs O(n); each draw costs O(log n) and requires
no additional structures — which is exactly why the paper uses it inside the
AWIT query algorithm, where the relevant prefix sums are precomputed offline
and a fresh alias table per node record would be too expensive.

This module provides both a standalone :class:`CumulativeSampler` (used by
baselines) and :func:`sample_from_prefix_range`, which samples from a
*slice* ``[lo, hi]`` of a precomputed prefix-sum array — the exact primitive
AWIT needs.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..core.errors import InvalidWeightError
from .rng import RandomState, resolve_rng

__all__ = [
    "CumulativeSampler",
    "prefix_sums",
    "sample_from_prefix_range",
    "range_weight",
    "record_weights",
    "segmented_searchsorted",
    "segmented_inverse_cdf",
]


def prefix_sums(weights: Iterable[float] | np.ndarray) -> np.ndarray:
    """Return the inclusive prefix-sum array of ``weights``.

    ``prefix_sums(w)[j] == w[0] + ... + w[j]``.  Raises
    :class:`InvalidWeightError` on negative or non-finite weights.
    """
    w = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights, dtype=np.float64)
    if w.ndim != 1:
        raise InvalidWeightError("weights must be one-dimensional")
    if w.size and (not np.all(np.isfinite(w)) or np.any(w < 0)):
        raise InvalidWeightError("weights must be finite and non-negative")
    return np.cumsum(w)


def range_weight(prefix: np.ndarray, lo: int, hi: int) -> float:
    """Total weight of positions ``lo..hi`` (inclusive) given inclusive prefix sums."""
    if hi < lo:
        return 0.0
    before = float(prefix[lo - 1]) if lo > 0 else 0.0
    return float(prefix[hi]) - before


def sample_from_prefix_range(
    prefix: np.ndarray, lo: int, hi: int, rng: np.random.Generator
) -> int:
    """Sample a position in ``[lo, hi]`` proportionally to its weight.

    ``prefix`` is an inclusive prefix-sum array over the *whole* list; the
    draw is restricted to the slice ``lo..hi`` without materialising it, by
    shifting the random threshold by ``prefix[lo-1]``.  This is the O(log n)
    per-draw primitive used by the AWIT sampling loop (Section IV-B).
    """
    if hi < lo:
        raise InvalidWeightError(f"empty prefix range [{lo}, {hi}]")
    before = float(prefix[lo - 1]) if lo > 0 else 0.0
    total = float(prefix[hi]) - before
    if total <= 0:
        raise InvalidWeightError(f"prefix range [{lo}, {hi}] has zero total weight")
    threshold = before + rng.random() * total
    # First index k in [lo, hi] with prefix[k] >= threshold.
    k = int(np.searchsorted(prefix[lo : hi + 1], threshold, side="left")) + lo
    if k > hi:  # guard against floating point edge at the top of the range
        k = hi
    return k


def segmented_searchsorted(
    pool: np.ndarray, lo: np.ndarray, hi: np.ndarray, needles: np.ndarray, side: str = "left"
) -> np.ndarray:
    """Vectorised ``searchsorted`` over many independent sorted segments.

    ``pool`` is one flat array that concatenates many individually sorted
    runs; for each needle ``i`` the run is ``pool[lo[i]:hi[i]]`` (half-open,
    global indices).  Returns the global insertion index of ``needles[i]``
    inside its run, with standard left/right semantics.  The whole batch is
    resolved in ``ceil(log2(max run length))`` vectorised rounds, which is what
    lets the flat batch-query engine replace one Python-level
    ``np.searchsorted`` call per (query, node) pair with a handful of
    array operations per tree level.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    before = np.less if side == "left" else np.less_equal
    base = np.array(lo, dtype=np.int64)
    size = np.asarray(hi, dtype=np.int64) - base
    needles = np.asarray(needles)
    # Branch-free halving: the answer stays in [base, base + size]; each
    # round probes base + size // 2 and keeps the half that holds it.
    # Every segment's size reaches 1 within the longest one's rounds.  An
    # empty segment probes its own start, which may lie past the pool (its
    # result is discarded, hence ``clip``).
    longest = int(size.max()) if size.shape[0] else 0
    while longest > 1:
        half = size >> 1
        probe = base + half
        base = np.where(before(pool.take(probe, mode="clip"), needles), probe, base)
        size -= half
        longest -= longest >> 1
    last = size > 0
    base[last] += before(pool[base[last]], needles[last])
    return base


def segmented_inverse_cdf(
    prefix: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    uniforms: np.ndarray,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """Batched inverse-CDF draw over slices of one flat prefix-sum array.

    For each draw ``i`` the candidate positions are ``lo[i]..hi[i]``
    (inclusive, global indices into ``prefix``); position ``k`` is chosen
    with probability proportional to ``prefix[k] - prefix[k-1]`` within the
    slice.  When ``prefix`` concatenates many independent prefix-sum runs
    (each restarting from zero), ``base[i]`` must give the start of draw
    ``i``'s run so the "weight before ``lo``" term is taken from the right
    run; ``base=None`` treats the whole array as one run.  ``uniforms`` are
    i.i.d. draws in ``[0, 1)``.  This is the vectorised counterpart of
    :func:`sample_from_prefix_range`: the same threshold
    ``before + u * total`` and the same first-``prefix >= threshold`` search.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    floor = np.zeros_like(lo) if base is None else np.asarray(base, dtype=np.int64)
    before = np.where(lo > floor, prefix[np.maximum(lo - 1, 0)], 0.0)
    total = prefix[hi] - before
    thresholds = before + np.asarray(uniforms, dtype=np.float64) * total
    positions = segmented_searchsorted(prefix, lo, hi + 1, thresholds, side="left")
    return np.minimum(positions, hi)


def record_weights(
    prefix: Optional[np.ndarray],
    glo: np.ndarray,
    ghi: np.ndarray,
    gbase: np.ndarray,
) -> np.ndarray:
    """Total sampling weight of each record ``[glo, ghi]`` (global pool indices).

    ``prefix`` is the concatenated per-segment inclusive weight-prefix pool
    (``None`` for unweighted snapshots, where the weight is the record
    cardinality); ``gbase`` marks the start of each record's segment so the
    "weight before ``glo``" term never reads across a segment boundary.
    """
    if prefix is None:
        return (ghi - glo + 1).astype(np.float64)
    before = np.where(glo > gbase, prefix[np.maximum(glo - 1, 0)], 0.0)
    return prefix[ghi] - before


class CumulativeSampler:
    """Weighted sampler backed by a prefix-sum array (O(log n) per draw).

    Used directly by the search-based baselines when they must perform
    weighted sampling over an explicitly materialised result set, and as a
    reference implementation in tests of :func:`sample_from_prefix_range`.
    """

    __slots__ = ("_prefix", "_n")

    def __init__(self, weights: Iterable[float] | np.ndarray) -> None:
        prefix = prefix_sums(weights)
        if prefix.size == 0:
            raise InvalidWeightError("cumulative sampler requires at least one weight")
        if prefix[-1] <= 0:
            raise InvalidWeightError("cumulative sampler requires at least one positive weight")
        self._prefix = prefix
        self._n = int(prefix.shape[0])

    def __len__(self) -> int:
        return self._n

    @property
    def total_weight(self) -> float:
        """Sum of the weights the sampler was built from."""
        return float(self._prefix[-1])

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one index with probability proportional to its weight."""
        return sample_from_prefix_range(self._prefix, 0, self._n - 1, rng)

    def sample_many(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` independent indices (vectorised binary search)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        thresholds = rng.random(count) * self._prefix[-1]
        idx = np.searchsorted(self._prefix, thresholds, side="left")
        return np.minimum(idx, self._n - 1)


def cumulative_sample(
    weights: Iterable[float] | np.ndarray, count: int, random_state: RandomState = None
) -> np.ndarray:
    """One-shot helper: build a prefix-sum sampler and draw ``count`` indices."""
    rng = resolve_rng(random_state)
    return CumulativeSampler(weights).sample_many(count, rng)
