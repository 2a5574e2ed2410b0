"""Seeded benchmark inputs and the independent answer oracle.

The intervals follow the btc row of the paper's Table II (domain size and
min/median/max length) under the same log-normal length law as
``repro.datasets``' btc analogue.  The law is restated here rather than
imported so that the inputs depend only on the seed, never on the code
under test.
"""

from __future__ import annotations

import math

import numpy as np

BTC_DOMAIN = 6_876_400.0
BTC_MIN_LENGTH = 1.0
BTC_MEDIAN_LENGTH = 937.0
BTC_MAX_LENGTH = 547_077.0

#: Query length as a share of the domain (the paper's default extent).
QUERY_EXTENT = 0.08

#: Samples drawn per ``sample`` query.
SAMPLE_SIZE = 100

#: Share of reads that are ``count`` (the rest are ``sample``).
COUNT_SHARE = 0.7


def streams(seed: int, names: tuple[str, ...]) -> dict[str, np.random.Generator]:
    """One independent generator per named input stream, all from ``seed``."""
    children = np.random.SeedSequence(int(seed)).spawn(len(names))
    return {name: np.random.default_rng(child) for name, child in zip(names, children)}


def intervals(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` btc-like intervals as ``(lefts, rights)``."""
    sigma = max(0.05, math.log(BTC_MAX_LENGTH / BTC_MEDIAN_LENGTH) / 3.5)
    lengths = rng.lognormal(mean=math.log(BTC_MEDIAN_LENGTH), sigma=sigma, size=n)
    lengths = np.clip(lengths, BTC_MIN_LENGTH, BTC_MAX_LENGTH)
    lefts = rng.uniform(0.0, BTC_DOMAIN - BTC_MEDIAN_LENGTH, size=n)
    rights = np.minimum(lefts + lengths, BTC_DOMAIN)
    return lefts, rights


def queries(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` queries of length ``QUERY_EXTENT`` of the domain."""
    extent = BTC_DOMAIN * QUERY_EXTENT
    lefts = rng.uniform(0.0, BTC_DOMAIN - extent, size=n)
    return lefts, lefts + extent


class Oracle:
    """Exact answers from the benchmark's own copies of the endpoints.

    Counting uses the two-binary-search identity over closed intervals:
    ``|q ∩ X| = #(left <= q.r) - #(right < q.l)``.  Membership checks look
    up a sampled id's endpoints by global id.
    """

    def __init__(self, lefts: np.ndarray, rights: np.ndarray) -> None:
        self.lefts = np.array(lefts, dtype=np.float64)
        self.rights = np.array(rights, dtype=np.float64)
        self._sorted_lefts = np.sort(self.lefts)
        self._sorted_rights = np.sort(self.rights)

    def count(self, ql: np.ndarray, qr: np.ndarray) -> np.ndarray:
        """Overlap count per query."""
        inside = np.searchsorted(self._sorted_lefts, qr, side="right")
        left_of = np.searchsorted(self._sorted_rights, ql, side="left")
        return (inside - left_of).astype(np.int64)

    def rows_overlap(self, rows: np.ndarray, ql: np.ndarray, qr: np.ndarray) -> np.ndarray:
        """Per-row membership for an ``(m, s)`` id matrix against ``m`` queries."""
        rows = np.asarray(rows, dtype=np.int64).reshape(len(ql), -1)
        if rows.size and (rows.min() < 0 or rows.max() >= self.lefts.shape[0]):
            return np.zeros(rows.shape[0], dtype=bool)
        hit = (self.lefts[rows] <= qr[:, None]) & (self.rights[rows] >= ql[:, None])
        return hit.all(axis=1)


def bad_sample_rows(oracle: Oracle, rows, ql, qr, expected) -> int:
    """Rows that are not exactly ``SAMPLE_SIZE`` overlapping ids.

    A query with no overlapping interval must come back empty.
    """
    want = np.where(np.asarray(expected) > 0, SAMPLE_SIZE, 0)
    good = np.array([len(row) for row in rows]) == want
    live = np.flatnonzero(good & (want > 0))
    if live.size:
        matrix = np.stack([np.asarray(rows[i], dtype=np.int64) for i in live])
        good[live] = oracle.rows_overlap(matrix, np.asarray(ql)[live], np.asarray(qr)[live])
    return int((~good).sum())


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of a sample (0 for an empty one)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
