"""Tests for the cumulative-sum (prefix-sum) weighted sampler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import CumulativeSampler, InvalidWeightError
from repro.sampling import (
    cumulative_sample,
    prefix_sums,
    range_weight,
    resolve_rng,
    sample_from_prefix_range,
    segmented_inverse_cdf,
    segmented_searchsorted,
)


class TestPrefixSums:
    def test_basic(self):
        np.testing.assert_allclose(prefix_sums([1.0, 2.0, 3.0]), [1.0, 3.0, 6.0])

    def test_empty(self):
        assert prefix_sums([]).shape == (0,)

    def test_negative_raises(self):
        with pytest.raises(InvalidWeightError):
            prefix_sums([1.0, -2.0])

    def test_two_dimensional_raises(self):
        with pytest.raises(InvalidWeightError):
            prefix_sums(np.ones((2, 2)))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
    def test_prefix_is_monotone_and_ends_at_total(self, weights):
        prefix = prefix_sums(weights)
        assert np.all(np.diff(prefix) >= -1e-9)
        assert prefix[-1] == pytest.approx(sum(weights), rel=1e-9, abs=1e-9)


class TestRangeWeight:
    def test_full_and_partial_ranges(self):
        prefix = prefix_sums([1.0, 2.0, 3.0, 4.0])
        assert range_weight(prefix, 0, 3) == pytest.approx(10.0)
        assert range_weight(prefix, 1, 2) == pytest.approx(5.0)
        assert range_weight(prefix, 2, 2) == pytest.approx(3.0)

    def test_empty_range_is_zero(self):
        prefix = prefix_sums([1.0, 2.0])
        assert range_weight(prefix, 1, 0) == 0.0


class TestSampleFromPrefixRange:
    def test_stays_inside_range(self):
        prefix = prefix_sums([1.0, 2.0, 3.0, 4.0, 5.0])
        rng = resolve_rng(0)
        draws = [sample_from_prefix_range(prefix, 1, 3, rng) for _ in range(500)]
        assert set(draws) <= {1, 2, 3}

    def test_empty_range_raises(self):
        prefix = prefix_sums([1.0, 2.0])
        with pytest.raises(InvalidWeightError):
            sample_from_prefix_range(prefix, 1, 0, resolve_rng(0))

    def test_zero_weight_range_raises(self):
        prefix = prefix_sums([1.0, 0.0, 0.0, 2.0])
        with pytest.raises(InvalidWeightError):
            sample_from_prefix_range(prefix, 1, 2, resolve_rng(0))

    def test_distribution_proportional_to_weights_within_range(self):
        weights = np.array([100.0, 1.0, 3.0, 6.0, 100.0])
        prefix = prefix_sums(weights)
        rng = resolve_rng(5)
        draws = np.array([sample_from_prefix_range(prefix, 1, 3, rng) for _ in range(20_000)])
        freq = np.bincount(draws, minlength=5)[1:4] / draws.shape[0]
        np.testing.assert_allclose(freq, weights[1:4] / weights[1:4].sum(), atol=0.02)


class _FixedUniform:
    """Generator stand-in whose ``random()`` returns one preset uniform."""

    def __init__(self, u: float) -> None:
        self._u = u

    def random(self) -> float:
        return self._u


def _run_bounds(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ends = np.cumsum(lengths)
    return ends - lengths, ends


class TestSegmentedPrimitives:
    """The vectorised segment kernels against their one-segment references."""

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_segmented_searchsorted_matches_per_segment_searchsorted(self, side):
        rng = np.random.default_rng(3)
        # The trailing empty run starts past the end of the pool.
        lengths = np.array([0, 1, 5, 0, 17, 2, 64, 0, 3, 0])
        # Integer-valued runs: needles hit exact ties as well as gaps.
        pool = np.concatenate([np.sort(rng.integers(0, 20, n)).astype(float) for n in lengths])
        starts, ends = _run_bounds(lengths)
        run = np.repeat(np.arange(lengths.shape[0]), 12)
        needles = rng.integers(-2, 23, run.shape[0]).astype(float)
        got = segmented_searchsorted(pool, starts[run], ends[run], needles, side=side)
        want = [
            lo + int(np.searchsorted(pool[lo:hi], x, side=side))
            for lo, hi, x in zip(starts[run], ends[run], needles)
        ]
        assert got.tolist() == want

    def test_segmented_searchsorted_rejects_unknown_side(self):
        with pytest.raises(ValueError, match="side must be"):
            segmented_searchsorted(np.zeros(1), [0], [1], [0.0], side="middle")

    @pytest.mark.parametrize("per_run_prefix", [False, True], ids=["one_run", "runs"])
    def test_segmented_inverse_cdf_matches_sample_from_prefix_range(self, per_run_prefix):
        rng = np.random.default_rng(5)
        lengths = np.array([1, 5, 17, 2, 64, 3])
        weights = rng.uniform(0.05, 3.0, int(lengths.sum()))
        weights[::7] = 0.0  # zero-weight positions put ties in the prefix
        starts, ends = _run_bounds(lengths)
        if per_run_prefix:
            # Concatenated prefix runs, each restarting from zero.
            prefix = np.concatenate([np.cumsum(weights[a:b]) for a, b in zip(starts, ends)])
        else:
            prefix = np.cumsum(weights)
        run = rng.integers(0, lengths.shape[0], 400)
        lo = starts[run] + (rng.random(400) * lengths[run]).astype(np.int64)
        hi = lo + (rng.random(400) * (ends[run] - lo)).astype(np.int64)
        floor = starts[run] if per_run_prefix else np.zeros_like(lo)
        before = np.where(lo > floor, prefix[np.maximum(lo - 1, 0)], 0.0)
        keep = prefix[hi] - before > 0  # the scalar primitive rejects empty mass
        lo, hi, floor = lo[keep], hi[keep], floor[keep]
        uniforms = rng.random(lo.shape[0])
        uniforms[0] = 0.0  # threshold exactly on the range floor
        got = segmented_inverse_cdf(
            prefix, lo, hi, uniforms, base=floor if per_run_prefix else None
        )
        want = [
            f + sample_from_prefix_range(prefix[f:], a - f, b - f, _FixedUniform(u))
            for a, b, f, u in zip(lo, hi, floor, uniforms)
        ]
        assert got.tolist() == want


class TestCumulativeSampler:
    def test_requires_positive_total(self):
        with pytest.raises(InvalidWeightError):
            CumulativeSampler([0.0, 0.0])
        with pytest.raises(InvalidWeightError):
            CumulativeSampler([])

    def test_len_and_total(self):
        sampler = CumulativeSampler([1.0, 2.0, 3.0])
        assert len(sampler) == 3
        assert sampler.total_weight == 6.0

    def test_sample_many_distribution(self):
        weights = np.array([1.0, 9.0])
        sampler = CumulativeSampler(weights)
        draws = sampler.sample_many(40_000, resolve_rng(1))
        freq = np.bincount(draws, minlength=2) / draws.shape[0]
        np.testing.assert_allclose(freq, weights / weights.sum(), atol=0.02)

    def test_zero_weight_entries_never_sampled(self):
        sampler = CumulativeSampler([0.0, 5.0, 0.0])
        draws = sampler.sample_many(5_000, resolve_rng(2))
        assert set(np.unique(draws)) == {1}

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            CumulativeSampler([1.0]).sample_many(-5, resolve_rng(0))

    def test_helper_function_deterministic(self):
        a = cumulative_sample([1.0, 2.0], 20, random_state=3)
        b = cumulative_sample([1.0, 2.0], 20, random_state=3)
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=30).filter(
            lambda w: sum(w) > 0
        )
    )
    def test_samples_always_have_positive_weight(self, weights):
        sampler = CumulativeSampler(weights)
        draws = sampler.sample_many(100, resolve_rng(7))
        assert all(weights[i] > 0 for i in draws)
