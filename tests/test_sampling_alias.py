"""Tests for Walker's alias method."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import AliasTable, InvalidWeightError
from repro.sampling import alias_sample, build_alias, resolve_rng


class TestConstruction:
    def test_single_weight(self):
        table = AliasTable([5.0])
        assert len(table) == 1
        assert table.total_weight == 5.0
        assert table.sample(resolve_rng(0)) == 0

    def test_empty_weights_raise(self):
        with pytest.raises(InvalidWeightError):
            AliasTable([])

    def test_negative_weight_raises(self):
        with pytest.raises(InvalidWeightError):
            AliasTable([1.0, -1.0])

    def test_all_zero_weights_raise(self):
        with pytest.raises(InvalidWeightError):
            AliasTable([0.0, 0.0])

    def test_nan_weight_raises(self):
        with pytest.raises(InvalidWeightError):
            AliasTable([1.0, float("nan")])

    def test_build_alias_helper(self):
        assert isinstance(build_alias([1.0, 2.0]), AliasTable)


class TestExactProbabilities:
    def test_probabilities_match_weights(self):
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        table = AliasTable(weights)
        np.testing.assert_allclose(table.probabilities(), weights / weights.sum(), atol=1e-12)

    def test_zero_weight_entry_has_zero_probability(self):
        table = AliasTable([0.0, 1.0, 3.0])
        probs = table.probabilities()
        assert probs[0] == pytest.approx(0.0, abs=1e-12)
        assert probs[2] == pytest.approx(0.75, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=60).filter(
            lambda w: sum(w) > 0
        )
    )
    @example([0.0, 2.225073858507e-311])  # subnormal total: n / total overflows
    def test_probabilities_match_weights_property(self, weights):
        table = AliasTable(weights)
        expected = np.asarray(weights) / np.sum(weights)
        np.testing.assert_allclose(table.probabilities(), expected, atol=1e-9)


class TestSampling:
    def test_sample_many_shape_and_range(self):
        table = AliasTable([1.0, 2.0, 3.0])
        draws = table.sample_many(1000, resolve_rng(1))
        assert draws.shape == (1000,)
        assert set(np.unique(draws)) <= {0, 1, 2}

    def test_sample_many_zero_count(self):
        table = AliasTable([1.0, 2.0])
        assert table.sample_many(0, resolve_rng(0)).shape == (0,)

    def test_sample_many_negative_raises(self):
        with pytest.raises(ValueError):
            AliasTable([1.0]).sample_many(-1, resolve_rng(0))

    def test_zero_weight_items_never_sampled(self):
        table = AliasTable([0.0, 1.0, 0.0, 2.0])
        draws = table.sample_many(2000, resolve_rng(2))
        assert set(np.unique(draws)) <= {1, 3}

    def test_empirical_distribution_tracks_weights(self):
        weights = np.array([1.0, 4.0, 5.0])
        table = AliasTable(weights)
        draws = table.sample_many(60_000, resolve_rng(3))
        freq = np.bincount(draws, minlength=3) / draws.shape[0]
        np.testing.assert_allclose(freq, weights / weights.sum(), atol=0.02)

    def test_alias_sample_helper_is_deterministic_per_seed(self):
        a = alias_sample([1.0, 2.0, 3.0], 50, random_state=9)
        b = alias_sample([1.0, 2.0, 3.0], 50, random_state=9)
        np.testing.assert_array_equal(a, b)

    def test_uniform_weights_behave_uniformly(self):
        table = AliasTable(np.ones(10))
        draws = table.sample_many(50_000, resolve_rng(4))
        freq = np.bincount(draws, minlength=10) / draws.shape[0]
        np.testing.assert_allclose(freq, np.full(10, 0.1), atol=0.01)
