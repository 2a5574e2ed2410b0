"""Batch/scalar equivalence of the flat (structure-of-arrays) query engine.

The FlatAIT engine must be an *observationally exact* replacement for the
pointer-based scalar path: ``count_many`` / ``report_many`` match per-query
``count`` / ``report`` element for element (including pooled inserts and
post-delete state), and ``sample_many`` draws from the identical per-draw
distribution (checked with the chi-square machinery of ``stats/uniformity``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AIT, AITV, AWIT, FlatAIT, IntervalDataset
from repro.baselines import ExhaustiveScan
from repro.core.errors import EmptyResultError, InvalidQueryError
from repro.stats import chi_square_uniformity, chi_square_weighted


@pytest.fixture
def dataset(make_random_dataset):
    return make_random_dataset(n=800, seed=3)


@pytest.fixture
def weighted_dataset(make_random_dataset):
    return make_random_dataset(n=400, seed=4, weighted=True)


@pytest.fixture
def queries(dataset, make_queries):
    batch = []
    for extent in (0.01, 0.05, 0.2, 0.8):
        batch.extend(make_queries(dataset, count=15, extent=extent, seed=int(extent * 1000)))
    lo, hi = dataset.domain()
    batch.append((lo - 5.0, hi + 5.0))   # covers everything
    batch.append((hi + 10.0, hi + 20.0))  # empty
    batch.append((lo, lo))                # point query
    return batch


class TestCountReportEquivalence:
    def test_count_many_matches_scalar(self, dataset, queries):
        tree = AIT(dataset)
        batch = tree.count_many(queries)
        assert batch.dtype == np.int64
        assert batch.tolist() == [tree.count(q) for q in queries]

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("n", [0, 1, 2, 63, 800, 1000])
    def test_count_many_matches_oracle(self, n, weighted, make_random_dataset, queries):
        # Degenerate sizes included: 0 (empty guards), 1-2 (one-node trees),
        # 63 (a full level-synchronous descent).
        data = make_random_dataset(n=n, seed=3, weighted=weighted)
        weights = data.weights if weighted else None
        engine = FlatAIT.from_arrays(data.lefts, data.rights, weights=weights)
        truth = [data.overlap_indices(ql, qr) for ql, qr in queries]
        counts = engine.count_many(queries)
        assert counts.tolist() == [ids.shape[0] for ids in truth]
        if n:
            assert np.array_equal(counts, ExhaustiveScan(data).count_many(queries))
        for chunk, ids in zip(engine.report_many(queries), truth):
            assert np.array_equal(np.sort(chunk), ids)
        assert np.allclose(
            engine.total_weight_many(queries), [data.weights[ids].sum() for ids in truth]
        )
        draws = engine.sample_many(queries, 17, random_state=np.random.default_rng(99))
        for chunk, ids in zip(draws, truth):
            assert chunk.shape[0] == (17 if ids.shape[0] else 0)
            assert np.isin(chunk, ids).all()

    def test_report_many_matches_scalar_exactly(self, dataset, queries):
        tree = AIT(dataset)
        batch = tree.report_many(queries)
        assert len(batch) == len(queries)
        for chunk, query in zip(batch, queries):
            assert np.array_equal(chunk, tree.report(query))

    def test_accepts_ndarray_input(self, dataset, queries):
        tree = AIT(dataset)
        arr = np.asarray(queries, dtype=np.float64)
        assert np.array_equal(tree.count_many(arr), tree.count_many(queries))

    def test_empty_batch(self, dataset):
        tree = AIT(dataset)
        assert tree.count_many([]).shape == (0,)
        assert tree.report_many([]) == []
        assert tree.sample_many([], 5) == []

    def test_invalid_query_in_batch_raises(self, dataset):
        tree = AIT(dataset)
        with pytest.raises(InvalidQueryError):
            tree.count_many([(0.0, 1.0), (5.0, 1.0)])
        with pytest.raises(InvalidQueryError):
            tree.count_many(np.asarray([[0.0, 1.0], [5.0, 1.0]]))

    def test_flat_scalar_paths_match(self, dataset, queries):
        tree = AIT(dataset)
        engine = tree.flat()
        for query in queries:
            assert engine.count(query) == tree.count(query)
            assert np.array_equal(engine.report(query), tree.report(query))

    def test_flat_collect_ranges_matches_records(self, dataset, queries):
        tree = AIT(dataset)
        engine = tree.flat()
        for query in queries:
            glo, ghi, _, weight = engine.collect_ranges(query)
            records = tree.collect_records(query)
            assert glo.shape[0] == len(records)
            assert (ghi - glo + 1).tolist() == [rec.count for rec in records]
            assert np.allclose(weight, [rec.weight for rec in records])

    def test_flat_scalar_sample_stays_in_result_set(self, dataset, queries):
        tree = AIT(dataset)
        engine = tree.flat()
        for query in queries:
            truth = set(tree.report(query).tolist())
            ids = engine.sample(query, 50, random_state=3)
            if truth:
                assert ids.shape[0] == 50 and set(ids.tolist()) <= truth
            else:
                assert ids.shape[0] == 0
        with pytest.raises(EmptyResultError):
            lo, hi = dataset.domain()
            engine.sample((hi + 10.0, hi + 20.0), 5, on_empty="raise")

    @pytest.mark.parametrize("n_records", [1, 2, 5])
    def test_flat_scalar_sample_distribution_per_record_branch(self, n_records):
        # One dataset per branch of the record-selection fast path: direct
        # (1 record), bernoulli (2 records), cumulative inverse-CDF (>2).
        if n_records == 1:
            pairs = [(0.0, 100.0), (1.0, 99.0), (2.0, 98.0)]
            query = (40.0, 60.0)
        elif n_records == 2:
            pairs = [(0.0, 10.0), (1.0, 9.0), (30.0, 40.0), (31.0, 39.0)]
            query = (5.0, 35.0)
        else:
            rng = np.random.default_rng(29)
            lefts = rng.uniform(0.0, 100.0, 64)
            pairs = [(float(l), float(l + e)) for l, e in zip(lefts, rng.exponential(10.0, 64))]
            query = (20.0, 45.0)
        tree = AIT(IntervalDataset.from_pairs(pairs))
        engine = tree.flat()
        if n_records <= 2:
            assert len(tree.collect_records(query)) == n_records
        else:
            assert len(tree.collect_records(query)) > 2
        population = tree.report(query).tolist()
        ids = engine.sample(query, 4000, random_state=31)
        result = chi_square_uniformity(ids.tolist(), population)
        assert not result.rejects_uniformity(alpha=1e-4), result

    def test_flat_scalar_sample_weighted_distribution(self, weighted_dataset, make_queries):
        tree = AWIT(weighted_dataset)
        engine = tree.flat()
        for query in make_queries(weighted_dataset, count=3, extent=0.08, seed=33):
            population = tree.report(query)
            if population.shape[0] < 2 or population.shape[0] > 400:
                continue
            ids = engine.sample(query, 4000, random_state=37)
            weights = tree.weights_of(population)
            result = chi_square_weighted(ids.tolist(), population.tolist(), weights.tolist())
            assert not result.rejects_uniformity(alpha=1e-4), result

    def test_awit_total_weight_many(self, weighted_dataset, make_queries):
        tree = AWIT(weighted_dataset)
        batch = make_queries(weighted_dataset, count=30, extent=0.1, seed=9)
        totals = tree.total_weight_many(batch)
        expected = np.asarray([tree.total_weight(q) for q in batch])
        assert np.allclose(totals, expected)

    def test_aitv_batch_matches_scalar(self, dataset, queries):
        index = AITV(dataset)
        counts = index.count_many(queries)
        reports = index.report_many(queries)
        for i, query in enumerate(queries):
            assert counts[i] == index.count(query)
            assert np.array_equal(reports[i], index.report(query))


class TestBatchWithUpdates:
    def _updated_tree(self):
        data = IntervalDataset.from_pairs([(i, i + 12.0) for i in range(0, 600, 3)])
        tree = AIT(data)
        for k in range(25):  # pooled inserts (stay below the pool capacity)
            tree.insert((k * 7.0, k * 7.0 + 4.0))
        for victim in (2, 30, 77):
            assert tree.delete(victim)
        return tree

    def test_count_report_with_pool_and_deletes(self, make_queries):
        tree = self._updated_tree()
        assert tree.pending_pool_size > 0
        queries = [(0.0, 50.0), (100.0, 180.0), (333.3, 444.4), (900.0, 999.0)]
        counts = tree.count_many(queries)
        reports = tree.report_many(queries)
        for i, query in enumerate(queries):
            assert counts[i] == tree.count(query)
            assert np.array_equal(reports[i], tree.report(query))

    def test_sample_many_with_pool_stays_in_result_set(self):
        tree = self._updated_tree()
        queries = [(0.0, 50.0), (100.0, 180.0)]
        samples = tree.sample_many(queries, 200, random_state=0)
        for ids, query in zip(samples, queries):
            assert ids.shape[0] == 200
            assert set(ids.tolist()) <= set(tree.report(query).tolist())

    def test_flat_snapshot_invalidated_by_updates(self):
        tree = self._updated_tree()
        before = tree.flat()
        assert tree.flat() is before  # cached while structure is unchanged
        tree.insert((5.0, 6.0), immediate=True)
        after = tree.flat()
        assert after is not before
        assert tree.count_many([(0.0, 600.0)])[0] == tree.count((0.0, 600.0))

    def test_flush_pool_then_fully_vectorised(self):
        tree = self._updated_tree()
        tree.flush_pool()
        assert tree.pending_pool_size == 0
        queries = [(0.0, 50.0), (100.0, 180.0)]
        counts = tree.count_many(queries)
        for i, query in enumerate(queries):
            assert counts[i] == tree.count(query)


class TestSampleManyDistribution:
    def test_sample_many_is_uniform_per_query(self, dataset, make_queries):
        tree = AIT(dataset)
        queries = make_queries(dataset, count=5, extent=0.05, seed=11)
        samples = tree.sample_many(queries, 4000, random_state=42)
        checked = 0
        for ids, query in zip(samples, queries):
            population = tree.report(query)
            if population.shape[0] < 2 or population.shape[0] > 400:
                continue
            result = chi_square_uniformity(ids.tolist(), population.tolist())
            assert not result.rejects_uniformity(alpha=1e-4), (query, result)
            checked += 1
        assert checked > 0

    def test_sample_many_weighted_distribution(self, weighted_dataset, make_queries):
        tree = AWIT(weighted_dataset)
        queries = make_queries(weighted_dataset, count=4, extent=0.08, seed=12)
        samples = tree.sample_many(queries, 4000, random_state=7)
        checked = 0
        for ids, query in zip(samples, queries):
            population = tree.report(query)
            if population.shape[0] < 2 or population.shape[0] > 400:
                continue
            weights = tree.weights_of(population)
            result = chi_square_weighted(ids.tolist(), population.tolist(), weights.tolist())
            assert not result.rejects_uniformity(alpha=1e-4), (query, result)
            checked += 1
        assert checked > 0

    def test_sample_many_zero_weight_query_with_widest_record_set(self):
        # Regression: a zero-total-weight (unanswerable) query whose record
        # set is wider than any answerable query's must not crash the dense
        # multinomial construction; it yields an empty row like the scalar
        # path.
        data = IntervalDataset.from_pairs(
            [(float(i), float(i) + 1.5) for i in range(40)] + [(100.0, 101.0), (100.5, 102.0)],
            weights=[0.0] * 40 + [1.0, 2.0],
        )
        tree = AWIT(data)
        queries = [(0.0, 39.9), (100.0, 101.0)]
        samples = tree.sample_many(queries, 5, random_state=0)
        assert samples[0].shape[0] == 0  # zero weight -> empty, like scalar
        assert np.array_equal(samples[0], tree.sample(queries[0], 5, random_state=0))
        assert samples[1].shape[0] == 5
        assert set(samples[1].tolist()) <= {40, 41}

    def test_sample_many_invalid_on_empty_rejected_with_pool(self, dataset):
        # on_empty validation must not depend on internal pool state.
        tree = AIT(IntervalDataset.from_pairs([(0.0, 10.0), (5.0, 15.0)]))
        tree.insert((1.0, 2.0))  # pooled: scalar fallback path
        with pytest.raises(ValueError):
            tree.sample_many([(0.0, 10.0)], 5, on_empty="bogus")

    def test_sample_many_empty_query_behaviour(self, dataset):
        tree = AIT(dataset)
        _, hi = dataset.domain()
        queries = [(hi + 10.0, hi + 20.0), (hi + 30.0, hi + 40.0)]
        samples = tree.sample_many(queries, 50)
        assert all(ids.shape[0] == 0 for ids in samples)
        with pytest.raises(EmptyResultError):
            tree.sample_many(queries, 50, on_empty="raise")
        with pytest.raises(ValueError):
            tree.sample_many(queries, 50, on_empty="bogus")

    def test_sample_many_positionally_unbiased(self, make_random_dataset):
        # Draws are generated grouped by node record; the engine must shuffle
        # each row so that any prefix slice (ids[:k]) is an unbiased
        # subsample, like the scalar path.  Regression test: check that the
        # *first* draw is uniform over the population across many seeds.
        dataset = make_random_dataset(n=200, seed=17)
        tree = AIT(dataset)
        lo, hi = dataset.domain()
        query = (lo + (hi - lo) * 0.25, lo + (hi - lo) * 0.6)
        assert len(tree.collect_records(query)) >= 2
        population = np.sort(tree.report(query))
        lower = sum(
            int(np.searchsorted(population, tree.sample_many([query], 2, random_state=seed)[0][0])
                < population.shape[0] / 2)
            for seed in range(300)
        )
        # Binomial(300, 0.5): +/- 5 sigma ~ [106, 194].
        assert 100 <= lower <= 200, lower

    def test_sample_many_zero_sample_size(self, dataset, make_queries):
        tree = AIT(dataset)
        queries = make_queries(dataset, count=3, extent=0.1, seed=13)
        samples = tree.sample_many(queries, 0, random_state=1)
        assert all(ids.shape[0] == 0 for ids in samples)

    def test_sample_many_deterministic_with_seed(self, dataset, make_queries):
        tree = AIT(dataset)
        queries = make_queries(dataset, count=4, extent=0.1, seed=14)
        first = tree.sample_many(queries, 100, random_state=5)
        second = tree.sample_many(queries, 100, random_state=5)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_baseline_default_sample_many(self, dataset, make_queries):
        oracle = ExhaustiveScan(dataset)
        queries = make_queries(dataset, count=3, extent=0.1, seed=15)
        samples = oracle.sample_many(queries, 64, random_state=3)
        for ids, query in zip(samples, queries):
            truth = set(oracle.report(query).tolist())
            if truth:
                assert ids.shape[0] == 64
                assert set(ids.tolist()) <= truth


class TestFlatEngineInternals:
    def test_from_tree_roundtrip_node_count(self, dataset):
        tree = AIT(dataset)
        engine = FlatAIT.from_tree(tree)
        assert engine.node_count == tree.node_count()
        assert not engine.is_weighted
        assert engine.nbytes() > 0

    def test_weighted_snapshot(self, weighted_dataset):
        tree = AWIT(weighted_dataset)
        assert tree.flat().is_weighted

    def test_empty_tree(self):
        data = IntervalDataset.from_pairs([(0.0, 1.0)])
        tree = AIT(data)
        assert tree.delete(0)
        engine = tree.flat()
        assert engine.node_count == 0
        assert tree.count_many([(0.0, 2.0)]).tolist() == [0]
        assert tree.report_many([(0.0, 2.0)])[0].shape[0] == 0
        assert tree.sample_many([(0.0, 2.0)], 5)[0].shape[0] == 0

    def test_single_record_fast_path_matches_distribution(self, make_random_dataset):
        # A query strictly inside one stab list exercises the no-alias path.
        data = IntervalDataset.from_pairs([(0.0, 100.0), (1.0, 99.0), (2.0, 98.0)])
        tree = AIT(data)
        records = tree.collect_records((40.0, 60.0))
        assert len(records) == 1
        ids = tree.sample((40.0, 60.0), 3000, random_state=21)
        assert ids.shape[0] == 3000
        result = chi_square_uniformity(ids.tolist(), [0, 1, 2])
        assert not result.rejects_uniformity(alpha=1e-4)
