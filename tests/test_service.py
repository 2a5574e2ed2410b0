"""ShardedEngine correctness: shard-merge equivalence, allocation law, updates.

The acceptance bar (ISSUE 2) is that the sharded service is observationally
indistinguishable from one unsharded ``FlatAIT``: counting / reporting /
weighted counting merge *exactly*, and sampling is distribution-identical
(multinomial shard allocation composed with within-shard uniform or
weight-proportional draws), for K ∈ {1, 2, 4, 8} and under interleaved
updates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AIT, AWIT, FlatAIT, IntervalDataset, ShardedEngine
from repro.core.errors import (
    EmptyResultError,
    InvalidIntervalError,
    StructureStateError,
)
from repro.service import ProcessExecutor, resolve_executor
from repro.stats import chi_square_uniformity, chi_square_weighted

SHARD_COUNTS = (1, 2, 4, 8)
POLICIES = ("round_robin", "range")


@pytest.fixture
def dataset(make_random_dataset):
    return make_random_dataset(n=700, seed=21)


@pytest.fixture
def weighted_dataset(make_random_dataset):
    return make_random_dataset(n=500, seed=22, weighted=True)


@pytest.fixture
def queries(dataset, make_queries):
    batch = []
    for extent in (0.01, 0.08, 0.4):
        batch.extend(make_queries(dataset, count=12, extent=extent, seed=int(extent * 100)))
    lo, hi = dataset.domain()
    batch.append((lo - 1.0, hi + 1.0))   # full-domain query
    batch.append((hi + 10.0, hi + 20.0))  # empty query
    return batch


# ---------------------------------------------------------------------- #
# partitioning helpers
# ---------------------------------------------------------------------- #
class TestPartitioning:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_partition_is_disjoint_and_complete(self, dataset, num_shards, policy):
        parts = dataset.partition_indices(num_shards, policy)
        assert len(parts) == num_shards
        all_ids = np.concatenate(parts)
        assert sorted(all_ids.tolist()) == list(range(len(dataset)))
        assert all(part.shape[0] >= 1 for part in parts)

    def test_range_partition_is_contiguous_in_midpoint(self, dataset):
        parts = dataset.partition_indices(4, policy="range")
        midpoints = (dataset.lefts + dataset.rights) / 2.0
        uppers = [midpoints[part].max() for part in parts]
        lowers = [midpoints[part].min() for part in parts]
        for previous, current in zip(uppers, lowers[1:]):
            assert previous <= current

    def test_partition_rejects_bad_arguments(self, dataset):
        with pytest.raises(ValueError):
            dataset.partition_indices(0)
        with pytest.raises(ValueError):
            dataset.partition_indices(len(dataset) + 1)
        with pytest.raises(ValueError):
            dataset.partition_indices(2, policy="hash")


# ---------------------------------------------------------------------- #
# static equivalence vs a single unsharded FlatAIT
# ---------------------------------------------------------------------- #
class TestShardMergeEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_count_many_exact(self, dataset, queries, num_shards, policy):
        engine = ShardedEngine(dataset, num_shards=num_shards, policy=policy)
        single = AIT(dataset).flat()
        assert np.array_equal(engine.count_many(queries), single.count_many(queries))

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_report_many_same_result_sets(self, dataset, queries, num_shards, policy):
        engine = ShardedEngine(dataset, num_shards=num_shards, policy=policy)
        single = AIT(dataset).flat()
        for merged, expected in zip(engine.report_many(queries), single.report_many(queries)):
            assert merged.dtype == np.int64
            assert sorted(merged.tolist()) == sorted(expected.tolist())

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_total_weight_many_exact(self, weighted_dataset, make_queries, num_shards):
        engine = ShardedEngine(weighted_dataset, num_shards=num_shards)
        assert engine.is_weighted
        single = AWIT(weighted_dataset).flat()
        batch = make_queries(weighted_dataset, count=25, extent=0.1, seed=5)
        assert np.allclose(
            engine.total_weight_many(batch), single.total_weight_many(batch)
        )

    def test_unweighted_total_weight_equals_counts(self, dataset, queries):
        engine = ShardedEngine(dataset, num_shards=3)
        assert np.array_equal(
            engine.total_weight_many(queries),
            engine.count_many(queries).astype(np.float64),
        )

    def test_scalar_wrappers_match_batch(self, dataset, queries):
        engine = ShardedEngine(dataset, num_shards=4)
        query = queries[0]
        assert engine.count(query) == int(engine.count_many([query])[0])
        assert engine.report(query).tolist() == engine.report_many([query])[0].tolist()
        assert len(engine.sample(query, 5, random_state=0)) in (0, 5)

    def test_empty_batch(self, dataset):
        engine = ShardedEngine(dataset, num_shards=2)
        assert engine.count_many([]).shape == (0,)
        assert engine.report_many([]) == []
        assert engine.sample_many([], 4) == []


# ---------------------------------------------------------------------- #
# sampling distribution (multinomial shard allocation)
# ---------------------------------------------------------------------- #
class TestSamplingDistribution:
    @pytest.mark.parametrize("num_shards", (2, 4, 8))
    def test_uniform_sampling_chi_square(self, dataset, num_shards):
        engine = ShardedEngine(dataset, num_shards=num_shards)
        lo, hi = dataset.domain()
        query = (lo + (hi - lo) * 0.3, lo + (hi - lo) * 0.45)
        population = dataset.overlap_indices(*query).tolist()
        assert len(population) > 5
        draws = np.concatenate(
            engine.sample_many([query] * 40, 300, random_state=1234)
        )
        fit = chi_square_uniformity(draws.tolist(), population)
        assert not fit.rejects_uniformity(alpha=1e-4)

    def test_weighted_sampling_chi_square(self, weighted_dataset):
        engine = ShardedEngine(weighted_dataset, num_shards=4)
        lo, hi = weighted_dataset.domain()
        query = (lo + (hi - lo) * 0.2, lo + (hi - lo) * 0.5)
        population = weighted_dataset.overlap_indices(*query).tolist()
        assert len(population) > 5
        weights = weighted_dataset.weights[population]
        draws = np.concatenate(
            engine.sample_many([query] * 40, 300, random_state=99)
        )
        fit = chi_square_weighted(draws.tolist(), population, weights.tolist())
        assert not fit.rejects_uniformity(alpha=1e-4)

    def test_shard_allocation_follows_multinomial_proportions(self, dataset):
        """Which-shard frequencies must match per-shard overlap mass exactly."""
        num_shards = 4
        engine = ShardedEngine(dataset, num_shards=num_shards)
        lo, hi = dataset.domain()
        query = (lo, hi)
        per_shard_counts = np.array(
            [shard.snapshot.count(query) for shard in engine.shards], dtype=np.float64
        )
        probabilities = per_shard_counts / per_shard_counts.sum()
        draws = np.concatenate(engine.sample_many([query] * 30, 400, random_state=7))
        owner = np.array([engine.shard_of(int(i)) for i in draws])
        observed = np.bincount(owner, minlength=num_shards)
        from repro.stats import chi_square_goodness_of_fit

        fit = chi_square_goodness_of_fit(
            owner.tolist(), {k: float(p) for k, p in enumerate(probabilities)}
        )
        assert not fit.rejects_uniformity(alpha=1e-4)
        # every shard with mass must actually be hit on a sample this large
        assert np.all(observed[per_shard_counts > 0] > 0)

    def test_sample_rows_not_grouped_by_shard(self, dataset):
        """Prefixes of a row must be unbiased: position must not encode the shard."""
        engine = ShardedEngine(dataset, num_shards=4)
        lo, hi = dataset.domain()
        rows = engine.sample_many([(lo, hi)] * 200, 50, random_state=11)
        first_owner = np.array([engine.shard_of(int(row[0])) for row in rows])
        last_owner = np.array([engine.shard_of(int(row[-1])) for row in rows])
        # with 4 populated shards, a shard-grouped row would pin position 0
        # (and position -1) to the extreme shards of the merge order
        assert len(set(first_owner.tolist())) > 1
        assert len(set(last_owner.tolist())) > 1

    def test_sample_on_empty_modes(self, dataset):
        engine = ShardedEngine(dataset, num_shards=2)
        _, hi = dataset.domain()
        empty_query = (hi + 5.0, hi + 6.0)
        assert engine.sample(empty_query, 3).shape == (0,)
        with pytest.raises(EmptyResultError):
            engine.sample(empty_query, 3, on_empty="raise")
        with pytest.raises(ValueError):
            engine.sample(empty_query, 3, on_empty="panic")

    def test_sample_size_zero(self, dataset, queries):
        engine = ShardedEngine(dataset, num_shards=2)
        assert all(row.shape == (0,) for row in engine.sample_many(queries, 0))


# ---------------------------------------------------------------------- #
# updates: buffered delta log + versioned snapshot refresh
# ---------------------------------------------------------------------- #
class TestUpdates:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("num_shards", (1, 4))
    def test_update_then_query_matches_oracle(
        self, make_random_dataset, make_queries, num_shards, policy
    ):
        dataset = make_random_dataset(n=400, seed=31)
        engine = ShardedEngine(dataset, num_shards=num_shards, policy=policy)
        rng = np.random.default_rng(17)
        lefts = list(dataset.lefts)
        rights = list(dataset.rights)
        active = set(range(len(dataset)))

        queries = make_queries(dataset, count=10, extent=0.15, seed=8)
        for step in range(6):
            for _ in range(25):
                left = float(rng.uniform(0.0, 1000.0))
                right = left + float(rng.exponential(25.0))
                new_id = engine.insert((left, right))
                assert new_id == len(lefts)
                lefts.append(left)
                rights.append(right)
                active.add(new_id)
            removable = list(active)
            for victim in rng.choice(len(removable), size=10, replace=False):
                target = removable[int(victim)]
                if engine.delete(target):
                    active.discard(target)
            for query in queries:
                truth = {
                    i
                    for i in active
                    if lefts[i] <= query[1] and query[0] <= rights[i]
                }
                assert engine.count(query) == len(truth)
                assert set(engine.report(query).tolist()) == truth
                sampled = engine.sample(query, 20, random_state=step)
                if truth:
                    assert set(sampled.tolist()) <= truth
                else:
                    assert sampled.shape == (0,)
        assert engine.size == len(active)

    def test_updates_match_unsharded_flat_engine(self, make_random_dataset, make_queries):
        """After interleaved updates the engine still equals one FlatAIT."""
        dataset = make_random_dataset(n=300, seed=41)
        engine = ShardedEngine(dataset, num_shards=4)
        rng = np.random.default_rng(5)
        inserted = []
        for _ in range(80):
            left = float(rng.uniform(0.0, 1000.0))
            right = left + float(rng.exponential(30.0))
            inserted.append((left, right))
            engine.insert((left, right))
        deleted = [int(i) for i in rng.choice(300, size=60, replace=False)]
        for victim in deleted:
            assert engine.delete(victim)

        survivors = sorted(set(range(300)) - set(deleted))
        reference_lefts = list(dataset.lefts[survivors]) + [p[0] for p in inserted]
        reference_rights = list(dataset.rights[survivors]) + [p[1] for p in inserted]
        reference = AIT(IntervalDataset(reference_lefts, reference_rights)).flat()
        queries = make_queries(dataset, count=20, extent=0.1, seed=3)
        assert np.array_equal(
            engine.count_many(queries), reference.count_many(queries)
        )

    def test_refresh_is_lazy_and_versioned(self, dataset):
        engine = ShardedEngine(dataset, num_shards=2)
        versions_before = engine.versions()
        engine.insert((0.0, 1.0))
        assert engine.pending_ops() == 1
        assert engine.versions() == versions_before  # nothing applied yet
        engine.count((0.0, 0.5))  # batch boundary triggers the refresh
        assert engine.pending_ops() == 0
        changed = [
            after > before for before, after in zip(versions_before, engine.versions())
        ]
        assert sum(changed) == 1  # only the owning shard re-snapshotted

    def test_delete_semantics(self, dataset):
        engine = ShardedEngine(dataset, num_shards=2)
        assert engine.delete(0) is True
        assert engine.delete(0) is False  # double delete
        assert engine.delete(10**9) is False  # unknown id
        assert engine.delete("zero") is False  # junk
        assert engine.size == len(dataset) - 1
        assert engine.count_many([(dataset.lefts[0], dataset.rights[0])]) is not None

    def test_insert_validation(self, dataset):
        engine = ShardedEngine(dataset, num_shards=2)
        with pytest.raises(InvalidIntervalError):
            engine.insert((5.0, 1.0))
        with pytest.raises(InvalidIntervalError):
            engine.insert("not-an-interval")

    def test_weighted_engine_rejects_updates(self, weighted_dataset):
        engine = ShardedEngine(weighted_dataset, num_shards=2)
        with pytest.raises(StructureStateError):
            engine.insert((0.0, 1.0))
        with pytest.raises(StructureStateError):
            engine.delete(0)

    def test_range_policy_routes_inserts_to_owning_shard(self, make_random_dataset):
        dataset = make_random_dataset(n=200, seed=51)
        engine = ShardedEngine(dataset, num_shards=4, policy="range")
        lo, hi = dataset.domain()
        low_id = engine.insert((lo, lo + 1.0))
        high_id = engine.insert((hi - 1.0, hi))
        assert engine.shard_of(low_id) == 0
        assert engine.shard_of(high_id) == engine.num_shards - 1


# ---------------------------------------------------------------------- #
# executors
# ---------------------------------------------------------------------- #
class TestExecutors:
    def test_resolve_executor_errors(self):
        with pytest.raises(TypeError):
            resolve_executor(42)
        executor, owned = resolve_executor("process")
        assert isinstance(executor, ProcessExecutor) and owned
        executor.shutdown()

    def test_engine_repr_and_introspection(self, dataset):
        engine = ShardedEngine(dataset, num_shards=4)
        assert engine.num_shards == 4
        assert sum(engine.shard_sizes()) == len(dataset)
        assert len(engine) == len(dataset)
        assert engine.policy == "round_robin"
        assert engine.nbytes() > 0
        assert "shards=4" in repr(engine)
        with pytest.raises(KeyError):
            engine.shard_of(-1)


# ---------------------------------------------------------------------- #
# bulk write path: insert_many / delete_many + incremental shard refresh
# ---------------------------------------------------------------------- #
class TestBulkWrites:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_bulk_ops_match_scalar_loop(self, dataset, queries, policy):
        bulk = ShardedEngine(dataset, num_shards=4, policy=policy)
        scalar = ShardedEngine(dataset, num_shards=4, policy=policy)
        rng = np.random.default_rng(51)
        lefts = rng.uniform(0.0, 1000.0, 60)
        rights = lefts + rng.exponential(25.0, 60)
        bulk_ids = bulk.insert_many(lefts, rights)
        scalar_ids = [scalar.insert((l, r)) for l, r in zip(lefts, rights)]
        assert bulk_ids.tolist() == scalar_ids
        victims = rng.choice(len(dataset) + 60, size=80, replace=True).tolist()
        bulk_flags = bulk.delete_many(victims)
        scalar_flags = [scalar.delete(v) for v in victims]
        assert bulk_flags.tolist() == scalar_flags
        assert bulk.size == scalar.size
        assert np.array_equal(bulk.count_many(queries), scalar.count_many(queries))
        for mine, theirs in zip(bulk.report_many(queries), scalar.report_many(queries)):
            assert set(mine.tolist()) == set(theirs.tolist())

    def test_bulk_insert_validation(self, dataset):
        engine = ShardedEngine(dataset, num_shards=2)
        size = engine.size
        with pytest.raises(InvalidIntervalError):
            engine.insert_many([0.0, 5.0], [1.0, 4.0])
        with pytest.raises(InvalidIntervalError):
            engine.insert_many([0.0], [1.0, 2.0])
        assert engine.size == size
        assert engine.insert_many([], []).shape == (0,)

    def test_weighted_engine_rejects_bulk_writes(self, weighted_dataset):
        engine = ShardedEngine(weighted_dataset, num_shards=2)
        with pytest.raises(StructureStateError):
            engine.insert_many([0.0], [1.0])
        with pytest.raises(StructureStateError):
            engine.delete_many([0])

    def test_refresh_replays_delta_log_without_full_snapshot_rebuild(
        self, make_random_dataset
    ):
        """A bounded delta log lands in the overlay; the base is not rebuilt."""
        dataset = make_random_dataset(n=4000, seed=52)
        engine = ShardedEngine(dataset, num_shards=2)
        engine.refresh()
        bases_before = [s.snapshot for s in engine.shards]
        rng = np.random.default_rng(53)
        lefts = rng.uniform(0.0, 1000.0, 40)
        rights = lefts + rng.exponential(20.0, 40)
        engine.insert_many(lefts, rights)
        engine.delete_many(rng.choice(4000, size=30, replace=False))
        assert engine.pending_ops() > 0
        engine.refresh()
        assert engine.pending_ops() == 0
        assert [s.base_rebuilds for s in engine.shards] == [0, 0]  # no base rebuild
        assert all(s.snapshot is base for s, base in zip(engine.shards, bases_before))
        assert all(s.overlay is not None for s in engine.shards)

    def test_mixed_bulk_and_scalar_log_replay(self, make_random_dataset, make_queries):
        """Interleaved scalar and bulk ops replay in log order at refresh."""
        dataset = make_random_dataset(n=500, seed=54)
        engine = ShardedEngine(dataset, num_shards=3)
        first = engine.insert((10.0, 20.0))
        batch = engine.insert_many([30.0, 40.0], [35.0, 45.0])
        assert engine.delete(first)
        assert engine.delete_many([int(batch[0])]).tolist() == [True]
        last = engine.insert((50.0, 60.0))
        engine.refresh()
        survivors = {int(batch[1]), last}
        reported = set(engine.report((0.0, 100.0)).tolist())
        assert survivors <= reported
        assert first not in reported and int(batch[0]) not in reported
        assert engine.size == len(dataset) + 4 - 2


def test_a_failed_shard_refresh_surfaces_and_the_next_refresh_drains_it(
    dataset, monkeypatch
):
    """A shard whose refresh raises keeps its delta log for the next refresh."""
    engine = ShardedEngine(dataset, num_shards=4)
    rng = np.random.default_rng(17)
    lefts = rng.uniform(0.0, 900.0, 64)
    engine.insert_many(lefts, lefts + 10.0)
    assert all(s.pending_ops for s in engine.shards)
    build = FlatAIT.from_arrays
    calls = []

    def fail_second_build(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("injected shard failure")
        return build(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(FlatAIT, "from_arrays", fail_second_build)
        with pytest.raises(RuntimeError, match=r"injected shard failure"):
            engine.refresh()
    failing = engine.shards[1]
    assert failing.pending_ops == 16 and failing.overlay is None
    assert engine.shards[0].pending_ops == 0
    engine.refresh()
    assert engine.pending_ops() == 0
    assert engine.size == len(dataset) + 64
    assert sum(engine.shard_sizes()) == engine.size
    assert engine.count_many(np.array([[-1e9, 1e9]]))[0] == engine.size
