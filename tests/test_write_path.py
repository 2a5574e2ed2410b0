"""Write-path tests: bulk APIs, columnar growth/recycling, snapshots after updates.

Covers the update-path edge cases the scalar tests miss — delete-from-pool
then flush, double deletes, recycled-slot deletes, interleaved bulk vs
scalar-loop oracles — plus the equivalence of the refreshed FlatAIT
snapshot against an independent ``from_tree`` flatten after randomised
write sequences (AIT and AWIT), the pool-epoch staleness counter, and the
delete-of-unindexed-id regression.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AIT, AWIT, FlatAIT, IntervalDataset
from repro.core.errors import InvalidIntervalError, InvalidWeightError


def assert_flat_equal(actual: FlatAIT, expected: FlatAIT) -> None:
    """Two snapshots must be bit-identical, array by array."""
    assert actual.node_count == expected.node_count
    assert np.array_equal(actual._centers, expected._centers)
    assert np.array_equal(actual._left_child, expected._left_child)
    assert np.array_equal(actual._right_child, expected._right_child)
    assert np.array_equal(actual._stab_off, expected._stab_off)
    assert np.array_equal(actual._stab_len, expected._stab_len)
    assert np.array_equal(actual._sub_off, expected._sub_off)
    assert np.array_equal(actual._sub_len, expected._sub_len)
    assert np.array_equal(actual._sorted_lefts, expected._sorted_lefts)
    assert np.array_equal(actual._sorted_rights, expected._sorted_rights)
    assert np.array_equal(actual._root_ids, expected._root_ids)
    assert np.array_equal(actual._all_keys, expected._all_keys)
    if expected._all_weight_prefix is None:
        assert actual._all_weight_prefix is None
    else:
        assert np.allclose(actual._all_weight_prefix, expected._all_weight_prefix)


def random_batch(rng, count, domain=1000.0):
    lefts = rng.uniform(0.0, domain, count)
    rights = lefts + rng.exponential(domain / 50.0, count)
    return lefts, rights


# ---------------------------------------------------------------------- #
# bulk insertion
# ---------------------------------------------------------------------- #
class TestInsertMany:
    def test_matches_scalar_loop_oracle(self, make_random_dataset, make_queries):
        dataset = make_random_dataset(n=300, seed=1)
        bulk = AIT(dataset)
        scalar = AIT(dataset)
        rng = np.random.default_rng(2)
        lefts, rights = random_batch(rng, 120)
        bulk_ids = bulk.insert_many(lefts, rights)
        scalar_ids = [scalar.insert((l, r)) for l, r in zip(lefts, rights)]
        scalar.flush_pool()
        assert bulk_ids.tolist() == scalar_ids
        for query in make_queries(dataset, count=15):
            assert bulk.count(query) == scalar.count(query)
            assert set(bulk.report(query).tolist()) == set(scalar.report(query).tolist())
        bulk.check_invariants()

    def test_bulk_load_into_empty_tree(self, make_queries):
        seed = IntervalDataset.from_pairs([(0.0, 1.0)])
        tree = AIT(seed)
        tree.delete(0)
        rng = np.random.default_rng(3)
        lefts, rights = random_batch(rng, 500)
        ids = tree.insert_many(lefts, rights)
        assert tree.size == 500
        assert tree.pending_pool_size == 0
        loaded = IntervalDataset(lefts, rights)
        reference = AIT(loaded)
        for query in make_queries(loaded, count=10):
            assert tree.count(query) == reference.count(query)
        tree.check_invariants()
        # id 0 was vacated before the bulk load and must have been recycled.
        assert 0 in set(ids.tolist())

    def test_empty_batch_is_noop(self, random_dataset):
        tree = AIT(random_dataset)
        version = tree.structure_version
        ids = tree.insert_many([], [])
        assert ids.shape == (0,)
        assert tree.structure_version == version

    def test_validation_mutates_nothing(self, random_dataset):
        tree = AIT(random_dataset)
        size = tree.size
        version = tree.structure_version
        with pytest.raises(InvalidIntervalError):
            tree.insert_many([0.0, 5.0], [1.0, 4.0])  # second interval inverted
        with pytest.raises(InvalidIntervalError):
            tree.insert_many([0.0, np.inf], [1.0, 2.0])
        with pytest.raises(InvalidIntervalError):
            tree.insert_many([0.0], [1.0, 2.0])
        with pytest.raises(InvalidWeightError):
            tree.insert_many([0.0], [1.0], weights=[-2.0])
        assert tree.size == size
        assert tree.structure_version == version

    def test_weighted_bulk_insert(self, make_random_dataset, make_queries):
        dataset = make_random_dataset(n=200, seed=5, weighted=True)
        tree = AWIT(dataset)
        rng = np.random.default_rng(6)
        lefts, rights = random_batch(rng, 80)
        weights = rng.integers(1, 50, 80).astype(np.float64)
        tree.insert_many(lefts, rights, weights=weights)
        combined = IntervalDataset(
            np.concatenate((dataset.lefts, lefts)),
            np.concatenate((dataset.rights, rights)),
            np.concatenate((dataset.weights, weights)),
        )
        reference = AWIT(combined)
        for query in make_queries(dataset, count=10):
            assert tree.count(query) == reference.count(query)
            assert tree.total_weight(query) == pytest.approx(reference.total_weight(query))
        tree.check_invariants()


# ---------------------------------------------------------------------- #
# bulk deletion and update-path edge cases
# ---------------------------------------------------------------------- #
class TestDeleteMany:
    def test_matches_scalar_loop_oracle(self, make_random_dataset, make_queries):
        dataset = make_random_dataset(n=400, seed=7)
        bulk = AIT(dataset)
        scalar = AIT(dataset)
        rng = np.random.default_rng(8)
        victims = rng.choice(450, size=200, replace=True).tolist()  # dupes + unknown ids
        bulk_flags = bulk.delete_many(victims)
        scalar_flags = [scalar.delete(v) for v in victims]
        assert bulk_flags.tolist() == scalar_flags
        assert bulk.size == scalar.size
        for query in make_queries(dataset, count=15):
            assert bulk.count(query) == scalar.count(query)
            assert set(bulk.report(query).tolist()) == set(scalar.report(query).tolist())
        bulk.check_invariants()

    def test_single_structure_version_bump(self, random_dataset):
        tree = AIT(random_dataset)
        version = tree.structure_version
        assert tree.delete_many([0, 1, 2, 3]).all()
        assert tree.structure_version == version + 1

    def test_delete_from_pool_then_flush(self, make_random_dataset):
        tree = AIT(make_random_dataset(n=100, seed=9), batch_pool_size=50)
        pooled = [tree.insert((float(i), float(i) + 0.5)) for i in range(10)]
        doomed = pooled[3]
        assert tree.delete(doomed)
        assert tree.flush_pool() == 9
        assert doomed not in set(tree.report((0.0, 20.0)).tolist())
        assert tree.size == 100 + 9
        tree.check_invariants()

    def test_double_delete(self, random_dataset):
        tree = AIT(random_dataset)
        assert tree.delete(5)
        assert not tree.delete(5)
        assert tree.delete_many([6, 6]).tolist() == [True, False]
        assert not tree.delete_many([5])[0]

    def test_delete_of_vacated_and_recycled_id(self, make_random_dataset):
        tree = AIT(make_random_dataset(n=50, seed=10))
        assert tree.delete(7)
        assert tree.free_slot_count == 1
        new_id = tree.insert((2000.0, 2001.0), immediate=True)
        assert new_id == 7  # the vacated slot was recycled
        assert tree.free_slot_count == 0
        # Deleting the recycled id removes the *new* interval.
        assert tree.count((2000.0, 2001.0)) == 1
        assert tree.delete(7)
        assert tree.count((2000.0, 2001.0)) == 0
        assert not tree.delete(7)
        tree.check_invariants()

    def test_columns_do_not_leak_under_churn(self, make_random_dataset):
        tree = AIT(make_random_dataset(n=64, seed=11))
        capacity_high_water = tree.column_capacity
        rng = np.random.default_rng(12)
        live = set(range(64))
        for _ in range(40):
            lefts, rights = random_batch(rng, 8)
            live.update(tree.insert_many(lefts, rights).tolist())
            victims = rng.choice(sorted(live), size=8, replace=False)
            tree.delete_many(victims)
            live.difference_update(int(v) for v in victims)
        # Steady-state churn recycles slots: capacity stays bounded instead
        # of growing by 8 columns per round.
        assert tree.column_capacity <= max(capacity_high_water, 4 * len(live) + 64)
        tree.check_invariants()

    def test_weighted_bulk_delete(self, make_random_dataset, make_queries):
        dataset = make_random_dataset(n=250, seed=13, weighted=True)
        tree = AWIT(dataset)
        rng = np.random.default_rng(14)
        victims = rng.choice(250, size=100, replace=False)
        assert tree.delete_many(victims).all()
        survivors = sorted(set(range(250)) - set(int(v) for v in victims))
        reference = AWIT(dataset.subset(survivors))
        for query in make_queries(dataset, count=10):
            assert tree.count(query) == reference.count(query)
            assert tree.total_weight(query) == pytest.approx(reference.total_weight(query))
        tree.check_invariants()

    def test_interleaved_bulk_ops_match_scalar_loop(self, make_random_dataset, make_queries):
        dataset = make_random_dataset(n=300, seed=15)
        bulk = AIT(dataset)
        scalar = AIT(dataset)
        rng = np.random.default_rng(16)
        # Pre-draw the whole op sequence so both twins replay identical ops.
        script = []
        live = list(range(300))
        next_id_guess = 300  # only used to script victims; ids are asserted equal
        for _ in range(8):
            lefts, rights = random_batch(rng, 30)
            inserted = list(range(next_id_guess, next_id_guess + 30))
            victims = rng.choice(live + inserted, size=10, replace=False).tolist()
            script.append((lefts, rights, victims))
            live = [i for i in live + inserted if i not in set(victims)]
            next_id_guess += 30
        for lefts, rights, victims in script:
            bulk_ids = bulk.insert_many(lefts, rights)
            scalar_ids = [scalar.insert((l, r)) for l, r in zip(lefts, rights)]
            scalar.flush_pool()
            bulk_flags = bulk.delete_many(victims)
            scalar_flags = [scalar.delete(v) for v in victims]
            assert bulk_flags.tolist() == scalar_flags
            # Identical id allocation (recycling included) keeps the twins
            # comparable op for op.
            assert bulk_ids.tolist() == scalar_ids
        assert bulk.size == scalar.size
        for query in make_queries(dataset, count=15):
            assert bulk.count(query) == scalar.count(query)
            assert set(bulk.report(query).tolist()) == set(scalar.report(query).tolist())
        bulk.check_invariants()
        scalar.check_invariants()


# ---------------------------------------------------------------------- #
# regressions
# ---------------------------------------------------------------------- #
class TestDeleteRegressions:
    def test_delete_of_unindexed_id_mutates_nothing(self, make_random_dataset):
        """An id that descends to no stab list must not drift size/version."""
        # The eager backend keeps the hand-built inconsistency below intact
        # (the lazy columnar backend would simply re-materialise the tree).
        tree = AIT(make_random_dataset(n=40, seed=17), build_backend="tree")
        # Simulate the inconsistency: a valid, undeleted id whose interval is
        # not actually present in the tree.
        tree._root = None
        tree._height = 0
        size = tree.size
        version = tree.structure_version
        deleted = set(tree._deleted)
        assert not tree.delete(3)
        assert tree.size == size
        assert tree.structure_version == version
        assert tree._deleted == deleted
        assert not tree.delete_many([3])[0]
        assert tree.size == size
        assert tree.structure_version == version

    def test_pool_epoch_tracks_pool_membership(self, make_random_dataset):
        """Pool-only changes move pool_epoch while structure_version stays put."""
        tree = AIT(make_random_dataset(n=100, seed=18), batch_pool_size=50)
        structure = tree.structure_version
        epoch = tree.pool_epoch
        pooled = tree.insert((1.0, 2.0))
        assert tree.structure_version == structure
        assert tree.pool_epoch > epoch

        # The regression: a consumer that caches the flat snapshot plus the
        # pool's matching ids (the documented structure_version recipe) must
        # be able to see the pooled delete *somewhere*.  structure_version
        # stays put by design — pool_epoch is the signal.
        count_with_pooled = tree.count((0.5, 2.5))
        epoch = tree.pool_epoch
        cached_pool_ids = {pooled}
        assert tree.delete(pooled)
        assert tree.structure_version == structure  # unchanged: pool-only op
        assert tree.pool_epoch > epoch              # ... but the epoch moved
        # Replaying the recipe with the epoch check drops the stale id.
        if tree.pool_epoch != epoch:
            cached_pool_ids = set(tree._pool)
        assert pooled not in cached_pool_ids
        assert tree.count((0.5, 2.5)) == count_with_pooled - 1

    def test_flush_pool_advances_pool_epoch(self, make_random_dataset):
        tree = AIT(make_random_dataset(n=100, seed=19), batch_pool_size=50)
        tree.insert((1.0, 2.0))
        epoch = tree.pool_epoch
        tree.flush_pool()
        assert tree.pool_epoch > epoch
        assert tree.pending_pool_size == 0


# ---------------------------------------------------------------------- #
# FlatAIT refresh after updates
# ---------------------------------------------------------------------- #
class TestSnapshotAfterUpdates:
    @pytest.mark.parametrize("weighted", (False, True))
    def test_randomised_write_sequences_match_full_rebuild(
        self, make_random_dataset, make_queries, weighted
    ):
        dataset = make_random_dataset(n=600, seed=20, weighted=weighted)
        tree = AWIT(dataset) if weighted else AIT(dataset)
        tree.flat()  # establish the initial (full) snapshot
        queries = make_queries(dataset, count=10)
        rng = np.random.default_rng(21)
        live = set(range(600))
        for round_index in range(10):
            if rng.random() < 0.6 or len(live) < 50:
                lefts, rights = random_batch(rng, int(rng.integers(5, 40)))
                weights = (
                    rng.integers(1, 30, lefts.shape[0]).astype(np.float64)
                    if weighted
                    else None
                )
                live.update(tree.insert_many(lefts, rights, weights=weights).tolist())
            else:
                victims = rng.choice(sorted(live), size=int(rng.integers(5, 30)), replace=False)
                tree.delete_many(victims)
                live.difference_update(int(v) for v in victims)
            refreshed = tree.flat()
            expected = FlatAIT.from_tree(tree)  # independent full rebuild
            assert_flat_equal(refreshed, expected)
            assert tree.count_many(queries).tolist() == [tree.count(q) for q in queries]

    def test_flat_is_cached_until_the_structure_changes(self, make_random_dataset):
        tree = AIT(make_random_dataset(n=500, seed=22))
        first = tree.flat()
        assert tree.flat() is first
        tree.delete_many(list(range(20)))
        refreshed = tree.flat()
        assert refreshed is not first
        assert tree.flat() is refreshed
        assert_flat_equal(refreshed, FlatAIT.from_tree(tree))

    def test_snapshot_after_height_rebuild_matches_from_tree(self):
        """A height-limit rebuild replaces every node; the snapshot follows."""
        dataset = IntervalDataset([0.0, 100.0], [1.0, 101.0])
        tree = AIT(dataset)
        tree.flat()
        for i in range(200):
            left = 200.0 + i
            tree.insert((left, left + 0.5), immediate=True)
        assert tree.rebuild_count >= 2
        assert_flat_equal(tree.flat(), FlatAIT.from_tree(tree))

    def test_batch_queries_after_updates(self, make_random_dataset, make_queries):
        dataset = make_random_dataset(n=3000, seed=24)
        tree = AIT(dataset)
        tree.flat()
        rng = np.random.default_rng(25)
        lefts, rights = random_batch(rng, 30)
        tree.insert_many(lefts, rights)
        tree.delete_many(rng.choice(3000, size=20, replace=False))
        queries = make_queries(dataset, count=20)
        assert_flat_equal(tree.flat(), FlatAIT.from_tree(tree))
        scalar_counts = [tree.count(q) for q in queries]
        assert tree.count_many(queries).tolist() == scalar_counts
        for query, chunk in zip(queries, tree.report_many(queries)):
            assert set(chunk.tolist()) == set(tree.report(query).tolist())
        samples = tree.sample_many(queries, 50, random_state=0)
        for query, row in zip(queries, samples):
            allowed = set(tree.report(query).tolist())
            if allowed:
                assert set(row.tolist()) <= allowed
