"""Equivalence suite for the treeless columnar builder (FlatAIT.from_arrays).

The columnar builder commits to a strong contract: for any interval set, its
output is **bit-identical** to flattening a freshly built node tree over the
same data — every structure array, every list pool, every weight prefix.  These tests pin that contract across dataset shapes
(duplicates, point intervals, weighted columns, degenerate sizes), then
verify the wiring: the ``build_backend`` knob on AIT / AWIT, lazy node-tree
materialisation, the handoff from a treeless snapshot to ``from_tree`` after
updates, and the engine's shard bases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AIT, AWIT, FlatAIT, IntervalDataset
from repro.core.errors import InvalidIntervalError, InvalidWeightError
from repro.core.flat import segmented_cumsum
from repro.service import Shard, ShardedEngine

#: Every array a FlatAIT holds.
SNAPSHOT_ARRAYS = (
    "_centers",
    "_left_child",
    "_right_child",
    "_stab_off",
    "_stab_len",
    "_sub_off",
    "_sub_len",
    "_sorted_lefts",
    "_sorted_rights",
    "_root_ids",
    "_all_keys",
    "_all_weight_prefix",
)


def assert_snapshots_identical(actual: FlatAIT, expected: FlatAIT) -> None:
    """Bit-exact equality, dtype included — no allclose anywhere."""
    assert actual.node_count == expected.node_count
    assert actual.is_weighted == expected.is_weighted
    for name in SNAPSHOT_ARRAYS:
        left = getattr(actual, name)
        right = getattr(expected, name)
        if right is None:
            assert left is None, name
            continue
        assert left is not None, name
        assert left.dtype == right.dtype, (name, left.dtype, right.dtype)
        assert np.array_equal(left, right), name


def make_columns(n: int, seed: int, kind: str, weighted: bool, domain: float = 1000.0):
    """Endpoint (and optional weight) columns for one dataset shape."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        lefts = rng.uniform(0.0, domain, n)
        lengths = rng.exponential(domain / 50.0, n)
    elif kind == "points":
        lefts = rng.uniform(0.0, domain, n)
        lengths = np.zeros(n)
    elif kind == "duplicates":
        base_count = max(1, n // 10)
        base_lefts = rng.uniform(0.0, domain, base_count)
        base_lengths = rng.exponential(domain / 50.0, base_count)
        picks = rng.integers(0, base_count, n)
        lefts = base_lefts[picks]
        lengths = base_lengths[picks]
    else:  # pragma: no cover - guarded by parametrize
        raise ValueError(kind)
    rights = lefts + lengths
    weights = rng.integers(1, 50, n).astype(np.float64) if weighted else None
    return lefts, rights, weights


SIZES = (0, 1, 2, 63, 1000)
KINDS = ("uniform", "points", "duplicates")


# ---------------------------------------------------------------------- #
# builder equivalence: from_arrays vs from_tree
# ---------------------------------------------------------------------- #
class TestFromArraysEquivalence:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("weighted", (False, True))
    def test_arrays_identical_to_tree_flatten(self, n, kind, weighted):
        lefts, rights, weights = make_columns(n, seed=97 * n + 11, kind=kind, weighted=weighted)
        if n == 0:
            # AIT requires a non-empty dataset; an emptied tree is the oracle.
            tree = AIT(IntervalDataset.from_pairs([(0.0, 1.0)]), build_backend="tree")
            tree.delete(0)
        else:
            dataset = IntervalDataset(lefts, rights, weights)
            tree = (
                AWIT(dataset, build_backend="tree")
                if weighted
                else AIT(dataset, build_backend="tree")
            )
        expected = FlatAIT.from_tree(tree)
        actual = FlatAIT.from_arrays(lefts, rights, weights=weights)
        if n == 0 and weighted:
            # An emptied unweighted tree is the only empty oracle available;
            # compare the unweighted projection instead.
            actual = FlatAIT.from_arrays(lefts, rights)
        assert_snapshots_identical(actual, expected)

    @pytest.mark.parametrize("weighted", (False, True))
    def test_query_results_identical(self, weighted, make_queries):
        lefts, rights, weights = make_columns(800, seed=5, kind="uniform", weighted=weighted)
        dataset = IntervalDataset(lefts, rights, weights)
        tree = AWIT(dataset, build_backend="tree") if weighted else AIT(dataset, build_backend="tree")
        expected = FlatAIT.from_tree(tree)
        actual = FlatAIT.from_arrays(lefts, rights, weights=weights)
        queries = make_queries(dataset, count=30)
        assert actual.count_many(queries).tolist() == expected.count_many(queries).tolist()
        assert np.array_equal(
            actual.total_weight_many(queries), expected.total_weight_many(queries)
        )
        for mine, theirs in zip(actual.report_many(queries), expected.report_many(queries)):
            assert mine.tolist() == theirs.tolist()
        mine_rows = actual.sample_many(queries, 40, random_state=123)
        their_rows = expected.sample_many(queries, 40, random_state=123)
        for mine, theirs in zip(mine_rows, their_rows):
            # Identical arrays + identical RNG stream => identical draws.
            assert mine.tolist() == theirs.tolist()

    def test_non_identity_ids(self):
        """Sparse id maps (post-deletion active sets) round-trip exactly."""
        lefts, rights, _ = make_columns(400, seed=9, kind="uniform", weighted=False)
        dataset = IntervalDataset(lefts, rights)
        tree = AIT(dataset, build_backend="tree")
        victims = list(range(0, 400, 5))
        tree.delete_many(victims)
        tree._rebuild()  # force a fresh build over the survivors
        survivors = np.setdiff1d(np.arange(400), np.asarray(victims))
        actual = FlatAIT.from_arrays(lefts[survivors], rights[survivors], ids=survivors)
        assert_snapshots_identical(actual, FlatAIT.from_tree(tree))

    def test_validation_errors(self):
        with pytest.raises(InvalidIntervalError):
            FlatAIT.from_arrays([0.0, 1.0], [1.0])
        with pytest.raises(InvalidIntervalError):
            FlatAIT.from_arrays([0.0, 5.0], [1.0, 4.0])
        with pytest.raises(InvalidIntervalError):
            FlatAIT.from_arrays([0.0, np.nan], [1.0, 2.0])
        with pytest.raises(InvalidIntervalError):
            FlatAIT.from_arrays([0.0], [1.0], ids=[1, 2])
        with pytest.raises(InvalidWeightError):
            FlatAIT.from_arrays([0.0], [1.0], weights=[1.0, 2.0])
        with pytest.raises(InvalidWeightError):
            FlatAIT.from_arrays([0.0], [1.0], weights=[-1.0])
        with pytest.raises(InvalidIntervalError):
            FlatAIT.from_arrays([0.0, 5.0], [10.0, 15.0], ids=[7, 7])
        with pytest.raises(InvalidIntervalError):
            FlatAIT.from_arrays([0.0, 5.0], [10.0, 15.0], ids=[-1, 0])

    def test_sparse_huge_ids_use_compact_rank_lookup(self, make_queries):
        """Caller-supplied huge ids must not allocate id-sized rank tables."""
        lefts, rights, _ = make_columns(500, seed=13, kind="uniform", weighted=False)
        dense = FlatAIT.from_arrays(lefts, rights)
        huge = np.arange(500, dtype=np.int64) * 10**12 + 5
        sparse = FlatAIT.from_arrays(lefts, rights, ids=huge)
        dataset = IntervalDataset(lefts, rights)
        for query in make_queries(dataset, count=15):
            assert sparse.count(query) == dense.count(query)
            assert sparse.report(query).tolist() == huge[dense.report(query)].tolist()

    def test_arrays_equal_oracle(self):
        lefts, rights, weights = make_columns(200, seed=14, kind="uniform", weighted=True)
        one = FlatAIT.from_arrays(lefts, rights, weights=weights)
        two = FlatAIT.from_arrays(lefts, rights, weights=weights)
        unweighted = FlatAIT.from_arrays(lefts, rights)
        assert one.arrays_equal(two)
        assert not one.arrays_equal(unweighted)
        assert not unweighted.arrays_equal(FlatAIT.from_arrays(lefts[:-1], rights[:-1]))

    def test_segmented_cumsum_matches_per_segment_cumsum_bitwise(self):
        rng = np.random.default_rng(31)
        lengths = np.asarray([0, 1, 7, 1, 0, 3, 19, 7, 128, 1, 2], dtype=np.int64)
        values = rng.uniform(-1.0, 1.0, int(lengths.sum()))
        values[0] = -0.0  # a segment's first sum must keep the sign bit
        out = segmented_cumsum(values, lengths)
        start = 0
        for length in lengths:
            segment = values[start : start + int(length)]
            assert out[start : start + int(length)].tobytes() == np.cumsum(segment).tobytes()
            start += int(length)
        assert segmented_cumsum(np.empty(0), np.zeros(3, dtype=np.int64)).shape == (0,)


# ---------------------------------------------------------------------- #
# build_backend wiring on AIT / AWIT
# ---------------------------------------------------------------------- #
class TestBuildBackendKnob:
    def test_rejects_unknown_backend(self, random_dataset):
        with pytest.raises(ValueError):
            AIT(random_dataset, build_backend="bogus")

    @pytest.mark.parametrize("weighted", (False, True))
    def test_backends_produce_identical_snapshots(self, make_random_dataset, weighted):
        dataset = make_random_dataset(n=700, seed=41, weighted=weighted)
        cls = AWIT if weighted else AIT
        columnar = cls(dataset, build_backend="columnar")
        legacy = cls(dataset, build_backend="tree")
        assert_snapshots_identical(columnar.flat(), legacy.flat())

    def test_columnar_snapshot_is_treeless(self, make_random_dataset):
        tree = AIT(make_random_dataset(n=500, seed=42))
        assert tree.build_backend == "columnar"
        assert not tree.tree_materialised
        tree.flat()  # full snapshot built straight from the columns
        assert not tree.tree_materialised
        assert tree.count_many([(0.0, 100.0)]).shape == (1,)
        assert not tree.tree_materialised  # batch path stays treeless

    def test_scalar_query_materialises_and_matches(self, make_random_dataset, make_queries):
        dataset = make_random_dataset(n=500, seed=43)
        lazy = AIT(dataset)
        eager = AIT(dataset, build_backend="tree")
        queries = make_queries(dataset, count=15)
        counts = [lazy.count(q) for q in queries]  # materialises on first call
        assert lazy.tree_materialised
        assert counts == [eager.count(q) for q in queries]
        for query in queries:
            assert lazy.report(query).tolist() == eager.report(query).tolist()
        lazy.check_invariants()

    def test_structural_accessors_materialise_identically(self, make_random_dataset):
        dataset = make_random_dataset(n=300, seed=44)
        lazy = AIT(dataset)
        eager = AIT(dataset, build_backend="tree")
        assert lazy.height == eager.height
        assert lazy.node_count() == eager.node_count()
        assert lazy.root.center == eager.root.center
        assert lazy.memory_bytes() == eager.memory_bytes()

    def test_updates_after_treeless_snapshot_reflatten_the_tree(
        self, make_random_dataset, make_queries
    ):
        """After updates, the from_arrays snapshot hands off to from_tree."""
        dataset = make_random_dataset(n=2000, seed=45)
        tree = AIT(dataset)
        tree.flat()
        assert not tree.tree_materialised
        queries = make_queries(dataset, count=15)
        rng = np.random.default_rng(46)
        for _ in range(4):
            lefts = rng.uniform(0.0, 1000.0, 25)
            tree.insert_many(lefts, lefts + 5.0)  # materialises the node tree
            assert tree.tree_materialised
            tree.delete_many(rng.choice(2000, size=15, replace=False))
            assert_snapshots_identical(tree.flat(), FlatAIT.from_tree(tree))
            assert tree.count_many(queries).tolist() == [tree.count(q) for q in queries]

    def test_bulk_load_stays_treeless(self):
        """insert_many dominating the tree rebuilds without materialising."""
        tree = AIT(IntervalDataset.from_pairs([(0.0, 1.0)]))
        rng = np.random.default_rng(47)
        lefts = rng.uniform(0.0, 1000.0, 5000)
        tree.insert_many(lefts, lefts + rng.exponential(20.0, 5000))
        assert not tree.tree_materialised
        snapshot = tree.flat()
        assert not tree.tree_materialised
        assert snapshot.count((0.0, 1000.0)) == tree.size

    def test_pooled_inserts_excluded_from_treeless_snapshot(self, make_random_dataset):
        dataset = make_random_dataset(n=300, seed=48)
        tree = AIT(dataset, batch_pool_size=100)
        pooled = tree.insert((5.0, 6.0))  # pooled, not flushed
        snapshot = tree.flat()
        assert pooled not in set(snapshot.report((0.0, 1000.0)).tolist())
        # ... while the public wrappers merge the pool back in, as always.
        assert pooled in set(tree.report((5.0, 5.5)).tolist())
        # Flushing (a scalar-path mutation) must not double-index the pooled
        # interval when the deferred tree materialises during the flush.
        tree.flush_pool()
        assert tree.count((5.0, 6.0)) == int(
            np.sum((dataset.lefts <= 6.0) & (dataset.rights >= 5.0))
        ) + 1
        tree.check_invariants()

    def test_scalar_awit_updates_on_columnar_backend(self, make_random_dataset):
        dataset = make_random_dataset(n=400, seed=49, weighted=True)
        tree = AWIT(dataset)
        total = tree.total_weight((0.0, 2000.0))
        new_id = tree.insert((10.0, 20.0))
        assert tree.total_weight((0.0, 2000.0)) == pytest.approx(total + 1.0)
        assert tree.delete(new_id)
        assert tree.total_weight((0.0, 2000.0)) == pytest.approx(total)


# ---------------------------------------------------------------------- #
# service layer wiring
# ---------------------------------------------------------------------- #
def test_shard_bases_match_a_tree_built_snapshot(make_random_dataset, tmp_path):
    """A shard's base is the from_tree flatten of its live intervals, by global id."""
    dataset = make_random_dataset(n=900, seed=50)
    rng = np.random.default_rng(53)
    new_lefts = rng.uniform(0.0, 1000.0, 40)
    new_rights = new_lefts + rng.exponential(20.0, 40)
    all_lefts = np.concatenate((dataset.lefts, new_lefts))
    all_rights = np.concatenate((dataset.rights, new_rights))

    def assert_bases_match(engine, live):
        for shard in engine.shards:
            gids = shard.global_map
            assert np.isin(gids, live).all()
            subset = IntervalDataset(all_lefts[gids], all_rights[gids])
            expected = FlatAIT.from_tree(AIT(subset, build_backend="tree"))
            assert_snapshots_identical(shard.snapshot, expected)

    with ShardedEngine(dataset, num_shards=3) as engine:
        assert_bases_match(engine, np.arange(900))
        engine.insert_many(new_lefts, new_rights)
        engine.delete_many(list(range(0, 60, 3)))
        engine.refresh()  # writes land in the overlays; the bases stay put
        assert [shard.base_rebuilds for shard in engine.shards] == [0, 0, 0]
        engine.save_snapshot(tmp_path)  # compacts every overlay into a new base
        assert [shard.base_rebuilds for shard in engine.shards] == [1, 1, 1]
        live = np.setdiff1d(np.arange(940), np.arange(0, 60, 3))
        assert_bases_match(engine, live)
        assert sum(shard.global_map.shape[0] for shard in engine.shards) == live.shape[0]


def test_weighted_shard_bases_match_a_tree_built_snapshot(make_random_dataset):
    dataset = make_random_dataset(n=600, seed=57, weighted=True)
    with ShardedEngine(dataset, num_shards=3) as engine:
        for shard in engine.shards:
            subset = dataset.subset(shard.global_map)
            expected = FlatAIT.from_tree(AWIT(subset, build_backend="tree"))
            assert_snapshots_identical(shard.snapshot, expected)
            assert np.array_equal(shard.columns[2], dataset.weights[shard.global_map])


def test_a_restored_shard_with_dead_slots_serves_and_compacts_without_them():
    """Checkpoints may list base slots the saved snapshot does not index."""
    rng = np.random.default_rng(58)
    lefts = rng.uniform(0.0, 1000.0, 200)
    rights = lefts + rng.exponential(20.0, 200)
    gids = np.arange(200, dtype=np.int64) * 2  # a shard of even global ids
    dead = np.array([3, 17, 150], dtype=np.int64)
    live = np.setdiff1d(np.arange(200), dead)
    snapshot = FlatAIT.from_arrays(lefts[live], rights[live], ids=live)
    shard = Shard.restore(0, lefts, rights, None, snapshot, gids, dead, version=4)
    assert shard.size == shard.base_size == 197
    shard.buffer_delete_many(gids[[3, 5, 150, 199]])  # two of them already dead
    shard.buffer_insert_many(np.array([401]), np.array([1.0]), np.array([2.0]))
    shard.refresh()
    assert shard.size == 197 - 2 + 1
    assert shard.overlay.tombstones.tolist() == [5, 199]
    assert shard.compact()
    keep = np.setdiff1d(live, [5, 199])
    assert shard.global_map.tolist() == gids[keep].tolist() + [401]
    assert shard.dead.shape[0] == 0 and shard.size == 196
    expected = FlatAIT.from_arrays(
        np.append(lefts[keep], 1.0), np.append(rights[keep], 2.0)
    )
    assert_snapshots_identical(shard.snapshot, expected)
