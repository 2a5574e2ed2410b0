"""FlatAIT's vectorised kernels against the plain loops they replace.

``FlatAIT`` answers a batch with one numpy kernel path: rank keys turn every
per-node binary search into two global ``np.searchsorted`` calls, a closed
form over the root's sorted endpoint columns replaces the record-based
count, and one level-synchronous descent collects every query's records.
This suite pins each kernel to the straightforward per-node or per-query
loop it stands in for, at three granularities:

* unit — ``_rank_search`` over all four list pools (dense and sparse id
  spaces), ``_endpoint_ranks`` and ``_ranges_to_indices`` against
  per-segment ``np.searchsorted`` / ``np.arange`` loops;
* snapshot — ``collect_records_batch``, ``count_many``, ``report_many`` and
  ``total_weight_many`` against the scalar per-query paths, across sizes
  n ∈ {0, 1, 2, 63, 1000} (0 = empty guards, 1-2 = degenerate trees,
  63 = one full level-synchronous descent, 1000 = realistic fan-out),
  weighted and unweighted;
* pinned bytes — SHA-256 digests of the count, report, total-weight and
  fixed-seed sample bytes of ``FlatAIT`` and ``ShardedEngine`` (K ∈ {1, 4}).
  A change that alters any answer, or the order in which sampling consumes
  the caller's generator, changes every user's reproducible draws and
  fails here.  The digests depend on numpy's ``Generator`` streams; they
  were recorded with numpy 2.4.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import IntervalDataset, ShardedEngine
from repro.core.flat import FlatAIT, _ranges_to_indices

SIZES = (0, 1, 2, 63, 1000)


def make_endpoints(n: int, weighted: bool, seed: int = 7):
    rng = np.random.default_rng(seed + n)
    lefts = rng.uniform(0.0, 1000.0, n)
    rights = lefts + rng.uniform(0.1, 60.0, n)
    weights = rng.uniform(0.1, 5.0, n) if weighted else None
    return lefts, rights, weights


def make_tied_endpoints(n: int, seed: int = 5):
    """Integer endpoints: many intervals share endpoint values."""
    rng = np.random.default_rng(seed)
    lefts = rng.integers(0, 200, n).astype(np.float64)
    rights = lefts + rng.integers(0, 30, n)
    return lefts, rights


def make_queries(count: int = 48, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    ql = rng.uniform(-50.0, 1050.0, count)
    qr = ql + rng.uniform(0.0, 200.0, count)
    return np.column_stack([ql, qr])


def digest(index, queries: np.ndarray, weighted: bool) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(index.count_many(queries)).tobytes())
    for chunk in index.report_many(queries):
        h.update(np.asarray(chunk).tobytes() + b"|")
    if weighted:
        h.update(np.asarray(index.total_weight_many(queries)).tobytes())
    for chunk in index.sample_many(queries, 17, random_state=np.random.default_rng(99)):
        h.update(np.asarray(chunk).tobytes() + b"|")
    return h.hexdigest()[:16]


# --------------------------------------------------------------------------- #
# unit kernels
# --------------------------------------------------------------------------- #
#: (value pool, rank-key pool, node offsets, node lengths, sorted root column)
POOLS = {
    "stab_lefts": ("_stab_lefts", "_stab_lefts_key", "_stab_off", "_stab_len", "_sorted_lefts"),
    "stab_rights": (
        "_stab_rights",
        "_stab_rights_key",
        "_stab_off",
        "_stab_len",
        "_sorted_rights",
    ),
    "sub_lefts": ("_sub_lefts", "_sub_lefts_key", "_sub_off", "_sub_len", "_sorted_lefts"),
    "sub_rights": ("_sub_rights", "_sub_rights_key", "_sub_off", "_sub_len", "_sorted_rights"),
}


class TestUnitKernels:
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_rank_search_matches_per_node_searchsorted(self, pool, side):
        lefts, rights = make_tied_endpoints(400)
        flat = FlatAIT.from_arrays(lefts, rights)
        values_attr, key_attr, off_attr, len_attr, sorted_attr = POOLS[pool]
        values = getattr(flat, values_attr)
        offsets = getattr(flat, off_attr)
        lengths = getattr(flat, len_attr)
        rng = np.random.default_rng(17)
        nodes = rng.integers(0, flat.node_count, 300).astype(np.int64)
        # Half the needles are pool values, so exact ties exercise ``side``.
        needles = rng.uniform(-5.0, 235.0, 300)
        needles[::2] = rng.choice(values, 150)
        got = flat._rank_search(
            getattr(flat, key_attr), getattr(flat, sorted_attr), nodes, needles, side
        )
        want = [
            int(offsets[node])
            + int(
                np.searchsorted(
                    values[offsets[node] : offsets[node] + lengths[node]], x, side=side
                )
            )
            for node, x in zip(nodes, needles)
        ]
        assert got.tolist() == want

    def test_sparse_id_space_gives_the_same_rank_keys(self):
        # Caller ids far beyond the dense scatter-table limit take the
        # compacted-lookup branch; ranks depend only on endpoint values.
        lefts, rights = make_tied_endpoints(300)
        dense = FlatAIT.from_arrays(lefts, rights)
        sparse_ids = np.arange(300, dtype=np.int64) * 1_000_003 + 10**12
        sparse = FlatAIT.from_arrays(lefts, rights, ids=sparse_ids)
        for _, key_attr, _, _, _ in POOLS.values():
            assert np.array_equal(getattr(dense, key_attr), getattr(sparse, key_attr))
        queries = make_queries(count=40, seed=3) / 5.0
        assert np.array_equal(dense.count_many(queries), sparse.count_many(queries))
        for d, s in zip(dense.report_many(queries), sparse.report_many(queries)):
            assert np.array_equal(sparse_ids[d], s)

    def test_endpoint_ranks_match_brute_force_counts(self):
        lefts, rights = make_tied_endpoints(250)
        flat = FlatAIT.from_arrays(lefts, rights)
        rng = np.random.default_rng(13)
        ql = rng.integers(-10, 240, 80).astype(np.float64)
        qr = ql + rng.integers(0, 40, 80)
        not_right, left_of = flat._endpoint_ranks(ql, qr)
        assert not_right.tolist() == [int((lefts <= r).sum()) for r in qr]
        assert left_of.tolist() == [int((rights < l).sum()) for l in ql]

    def test_ranges_to_indices_matches_concatenated_aranges(self):
        rng = np.random.default_rng(21)
        starts = rng.integers(0, 10_000, 60).astype(np.int64)
        lengths = rng.integers(1, 90, 60).astype(np.int64)
        got = _ranges_to_indices(starts, lengths)
        want = np.concatenate([np.arange(s, s + n) for s, n in zip(starts, lengths)])
        assert got.tolist() == want.tolist()
        assert _ranges_to_indices(starts[:0], lengths[:0]).shape == (0,)


# --------------------------------------------------------------------------- #
# batch operations against the scalar per-query paths
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("n", SIZES)
class TestFlatEquivalence:
    def test_flat_batch_operations_match_scalar_paths(self, n, weighted):
        lefts, rights, weights = make_endpoints(n, weighted)
        flat = FlatAIT.from_arrays(lefts, rights, weights=weights)
        queries = make_queries()

        # The batched descent emits, per query, the scalar descent's records
        # in the scalar traversal order.
        records = flat.collect_records_batch(*flat.coerce_queries(queries))
        scalar = [flat.collect_ranges(tuple(q)) for q in queries]
        assert records.query.tolist() == [
            i for i, (glo, _, _, _) in enumerate(scalar) for _ in range(glo.shape[0])
        ]
        for field, column in (("glo", 0), ("ghi", 1), ("gbase", 2)):
            want = np.concatenate([r[column] for r in scalar] + [np.empty(0, np.int64)])
            assert getattr(records, field).tolist() == want.tolist()
        want_weight = np.concatenate([r[3] for r in scalar] + [np.empty(0)])
        assert records.weight.tobytes() == want_weight.astype(np.float64).tobytes()

        # The closed-form count equals the record-based count.
        counts = flat.count_many(queries)
        per_query = np.zeros(queries.shape[0], dtype=np.int64)
        np.add.at(per_query, records.query, records.counts)
        assert counts.tolist() == per_query.tolist()
        assert counts.tolist() == [flat.count(tuple(q)) for q in queries]

        reports = flat.report_many(queries)
        assert len(reports) == queries.shape[0]
        for chunk, q in zip(reports, queries):
            assert chunk.tolist() == flat.report(tuple(q)).tolist()

        totals = flat.total_weight_many(queries)
        w = weights if weighted else np.ones(n)
        assert np.allclose(totals, [w[chunk].sum() for chunk in reports], rtol=1e-12)
        if not weighted:
            assert totals.tobytes() == counts.astype(np.float64).tobytes()


# --------------------------------------------------------------------------- #
# pinned answer bytes
# --------------------------------------------------------------------------- #
FLAT_DIGESTS = {
    (0, False): "cd83e74f65e8054d",
    (0, True): "f92658854ccfade4",
    (1, False): "be365947f3b6fdb0",
    (1, True): "bdfe66349bc92d16",
    (2, False): "9c2d9b19b86cdf69",
    (2, True): "c17493e0567592bb",
    (63, False): "108d43c78a6367af",
    (63, True): "55cd2636fb296632",
    (1000, False): "4776bccc0704198b",
    (1000, True): "25bb8e70762b8aac",
}

ENGINE_DIGESTS = {
    (1, False): "233d4584950b583a",
    (1, True): "2b71c8abc68258fc",
    (4, False): "4f573964e7240981",
    (4, True): "c026b1c1dcea761c",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("n", SIZES)
    def test_flat_answer_bytes_are_pinned(self, n, weighted):
        lefts, rights, weights = make_endpoints(n, weighted)
        flat = FlatAIT.from_arrays(lefts, rights, weights=weights)
        assert digest(flat, make_queries(), weighted) == FLAT_DIGESTS[n, weighted]

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_engine_answer_bytes_are_pinned(self, shards, weighted):
        lefts, rights, weights = make_endpoints(1000, weighted)
        dataset = IntervalDataset(lefts, rights, weights)
        with ShardedEngine(dataset, num_shards=shards) as engine:
            got = digest(engine, make_queries(count=32), weighted)
        assert got == ENGINE_DIGESTS[shards, weighted]
