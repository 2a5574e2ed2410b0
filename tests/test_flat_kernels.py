"""FlatAIT's vectorised kernels against the plain loops they replace.

``FlatAIT`` answers a batch with one numpy kernel path: position keys turn
every per-node binary search into one global ``np.searchsorted`` on a root
rank, a closed form over the root's sorted endpoint columns replaces the
record-based count, and one level-synchronous descent collects every
query's records.
This suite pins each kernel to the straightforward per-node or per-query
loop it stands in for, at three granularities:

* unit — ``_rank_search`` over all four list kinds (dense and sparse id
  spaces), ``_endpoint_ranks`` and ``_ranges_to_indices`` against
  per-segment ``np.searchsorted`` / ``np.arange`` loops;
* snapshot — ``collect_records_batch``, ``count_many``, ``report_many`` and
  ``total_weight_many`` against the scalar per-query paths, across sizes
  n ∈ {0, 1, 2, 63, 1000} (0 = empty guards, 1-2 = degenerate trees,
  63 = one full level-synchronous descent, 1000 = realistic fan-out),
  weighted and unweighted;
* pinned bytes — SHA-256 digests of ``FlatAIT`` and ``ShardedEngine``
  (K ∈ {1, 4}) answers, in two kinds: an *answers* digest of the count,
  report and total-weight bytes, and a *sample* digest of fixed-seed draws.
  A change that alters any answer fails the first.  A change to how
  sampling turns the caller's generator into draws changes every user's
  reproducible draws and fails the second, so it can be re-pinned on its
  own without touching the answers.  The sample digests depend on numpy's
  ``Generator`` streams; they were recorded with numpy 2.4.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import IntervalDataset, ShardedEngine
from repro.core.flat import FlatAIT, _left_children, _ranges_to_indices

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


def answers_digest(index, queries: np.ndarray, weighted: bool) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(index.count_many(queries)).tobytes())
    for chunk in index.report_many(queries):
        h.update(np.asarray(chunk).tobytes() + b"|")
    if weighted:
        h.update(np.asarray(index.total_weight_many(queries)).tobytes())
    return h.hexdigest()[:16]


def sample_digest(index, queries: np.ndarray) -> str:
    h = hashlib.sha256()
    for chunk in index.sample_many(queries, 17, random_state=np.random.default_rng(99)):
        h.update(np.asarray(chunk).tobytes() + b"|")
    return h.hexdigest()[:16]


# --------------------------------------------------------------------------- #
# unit kernels
# --------------------------------------------------------------------------- #
#: (list kind, node offsets, node lengths, sorted root column)
POOLS = {
    "stab_lefts": (0, "_stab_off", "_stab_len", "_sorted_lefts"),
    "stab_rights": (1, "_stab_off", "_stab_len", "_sorted_rights"),
    "sub_rights": (2, "_sub_off", "_sub_len", "_sorted_rights"),
    "sub_lefts": (3, "_sub_off", "_sub_len", "_sorted_lefts"),
}


def pool_values(flat: FlatAIT, pool: str) -> np.ndarray:
    """The endpoint of every entry of the pool holding one list, read off its position key.

    Both subtree kinds share one pool: a by-left key decodes to the root's
    left column, a by-right key (offset by ``n``) to its right column.
    """
    kind = POOLS[pool][0]
    positions = flat._kind_keys[kind] % flat._rank_m
    return np.concatenate((flat._sorted_lefts, flat._sorted_rights))[positions]


def holders(flat: FlatAIT, pool: str) -> np.ndarray:
    """The nodes that hold a list of the pool's kind.

    Every node holds both stab lists; a left child holds only the subtree
    list by right endpoint, a right child only the one by left endpoint.
    """
    kind = POOLS[pool][0]
    nodes = np.arange(flat.node_count)
    if kind < 2:
        return nodes
    is_left = _left_children(flat._left_child)
    return nodes[is_left] if kind == 2 else nodes[(nodes > 0) & ~is_left]


def id_pools(flat: FlatAIT) -> np.ndarray:
    """The interval id of every entry of the key super-pool."""
    return flat._root_ids[flat._all_keys % flat._rank_m]


class TestUnitKernels:
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_rank_search_matches_per_node_searchsorted(self, pool, side):
        lefts, rights = make_tied_endpoints(400)
        flat = FlatAIT.from_arrays(lefts, rights)
        kind, off_attr, len_attr, column = POOLS[pool]
        values = pool_values(flat, pool)
        offsets = getattr(flat, off_attr)
        lengths = getattr(flat, len_attr)
        rng = np.random.default_rng(17)
        nodes = rng.choice(holders(flat, pool), 300).astype(np.int64)
        # Half the needles are pool values, so exact ties exercise ``side``.
        needles = rng.uniform(-5.0, 235.0, 300)
        needles[::2] = rng.choice(values, 150)
        # Keys carry root positions (offset by n in by-right pools), so a
        # needle is searched by its rank in the pool's root column.
        ranks = np.searchsorted(getattr(flat, column), needles, side=side)
        if kind in (1, 2):
            ranks += flat._sorted_lefts.shape[0]
        got = flat._rank_search(kind, nodes, ranks)
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
        # Keys are positions, so caller ids cannot change them; rebuilding
        # from id pools with ids far beyond the dense scatter-table limit
        # takes the compacted-lookup branch and must give the same keys.
        lefts, rights = make_tied_endpoints(300)
        dense = FlatAIT.from_arrays(lefts, rights)
        sparse_ids = np.arange(300, dtype=np.int64) * 1_000_003 + 10**12
        sparse = FlatAIT.from_arrays(lefts, rights, ids=sparse_ids)
        assert np.array_equal(dense._all_keys, sparse._all_keys)
        structure = tuple(getattr(sparse, attr) for _, attr in FlatAIT.CORE_FIELDS[:7])
        for flat in (dense, sparse):
            rebuilt = FlatAIT.from_id_pools(
                structure,
                flat._sorted_lefts,
                flat._sorted_rights,
                flat._root_ids,
                id_pools(flat),
                None,
                False,
            )
            assert rebuilt.arrays_equal(flat)
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
FLAT_ANSWER_DIGESTS = {
    (0, False): "1d727dbfecde8f1d",
    (0, True): "ea321eac22084c72",
    (1, False): "7f9ae60c60a63256",
    (1, True): "d0dc7ca3f3db1e90",
    (2, False): "2f0abdb7d4350074",
    (2, True): "18e9b67ec0c80f0c",
    (63, False): "f34701748bd7ce41",
    (63, True): "852b2ef8667764c2",
    (1000, False): "dbc257044012abb5",
    (1000, True): "d22e25ecffeb53ea",
}

FLAT_SAMPLE_DIGESTS = {
    (0, False): "5acbd8048d53d1aa",
    (0, True): "5acbd8048d53d1aa",
    (1, False): "fb7916ccb27bb7c2",
    (1, True): "fb7916ccb27bb7c2",
    (2, False): "3c4397703dff33a7",
    (2, True): "3c4397703dff33a7",
    (63, False): "85f77d48cf87a630",
    (63, True): "de3d02cb2fa75aa4",
    (1000, False): "2652ea779d1a62d7",
    (1000, True): "fc89bc8ec6a6caab",
}

ENGINE_ANSWER_DIGESTS = {
    (1, False): "84534589523dfcd6",
    (1, True): "e07271ae1d51e7c6",
    (4, False): "fe16fd537c2f1091",
    (4, True): "732dca813f684fa0",
}

ENGINE_SAMPLE_DIGESTS = {
    (1, False): "7c7e761ebd31c691",
    (1, True): "ea5b0ccfc5b07335",
    (4, False): "2934ea3dc79c4eda",
    (4, True): "47aa1a6e8819fc70",
}


def make_flat(n: int, weighted: bool) -> FlatAIT:
    lefts, rights, weights = make_endpoints(n, weighted)
    return FlatAIT.from_arrays(lefts, rights, weights=weights)


def make_engine(shards: int, weighted: bool) -> ShardedEngine:
    lefts, rights, weights = make_endpoints(1000, weighted)
    return ShardedEngine(IntervalDataset(lefts, rights, weights), num_shards=shards)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
class TestPinnedBytes:
    @pytest.mark.parametrize("n", SIZES)
    def test_flat_answer_bytes_are_pinned(self, n, weighted):
        got = answers_digest(make_flat(n, weighted), make_queries(), weighted)
        assert got == FLAT_ANSWER_DIGESTS[n, weighted]

    @pytest.mark.parametrize("n", SIZES)
    def test_flat_sample_bytes_are_pinned(self, n, weighted):
        got = sample_digest(make_flat(n, weighted), make_queries())
        assert got == FLAT_SAMPLE_DIGESTS[n, weighted]

    @pytest.mark.parametrize("shards", [1, 4])
    def test_engine_answer_bytes_are_pinned(self, shards, weighted):
        with make_engine(shards, weighted) as engine:
            got = answers_digest(engine, make_queries(count=32), weighted)
        assert got == ENGINE_ANSWER_DIGESTS[shards, weighted]

    @pytest.mark.parametrize("shards", [1, 4])
    def test_engine_sample_bytes_are_pinned(self, shards, weighted):
        with make_engine(shards, weighted) as engine:
            got = sample_digest(engine, make_queries(count=32))
        assert got == ENGINE_SAMPLE_DIGESTS[shards, weighted]
