"""The position-keyed list pools of ``FlatAIT`` on degenerate inputs.

A list entry is stored as one int64 key ``node * M + p``: ``p`` is its
position in the root's sorted-by-left column (by-left lists) or ``n`` plus
its position in the sorted-by-right column (by-right lists).  The id is
``root_ids[key % M]`` and the endpoint is the root column at ``p``.  The
super-pool holds three pools: both stab lists of every node, then one
subtree list per non-root node, the one its parent's case 3 of Algorithm 1
reads (by right endpoint for a left child, by left endpoint for a right
child).  For each degenerate shape this suite checks that

* the root holds no subtree list and every other node exactly one, of the
  kind its parent reads;
* every key pool is strictly increasing, so one ``searchsorted`` per pool
  finds every node's insertion point;
* the keys decode to the ids and endpoints of a node tree built over the
  same intervals (``AIT(..., build_backend="tree")``), list by list;
* count, report, sample and total weight agree with the exhaustive scan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AIT, AWIT, FlatAIT, IntervalDataset
from repro.baselines.exhaustive import ExhaustiveScan


def shape(name: str):
    """``(lefts, rights, weights, ids)`` of one degenerate input shape."""
    rng = np.random.default_rng(len(name))
    if name.startswith("n="):
        n = int(name[2:])
        lefts = rng.uniform(0.0, 100.0, n)
        return lefts, lefts + rng.uniform(0.0, 10.0, n), None, None
    if name == "all-equal":
        return np.full(40, 5.0), np.full(40, 5.0), None, None
    lefts = rng.integers(0, 30, 300).astype(np.float64)
    rights = lefts + rng.integers(0, 6, 300)
    if name == "points":
        points = lefts + rng.integers(0, 2, 300) / 2.0
        return points, points.copy(), None, None
    if name == "heavy-ties":
        return lefts, rights, None, None
    if name == "sparse-ids":
        return lefts, rights, None, np.arange(300, dtype=np.int64) * 999_983 + 10**13
    if name == "weighted":
        return lefts, rights, rng.uniform(0.1, 3.0, 300), None
    raise ValueError(name)  # pragma: no cover - guarded by parametrize


SHAPES = ("n=0", "n=1", "n=2", "all-equal", "points", "heavy-ties", "sparse-ids", "weighted")


def queries() -> np.ndarray:
    rng = np.random.default_rng(4)
    ql = rng.integers(-3, 110, 60).astype(np.float64)
    return np.column_stack([ql, ql + rng.integers(0, 12, 60)])


def preorder(tree: AIT) -> list:
    nodes, stack = [], [tree.root] if tree.root is not None else []
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(child for child in (node.right, node.left) if child is not None)
    return nodes


def kept_lists(nodes: list) -> list:
    """``(node, id list, endpoint list)`` of every subtree list a snapshot keeps."""
    left_children = {id(v.left) for v in nodes if v.left is not None}
    return [
        (v, "subtree_ids_by_right", "subtree_rights")
        if id(v) in left_children
        else (v, "subtree_ids_by_left", "subtree_lefts")
        for v in nodes[1:]
    ]


def assert_keys_decode_to_tree(flat: FlatAIT, tree: AIT, ids=None) -> None:
    """One kept subtree list per non-root node; strictly increasing key pools
    that decode to the tree's lists."""
    nodes = preorder(tree)
    assert flat.node_count == len(nodes)
    n = flat._sorted_lefts.shape[0]
    kept = kept_lists(nodes)
    assert flat._sub_len.tolist() == [0] * bool(nodes) + [
        getattr(v, id_attr).shape[0] for v, id_attr, _ in kept
    ]
    pools = (
        [(v, "stab_ids_by_left", "stab_lefts") for v in nodes],
        [(v, "stab_ids_by_right", "stab_rights") for v in nodes],
        kept,
    )
    pb = flat._pool_base
    assert pb[-1] == flat._all_keys.shape[0]
    columns = np.concatenate((flat._sorted_lefts, flat._sorted_rights))
    for pool, lists in enumerate(pools):
        keys = flat._all_keys[pb[pool] : pb[pool + 1]]
        assert (np.diff(keys) > 0).all(), pool
        want_ids = np.concatenate([getattr(v, a) for v, a, _ in lists] + [np.empty(0, np.int64)])
        want_values = np.concatenate([getattr(v, a) for v, _, a in lists] + [np.empty(0)])
        by_right = np.concatenate(
            [np.full(getattr(v, a).shape[0], a.endswith("right")) for v, a, _ in lists]
            + [np.empty(0, bool)]
        )
        positions = keys % flat._rank_m
        if ids is not None:
            want_ids = ids[want_ids]
        assert flat._root_ids[positions].tolist() == want_ids.tolist(), pool
        assert columns[positions].tobytes() == want_values.astype(np.float64).tobytes(), pool
        assert ((positions >= n) == by_right).all(), pool
    if flat.is_weighted:
        # The pools' prefixes, then the root columns' two.
        assert flat._all_weight_prefix.shape[0] == pb[-1] + 2 * n


def assert_answers_match_exhaustive(flat: FlatAIT, dataset, ids=None) -> None:
    weighted = flat.is_weighted
    oracle = ExhaustiveScan(dataset, weighted=weighted)
    qs = queries()
    ids = np.arange(len(dataset)) if ids is None else ids
    assert flat.count_many(qs).tolist() == [oracle.count(tuple(q)) for q in qs]
    reports = flat.report_many(qs)
    draws = flat.sample_many(qs, 25, random_state=np.random.default_rng(6))
    for q, report, drawn in zip(qs, reports, draws):
        want = ids[oracle.report(tuple(q))]
        assert sorted(report.tolist()) == sorted(want.tolist())
        assert drawn.shape == ((25,) if want.shape[0] else (0,))
        assert np.isin(drawn, want).all()
        if weighted:
            total = flat.total_weight_many(q[None, :])[0]
            assert total == pytest.approx(oracle.total_weight(tuple(q)), rel=1e-12)


@pytest.mark.parametrize("name", SHAPES)
def test_degenerate_shapes(name):
    lefts, rights, weights, ids = shape(name)
    flat = FlatAIT.from_arrays(lefts, rights, ids=ids, weights=weights)
    if lefts.shape[0] == 0:
        # Neither a tree nor the exhaustive scan takes an empty dataset.
        assert flat.node_count == 0 and flat.nbytes() == 0
        assert flat.count_many(queries()).tolist() == [0] * 60
        assert all(chunk.shape == (0,) for chunk in flat.report_many(queries()))
        assert all(chunk.shape == (0,) for chunk in flat.sample_many(queries(), 5))
        return
    dataset = IntervalDataset(lefts, rights, weights)
    tree = (AWIT if weights is not None else AIT)(dataset, build_backend="tree")
    assert_keys_decode_to_tree(flat, tree, ids)
    if ids is None:
        assert flat.arrays_equal(FlatAIT.from_tree(tree))
    assert_answers_match_exhaustive(flat, dataset, ids)


def test_tree_snapshot_after_scalar_updates():
    # Scalar inserts land after equal endpoints in every list they join,
    # so node lists stay subsequences of the root order after any history.
    lefts, rights, _, _ = shape("heavy-ties")
    tree = AIT(IntervalDataset(lefts, rights), build_backend="tree")
    live = set(range(300))
    rng = np.random.default_rng(12)
    for step in range(400):
        left = float(rng.integers(0, 30))
        interval = (left, left + float(rng.integers(0, 6)))
        live.add(tree.insert(interval, immediate=step % 2 == 0))
    tree.flush_pool()
    for victim in rng.choice(sorted(live), 300, replace=False):
        assert tree.delete(int(victim))
        live.discard(int(victim))
    flat = tree.flat()
    assert_keys_decode_to_tree(flat, tree)
    ids = np.asarray(sorted(live), dtype=np.int64)
    survivors = IntervalDataset(tree._lefts[ids], tree._rights[ids])
    assert_answers_match_exhaustive(flat, survivors, ids)


@pytest.mark.parametrize(
    "values",
    [(0.0, 5e-324, 1e300, 1.5), (0.0, 5e-324, 1.5), (0.0, 5e-324), (0.0,)],
    ids=["huge", "subnormal", "tiny", "zero"],
)
def test_total_weight_many_on_extreme_weights(values):
    # Inclusion-exclusion over the root prefixes cancels rounding only up to
    # the total weight's scale; without huge weights it is exact here.
    lefts, rights, _, _ = shape("heavy-ties")
    weights = np.random.default_rng(8).choice(values, lefts.shape[0])
    flat = FlatAIT.from_arrays(lefts, rights, weights=weights)
    oracle = ExhaustiveScan(IntervalDataset(lefts, rights, weights), weighted=True)
    got = flat.total_weight_many(queries())
    want = np.array([oracle.total_weight(tuple(q)) for q in queries()])
    assert (got >= 0).all()
    assert np.abs(got - want).max() <= 1e-12 * weights.sum()
