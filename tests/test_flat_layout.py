"""The position-keyed list pools of ``FlatAIT`` on degenerate inputs.

A list entry is stored as one int64 key ``node * M + p``: ``p`` is its
position in the root's sorted-by-left column (by-left lists) or ``n`` plus
its position in the sorted-by-right column (by-right lists).  The id is
``root_ids[key % M]`` and the endpoint is the root column at ``p``.  For
each degenerate shape this suite checks that

* every key pool is strictly increasing, so one ``searchsorted`` per pool
  finds every node's insertion point;
* the keys decode to the ids and endpoints of a node tree built over the
  same intervals (``AIT(..., build_backend="tree")``), list by list;
* count, report and sample agree with the exhaustive scan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AIT, AWIT, FlatAIT, IntervalDataset
from repro.baselines.exhaustive import ExhaustiveScan

#: Kind order of the key super-pool: (node id list, node endpoint list, root column).
KINDS = (
    ("stab_ids_by_left", "stab_lefts", "_sorted_lefts"),
    ("stab_ids_by_right", "stab_rights", "_sorted_rights"),
    ("subtree_ids_by_right", "subtree_rights", "_sorted_rights"),
    ("subtree_ids_by_left", "subtree_lefts", "_sorted_lefts"),
)


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


def assert_keys_decode_to_tree(flat: FlatAIT, tree: AIT, ids=None) -> None:
    """Strictly increasing key pools that decode to the tree's lists."""
    nodes = preorder(tree)
    assert flat.node_count == len(nodes)
    n = flat._sorted_lefts.shape[0]
    m = flat._rank_m
    kb = flat._kind_base
    for kind, (id_attr, value_attr, column) in enumerate(KINDS):
        keys = flat._all_keys[kb[kind] : kb[kind + 1]]
        assert (np.diff(keys) > 0).all(), id_attr
        want_ids = np.concatenate([getattr(v, id_attr) for v in nodes] + [np.empty(0, np.int64)])
        want_values = np.concatenate([getattr(v, value_attr) for v in nodes] + [np.empty(0)])
        got_ids = flat._root_ids[keys % m]
        if ids is not None:
            want_ids = ids[want_ids]
        assert got_ids.tolist() == want_ids.tolist(), id_attr
        offset = n if kind in (1, 2) else 0
        values = getattr(flat, column)[keys % m - offset]
        assert values.tobytes() == want_values.astype(np.float64).tobytes(), value_attr


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
