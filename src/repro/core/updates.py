"""Insertion and deletion on the AIT (Section III-D of the paper).

Five update paths are provided:

* **one-by-one insertion** (:func:`insert_immediate`): traverse the tree like
  Algorithm 1 — go left while the new interval lies fully left of the center,
  right while fully right — updating the subtree (``AL``) lists of every
  visited node, and finish at the first node whose center the interval stabs
  (or at a freshly created leaf).  Each visited node's lists are kept sorted,
  which makes a single insertion expensive (this is exactly what Table VII of
  the paper shows);
* **pooled / batch insertion** (:func:`insert_pooled`, :func:`flush_pool`):
  new intervals first accumulate in a pool of capacity ``O(log^2 n)``.
  Queries scan the pool (an ``O(log^2 n)`` overhead), and when the pool fills
  up all pending intervals are pushed into the tree at once, re-sorting each
  touched list a single time — the paper's amortisation trick;
* **bulk insertion** (:func:`insert_many`): validate a whole batch
  vectorised, append it to the columnar storage in one amortised write, and
  merge it through the same deferred-sort flush, skipping the per-call Python
  round-trips of a scalar loop.  When the batch is at least as large as the
  indexed portion of the tree the merge degenerates to one vectorised
  rebuild;
* **deletion** (:func:`delete_interval`): traverse the same path, remove the
  id from every visited node's lists, and prune nodes left with an empty
  subtree;
* **bulk deletion** (:func:`delete_many`): classify a whole batch, filter
  each touched node's lists once via ``np.isin``, and prune in one pass.

The bulk paths also maintain the AWIT's weight prefix arrays by wholesale
recomputation per touched list — which is why ``insert_many``/``delete_many``
work on weighted trees even though the scalar paths stay unsupported
(Section IV-A).

Columnar storage grows by amortised capacity doubling, and deleted ids park
in a free-slot list that later insertions recycle, so sustained churn does
not leak columns.  The tree is rebuilt from scratch whenever its height
exceeds twice the logarithm of the current size, preserving the
``O(log^2 n + s)`` query bound.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import InvalidIntervalError, InvalidWeightError
from .interval import Interval, validate_endpoints
from .node import AITNode

if TYPE_CHECKING:  # pragma: no cover
    from .ait import AIT

__all__ = [
    "insert_immediate",
    "insert_pooled",
    "insert_many",
    "flush_pool",
    "delete_interval",
    "delete_many",
    "height_limit",
]


def _coerce_new_interval(interval: Interval | tuple[float, float]) -> tuple[float, float, float]:
    """Normalise an insertion argument to ``(left, right, weight)``."""
    if isinstance(interval, Interval):
        return (interval.left, interval.right, interval.weight)
    try:
        left, right = interval
    except (TypeError, ValueError) as exc:
        raise InvalidIntervalError(
            f"insert expects an Interval or a (left, right) pair, got {interval!r}"
        ) from exc
    left_f, right_f = float(left), float(right)
    validate_endpoints(left_f, right_f)
    return (left_f, right_f, 1.0)


def _append_columns(ait: "AIT", left: float, right: float, weight: float) -> int:
    """Store a new interval in the columnar buffers and return its id.

    Recycles a vacated slot when one is available; otherwise appends at the
    logical end, growing the capacity buffers by amortised doubling.
    """
    validate_endpoints(left, right)
    if not math.isfinite(weight) or weight < 0:
        raise InvalidWeightError(f"interval weight must be finite and non-negative, got {weight!r}")
    if ait._free_slots:
        new_id = ait._free_slots.pop()
        ait._deleted.discard(new_id)
    else:
        ait._ensure_column_capacity(1)
        new_id = ait._col_len
        ait._col_len += 1
    ait._col_lefts[new_id] = left
    ait._col_rights[new_id] = right
    ait._col_weights[new_id] = weight
    ait._active_count += 1
    return int(new_id)


def _append_columns_bulk(
    ait: "AIT", lefts: np.ndarray, rights: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Store a validated batch of intervals; return their ids (recycled first)."""
    count = int(lefts.shape[0])
    ids = np.empty(count, dtype=np.int64)
    reuse = min(len(ait._free_slots), count)
    if reuse:
        slots = np.asarray([ait._free_slots.pop() for _ in range(reuse)], dtype=np.int64)
        ait._col_lefts[slots] = lefts[:reuse]
        ait._col_rights[slots] = rights[:reuse]
        ait._col_weights[slots] = weights[:reuse]
        ait._deleted.difference_update(slots.tolist())
        ids[:reuse] = slots
    fresh = count - reuse
    if fresh:
        ait._ensure_column_capacity(fresh)
        start = ait._col_len
        ait._col_lefts[start : start + fresh] = lefts[reuse:]
        ait._col_rights[start : start + fresh] = rights[reuse:]
        ait._col_weights[start : start + fresh] = weights[reuse:]
        ait._col_len += fresh
        ids[reuse:] = np.arange(start, start + fresh, dtype=np.int64)
    ait._active_count += count
    return ids


def height_limit(ait: "AIT") -> int:
    """Height beyond which the tree is rebuilt to restore the O(log n) bound."""
    n = max(2, ait.size)
    return 2 * int(math.ceil(math.log2(n))) + 2


def _maybe_rebuild(ait: "AIT") -> None:
    if ait._height > height_limit(ait):
        pending = list(ait._pool)
        ait._pool = []
        # Pending intervals are already in the columnar storage, so a rebuild
        # picks them up automatically; just make sure they are not re-added.
        del pending
        ait._rebuild()


# ---------------------------------------------------------------------- #
# insertion
# ---------------------------------------------------------------------- #
def insert_immediate(ait: "AIT", interval: Interval | tuple[float, float]) -> int:
    """One-by-one insertion: update every visited node's sorted lists immediately."""
    left, right, weight = _coerce_new_interval(interval)
    ait._ensure_tree()
    new_id = _append_columns(ait, left, right, weight)
    depth = _descend_and_insert(ait, new_id, left, right, defer_sorting=False)
    ait._height = max(ait._height, depth)
    ait._structure_version += 1
    _maybe_rebuild(ait)
    return new_id


def insert_pooled(ait: "AIT", interval: Interval | tuple[float, float]) -> int:
    """Batch insertion: buffer the interval and merge once the pool is full."""
    left, right, weight = _coerce_new_interval(interval)
    new_id = _append_columns(ait, left, right, weight)
    ait._pool.append(new_id)
    ait._pool_epoch += 1
    if len(ait._pool) >= ait.batch_pool_capacity:
        flush_pool(ait)
    return new_id


def insert_many(ait: "AIT", lefts, rights, weights=None) -> np.ndarray:
    """Vectorised batch insertion; returns the assigned interval ids.

    Validates the whole batch first (so a malformed row mutates nothing),
    appends it to the columnar storage in one amortised write, and merges it
    into the tree through :func:`flush_pool` — one deferred re-sort per
    touched list.  Any intervals already waiting in the batch pool are
    flushed along with the new ones.
    """
    lefts_arr = np.ascontiguousarray(lefts, dtype=np.float64).reshape(-1)
    rights_arr = np.ascontiguousarray(rights, dtype=np.float64).reshape(-1)
    if lefts_arr.shape != rights_arr.shape:
        raise InvalidIntervalError(
            f"insert_many expects equally long columns, got {lefts_arr.shape[0]} lefts "
            f"and {rights_arr.shape[0]} rights"
        )
    count = int(lefts_arr.shape[0])
    finite = np.isfinite(lefts_arr) & np.isfinite(rights_arr)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise InvalidIntervalError(
            f"interval endpoints must be finite, got [{lefts_arr[bad]}, {rights_arr[bad]}] "
            f"at position {bad}"
        )
    inverted = lefts_arr > rights_arr
    if inverted.any():
        bad = int(np.flatnonzero(inverted)[0])
        raise InvalidIntervalError(
            f"interval left endpoint must not exceed right endpoint, got "
            f"[{lefts_arr[bad]}, {rights_arr[bad]}] at position {bad}"
        )
    if weights is None:
        weights_arr = np.ones(count, dtype=np.float64)
    else:
        weights_arr = np.ascontiguousarray(weights, dtype=np.float64).reshape(-1)
        if weights_arr.shape[0] != count:
            raise InvalidWeightError(
                f"insert_many got {weights_arr.shape[0]} weights for {count} intervals"
            )
        valid = np.isfinite(weights_arr) & (weights_arr >= 0)
        if not valid.all():
            bad = int(np.flatnonzero(~valid)[0])
            raise InvalidWeightError(
                f"interval weight must be finite and non-negative, got "
                f"{weights_arr[bad]!r} at position {bad}"
            )
    if count == 0:
        return np.empty(0, dtype=np.int64)

    ids = _append_columns_bulk(ait, lefts_arr, rights_arr, weights_arr)
    ait._pool.extend(int(i) for i in ids)
    ait._pool_epoch += 1
    flush_pool(ait)
    return ids


def flush_pool(ait: "AIT") -> int:
    """Merge every pooled interval into the tree, re-sorting touched lists once."""
    pending = list(ait._pool)
    if not pending:
        return 0

    # When the batch dominates the indexed portion of the tree, one
    # vectorised rebuild (O(n log n) in NumPy) beats per-interval Python
    # descents; this is what makes bulk-loading an empty tree fast.
    indexed_count = ait._active_count - len(pending)
    if len(pending) >= max(1, indexed_count):
        # Stays treeless under the columnar backend: the rebuild defers node
        # materialisation, so a bulk load never walks Python nodes at all.
        ait._pool = []
        ait._pool_epoch += 1
        ait._rebuild()
        return len(pending)

    # Materialise a deferred tree while the pool still names the pending
    # ids — they must not be part of the materialised structure, or the
    # descents below would index them twice.
    ait._ensure_tree()
    ait._pool = []
    ait._pool_epoch += 1
    touched_subtree: dict[int, tuple[AITNode, list[int]]] = {}
    touched_stab: dict[int, tuple[AITNode, list[int]]] = {}
    max_depth = ait._height

    for interval_id in pending:
        left = float(ait._lefts[interval_id])
        right = float(ait._rights[interval_id])
        depth = _descend_and_insert(
            ait,
            interval_id,
            left,
            right,
            defer_sorting=True,
            touched_subtree=touched_subtree,
            touched_stab=touched_stab,
        )
        max_depth = max(max_depth, depth)

    for node, added in touched_subtree.values():
        _bulk_extend_subtree(ait, node, added)
    for node, added in touched_stab.values():
        _bulk_extend_stab(ait, node, added)
    if ait._weighted:
        for node, _ in {**touched_subtree, **touched_stab}.values():
            node.recompute_weight_prefixes(ait._weights)

    ait._height = max_depth
    ait._structure_version += 1
    _maybe_rebuild(ait)
    return len(pending)


def _descend_and_insert(
    ait: "AIT",
    interval_id: int,
    left: float,
    right: float,
    defer_sorting: bool,
    touched_subtree: dict[int, tuple[AITNode, list[int]]] | None = None,
    touched_stab: dict[int, tuple[AITNode, list[int]]] | None = None,
) -> int:
    """Walk the insertion path for one interval; return the depth reached.

    With ``defer_sorting=True`` the interval is only *recorded* against the
    nodes it touches (except freshly created leaves, whose lists are trivially
    sorted); the caller re-sorts each touched list once afterwards.
    """

    def record_subtree(node: AITNode) -> None:
        if defer_sorting:
            entry = touched_subtree.setdefault(id(node), (node, []))
            entry[1].append(interval_id)
        else:
            node.insert_into_subtree(interval_id, left, right)
            if ait._weighted:
                node.recompute_weight_prefixes(ait._weights)

    def record_stab(node: AITNode) -> None:
        if defer_sorting:
            entry = touched_stab.setdefault(id(node), (node, []))
            entry[1].append(interval_id)
        else:
            node.insert_into_stab(interval_id, left, right)
            if ait._weighted:
                node.recompute_weight_prefixes(ait._weights)

    if ait._root is None:
        ait._root = _new_leaf(ait, interval_id, left, right)
        return 1

    node = ait._root
    depth = 1
    while True:
        record_subtree(node)
        if right < node.center:
            if node.left is None:
                node.left = _new_leaf(ait, interval_id, left, right)
                return depth + 1
            node = node.left
            depth += 1
        elif node.center < left:
            if node.right is None:
                node.right = _new_leaf(ait, interval_id, left, right)
                return depth + 1
            node = node.right
            depth += 1
        else:
            record_stab(node)
            return depth


def _new_leaf(ait: "AIT", interval_id: int, left: float, right: float) -> AITNode:
    leaf = AITNode((left + right) / 2.0)
    leaf.insert_into_stab(interval_id, left, right)
    leaf.insert_into_subtree(interval_id, left, right)
    if ait._weighted:
        leaf.recompute_weight_prefixes(ait._weights)
    return leaf


def _bulk_extend_subtree(ait: "AIT", node: AITNode, added: Iterable[int]) -> None:
    ids = np.asarray(list(added), dtype=np.int64)
    all_ids_left = np.concatenate((node.subtree_ids_by_left, ids))
    all_ids_right = np.concatenate((node.subtree_ids_by_right, ids))
    order_left = np.argsort(ait._lefts[all_ids_left], kind="stable")
    order_right = np.argsort(ait._rights[all_ids_right], kind="stable")
    node.subtree_ids_by_left = all_ids_left[order_left]
    node.subtree_lefts = ait._lefts[node.subtree_ids_by_left]
    node.subtree_ids_by_right = all_ids_right[order_right]
    node.subtree_rights = ait._rights[node.subtree_ids_by_right]


def _bulk_extend_stab(ait: "AIT", node: AITNode, added: Iterable[int]) -> None:
    ids = np.asarray(list(added), dtype=np.int64)
    all_ids_left = np.concatenate((node.stab_ids_by_left, ids))
    all_ids_right = np.concatenate((node.stab_ids_by_right, ids))
    order_left = np.argsort(ait._lefts[all_ids_left], kind="stable")
    order_right = np.argsort(ait._rights[all_ids_right], kind="stable")
    node.stab_ids_by_left = all_ids_left[order_left]
    node.stab_lefts = ait._lefts[node.stab_ids_by_left]
    node.stab_ids_by_right = all_ids_right[order_right]
    node.stab_rights = ait._rights[node.stab_ids_by_right]


# ---------------------------------------------------------------------- #
# deletion
# ---------------------------------------------------------------------- #
def _probe_delete_path(
    ait: "AIT", interval_id: int, left: float, right: float
) -> tuple[list[AITNode], AITNode | None]:
    """Walk the deletion path without mutating; return (path, stab node or None)."""
    path: list[AITNode] = []
    node = ait._root
    while node is not None:
        path.append(node)
        if left <= node.center <= right:
            return path, node
        node = node.left if right < node.center else node.right
    return path, None


def _prune_path(ait: "AIT", path: list[AITNode]) -> None:
    """Prune nodes whose subtree became empty, bottom-up along the path."""
    for index in range(len(path) - 1, -1, -1):
        pruned = path[index]
        if pruned.subtree_count > 0:
            break
        if index == 0:
            ait._root = None
            ait._height = 0
        else:
            parent = path[index - 1]
            if parent.left is pruned:
                parent.left = None
            elif parent.right is pruned:
                parent.right = None


def delete_interval(ait: "AIT", interval_id: int) -> bool:
    """Remove the interval with id ``interval_id`` from the tree (or the pool).

    Returns False — without mutating any counter — when the id is not
    actually indexed: unknown ids, already-deleted ids, and ids whose descent
    never reaches a stab list containing them leave ``size``,
    ``structure_version`` and the deleted set untouched.
    """
    try:
        interval_id = int(interval_id)
    except (TypeError, ValueError):
        return False
    if interval_id < 0 or interval_id >= ait._col_len or interval_id in ait._deleted:
        return False

    if interval_id in ait._pool:
        ait._pool.remove(interval_id)
        ait._deleted.add(interval_id)
        ait._free_slots.append(interval_id)
        ait._active_count -= 1
        ait._pool_epoch += 1
        return True

    ait._ensure_tree()
    left = float(ait._lefts[interval_id])
    right = float(ait._rights[interval_id])
    path, stab_node = _probe_delete_path(ait, interval_id, left, right)
    if stab_node is None or not bool(np.any(stab_node.stab_ids_by_left == interval_id)):
        return False

    for node in path:
        node.remove_from_subtree(interval_id)
    stab_node.remove_from_stab(interval_id)
    if ait._weighted:
        for node in path:
            node.recompute_weight_prefixes(ait._weights)

    _prune_path(ait, path)

    ait._deleted.add(interval_id)
    ait._free_slots.append(interval_id)
    ait._active_count -= 1
    ait._structure_version += 1
    return True


def delete_many(ait: "AIT", interval_ids) -> np.ndarray:
    """Vectorised batch deletion; returns one success flag per requested id.

    Semantically a loop of :func:`delete_interval` calls (duplicates within
    the batch report False after their first occurrence), but each touched
    node's lists are filtered once for the whole batch and
    ``structure_version`` advances a single time.
    """
    try:
        requested = list(interval_ids)
    except TypeError:
        requested = [interval_ids]
    count = len(requested)
    results = np.zeros(count, dtype=bool)
    if count == 0:
        return results

    pool_members = set(ait._pool)
    claimed: set[int] = set()
    pool_removals: list[int] = []
    tree_targets: list[tuple[int, int]] = []
    for position, raw in enumerate(requested):
        try:
            interval_id = int(raw)
        except (TypeError, ValueError):
            continue
        if (
            interval_id < 0
            or interval_id >= ait._col_len
            or interval_id in ait._deleted
            or interval_id in claimed
        ):
            continue
        claimed.add(interval_id)
        if interval_id in pool_members:
            pool_removals.append(interval_id)
            results[position] = True
        else:
            tree_targets.append((position, interval_id))

    if pool_removals:
        removed = set(pool_removals)
        ait._pool = [i for i in ait._pool if i not in removed]
        ait._deleted.update(pool_removals)
        ait._free_slots.extend(pool_removals)
        ait._active_count -= len(pool_removals)
        ait._pool_epoch += 1

    touched_subtree: dict[int, tuple[AITNode, list[int]]] = {}
    touched_stab: dict[int, tuple[AITNode, list[int]]] = {}
    removed_ids: list[int] = []
    paths: list[list[AITNode]] = []
    if tree_targets:
        ait._ensure_tree()
    for position, interval_id in tree_targets:
        left = float(ait._lefts[interval_id])
        right = float(ait._rights[interval_id])
        path, stab_node = _probe_delete_path(ait, interval_id, left, right)
        if stab_node is None or not bool(np.any(stab_node.stab_ids_by_left == interval_id)):
            continue
        results[position] = True
        removed_ids.append(interval_id)
        paths.append(path)
        for node in path:
            touched_subtree.setdefault(id(node), (node, []))[1].append(interval_id)
        touched_stab.setdefault(id(stab_node), (stab_node, []))[1].append(interval_id)

    if removed_ids:
        for node, gone in touched_stab.values():
            node.remove_many_from_stab(np.asarray(gone, dtype=np.int64))
        for node, gone in touched_subtree.values():
            node.remove_many_from_subtree(np.asarray(gone, dtype=np.int64))
        if ait._weighted:
            for node, _ in touched_subtree.values():
                node.recompute_weight_prefixes(ait._weights)
        if any(node.subtree_count == 0 for node, _ in touched_subtree.values()):
            for path in paths:
                _prune_path(ait, path)
        ait._deleted.update(removed_ids)
        ait._free_slots.extend(removed_ids)
        ait._active_count -= len(removed_ids)
        ait._structure_version += 1

    return results
