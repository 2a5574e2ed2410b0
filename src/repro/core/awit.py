"""AWIT — the Augmented Weighted Interval Tree (Section IV of the paper).

The AWIT extends the AIT with, per node and per sorted list, an array of
cumulative weight sums (``W^l``, ``W^r``, ``AW^l``, ``AW^r``).  Those arrays
let the query algorithm obtain the total weight of any node record in O(1)
(one subtraction of two prefix sums), so the alias table over records can
still be built in O(log n); drawing an interval *inside* a record then uses
the cumulative-sum method on the precomputed prefix (O(log n) per draw).  The
total query cost is ``O(log^2 n + s log n)`` (Corollary 5) and every interval
``x ∈ q ∩ X`` is returned with probability ``w(x) / Σ w(x')`` per draw.

Because the prefix arrays are positional, the paper's AWIT is static (it
defers dynamic weighted IRS to future work).  The repo's engineering
extension :meth:`AIT.insert_many` / :meth:`AIT.delete_many` *does* work on
weighted trees: the bulk paths recompute every touched list's prefix array
wholesale (one ``cumsum`` per touched list), which sidesteps the positional
patching problem entirely — see ``docs/ARCHITECTURE.md``.  The scalar
:meth:`AIT.insert` / :meth:`AIT.delete` calls are routed through those same
bulk paths (as one-element batches), so the scalar update API works
uniformly on both engines.

Examples
--------
>>> from repro import AWIT, Interval, IntervalDataset
>>> tree = AWIT(IntervalDataset.from_pairs([(0, 10), (5, 15)], weights=[1.0, 9.0]))
>>> ids = tree.insert_many([20.0], [30.0], weights=[4.0])
>>> tree.total_weight((0, 40))
14.0
>>> tree.delete_many(ids).tolist()
[True]
>>> scalar_id = tree.insert(Interval(20.0, 30.0, weight=2.0))
>>> tree.total_weight((0, 40))
12.0
>>> tree.delete(scalar_id)
True
>>> tree.total_weight((0, 40))
10.0
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .ait import AIT
from .dataset import IntervalDataset
from .query import QueryLike

__all__ = ["AWIT"]


class AWIT(AIT):
    """Augmented weighted interval tree for weighted independent range sampling.

    Parameters
    ----------
    dataset:
        The intervals to index.  If the dataset has no explicit weights every
        interval gets weight 1 and the AWIT behaves exactly like the AIT
        (modulo the extra O(log n) factor per draw).

    Examples
    --------
    >>> from repro import AWIT, IntervalDataset
    >>> data = IntervalDataset.from_pairs([(0, 10), (5, 15)], weights=[1.0, 9.0])
    >>> tree = AWIT(data)
    >>> tree.total_weight((0, 20))
    10.0
    >>> len(tree.sample((0, 20), 4, random_state=0))
    4
    """

    def __init__(
        self,
        dataset: IntervalDataset,
        batch_pool_size: Optional[int] = None,
        build_backend: str = "columnar",
    ) -> None:
        super().__init__(
            dataset,
            weighted=True,
            batch_pool_size=batch_pool_size,
            build_backend=build_backend,
        )

    def total_weight(self, query: QueryLike) -> float:
        """Total weight of ``q ∩ X`` in O(log^2 n) time (weighted range counting)."""
        records = self.collect_records(query)
        return float(sum(rec.weight for rec in records))

    def total_weight_many(self, queries) -> np.ndarray:
        """Vectorised :meth:`total_weight` for a batch of queries.

        Runs on the flat engine (:meth:`~repro.core.ait.AIT.flat`): one
        level-synchronous traversal computes every query's record set and the
        weighted totals come from the precomputed prefix pools.
        """
        return self.flat().total_weight_many(queries)

    def weights_of(self, interval_ids: np.ndarray) -> np.ndarray:
        """Weights of the given interval ids (convenience accessor for callers)."""
        ids = np.asarray(interval_ids, dtype=np.int64)
        return self._weights[ids]
