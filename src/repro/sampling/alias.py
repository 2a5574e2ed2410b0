"""Walker's alias method for O(1) weighted sampling.

Given ``n`` weights, building the alias table costs O(n) time and O(n) space;
each subsequent draw costs O(1).  This is the method used by Algorithm 1 in
the paper to pick a node record proportionally to the number of intervals it
covers, and by the AWIT algorithm to pick a node record proportionally to its
total weight.

The implementation follows the standard Vose formulation: every cell holds a
*primary* index, a *cutoff* probability and an *alias* index; a draw picks a
cell uniformly and then chooses between primary and alias using the cutoff.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..core.errors import InvalidWeightError
from .rng import RandomState, resolve_rng

__all__ = ["AliasTable", "build_alias", "alias_sample"]


class AliasTable:
    """Pre-processed alias structure over ``n`` non-negative weights.

    Parameters
    ----------
    weights:
        Non-negative weights; at least one must be positive.

    Examples
    --------
    >>> table = AliasTable([1.0, 3.0])
    >>> table.sample(resolve_rng(0)) in (0, 1)
    True
    """

    __slots__ = ("_prob", "_alias", "_total", "_n")

    def __init__(self, weights: Iterable[float] | np.ndarray) -> None:
        w = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] == 0:
            raise InvalidWeightError("alias table requires a non-empty 1-D weight vector")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise InvalidWeightError("alias table weights must be finite and non-negative")
        total = float(w.sum())
        if total <= 0:
            raise InvalidWeightError("alias table requires at least one positive weight")

        n = w.shape[0]
        # Scaled weights: mean 1.0, so cells with scaled weight < 1 are "small".
        # Normalise before scaling: ``n / total`` overflows for subnormal totals.
        scaled = (w / total) * n
        prob = np.ones(n, dtype=np.float64)
        alias = np.arange(n, dtype=np.int64)

        small: list[int] = []
        large: list[int] = []
        for i, value in enumerate(scaled):
            (small if value < 1.0 else large).append(i)

        scaled = scaled.copy()
        while small and large:
            s = small.pop()
            g = large.pop()
            prob[s] = scaled[s]
            alias[s] = g
            # Give the leftover capacity of cell s to the large item g.
            scaled[g] = (scaled[g] + scaled[s]) - 1.0
            (small if scaled[g] < 1.0 else large).append(g)

        # Numerical leftovers: whatever remains gets probability 1 of itself.
        for i in small + large:
            prob[i] = 1.0
            alias[i] = i

        self._prob = prob
        self._alias = alias
        self._total = total
        self._n = n

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n

    @property
    def total_weight(self) -> float:
        """Sum of the weights the table was built from."""
        return self._total

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one index with probability proportional to its weight (O(1))."""
        cell = int(rng.integers(0, self._n))
        if rng.random() < self._prob[cell]:
            return cell
        return int(self._alias[cell])

    def sample_many(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` independent indices (vectorised)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        cells = rng.integers(0, self._n, size=count)
        coins = rng.random(count)
        take_alias = coins >= self._prob[cells]
        out = cells.copy()
        out[take_alias] = self._alias[cells[take_alias]]
        return out

    def probabilities(self) -> np.ndarray:
        """Exact per-index sampling probabilities implied by the table.

        Useful for tests: reconstructs the probability mass from the cells and
        must match ``weights / weights.sum()`` up to floating-point error.
        """
        mass = np.zeros(self._n, dtype=np.float64)
        cell_mass = 1.0 / self._n
        for cell in range(self._n):
            mass[cell] += cell_mass * self._prob[cell]
            mass[self._alias[cell]] += cell_mass * (1.0 - self._prob[cell])
        return mass


def build_alias(weights: Sequence[float] | np.ndarray) -> AliasTable:
    """Convenience wrapper mirroring the paper's BUILD-ALIAS primitive."""
    return AliasTable(weights)


def alias_sample(
    weights: Sequence[float] | np.ndarray, count: int, random_state: RandomState = None
) -> np.ndarray:
    """One-shot helper: build an alias table and draw ``count`` indices."""
    rng = resolve_rng(random_state)
    return AliasTable(weights).sample_many(count, rng)
