"""Random-number-generator plumbing shared by every sampling structure.

All structures in the library accept either a seed, a ``numpy.random.Generator``
or ``None`` (fresh entropy) wherever randomness is needed.  Centralising the
coercion here keeps experiments reproducible: the experiment harness passes
explicit seeds, while interactive users can ignore the argument entirely.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["RandomState", "resolve_rng", "spawn_rngs", "spawn_seeds"]

#: Anything accepted as a source of randomness by the public API.
RandomState = Union[None, int, np.random.Generator, np.random.SeedSequence]


def resolve_rng(random_state: RandomState = None) -> np.random.Generator:
    """Coerce ``random_state`` into a ``numpy.random.Generator``.

    ``None`` yields a generator seeded from OS entropy; an integer or
    ``SeedSequence`` yields a deterministic generator; an existing generator
    is returned unchanged (so callers can share one stream).
    """
    if isinstance(random_state, np.random.Generator):
        return random_state
    if random_state is None:
        return np.random.default_rng()
    if isinstance(random_state, (int, np.integer, np.random.SeedSequence)):
        return np.random.default_rng(random_state)
    raise TypeError(
        "random_state must be None, an int, a numpy SeedSequence or a numpy Generator, "
        f"got {type(random_state).__name__}"
    )


def spawn_rngs(random_state: RandomState, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent generators from one seed.

    Used by the experiment harness to give every repetition of an experiment
    its own stream while remaining reproducible from a single seed.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if isinstance(random_state, np.random.Generator):
        return [np.random.default_rng(seed) for seed in spawn_seeds(random_state, count)]
    seq = random_state if isinstance(random_state, np.random.SeedSequence) else np.random.SeedSequence(random_state)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def spawn_seeds(rng: np.random.Generator, count: int) -> list[int]:
    """Derive ``count`` independent integer seeds from a live generator.

    The transferable form of :func:`spawn_rngs`: plain ints cross process
    boundaries for free, and ``default_rng(seed)`` on the far side yields the
    exact generator ``spawn_rngs`` would have built here.  Consumes ``count``
    draws from ``rng``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return [int(rng.integers(0, 2**63 - 1)) for _ in range(count)]
