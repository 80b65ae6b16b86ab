"""Deterministic random-number helpers.

Every stochastic component of the library (emulators, random
declustering baseline, synthetic datasets in tests) accepts either an
integer seed or a ready :class:`numpy.random.Generator`; this module
normalizes both into a Generator so results are reproducible.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["SeedLike", "make_rng", "spawn_rngs"]

SeedLike = Union[int, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    ``None`` produces a fresh nondeterministic generator; an ``int``
    seeds PCG64; an existing Generator is passed through unchanged, so
    callers can thread one generator through a pipeline of components.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Derive *n* independent child generators from one seed.

    Used when work is split across virtual processors so that each
    processor's stream is independent of the iteration order.
    """
    root = np.random.SeedSequence(seed if isinstance(seed, int) else None)
    return [np.random.default_rng(s) for s in root.spawn(n)]
