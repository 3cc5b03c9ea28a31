"""Seeded random generation of curvature-tensor blocks with integer entries.

Sampling in block space guarantees every draw satisfies all algebraic
curvature symmetries by construction; the trace constraint tr Ap == tr Am is
imposed by overwriting the last diagonal entry of Am.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .decomp import FBlocks

__all__ = ["GenConfig", "random_fblocks", "random_fblocks_stream"]


@dataclass(frozen=True)
class GenConfig:
    """Sampling parameters.

    bound: entries are drawn uniformly from the integers in [-bound, bound].
    einstein: if true, the mixed block B is identically zero.
    """

    bound: int = 9
    einstein: bool = False

    def __post_init__(self):
        if not isinstance(self.bound, int) or self.bound < 1:
            raise ValueError(f"bound must be a positive integer, got {self.bound!r}")


def _random_symmetric(rng, bound):
    m = np.zeros((3, 3), dtype=object)
    for i in range(3):
        for j in range(i, 3):
            v = rng.randint(-bound, bound)
            m[i, j] = v
            m[j, i] = v
    return m


def _rng(seed):
    """The random stream of ``seed``.  None is refused: ``random.Random``
    would seed it from the operating system, and no draw would repeat."""
    if seed is None:
        raise ValueError("a seed is required (None would draw unrepeatable "
                         "samples)")
    return random.Random(seed)


def random_fblocks(seed, config=GenConfig()):
    """Draw one FBlocks sample from the given seed (deterministic)."""
    return _draw(_rng(seed), config)


def random_fblocks_stream(seed, count, config=GenConfig()):
    """Draw ``count`` independent samples from one seeded stream."""
    rng = _rng(seed)
    return [_draw(rng, config) for _ in range(count)]


def _draw(rng, config):
    bound = config.bound
    ap = _random_symmetric(rng, bound)
    am = _random_symmetric(rng, bound)
    b = np.zeros((3, 3), dtype=object)
    if not config.einstein:
        for i, j in np.ndindex(3, 3):
            b[i, j] = rng.randint(-bound, bound)
    am[2, 2] = ap[0, 0] + ap[1, 1] + ap[2, 2] - am[0, 0] - am[1, 1]
    return FBlocks(Ap=ap, B=b, Am=am)
