"""Seeded random generation of curvature-tensor blocks with integer entries.

Sampling in block space guarantees every draw satisfies all algebraic
curvature symmetries by construction; the trace constraint tr Ap == tr Am is
imposed by overwriting the last diagonal entry of Am.

A stream of samples is drawn in one pass: its integers are those that
``randint(-bound, bound)`` would give, in the same order, drawn into one
list (``_draws``), per sample the upper triangle of Ap row by row (6
draws), that of Am (6 draws), then B row by row (9 draws, none on the
Einstein domain).  Index arithmetic lays the list out as three (N, 3, 3)
stacks of int64, or of Python ints when 5 * bound, the largest magnitude of
Am's filled entry, does not fit int64 (``curvature.int_dtype``).  The
stacks are checked once (``decomp.unstacked``), which turns them into
Python ints in one ``astype(object)``; each sample holds read-only views
into them.

A seed, a count or a bound that is not an int, or is a bool, is refused
with a ValueError naming it.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

import numpy as np

from .curvature import int_dtype
from .decomp import unstacked

__all__ = ["GenConfig", "random_fblocks", "random_fblocks_stream"]

# the upper triangle of a 3x3 matrix, row by row: the order of its draws
_UPPER = np.triu_indices(3)


@dataclass(frozen=True)
class GenConfig:
    """Sampling parameters.

    bound: entries are drawn uniformly from the integers in [-bound, bound].
    einstein: if true, the mixed block B is identically zero.
    """

    bound: int = 9
    einstein: bool = False

    def __post_init__(self):
        if type(self.bound) is bool or not isinstance(self.bound, int) or self.bound < 1:
            raise ValueError(f"bound must be a positive integer, got {self.bound!r}")


def integer(name, value):
    """``value`` when it is an int (not a bool); otherwise a ValueError
    naming the argument ``name``."""
    if type(value) is bool or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def checked_seed(seed):
    """``seed`` when it is an int.  None is refused: ``random.Random`` would
    seed it from the operating system, and no draw would repeat."""
    if seed is None:
        raise ValueError("a seed is required (None would draw unrepeatable "
                         "samples)")
    return integer("seed", seed)


def _rng(seed):
    """The random stream of ``seed`` (see ``checked_seed``)."""
    return random.Random(checked_seed(seed))


def random_fblocks(seed, config=GenConfig()):
    """Draw one FBlocks sample from the given seed (deterministic): the
    first sample of the stream of ``seed``."""
    return _stream(_rng(seed), 1, config)[0]


def random_fblocks_stream(seed, count, config=GenConfig()):
    """Draw ``count`` independent samples from one seeded stream."""
    rng = _rng(seed)
    if integer("count", count) < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return _stream(rng, count, config)


def _draws(rng, bound, total):
    """The next ``total`` values of ``rng.randint(-bound, bound)``, drawn
    32 bits at a time in one ``getrandbits`` call per chunk.

    For a range of n = 2 * bound + 1 values of k = n.bit_length() bits,
    ``randint`` takes the top k bits of the generator's next 32-bit word
    until they are below n, and adds -bound.  ``getrandbits(32 * m)`` holds
    the next m words, the first in its lowest 32 bits (CPython's order, not
    documented; ``tests/test_gen.py`` guards it), so the accepted values of
    its words are those draws in order.  A chunk of m words is expected to
    give m * n / 2^k of them; when it gives too few, the next chunk is drawn.
    The generator is the stream's own, so the words past the last one used
    are never missed.  Above 32 bits ``randint`` itself draws.
    """
    n = 2 * bound + 1
    k = n.bit_length()
    if k > 32:
        randint = rng.randint
        return [randint(-bound, bound) for _ in range(total)]
    # a word's top k bits are below n exactly when the word is below top
    shift = 32 - k
    top = n << shift
    out = []
    while len(out) < total:
        m = ((total - len(out)) << k) // n + 1
        # native 32-bit words, in the order they were drawn
        words = memoryview(rng.getrandbits(32 * m).to_bytes(4 * m, sys.byteorder)).cast("I")
        if sys.byteorder == "big":
            words = words[::-1]
        out += [(w >> shift) - bound for w in words if w < top]
    del out[total:]
    return out


def _stream(rng, count, config):
    bound = config.bound
    width = 12 if config.einstein else 21
    # Am's filled entry, a sum of five draws, is the largest
    dtype = int_dtype(5 * bound)
    draws = np.array(_draws(rng, bound, count * width),
                     dtype=dtype).reshape(count, width)
    ap, am = np.empty((2, count, 3, 3), dtype=dtype)
    i, j = _UPPER
    for m, upper in ((ap, draws[:, :6]), (am, draws[:, 6:12])):
        m[:, i, j] = upper
        m[:, j, i] = upper
    am[:, 2, 2] = ap[:, 0, 0] + ap[:, 1, 1] + ap[:, 2, 2] - am[:, 0, 0] - am[:, 1, 1]
    b = (np.zeros((count, 3, 3), dtype=dtype) if config.einstein
         else draws[:, 12:].reshape(count, 3, 3))
    return unstacked({"Ap": ap, "B": b, "Am": am})
