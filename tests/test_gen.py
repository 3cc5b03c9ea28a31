"""Random sample generation: determinism, bounds, domain flags."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemann_syzygy import gen
from riemann_syzygy.gen import GenConfig, random_fblocks, random_fblocks_stream


def test_deterministic():
    assert random_fblocks(7) == random_fblocks(7)
    a = random_fblocks_stream(7, 5)
    b = random_fblocks_stream(7, 5)
    assert a == b


def test_stream_matches_single_first_draw():
    assert random_fblocks_stream(7, 3)[0] == random_fblocks(7)


def test_different_seeds_differ():
    assert random_fblocks(1) != random_fblocks(2)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 20))
def test_bound_respected(seed, bound):
    fb = random_fblocks(seed, GenConfig(bound=bound))
    for m in (fb.Ap, fb.B):
        assert all(abs(m[i, j]) <= bound for i in range(3) for j in range(3))
    # Am: the last diagonal entry is adjusted for the trace constraint
    assert all(
        abs(fb.Am[i, j]) <= bound
        for i in range(3)
        for j in range(3)
        if (i, j) != (2, 2)
    )


def test_trace_constraint_always_holds():
    for seed in range(20):
        fb = random_fblocks(seed)
        assert (
            fb.Ap[0, 0] + fb.Ap[1, 1] + fb.Ap[2, 2]
            == fb.Am[0, 0] + fb.Am[1, 1] + fb.Am[2, 2]
        )


def test_einstein_flag():
    fb = random_fblocks(3, GenConfig(einstein=True))
    assert np.all(fb.B == 0)
    assert fb.is_einstein()


def test_bad_bound_rejected():
    with pytest.raises(ValueError):
        GenConfig(bound=0)
    with pytest.raises(ValueError):
        GenConfig(bound=-1)


def test_none_seed_refused():
    # random.Random(None) would seed from the operating system
    for draw in (lambda: random_fblocks(None),
                 lambda: random_fblocks_stream(None, 2)):
        with pytest.raises(ValueError, match="seed is required"):
            draw()


def _reference_draw(rng, config):
    """One sample drawn entry by entry with ``randint``: the upper triangle
    of Ap row by row, that of Am, then B row by row (not on the Einstein
    domain), and Am[2, 2] set from the trace constraint."""
    bound = config.bound
    blocks = {}
    for name in ("Ap", "Am"):
        m = np.zeros((3, 3), dtype=object)
        for i in range(3):
            for j in range(i, 3):
                m[i, j] = m[j, i] = rng.randint(-bound, bound)
        blocks[name] = m
    b = np.zeros((3, 3), dtype=object)
    if not config.einstein:
        for i in range(3):
            for j in range(3):
                b[i, j] = rng.randint(-bound, bound)
    ap, am = blocks["Ap"], blocks["Am"]
    am[2, 2] = ap[0, 0] + ap[1, 1] + ap[2, 2] - am[0, 0] - am[1, 1]
    return ap, b, am


@pytest.mark.parametrize("einstein", [False, True])
# 2**29: about half the words are rejected; 2**31: ``randint`` draws itself
@pytest.mark.parametrize("bound", [1, 9, 1000, 2**29, 2**31])
def test_stream_matches_reference_draw(bound, einstein):
    config = GenConfig(bound=bound, einstein=einstein)
    for seed in (0, 1, 7, 2024):
        for count in (0, 1, 7):
            fbs = random_fblocks_stream(seed, count, config)
            rng = random.Random(seed)
            assert len(fbs) == count
            for fb in fbs:
                for name, want in zip(("Ap", "B", "Am"), _reference_draw(rng, config)):
                    m = getattr(fb, name)
                    assert m.shape == (3, 3) and m.dtype == object
                    assert not m.flags.writeable
                    assert all(type(x) is int for x in m.flat)
                    assert m.tolist() == want.tolist()
            assert len({id(fb.memo) for fb in fbs}) == count
        assert random_fblocks(seed, config) == random_fblocks_stream(seed, 3, config)[0]


class _Recording(random.Random):
    """A generator that records the bit count of each ``getrandbits`` call."""

    def __init__(self, seed):
        self.calls = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.calls.append(k)
        return super().getrandbits(k)


# 2**29: a range of 2**30 + 1 values in 31 bits, so about half the words are
# rejected; 2**31 - 1: a range of 32 bits, the widest drawn by words;
# 2**31 and 2**40: ranges of 33 and 41 bits, drawn by ``randint``
@pytest.mark.parametrize("bound", [1, 2, 9, 1000, 10**6, 2**29, 2**30, 2**31 - 1,
                                   2**31, 2**40])
def test_draws_equal_randint(bound):
    k = (2 * bound + 1).bit_length()
    chunks = []
    for seed in (0, 1, 7, 2024):
        for count in (0, 1, 21, 4893, 20000):
            rng, reference = _Recording(seed), random.Random(seed)
            assert gen._draws(rng, bound, count) == [
                reference.randint(-bound, bound) for _ in range(count)]
            if k > 32:
                # randint's own draws, one per value or rejected value
                assert set(rng.calls) <= {k} and len(rng.calls) >= count
            else:
                assert all(bits % 32 == 0 for bits in rng.calls)
                chunks.append(len(rng.calls))
    if bound == 2**29:
        # a chunk fell short of its count, and the next one was drawn
        assert max(chunks) > 1


def test_negative_count_refused():
    with pytest.raises(ValueError, match="^count must be non-negative, got -1$"):
        random_fblocks_stream(1, -1)
    assert random_fblocks_stream(1, 0) == []


def _reference_stream(seed, count, config):
    """The stream drawn on object arrays of Python ints throughout: one
    ``randint`` list laid out by index arithmetic, as ``gen._stream`` lays
    out its integer stacks."""
    rng = random.Random(seed)
    bound = config.bound
    width = 12 if config.einstein else 21
    draws = np.array([rng.randint(-bound, bound) for _ in range(count * width)],
                     dtype=object).reshape(count, width)
    ap, am = np.empty((2, count, 3, 3), dtype=object)
    i, j = np.triu_indices(3)
    for m, upper in ((ap, draws[:, :6]), (am, draws[:, 6:12])):
        m[:, i, j] = upper
        m[:, j, i] = upper
    am[:, 2, 2] = ap[:, 0, 0] + ap[:, 1, 1] + ap[:, 2, 2] - am[:, 0, 0] - am[:, 1, 1]
    b = (np.zeros((count, 3, 3), dtype=object) if config.einstein
         else draws[:, 12:].reshape(count, 3, 3))
    return ap, b, am


@pytest.mark.parametrize("einstein", [False, True])
@pytest.mark.parametrize("bound", [1, 9, 10**6, 2**61])
def test_stream_equals_object_reference(bound, einstein):
    # 2**61: five times it passes int64's bound, so the stacks hold Python ints
    config = GenConfig(bound=bound, einstein=einstein)
    for seed in (0, 3, 4101, 2**40):
        fbs = random_fblocks_stream(seed, 9, config)
        for name, want in zip(("Ap", "B", "Am"), _reference_stream(seed, 9, config)):
            got = np.stack([getattr(fb, name) for fb in fbs])
            assert got.dtype == object
            assert all(type(v) is int for v in got.flat), name
            assert got.tolist() == want.tolist(), name


@pytest.mark.parametrize("bad", [True, False, 2.0, "9", None])
def test_non_int_bound_refused(bad):
    with pytest.raises(ValueError, match=f"^bound must be a positive integer, got {bad!r}$"):
        GenConfig(bound=bad)


@pytest.mark.parametrize("bad", [True, 2.0, "3", None])
def test_non_int_count_refused(bad):
    with pytest.raises(ValueError, match=f"^count must be an integer, got {bad!r}$"):
        random_fblocks_stream(1, bad)


@pytest.mark.parametrize("bad", [True, False, 1.5, "x", b"x"])
def test_non_int_seed_refused(bad):
    message = f"^seed must be an integer, got {re.escape(repr(bad))}$"
    for draw in (lambda: random_fblocks(bad),
                 lambda: random_fblocks_stream(bad, 2)):
        with pytest.raises(ValueError, match=message):
            draw()
