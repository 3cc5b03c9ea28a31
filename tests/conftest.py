"""Shared test fixtures and helpers."""

import itertools
import random
import sys

import numpy as np
import pytest

from riemann_syzygy.decomp import FBlocks
from riemann_syzygy.gen import GenConfig, random_fblocks_stream


@pytest.fixture
def fresh_plans(monkeypatch):
    """Empty contraction plan tables for one test: ``expr._PLANS``, the plans
    keyed by monomial, and ``expr._STEPS``, the pairwise steps keyed by
    contraction spec; the process's own tables come back after it."""
    from riemann_syzygy import expr

    monkeypatch.setattr(expr, "_PLANS", {})
    monkeypatch.setattr(expr, "_STEPS", {})


@pytest.fixture(scope="session")
def samples():
    """Ten general random block samples (bound 9)."""
    return random_fblocks_stream(20240901, 10, GenConfig())


@pytest.fixture(scope="session")
def einstein_samples():
    """Ten Einstein random block samples (vanishing mixed block)."""
    return random_fblocks_stream(20240901, 10, GenConfig(einstein=True))


def parity_sign(entry):
    """Expected behavior of a scalar entry under orientation reversal.

    Entries whose contraction form carries an odd number of alternating
    symbols flip sign; everything else (including entries with no
    index-contraction form, which are built from even block words) is
    invariant.
    """
    if entry.tensor is None:
        return 1
    poly = entry.form("tensor")
    signs = {
        -1 if sum(1 for name, _ in m.factors if name == "eps") % 2 else 1
        for m in poly.monomials
    }
    assert len(signs) == 1, entry.label
    return signs.pop()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdicts after the run."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


def relaxed_blocks(seed, bound=9):
    """Blocks with independent traces of Ap and Am.

    The reconstructed tensor keeps the pair-antisymmetry and pair-exchange
    symmetries but violates the first Bianchi identity, so identities that
    depend on it become falsifiable there.  Returns raw (ap, b, am), not an
    FBlocks (which would reject the unequal traces).
    """
    rng = random.Random(seed)

    def sym():
        m = np.zeros((3, 3), dtype=object)
        for i in range(3):
            for j in range(i, 3):
                m[i, j] = m[j, i] = rng.randint(-bound, bound)
        return m

    ap, am = sym(), sym()
    b = np.array(
        [[rng.randint(-bound, bound) for _ in range(3)] for _ in range(3)],
        dtype=object,
    )
    return ap, b, am


def relaxed_tensor(seed, bound=9):
    """Rank-4 tensor from relaxed_blocks (no first Bianchi identity)."""
    from riemann_syzygy.curvature import zeros
    from riemann_syzygy.thooft import ETA, ETABAR

    ap, b, am = relaxed_blocks(seed, bound)
    t = zeros()
    t += np.einsum("ij,iab,jcd->abcd", ap, ETA, ETA)
    t += np.einsum("ij,iab,jcd->abcd", b, ETA, ETABAR)
    t += np.einsum("ij,iab,jcd->abcd", b.T, ETABAR, ETA)
    t += np.einsum("ij,iab,jcd->abcd", am, ETABAR, ETABAR)
    return t


_SYMMETRIC_SLOTS = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
_AM_SLOTS = [(0, 0), (1, 1), (0, 1), (0, 2), (1, 2)]


def lattice_fblocks(degree):
    """Block samples at every point of the principal lattice of ``degree``.

    The 20 block coordinates are the 6 upper entries of Ap, the 9 entries of
    B, and Am11, Am22, Am12, Am13, Am23, with Am33 = tr Ap - Am11 - Am22; the
    map from coordinates to FBlocks is linear and onto.  The points are all
    x in Z>=0^20 with sum(x) == degree (C(19 + degree, degree) of them).

    A homogeneous polynomial of that degree in the coordinates that vanishes
    at every point is identically zero: the principal lattice is unisolvent
    for polynomials of degree <= ``degree`` on the hyperplane
    sum(x) == degree (Chung & Yao 1977, SIAM J. Numer. Anal. 14:735), and
    homogeneity carries the zero from that hyperplane to the whole space.
    """
    samples = []
    for combo in itertools.combinations_with_replacement(range(20), degree):
        x = [0] * 20
        for i in combo:
            x[i] += 1
        ap = np.zeros((3, 3), dtype=object)
        am = np.zeros((3, 3), dtype=object)
        for v, (i, j) in zip(x[:6], _SYMMETRIC_SLOTS):
            ap[i, j] = ap[j, i] = v
        b = np.array(x[6:15], dtype=object).reshape(3, 3)
        for v, (i, j) in zip(x[15:], _AM_SLOTS):
            am[i, j] = am[j, i] = v
        am[2, 2] = ap[0, 0] + ap[1, 1] + ap[2, 2] - am[0, 0] - am[1, 1]
        samples.append(FBlocks(Ap=ap, B=b, Am=am))
    return samples
