"""Irreducible block decomposition of 4D curvature tensors.

Under so(4) = su(2) x su(2) a tensor with the algebraic curvature symmetries
splits into two symmetric 3x3 blocks ``Ap`` (self-dual/self-dual) and ``Am``
(anti/anti) plus one general 3x3 block ``B`` (mixed), with the constraint
``tr Ap == tr Am`` (equivalent to the first Bianchi identity):

    R_abcd = Ap_ij eta^i_ab eta^j_cd + B_ij eta^i_ab etabar^j_cd
             + B_ji etabar^i_ab eta^j_cd + Am_ij etabar^i_ab etabar^j_cd
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .curvature import (
    SCHEMA,
    Rank4Tensor,
    Scaled,
    as_tensor,
    check_schema,
    derived,
    dumps,
    exact,
    rationals_from_json,
    rationals_to_json,
    scaled,
    symmetry_report,
    unscaled,
    widened,
)
from .thooft import DELTA3, int64

__all__ = [
    "FBlocks",
    "raw_blocks",
    "decompose",
    "reconstruct",
    "fblocks_to_dict",
    "fblocks_from_dict",
    "fblocks_to_json",
    "fblocks_from_json",
]

_BLOCKS = ("Ap", "B", "Am")


def _trace(m):
    """The trace of a 3x3 matrix, or of each of a stack of them: ``m.T[j, i]``
    is ``m[..., i, j]``, an entry or that entry of every matrix."""
    t = m.T
    return t[0, 0] + t[1, 1] + t[2, 2]


def _checked(blocks, shape):
    """The blocks keyed by name, checked, each as a read-only copy in exact
    normal form of ``shape``: (3, 3) for one sample, (N, 3, 3) for a stack
    of N samples.

    Ap and Am must be symmetric with equal trace (per sample of a stack).
    A wrong shape, an asymmetric block or unequal traces is a ValueError,
    an entry that is neither an int nor a Fraction a TypeError.
    """
    out = {}
    for name in _BLOCKS:
        m = as_tensor(blocks[name], shape, name)
        m.flags.writeable = False
        out[name] = m
    for name in ("Ap", "Am"):
        m = out[name]
        if not np.array_equal(m, m.swapaxes(-1, -2)):
            raise ValueError(f"{name} must be symmetric")
    if np.asarray(_trace(out["Ap"]) != _trace(out["Am"])).any():
        raise ValueError("tr(Ap) must equal tr(Am)")
    return out


@dataclass(frozen=True)
class FBlocks:
    """The (Ap, B, Am) block triple of a curvature tensor.

    ``Ap`` and ``Am`` must be symmetric with equal trace; ``B`` is arbitrary.
    Entries are exact rationals.  Each block is a read-only copy of the
    array it was given (or a read-only view into a checked stack, see
    ``unstacked``), so what is derived from the blocks and kept in ``memo``
    (``catalog.contexts_for`` keeps the sample's evaluation contexts there)
    holds for as long as the sample lives.
    """

    Ap: np.ndarray
    B: np.ndarray
    Am: np.ndarray
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = _checked({name: getattr(self, name) for name in _BLOCKS}, (3, 3))
        for name, m in blocks.items():
            object.__setattr__(self, name, m)

    # -- scalar data ------------------------------------------------------

    def scalar_curvature(self):
        """R = 4 (tr Ap + tr Am)."""
        return 4 * (_trace(self.Ap) + _trace(self.Am))

    def is_einstein(self):
        """Einstein tensors are exactly those with vanishing mixed block."""
        return bool(np.all(self.B == 0))

    # -- block-level maps --------------------------------------------------

    def parity(self):
        """Orientation reversal: swaps the two su(2) factors."""
        return FBlocks(Ap=self.Am, B=self.B.T, Am=self.Ap)

    def weyl_blocks(self):
        """Traceless parts (Ap~, Am~): the two Weyl half-blocks."""
        return tuple(
            exact(m - Fraction(_trace(m), 3) * DELTA3) for m in (self.Ap, self.Am)
        )

    def __eq__(self, other):
        if not isinstance(other, FBlocks):
            return NotImplemented
        return (
            np.array_equal(self.Ap, other.Ap)
            and np.array_equal(self.B, other.B)
            and np.array_equal(self.Am, other.Am)
        )


def raw_blocks(t: Rank4Tensor):
    """Unvalidated block projections f^{ij} = (1/16) T_abcd s^i_ab s'^j_cd.

    Returns (fpp, fpm, fmp, fmm).  For a tensor with the full curvature
    symmetries these are (Ap, B, B^T, Am); for other antisymmetric-pair
    tensors (e.g. the dual tensor) the four blocks are independent.

    The mirror of ``reconstruct``: the matrix product S T S^T of T's integer
    numerators, read as a 16x16 matrix over pairs ab and cd, with S the
    stacked (eta, etabar), gives the four blocks as one 6x6 array.  Each row
    of S has 4 nonzero entries, each +-1, so an entry of S T is a sum of 4
    terms of magnitude at most max |T|, and one of S T S^T of 16.
    """
    return _project(scaled(t))


def _project(s: Scaled):
    """``raw_blocks`` of the tensor whose scaled form is ``s``."""
    e = _etas().reshape(6, 16)
    m = unscaled(e @ widened(s, 16).reshape(16, 16) @ e.T, s.den * 16)
    return m[:3, :3], m[:3, 3:], m[3:, :3], m[3:, 3:]


def decompose(t: Rank4Tensor) -> FBlocks:
    """Split a curvature tensor into its FBlocks.

    The algebraic curvature symmetries are checked first, on the scaled form
    of ``t`` that the block projection uses too; a ValueError naming the
    first failed check is raised if ``t`` is not a curvature tensor.
    """
    s = scaled(t)
    report = symmetry_report(s)
    if not report.ok:
        raise ValueError("not a curvature tensor; failed checks: "
                         + ", ".join(report.failures()))
    fpp, fpm, fmp, fmm = _project(s)
    if not np.array_equal(fmp, fpm.T):
        raise ValueError("mixed blocks are not transposes of each other")
    return FBlocks(Ap=fpp, B=fpm, Am=fmm)


def reconstruct(fb: FBlocks) -> Rank4Tensor:
    """Rebuild the rank-4 tensor from its blocks (exact inverse of decompose)."""
    m = _block_matrix(stacked(fb))
    return unscaled(_spread(widened(m, 36)), m.den)


def reconstruct_scaled(blocks) -> Scaled:
    """The scaled form of the tensor of ``blocks``, keyed by name as
    ``stacked`` gives them; for the blocks of a list of FBlocks, of the
    tensors stacked along a leading sample axis, over one denominator."""
    return derived(_spread, 36, _block_matrix(blocks))


def stacked(fbs):
    """The blocks of a non-empty list of FBlocks as (N, 3, 3) object arrays,
    keyed by name; the blocks themselves for one FBlocks."""
    if isinstance(fbs, FBlocks):
        return {"Ap": fbs.Ap, "B": fbs.B, "Am": fbs.Am}
    return {name: np.stack([getattr(fb, name) for fb in fbs]) for name in _BLOCKS}


def unstacked(blocks):
    """The FBlocks of each sample of (N, 3, 3) blocks keyed by name, the
    inverse of ``stacked``.  The stacks are checked once, as ``FBlocks``
    checks one sample; each FBlocks holds read-only views into the checked
    stacks, and a ``memo`` of its own."""
    n = len(blocks["B"])
    blocks = _checked(blocks, (n, 3, 3))
    fbs = []
    for i in range(n):
        fb = object.__new__(FBlocks)
        for name, m in blocks.items():
            object.__setattr__(fb, name, m[i])
        object.__setattr__(fb, "memo", {})
        fbs.append(fb)
    return fbs


def _block_matrix(b) -> Scaled:
    """The scaled form of M = [[Ap, B], [B^T, Am]] of blocks keyed by name,
    per sample of a stack."""
    m = np.empty((*b["B"].shape[:-2], 6, 6), dtype=object)
    m[..., :3, :3], m[..., :3, 3:] = b["Ap"], b["B"]
    m[..., 3:, :3], m[..., 3:, 3:] = b["B"].swapaxes(-1, -2), b["Am"]
    return scaled(m)


def _spread(n):
    """R_abcd = M_ij S^i_ab S^j_cd on M's integer numerators ``n``, with S the
    stacked (eta, etabar), as the matrix product S^T M S over pairs ab and
    cd: each entry of S^T M is a sum of 6 terms of magnitude at most max |n|,
    and each entry of R of 36.  On a stack of M, one tensor per leading
    index."""
    s = _etas().reshape(6, 16)
    return (s.T @ n @ s).reshape(n.shape[:-2] + (4, 4, 4, 4))


@functools.cache
def _etas():
    """eta stacked on etabar, (6, 4, 4) read-only int64, made on first use."""
    etas = np.concatenate([int64("ETA"), int64("ETABAR")])
    etas.flags.writeable = False
    return etas


# ---------------------------------------------------------------------------
# JSON serialization


def fblocks_to_dict(fb: FBlocks):
    return {
        "schema": SCHEMA,
        **{name: rationals_to_json(getattr(fb, name)) for name in _BLOCKS},
    }


def fblocks_from_dict(data) -> FBlocks:
    check_schema(data)
    missing = [k for k in _BLOCKS if k not in data]
    if missing:
        raise ValueError(f"missing blocks: {', '.join(missing)}")
    return FBlocks(
        **{name: rationals_from_json(data[name], (3, 3), name) for name in _BLOCKS}
    )


def fblocks_to_json(fb: FBlocks):
    return dumps(fblocks_to_dict(fb))


def fblocks_from_json(text) -> FBlocks:
    return fblocks_from_dict(json.loads(text))
