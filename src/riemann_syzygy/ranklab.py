"""Exact-rational rank analysis of invariant catalogs on random samples.

A catalog of n invariants is probed by evaluating every entry on randomly
generated curvature blocks, once over all of them (see ``sample_matrix``),
stacking the values into a rows-by-n rational matrix, and finding its exact
rank.  The rank of that matrix lower-bounds (and, with enough samples,
equals with overwhelming probability) the dimension of the span of the
invariants as polynomial functions; its nullspace vectors are candidate
linear identities, which are confirmed on an independently seeded batch of
samples before being reported.

The rank is found without eliminating every row exactly.  Each row is
scaled to integers, which does not change which rows are independent, and
the rows are reduced modulo the prime p = 2^31 - 1 into one int64 array, on
which rows are chosen greedily in order, keeping each row independent of
those kept before (at most n of them); rows independent mod p are
independent over the rationals.  Exact elimination then runs on the chosen
rows only, and their null vectors are checked against every row by one
matrix product on Python ints.  When all vanish, the chosen rows span the
row space of the whole matrix, so rank, pivots and null vectors are exactly
those of all rows; otherwise (p divided a minor) the whole matrix is
eliminated exactly.

Exact elimination (``rref``) is fraction-free: each row is scaled to integers
and reduced with exact integer divisions (Bareiss), and the reduced form
becomes Fractions only at the end, one division per entry.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import expr
from .catalog import CatalogEntry
from .curvature import SCHEMA
from .gen import GenConfig, random_fblocks_stream

__all__ = [
    "RankReport",
    "rref",
    "rank",
    "nullspace",
    "sample_matrix",
    "rank_report",
    "express_over",
    "CONFIRM_SEED_XOR",
]

# xor-mask used to derive an independent confirmation seed from a user seed
CONFIRM_SEED_XOR = 0x9E3779B9

# the Mersenne prime 2^31 - 1, modulus of the row selection: residues are
# below it, so a product of two is at most (p - 1)^2 < 2^62 and fits int64
_PRIME = (1 << 31) - 1


def _check_width(rows, ncols):
    """ValueError naming the first of ``rows`` that is not ``ncols`` long."""
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError(f"row {i} has {len(row)} entries, expected {ncols}")


def rref(rows):
    """Reduced row echelon form over the rationals.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968) on the rows scaled
    to integers: each update ``(p * row - row[c] * pivot_row) // prev``, with
    ``p`` the new pivot and ``prev`` the one before it, divides exactly (by
    Sylvester's identity every entry is a minor of the scaled matrix).  At
    the end every pivot equals the last one, ``d``, and an entry ``a`` of the
    form is ``Fraction(a, d)``.

    Returns (rref_rows, pivot_columns) with Fraction entries; the input is not
    modified.  ValueError when the rows differ in length.
    """
    if not len(rows):
        return [], []
    ncols = len(rows[0])
    m = _integer_matrix(rows, ncols).tolist()
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            if i == r:
                continue
            f = row[c]
            if f:
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
            elif p != prev:
                m[i] = [p * a // prev for a in row]
        prev = p
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [[Fraction(a, prev) for a in row] for row in m[:r]], pivots


def rank(rows):
    return len(rref(rows)[1])


def _primitive(vec):
    """Scale a rational vector to coprime integers, first nonzero positive."""
    denoms = [v.denominator for v in vec if v != 0]
    if not denoms:
        return [0] * len(vec)
    mult = math.lcm(*denoms)
    ints = [int(v * mult) for v in vec]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return ints


def nullspace(rows, ncols=None):
    """Primitive integer basis of the right nullspace of the row span."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols is required for an empty matrix")
        ncols = len(rows[0])
    _check_width(rows, ncols)
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        basis.append(_primitive(vec))
    return basis


def _integer_matrix(rows, ncols):
    """``rows`` as a len(rows) x ncols object array of Python ints, each row
    times the lcm of its denominators (a row of ints is kept as it is).
    ValueError naming the first row that is not ``ncols`` long."""
    _check_width(rows, ncols)
    m = np.array(rows, dtype=object).reshape(len(rows), ncols)
    if set(map(type, m.flat)) <= {int}:
        return m
    for i, row in enumerate(m):
        q = [Fraction(x) for x in row]
        mult = math.lcm(*(x.denominator for x in q))
        m[i] = [x.numerator * (mult // x.denominator) for x in q]
    return m


def _independent_rows(ints):
    """Indices of rows of the integer matrix ``ints`` independent modulo
    ``_PRIME``, chosen greedily in order; selection stops once one row per
    column is kept.

    Each kept row is normalised at its first nonzero column, and that column
    is eliminated from all later rows at once.  Residues lie in [0, p), so
    ``a - f * b`` lies in (-(p - 1)^2, p): int64 holds it while
    (p - 1)^2 + p < 2^63.
    """
    p = _PRIME
    m = (ints % p).astype(np.int64)
    kept = []
    i = 0
    while len(kept) < m.shape[1]:
        nonzero = np.flatnonzero(m[i:].any(axis=1))
        if not nonzero.size:
            break
        i += int(nonzero[0])
        row = m[i]
        c = np.flatnonzero(row)[0]
        row = row * pow(int(row[c]), -1, p) % p
        rest = m[i + 1:]
        rest -= rest[:, c, None] * row
        rest %= p
        kept.append(i)
        i += 1
    return kept


def _vanishes(null, ints):
    """For each null vector, whether it is orthogonal to every row of the
    integer matrix ``ints``: one matrix product on Python ints, exact at any
    magnitude."""
    vecs = np.array(null, dtype=object).reshape(len(null), ints.shape[1])
    return ~(ints @ vecs.T != 0).any(axis=0)


def _certified_basis(ints):
    """Rows spanning the row space of the integer matrix ``ints``, and its
    nullspace.

    The null vectors of the rows chosen by ``_independent_rows`` are checked
    against every row in one exact matrix product; if one fails to vanish,
    the nullspace of all rows is computed instead.
    """
    ncols = ints.shape[1]
    basis = ints[_independent_rows(ints)].tolist()
    null = nullspace(basis, ncols)
    if _vanishes(null, ints).all():
        return basis, null
    rows = ints.tolist()
    return rows, nullspace(rows, ncols)


@dataclass
class RankReport:
    """Exact rank analysis of a catalog over random samples."""

    catalog: str
    labels: list
    n_samples: int
    n_rows: int
    rank: int
    pivots: list  # labels of pivot columns
    nullspace: list  # primitive integer vectors over the labels
    stable: bool  # same rank already at half the samples
    seed: int
    config: dict = field(default_factory=dict)

    def to_dict(self):
        return {"schema": SCHEMA, **asdict(self)}


def sample_matrix(entries, fbs, representation=None):
    """Rows of exact values: one row per sample for scalar entries, or one
    row per sample and free-index assignment for tensor-valued entries,
    sample by sample and then assignment by assignment in C order.

    Each entry contributes ``entry.form(representation)``, the Poly the entry
    holds, evaluated once on all samples, in the batched context of its
    language (see ``expr.contexts``).  Nothing is parsed."""
    forms = [e.form(representation) for e in entries]
    if len({p.free_labels for p in forms}) != 1:
        raise ValueError("all catalog entries must share the same free labels")
    if not fbs:
        return []
    contexts = expr.contexts(fbs)
    columns = [expr.evaluate(p, contexts[p.language]) for p in forms]
    # column per entry, row per sample and free-index assignment in C order
    return np.stack(columns, axis=-1).reshape(-1, len(forms)).tolist()


def rank_report(
    entries,
    seed,
    n_samples=None,
    config=GenConfig(),
    representation=None,
    catalog_name="",
    samples=None,
):
    """Sample, rank, and extract confirmed nullspace vectors.

    The rows come from ``n_samples`` blocks drawn from ``seed``, or from the
    first ``n_samples`` of the given ``samples`` (all of them by default).
    Rank stability is reported by comparing against the rank reached with the
    first half of the samples; nullspace vectors are confirmed on a fresh
    batch drawn from ``seed ^ CONFIRM_SEED_XOR`` before inclusion.
    """
    labels = [e.label for e in entries]
    if samples is None:
        if n_samples is None:
            n_samples = 2 * len(entries) + 8
        samples = random_fblocks_stream(seed, n_samples, config)
    elif n_samples is not None and len(samples) < n_samples:
        raise ValueError(f"{len(samples)} samples given but {n_samples} are needed")
    samples = samples[:n_samples]
    n_samples = len(samples)
    if n_samples < 2:
        # with one sample the half set is the full set: stability is vacuous
        raise ValueError(f"rank analysis needs at least 2 samples, got {n_samples}")
    rows = sample_matrix(entries, samples, representation)
    n = len(entries)
    ints = _integer_matrix(rows, n)
    basis, null = _certified_basis(ints)
    pivots = rref(basis)[1]
    # sample_matrix emits rows sample by sample, so a prefix is a sample prefix
    half = ints[: len(rows) // n_samples * (n_samples // 2)]
    stable = n - len(_certified_basis(half)[1]) == len(pivots)
    confirmed = []
    if null:
        confirm_fbs = random_fblocks_stream(
            seed ^ CONFIRM_SEED_XOR, max(8, len(entries) // 2), config
        )
        confirm = _integer_matrix(
            sample_matrix(entries, confirm_fbs, representation), n)
        confirmed = [vec for vec, ok in zip(null, _vanishes(null, confirm)) if ok]
    return RankReport(
        catalog=catalog_name,
        labels=labels,
        n_samples=n_samples,
        n_rows=len(rows),
        rank=len(pivots),
        pivots=[labels[c] for c in pivots],
        nullspace=confirmed,
        stable=stable,
        seed=seed,
        config=asdict(config),
    )


def express_over(target, entries, seed, n_samples=None, config=GenConfig()):
    """Exact coordinates of an expression over a catalog, or None.

    The target joins the catalog as one more column of ``rank_report``; it
    lies in the span exactly when a confirmed null vector ``v`` has a nonzero
    last coefficient, and then ``target = sum_i -v[i]/v[-1] * entry_i`` (the
    solution with every other free variable set to zero).  Returns the
    Fraction coefficient list, or None if the target is not in the span.
    A target whose symbols fit no single language raises ``ExprError`` (a
    ValueError) before anything is evaluated.
    """
    target = expr.of_language(target)
    column = CatalogEntry(label="target", **{target.language: target})
    report = rank_report(list(entries) + [column], seed, n_samples, config)
    vec = next((v for v in report.nullspace if v[-1]), None)
    if vec is None:
        return None
    return [Fraction(-c, vec[-1]) for c in vec[:-1]]
