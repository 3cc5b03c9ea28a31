"""Exact-rational rank analysis of invariant catalogs on random samples.

A catalog of n invariants is probed by evaluating every entry on randomly
generated curvature blocks, once over all of them (see ``sample_matrix``),
stacking the values into a rows-by-n rational matrix, and finding its exact
rank.  The rank of that matrix lower-bounds (and, with enough samples,
equals with overwhelming probability) the dimension of the span of the
invariants as polynomial functions; its nullspace vectors are candidate
linear identities, which are confirmed on an independently seeded batch of
samples before being reported.  ``rank_report`` draws that batch first and
evaluates it together with the samples, in one ``sample_matrix`` call, even
when no null vector turns out to need it; the rows are then split into the
sample rows and the confirmation rows.

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
eliminated exactly.  Rows are chosen once per report: those chosen among
the first half of the samples, for the stability check, are the ones chosen
on all samples that lie in that half (see ``_certified_basis``).

Exact elimination (``rref``) scales each row to integers and finds the
reduced row echelon form modulo two primes on int64.  When both give the
same pivots, the entries of the free columns are rebuilt over the rationals
(Chinese remaindering, then rational reconstruction), and one matrix product
on Python ints checks that every row is the combination of the reduced rows
that its entries in the pivot columns dictate; that check proves the
result (see ``rref``).  When the pivots differ, an entry has no
reconstruction or the check fails, the rows are reduced by fraction-free
Gauss-Jordan elimination (Bareiss) instead.
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

# the Mersenne prime 2^31 - 1, modulus of the row selection and first modulus
# of ``rref``: residues are below it, so a product of two is at most
# (p - 1)^2 < 2^62 and fits int64
_PRIME = (1 << 31) - 1
# the largest prime below _PRIME, second modulus of ``rref``: the product of
# the two is below 2^62, so a residue modulo it also fits int64
_PRIME2 = (1 << 31) - 19


def _check_width(rows, ncols):
    """ValueError naming the first of ``rows`` that is not ``ncols`` long."""
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError(f"row {i} has {len(row)} entries, expected {ncols}")


def rref(rows):
    """Reduced row echelon form over the rationals.

    The rows are scaled to integers, a matrix M, and reduced modulo
    ``_PRIME`` and ``_PRIME2`` (``_rref_mod``).  When both give the same r
    pivots, each entry of the free columns is rebuilt from its two residues
    (``_rational``) into E, and ``M[:, free] == M[:, pivots] @ E[:, free]``
    is checked on Python ints, scaled by the lcm of E's denominators.  That
    check proves E: rank(M) >= r, since a minor nonzero mod p is nonzero,
    and M = M[:, pivots] E with E of r rows gives rank(M) <= r, so E's rows
    span the row space of M; E is in reduced row echelon form, which is
    unique.  A prime that divides a minor, or an entry beyond the
    reconstruction bound, can only fail the check, not pass it.  Otherwise
    the rows are reduced by ``_bareiss``.

    Returns (rref_rows, pivot_columns) with Fraction entries; the input is not
    modified.  ValueError when the rows differ in length.
    """
    if not len(rows):
        return [], []
    ints = _integer_matrix(rows, len(rows[0]))
    return _modular_rref(ints) or _bareiss(ints.tolist())


def _rref_mod(ints, p):
    """Reduced row echelon form of the integer matrix ``ints`` modulo the
    prime ``p``: the nonzero rows as an int64 array, and the pivot columns.

    Each pivot row is normalised and its column eliminated from every row
    at once (the pivot row itself becomes 0 and is then put back), exact in
    int64 by the bound of ``_independent_rows``.
    """
    m = (ints % p).astype(np.int64)
    pivots = []
    for c in range(m.shape[1]):
        r = len(pivots)
        if r == len(m):
            break
        nonzero = m[r:, c].nonzero()[0]
        if not nonzero.size:
            continue
        i = r + nonzero[0]
        if i != r:
            m[[r, i]] = m[[i, r]]
        row = m[r] * pow(int(m[r, c]), -1, p) % p
        m -= m[:, c, None] * row
        m[r] = row
        m %= p
        pivots.append(c)
    return m[:len(pivots)], pivots


def _rational(x, modulus, bound):
    """The Fraction n/d with n = d * x (mod ``modulus``), |n| <= ``bound``
    and 0 < d <= ``bound``, or None when there is none.

    Rational reconstruction: the extended Euclidean algorithm on
    (modulus, x), stopped at the first remainder not above the bound; each
    remainder is its cofactor times x modulo ``modulus``.  With
    2 * bound^2 < modulus the fraction is unique.
    """
    r0, r1, t0, t1 = modulus, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _modular_rref(ints):
    """``rref`` of the integer matrix ``ints`` from its forms modulo
    ``_PRIME`` and ``_PRIME2``, proved by one exact check; None when the
    pivots differ, an entry has no reconstruction or the check fails.

    The pivot columns of the form are the identity, and an entry left of
    its row's pivot is 0 modulo both primes, so only the free columns are
    rebuilt.  The residues a1 and a2 combine in int64 as
    x = a1 + p1 * ((a2 - a1) * p1^-1 mod p2) < p1 * p2 < 2^62.
    """
    p1, p2 = _PRIME, _PRIME2
    e1, pivots = _rref_mod(ints, p1)
    e2, pivots2 = _rref_mod(ints, p2)
    if pivots != pivots2:
        return None
    ncols = ints.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    a1, a2 = e1[:, free], e2[:, free]
    x = a1 + p1 * ((a2 - a1) % p2 * pow(p1, -1, p2) % p2)
    modulus = p1 * p2
    bound = math.isqrt(modulus // 2)
    entries = [[_rational(v, modulus, bound) for v in row] for row in x.tolist()]
    if any(q is None for row in entries for q in row):
        return None
    lcm = math.lcm(*(q.denominator for row in entries for q in row))
    scaled = np.array([[q.numerator * (lcm // q.denominator) for q in row]
                       for row in entries], dtype=object).reshape(x.shape)
    if not (ints[:, free] * lcm == ints[:, pivots] @ scaled).all():
        return None
    zero, one = Fraction(0), Fraction(1)
    reduced = []
    for c, row in zip(pivots, entries):
        out = [zero] * ncols
        out[c] = one
        for f, q in zip(free, row):
            out[f] = q
        reduced.append(out)
    return reduced, pivots


def _bareiss(m):
    """``rref`` of the integer rows ``m`` (a list of lists, reduced in place)
    by fraction-free Gauss-Jordan elimination (Bareiss 1968).

    Each update ``(p * row - row[c] * pivot_row) // prev``, with ``p`` the
    new pivot and ``prev`` the one before it, divides exactly (by
    Sylvester's identity every entry is a minor of the matrix).  At the end
    every pivot equals the last one, ``d``, and an entry ``a`` of the form is
    ``Fraction(a, d)``.
    """
    ncols = len(m[0])
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


def _certified_basis(ints, kept):
    """Rows spanning the row space of the integer matrix ``ints``, and its
    nullspace, from ``kept``, the rows ``_independent_rows`` chooses on it.

    The null vectors of the kept rows are checked against every row in one
    exact matrix product; if one fails to vanish, the nullspace of all rows
    is computed instead.

    ``_independent_rows`` keeps a row only if it is independent of the rows
    kept before it, so on the first h rows of a matrix it keeps exactly the
    rows below h that it keeps on the whole matrix; when selection stops at
    one row per column, no row after the last kept one is independent of
    the kept rows.  So the kept rows of a row prefix are taken from those of
    the whole matrix, and rows are selected once per matrix.
    """
    ncols = ints.shape[1]
    basis = ints[kept].tolist()
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
    batch drawn from ``seed ^ CONFIRM_SEED_XOR`` before inclusion, so a seed
    is required even when the samples are given.  The confirmation batch is
    drawn first and evaluated together with the samples, in one
    ``sample_matrix`` call, even when no null vector needs it.

    The confirmation batch is of ``config``'s domain, so given samples must
    be of it too, or the null vectors of their domain would be silently
    dropped: an Einstein ``config`` refuses a sample with a nonzero B, and a
    general one refuses samples that are all Einstein (ValueError).  Other
    curvature classes (Ricci-flat, conformally flat) are not told apart;
    they wait for domains as data.
    """
    if seed is None:
        raise ValueError("a seed is required (it draws the batch that "
                         "confirms each null vector)")
    labels = [e.label for e in entries]
    given = samples is not None
    if not given:
        if n_samples is None:
            n_samples = 2 * len(entries) + 8
        samples = random_fblocks_stream(seed, n_samples, config)
    elif n_samples is not None and len(samples) < n_samples:
        raise ValueError(f"{len(samples)} samples given but {n_samples} are needed")
    samples = list(samples[:n_samples])
    n_samples = len(samples)
    if n_samples < 2:
        # with one sample the half set is the full set: stability is vacuous
        raise ValueError(f"rank analysis needs at least 2 samples, got {n_samples}")
    if given:
        _check_domain(samples, config)
    confirm = random_fblocks_stream(
        seed ^ CONFIRM_SEED_XOR, max(8, len(entries) // 2), config)
    rows = sample_matrix(entries, samples + confirm, representation)
    n = len(entries)
    ints = _integer_matrix(rows, n)
    # sample_matrix emits rows sample by sample, so a prefix is a sample prefix
    per_sample = len(rows) // (n_samples + len(confirm))
    ints, confirm_ints = np.split(ints, [per_sample * n_samples])
    kept = _independent_rows(ints)
    basis, null = _certified_basis(ints, kept)
    pivots = rref(basis)[1]
    half = per_sample * (n_samples // 2)
    half_null = _certified_basis(ints[:half], [i for i in kept if i < half])[1]
    stable = n - len(half_null) == len(pivots)
    confirmed = [vec for vec, ok in zip(null, _vanishes(null, confirm_ints)) if ok]
    return RankReport(
        catalog=catalog_name,
        labels=labels,
        n_samples=n_samples,
        n_rows=len(ints),
        rank=len(pivots),
        pivots=[labels[c] for c in pivots],
        nullspace=confirmed,
        stable=stable,
        seed=seed,
        config=asdict(config),
    )


def _check_domain(samples, config):
    """ValueError unless the given ``samples`` are of ``config``'s domain,
    the domain of the batch that confirms their null vectors."""
    if config.einstein:
        i = next((i for i, fb in enumerate(samples) if not fb.is_einstein()), None)
        if i is not None:
            raise ValueError(f"config is Einstein but sample {i} has a nonzero "
                             "mixed block B")
    elif all(fb.is_einstein() for fb in samples):
        raise ValueError("every given sample is Einstein (B = 0) but config is "
                         "general, so their null vectors would be confirmed on "
                         "general samples; pass GenConfig(einstein=True)")


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
