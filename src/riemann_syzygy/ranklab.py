"""Exact-rational rank analysis of invariant catalogs on random samples.

A catalog of n invariants is probed by evaluating every entry on randomly
generated curvature blocks, once over all of them, stacking the values into
a rows-by-n rational matrix M, and finding its exact rank.  The rank of
that matrix lower-bounds (and, with enough samples, equals with
overwhelming probability) the dimension of the span of the invariants as
polynomial functions; its nullspace vectors are candidate linear
identities, which are confirmed on an independently seeded batch of
samples before being reported.  ``rank_report`` draws that batch first and
evaluates it together with the samples, in one evaluation batch, even when
no null vector turns out to need it; the rows are then split into the
sample rows and the confirmation rows.

A report works on integers from the contraction to the null vectors.  Each
entry's values come out of ``expr`` as integer numerators over one
denominator d_j per column (``_numerators``): M = N diag(d)^-1 with N an
integer matrix, int64 when its entries' proven bound allows and Python ints
otherwise.  Scaling columns by nonzero numbers keeps which rows are
independent and the pivot columns, and maps a null vector w of N to the
null vector d * w (entrywise) of M; the primitive form of a null vector is
unique up to sign, so the report is that of M.  ``sample_matrix`` divides
each column of N by its denominator, for callers that need the values.

The rank is found without eliminating every row exactly.  Rows are chosen
greedily in order, keeping each row independent modulo the prime
p = 2^31 - 1 of those kept before (at most n of them); rows independent mod
p are independent over the rationals.  Exact elimination then runs on the
chosen rows only, and their null vectors are checked against every row by
one matrix product.  When all vanish, the chosen rows span the row space of
the whole matrix, so rank, pivots and null vectors are exactly those of all
rows; otherwise (p divided a minor) the whole matrix is eliminated exactly.
Rows are chosen once per report: those chosen among the first half of the
samples, for the stability check, are the ones chosen on all samples that
lie in that half (see ``_certified_basis``).

Every exact check is one matrix product on integers, on int64 when a bound
on its entries and partial sums, found from the largest entry of each
operand, is below 2^63, and on Python ints otherwise (``_exact``): the
null-vector check at ncols * max|row entry| * max|vector entry|
(``_vanishes``) and the proof of ``rref`` at max|row entry| times the
larger of the scale of the rebuilt entries and the pivot count times their
largest numerator (``_checked_form``).  On the four benchmark catalogs
(seeds 1 to 10) N fits in 26 to 39 bits, and every null-vector check and
every proof of a form has a bound of 26 to 60 bits.  Only quintic's forms
modulo the first prime alone, rebuilt as fractions with large
denominators, have bounds of 67 to 70 bits; they are refuted on Python
ints.

One kernel, ``_rref_mod``, does every elimination: Gauss-Jordan modulo a
prime on int64.  The rows chosen mod p are the pivot columns of the
transpose's form mod p.  Exact elimination (``rref``) reduces the rows
modulo one prime after another, 2^31 - 1 and 2^31 - 19 first.  After each
prime the entries of the free columns are rebuilt over the rationals, from
their residues modulo the product of the primes since the pivots last
changed (Chinese remaindering, then rational reconstruction), and one
matrix product checks that every row is the combination of the reduced
rows that its entries in the pivot columns dictate; that check proves the
result.  When an entry has no reconstruction or the check fails, the next
prime is taken (see ``rref``).  A form whose entries are within
isqrt((2^31 - 1) // 2) = 32767 is proved after the first prime.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import expr
from .catalog import CatalogEntry
from .curvature import SCHEMA, int_dtype, unscaled
from .gen import GenConfig, integer, random_fblocks_stream

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

    The rows are scaled to integers, a matrix M, and reduced modulo one
    prime after another from ``_primes`` (``_rref_mod``).  A prime whose
    pivots differ from those of the primes before it starts the count
    again; otherwise its residues of the free columns are joined to theirs
    by Chinese remaindering, modulo the product m of the agreeing primes.
    After every prime, the first too, each entry is rebuilt from its
    residue (``_rational``, with |numerator| and denominator at most
    isqrt(m // 2)) into E, and ``M[:, free] == M[:, pivots] @ E[:, free]``
    is checked exactly, scaled by the lcm of E's denominators.

    That check proves E, whatever the modulus it was rebuilt from:
    rank(M) >= r, since a minor nonzero mod p is
    nonzero, and M = M[:, pivots] E with E of r rows gives rank(M) <= r,
    so E's rows span the row space of M; E is in reduced row echelon form,
    which is unique.  A prime that divides a minor, or an entry beyond the
    reconstruction bound, can only fail the check, not pass it, and then
    the loop takes another prime.  It ends: only the finitely many primes
    dividing some minor of M give other pivots or other residues, so from
    some prime on every prime agrees with the true pivots and residues, m
    grows without bound and the bound passes every numerator and
    denominator of E.  On the benchmark catalogs (seeds 1 to 10) the
    first prime suffices for the 90 calls on quartic, quartic_basis and
    cubic_rank2, and the first two for the 30 on quintic.

    Returns (rref_rows, pivot_columns) with Fraction entries; the input is not
    modified.  ValueError when the rows differ in length.
    """
    if not len(rows):
        return [], []
    ints = _integer_matrix(rows, len(rows[0]))
    ncols = ints.shape[1]
    pivots = None
    for p in _primes():
        reduced, pivots_p = _rref_mod(ints, p)
        if pivots_p != pivots:
            pivots = pivots_p
            pivot_set = set(pivots)
            free = [c for c in range(ncols) if c not in pivot_set]
            x, modulus = reduced[:, free], p
        else:
            # int64 while modulus * p < 2^62: x < modulus and the product of
            # a residue and an inverse modulo p is below p^2
            x = x.astype(int_dtype(modulus * p))
            x = x + modulus * ((reduced[:, free] - x) % p * pow(modulus, -1, p) % p)
            modulus *= p
        form = _checked_form(ints, x, modulus, pivots, free)
        if form is not None:
            return form


def _primes():
    """The moduli of ``rref``: ``_PRIME``, ``_PRIME2``, then every prime
    below ``_PRIME2`` in descending order.  The first two are constants, so
    that the common path tests no number for primality."""
    yield _PRIME
    yield _PRIME2
    for n in range(_PRIME2 - 1, 1, -1):
        if _is_prime(n):
            yield n


def _is_prime(n):
    """Whether ``n`` is prime, by Miller-Rabin to the bases 2, 3, 5 and 7,
    which is exact for every n below 3,215,031,751."""
    if n < 2:
        return False
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << k, n) != n - 1 for k in range(s)):
            return False
    return True


def _rref_mod(ints, p):
    """Reduced row echelon form of the integer matrix ``ints`` modulo the
    prime ``p``: the nonzero rows as an int64 array, and the pivot columns.
    Elimination stops once the rows below the pivot rows are all zero.

    Each pivot row is normalised and its column eliminated from every row
    at once (the pivot row itself becomes 0 and is then put back).
    Residues lie in [0, p), so ``a - f * b`` lies in (-(p - 1)^2, p):
    int64 holds it while (p - 1)^2 + p < 2^63.
    """
    # rows contiguous also when ``ints`` is a transposed view
    m = (ints % p).astype(np.int64, order="C")
    pivots = []
    for c in range(m.shape[1]):
        r = len(pivots)
        nonzero = m[r:, c].nonzero()[0]
        if not nonzero.size:
            if not m[r:].any():
                break
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


def _checked_form(ints, x, modulus, pivots, free):
    """``rref`` of the integer matrix ``ints`` from ``x``, the residues
    modulo ``modulus`` of its free columns, proved by one exact check; None
    when an entry has no reconstruction or the check fails.

    The pivot columns of the form are the identity, and an entry left of
    its row's pivot is 0 modulo every prime, so only the free columns are
    rebuilt.
    """
    bound = math.isqrt(modulus // 2)
    entries = [[_rational(v, modulus, bound) for v in row] for row in x.tolist()]
    if any(q is None for row in entries for q in row):
        return None
    lcm = math.lcm(*(q.denominator for row in entries for q in row))
    scaled = np.array([[q.numerator * (lcm // q.denominator) for q in row]
                       for row in entries], dtype=object).reshape(x.shape)
    # each side's entries and partial sums are at most this in magnitude
    bound = _magnitude(ints) * max(lcm, len(pivots) * _magnitude(scaled))
    ints, scaled = _exact(bound, ints, scaled)
    if not (ints[:, free] * lcm == ints[:, pivots] @ scaled).all():
        return None
    ncols = ints.shape[1]
    zero, one = Fraction(0), Fraction(1)
    reduced = []
    for c, row in zip(pivots, entries):
        out = [zero] * ncols
        out[c] = one
        for f, q in zip(free, row):
            out[f] = q
        reduced.append(out)
    return reduced, pivots


def rank(rows):
    """Rank of ``rows`` over the rationals: the number of ``rref`` pivots."""
    return len(rref(rows)[1])


def _primitive(vec):
    """A nonzero integer vector divided by the gcd of its entries, first
    nonzero entry positive."""
    g = math.gcd(*vec)
    if next(v for v in vec if v) < 0:
        g = -g
    return [v // g for v in vec]


def nullspace(rows, ncols=None):
    """Primitive integer basis of the right nullspace of the row span."""
    if ncols is None:
        if not len(rows):
            raise ValueError("ncols is required for an empty matrix")
        ncols = len(rows[0])
    _check_width(rows, ncols)
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        # the null vector that is 1 at fc and 0 at the other free columns,
        # times the lcm of its denominators
        column = [row[fc] for row in reduced]
        mult = math.lcm(*(q.denominator for q in column))
        vec = [0] * ncols
        vec[fc] = mult
        for q, pc in zip(column, pivots):
            vec[pc] = -q.numerator * (mult // q.denominator)
        basis.append(_primitive(vec))
    return basis


def _integer_matrix(rows, ncols):
    """``rows`` as a len(rows) x ncols integer matrix: an int64 ndarray as
    it is, otherwise an object array of Python ints, each row times the lcm
    of its denominators (a row of ints is kept as it is).  ValueError naming
    the first row that is not ``ncols`` long."""
    _check_width(rows, ncols)
    if isinstance(rows, np.ndarray) and rows.dtype == np.int64:
        return rows
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
    ``_PRIME``, chosen greedily in order (at most one per column): the
    pivot columns of the transpose's reduced row echelon form modulo
    ``_PRIME``."""
    return _rref_mod(ints.T, _PRIME)[1]


def _magnitude(ints):
    """The largest |entry| of the integer array ``ints``, 0 when empty."""
    if not ints.size:
        return 0
    return max(int(ints.max()), -int(ints.min()))


def _exact(bound, *arrays):
    """The integer ``arrays`` in a dtype in which arithmetic whose every
    entry and intermediate is at most ``bound`` in magnitude is exact:
    int64 when ``bound`` < 2^63, Python ints otherwise."""
    dtype = np.int64 if bound < 1 << 63 else object
    return [a.astype(dtype, copy=False) for a in arrays]


def _vanishes(null, ints):
    """For each null vector, whether it is orthogonal to every row of the
    integer matrix ``ints``: one matrix product, whose partial sums are at
    most ncols * max|row entry| * max|vector entry|, on int64 when that
    bound and the entries allow and on Python ints otherwise."""
    vecs = np.array(null, dtype=object).reshape(len(null), ints.shape[1])
    x, c = _magnitude(ints), _magnitude(vecs)
    bound = max(ints.shape[1] * x * c, x, c)
    ints, vecs = _exact(bound, ints, vecs)
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
    basis = ints[kept]
    null = nullspace(basis, ncols)
    if _vanishes(null, ints).all():
        return basis, null
    return ints, nullspace(ints, ncols)


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

    The values of the matrix of numerators of ``_numerators``, each column
    over its denominator, in exact normal form."""
    nums, dens = _numerators(entries, fbs, representation)
    columns = [unscaled(nums[:, j], den) for j, den in enumerate(dens)]
    return np.stack(columns, axis=-1).tolist()


def _numerators(entries, fbs, representation=None):
    """The matrix of ``sample_matrix`` as integers N, one column per entry,
    and the column denominators d, so that the values are N[:, j] / d[j].
    N is int64 when the proven bound on its entries allows and an object
    array of Python ints otherwise.

    Each entry contributes ``entry.form(representation)``, the Poly the entry
    holds, evaluated once on all samples, in one batched context (see
    ``expr.context``).  Nothing is parsed.  ValueError for
    no entries, or entries of different free labels."""
    if not entries:
        raise ValueError("no catalog entries")
    forms = [e.form(representation) for e in entries]
    if len({p.free_labels for p in forms}) != 1:
        raise ValueError("all catalog entries must share the same free labels")
    if not fbs:
        return np.zeros((0, len(forms)), np.int64), [1] * len(forms)
    ctx = expr.context(fbs)
    columns = [expr._evaluate_scaled(p, ctx) for p in forms]
    dtype = int_dtype(max(c.bound for c in columns))
    # column per entry, row per sample and free-index assignment in C order
    nums = np.stack([c.num.astype(dtype, copy=False) for c in columns], axis=-1)
    return nums.reshape(-1, len(forms)), [c.den for c in columns]


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
    ``_numerators`` call, even when no null vector needs it.

    The confirmation batch is of ``config``'s domain, so given samples must
    be of it too, or the null vectors of their domain would be silently
    dropped: an Einstein ``config`` refuses a sample with a nonzero B, and a
    general one refuses samples that are all Einstein (ValueError).  Other
    curvature classes (Ricci-flat, conformally flat) are not told apart;
    they wait for domains as data.

    A null vector that fails confirmation is dropped without a flag, so
    ``rank + len(nullspace)`` can fall short of the column count.
    """
    if seed is None:
        raise ValueError("a seed is required (it draws the batch that "
                         "confirms each null vector)")
    integer("seed", seed)
    if n_samples is not None:
        integer("n_samples", n_samples)
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
    nums, dens = _numerators(entries, samples + confirm, representation)
    n = len(entries)
    # rows run sample by sample, so a prefix is a sample prefix
    per_sample = len(nums) // (n_samples + len(confirm))
    ints, confirm_ints = np.split(nums, [per_sample * n_samples])
    kept = _independent_rows(ints)
    basis, null = _certified_basis(ints, kept)
    pivots = rref(basis)[1]
    half = per_sample * (n_samples // 2)
    half_null = _certified_basis(ints[:half], [i for i in kept if i < half])[1]
    stable = n - len(half_null) == len(pivots)
    # a null vector w of the numerators is d * w for the values
    confirmed = [_primitive([d * c for d, c in zip(dens, vec)])
                 for vec, ok in zip(null, _vanishes(null, confirm_ints)) if ok]
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
