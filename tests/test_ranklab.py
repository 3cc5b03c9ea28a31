"""Exact linear algebra and randomized rank analysis."""

import hashlib
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from riemann_syzygy import catalog, expr, ranklab
from riemann_syzygy.curvature import dumps
from riemann_syzygy.decomp import FBlocks, fblocks_from_json, fblocks_to_json
from riemann_syzygy.gen import GenConfig, random_fblocks_stream
from riemann_syzygy.ranklab import (
    express_over,
    nullspace,
    rank,
    rank_report,
    rref,
    sample_matrix,
)


def test_rref_small():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert reduced == [
        [Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    assert rank(rows) == 2


def test_rref_does_not_mutate_input():
    rows = [[1, 2], [3, 4]]
    rref(rows)
    assert rows == [[1, 2], [3, 4]]


def test_nullspace_primitive_integer():
    # x + 2y + 3z = 0, y + z = 0  ->  null (1, -1, ... ) scaled primitive
    rows = [[1, 2, 3], [0, 1, 1]]
    basis = nullspace(rows)
    assert len(basis) == 1
    vec = basis[0]
    assert all(isinstance(v, int) for v in vec)
    assert vec == [1, 1, -1]  # first nonzero positive, coprime
    # check it is actually in the kernel
    for row in rows:
        assert sum(r * v for r, v in zip(row, vec)) == 0


def test_nullspace_full_rank_empty():
    assert nullspace([[1, 0], [0, 1]]) == []
    with pytest.raises(ValueError):
        nullspace([])


@pytest.mark.parametrize("call, message", [
    (lambda: rref([[1, 2], [3, 4, 5]]), "row 1 has 3 entries, expected 2"),
    (lambda: rref([[1, 2], [3]]), "row 1 has 1 entries, expected 2"),
    (lambda: nullspace([[1, 2], [3, 4, 5]]), "row 1 has 3 entries, expected 2"),
    (lambda: nullspace([[1, 2, 3], [3, 4]], 3), "row 1 has 2 entries, expected 3"),
    (lambda: nullspace([[1, 2], [3, 4]], 3), "row 0 has 2 entries, expected 3"),
    (lambda: ranklab._integer_matrix([[1, 2, 3], [0, 0, 0], [4, 5, 6, 7]], 3),
     "row 2 has 4 entries, expected 3"),
    (lambda: ranklab._integer_matrix([[1, Fraction(1, 2), 0], [Fraction(1, 3)]], 3),
     "row 1 has 1 entries, expected 3"),
    (lambda: ranklab._integer_matrix([[1, 2], [3, 4]], 3),
     "row 0 has 2 entries, expected 3"),
], ids=["rref-long", "rref-short", "nullspace-long", "nullspace-short",
        "nullspace-ncols", "certified-long", "certified-short", "certified-ncols"])
def test_ragged_rows_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def _reference_rref(rows):
    """Gauss-Jordan elimination on Fraction entries, row by row."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def test_sample_matrix_shapes(samples):
    entries = catalog.catalog("quadratic")
    rows = sample_matrix(entries, samples[:3])
    assert len(rows) == 3 and len(rows[0]) == 5
    rank2 = catalog.catalog("cubic_rank2")
    rows2 = sample_matrix(rank2, samples[:2])
    assert len(rows2) == 2 * 16  # one row per free-index assignment


def _looped_sample_matrix(entries, fbs):
    """The rows of ``sample_matrix`` made one sample and one entry at a time:
    the reference for its evaluation over a batch."""
    forms = [e.form() for e in entries]
    rows = []
    for fb in fbs:
        ctx = catalog.contexts_for(fb)
        vals = np.array([expr.evaluate(p, ctx[p.language]) for p in forms],
                        dtype=object)
        # column per entry, row per free-index assignment in C order
        rows.extend(vals.reshape(len(forms), -1).T.tolist())
    return rows


def _rational(fb, k):
    """``fb`` over denominators that differ per block and per sample, read
    back from JSON as an imported sample is."""
    return fblocks_from_json(fblocks_to_json(FBlocks(
        Ap=fb.Ap * Fraction(3, k + 4), B=fb.B * Fraction(1, 5),
        Am=fb.Am * Fraction(3, k + 4))))


def test_sample_matrix_equals_per_sample_loop():
    general = random_fblocks_stream(8, 5)
    batches = {
        "general": general,
        "einstein": random_fblocks_stream(8, 5, GenConfig(einstein=True)),
        "rational": [_rational(fb, k) for k, fb in enumerate(general)],
    }
    assert any(type(x) is Fraction for x in batches["rational"][1].Ap.flat)
    for name in catalog.catalog_names():
        entries = catalog.catalog(name)
        for kind, fbs in batches.items():
            got = sample_matrix(entries, fbs)
            want = _looped_sample_matrix(entries, fbs)
            assert [[(type(x), x) for x in row] for row in got] == \
                [[(type(x), x) for x in row] for row in want], (name, kind)
    assert sample_matrix(catalog.catalog("cubic"), []) == []


def test_quadratic_rank_and_null():
    rep = rank_report(catalog.catalog("quadratic"), seed=12345,
                      catalog_name="quadratic")
    assert rep.rank == 4
    assert rep.stable
    assert len(rep.nullspace) == 1
    # the alternating combination: K - 4 Rc2 + R2 - 1/4 epseps, scaled
    assert rep.nullspace[0] == [4, -16, 4, -1, 0]
    d = rep.to_dict()
    assert d["schema"] == "riemann-syzygy/1"
    assert d["pivots"][0] == "R2"


def test_cubic_rank_six():
    rep = rank_report(catalog.catalog("cubic"), seed=12345,
                      catalog_name="cubic")
    assert rep.rank == 6
    assert len(rep.nullspace) == 2


def test_rank_respects_einstein_domain():
    rep = rank_report(catalog.catalog("cubic"), seed=12345,
                      config=GenConfig(einstein=True), catalog_name="cubic")
    # on the einstein domain more relations appear, so the rank drops
    assert rep.rank < 6


def test_express_over_finds_combination():
    entries = catalog.catalog("quadratic")
    # epseps = 4*R2 - 16*Rc2 + 4*K  (alternating quadratic identity)
    coeffs = express_over(entries[3].tensor, entries[:3], seed=99)
    assert coeffs == [Fraction(4), Fraction(-16), Fraction(4)]
    # the same invariant as a block trace word (matrix language)
    assert express_over(entries[3].matrix, entries[:3], seed=99) == coeffs
    # a tensor-valued target: cubic rank-2 entry A over B..P, the solution
    # with every free coefficient zero
    rank2 = catalog.catalog("cubic_rank2")
    coeffs = express_over(rank2[0].tensor, rank2[1:], seed=99)
    assert coeffs == [4, 4, -8, 0, 0, -8, 0, -1, 4, 0, 0, 0, 0, 0, 0]
    for row in sample_matrix(rank2, random_fblocks_stream(7, 2)):
        assert row[0] == sum(c * x for c, x in zip(coeffs, row[1:]))


def test_express_over_reads_the_language(monkeypatch):
    """The target's column is in the language its symbols give, with no
    evaluation before rank_report; a target of no language is refused."""
    seen = []

    def fake_report(entries, seed, n_samples, config):
        seen.append(entries[-1])
        return mock.Mock(nullspace=[])

    monkeypatch.setattr(ranklab, "rank_report", fake_report)
    monkeypatch.setattr(expr, "evaluate", mock.Mock(side_effect=AssertionError))
    entries = catalog.catalog("quadratic")
    for target, language in (("Sc*Sc", "tensor"), ("R*R", "matrix")):
        assert express_over(target, entries, seed=99) is None
        assert seen[-1].representations() == {language: expr.parse(target)}
    with pytest.raises(ValueError, match="^expected symbols of one language, got "
                       r"R of rank 0 \(matrix\), Sc of rank 0 \(tensor\)$"):
        express_over("R*R - Sc*Sc", entries, seed=99)
    assert len(seen) == 2


def test_express_over_rejects_outside_span():
    entries = catalog.catalog("quadratic")
    # a cubic scalar is not a linear combination of quadratic scalars
    assert express_over("Sc*Sc*Sc", entries, seed=99) is None


def test_rank_report_given_samples_match_seeded():
    entries = catalog.catalog("cubic")
    seeded = rank_report(entries, seed=5, n_samples=20, catalog_name="cubic")
    given = rank_report(entries, seed=5, catalog_name="cubic",
                        samples=random_fblocks_stream(5, 20))
    assert given.to_dict() == seeded.to_dict()


def test_rank_report_parses_nothing(monkeypatch):
    """Catalog entries hold their forms as Polys, so a report parses none."""
    def parse(text):
        raise AssertionError(f"parsed {text!r}")

    monkeypatch.setattr(expr, "parse", parse)
    entries = catalog.catalog("quartic")
    for representation in (None, "matrix"):
        report = rank_report(entries, seed=1, representation=representation)
        assert report.rank == 13 and report.nullspace


def test_rank_report_rejects_too_few_samples():
    entries = catalog.catalog("quadratic")
    # one sample makes the half-sample stability check vacuous
    with pytest.raises(ValueError, match="at least 2"):
        rank_report(entries, seed=1, n_samples=1)
    with pytest.raises(ValueError, match="at least 2"):
        rank_report(entries, seed=1, samples=random_fblocks_stream(1, 1))
    with pytest.raises(ValueError, match="3 samples given but 4"):
        rank_report(entries, seed=1, n_samples=4,
                    samples=random_fblocks_stream(1, 3))


def test_rank_report_needs_a_seed():
    # a None seed would draw from the operating system: no report repeats
    with pytest.raises(ValueError, match="seed is required"):
        rank_report(catalog.catalog("quadratic"), seed=None)
    # given samples still need the seed of the confirmation batch
    with pytest.raises(ValueError, match="seed is required"):
        rank_report(catalog.catalog("quadratic"), seed=None,
                    samples=random_fblocks_stream(1, 20))


def test_confirmation_seed_differs():
    assert ranklab.CONFIRM_SEED_XOR != 0


_ENTRY = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def _planted_matrix(draw):
    """Rows spanned by a few generators: combinations, zero rows, repeats."""
    ncols = draw(st.integers(1, 6))
    gens = draw(st.lists(st.lists(_ENTRY, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=4))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["combo", "zero", "repeat"]),
                              min_size=1, max_size=10)):
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(gens),
                                   max_size=len(gens)))
            rows.append([sum(c * g[j] for c, g in zip(coeffs, gens))
                         for j in range(ncols)])
    return rows


_BIG = 2**80 + 7


# the default prime, and 3, which often loses rank and forces the fallback
@pytest.mark.parametrize("prime", [ranklab._PRIME, 3])
@settings(max_examples=60, deadline=None)
@given(rows=_planted_matrix())
@example(rows=[[0, 0, 0]])
@example(rows=[[0, 0], [0, 0], [0, 0]])
@example(rows=[[0, 0, 0], [1, 2, 0], [0, 0, 0], [2, 4, 0]])
# entries beyond 2**63, the second row -_BIG times the first
@example(rows=[[_BIG, 1, 0], [-(_BIG**2), -_BIG, 0], [2**64 + 3, 0, _BIG]])
# denominators that are multiples of the patched prime 3
@example(rows=[[Fraction(1, 3), 1, 0], [1, 3, 0], [Fraction(2, 9), Fraction(1, 6), 1]])
@example(rows=[[1, Fraction(1, 2), 0]])
@example(rows=[[1, 2, 3], [1, 2, 3], [0, 0, 0]])
@example(rows=[[2, 4], [1, 2], [Fraction(1, 3), Fraction(2, 3)], [0, 1]])
def test_certified_basis_matches_full_elimination(prime, rows):
    ncols = len(rows[0])
    ints = ranklab._integer_matrix(rows, ncols)
    with mock.patch.object(ranklab, "_PRIME", prime):
        kept = ranklab._independent_rows(ints)
        basis, null = ranklab._certified_basis(ints, kept)
        # the rows kept on a prefix are those kept on all rows within it
        prefix_nulls = [ranklab._certified_basis(ints[:k], [i for i in kept if i < k])[1]
                        for k in range(1, len(rows) + 1)]
    assert all(row in ints.tolist() for row in basis)
    assert null == nullspace(rows, ncols)
    assert ncols - len(null) == rank(rows)
    assert rref(basis)[1] == rref(rows)[1]
    for k, prefix_null in enumerate(prefix_nulls, 1):
        assert ncols - len(prefix_null) == rank(rows[:k])


def _reference_independent_rows(rows, p):
    """Indices of the rows independent mod p, chosen greedily in order, one
    row at a time on Python ints."""
    kept, echelon = [], []
    for i, row in enumerate(rows):
        if len(kept) == len(row):
            break
        v = [x % p for x in row]
        for c, prow in echelon:
            f = v[c]
            v = [(a - f * b) % p for a, b in zip(v, prow)]
        c = next((j for j, a in enumerate(v) if a), None)
        if c is not None:
            inv = pow(v[c], -1, p)
            echelon.append((c, [a * inv % p for a in v]))
            kept.append(i)
    return kept


_P = ranklab._PRIME
# integers of residue 0, 1 and p - 1: a pivot row normalised at a residue
# p - 1 holds entries p - 1, so eliminating p - 1 multiplies (p - 1)^2
_RESIDUE = st.sampled_from([0, 1, _P + 1, -1, _P - 1, 2 * _P - 1, -(_P + 1),
                            2**64 * _P - 1])


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(_RESIDUE, min_size=n, max_size=n), min_size=1, max_size=12)))
@example(rows=[[_P - 1] * 4, [-1] * 4, [2**64 * _P - 1] * 4])
@example(rows=[[1 if i == j else -1 for j in range(5)] for i in range(6)])
@example(rows=[[-1, 1, 0], [1, -1, -1], [0, 0, -1], [-1, -1, _P - 1]])
def test_independent_rows_match_python_greedy(rows):
    ints = ranklab._integer_matrix(rows, len(rows[0]))
    assert ranklab._independent_rows(ints) == _reference_independent_rows(rows, _P)


def _is_prime(n):
    # trial division, short for n < 2**32: sqrt(n) < 2**16
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_prime_keeps_int64_products_exact():
    p, q = ranklab._PRIME, ranklab._PRIME2
    # residues lie in [0, p), so a - f * b lies in (-(p - 1)^2, p)
    assert (p - 1) ** 2 + p < 2**63
    assert _is_prime(p)
    # the largest prime below p; a residue modulo p * q fits int64
    assert q < p and _is_prime(q)
    assert not any(_is_prime(n) for n in range(q + 1, p))
    assert p * q < 2**62
    # Miller-Rabin to the bases 2, 3, 5, 7 is exact below 3,215,031,751
    for n in [*range(2, 10**4 + 1), *range(2**31 - 200, 2**31)]:
        assert ranklab._is_prime(n) == _is_prime(n), n
    below = [n for n in range(q - 1, q - 400, -1) if _is_prime(n)]
    assert list(itertools.islice(ranklab._primes(), 2 + len(below))) == [p, q, *below]


def test_vanishes_is_exact_per_vector():
    ints = ranklab._integer_matrix(
        [[1, 1, 0], [Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)],
         [2**70, 2**70, 0]], 3)
    null = [[1, -1, 0], [0, 0, 1], [1, -1, 2**80]]
    assert ranklab._vanishes(null, ints).tolist() == [True, False, False]
    assert ranklab._vanishes([], ints).tolist() == []
    assert ranklab._vanishes(null, ranklab._integer_matrix([], 3)).tolist() == [True] * 3


# no shrinking: a failure reports its example at once
@settings(max_examples=100, deadline=None,
          phases=[Phase.explicit, Phase.generate])
@given(rows=_planted_matrix(), scale=st.sampled_from([1, -1, _BIG]))
@example(rows=[], scale=1)
@example(rows=[[0, 0, 0], [0, 0, 0]], scale=1)
@example(rows=[[3], [-2], [0]], scale=1)
@example(rows=[[-2, 1, 0], [0, -3, 1], [-1, 0, -5]], scale=-1)
@example(rows=[[Fraction(1, 3), Fraction(2, 7), 1], [Fraction(2, 7), 0, Fraction(1, 3)]],
         scale=1)
@example(rows=[[_BIG, -(_BIG**2), 3], [_BIG + 1, 5, -(_BIG**3)],
               [1, _BIG, Fraction(1, _BIG)]], scale=1)
@example(rows=[[1, 2], [3, 4], [5, 6], [7, 9], [0, 0]], scale=1)
@example(rows=[[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 1], [1, 2, 4, 5]], scale=_BIG)
def test_rref_equals_fraction_reference(rows, scale):
    # the first column times ``scale``: entries and minors beyond 2**80
    rows = [[row[0] * scale, *row[1:]] for row in rows]
    ncols = len(rows[0]) if rows else 3
    before = [list(row) for row in rows]
    reduced, pivots = rref(rows)
    assert (reduced, pivots) == _reference_rref(rows)
    assert all(type(x) is Fraction for row in reduced for x in row)
    with mock.patch.object(ranklab, "rref", _reference_rref):
        want = nullspace(rows, ncols)
    assert nullspace(rows, ncols) == want
    assert rows == before


def _rref_route(rows):
    """``rref(rows)``, the number of primes it reduced the rows modulo, and
    the routes by which it took one more prime: "pivots" (a prime's pivots
    differ from those before it), "reconstruction" (an entry has none) and
    "check" (the rebuilt form fails the exact check).  Two primes and no
    route is the common path."""
    primes, routes, rebuilt = [], set(), []
    rref_mod, rational, checked_form = (ranklab._rref_mod, ranklab._rational,
                                        ranklab._checked_form)

    def spy_rref_mod(ints, p):
        reduced = rref_mod(ints, p)
        if primes and reduced[1] != primes[-1]:
            routes.add("pivots")
        primes.append(reduced[1])
        return reduced

    def spy_rational(*args):
        q = rational(*args)
        rebuilt.append(q)
        return q

    def spy_checked_form(*args):
        rebuilt.clear()
        form = checked_form(*args)
        if form is None:
            routes.add("reconstruction" if None in rebuilt else "check")
        return form

    with mock.patch.multiple(ranklab, _rref_mod=spy_rref_mod, _rational=spy_rational,
                             _checked_form=spy_checked_form):
        result = rref(rows)
    return result, len(primes), routes


# the unpatched generator, for use while ``ranklab._primes`` is patched
_PRIMES = ranklab._primes


def _small_primes_first():
    """5, 7, 11 and 13, then ``rref``'s own primes: modulo 5 and 7 (residues
    modulo 35, reconstruction bound 4) each route of the loop is common."""
    return itertools.chain([5, 7, 11, 13], _PRIMES())


def test_modular_rref_falls_back_on_every_route():
    """Each way of taking one more prime is taken, and every result is still
    the reference form."""
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(rows=_planted_matrix())
    @example(rows=[[2, 1], [4, 2]])  # two primes: the entry 1/2 is within 4
    @example(rows=[[5, 1], [0, 1]])  # rank 1 modulo 5, 2 modulo 7
    @example(rows=[[1, 10]])  # 10 = n/d mod 35 only with |n| or d above 4
    @example(rows=[[1, 17]])  # 17 = -1/2 mod 35, which fails the check
    def check(rows):
        with mock.patch.object(ranklab, "_primes", _small_primes_first):
            result, _, routes = _rref_route(rows)
        assert result == _reference_rref(rows)
        seen.update(routes or {"two primes"})

    check()
    assert seen == {"two primes", "pivots", "reconstruction", "check"}


@pytest.mark.parametrize("rows, nprimes, routes", [
    ([[2, 1], [4, 2]], 2, set()),
    # rank 1 modulo 5, 2 modulo 7 and 11
    ([[5, 1], [0, 1]], 3, {"pivots"}),
    # 10 has no reconstruction modulo 35, and is 10/1 modulo 385
    ([[1, 10]], 3, {"reconstruction"}),
    # 17 = -1/2 modulo 35; modulo 385 (bound 13) it has no reconstruction
    ([[1, 17]], 4, {"check", "reconstruction"}),
])
def test_modular_rref_route_from_small_primes(rows, nprimes, routes):
    with mock.patch.object(ranklab, "_primes", _small_primes_first):
        result, got_nprimes, got_routes = _rref_route(rows)
    assert (got_nprimes, got_routes) == (nprimes, routes)
    assert result == _reference_rref(rows)


# with rref's own primes; ``routes`` is the number of primes and the routes
@pytest.mark.parametrize("rows, routes", [
    # 2^31 - 1 is 0 modulo _PRIME but not modulo _PRIME2
    ([[2**31 - 1, 1], [0, 1]], (3, {"pivots"})),
    # the entry 2^40 / 3 exceeds the reconstruction bound of about 2^30.5,
    # so it takes a third prime
    ([[3, 2**40]], (3, {"reconstruction"})),
    # 2^30 / 3 is within it
    ([[3, 2**30]], (2, set())),
])
def test_modular_rref_route(rows, routes):
    result, nprimes, taken = _rref_route(rows)
    assert (nprimes, taken) == routes
    assert result == _reference_rref(rows)


def test_catalog_ranks_take_the_modular_path():
    """Every rref of a rank report over these catalogs reduces its rows
    modulo exactly two primes, so the fast path cannot silently grow a
    third prime."""
    counts = []
    rref_mod, exact_rref = ranklab._rref_mod, ranklab.rref

    def counting_rref_mod(ints, p):
        counts[-1] += 1
        return rref_mod(ints, p)

    def counting_rref(rows):
        counts.append(0)
        return exact_rref(rows)

    with mock.patch.multiple(ranklab, _rref_mod=counting_rref_mod, rref=counting_rref):
        for name in ("quartic", "quartic_basis", "quintic", "cubic_rank2"):
            counts.append(0)  # the row selection of the report
            rank_report(catalog.catalog(name), seed=1, catalog_name=name)
    assert counts == [1, 2, 2, 2] * 4


def test_forced_fallback_gives_same_reports(monkeypatch):
    def reports():
        return [
            rank_report(catalog.catalog(name), seed=3,
                        catalog_name=name).to_dict()
            for name in ("quadratic", "cubic", "cubic_rank2")
        ]

    sizes = []
    exact_nullspace = ranklab.nullspace

    def recording_nullspace(rows, ncols=None):
        sizes.append(len(rows))
        return exact_nullspace(rows, ncols)

    monkeypatch.setattr(ranklab, "nullspace", recording_nullspace)
    default = reports()
    # with p = 2^31 - 1 only chosen rows, at most one per column, are reduced
    assert max(sizes) <= 16
    monkeypatch.setattr(ranklab, "_PRIME", 2)
    sizes.clear()
    assert reports() == default
    # p = 2 loses rank, so the null vectors of the chosen rows fail on some
    # row and every full sample matrix is reduced exactly
    assert {d["n_rows"] for d in default} <= set(sizes)


# sha256 of dumps(rank_report(catalog, seed=1).to_dict()), recorded with the
# exact elimination of every sampled row
_GOLDEN_REPORTS = {
    ("quadratic", False):
        "91b7acb4a8af87a528861bcffb7fc44528b6c00377c23e28b64c685376ab9696",
    ("quadratic", True):
        "8b88272ecde93666e0fc24a8a43b4de0bf78abf9b3074a4649e77ed349099b7d",
    ("quadratic_basis", False):
        "35b8482b656ec1986a7aec84aef778171732b0fa9686f8a50267a441620b8205",
    ("quadratic_basis", True):
        "d943eb19b014147a9c3295cf72878c9f72c61a034542d270c404fc6543dcb920",
    ("cubic", False):
        "603580fcb0ac2adc0d0b88dc288feed6dddd3b2dcd8ac71526a10d1ec0d929e7",
    ("cubic", True):
        "599418dd2088f6e348e27da565aec1c8a4ca14eb38a9f77e6537ad99765599cf",
    ("cubic_basis", False):
        "8e1bd1b72eb4910b8f3c9380f61c29c0945d2db3732c06e57b06a8909ec4bab5",
    ("cubic_basis", True):
        "9ba1e4404487270b945e51713a477084802a6bd5408c97769ecfd86d2b33baf1",
    ("cubic_rank2", False):
        "40b6ede3981e772582d731ce6f6ba5c5b6961ff3c12e62bdff9223194a4cd972",
    ("cubic_rank2", True):
        "d6b6998a4e4254a42e30fb80d5c1a13cefc22b0e2b9934965d0741e72599bc5f",
    ("quartic", False):
        "878a8ad0f5814c8b24528b859d17e3a22a70bdd644ba8553187b9ac9a8008e37",
    ("quartic", True):
        "d7ea0c204f50455cdad8644e895edebad945e7a799ebd05ce4cffeadf852a75f",
    ("quartic_basis", False):
        "7164a5ffbb8183d717340a809924485e77feb11f0be521e3ff5baf4bc5de5e28",
    ("quartic_basis", True):
        "0fe3398115c66316c3dcbd8ef932e142f3576f1d229212d9bb504a262f3f8bd1",
    ("quintic", False):
        "e1c9287bd4e6bbda9b06e1942daae2f96217e5c0adefc986c6369d61d8083132",
    ("quintic", True):
        "0b51f32e5e8c9221e3f6b3135c9b4f7f357347cec8dcd9b5315cef8247c49f46",
    ("pseudo_q2", False):
        "a108cf7f0c1acdaeca321a9413269b000f365a14c83fc9912458cf813de4eec3",
    ("pseudo_q2", True):
        "805f7846a740f72d44f037277a041c09290c9c3f22553ac1d535b4e704af915e",
    ("pseudo_q3", False):
        "6455c78bd02bb039c76c8f49a1cf355275f21f9e7235377b198d1edbe61e8777",
    ("pseudo_q3", True):
        "616182b79e154efd2a2ecbd00c1a0b145f094e3416ffdf3450bffb511cc953fd",
    ("pseudo_q4", False):
        "b64b22f91701ddc0e1ef49930e06341d321144f4f490a33e76c76da543df38c0",
    ("pseudo_q4", True):
        "37a90f9b48a784b5897d6b784eb62d3133ce27af628ffc13ffbac2b20acc441e",
}


def test_rank_reports_byte_identical():
    names = {name for name, _ in _GOLDEN_REPORTS}
    assert names == set(catalog.catalog_names())
    for (name, einstein), digest in _GOLDEN_REPORTS.items():
        report = rank_report(catalog.catalog(name), seed=1,
                             config=GenConfig(einstein=einstein),
                             catalog_name=name)
        text = dumps(report.to_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


@st.composite
def _rows_with_p_multiples(draw):
    """Planted rows (zero, repeated, rank deficient), some replaced by rows
    that are 0 modulo ``_PRIME`` but not 0."""
    rows = draw(_planted_matrix())
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
        rows[i] = [_P * draw(st.integers(-3, 3)) for _ in rows[i]]
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=_rows_with_p_multiples())
@example(rows=[[0, 0], [_P, -_P], [0, 0]])
@example(rows=[[1, 2], [2, 4], [1, 2]])
# selection stops after one row per column, before the last rows
@example(rows=[[1, 0], [0, 1], [1, 1], [3, 5], [0, 0]])
@example(rows=[[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
def test_independent_rows_of_a_prefix_are_a_prefix(rows):
    """On the first h rows the greedy selection keeps exactly the rows below h
    that it keeps on all rows, so ``rank_report`` selects rows once."""
    ints = ranklab._integer_matrix(rows, len(rows[0]))
    kept = ranklab._independent_rows(ints)
    for h in range(len(rows) + 1):
        assert ranklab._independent_rows(ints[:h]) == [i for i in kept if i < h]


def test_sample_matrix_of_joined_batches_is_joined_rows():
    """``rank_report`` evaluates its samples and confirmation batch at once
    and splits the rows: the rows of a joined batch are the joined rows."""
    a = random_fblocks_stream(11, 3)
    b = random_fblocks_stream(12, 2, GenConfig(einstein=True))
    for name in catalog.catalog_names():
        entries = catalog.catalog(name)
        joined = sample_matrix(entries, a + b)
        want = sample_matrix(entries, a) + sample_matrix(entries, b)
        assert [[(type(x), x) for x in row] for row in joined] == \
            [[(type(x), x) for x in row] for row in want], name


def test_rank_report_evaluates_and_selects_once():
    """One evaluation batch (samples and confirmation batch together) and one
    row selection per report, so the saving cannot silently vanish."""
    for name in ("quartic", "quartic_basis", "quintic", "cubic_rank2"):
        with mock.patch.object(ranklab, "sample_matrix",
                               wraps=ranklab.sample_matrix) as evaluated, \
                mock.patch.object(ranklab, "_independent_rows",
                                  wraps=ranklab._independent_rows) as selected:
            report = rank_report(catalog.catalog(name), seed=1, catalog_name=name)
        assert evaluated.call_count == 1 and selected.call_count == 1, name
        (entries, fbs, _), _ = evaluated.call_args
        assert len(fbs) == report.n_samples + max(8, len(entries) // 2)


def test_rank_report_refuses_samples_of_another_domain():
    """The confirmation batch is of ``config``'s domain; null vectors of the
    given samples' domain would be dropped on another one."""
    entries = catalog.catalog("quartic")
    einstein = random_fblocks_stream(3, 60, GenConfig(einstein=True))
    with pytest.raises(ValueError, match=r"every given sample is Einstein .*"
                       r"pass GenConfig\(einstein=True\)$"):
        rank_report(entries, seed=3, samples=einstein)
    report = rank_report(entries, seed=3, samples=einstein,
                         config=GenConfig(einstein=True))
    assert len(report.nullspace) == 21
    # one general sample among Einstein ones
    mixed = einstein[:5] + random_fblocks_stream(3, 1) + einstein[5:]
    with pytest.raises(ValueError, match="^config is Einstein but sample 5 has "
                       "a nonzero mixed block B$"):
        rank_report(entries, seed=3, samples=mixed,
                    config=GenConfig(einstein=True))
    # a general config takes them: not every sample is Einstein
    report = rank_report(entries, seed=3, samples=mixed)
    assert report.n_samples == 61
    # their 20 null vectors fail on the general confirmation batch and are
    # dropped without a flag: rank plus nullspace falls short of 26 columns
    assert (report.rank, len(report.labels), report.nullspace) == (6, 26, [])
    assert len(nullspace(sample_matrix(entries, mixed), 26)) == 20
