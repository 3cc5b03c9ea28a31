"""Exact linear algebra and randomized rank analysis."""

from fractions import Fraction

import pytest

from riemann_syzygy import catalog, ranklab
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


def test_sample_matrix_shapes(samples):
    entries = catalog.catalog("quadratic")
    rows = sample_matrix(entries, samples[:3])
    assert len(rows) == 3 and len(rows[0]) == 5
    rank2 = catalog.catalog("cubic_rank2")
    rows2 = sample_matrix(rank2, samples[:2])
    assert len(rows2) == 2 * 16  # one row per free-index assignment


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


def test_confirmation_seed_differs():
    assert ranklab.CONFIRM_SEED_XOR != 0
