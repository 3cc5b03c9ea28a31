"""Symbol-table checks: duality, products, epsilon contractions, commutators."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riemann_syzygy import thooft
from riemann_syzygy.thooft import EPS4, ETA, ETABAR, eta, etabar, levi_civita


def test_appendix_suite_all_pass():
    report = thooft.verify_appendix_a()
    assert report.ok, report.failures()


def test_symbol_shapes_and_values():
    assert ETA.shape == (3, 4, 4)
    assert ETABAR.shape == (3, 4, 4)
    # eta^i_{i4} = +1, etabar^i_{i4} = -1 (1-based: eta(i, i, 4))
    for i in range(1, 4):
        assert eta(i, i, 4) == 1
        assert etabar(i, i, 4) == -1
        assert eta(i, 4, i) == -1
        assert etabar(i, 4, i) == 1


def test_levi_civita_normalization():
    assert levi_civita(1, 2, 3, 4) == 1
    assert levi_civita(2, 1, 3, 4) == -1
    assert levi_civita(1, 1, 3, 4) == 0
    assert EPS4[0, 1, 2, 3] == 1


@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4))
def test_antisymmetry(i, a, b):
    assert eta(i, a, b) == -eta(i, b, a)
    assert etabar(i, a, b) == -etabar(i, b, a)


@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4))
def test_self_duality_pointwise(i, a, b):
    # 1/2 eps_{abcd} eta^i_{cd} = +eta^i_{ab}; with etabar the sign flips
    for table, sign in ((eta, 1), (etabar, -1)):
        acc = 0
        for c in range(1, 5):
            for d in range(1, 5):
                acc += levi_civita(a, b, c, d) * table(i, c, d)
        assert acc == 2 * sign * table(i, a, b)


def test_index_validation():
    with pytest.raises(ValueError):
        eta(0, 1, 1)
    with pytest.raises(ValueError):
        eta(1, 5, 1)
    with pytest.raises(ValueError):
        etabar(4, 1, 1)
    with pytest.raises(ValueError):
        levi_civita(1, 2, 3, 5)


def test_completeness_relation():
    # eta^i_ab eta^i_cd + etabar^i_ab etabar^i_cd spans the antisymmetric pairs
    lhs = np.einsum("iab,icd->abcd", ETA, ETA) + np.einsum(
        "iab,icd->abcd", ETABAR, ETABAR
    )
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    expected = 2 * (
                        (1 if a == c else 0) * (1 if b == d else 0)
                        - (1 if a == d else 0) * (1 if b == c else 0)
                    )
                    assert lhs[a, b, c, d] == expected


def test_report_json_round_trips():
    import json

    report = thooft.verify_appendix_a()
    data = json.loads(thooft.dumps(report.to_dict()))
    assert data["schema"] == "riemann-syzygy/1"
    assert data["all_ok"] is True


_NAMES = ["self_duality", "product_sum_i", "eps_contraction", "orthogonality",
          "product_sum_c", "exchange_symmetry", "eps_ijk_expansion",
          "su2_commutators"]


@pytest.mark.parametrize("table, index, shift, counterexamples", [
    ("ETA", (0, 1, 2), 1,
     [(0, 0, 3), (0, 3, 1, 2), (0, 0, 1, 2, 0), (0, 0), (0, 0, 1, 1),
      (0, 1, 0, 1), (0, 0, 1, 0, 2), (0, 0, 1, 1)]),
    ("ETABAR", (2, 3, 0), -2,
     [(2, 1, 2), (0, 1, 3, 0), (2, 0, 1, 2, 0), (0, 2), (0, 1, 3, 0),
      (1, 2, 2, 3), (0, 0, 2, 3, 0), (0, 1, 3, 0)]),
    ("EPS4", (1, 0, 3, 2), 1,
     [(2, 1, 0), (1, 0, 3, 2), (0, 1, 0, 3, 1)] + [None] * 5),
])
def test_corrupted_table_first_failures(table, index, shift, counterexamples):
    """Each identity reports its first failing index in C order (0-based)."""
    t = getattr(thooft, table)
    old = t[index]
    t[index] = old + shift
    try:
        results = thooft.verify_appendix_a().results
    finally:
        t[index] = old
    assert results == [
        (name, ce is None, ce) for name, ce in zip(_NAMES, counterexamples)
    ]
