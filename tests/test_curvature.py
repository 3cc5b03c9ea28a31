"""Curvature tensor helpers: validation, derived tensors, serialization."""

import json
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riemann_syzygy import catalog, curvature, expr, ranklab, relations
from riemann_syzygy.curvature import (
    as_tensor,
    constant_curvature,
    pseudo_riemann,
    rational_from_str,
    rational_to_str,
    ricci,
    ricci_scalar,
    riemann_from_json,
    riemann_to_json,
    traceless_ricci,
    validate_riemann,
    weyl,
    zeros,
)
from riemann_syzygy.decomp import FBlocks, raw_blocks, reconstruct
from riemann_syzygy.gen import GenConfig, random_fblocks
from riemann_syzygy.thooft import EPS4

from conftest import relaxed_tensor


def test_constant_curvature_is_valid():
    t = constant_curvature(Fraction(12))
    report = validate_riemann(t)
    assert report.ok
    assert ricci_scalar(t) == 12
    assert np.all(weyl(t) == 0)
    assert np.all(traceless_ricci(t) == 0)


def test_random_samples_validate(samples):
    for fb in samples:
        report = validate_riemann(reconstruct(fb))
        assert report.ok


def test_validation_names_failing_check():
    t = zeros()
    # antisymmetric in both pairs but not pair symmetric, violates Bianchi
    t[0, 1, 2, 3] = 1
    t[1, 0, 2, 3] = -1
    t[0, 1, 3, 2] = -1
    t[1, 0, 3, 2] = 1
    report = validate_riemann(t)
    assert not report.ok
    assert "Pair symmetry" in report.failures()
    # counterexamples reported with 1-based indices
    for name, ok, ce in report.results:
        if not ok:
            assert all(1 <= i <= 4 for i in ce)
    # every check runs, each reporting its first counterexample in C order
    assert report.results == [
        ("Antisymmetry (first pair)", True, None),
        ("Antisymmetry (second pair)", True, None),
        ("Pair symmetry", False, (1, 2, 3, 4)),
        ("First Bianchi identity", False, (1, 2, 3, 4)),
    ]
    # eps_abcd has every pair symmetry; its Bianchi sum is 3 eps_abcd
    assert validate_riemann(EPS4.copy()).results == [
        ("Antisymmetry (first pair)", True, None),
        ("Antisymmetry (second pair)", True, None),
        ("Pair symmetry", True, None),
        ("First Bianchi identity", False, (1, 2, 3, 4)),
    ]
    # the JSON form, recorded before the two check-report classes were merged
    assert report.to_dict() == {
        "schema": "riemann-syzygy/1",
        "is_riemann": False,
        "checks": [
            {"name": "Antisymmetry (first pair)", "ok": True,
             "counterexample": None},
            {"name": "Antisymmetry (second pair)", "ok": True,
             "counterexample": None},
            {"name": "Pair symmetry", "ok": False,
             "counterexample": (1, 2, 3, 4)},
            {"name": "First Bianchi identity", "ok": False,
             "counterexample": (1, 2, 3, 4)},
        ],
    }
    assert validate_riemann(EPS4.copy()).to_dict() == {
        "schema": "riemann-syzygy/1",
        "is_riemann": False,
        "checks": [
            {"name": "Antisymmetry (first pair)", "ok": True,
             "counterexample": None},
            {"name": "Antisymmetry (second pair)", "ok": True,
             "counterexample": None},
            {"name": "Pair symmetry", "ok": True, "counterexample": None},
            {"name": "First Bianchi identity", "ok": False,
             "counterexample": (1, 2, 3, 4)},
        ],
    }


def test_validation_on_python_ints():
    # at block scale 2**60, 3 * max|R| passes INT64_BOUND: the residuals,
    # each a sum of at most 3 entries, run on Python ints
    fb = random_fblocks(3, GenConfig())
    t = reconstruct(FBlocks(Ap=2**60 * fb.Ap, B=2**60 * fb.B, Am=2**60 * fb.Am))
    assert 3 * curvature.scaled(t).bound >= curvature.INT64_BOUND
    assert validate_riemann(t).ok
    # a cyclic sum of 2**64, which int64 would wrap to 0
    parts = [3 * 2**61, 3 * 2**61, 2**62]
    assert int(np.array(parts, dtype=np.int64).sum()) == 0
    t = zeros()
    t[0, 1, 2, 3], t[0, 2, 3, 1], t[0, 3, 1, 2] = parts
    assert validate_riemann(t).results == [
        ("Antisymmetry (first pair)", False, (1, 2, 3, 4)),
        ("Antisymmetry (second pair)", False, (1, 2, 3, 4)),
        ("Pair symmetry", False, (1, 2, 3, 4)),
        ("First Bianchi identity", False, (1, 2, 3, 4)),
    ]
    # the JSON form, recorded before the two check-report classes were merged
    assert validate_riemann(t).to_dict() == {
        "schema": "riemann-syzygy/1",
        "is_riemann": False,
        "checks": [
            {"name": name, "ok": False, "counterexample": (1, 2, 3, 4)}
            for name in ("Antisymmetry (first pair)",
                         "Antisymmetry (second pair)", "Pair symmetry",
                         "First Bianchi identity")
        ],
    }


def test_bianchi_violation_detected():
    t = relaxed_tensor(5)
    report = validate_riemann(t)
    assert report.failures() == ["First Bianchi identity"]


def test_ricci_of_constant_curvature():
    t = constant_curvature(Fraction(24))
    rc = ricci(t)
    assert all(rc[a, a] == 6 for a in range(4))
    assert all(rc[a, b] == 0 for a in range(4) for b in range(4) if a != b)


def test_weyl_is_totally_traceless(samples):
    for fb in samples[:3]:
        w = weyl(reconstruct(fb))
        tr = np.einsum("acbc->ab", w)
        assert np.all(tr == 0)


def test_pseudo_riemann_trace_free(samples):
    for fb in samples[:3]:
        rt = pseudo_riemann(reconstruct(fb))
        assert np.all(np.einsum("acbc->ab", rt) == 0)


def _normal(value):
    """int when integral, Fraction (denominator > 1) otherwise."""
    if isinstance(value, np.ndarray):
        return all(_normal(v) for v in value.flat)
    if isinstance(value, list):
        return all(_normal(v) for v in value)
    return type(value) is int or (
        type(value) is Fraction and value.denominator > 1
    )


def test_normal_form_check_rejects_numpy_integers():
    assert not _normal(np.array([1, 2], dtype=np.int64))
    assert not _normal(np.array([1, np.int64(2)], dtype=object))
    assert not _normal([[1, np.int64(2)]])
    assert _normal([[1, Fraction(1, 2)]])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 9), st.sampled_from([1, 2**14, 2**40]))
def test_outputs_in_exact_normal_form(seed, bound, scale):
    # scale 2**14 keeps entries on int64; 2**40 puts products on Python ints
    fb = random_fblocks(seed, GenConfig(bound=bound))
    fb = FBlocks(Ap=scale * fb.Ap, B=scale * fb.B, Am=scale * fb.Am)
    t = reconstruct(fb)
    tctx = expr.tensor_context(t)
    mctx = expr.context(fb)
    values = [
        t,
        weyl(t),
        pseudo_riemann(t),
        traceless_ricci(t),
        *raw_blocks(t),
        *raw_blocks(pseudo_riemann(t)),
        *fb.weyl_blocks(),
        expr.evaluate("W[a,b,c,d]*W[a,b,c,d] + 1/3*Sc*Sc", tctx),
        expr.evaluate("Rt[a,b,c,d]*R[a,b,c,d]", tctx),
        expr.evaluate("Rc[a,c]*Rc[c,b] - 1/4*Sc*Rc[a,b]", tctx),
        expr.evaluate("1/2*W[a,c,d,e]*R[b,c,d,e]", tctx),
        expr.evaluate("1/3*Ap[i,j]*Am[j,i] + 1/6*R*detB", mctx),
        expr.evaluate("1/2*Ap[i,k]*B[k,j]", mctx),
        *(relations.residual(rel, fb) for rel in relations.load_relations()),
        ranklab.sample_matrix(catalog.catalog("cubic"), [fb]),
        ranklab.sample_matrix(catalog.catalog("cubic_rank2"), [fb]),
    ]
    for i, value in enumerate(values):
        assert _normal(value), i


def test_float_and_string_entries_rejected():
    for bad in (0.1, "1/2"):
        t = zeros()
        t[0, 1, 0, 1] = bad
        with pytest.raises(TypeError):
            as_tensor(t)
        with pytest.raises(TypeError):
            curvature.exact(bad)
    assert curvature.exact(Fraction(6, 3)) == 2
    assert type(curvature.exact(np.int64(2))) is int


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
def test_integer_arrays_become_python_ints(dtype):
    top = np.iinfo(dtype).max
    values = np.array([[0, 1, top], [2, top, 3], [4, 5, 6]], dtype=dtype)
    if dtype != np.uint64:
        values[0, 0] = np.iinfo(dtype).min
    m = as_tensor(values, (3, 3), "m")
    assert m.dtype == object
    assert all(type(v) is int for v in m.flat)
    assert m.tolist() == [[int(v) for v in row] for row in values]
    # a copy: the caller's array stays its own
    m[0, 1] = 7
    assert values[0, 1] == 1
    with pytest.raises(ValueError, match=r"^m must have shape \(3, 3\), got \(9,\)$"):
        as_tensor(values.ravel(), (3, 3), "m")


def test_bool_entries_rejected():
    for bad in (np.ones((3, 3), dtype=bool),
                np.array([[True, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=object)):
        with pytest.raises(TypeError, match="got bool"):
            as_tensor(bad, (3, 3), "m")
    with pytest.raises(TypeError):
        curvature.exact(True)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_rational_string_round_trip(p, q):
    x = Fraction(p, q)
    assert rational_from_str(rational_to_str(x)) == x


def test_rational_string_forms():
    # integers stay bare (more compact JSON), fractions become "p/q"
    assert rational_to_str(Fraction(3)) == 3
    assert rational_to_str(Fraction(-1, 2)) == "-1/2"
    assert rational_from_str("7") == 7
    assert rational_from_str("-3/4") == Fraction(-3, 4)
    with pytest.raises(ValueError):
        rational_from_str("1/0")
    with pytest.raises(ValueError):
        rational_from_str("x")


def _rational_to_str_reference(x):
    """``rational_to_str`` as it was before integers skipped the Fraction.
    A numpy integer becomes an int first: Fraction would negate its
    numerator in int64, which overflows at -2**63."""
    if isinstance(x, np.integer):
        x = int(x)
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


_BEYOND_INT64 = st.one_of(st.integers(2**63, 2**200), st.integers(-2**200, -2**63 - 1))


@given(st.one_of(
    _BEYOND_INT64,
    st.integers(),
    st.just(0),
    st.booleans(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.fractions(),
    st.one_of(_BEYOND_INT64, st.integers()).map(Fraction),
))
@example(np.int64(-2**63))
def test_rational_to_str_equals_reference(x):
    got, want = rational_to_str(x), _rational_to_str_reference(x)
    assert got == want
    # an integral value leaves as exactly int: no numpy scalar or bool
    # reaches json.dumps
    assert type(got) is (str if isinstance(want, str) else int)
    assert json.dumps(got) == json.dumps(want)


def test_rational_to_str_int64_extremes_do_not_wrap():
    # Fraction(np.int64(-2**63)) would negate its numerator in int64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (np.int64(-2**63), np.int64(2**63 - 1)):
            got = rational_to_str(x)
            assert type(got) is int and got == int(x)


@pytest.mark.parametrize("text, value", [
    ("1_0", None),
    (" 7 ", None),
    ("+3", None),
    ("2/ 4", None),
    ("\u0663", None),  # ARABIC-INDIC DIGIT THREE
    ("-3/2", Fraction(-3, 2)),
    (7, 7),
])
def test_rational_from_str_is_strict(text, value):
    # only ASCII -?[0-9]+ and -?[0-9]+/[0-9]+ are rationals; int() is laxer
    if value is None:
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            rational_from_str(text)
    else:
        assert rational_from_str(text) == value


@pytest.mark.parametrize("fmt", ["sparse", "dense"])
def test_tensor_json_round_trip(samples, fmt):
    t = reconstruct(samples[0])
    text = riemann_to_json(t, format=fmt)
    data = json.loads(text)
    assert data["schema"] == "riemann-syzygy/1"
    t2 = riemann_from_json(text)
    assert np.array_equal(t, t2)


def test_tensor_json_rejects_garbage():
    with pytest.raises((ValueError, KeyError, TypeError)):
        riemann_from_json(json.dumps({"schema": "riemann-syzygy/1"}))


@pytest.mark.parametrize("data, reason", [
    ({"format": "sparse"}, "sparse entries must be a list, got None"),
    ({"format": "sparse", "entries": 5}, "sparse entries must be a list, got 5"),
    ({"format": "sparse", "entries": {"1": 5}}, "must be a list, got {'1': 5}"),
    ({"format": "sparse", "entries": [7]},
     "sparse entry must be [a,b,c,d,value]: 7"),
    # a string of five characters is not five fields
    ({"format": "sparse", "entries": ["12125"]},
     "sparse entry must be [a,b,c,d,value]: '12125'"),
])
def test_sparse_entries_must_be_lists(data, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        curvature.riemann_from_dict(data)


def test_zero_tensor_json_round_trip():
    data = curvature.riemann_to_dict(zeros())
    assert data["entries"] == []
    assert np.array_equal(curvature.riemann_from_dict(data), zeros())


def test_tensor_json_rejects_duplicate_entry_and_bad_schema():
    entries = [[1, 2, 1, 2, 5], [1, 2, 1, 2, 7]]
    with pytest.raises(ValueError, match=r"duplicate .*\[1, 2, 1, 2\]"):
        curvature.riemann_from_dict({"format": "sparse", "entries": entries})
    with pytest.raises(ValueError, match="'nonsense'"):
        curvature.riemann_from_dict(
            {"schema": "nonsense", "format": "sparse", "entries": entries[:1]}
        )
    # a file without a schema key stays accepted
    t = curvature.riemann_from_dict({"format": "sparse", "entries": entries[:1]})
    assert t[0, 1, 0, 1] == 5


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9), st.randoms(use_true_random=False),
       st.sets(st.integers(0, 255), max_size=40))
def test_sparse_entries_in_any_order_with_zeros_read_as_dense(seed, rnd, zero_at):
    t = reconstruct(random_fblocks(seed))
    entries = curvature.riemann_to_dict(t)["entries"]
    # explicit zeros at indices the writer leaves out, then any order
    for k in sorted(zero_at):
        if t.flat[k] == 0:
            entries.append([int(i) + 1 for i in np.unravel_index(k, t.shape)] + [0])
    rnd.shuffle(entries)
    got = curvature.riemann_from_dict({"format": "sparse", "entries": entries})
    want = curvature.riemann_from_dict(curvature.riemann_to_dict(t, "dense"))
    assert got.shape == (4, 4, 4, 4) and got.dtype == object
    assert np.array_equal(got, want)
    assert [type(x) for x in got.flat] == [type(x) for x in want.flat]


@pytest.mark.parametrize("entries, reason", [
    # the first copy not next to the second
    ([[1, 2, 1, 2, 5], [2, 1, 2, 1, 5], [1, 2, 2, 1, -5], [1, 2, 1, 2, 5]],
     "duplicate sparse entry for index [1, 2, 1, 2]"),
    # an explicit zero is an entry too
    ([[4, 4, 4, 4, 0], [1, 1, 1, 1, 0], [4, 4, 4, 4, 0]],
     "duplicate sparse entry for index [4, 4, 4, 4]"),
    # the duplicate is found before its value is read
    ([[1, 2, 1, 2, 5], [1, 2, 1, 2, "x"]],
     "duplicate sparse entry for index [1, 2, 1, 2]"),
    ([[1, 2, 1, 2, 5], [0, 1, 1, 1, 5]], "index a=0 out of range 1..4"),
    ([[1, 5, 1, 1, 5]], "index b=5 out of range 1..4"),
    ([[1, 1, True, 1, 5]], "index c=True out of range 1..4"),
    ([[1, 1, 1, "4", 5]], "index d='4' out of range 1..4"),
    ([[1, 1, 1, 1.0, 5]], "index d=1.0 out of range 1..4"),
    # the first bad index is named
    ([[9, 1, None, 1, 5]], "index a=9 out of range 1..4"),
    ([[1, 1, 1, 1, "1_0"]], "invalid rational: '1_0'"),
    ([[1, 1, 1, 1, 1.5]], "invalid rational: 1.5"),
    ([[1, 1, 1, 1, "1/0"]], "denominator must be positive in '1/0'"),
    ([[1, 1, 1, 1, 5, 6]], "sparse entry must be [a,b,c,d,value]: [1, 1, 1, 1, 5, 6]"),
    ([(1, 1, 1, 1, 5)], "sparse entry must be [a,b,c,d,value]: (1, 1, 1, 1, 5)"),
])
def test_sparse_entry_errors(entries, reason):
    with pytest.raises(ValueError) as info:
        curvature.riemann_from_dict({"format": "sparse", "entries": entries})
    assert str(info.value) == reason
