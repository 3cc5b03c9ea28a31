"""Contraction-expression engine: grammar, evaluation, transformations."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemann_syzygy import curvature, expr
from riemann_syzygy.decomp import reconstruct
from riemann_syzygy.expr import (
    ExprError,
    combine,
    evaluate,
    matrix_context,
    parse,
    pseudo_variant,
    relabel,
    render,
    scale,
    tensor_context,
)
from riemann_syzygy.gen import GenConfig, random_fblocks


def test_parse_scalar_and_free_indices():
    p = parse("Sc*Sc")
    assert p.is_scalar
    q = parse("Rc[a,b] + Sc*delta[a,b]")
    assert q.free_labels == ("a", "b")


def test_parse_coefficients():
    p = parse("3/2*Sc - Sc + 2*Sc")
    assert [m.coeff for m in p.monomials] == [
        Fraction(3, 2),
        Fraction(-1),
        Fraction(2),
    ]


def test_grammar_rejections():
    with pytest.raises(ExprError):
        parse("R*2*Sc")  # coefficient not in leading position
    with pytest.raises(ExprError):
        parse("Rc[a,b]*Rc[a,b]*Rc[a,b]")  # label used three times
    with pytest.raises(ExprError):
        parse("Rc[a,b] + Sc")  # inconsistent free labels across terms


def test_render_parse_round_trip():
    for text in (
        "Sc*Sc - 4*Rc[a,b]*Rc[a,b]",
        "1/4*eps[a,b,c,d]*R[a,b,c,d]",
        "R[a,c,b,d]*Rc[c,d] - 1/2*delta[a,b]*Sc*Sc",
    ):
        p = parse(text)
        assert parse(render(p)) == p


def test_evaluate_against_manual_einsum(samples):
    fb = samples[0]
    t = reconstruct(fb)
    ctx = tensor_context(t)
    manual = np.einsum("abcd,abcd", t, t)
    assert evaluate(parse("R[a,b,c,d]*R[a,b,c,d]"), ctx) == manual
    rc = np.einsum("acbc->ab", t)
    manual2 = np.einsum("ab,ab", rc, rc)
    assert evaluate(parse("Rc[a,b]*Rc[a,b]"), ctx) == manual2


def test_evaluate_free_index_shape(samples):
    ctx = tensor_context(reconstruct(samples[0]))
    v = evaluate(parse("Rc[a,c]*Rc[b,c]"), ctx)
    assert v.shape == (4, 4)
    assert np.array_equal(v, v.T)


def test_matrix_context_det(samples):
    fb = samples[0]
    ctx = matrix_context(fb)
    det = evaluate(parse("detB"), ctx)
    b = fb.B
    manual = (
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    )
    assert det == manual


def test_scale_and_combine():
    p = combine((2, "Sc"), (Fraction(-1, 2), "Sc*Sc"))
    assert render(p) == "2*Sc - 1/2*Sc*Sc"
    assert render(scale(p, 2)) == "4*Sc - Sc*Sc"
    assert scale(p, 0).monomials == ()


def test_relabel_contracts(samples):
    ctx = tensor_context(reconstruct(samples[0]))
    p = parse("Rc[a,c]*Rc[b,c]")
    traced = relabel(p, {"b": "a"})
    assert traced.is_scalar
    v = evaluate(p, ctx)
    assert evaluate(traced, ctx) == sum(v[i, i] for i in range(4))


def test_pseudo_variant_sign_rules():
    p = parse("Ap[i,j]*Ap[i,j] + Am[i,j]*Am[i,j]")
    v = pseudo_variant(p)
    assert render(v) == "Ap[i,j]*Ap[i,j] - Am[i,j]*Am[i,j]"
    # balanced monomials drop out
    q = pseudo_variant(parse("Ap[i,j]*Am[i,j]"))
    assert q.monomials == ()


def test_pseudo_variant_is_parity_odd(samples):
    fb = samples[0]
    p = pseudo_variant(parse("R*Ap[i,j]*Ap[i,j] + R*Am[i,j]*Am[i,j]"))
    a = evaluate(p, matrix_context(fb))
    b = evaluate(p, matrix_context(fb.parity()))
    assert a == -b


def test_unknown_symbol_raises(samples):
    ctx = matrix_context(samples[0])
    with pytest.raises(ExprError):
        evaluate(parse("Nope[i,j]*Nope[i,j]"), ctx)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_lazy_tensor_symbols_equal_eager(seed, einstein):
    t = reconstruct(random_fblocks(seed, GenConfig(einstein=einstein)))
    ctx = tensor_context(t)
    assert sorted(ctx) == ["R", "Rc", "Rt", "Sc", "W", "delta", "eps"]
    assert ctx["Sc"] == curvature.ricci_scalar(t)
    for name, eager in (("Rc", curvature.ricci), ("W", curvature.weyl),
                        ("Rt", curvature.pseudo_riemann)):
        assert np.array_equal(ctx[name], eager(t)), name
    assert ctx["R"] is t
