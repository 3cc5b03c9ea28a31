"""Contraction-expression engine: grammar, evaluation, transformations."""

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from riemann_syzygy import catalog, curvature, expr, ranklab, relations
from riemann_syzygy.decomp import FBlocks, reconstruct
from riemann_syzygy.expr import (
    ExprError,
    Poly,
    as_poly,
    combine,
    evaluate,
    parse,
    pseudo_variant,
    relabel,
    render,
    scale,
    tensor_context,
)
from riemann_syzygy.gen import GenConfig, random_fblocks, random_fblocks_stream
from riemann_syzygy.thooft import DELTA3


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


@pytest.mark.parametrize("text, term", [
    ("1/0*R", "1/0*R"), ("Sc - 3/00*Sc*Sc", "3/00*Sc*Sc"), ("2/0*Rc[a,b]", "2/0*Rc[a,b]"),
], ids=["first", "second", "free"])
def test_zero_denominator_names_the_term(text, term):
    with pytest.raises(ExprError) as err:
        parse(text)
    assert str(err.value) == f"zero denominator in term {term!r}"


@pytest.mark.parametrize("batched", [False, True], ids=["one", "batch"])
@pytest.mark.parametrize("language", ["tensor", "matrix"])
@pytest.mark.usefixtures("fresh_plans")
def test_monomial_without_factor_raises(samples, language, batched):
    # parse refuses such a term; only a hand-built monomial gets this far,
    # here in a context that has built a symbol of the language first
    ctx = expr.context(samples[:2] if batched else samples[0])
    evaluate({"tensor": "Sc", "matrix": "detB"}[language], ctx)
    plans = dict(expr._PLANS)
    poly = Poly(monomials=(expr.Monomial(Fraction(3), ()),), free_labels=())
    for _ in range(2):
        with pytest.raises(ExprError, match="^a monomial with no factor$"):
            evaluate(poly, ctx)
    assert expr._PLANS == plans


def test_render_parse_round_trip():
    for text in (
        "Sc*Sc - 4*Rc[a,b]*Rc[a,b]",
        "1/4*eps[a,b,c,d]*R[a,b,c,d]",
        "R[a,c,b,d]*Rc[c,d] - 1/2*delta[a,b]*Sc*Sc",
    ):
        p = parse(text)
        assert parse(render(p)) == p


def test_as_poly(samples):
    p = parse("Sc*Sc - 4*Rc[a,b]*Rc[a,b]")
    assert as_poly(p) is p
    assert as_poly("Sc*Sc - 4*Rc[a,b]*Rc[a,b]") == p
    for bad, name in ((5, "int"), (["Sc"], "list"), (None, "NoneType")):
        with pytest.raises(ExprError, match=f"expression string or a Poly, got {name}$"):
            as_poly(bad)
        with pytest.raises(ExprError, match=name):
            evaluate(bad, expr.context(samples[0]))
        with pytest.raises(ExprError, match=name):
            scale(bad, 2)


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
    ctx = expr.context(fb)
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
    a = evaluate(p, expr.context(fb))
    b = evaluate(p, expr.context(fb.parity()))
    assert a == -b


def test_unknown_symbol_raises(samples):
    ctx = expr.context(samples[0])
    with pytest.raises(ExprError):
        evaluate(parse("Nope[i,j]*Nope[i,j]"), ctx)


@pytest.mark.parametrize("text", ["X[i,j]*X[i,j]", "Sc*X[i,i]"])
def test_key_error_in_a_rule_is_not_an_unknown_symbol(text):
    """A rule that raises KeyError, here on a block the context does not
    hold, raises it unchanged, each time: only a symbol that no rule makes
    is reported as unknown."""
    rules = {("X", 2): lambda ctx: curvature.scaled(ctx.blocks["Bm"]),
             ("Sc", 0): lambda ctx: curvature.scaled(2)}
    ctx = expr.LazyContext(rules, blocks={})
    for _ in range(2):
        with pytest.raises(KeyError) as err:
            evaluate(text, ctx)
        assert type(err.value) is KeyError and err.value.args == ("Bm",)
    with pytest.raises(ExprError, match="^unknown symbol 'Bm'$"):
        evaluate("Bm[i,j]*X[i,j]", ctx)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_lazy_tensor_symbols_equal_eager(seed, einstein):
    t = reconstruct(random_fblocks(seed, GenConfig(einstein=einstein)))
    ctx = tensor_context(t)
    assert sorted(name for name, _ in ctx.rules) == ["R", "Rc", "Rt", "Sc", "W", "delta", "eps"]
    assert evaluate("Sc", ctx) == curvature.ricci_scalar(t)
    for text, eager in (("Rc[a,b]", curvature.ricci), ("W[a,b,c,d]", curvature.weyl),
                        ("Rt[a,b,c,d]", curvature.pseudo_riemann)):
        assert np.array_equal(evaluate(text, ctx), eager(t)), text
    assert _same(evaluate("R[a,b,c,d]", ctx), t)


# ---------------------------------------------------------------------------
# The integer kernel against a plain object-dtype reference


def _reference(poly, context):
    """Per monomial, object einsums on the exact values along numpy's
    optimal pairwise path (a label is summed once no later operand needs
    it), then the Fraction coefficient, then the exact normal form."""
    total = 0
    for mono in poly.monomials:
        letter = {}

        def sub(labels):
            return "".join(letter.setdefault(l, chr(97 + len(letter))) for l in labels)

        terms = [sub(labels) for _, labels in mono.factors]
        ops = [np.asarray(_symbol(context, name, len(labels)), dtype=object)
               for name, labels in mono.factors]
        out = sub(poly.free_labels)
        path = np.einsum_path(",".join(terms) + "->" + out, *ops, optimize="optimal")
        for step in path[0][1:]:
            picked = sorted(step, reverse=True)
            subs = [terms.pop(i) for i in picked]
            args = [ops.pop(i) for i in picked]
            keep = set(out).union(*terms)
            res = "".join(dict.fromkeys(l for t in subs for l in t if l in keep))
            # every step on object arrays: einsum narrows bare Python ints to int64
            ops.append(np.asarray(np.einsum(",".join(subs) + "->" + res, *args), dtype=object))
            terms.append(res)
        value = np.einsum(f"{terms[0]}->{out}", ops[0])
        total = total + Fraction(mono.coeff) * value
    return curvature.exact(total)


def _symbol(context, name, rank):
    """The exact value of a symbol of ``context``, from its scaled form."""
    form = context.scaled(name, rank)
    return curvature.unscaled(form.num, form.den)


def _same(a, b):
    """Equal in value and in type, entry by entry for arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (type(a) is type(b) and a.dtype == b.dtype == object
                and a.shape == b.shape
                and all(_same(x, y) for x, y in zip(a.flat, b.flat)))
    return type(a) is type(b) and a == b


# every relation side and every catalog representation
_EXPRESSIONS = [
    (f"{rel.name} {side}", poly)
    for rel in relations.load_relations()
    for side, poly in zip(("lhs", "rhs"), (rel.lhs, rel.rhs))
    if poly is not None
] + [
    (f"{name}/{entry.label} {kind}", poly)
    for name, entries in catalog.CATALOGS.items()
    for entry in entries
    for kind, poly in entry.representations().items()
]

def test_language_is_that_of_the_parsed_text():
    """The language a Poly carries, on every registry side, every mutant
    side and every catalog form, is the one its text gives when parsed anew;
    and none of them is without one."""
    polys = _EXPRESSIONS + [
        (desc, poly)
        for rel in relations.load_relations()
        for desc, mutant in relations.mutations(rel)
        for poly in (mutant.lhs, mutant.rhs) if poly is not None
    ]
    assert len(polys) > len(_EXPRESSIONS) + 398
    for what, poly in polys:
        assert poly.language in ("tensor", "matrix"), what
        assert poly.language == parse(expr.render(poly)).language, what


def test_language_table_matches_the_contexts(samples):
    """Each symbol of ``_SYMBOLS`` is built by the context at its declared
    rank, on one sample and along the sample axis of a batch; the context
    holds exactly the table's symbols, and a factor of the symbol parses to
    the symbol's language.  ``R`` alone is at two ranks."""
    for fbs in (samples[0], samples[:3]):
        batched = isinstance(fbs, list)
        ctx = expr.context(fbs)
        assert list(ctx.rules) == list(expr._SYMBOLS)
        for (name, rank), symbol in expr._SYMBOLS.items():
            shape = ctx.scaled(name, rank).num.shape
            assert shape[:batched] == (3,) * batched, (name, rank)
            assert len(shape) - batched == rank, (name, rank)
            text = f"{name}[{','.join('abcd'[:rank])}]" if rank else name
            assert np.ndim(evaluate(text, ctx)) == len(shape), (name, rank)
            assert parse(text).language == symbol.language
    names = [name for name, _ in expr._SYMBOLS]
    assert len(names) == 15 and len(set(names)) == 14
    assert {rank for name, rank in expr._SYMBOLS if name == "R"} == {0, 4}


# The rule ``pseudo_variant`` followed before the symbol table held the dual
# weights: the sign of n_plus - n_minus, counting Ap and BT against Am, B and
# detB (three B entries).
_PLUS_WEIGHT = {"Ap": 1, "BT": 1}
_MINUS_WEIGHT = {"Am": 1, "B": 1, "detB": 3}


def _two_dictionary_pseudo_variant(poly):
    out = []
    for mono in poly.monomials:
        n_plus = sum(_PLUS_WEIGHT.get(name, 0) for name, _ in mono.factors)
        n_minus = sum(_MINUS_WEIGHT.get(name, 0) for name, _ in mono.factors)
        if n_plus != n_minus:
            sign = 1 if n_plus > n_minus else -1
            out.append(expr.Monomial(coeff=mono.coeff * sign, factors=mono.factors))
    return replace(poly, monomials=tuple(out))


def test_pseudo_variant_equals_the_two_dictionary_rule():
    """On every matrix form of every catalog, every matrix-language side of
    the registry and every side of their mutants."""
    polys = [(f"{name}/{entry.label} {kind}", poly)
             for name, entries in catalog.CATALOGS.items() for entry in entries
             for kind, poly in entry.representations().items()
             if poly.language == "matrix"]
    rels = [(rel.name, rel) for rel in relations.load_relations()]
    rels += [m for _, rel in rels for m in relations.mutations(rel)]
    polys += [(f"{what} {side}", poly) for what, rel in rels
              for side, poly in (("lhs", rel.lhs), ("rhs", rel.rhs))
              if poly is not None and poly.language == "matrix"]
    assert len(polys) > 100
    assert any(m.monomials != _two_dictionary_pseudo_variant(m).monomials for _, m in polys)
    for what, poly in polys:
        assert pseudo_variant(poly) == _two_dictionary_pseudo_variant(poly), what


@pytest.mark.parametrize("text, language", [
    ("Sc*Sc", "tensor"), ("R*R", "matrix"), ("R[a,b,c,d]*R[a,b,c,d]", "tensor"),
    ("R*Sc", None), ("Rcc[a,b]*Rcc[a,b]", None), ("Rc[a,b,c]*Rc[a,b,c]", None),
    ("Ap[i,j]*Rc[i,j]", None),
])
def test_language_of_symbols(text, language):
    poly = parse(text)
    assert poly.language == language
    # kept by a rescaled or relabelled Poly, found again by combine
    assert expr.scale(poly, 3).language == language
    assert expr.relabel(poly, {"i": "k"}).language == language
    assert expr.combine((1, poly), (2, poly)).language == language


def _blocks(values):
    """Blocks from 20 entries: Ap's 6 and Am's first 5 upper-triangle entries
    (Am[2, 2] keeps the traces equal), then B's 9."""
    ap, am = np.zeros((3, 3), dtype=object), np.zeros((3, 3), dtype=object)
    upper = [(0, 0), (1, 1), (0, 1), (0, 2), (1, 2)]
    for v, (i, j) in zip(values[:6], upper + [(2, 2)]):
        ap[i, j] = ap[j, i] = v
    for v, (i, j) in zip(values[6:11], upper):
        am[i, j] = am[j, i] = v
    am[2, 2] = ap[0, 0] + ap[1, 1] + ap[2, 2] - am[0, 0] - am[1, 1]
    return FBlocks(Ap=ap, B=np.array(values[11:], dtype=object).reshape(3, 3), Am=am)


_SMALL = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8, -9, 7, 9, -3, 2, 3, -8, 4]

# per kind: block entries, generated examples (the Fraction reference is
# slow), and a fixed non-zero example checked on every run
_ENTRIES = {
    "small": (st.integers(-9, 9), 3, _blocks(_SMALL)),
    # magnitudes near 2**40 put every product of two or more on Python ints
    "near 2**40": (
        st.builds(lambda s, d: s * (2**40 + d), st.sampled_from([-1, 1]), st.integers(-9, 9)),
        2,
        _blocks([(-1) ** i * (2**40 + x) for i, x in enumerate(_SMALL)]),
    ),
    "fractions": (
        st.fractions(-9, 9, max_denominator=6),
        2,
        _blocks([Fraction(x, d) for x, d in zip(_SMALL, [2, 3, 5, 1, 6, 4] * 4)]),
    ),
}


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
def test_evaluate_equals_object_reference(kind):
    entries, examples, fixed = _ENTRIES[kind]

    # no shrinking: a failure reports its example at once
    @settings(max_examples=examples, deadline=None,
              phases=[Phase.explicit, Phase.generate])
    @example(fixed)
    @given(st.lists(entries, min_size=20, max_size=20).map(_blocks))
    def check(fb):
        ctx = catalog.contexts_for(fb)
        for what, poly in _EXPRESSIONS:
            got = evaluate(poly, ctx)
            assert _same(got, _reference(poly, ctx)), what

    check()



def _term_loop(poly, context):
    """``expr._evaluate_scaled`` as every context ran it before the terms
    were walked once: the gcd of each term, the lcm and the bound each in a
    pass of their own, then the loop over the terms in the dtype of the
    sum's bound, which multiplies in no coefficient of a part of bound 0."""
    terms = []
    for m in poly.monomials:
        part = context.part(m.factors, poly.free_labels)
        p, q = m.coeff.numerator, m.coeff.denominator * part.den
        g = math.gcd(p, q)
        terms.append((p // g, q // g, part))
    den = math.lcm(*(q for _, q, _ in terms))
    bound = sum(abs(p) * (den // q) * part.bound for p, q, part in terms)
    dtype = curvature.int_dtype(bound)
    total = 0
    for p, q, part in terms:
        value = part.num
        if dtype is object:
            value = (value.astype(object, copy=False)
                     if isinstance(value, np.ndarray) else int(value))
        if part.bound:
            value = p * (den // q) * value
        total = total + value
    return curvature.Scaled(np.asarray(total, dtype), den, bound)


def test_one_sample_scalar_sum_equals_the_term_loop(samples):
    """Every Poly the package evaluates (registry sides and residuals, scalar
    and tensor-valued, catalog forms, mutant sides and residuals) against
    the term loop: on one sample each of small, fractional, Einstein (parts
    with B are 0, of bound 0) and 2**70-scaled blocks (Python-int parts,
    totals past int64), and on a batch of the first three."""
    polys = _EXPRESSIONS + [(f"{rel.name} residual", rel.residual)
                            for rel in relations.load_relations()]
    polys += [(f"{desc} {kind}", poly) for rel in relations.load_relations()
              for desc, mutant in relations.mutations(rel)
              for kind, poly in (("lhs", mutant.lhs), ("rhs", mutant.rhs),
                                 ("residual", mutant.residual))
              if poly is not None]
    fb = samples[0]
    wide = FBlocks(Ap=fb.Ap * 2**70, B=fb.B * 2**70, Am=fb.Am * 2**70)
    fbs = [fb, _FIXED["fractions"], _einstein(fb)]
    fractional = past_int64 = zero_parts = 0
    shapes = set()
    for ctx in [expr.context(x) for x in (*fbs, wide)] + [expr.context(fbs)]:
        for what, poly in polys:
            got, want = expr._evaluate_scaled(poly, ctx), _term_loop(poly, ctx)
            assert got.num.dtype == want.num.dtype, what
            assert got.num.shape == want.num.shape, what
            assert got.num.tolist() == want.num.tolist(), what
            assert (got.den, got.bound) == (want.den, want.bound), what
            fractional += got.den > 1
            past_int64 += any(abs(x) >= 2**63 for x in np.ravel(got.num).tolist())
            shapes.add((ctx.batch is not None, got.num.ndim))
        zero_parts += sum(part.bound == 0 for part in ctx._parts.values())
    assert fractional and past_int64 and zero_parts
    # scalars and tensors of up to four free indices, of one sample and of
    # the batch
    assert shapes == {(False, 0), (False, 2), (False, 4), (True, 1), (True, 3), (True, 5)}


def test_quartic_bound_counts_summed_ranges():
    # max|R| = 2**15: max|R|**4 = 2**60 fits int64, but the contraction sums
    # 4**8 such products, and the exact value exceeds 2**63
    c = 2**14 * DELTA3
    fb = FBlocks(Ap=c, B=np.zeros((3, 3), dtype=object), Am=c)
    t = reconstruct(fb)
    top = max(abs(x) for x in t.flat)
    assert top**4 < 2**62 < top**4 * 4**8
    poly = parse("R[a,b,c,d]*R[c,d,e,f]*R[e,f,g,h]*R[g,h,a,b]")
    value = evaluate(poly, tensor_context(t))
    assert abs(value) >= 2**63
    assert _same(value, _reference(poly, tensor_context(t)))
    assert value == 1536 * 2**56  # tr M**4 for M = 2**15 (1 - P) on pairs


@pytest.mark.parametrize("batched", [False, True], ids=["one", "batch"])
@pytest.mark.parametrize("coeff", [2**70, 2**61 + 1], ids=["2**70", "2**61+1"])
@pytest.mark.parametrize("text", ["Rc[a,b]*Rc[a,b]", "R[a,c,d,e]*W[b,c,d,e]"],
                         ids=["scalar", "two-free"])
def test_kept_int64_contraction_widens_for_a_large_coefficient(text, coeff, batched):
    fbs = [random_fblocks(seed, GenConfig()) for seed in (3, 4)]

    def fresh():
        return expr.context(fbs if batched else fbs[0])

    poly = parse(text)
    ctx = fresh()
    evaluate(poly, ctx)  # coefficient 1: the contraction is kept on int64
    mono = poly.monomials[0]
    kept = ctx.part(mono.factors, poly.free_labels).num
    assert np.asarray(kept).dtype == np.int64
    if not batched and not poly.free_labels:
        assert type(kept) is np.int64
    big = scale(poly, coeff)  # past int64: the sum runs on Python ints
    got = evaluate(big, ctx)
    assert _same(got, evaluate(big, fresh()))
    if batched:
        for k, fb in enumerate(fbs):
            assert _same(got[k], _reference(big, expr.context(fb)))
    else:
        assert _same(got, _reference(big, ctx))
    assert ctx.part(mono.factors, poly.free_labels).num is kept


@pytest.mark.parametrize("text, batched", [
    ("1180591620717411303424*B[i,j]*B[i,j] + R", True),
    ("1180591620717411303424*B[i,k]*B[j,k] + Ap[i,j]", False),
], ids=["batched-scalar", "one-tensor"])
def test_zero_part_with_a_coefficient_past_int64(text, batched):
    """On Einstein samples a monomial with a B factor is 0, of bound 0, so
    the sum's bound leaves it on int64 however large its coefficient (here
    2**70): the coefficient is not multiplied in.  ``ranklab._numerators``
    sums through the same loop."""
    fbs = [_einstein(fb) for fb in random_fblocks_stream(3, 2, GenConfig())]
    poly = parse(text)
    ctx = expr.context(fbs if batched else fbs[0])
    got = expr._evaluate_scaled(poly, ctx)
    assert got.num.dtype == np.int64
    value = evaluate(poly, ctx)
    if batched:
        for k, fb in enumerate(fbs):
            assert _same(value[k], _reference(poly, expr.context(fb)))
    else:
        assert _same(value, _reference(poly, ctx))
    entry = catalog.CatalogEntry(label="x", matrix=poly)
    assert ranklab.sample_matrix([entry], fbs) == [
        [v] for fb in fbs for v in np.ravel(_reference(poly, expr.context(fb))).tolist()]


# ---------------------------------------------------------------------------
# Contraction plans: compiled once per factors, free labels and shapes


def _symbols(**arrays):
    """A context whose symbols are the given exact arrays, each at the rank
    of its array."""
    return expr.LazyContext({(name, np.ndim(a)): (lambda ctx, a=a: curvature.scaled(a))
                             for name, a in arrays.items()})


def _spy_path(monkeypatch):
    """The einsum specs (of one sample) of the paths that ``expr`` searches
    from now on, in order."""
    calls = []
    greedy_path = expr._greedy_path

    def spy(inputs, out, size):
        calls.append(",".join(inputs) + "->" + out)
        return greedy_path(inputs, out, size)

    monkeypatch.setattr(expr, "_greedy_path", spy)
    return calls


@pytest.mark.usefixtures("fresh_plans")
def test_pairwise_path_found_once_per_contraction(monkeypatch):
    calls = _spy_path(monkeypatch)
    # 4**8 index points each, so pairwise; the first two share their factors
    quartic = "R[a,b,c,d]*R[c,d,e,f]*R[e,f,g,h]*R[g,h,a,b]"
    poly = parse(f"{quartic} - 2*{quartic} + {quartic.replace('R', 'W')}")
    contexts = [tensor_context(reconstruct(random_fblocks(seed, GenConfig())))
                for seed in range(5)]
    values = [evaluate(poly, ctx) for ctx in contexts]
    # once, on the first sample: the R and the W chains share one spec
    assert calls == ["abcd,cdef,efgh,ghab->"]
    r_plan, w_plan = [plan for plan in expr._PLANS.values() if plan.steps]
    assert r_plan.steps is w_plan.steps
    for ctx, value in zip(contexts, values):
        assert _same(value, _reference(poly, ctx))


@pytest.mark.usefixtures("fresh_plans")
def test_mutant_compiles_no_new_plan(samples):
    rel = relations.get_relation("gauss_bonnet")
    # a sample of its own: the session's samples keep the contractions that
    # earlier tests made on them
    fb = samples[0]
    ctx = catalog.contexts_for(FBlocks(Ap=fb.Ap, B=fb.B, Am=fb.Am))
    evaluate(rel.residual, ctx)
    plans = dict(expr._PLANS)
    assert plans
    mutants = list(relations.mutations(rel))
    assert mutants
    for _, mutant in mutants:
        evaluate(mutant.residual, ctx)
        assert expr._PLANS == plans


@pytest.mark.parametrize("text, message", [
    ("Nope[i,j]*X[i,j]", "unknown symbol 'Nope'"),
    ("X[i,j,k]", "symbol 'X' has rank 2, got 3 indices"),
    ("X", "symbol 'X' needs 2 indices"),
    ("X[i,j]*Y[j,i]", "index 'j' ranges over 3 and 4 values"),
])
@pytest.mark.usefixtures("fresh_plans")
def test_failed_compile_raises_every_time(text, message):
    ctx = _symbols(X=np.ones((3, 3), dtype=object), Y=np.ones((4, 4), dtype=object))
    poly = parse(text)
    for _ in range(2):
        with pytest.raises(ExprError) as err:
            evaluate(poly, ctx)
        assert str(err.value) == message
    assert expr._PLANS == {}


@pytest.mark.parametrize("text, message", [
    ("R[a,b]", "symbol 'R' has rank 0 or 4, got 2 indices"),
    ("R[a,b,c]*Sc", "symbol 'R' has rank 0 or 4, got 3 indices"),
    ("Ap*R", "symbol 'Ap' needs 2 indices"),
    ("eps3[i,j]", "symbol 'eps3' has rank 3, got 2 indices"),
])
@pytest.mark.usefixtures("fresh_plans")
def test_wrong_rank_names_every_rank_of_the_symbol(samples, text, message):
    """A factor is its symbol at the rank of its labels: on a sample's context
    ``R`` is at ranks 0 and 4, and a factor of neither names both."""
    ctx = expr.context(samples[0])
    for _ in range(2):
        with pytest.raises(ExprError) as err:
            evaluate(text, ctx)
        assert str(err.value) == message
    assert expr._PLANS == {}


def test_one_poly_over_symbol_shapes():
    poly = parse("X[a,b]*X[b,a]")
    for n in (3, 4, 3):
        x = np.arange(n * n, dtype=object).reshape(n, n) - Fraction(1, 2)
        assert evaluate(poly, _symbols(X=x)) == np.trace(x @ x)
    # the range check runs for each new combination of shapes
    poly = parse("X[a,b]*Y[b,a]")
    ones = {n: np.ones((n, n), dtype=object) for n in (3, 4)}
    assert evaluate(poly, _symbols(X=ones[3], Y=ones[3])) == 9
    with pytest.raises(ExprError, match="index 'b' ranges over 3 and 4 values"):
        evaluate(poly, _symbols(X=ones[3], Y=ones[4]))


# ---------------------------------------------------------------------------
# The batch axis: one evaluation over a batch equals one per sample


def _einstein(fb):
    return FBlocks(Ap=fb.Ap, B=np.zeros((3, 3), dtype=object), Am=fb.Am)


_FIXED = {kind: fixed for kind, (_, _, fixed) in _ENTRIES.items()}
# a batch of samples, each of a kind drawn from _ENTRIES
_BATCH = st.lists(
    st.sampled_from(sorted(_ENTRIES)).flatmap(
        lambda kind: st.lists(_ENTRIES[kind][0], min_size=20, max_size=20)),
    min_size=1, max_size=4,
).map(lambda batch: [_blocks(values) for values in batch])
_EMPTY = Poly(monomials=(), free_labels=())
# monomials of scalar factors only, in both languages
_SCALARS = [parse(text) for text in ("R*R*R", "Sc*Sc", "detB", "1/3*R*detB - 2*R")]


# no shrinking: a failure reports its example at once
@settings(max_examples=3, deadline=None, phases=[Phase.explicit, Phase.generate])
# small ints next to one sample near 2**40: the whole batch runs on Python ints
@example([_FIXED["small"], _FIXED["near 2**40"], _FIXED["small"].parity()])
# Fractions over different denominators, next to ints
@example([_FIXED["fractions"],
          _blocks([Fraction(x, d) for x, d in zip(_SMALL, [7, 1, 9, 2] * 5)]),
          _FIXED["small"]])
# an Einstein batch: every term with a B factor is zero on every sample
@example([_einstein(_FIXED["small"]), _einstein(_FIXED["fractions"])])
@example([_FIXED["fractions"]])
@given(fbs=_BATCH)
def test_batched_evaluate_equals_per_sample(fbs):
    batched = expr.context(fbs)
    singles = [catalog.contexts_for(fb) for fb in fbs]
    expressions = (_EXPRESSIONS + [(render(poly), poly) for poly in _SCALARS]
                   + [("empty", _EMPTY)])
    for what, poly in expressions:
        got = evaluate(poly, batched)
        assert type(got) is np.ndarray and got.dtype == object, what
        assert len(got) == len(fbs), what
        for k, ctx in enumerate(singles):
            assert _same(got[k], evaluate(poly, ctx)), (what, k)
    # the per-sample oracle itself, on the last sample
    for what, poly in _EXPRESSIONS[::25]:
        ctx = singles[-1]
        assert _same(evaluate(poly, ctx), _reference(poly, ctx)), what


@pytest.mark.usefixtures("fresh_plans")
def test_batched_path_found_once_per_contraction(monkeypatch):
    calls = _spy_path(monkeypatch)
    quartic = "R[a,b,c,d]*R[c,d,e,f]*R[e,f,g,h]*R[g,h,a,b]"
    poly = parse(f"{quartic} - 2*{quartic} + {quartic.replace('R', 'W')}")
    forms = [entry.form() for entry in catalog.catalog("quartic")]
    fbs = [random_fblocks(seed, GenConfig()) for seed in range(60)]
    values = []
    for n in (36, 60):
        ctx = expr.context(fbs[:n])
        values.append(evaluate(poly, ctx))
        for p in forms:
            evaluate(p, ctx)
        if n == 36:
            # on per-sample shapes, once per distinct pairwise spec; the
            # plans of one spec share its steps
            assert calls[0] == "abcd,cdef,efgh,ghab->"
            assert len(calls) == len(expr._STEPS)
            shared = [plan.steps for plan in expr._PLANS.values() if plan.steps]
            assert len(shared) > len(calls)
            assert ({id(s) for s in shared}
                    == {id(s) for s in expr._STEPS.values()})
            found = list(calls)
    assert calls == found
    for n, value in zip((36, 60), values):
        assert value.shape == (n,)
        for fb, v in zip(fbs, value):
            assert _same(v, evaluate(poly, expr.context(fb)))


@pytest.mark.parametrize("wide", [False, True], ids=["int64", "object"])
def test_batched_routes_agree(samples, wide, monkeypatch):
    # every batched contraction of up to _ONE_PASS_POINTS per sample in one
    # einsum pass, then at the batched cut, where those over
    # _BATCH_ONE_PASS_POINTS run pairwise (larger ones run pairwise on both
    # routes); a sample scaled by 2**70 puts the whole batch on Python ints
    fbs = [FBlocks(Ap=fb.Ap, B=fb.B, Am=fb.Am) for fb in samples[:3]]
    if wide:
        big = fbs[1]
        fbs = [fbs[0], FBlocks(Ap=big.Ap * 2**70, B=big.B * 2**70, Am=big.Am * 2**70)]
    values, pairwise = {}, {}
    for route, cut in (("one pass", expr._ONE_PASS_POINTS),
                       ("cut", expr._BATCH_ONE_PASS_POINTS)):
        monkeypatch.setattr(expr, "_BATCH_ONE_PASS_POINTS", cut)
        monkeypatch.setattr(expr, "_PLANS", {})
        monkeypatch.setattr(expr, "_STEPS", {})
        ctx = expr.context(fbs)
        values[route] = [evaluate(poly, ctx) for _, poly in _EXPRESSIONS]
        pairwise[route] = sum(1 for plan in expr._PLANS.values() if plan.steps)
    assert pairwise["cut"] > pairwise["one pass"]
    for (what, _), a, b in zip(_EXPRESSIONS, values["one pass"], values["cut"]):
        assert _same(a, b), what


# ---------------------------------------------------------------------------
# Pairwise steps: the path's cost, and each step's matmul against a loop


def _multiply_adds(inputs, out, size, path):
    """Multiply-adds of contracting operands with these label strings along
    ``path`` (position tuples in ``np.einsum_path``'s form): per step, the
    points of its labels' ranges, times the operands less one."""
    sets, total = [set(t) for t in inputs], 0
    for step in path:
        picked = [sets.pop(i) for i in sorted(step, reverse=True)]
        joint = set().union(*picked)
        total += math.prod(size[l] for l in joint) * (len(picked) - 1)
        sets.append(joint & set(out).union(*sets))
    return total


@pytest.mark.usefixtures("fresh_plans")
def test_path_costs_no_more_than_numpys_greedy(samples, monkeypatch):
    calls = {}
    greedy_path = expr._greedy_path

    def spy(inputs, out, size):
        calls.setdefault(phase, {})[(tuple(inputs), out)] = size
        return greedy_path(inputs, out, size)

    monkeypatch.setattr(expr, "_greedy_path", spy)
    polys = [p for name in catalog.catalog_names() for e in catalog.catalog(name)
             for p in (e.tensor, e.matrix, e.fform) if p is not None]
    polys += [p for r in relations.load_relations() for p in (r.lhs, r.rhs) if p is not None]
    fbs = [FBlocks(Ap=fb.Ap, B=fb.B, Am=fb.Am) for fb in samples[:2]]
    for phase, ctx in (("one", expr.context(fbs[0])), ("batch", expr.context(fbs))):
        for p in polys:
            evaluate(p, ctx)
    # every distinct search, of single-sample plans and of batched ones
    assert len(calls["one"]) > 30 and len(calls["batch"]) > 30
    for (inputs, out), size in {**calls["one"], **calls["batch"]}.items():
        spec = ",".join(inputs) + "->" + out
        dummies = [np.broadcast_to(np.int64(0), [size[l] for l in t]) for t in inputs]
        theirs = np.einsum_path(spec, *dummies, optimize="greedy")[0][1:]
        ours = greedy_path(inputs, out, size)
        assert (_multiply_adds(inputs, out, size, ours)
                <= _multiply_adds(inputs, out, size, theirs)), spec


def _loop(spec, arrays):
    """The contraction ``spec`` of object arrays, by one Python loop over
    every point of its labels' ranges."""
    inputs, out = spec.split("->")
    terms = inputs.split(",")
    size = {l: n for t, a in zip(terms, arrays) for l, n in zip(t, a.shape)}
    labels = sorted(size)
    total = np.zeros([size[l] for l in out], dtype=object)
    for point in itertools.product(*(range(size[l]) for l in labels)):
        at = dict(zip(labels, point))
        product = 1
        for t, a in zip(terms, arrays):
            product *= a[tuple(at[l] for l in t)]
        total[tuple(at[l] for l in out)] += product
    return total


@st.composite
def _pair_spec(draw):
    """Two label strings, labels repeated within one allowed, and the result
    labels, some of theirs in any order."""
    term = st.lists(st.sampled_from("abcd"), max_size=4).map("".join)
    a, b = draw(term), draw(term)
    out = draw(st.permutations(sorted(set(a + b))))
    return a, b, "".join(out[:draw(st.integers(0, len(out)))])


# the ranges of a, b, c, d; the batch size (None for one sample); whether the
# first operand is a stride-0 broadcast along its leading axis; and whether
# the entries are Python ints past int64 (else int64 at the bound)
@settings(max_examples=60, deadline=None)
@example(("aab", "bc", "c"), (2, 3, 2, 1), None, False, False, 0)  # a trace
@example(("ab", "cd", "dacb"), (2, 3, 2, 2), None, False, True, 1)  # an outer product
@example(("abc", "cba", ""), (3, 2, 2, 1), 2, False, False, 2)  # a 0-d result
@example(("abcd", "cdab", ""), (3, 3, 3, 3), 3, True, False, 3)  # a batched table
@example(("ab", "bc", "ca"), (3, 3, 3, 1), None, True, True, 4)
@example(("abc", "cba", ""), (3, 2, 2, 1), None, False, True, 5)
@given(_pair_spec(), st.tuples(*[st.integers(1, 3)] * 4), st.one_of(st.none(), st.integers(1, 3)),
       st.booleans(), st.booleans(), st.integers(0, 2**32))
def test_step_equals_a_loop(terms, ranges, batch, broadcast, wide, seed):
    a, b, out = terms
    size = dict(zip("abcd", ranges))
    summed = math.prod(size[l] for l in set(a + b) - set(out))
    # every entry at most top: the plans' bound summed * top * top holds
    top = 2**70 if wide else math.isqrt((curvature.INT64_BOUND - 1) // summed)
    rng = random.Random(seed)
    lead = () if batch is None else (batch,)
    arrays = []
    for k, t in enumerate((a, b)):
        shape = lead + tuple(size[l] for l in t)
        stride0 = broadcast and k == 0 and shape
        n = math.prod(shape[1:] if stride0 else shape)
        entries = [rng.choice((-top, top, rng.randint(-top, top))) for _ in range(n)]
        x = np.array(entries, dtype=object).reshape(shape[1:] if stride0 else shape)
        x = x if wide else x.astype(np.int64)
        arrays.append(np.broadcast_to(x, shape) if stride0 else x)
    steps = expr._pairwise_steps([a, b], out, size, batch is not None)
    got = expr._contract(steps, list(arrays))
    spec = f"{a},{b}->{out}" if batch is None else f"z{a},z{b}->z{out}"
    want = _loop(spec, [x.astype(object) for x in arrays])
    # a 0-d result comes back as a scalar: an np.int64 or a Python int
    if isinstance(got, np.ndarray) or not wide:
        assert got.dtype == (object if wide else np.int64)
    else:
        assert type(got) is int
    assert np.asarray(got, dtype=object).tolist() == want.tolist()
