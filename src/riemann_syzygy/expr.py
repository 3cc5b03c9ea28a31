"""A small exact index-contraction expression language.

Expressions are sums of monomials.  A monomial is an optional rational
coefficient followed by ``*``-separated factors; each factor is either a bare
scalar symbol (``R``, ``detB``, ``Sc``) or an indexed symbol with
comma-separated index labels in square brackets (``R[a,b,c,d]``,
``Ap[i,j]``).  An index label occurring twice in a monomial is summed over;
a label occurring once is a free index of the expression.  Examples:

    R[a,b,a,b]                          scalar curvature
    Rc[a,c]*Rc[c,b] - 1/4*Sc*Rc[a,b]    a free-index (a, b) tensor
    -2*Ap[i,j]*B[j,k]*BT[k,i]           a matrix-language trace word

Evaluation is exact and runs on integers.  A context holds each symbol in
one form only, its scaled form (``curvature.Scaled``): integer numerators
over one denominator, made on the symbol's first use; the numerators are
an array for every symbol, 0-d for a scalar.  The symbol's exact value,
when asked for, is derived from that form.  Every factor of a monomial,
scalars too, is an operand of one contraction; a scalar's has no index.
An expression is brought over one denominator too: each monomial's
coefficient, times its symbols' denominators, over their least common
multiple.  A monomial is then bounded by |coefficient| * the product of its
factors' largest numerators * the product of the ranges of its summed
indices; that bound covers every intermediate of its contraction, in any
order of summing.  When the sum of these bounds over all monomials is below
2**62 the contractions run on int64, and otherwise the same contractions run
on object arrays of Python ints.  Only the final division makes
``fractions.Fraction`` entries.

A small contraction runs as one ``np.einsum`` pass.  A large one runs two
operands at a time, each step one ``np.matmul`` of the two reshaped into
stacks of matrices; the order of the steps is found by a greedy scored as
numpy's ``einsum_path(optimize="greedy")`` scores it.  What a monomial's
contraction needs apart from the sample (index letters, einsum spec, rank
and range checks, the product of the summed ranges and, for a large
contraction, its steps with each step's permutations and reshapes) is
compiled once per process into a plan, keyed by the monomial's factors, the
free labels, the shapes of the factors on one sample and whether the context
is batched; the coefficient is not part of the key.  A context keeps what a
monomial takes from it apart from its coefficient (``LazyContext.part``):
the product of its factors' denominators, the bound without the
coefficient, and the exact contraction of their numerators, on int64 when
that bound allows.  It is made on the monomial's first evaluation in
the context and kept for the context's life, keyed by the factors and the
free labels.  Every later expression holding the monomial, another
relation's side or a mutant that differs in a coefficient, only multiplies
its coefficient in; when the sum's bound needs Python ints, a kept int64
contraction is widened first.

Two evaluation contexts are provided: the tensor language of a rank-4
curvature tensor and the matrix language of its blocks.  No symbol has the
same name and rank in both, so one table, (symbol, rank) -> language, gives
an expression's language from its symbols: ``Poly.language``, looked up when
``parse`` or ``combine`` makes the Poly and kept by ``dataclasses.replace``.

A context may also hold a batch of N samples.  Every symbol then carries a
leading sample axis (``R`` of the tensor language has shape
(N, 4, 4, 4, 4), the scalars ``Sc``, ``R`` and ``detB`` shape (N,)) over
one denominator, the least common multiple over the batch, and a monomial
runs along a batched plan: the same contraction with one more letter, the
sample's, on every factor and on the output, and the pairwise steps found
from the shapes of one sample, so one plan serves every N.  The bound, and
so the choice between int64 and Python ints, is the largest over the batch.
``evaluate`` then returns an (N, *free) object array, sample by sample, in
the same exact normal form as one sample's value.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .curvature import (
    Rank4Tensor,
    Scaled,
    derived,
    dual2,
    int_dtype,
    ricci,
    ricci_scalar,
    scaled,
    unscaled,
    weyl6,
)
from .decomp import FBlocks, _trace, reconstruct_scaled, stacked
from .thooft import int64

__all__ = [
    "Monomial",
    "Poly",
    "parse",
    "relabel",
    "evaluate",
    "LazyContext",
    "tensor_context",
    "matrix_context",
    "pseudo_variant",
    "ExprError",
]


class ExprError(ValueError):
    """Raised for malformed expressions or evaluation mismatches."""


_LABEL_RE = re.compile(r"^[a-z][a-z0-9]*$")
_RATIONAL_RE = re.compile(r"^[0-9]+(/[0-9]+)?$")


@dataclass(frozen=True)
class Monomial:
    """A rational coefficient times a product of (symbol, labels) factors."""

    coeff: Fraction
    factors: tuple  # of (name, tuple_of_labels); labels == () for scalars

    def free_labels(self):
        counts = {}
        for _, labels in self.factors:
            for lbl in labels:
                counts[lbl] = counts.get(lbl, 0) + 1
        bad = sorted(l for l, c in counts.items() if c > 2)
        if bad:
            raise ExprError(
                f"index label(s) {', '.join(bad)} appear more than twice"
            )
        return tuple(sorted(l for l, c in counts.items() if c == 1))


# The language of each symbol at its rank; see the contexts below.
_LANGUAGE_OF = {
    **dict.fromkeys([("R", 4), ("Rc", 2), ("Sc", 0), ("W", 4), ("Rt", 4),
                     ("eps", 4), ("delta", 2)], "tensor"),
    **dict.fromkeys([("Ap", 2), ("Am", 2), ("B", 2), ("BT", 2), ("eps3", 3),
                     ("delta3", 2), ("R", 0), ("detB", 0)], "matrix"),
}


@dataclass(frozen=True)
class Poly:
    """A sum of monomials sharing one set of free index labels, in one
    ``language``, "tensor" or "matrix" (looked up when not given), or None
    when its symbols fit no single language."""

    monomials: tuple
    free_labels: tuple
    language: str | None = None

    def __post_init__(self):
        if self.language is None:
            languages = {_LANGUAGE_OF.get((name, len(labels)))
                         for m in self.monomials for name, labels in m.factors}
            if len(languages) == 1:
                object.__setattr__(self, "language", languages.pop())

    @property
    def is_scalar(self):
        return not self.free_labels


def _parse_factor(token):
    token = token.strip()
    m = re.match(r"^([A-Za-z][A-Za-z0-9]*)\s*(?:\[([^\]]*)\])?$", token)
    if not m:
        raise ExprError(f"malformed factor {token!r}")
    name, idx = m.group(1), m.group(2)
    if idx is None:
        return (name, ())
    labels = tuple(s.strip() for s in idx.split(","))
    for lbl in labels:
        if not _LABEL_RE.match(lbl):
            raise ExprError(f"malformed index label {lbl!r} in {token!r}")
    return (name, labels)


def _parse_term(sign, text):
    tokens = [t.strip() for t in text.split("*")]
    if any(not t for t in tokens):
        raise ExprError(f"empty factor in term {text!r}")
    coeff = Fraction(sign)
    start = 0
    if _RATIONAL_RE.match(tokens[0]):
        try:
            coeff *= Fraction(tokens[0])
        except ZeroDivisionError:
            raise ExprError(f"zero denominator in term {text!r}") from None
        start = 1
        if start == len(tokens):
            raise ExprError(f"term {text!r} has a coefficient but no factor")
    factors = tuple(_parse_factor(t) for t in tokens[start:])
    return Monomial(coeff=coeff, factors=factors)


def parse(text) -> Poly:
    """Parse an expression string into a Poly."""
    if not isinstance(text, str) or not text.strip():
        raise ExprError("empty expression")
    # split into signed terms (the grammar has no parentheses)
    pieces = re.split(r"(?=[+-])", text)
    terms = []
    sign = 1
    for piece in pieces:
        piece = piece.strip()
        if not piece:
            continue
        if piece[0] == "+":
            sign, piece = 1, piece[1:].strip()
        elif piece[0] == "-":
            sign, piece = -1, piece[1:].strip()
        else:
            sign = 1
        if not piece:
            raise ExprError(f"dangling sign in {text!r}")
        terms.append(_parse_term(sign, piece))
    if not terms:
        raise ExprError("empty expression")
    free = terms[0].free_labels()
    for t in terms[1:]:
        if t.free_labels() != free:
            raise ExprError(
                f"inconsistent free labels: {t.free_labels()} vs {free}"
            )
    return Poly(monomials=tuple(terms), free_labels=free)


def as_poly(x) -> Poly:
    """The Poly of an expression given as a string (parsed) or as a Poly
    (returned unchanged); ExprError naming the type for anything else."""
    if isinstance(x, Poly):
        return x
    if isinstance(x, str):
        return parse(x)
    raise ExprError(f"expected an expression string or a Poly, got {type(x).__name__}")


def of_language(x, language=None) -> Poly:
    """``as_poly(x)``; an ExprError naming each symbol, its rank and its
    language when the Poly fits no single language, or not ``language``."""
    poly = as_poly(x)
    if poly.language is None or language not in (None, poly.language):
        symbols = dict.fromkeys((n, len(l)) for m in poly.monomials for n, l in m.factors)
        got = ", ".join(f"{n} of rank {r} ({_LANGUAGE_OF.get((n, r), 'no language')})"
                        for n, r in symbols) or "none"
        want = f"the {language}" if language else "one"
        raise ExprError(f"expected symbols of {want} language, got {got}")
    return poly


def scale(poly, c):
    """Multiply a Poly (or expression string) by an exact rational."""
    poly = as_poly(poly)
    c = Fraction(c)
    return replace(poly, monomials=() if c == 0 else tuple(
        Monomial(coeff=m.coeff * c, factors=m.factors) for m in poly.monomials))


def combine(*terms):
    """Exact linear combination: combine((c1, e1), (c2, e2), ...) = sum ci*ei."""
    polys = [scale(e, c) for c, e in terms]
    free = polys[0].free_labels
    for p in polys[1:]:
        if p.monomials and p.free_labels != free:
            raise ExprError("cannot combine expressions with different free labels")
    monos = tuple(m for p in polys for m in p.monomials)
    return Poly(monomials=monos, free_labels=free)


def relabel(poly, mapping):
    """Rename index labels; merging two free labels contracts them."""
    monos = tuple(
        Monomial(
            coeff=m.coeff,
            factors=tuple(
                (name, tuple(mapping.get(l, l) for l in labels))
                for name, labels in m.factors
            ),
        )
        for m in poly.monomials
    )
    free = monos[0].free_labels() if monos else ()
    for m in monos[1:]:
        if m.free_labels() != free:
            raise ExprError("relabeling produced inconsistent free labels")
    return replace(poly, monomials=monos, free_labels=free)


def render(poly):
    """Deterministic string form re-parseable by parse()."""
    parts = []
    for m in poly.monomials:
        c = m.coeff
        factors = "*".join(
            name if not labels else f"{name}[{','.join(labels)}]"
            for name, labels in m.factors
        )
        mag = abs(c)
        body = factors if mag == 1 else f"{mag}*{factors}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Evaluation

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

# A contraction over at most this many index points runs in one einsum pass;
# larger ones run pairwise, one matmul per step, along a path found once per
# plan.  Timed on int64 over every distinct contraction of two or more arrays
# that the registry and the catalogs make on one sample (numpy 2.4, 2-CPU
# Xeon): at 2**10 points one pass wins 5 of 6; at 2**12, which this cut keeps
# in one pass, the steps win 15 of 24 (18 against 28 us at the median); at
# 2**14 they win all 8 and at 2**16 all 29.  End to end, verify_all(s, 10)
# in a fresh process took 84 ms with the cut at 2**10 and 78 ms at 2**12
# (medians of 20 interleaved runs each, quartiles 71-108 ms).
_ONE_PASS_POINTS = 2**12
# A batched contraction shares each step's call overhead among its samples,
# so it goes pairwise from fewer points per sample.  Timed as above over
# batches of 40: one pass wins 9 of 11 at 27 points per sample, and the steps
# win 3 of 3 at 64, 22 of 22 at 81 and 11 of 13 at 256.  End to end, the four
# rank reports of the rank-catalogs benchmark (36-60 samples per catalog) in
# a fresh process took 91 ms with the cut at 2**6 and 85 ms at 2**8 (medians
# of 16 interleaved runs each, quartiles 80-123 ms); in another set of 10,
# 120 ms at both and 148 ms at 2**12.
_BATCH_ONE_PASS_POINTS = 2**8


def _contract(spec, steps, arrays):
    """``np.einsum(spec, *arrays)`` on arrays of one dtype, in one pass when
    ``steps`` is empty, otherwise pairwise along the stored ``steps`` (see
    ``_Step``), each one ``np.matmul``.  Every step keeps the dtype: int64
    matmuls stay int64 and object ones multiply and add Python ints, and each
    of their partial sums is a partial sum of the whole contraction, so the
    plan's bound covers it."""
    if not steps:
        return np.einsum(spec, *arrays)
    for picked, operands, shape, perm in steps:
        x, y = [_operand(arrays.pop(i), *how) for i, how in zip(picked, operands)]
        z = np.matmul(x, y).reshape(shape)
        arrays.append(z if perm is None else z.transpose(perm))
    return arrays[0][()]


def _operand(x, diagonals, summed, perm, shape):
    """One operand of a step as a stack of matrices (see ``_Step``)."""
    for axes in diagonals:
        x = x.diagonal(0, *axes)
    if summed:
        x = x.sum(summed, keepdims=True)
    return x.transpose(perm).reshape(shape)


def _greedy_path(inputs, out, size):
    """The order in which to contract, two at a time, operands with these
    label strings into the labels ``out``, each label ranging over
    ``size[label]`` values: position pairs (i, j), i < j, into the operands
    left, whose result joins them at the end.  Each step takes, among the
    pairs that share a label (or among all pairs when none do), the one whose
    result is smallest against the sizes of the two, then the one of fewest
    operations: the greedy score of opt_einsum (Smith & Gray, JOSS 3:753,
    2018) that ``np.einsum_path(optimize="greedy")`` uses."""
    sets = [frozenset(t) for t in inputs]
    out = frozenset(out)

    def points(labels):
        return math.prod(map(size.__getitem__, labels))

    path = []
    while len(sets) > 1:
        # labels on two or more operands, and on three or more
        once = twice = more = frozenset()
        for s in sets:
            more |= twice & s
            twice |= once & s
            once |= s
        kept = out | more
        sizes = [points(s) for s in sets]
        pairs = [(i, j) for i in range(len(sets)) for j in range(i + 1, len(sets))]
        best = None
        for i, j in [(i, j) for i, j in pairs if sets[i] & sets[j]] or pairs:
            joint = sets[i] | sets[j]
            res = joint & (kept | (twice - (sets[i] & sets[j])))
            score = (points(res) - sizes[i] - sizes[j],
                     points(joint) * (1 if res == joint else 2))
            if best is None or score < best[0]:
                best = score, i, j, res
        _, i, j, res = best
        del sets[j], sets[i]
        sets.append(res)
        path.append((i, j))
    return path


class _Step(NamedTuple):
    """One pairwise step of a plan, compiled from the labels of one sample:
    pop the operands at ``picked`` (the later position first); of each, take
    the ``diagonals`` (axis pairs) of a label it holds twice and sum the
    ``summed`` axes of labels that neither the other operand nor the result
    holds, keeping them as axes of length 1; transpose it by its ``perm`` and
    reshape it by its ``shape`` into a stack of matrices, (batch, kept,
    contracted) for the first and (batch, contracted, kept) for the second,
    where the batch labels are held by both and by the result; ``np.matmul``
    the two, reshape the product by ``shape`` and transpose it by ``perm``
    (None when its axes are already in order).  In a batched plan the sample
    axis leads every operand and joins the batch."""

    picked: tuple
    operands: tuple  # two (diagonals, summed, perm, shape)
    shape: tuple
    perm: tuple | None


def _step(picked, pair, keep, out, size, batched):
    """The ``_Step`` that contracts operands with the label strings ``pair``
    into the labels ``out`` or, when ``out`` is None, into those of ``keep``
    that the pair holds, in the order the matmul leaves them; and the labels
    of its result."""
    lead = (0,) if batched else ()
    k = len(lead)
    labels, traces = [], []
    for t, other in zip(pair, pair[::-1]):
        t, diagonals = list(t), []
        for l in dict.fromkeys(t):
            while t.count(l) > 1:
                i = t.index(l)
                j = t.index(l, i + 1)
                diagonals.append((i + k, j + k))
                del t[j], t[i]
                t.append(l)
        summed = tuple(n + k for n, l in enumerate(t)
                       if l not in keep and l not in other)
        labels.append(t)
        traces.append((tuple(diagonals), summed))
    a, b = labels
    batch = [l for l in a if l in b and l in keep]
    contracted = [l for l in a if l in b and l not in keep]
    kept_a = [l for l in a if l not in b and l in keep]
    kept_b = [l for l in b if l not in a and l in keep]

    def points(ls):
        return math.prod(size[l] for l in ls)

    def operand(t, trace, order, shape):
        # the summed axes, of length 1 once summed, go last
        order = order + [l for l in t if l not in order]
        return trace + (lead + tuple(t.index(l) + k for l in order), shape)

    operands = (
        operand(a, traces[0], batch + kept_a + contracted,
                (-1, points(kept_a), points(contracted))),
        operand(b, traces[1], batch + contracted + kept_b,
                (-1, points(contracted), points(kept_b))),
    )
    res = batch + kept_a + kept_b
    shape = (-1,) * k + tuple(size[l] for l in res)
    perm = None
    if out is not None and list(out) != res:
        perm = lead + tuple(res.index(l) + k for l in out)
        res = list(out)
    return _Step(picked, operands, shape, perm), "".join(res)


def _pairwise_steps(terms, out, size, batched):
    """The ``_Step``s contracting operands with these label strings (of one
    sample) into ``out`` along ``_greedy_path``."""
    terms, steps = list(terms), []
    for i, j in _greedy_path(terms, out, size):
        pair = (terms.pop(j), terms.pop(i))
        step, res = _step((j, i), pair, set(out).union(*terms),
                          None if terms else out, size, batched)
        steps.append(step)
        terms.append(res)
    return tuple(steps)


class _Plan(NamedTuple):
    """A monomial's contraction, apart from its coefficient and its sample:
    the product ``summed`` of the ranges of its summed indices, the einsum
    ``spec`` of all its factors (a scalar's subscript is empty, or the
    sample letter alone in a batched plan), and its pairwise ``steps``
    (``_Step``s; empty for one einsum pass over ``spec``)."""

    summed: int
    spec: str
    steps: tuple


_PLANS = {}


def _batch_spec(spec, b):
    """``spec`` with the sample letter ``b`` leading every term and the
    output."""
    inputs, out = spec.split("->")
    return ",".join(b + t for t in inputs.split(",")) + "->" + b + out


def _compile(factors, free, shapes, batched=False) -> _Plan:
    """The plan of a monomial with these factors and free labels whose
    factors' numerators have these shapes per sample (None for a symbol
    missing from the context), made on first request and kept for the
    process; ``batched`` when every factor has a leading sample axis.  The
    plan serves batches of every size.  A monomial that does not fit its
    shapes, or has no factor, raises, and nothing is kept."""
    key = (factors, free, shapes, batched)
    if key in _PLANS:
        return _PLANS[key]
    if not factors:
        raise ExprError("a monomial with no factor")
    subs = []
    letter_of = {}
    size_of = {}

    def letter(lbl):
        if lbl not in letter_of:
            if len(letter_of) >= len(_LETTERS):
                raise ExprError("too many distinct index labels")
            letter_of[lbl] = _LETTERS[len(letter_of)]
        return letter_of[lbl]

    for (name, labels), shape in zip(factors, shapes):
        if shape is None:
            raise ExprError(f"unknown symbol {name!r}")
        rank = len(shape)
        if not labels and rank:
            raise ExprError(f"symbol {name!r} needs {rank} indices")
        if rank != len(labels):
            raise ExprError(
                f"symbol {name!r} has rank {rank}, got {len(labels)} indices"
            )
        subs.append("".join(letter(l) for l in labels))
        for lbl, n in zip(labels, shape):
            if size_of.setdefault(lbl, n) != n:
                raise ExprError(
                    f"index {lbl!r} ranges over {size_of[lbl]} and {n} values"
                )

    if not size_of and free:
        raise ExprError("free indices in a purely scalar monomial")
    summed = math.prod(size_of[l] for l in set(size_of) - set(free))
    out = "".join(letter(l) for l in free)
    spec = ",".join(subs) + "->" + out
    steps = ()
    cut = _BATCH_ONE_PASS_POINTS if batched else _ONE_PASS_POINTS
    if len(subs) > 1 and math.prod(size_of.values()) > cut:
        size = {letter_of[l]: n for l, n in size_of.items()}
        steps = _pairwise_steps(subs, out, size, batched)
    if batched:
        spec = _batch_spec(spec, letter(None))  # a letter no label has
    plan = _PLANS[key] = _Plan(summed, spec, steps)
    return plan


class _Part(NamedTuple):
    """What a monomial takes from one context, apart from its coefficient:
    ``q`` is the product of its factors' denominators; ``bound``, the
    product of the summed ranges and of the factors' largest numerators, is
    at least every entry of the contraction of the numerators and of each of
    its intermediates, on every sample; ``value`` is that contraction, exact
    on int64 when ``bound`` and every factor's numerators fit it."""

    q: int
    bound: int
    value: object


def _part(factors, free, context) -> _Part:
    forms = [context.scaled(name) if name in context else None
             for name, _ in factors]
    batched = context.batch is not None
    # per sample: without the sample axis of a batched context
    shapes = tuple(None if f is None else f.num.shape[batched:] for f in forms)
    plan = _compile(factors, free, shapes, batched)
    q = math.prod(f.den for f in forms)
    bound = plan.summed * math.prod(f.bound for f in forms)
    # a zero factor makes the bound 0 but leaves the others' numerators wide
    dtype = int_dtype(max(bound, *(f.bound for f in forms)))
    value = _contract(plan.spec, plan.steps,
                      [f.num.astype(dtype, copy=False) for f in forms])
    return _Part(q, bound, value)


def evaluate(poly, context):
    """Evaluate a Poly (or expression string) in the given symbol context.

    Scalars come back as int/Fraction; free-index expressions as object
    arrays indexed by the free labels in sorted order.  In a batched context
    (see ``tensor_context``) the value of every sample comes back at once,
    as an object array whose leading axis runs over the samples: of shape
    (N,) for a scalar, (N, *free) otherwise.
    """
    poly = as_poly(poly)
    if not poly.monomials:
        if poly.free_labels:
            raise ExprError("cannot evaluate an empty expression with free indices")
        return np.zeros(context.batch, dtype=object) if context.batch else 0
    # each monomial as p / q times its part's contraction, in lowest terms
    terms = []
    for m in poly.monomials:
        part = context.part(m.factors, poly.free_labels)
        p, q = m.coeff.numerator, m.coeff.denominator * part.q
        g = math.gcd(p, q)
        terms.append((p // g, q // g, part))
    # over the common denominator each numerator p, and its bound, grow by den/q
    den = math.lcm(*(q for _, q, _ in terms))
    dtype = int_dtype(sum(abs(p) * (den // q) * part.bound for p, q, part in terms))
    total = 0
    for p, q, part in terms:
        value = part.value
        if dtype is object:
            # a contraction kept on int64 (a 0-d one is an np.int64) is
            # widened before p, which may pass int64, multiplies it
            value = (value.astype(object, copy=False)
                     if isinstance(value, np.ndarray) else int(value))
        total = total + p * (den // q) * value
    return unscaled(total, den)


def _table(name):
    """The scaled form of a constant symbol table (entries 0, 1 and -1),
    repeated along the sample axis of a batched context."""
    def rule(ctx):
        table = int64(name)
        if ctx.batch is not None:
            table = np.broadcast_to(table, (ctx.batch, *table.shape))
        return Scaled(table, 1, 1)
    return rule


class LazyContext(Mapping):
    """A read-only symbol context holding each symbol in one form, its
    scaled form.  ``rules`` maps each name to a function of the context that
    returns that form; a rule runs on its symbol's first use only and its
    result is kept.

    ``ctx[name]`` is the exact value of the scaled form, made on first
    request and kept; ``values`` may seed it, so an input keeps the value it
    was given.  ``batch`` is None for one sample; for a batch of N samples
    it is N, and every symbol's numerators carry a leading axis of N.

    ``part(factors, free)`` is a monomial's share of ``evaluate`` that does
    not depend on its coefficient (see ``_Part``): its denominators, its
    bound and the exact contraction of its numerators.  It too is made on
    first request and kept, so every expression evaluated in the context,
    every relation side or mutant of one, contracts a monomial once and then
    only multiplies in its own coefficient.  Everything is kept for as long
    as the context lives.
    """

    def __init__(self, rules, batch=None, **values):
        self._rules = rules
        self._values = values
        self._scaled = {}
        self._parts = {}
        self.batch = batch

    def __getitem__(self, name):
        if name not in self._values:
            s = self.scaled(name)
            self._values[name] = unscaled(s.num, s.den)
        return self._values[name]

    def __contains__(self, name):
        return name in self._rules

    def __iter__(self):
        return iter(self._rules)

    def __len__(self):
        return len(self._rules)

    def scaled(self, name):
        if name not in self._scaled:
            self._scaled[name] = self._rules[name](self)
        return self._scaled[name]

    def part(self, factors, free):
        key = (factors, free)
        if key not in self._parts:
            self._parts[key] = _part(factors, free, self)
        return self._parts[key]


# Rc, Sc, 6 W and 2 Rt from R's numerators, with the growth of each builder
# (see curvature)
_TENSOR_RULES = {
    "Rc": lambda ctx: derived(ricci, 4, ctx.scaled("R")),
    "Sc": lambda ctx: derived(ricci_scalar, 16, ctx.scaled("R")),
    "W": lambda ctx: derived(weyl6, 128, ctx.scaled("R"), 6),
    "Rt": lambda ctx: derived(dual2, 16, ctx.scaled("R"), 2),
    "eps": _table("EPS4"),
    "delta": _table("DELTA4"),
}

_MATRIX_RULES = {
    # B^T, or the transpose of each B of a batch
    "BT": lambda ctx: derived(lambda n: n.swapaxes(-1, -2), 1, ctx.scaled("B")),
    "eps3": _table("EPS3"),
    "delta3": _table("DELTA3"),
}


def tensor_context(t: Rank4Tensor | FBlocks | list):
    """Symbols of the rank-4 tensor language.

    R (rank 4), Rc (Ricci, rank 2), Sc (scalar), W (Weyl, rank 4),
    Rt (dual tensor, rank 4), eps (rank 4), delta (rank 2).  ``t`` is a
    curvature tensor, or the FBlocks of one, whose tensor is then
    reconstructed on first use.  Every symbol is computed on first use only.

    ``t`` may also be a non-empty list of FBlocks: the context is then
    batched, every symbol holds all samples along a leading sample axis
    over one denominator (``R`` has shape (N, 4, 4, 4, 4), ``Sc`` (N,)), and
    ``evaluate`` gives every sample's value at once.
    """
    if isinstance(t, np.ndarray):
        return LazyContext({"R": lambda ctx: scaled(t), **_TENSOR_RULES}, R=t)
    if isinstance(t, FBlocks):
        # the rule keeps the blocks, not the sample: the context that
        # catalog.contexts_for keeps on the sample then does not refer back
        # to it, and is freed with it
        b = stacked(t)
        return LazyContext({"R": lambda ctx: reconstruct_scaled(b), **_TENSOR_RULES})
    return LazyContext({"R": lambda ctx: reconstruct_scaled(stacked(t)), **_TENSOR_RULES},
                       batch=len(t))


def _det3(m):
    """det m of a 3x3 matrix, or of each of a stack of them, as det m^T (see
    ``decomp._trace``)."""
    m = m.T
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def matrix_context(fb: FBlocks | list):
    """Symbols of the block (matrix) language.

    Ap, Am, B, BT (rank 2 over 3-dim indices), eps3 (rank 3), delta3
    (rank 2), R (scalar curvature), detB (determinant of the mixed block).
    Every symbol is computed on first use only.  ``fb`` may also be a
    non-empty list of FBlocks, for a batched context (see
    ``tensor_context``): ``Ap`` has shape (N, 3, 3), ``R`` and ``detB`` (N,).
    """
    b = stacked(fb)
    rules = {
        "Ap": lambda ctx: scaled(b["Ap"]),
        "Am": lambda ctx: scaled(b["Am"]),
        "B": lambda ctx: scaled(b["B"]),
        "R": lambda ctx: scaled(4 * (_trace(b["Ap"]) + _trace(b["Am"]))),
        "detB": lambda ctx: scaled(_det3(b["B"])),
        **_MATRIX_RULES,
    }
    batch = None if isinstance(fb, FBlocks) else len(fb)
    return LazyContext(rules, batch=batch, **b)


def contexts(fb: FBlocks | list):
    """The matrix and tensor contexts of one sample, or of a batch given as a
    list of FBlocks, keyed by ``Poly.language``."""
    return {"matrix": matrix_context(fb), "tensor": tensor_context(fb)}


# ---------------------------------------------------------------------------
# Pseudo (orientation-odd) variant of a matrix-language expression

_PLUS_WEIGHT = {"Ap": 1, "BT": 1}
_MINUS_WEIGHT = {"Am": 1, "B": 1, "detB": 3}


def pseudo_variant(poly):
    """Orientation-odd partner of a matrix-language scalar.

    Replacing the curvature by its dual flips the sign of the Am and B
    blocks while keeping Ap and B^T; on a parity-even monomial this maps the
    monomial to its parity image with sign (-1)^(number of flipped factors).
    Summing the expression and its dual image keeps, per monomial, the sign
    sgn(n_plus - n_minus) where n_plus counts Ap/BT factors and n_minus
    counts Am/B factors (detB counts three B entries); balanced monomials
    cancel and are dropped.
    """
    out = []
    for mono in poly.monomials:
        n_plus = sum(_PLUS_WEIGHT.get(name, 0) for name, _ in mono.factors)
        n_minus = sum(_MINUS_WEIGHT.get(name, 0) for name, _ in mono.factors)
        if n_plus == n_minus:
            continue
        sign = 1 if n_plus > n_minus else -1
        out.append(Monomial(coeff=mono.coeff * sign, factors=mono.factors))
    return replace(poly, monomials=tuple(out))
