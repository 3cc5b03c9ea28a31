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
contraction needs apart from the sample (index letters, einsum spec, range
checks, the product of the summed ranges and, for a large
contraction, its steps with each step's permutations and reshapes) is
compiled once per process into a plan, keyed by the monomial's factors, the
free labels, the shapes of the factors on one sample and whether the context
is batched; the coefficient is not part of the key.  The steps depend only
on the contraction's einsum spec of one sample, the range of each of its
letters and whether it is batched, and are found once per process for each
such spec: the monomials of one shape, R and W chains alike, share them.  A
context keeps what a monomial takes from it apart from its coefficient
(``LazyContext.part``), in scaled form too: the exact contraction of its
factors' numerators, on int64 when its bound allows, over the product of
their denominators, with the bound without the coefficient.  It is made on
the monomial's first evaluation in the context and kept for the context's
life, keyed by the factors and the free labels.  Every later expression
holding the monomial, another relation's side or a mutant that differs in a
coefficient, only multiplies its coefficient in; when the sum's bound needs
Python ints, a kept int64 contraction is widened first.

A relation's check runs both steps once per sample, so each is one loop:
a part's over its factors, each read through ``LazyContext.scaled`` alone,
and a Poly's over its monomials (``_evaluate_scaled``).

One context (``context``) holds both languages of a sample: the tensor
language of its rank-4 curvature tensor and the matrix language of its
blocks.  One table, ``_SYMBOLS``, states every symbol of both once, keyed by
its name and rank: its language, the rule that builds it and its weight
under the dual (``pseudo_variant``).  ``R`` is the one name at two ranks: the
tensor at rank 4 and the matrix language's scalar at rank 0.  A factor
``name[labels]`` is the symbol ``(name, len(labels))``, so the table gives
an expression's language from its symbols: ``Poly.language``, looked up when
``parse`` or ``combine`` makes the Poly and kept by ``dataclasses.replace``.
A Poly of both languages, such as a relation's residual, evaluates in the
same context.

A context may also hold a batch of N samples.  Every symbol then carries a
leading sample axis (``R[a,b,c,d]`` has shape (N, 4, 4, 4, 4), the scalars
``Sc``, ``R`` and ``detB`` shape (N,)) over one denominator, the least
common multiple over the batch, and a monomial runs along a batched plan:
the same contraction with one more letter, the sample's, on every factor
and on the output, and the pairwise steps found from the shapes of one
sample, so one plan serves every N.  The bound, and
so the choice between int64 and Python ints, is the largest over the batch.
``evaluate`` then returns an (N, *free) object array, sample by sample, in
the same exact normal form as one sample's value.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .curvature import (
    INT64_BOUND,
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
    "context",
    "tensor_context",
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
            languages = {getattr(_SYMBOLS.get((name, len(labels))), "language", None)
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
        got = ", ".join(f"{n} of rank {r} "
                        f"({getattr(_SYMBOLS.get((n, r)), 'language', 'no language')})"
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
# spec (``_STEPS``).  Timed on int64 over every distinct contraction of two
# or more arrays that the registry and the catalogs make on one sample
# (numpy 2.4, 2-CPU Xeon): at 2**10 points one pass wins 5 of 6; at 2**12, which this cut keeps
# in one pass, the steps win 15 of 24 (18 against 28 us at the median); at
# 2**14 they win all 8 and at 2**16 all 29.  End to end, verify_all(s, 10)
# in a fresh process took 84 ms with the cut at 2**10 and 78 ms at 2**12
# (medians of 20 interleaved runs each, quartiles 71-108 ms).
_ONE_PASS_POINTS = 2**12
# A batched contraction shares each step's call overhead among its samples,
# so it goes pairwise from fewer points per sample.  Timed as above over
# batches of 40: at 9 and 16 points per sample one pass wins all 15, at 27
# the steps win 7 of 12 (12 against 13 us at the median), and from 64 points
# on they win 4 of 4 at 64, 23 of 23 at 81, 2 of 2 at 243 and 11 of 14 at
# 256.  This cut keeps 27-point words, where the two are even, in one pass.
# End to end, the rank-catalogs benchmark (perfbench/run.py --seconds 8)
# gave a median pass of 7.53 ref with the cut at 2**4, 7.58 at 2**5, 7.74 at
# 2**6 and 8.49 at 2**8 (4 interleaved runs each).  The cut once stood at
# 2**8 because each plan searched its own path, about 150 us of Python per
# monomial; the steps are now shared by every monomial of one spec.
_BATCH_ONE_PASS_POINTS = 2**5


def _contract(steps, arrays):
    """The contraction of arrays of one dtype pairwise along the stored
    ``steps`` (see ``_Step``), each one ``np.matmul``.  Every step keeps the
    dtype: int64 matmuls stay int64 and object ones multiply and add Python
    ints, and each of their partial sums is a partial sum of the whole
    contraction, so the plan's bound covers it."""
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
    2018) that ``np.einsum_path(optimize="greedy")`` uses.  Label sets are
    bitmasks, one bit per label of ``size``; when every label has one range
    n, a set of c labels has n ** c points."""
    if len(inputs) == 2:
        return [(0, 1)]
    bit = {l: 1 << k for k, l in enumerate(size)}
    ranges = set(size.values())
    if len(ranges) == 1:
        (r,) = ranges

        def points(labels):
            return r ** labels.bit_count()
    else:
        bits = [(bit[l], n) for l, n in size.items()]
        counts = {}

        def points(labels):
            p = counts.get(labels)
            if p is None:
                p = 1
                for b, n in bits:
                    if labels & b:
                        p *= n
                counts[labels] = p
            return p

    def mask(labels):
        m = 0
        for l in labels:
            m |= bit[l]
        return m

    sets = [mask(t) for t in inputs]
    out = mask(out)
    path = []
    while len(sets) > 1:
        # labels on two or more operands, and on three or more
        once = twice = more = 0
        for s in sets:
            more |= twice & s
            twice |= once & s
            once |= s
        kept = out | more
        sizes = [points(s) for s in sets]
        n = len(sets)
        best = None
        for i, j in ([(i, j) for i in range(n) for j in range(i + 1, n) if sets[i] & sets[j]]
                     or [(i, j) for i in range(n) for j in range(i + 1, n)]):
            a, b = sets[i], sets[j]
            joint = a | b
            res = joint & (kept | (twice & ~(a & b)))
            score = (points(res) - sizes[i] - sizes[j],
                     points(joint) * (1 if res == joint else 2))
            if best is None or score < best:
                best, pick = score, (i, j, res)
        i, j, res = pick
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
        diagonals = []
        if len(set(t)) < len(t):
            t = list(t)
            for l in dict.fromkeys(t):
                while t.count(l) > 1:
                    i = t.index(l)
                    j = t.index(l, i + 1)
                    diagonals.append((i + k, j + k))
                    del t[j], t[i]
                    t.append(l)
        summed = tuple([n + k for n, l in enumerate(t) if l not in keep and l not in other])
        labels.append(t)
        traces.append((tuple(diagonals), summed))
    a, b = labels
    batch, contracted, kept_a = [], [], []
    for l in a:
        if l in b:
            (batch if l in keep else contracted).append(l)
        elif l in keep:
            kept_a.append(l)
    kept_b = [l for l in b if l not in a and l in keep]
    m = math.prod([size[l] for l in kept_a])
    c = math.prod([size[l] for l in contracted])
    n = math.prod([size[l] for l in kept_b])
    operands = []
    for t, (diagonals, summed), order, shape in (
            (a, traces[0], batch + kept_a + contracted, (-1, m, c)),
            (b, traces[1], batch + contracted + kept_b, (-1, c, n))):
        # the summed axes, of length 1 once summed, go last
        if len(order) < len(t):
            order += [l for l in t if l not in order]
        operands.append((diagonals, summed,
                         lead + tuple([t.index(l) + k for l in order]), shape))
    res = batch + kept_a + kept_b
    shape = (-1,) * k + tuple([size[l] for l in res])
    perm = None
    if out is not None and list(out) != res:
        perm = lead + tuple([res.index(l) + k for l in out])
        res = list(out)
    return _Step(picked, tuple(operands), shape, perm), "".join(res)


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
# The pairwise steps of each contraction that runs pairwise, keyed by its
# einsum spec of one sample, the range of each of its letters and whether it
# is batched: every monomial of one contraction shape shares one path search.
_STEPS = {}


def _compile(factors, free, shapes, batched=False) -> _Plan:
    """The plan of a monomial with these factors and free labels whose
    factors' numerators have these shapes per sample, one axis per label,
    made on first request and kept for the process; ``batched`` when every
    factor has a leading sample axis.  The plan serves batches of every
    size, and its pairwise steps are those of every plan of the same spec
    and letter ranges (``_STEPS``).  A monomial whose labels do not fit the
    ranges of its shapes, or that has no factor, raises, and nothing is
    kept."""
    key = (factors, free, shapes, batched)
    plan = _PLANS.get(key)
    if plan is not None:
        return plan
    if not factors:
        raise ExprError("a monomial with no factor")
    # each label's letter, and each letter's range, in order of first use;
    # a batched plan keeps one letter for the sample axis
    letter_of, size = {}, {}
    subs = []
    letters = len(_LETTERS) - batched
    for (name, labels), shape in zip(factors, shapes):
        sub = ""
        for lbl, n in zip(labels, shape):
            l = letter_of.get(lbl)
            if l is None:
                if len(letter_of) == letters:
                    raise ExprError("too many distinct index labels")
                l = letter_of[lbl] = _LETTERS[len(letter_of)]
                size[l] = n
            elif size[l] != n:
                raise ExprError(f"index {lbl!r} ranges over {size[l]} and {n} values")
            sub += l
        subs.append(sub)
    missing = [l for l in free if l not in letter_of]
    if missing:
        raise ExprError(f"free index {missing[0]!r} is on no factor")
    out = "".join(letter_of[l] for l in free)
    summed = math.prod([n for l, n in size.items() if l not in out])
    spec = ",".join(subs) + "->" + out
    steps = ()
    cut = _BATCH_ONE_PASS_POINTS if batched else _ONE_PASS_POINTS
    if len(subs) > 1 and math.prod(size.values()) > cut:
        spec_key = (spec, tuple(size.items()), batched)
        steps = _STEPS.get(spec_key)
        if steps is None:
            steps = _STEPS[spec_key] = _pairwise_steps(subs, out, size, batched)
    if batched:
        # a letter no label has leads every term and the output
        b = _LETTERS[len(letter_of)]
        spec = ",".join(b + t for t in subs) + "->" + b + out
    plan = _PLANS[key] = _Plan(summed, spec, steps)
    return plan


def _part(factors, free, context) -> Scaled:
    """What a monomial takes from one context, apart from its coefficient:
    the contraction of its factors' numerators over the product of their
    denominators.  The bound, the product of the summed ranges and of the
    factors' bounds, holds for every entry of the contraction and of each of
    its intermediates, on every sample.  The contraction is exact on int64
    when the bound and every factor's numerators fit it; a 0-d one is a
    scalar, an ``np.int64`` or a Python int.  A factor whose symbol the
    context does not hold at the rank of its labels raises
    (``LazyContext.scaled``)."""
    batched = context.batch is not None
    nums, shapes = [], []
    bound = den = 1
    top = 0  # the largest factor bound
    for name, labels in factors:
        num, d, b = context.scaled(name, len(labels))
        nums.append(num)
        # per sample: without the sample axis of a batched context
        shapes.append(num.shape[batched:])
        bound *= b
        den *= d
        if b > top:
            top = b
    plan = _compile(factors, free, tuple(shapes), batched)
    bound *= plan.summed
    # a factor's numerators are int64 below INT64_BOUND (``Scaled``); a zero
    # factor makes the bound 0 but leaves the others' numerators wide
    if bound >= INT64_BOUND or top >= INT64_BOUND:
        nums = [n.astype(object, copy=False) for n in nums]
    if plan.steps:
        return Scaled(_contract(plan.steps, nums), den, bound)
    return Scaled(np.einsum(plan.spec, *nums), den, bound)


def _unknown(name, rank, rules):
    """The ExprError for a factor of symbol ``name`` at ``rank`` that is no
    key of ``rules``: an unknown name, or a name held at other ranks, each
    named."""
    ranks = " or ".join(str(r) for n, r in sorted(rules) if n == name)
    if not ranks:
        return ExprError(f"unknown symbol {name!r}")
    if not rank:
        return ExprError(f"symbol {name!r} needs {ranks} indices")
    return ExprError(f"symbol {name!r} has rank {ranks}, got {rank} indices")


def evaluate(poly, context):
    """Evaluate a Poly (or expression string) in the given symbol context.

    Scalars come back as int/Fraction; free-index expressions as object
    arrays indexed by the free labels in sorted order.  In a batched context
    (see ``context``) the value of every sample comes back at once,
    as an object array whose leading axis runs over the samples: of shape
    (N,) for a scalar, (N, *free) otherwise.
    """
    value = _evaluate_scaled(poly, context)
    return unscaled(value.num, value.den)


def _evaluate_scaled(poly, context) -> Scaled:
    """``evaluate``'s value as integer numerators over one denominator, with
    a proven bound on the numerators: int64 when the bound allows, Python
    ints otherwise.  One pass over the monomials brings each coefficient
    over its part's denominator, in lowest terms p / q, and keeps the least
    common multiple ``den`` of the q so far, the bound over it and, for a
    scalar in a one-sample context, whose parts are all 0-d, the sum in
    Python ints; each grows by the factor ``den`` grows by.  Such a sum is
    then put in the bound's dtype.  Anything else is summed array by array
    in that dtype, a kept int64 part widened first when the sum needs
    Python ints."""
    poly = as_poly(poly)
    free = poly.free_labels
    if not poly.monomials:
        if free:
            raise ExprError("cannot evaluate an empty expression with free indices")
        return Scaled(np.zeros(context.batch or (), np.int64), 1, 0)
    one = context.batch is None and not free
    den, bound, total, terms = 1, 0, 0, []
    for m in poly.monomials:
        part = context.part(m.factors, free)
        p, q = m.coeff.numerator, m.coeff.denominator * part.den
        if q != 1:
            g = math.gcd(p, q)
            p, q = p // g, q // g
            grow = q // math.gcd(den, q)
            if grow != 1:
                den, bound, total = den * grow, bound * grow, total * grow
        c = p * (den // q)  # the coefficient over den
        bound += abs(c) * part.bound
        if one:
            total += c * int(part.num)
        else:
            terms.append((p, q, part))
    if one:
        return Scaled(np.asarray(total, int_dtype(bound)), den, bound)
    dtype = int_dtype(bound)
    for p, q, part in terms:
        value = part.num
        if dtype is object:
            # a contraction kept on int64 is widened before p, which may
            # pass int64, multiplies it
            value = value.astype(object, copy=False)
        # a part of bound 0 is 0, and the sum's bound does not cover its
        # coefficient, which may not fit the dtype: it is not multiplied in
        if part.bound:
            value = p * (den // q) * value
        total = total + value
    return Scaled(np.asarray(total, dtype), den, bound)


def _table(name):
    """The scaled form of a constant symbol table (entries 0, 1 and -1),
    repeated along the sample axis of a batched context."""
    def rule(ctx):
        table = int64(name)
        if ctx.batch is not None:
            table = np.broadcast_to(table, (ctx.batch, *table.shape))
        return Scaled(table, 1, 1)
    return rule


def _det3(m):
    """det m of a 3x3 matrix, or of each of a stack of them, as det m^T (see
    ``decomp._trace``)."""
    m = m.T
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


class _Symbol(NamedTuple):
    """A symbol of the table: its ``language``; the ``rule`` that builds its
    scaled form from a context, out of the context's ``blocks`` or of the
    symbols the context has already built; and its ``dual_weight``, the
    sign each of its block entries takes under the dual, summed over them
    (see ``pseudo_variant``)."""

    language: str
    rule: Callable
    dual_weight: int = 0


# Every symbol of both languages, keyed by (name, rank).  Rc, Sc, 6 W and
# 2 Rt are derived from R's numerators with the growth of each builder (see
# curvature); the matrix symbols from the blocks, or from the stacks of a
# batch's blocks.
_SYMBOLS = {
    ("R", 4): _Symbol("tensor", lambda ctx: reconstruct_scaled(ctx.blocks)),
    ("Rc", 2): _Symbol("tensor", lambda ctx: derived(ricci, 4, ctx.scaled("R", 4))),
    ("Sc", 0): _Symbol("tensor", lambda ctx: derived(ricci_scalar, 16, ctx.scaled("R", 4))),
    ("W", 4): _Symbol("tensor", lambda ctx: derived(weyl6, 128, ctx.scaled("R", 4), 6)),
    ("Rt", 4): _Symbol("tensor", lambda ctx: derived(dual2, 16, ctx.scaled("R", 4), 2)),
    ("eps", 4): _Symbol("tensor", _table("EPS4")),
    ("delta", 2): _Symbol("tensor", _table("DELTA4")),
    ("Ap", 2): _Symbol("matrix", lambda ctx: scaled(ctx.blocks["Ap"]), 1),
    ("Am", 2): _Symbol("matrix", lambda ctx: scaled(ctx.blocks["Am"]), -1),
    ("B", 2): _Symbol("matrix", lambda ctx: scaled(ctx.blocks["B"]), -1),
    # B^T, or the transpose of each B of a batch
    ("BT", 2): _Symbol("matrix", lambda ctx: derived(lambda n: n.swapaxes(-1, -2), 1,
                                                     ctx.scaled("B", 2)), 1),
    ("eps3", 3): _Symbol("matrix", _table("EPS3")),
    ("delta3", 2): _Symbol("matrix", _table("DELTA3")),
    ("R", 0): _Symbol("matrix", lambda ctx: scaled(
        4 * (_trace(ctx.blocks["Ap"]) + _trace(ctx.blocks["Am"])))),
    ("detB", 0): _Symbol("matrix", lambda ctx: scaled(_det3(ctx.blocks["B"])), -3),
}
_RULES = {key: s.rule for key, s in _SYMBOLS.items()}


class LazyContext:
    """A read-only symbol context holding each symbol in one form, its
    scaled form.  ``rules`` maps each (name, rank) to a function of the
    context that returns that form; a rule runs on its symbol's first use
    only and its result is kept (``scaled(name, rank)``); a (name, rank)
    that no rule makes raises the ExprError of ``_unknown``, while a
    KeyError raised inside a rule passes unchanged.  ``blocks`` are
    the blocks the rules read, keyed by name as ``decomp.stacked`` gives
    them, and ``batch`` is None for one sample; for a batch of N samples it
    is N, and every symbol's numerators carry a leading axis of N.

    ``part(factors, free)`` is a monomial's share of ``evaluate`` that does
    not depend on its coefficient (see ``_part``): the exact contraction of
    its numerators, their denominator and their bound.  It too is made on
    first request and kept, so every expression evaluated in the context,
    every relation residual or mutant of one, contracts a monomial once and
    then only multiplies in its own coefficient; a kept part costs one dict
    lookup of its (factors, free) key.  Everything is kept for as long as
    the context lives.
    """

    def __init__(self, rules, batch=None, blocks=None):
        self.rules = rules
        self._scaled = {}
        self._parts = {}
        self.batch = batch
        self.blocks = blocks

    def scaled(self, name, rank):
        form = self._scaled.get((name, rank))
        if form is None:
            try:
                rule = self.rules[name, rank]
            except KeyError:
                raise _unknown(name, rank, self.rules) from None
            form = self._scaled[name, rank] = rule(self)
        return form

    def part(self, factors, free):
        key = (factors, free)
        part = self._parts.get(key)
        if part is None:
            part = self._parts[key] = _part(factors, free, self)
        return part


def context(fb: FBlocks | list):
    """The context of one sample, or of a batch given as a non-empty list of
    FBlocks, holding every symbol of ``_SYMBOLS``, both languages, over one
    set of blocks, stacked once for a batch; the tensor is reconstructed
    only when a factor of the tensor language asks for it.  In a batch,
    ``R[a,b,c,d]`` has shape (N, 4, 4, 4, 4), ``Ap`` (N, 3, 3) and ``Sc``,
    ``R`` and ``detB`` (N,).  The context keeps the blocks, not the sample:
    the one that ``catalog.contexts_for`` keeps on the sample then does not
    refer back to it, and is freed with it."""
    return LazyContext(_RULES, None if isinstance(fb, FBlocks) else len(fb), stacked(fb))


def tensor_context(t: Rank4Tensor):
    """The tensor-language symbols of a raw rank-4 array ``t``: ``R[a,b,c,d]``
    is ``t`` itself, which need not satisfy the curvature symmetries, and
    every other symbol is derived from it on first use."""
    rules = {key: s.rule for key, s in _SYMBOLS.items() if s.language == "tensor"}
    return LazyContext({**rules, ("R", 4): lambda ctx: scaled(t)})


# ---------------------------------------------------------------------------
# Pseudo (orientation-odd) variant of a matrix-language expression


def pseudo_variant(poly):
    """Orientation-odd partner of a matrix-language scalar.

    Replacing the curvature by its dual flips the sign of the Am and B
    blocks while keeping Ap and B^T; on a parity-even monomial this maps the
    monomial to its parity image with sign (-1)^(number of flipped factors).
    Summing the expression and its dual image keeps, per monomial, the sign
    of its factors' summed ``dual_weight`` (``_SYMBOLS``): +1 for each Ap or
    BT, -1 for each Am or B and -3 for detB, three B entries.  Monomials of
    weight 0 cancel and are dropped.
    """
    out = []
    for mono in poly.monomials:
        w = sum(getattr(_SYMBOLS.get((name, len(labels))), "dual_weight", 0)
                for name, labels in mono.factors)
        if w:
            out.append(Monomial(coeff=mono.coeff * (1 if w > 0 else -1),
                                factors=mono.factors))
    return replace(poly, monomials=tuple(out))
