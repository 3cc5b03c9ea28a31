"""Contraction plans: the compiler against a plain reference.

``expr._compile``, ``expr._greedy_path`` and ``expr._step`` are written for
a cheap cold start (each label given its letter and range in one loop, a
set's points from its bit count when every label has one range, index
dicts in place of ``list.index``).  The reference below is the earlier,
plainer form of the same three functions; every plan, path and step must
equal its.
"""

import math

import pytest

from riemann_syzygy import catalog, expr, relations
from riemann_syzygy.decomp import FBlocks


def _reference_greedy_path(inputs, out, size):
    """``expr._greedy_path``, each set's points multiplied out label by
    label."""
    bits = [(1 << k, n) for k, n in enumerate(size.values())]
    bit = dict(zip(size, (b for b, _ in bits)))

    def points(labels):
        return math.prod(n for b, n in bits if labels & b)

    def mask(labels):
        m = 0
        for l in labels:
            m |= bit[l]
        return m

    sets = [mask(t) for t in inputs]
    out = mask(out)
    path = []
    while len(sets) > 1:
        once = twice = more = 0
        for s in sets:
            more |= twice & s
            twice |= once & s
            once |= s
        kept = out | more
        sizes = [points(s) for s in sets]
        n = len(sets)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        best = None
        for i, j in [(i, j) for i, j in pairs if sets[i] & sets[j]] or pairs:
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


def _reference_step(picked, pair, keep, out, size, batched):
    """``expr._step``, each axis found by ``list.index``."""
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
        summed = tuple(n + k for n, l in enumerate(t)
                       if l not in keep and l not in other)
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
        order += [l for l in t if l not in order]
        operands.append((diagonals, summed,
                         lead + tuple([t.index(l) + k for l in order]), shape))
    res = batch + kept_a + kept_b
    shape = (-1,) * k + tuple([size[l] for l in res])
    perm = None
    if out is not None and list(out) != res:
        perm = lead + tuple([res.index(l) + k for l in out])
        res = list(out)
    return expr._Step(picked, tuple(operands), shape, perm), "".join(res)


def _reference_steps(terms, out, size, batched):
    terms, steps = list(terms), []
    for i, j in _reference_greedy_path(terms, out, size):
        pair = (terms.pop(j), terms.pop(i))
        step, res = _reference_step((j, i), pair, set(out).union(*terms),
                                    None if terms else out, size, batched)
        steps.append(step)
        terms.append(res)
    return tuple(steps)


def _reference_compile(factors, free, shapes, batched):
    """``expr._compile`` of a monomial that fits its shapes, kept nowhere:
    letters given label by label, the checks and the ranges in loops of
    their own, and the sample letter added by splitting the spec."""
    letter_of, size_of, subs = {}, {}, []

    def letter(lbl):
        return letter_of.setdefault(lbl, expr._LETTERS[len(letter_of)])

    for (_, labels), shape in zip(factors, shapes):
        assert len(shape) == len(labels)
        subs.append("".join(letter(l) for l in labels))
        for lbl, n in zip(labels, shape):
            assert size_of.setdefault(lbl, n) == n
    summed = math.prod(size_of[l] for l in set(size_of) - set(free))
    out = "".join(letter(l) for l in free)
    spec = ",".join(subs) + "->" + out
    steps = ()
    cut = expr._BATCH_ONE_PASS_POINTS if batched else expr._ONE_PASS_POINTS
    if len(subs) > 1 and math.prod(size_of.values()) > cut:
        size = {letter_of[l]: n for l, n in size_of.items()}
        steps = _reference_steps(subs, out, size, batched)
    if batched:
        b = letter(None)
        inputs, out = spec.split("->")
        spec = ",".join(b + t for t in inputs.split(",")) + "->" + b + out
    return expr._Plan(summed, spec, steps)


def _assert_plans_equal_the_reference():
    """Every plan and every path search kept now, against the reference;
    the number of pairwise plans and of searches."""
    for (factors, free, shapes, batched), plan in expr._PLANS.items():
        assert plan == _reference_compile(factors, free, shapes, batched), factors
    for spec, size, batched in expr._STEPS:
        inputs, out = spec.split("->")
        size = dict(size)
        assert (expr._greedy_path(inputs.split(","), out, size)
                == _reference_greedy_path(inputs.split(","), out, size)), spec
    return sum(1 for plan in expr._PLANS.values() if plan.steps), len(expr._STEPS)


@pytest.mark.usefixtures("fresh_plans")
def test_plans_equal_the_reference(samples):
    """Every contraction that the registry and the catalogs make, on one
    sample and on a batch."""
    polys = [p for name in catalog.catalog_names() for e in catalog.catalog(name)
             for p in e.representations().values()]
    polys += [p for r in relations.load_relations() for p in (r.lhs, r.rhs) if p is not None]
    fbs = [FBlocks(Ap=fb.Ap, B=fb.B, Am=fb.Am) for fb in samples[:2]]
    for contexts in (expr.contexts(fbs[0]), expr.contexts(fbs)):
        for p in polys:
            expr.evaluate(p, contexts[p.language])
    batched = {key[3] for key in expr._PLANS}
    assert batched == {False, True}
    pairwise, searches = _assert_plans_equal_the_reference()
    assert pairwise > 100 and searches > 30


@pytest.mark.parametrize("batched", [False, True], ids=["one", "batch"])
@pytest.mark.usefixtures("fresh_plans")
def test_plans_of_mixed_ranges_equal_the_reference(batched):
    """Hand-built monomials whose labels range over different numbers of
    values: a four-matrix chain, and a trace with a free label, each past
    the cut, so its path search scores sets label by label."""
    chains = [
        ((("X", ("a", "b")), ("Y", ("b", "c")), ("Z", ("c", "d")), ("W", ("d", "a"))), (),
         ((9, 10), (10, 11), (11, 12), (12, 9))),
        ((("T", ("a", "a", "b")), ("Y", ("b", "c")), ("Z", ("c", "d")), ("U", ("d", "e"))),
         ("e",), ((7, 7, 8), (8, 9), (9, 10), (10, 11))),
    ]
    for factors, free, shapes in chains:
        plan = expr._compile(factors, free, shapes, batched)
        assert plan.steps
    assert len(expr._STEPS) == 2
    assert _assert_plans_equal_the_reference() == (2, 2)
