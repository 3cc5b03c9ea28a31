"""Acceptance gate: one pass/fail line per criterion, exact tolerances.

Each criterion prints a single line (bypassing pytest capture so the lines
always appear in the run log) and then asserts.  A FAIL line therefore comes
with a failing test.
"""

import sys
import time
from fractions import Fraction

import numpy as np

from riemann_syzygy import catalog, expr, ranklab, relations, thooft
from riemann_syzygy.catalog import contexts_for
from riemann_syzygy.decomp import decompose, reconstruct
from riemann_syzygy.gen import GenConfig, random_fblocks_stream
from riemann_syzygy.relations import get_relation, load_relations

from conftest import lattice_fblocks, parity_sign, relaxed_tensor

SEED = 20260823

# one line per criterion, echoed after the run by a terminal-summary hook in
# conftest.py (plain prints are swallowed by pytest's output capture)
CRITERION_LINES = []


def report(n, ok, detail=""):
    line = f"CRITERION {n:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    CRITERION_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _verify(names, n_samples):
    rels = [get_relation(n) for n in names]
    rep = relations.verify_all(seed=SEED, n_samples=n_samples, relations=rels)
    return rep.ok, rep.failures()


def test_criterion_01_symbol_table_suite():
    t0 = time.time()
    rep = thooft.verify_appendix_a()
    dt = time.time() - t0
    report(1, rep.ok and dt < 1.0,
           f"exhaustive symbol identities, {dt:.2f}s")


def test_criterion_02_round_trip():
    fbs = random_fblocks_stream(SEED, 50, GenConfig(bound=9))
    ok = True
    for fb in fbs:
        t = reconstruct(fb)
        ok = ok and decompose(t) == fb
        ok = ok and np.array_equal(reconstruct(decompose(t)), t)
    report(2, ok, "decompose/reconstruct exact on 50 samples")


def test_criterion_03_quadratic_identities():
    ok, failures = _verify(
        ["gauss_bonnet", "weyl_square_traceless", "riemann_square_rewrite",
         "dual_trace_scalar"],
        100,
    )
    report(3, ok, "quadratic identities exact on 100 samples"
           if ok else f"failures: {failures}")


def test_criterion_04_cubic_identities_and_rank():
    ok, failures = _verify(
        ["cubic_trace_1", "cubic_trace_2", "cubic_full_contraction"], 100
    )
    rep = ranklab.rank_report(catalog.catalog("cubic"), seed=SEED,
                              catalog_name="cubic")
    rank_ok = rep.rank == 6 and rep.stable
    report(4, ok and rank_ok,
           f"cubic identities on 100 samples; catalog rank {rep.rank} (want 6)")


def test_criterion_05_quartic_identities_and_ranks():
    t0 = time.time()
    names = [f"quartic_{c}" for c in "abcdefghijkl"]
    names += ["quartic_x1", "quartic_x2", "quartic_x3", "quartic_x4",
              "quartic_trace_mix", "quartic_basis_null"]
    ok, failures = _verify(names, 100)
    rep = ranklab.rank_report(catalog.catalog("quartic"), seed=SEED,
                              catalog_name="quartic")
    basis = ranklab.rank_report(catalog.catalog("quartic_basis"), seed=SEED,
                                representation="fform",
                                catalog_name="quartic_basis")
    expected_null = [1, 0, -192, 2048, 0, 0, 0, 0, 0, 6144, 0, 0, 0, -12288]
    rank_ok = (
        rep.rank == 13 and rep.stable
        and basis.rank == 13 and basis.stable
        and basis.nullspace == [expected_null]
    )
    dt = time.time() - t0
    report(5, ok and rank_ok and dt < 60,
           f"quartic identities; scalar rank {rep.rank} (want 13), basis rank "
           f"{basis.rank} with the expected single null, {dt:.1f}s")


# symbols whose values are linear in the curvature tensor
_LINEAR_SYMBOLS = ("R", "Rc", "Sc", "W", "Rt")


def test_criterion_06_second_rank_syzygies():
    syzygies = ["rank2_syzygy_1", "rank2_syzygy_2", "rank2_syzygy_3"]
    ok, failures = _verify(syzygies, 50)

    # contraction meta-check on Bianchi-violating tensors, where the cubic
    # trace identities are falsifiable
    def trace_of(name, t):
        m = expr.evaluate(get_relation(name).lhs, expr.tensor_context(t))
        return sum(m[i, i] for i in range(4))

    def scalar_of(name, t):
        return expr.evaluate(get_relation(name).lhs, expr.tensor_context(t))

    meta_ok, saw_nonzero = True, False
    for seed in range(1, 6):
        t = relaxed_tensor(seed)
        d1, d2 = scalar_of("cubic_trace_1", t), scalar_of("cubic_trace_2", t)
        saw_nonzero = saw_nonzero or d2 != 0
        meta_ok = meta_ok and trace_of("rank2_syzygy_1", t) == 8 * d2
        meta_ok = meta_ok and trace_of("rank2_syzygy_2", t) == 4 * d2
        meta_ok = meta_ok and trace_of("rank2_contracted_1", t) == 4 * d1
        meta_ok = meta_ok and trace_of("rank2_contracted_2", t) == 8 * d2
    meta_ok = meta_ok and saw_nonzero

    # The exact rank is 13, not the published 14.  Lower bound: the sample
    # rank never exceeds the true rank.  Upper bound: the three registry
    # syzygies are independent relations among the 16 entries, proven below.
    want_rank = 13
    entries = catalog.catalog("cubic_rank2")
    rep = ranklab.rank_report(entries, seed=SEED, catalog_name="cubic_rank2")
    rank_ok = rep.rank == want_rank and rep.stable

    # each syzygy as a coefficient vector over the entries A..P
    column = {e.tensor.monomials[0].factors: i
              for i, e in enumerate(entries)}
    rels = [get_relation(n) for n in syzygies]
    polys = [r.lhs for r in rels]
    vectors = []
    for poly in polys:
        vec = [Fraction(0)] * len(entries)
        for mono in poly.monomials:
            if mono.factors not in column:
                break
            vec[column[mono.factors]] += mono.coeff
        else:
            vectors.append(vec)
    span_ok = (
        len(vectors) == len(syzygies)
        and ranklab.rank(vectors) == len(syzygies)
        and ranklab.rank(rep.nullspace) == len(syzygies)
        and ranklab.rank(vectors + rep.nullspace) == len(syzygies)
    )

    # certificate: each syzygy is a homogeneous cubic in the 20 block
    # coordinates (no rhs, three curvature factors per monomial), so
    # vanishing on the degree-3 principal lattice proves it identically
    cubic_ok = all(r.rhs is None for r in rels) and all(
        len(mono.factors) == 3
        and all(name in _LINEAR_SYMBOLS for name, _ in mono.factors)
        for poly in polys for mono in poly.monomials
    )
    lattice = lattice_fblocks(3)
    nonzero_at = None
    for k, fb in enumerate(lattice):
        ctx = expr.tensor_context(reconstruct(fb))
        if any(np.any(expr.evaluate(p, ctx) != 0) for p in polys):
            nonzero_at = k
            break
    cert_ok = cubic_ok and len(lattice) == 1540 and nonzero_at is None

    def verdict(flag):
        return "ok" if flag else "FAILED"

    where = "" if nonzero_at is None else f", nonzero at point {nonzero_at}"
    report(6, ok and meta_ok and rank_ok and span_ok and cert_ok,
           f"syzygies on 50 samples {verdict(ok)}"
           f"{'' if ok else f' {failures}'}; "
           f"contraction meta-check {verdict(meta_ok)}; "
           f"catalog rank {rep.rank} (want {want_rank}), stable={rep.stable}; "
           f"nullspace is the span of the 3 syzygies {verdict(span_ok)}; "
           f"lattice certificate {verdict(cert_ok)} (degree 3 "
           f"{verdict(cubic_ok)}, {len(lattice)} points{where})")


def test_criterion_07_einstein_relations():
    names = [
        "einstein_quintic_null", "einstein_quartic_null",
        "einstein_double_dual_square", "einstein_pair_exchange_a",
        "einstein_pair_exchange_b", "einstein_cross_square",
        "einstein_cross_swap", "einstein_cross_square_dual",
        "einstein_cross_square_eps", "einstein_second_trace_delta",
        "einstein_second_trace_dual", "einstein_square_delta_dual_a",
        "einstein_square_delta_dual_b",
    ] + [f"einstein_pseudo_{i}" for i in range(1, 9)]
    ok, failures = _verify(names, 50)
    report(7, ok, "einstein-domain identities exact on 50 samples"
           if ok else f"failures: {failures}")


def test_criterion_08_parity_suite():
    fbs = random_fblocks_stream(SEED, 5, GenConfig())
    even_ok = True
    for name in ("quadratic", "cubic", "quartic", "quartic_basis", "quintic"):
        for entry in catalog.catalog(name):
            if entry.free_labels():
                continue
            sign = parity_sign(entry)
            p = entry.form()
            for fb in fbs[:3]:
                a = expr.evaluate(p, contexts_for(fb))
                b = expr.evaluate(p, contexts_for(fb.parity()))
                even_ok = even_ok and a == sign * b
    odd_ok = True
    for name in ("pseudo_q2", "pseudo_q3", "pseudo_q4"):
        for entry in catalog.catalog(name):
            p = entry.form()
            for fb in fbs[:3]:
                a = expr.evaluate(p, contexts_for(fb))
                b = expr.evaluate(p, contexts_for(fb.parity()))
                odd_ok = odd_ok and a == -b
    ids_ok, failures = _verify(
        ["quartic_pseudo_null", "newton_even_plus", "newton_even_minus",
         "pseudo_trace_balance"],
        100,
    )
    report(8, even_ok and odd_ok and ids_ok,
           "parity behavior of all catalogs plus the odd quartic identities")


def test_criterion_09_dual_representations():
    fbs = random_fblocks_stream(SEED, 50, GenConfig())
    ok = True
    for entry in catalog.catalog("quartic"):
        reps = entry.representations()
        assert len(reps) >= 2, entry.label
        for fb in fbs:
            ctx = contexts_for(fb)
            vals = [expr.evaluate(p, ctx) for p in reps.values()]
            ok = ok and all(v == vals[0] for v in vals[1:])
    report(9, ok,
           "index-contraction and block trace-word routes agree for all 26 "
           "quartic entries on 50 samples")


def test_criterion_10_quintic_rank_reported():
    t0 = time.time()
    rep = ranklab.rank_report(catalog.catalog("quintic"), seed=SEED,
                              catalog_name="quintic")
    dt = time.time() - t0
    ok = dt < 300 and len(rep.nullspace) >= 1
    nulls = "; ".join(
        " ".join(str(c) for c in vec) for vec in rep.nullspace
    )
    report(10, ok,
           f"quintic catalog rank {rep.rank}/{len(rep.labels)} "
           f"(stable={rep.stable}, reported not asserted); null vector(s): "
           f"{nulls}; {dt:.1f}s")


def test_criterion_11_mutation_soundness():
    """Corrupting any single coefficient of any identity must be detectable
    within 5 samples.

    A mutation shifts one monomial coefficient by +1, so the mutant's
    residual equals that monomial's value; detection within 5 samples is
    equivalent to the monomial being nonzero on one of them.  Monomials that
    are themselves identically zero (e.g. the single monomial of
    dual_trace_scalar) yield mutants that are still true identities; those
    are exempt but must also survive a fresh batch, proving the exemption is
    not hiding a miss.  A sampled subset of mutants is additionally run
    through the full verifier to confirm the equivalence.
    """
    n_checked = 0
    undetectable = []
    streams = {
        "general": random_fblocks_stream(SEED, 5, GenConfig()),
        "einstein": random_fblocks_stream(SEED, 5, GenConfig(einstein=True)),
    }
    fresh = {
        "general": random_fblocks_stream(SEED + 1, 5, GenConfig()),
        "einstein": random_fblocks_stream(
            SEED + 1, 5, GenConfig(einstein=True)),
    }
    contexts = {
        dom: [contexts_for(fb) for fb in fbs]
        for dom, fbs in streams.items()
    }
    ok = True
    for rel in load_relations():
        if rel.expect != "zero":
            continue
        for side in ("lhs", "rhs"):
            poly = getattr(rel, side)
            if poly is None:
                continue
            for mono in poly.monomials:
                single = expr.Poly(monomials=(mono,),
                                   free_labels=poly.free_labels)
                vals = [
                    expr.evaluate(single, ctx)
                    for ctx in contexts[rel.domain]
                ]
                detected = any(np.any(np.asarray(v) != 0) for v in vals)
                n_checked += 1
                if not detected:
                    undetectable.append((rel.name, side))
                    # the mutant must be a true identity: confirm on a
                    # fresh batch
                    fresh_vals = [
                        expr.evaluate(single, contexts_for(fb))
                        for fb in fresh[rel.domain]
                    ]
                    ok = ok and all(
                        not np.any(np.asarray(v) != 0) for v in fresh_vals
                    )

    # direct spot check: run the full verifier on mutants of a few relations
    for name in ("gauss_bonnet", "quartic_a", "einstein_cross_square"):
        rel = get_relation(name)
        for _, mutant in relations.mutations(rel):
            result = relations.check_relation(
                mutant, streams[rel.domain])
            ok = ok and not result.ok

    report(11, ok,
           f"{n_checked} single-coefficient mutations; "
           f"{n_checked - len(undetectable)} detected within 5 samples, "
           f"{len(undetectable)} exempt as identically-zero monomials "
           f"(each confirmed to still be a true identity)")
