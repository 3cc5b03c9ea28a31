"""Relation registry: exact verification, negative controls, meta-checks."""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from riemann_syzygy import expr, relations
from riemann_syzygy.catalog import contexts_for
from riemann_syzygy.curvature import dumps
from riemann_syzygy.gen import GenConfig, random_fblocks_stream
from riemann_syzygy.relations import (
    Relation,
    check_relation,
    get_relation,
    load_relations,
    mutations,
    relation_names,
    residual,
    verify_all,
)

from conftest import relaxed_tensor


def test_registry_loads():
    rels = load_relations()
    assert len(rels) >= 60
    assert len(set(r.name for r in rels)) == len(rels)
    for r in rels:
        assert r.domain in ("general", "einstein")
        assert r.expect in ("zero", "nonzero")


def test_verify_all_passes():
    report = verify_all(seed=20240901, n_samples=8)
    assert report.ok, report.failures()
    d = report.to_dict()
    assert d["schema"] == "riemann-syzygy/1"
    assert d["ok"] is True


@pytest.mark.parametrize("args, kwargs, message", [
    ((1.5, 2), {}, "seed must be an integer, got 1.5"),
    ((True, 2), {}, "seed must be an integer, got True"),
    ((1, True), {}, "n_samples must be an integer, got True"),
    ((1, 2.0), {}, "n_samples must be an integer, got 2.0"),
    ((1, 2), {"bound": True}, "bound must be a positive integer, got True"),
    ((1, 2), {"bound": 9.0}, "bound must be a positive integer, got 9.0"),
])
def test_verify_all_refuses_non_int_arguments(args, kwargs, message):
    # at entry, also when no relation would draw a sample
    for rels in (None, []):
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_all(*args, relations=rels, **kwargs)



def test_verify_all_refuses_no_relations(monkeypatch):
    # a report of no results would pass vacuously; nothing is drawn first
    drawn = []
    monkeypatch.setattr(relations, "random_fblocks_stream",
                        lambda *args: drawn.append(args))
    for rels in ([], ()):
        with pytest.raises(ValueError, match="^no relations to verify$"):
            verify_all(1, 5, relations=rels)
    assert drawn == []

def test_verify_all_needs_a_seed():
    # a None seed would draw from the operating system: no report repeats
    with pytest.raises(ValueError, match="seed is required"):
        verify_all(None, 2)


def test_negative_control_is_nonzero(samples):
    bad = get_relation("quartic_x1_variant")
    assert bad.expect == "nonzero"
    assert any(residual(bad, fb) != 0 for fb in samples)


@pytest.mark.parametrize("name", ["gauss_bonnet", "quartic_x1_variant"])
def test_check_needs_a_sample(name, samples):
    # on no sample an identity would pass, and a control fail, vacuously
    rel = get_relation(name)
    with pytest.raises(ValueError, match=f"^{name}: no samples to check on$"):
        check_relation(rel, [])
    result = check_relation(rel, samples[:3])
    assert result.ok and result.n_samples == 3


def test_unknown_relation_name():
    with pytest.raises(KeyError):
        get_relation("nope")
    assert "gauss_bonnet" in relation_names()


def test_rank2_relations_vanish_componentwise(samples):
    for name in ("rank2_syzygy_1", "rank2_syzygy_2", "rank2_syzygy_3"):
        rel = get_relation(name)
        for fb in samples:
            v = residual(rel, fb)
            assert isinstance(v, np.ndarray) and v.shape == (4, 4)
            assert np.all(v == 0), name


def test_einstein_relations_fail_off_domain(samples):
    # einstein-domain relations are not identities on general samples
    rel = get_relation("einstein_second_trace_delta")
    assert any(np.any(residual(rel, fb) != 0) for fb in samples)


def test_dual_route_relations(samples):
    for name in ("hirzebruch_dual_route",):
        rel = get_relation(name)
        assert rel.lhs.language != rel.rhs.language
        for fb in samples[:5]:
            assert np.all(residual(rel, fb) == 0) or residual(rel, fb) == 0


def test_rhs_delta_mechanism(einstein_samples):
    rel = get_relation("cubic_pseudo_dual_route")
    assert rel.rhs_delta
    for fb in einstein_samples[:5]:
        v = residual(rel, fb)
        assert v.shape == (4, 4)
        assert np.all(v == 0)


_MISMATCHED = [
    ("R[a,b,c,d]", "Rc[a,b]", False),  # numpy would broadcast to (4,4,4,4)
    ("Rc[a,b]", "Rc[c,d]", False),  # same shape, different labels
    ("R[a,b,c,d]*Sc", "Sc", True),  # rhs_delta needs a two-index lhs
    ("Rc[a,b]", "Rc[a,b]", True),  # and a scalar rhs
]


def _shaped(lhs, rhs, rhs_delta):
    return relations.Relation(name="bad_shape", domain="general",
                              lhs=lhs, rhs=rhs, rhs_delta=rhs_delta)


@pytest.mark.parametrize("lhs, rhs, rhs_delta", _MISMATCHED)
def test_mismatched_sides_rejected(lhs, rhs, rhs_delta):
    # rejected when the relation is made, before any sample exists
    with pytest.raises(ValueError, match="^bad_shape: lhs free labels .* do not fit"):
        _shaped(lhs, rhs, rhs_delta)


@pytest.mark.parametrize("fields, reason", [
    ({"domain": "riemannian"}, "bad_rel: bad domain 'riemannian'"),
    ({"expect": "maybe"}, "bad_rel: bad expect 'maybe'"),
    ({"rhs_delta": True}, "bad_rel: rhs_delta requires an rhs"),
    ({"name": 5}, "name must be a string, got 5"),
    ({"tags": "abc"}, "bad_rel: tags must be a list of strings, got 'abc'"),
    ({"tags": ("a", 1)}, r"bad_rel: tags must be a list of strings, got \('a', 1\)"),
    ({"rhs_delta": 0, "rhs": "Sc"}, "bad_rel: rhs_delta must be true or false, got 0"),
    ({"notes": 5}, "bad_rel: notes must be a string, got 5"),
    # the first bad field is named
    ({"tags": "abc", "rhs_delta": 0, "notes": 5},
     "bad_rel: tags must be a list of strings, got 'abc'"),
], ids=["bad-domain", "bad-expect", "delta-without-rhs", "non-string-name",
        "string-tags", "non-string-tag", "int-rhs-delta", "non-string-notes",
        "several-bad"])
def test_malformed_relation_rejected(fields, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        relations.Relation(**{"name": "bad_rel", "domain": "general", "lhs": "Sc", **fields})


def test_relation_keeps_its_tags_as_a_tuple():
    rel = relations.Relation(name="r", domain="general", lhs="Sc", tags=["a", "b"])
    assert rel.tags == ("a", "b")
    assert all(type(r.tags) is tuple for r in load_relations())


_SIDE = "Sc"


def _sides(lhs, rhs, **fields):
    return {"name": "bad_rel", "lhs": lhs, "rhs": rhs, **fields}


@pytest.mark.parametrize("entry, reason", [
    ({"lhs": _SIDE}, "registry entry 4 has no name"),
    ({"name": "bad_rel"}, "bad_rel: no lhs"),
    ({"name": "bad_rel", "lhs": _SIDE, "tags": "abc"},
     "bad_rel: tags must be a list of strings"),
    ({"name": "bad_rel", "lhs": _SIDE, "tags": ["a", 1]},
     "bad_rel: tags must be a list of strings"),
    ({"name": "bad_rel", "lhs": "R[a,b"},
     r"bad_rel: lhs: malformed factor 'R\[a,b'$"),
    (_sides("Sc", "Sc*"), "bad_rel: rhs: "),
    (_sides("Rc[a,b]", "Rc[c,d]"),
     "bad_rel: lhs free labels .* expected the same free labels on both sides$"),
    (_sides("Rc[a,b]", "Rc[a,b]", rhs_delta=True),
     "bad_rel: lhs free labels .* expected a two-index lhs and a scalar rhs$"),
    ({"name": "bad_rel", "lhs": "R*R - Sc*Sc"}, "bad_rel: lhs: expected symbols of "
     r"one language, got R of rank 0 \(matrix\), Sc of rank 0 \(tensor\)$"),
    (_sides("Sc", "Rcc[a,b]*Rcc[a,b]"), "bad_rel: rhs: expected symbols of one "
     r"language, got Rcc of rank 2 \(no language\)$"),
    ({"name": "bad_rel", "lhs": "Rc[a,b,c]*Rc[a,b,c]"}, "bad_rel: lhs: expected "
     r"symbols of one language, got Rc of rank 3 \(no language\)$"),
    (_sides("Sc", {"expr": "Sc", "language": "tensor"}),
     "bad_rel: rhs must be an expression string or a Poly, got dict$"),
    (_sides("Rc[a,b]", "Sc", rhs_detla=True), "bad_rel: unknown key[(]s[)] rhs_detla$"),
    (_sides("Rc[a,b]", "Sc", rhs_delta="false"),
     "bad_rel: rhs_delta must be true or false, got 'false'$"),
    ({"name": 5, "lhs": _SIDE}, "registry entry 4: name must be a string, got 5$"),
    ({"name": "bad_rel", "lhs": _SIDE, "notes": ["a"]},
     r"bad_rel: notes must be a string, got \['a'\]$"),
    (_sides("Sc", "1/0*Sc*Sc"), r"bad_rel: rhs: zero denominator in term '1/0\*Sc\*Sc'$"),
    (5, "registry entry 4 must be a JSON object, got int$"),
    (None, "registry entry 4 must be a JSON object, got NoneType$"),
    (["name"], "registry entry 4 must be a JSON object, got list$"),
    ("name", "registry entry 4 must be a JSON object, got str$"),
], ids=["no-name", "no-lhs", "string-tags", "non-string-tag", "malformed-lhs",
        "malformed-rhs", "unfit-labels", "unfit-rhs-delta", "mixed-lhs",
        "unknown-rhs", "misranked-lhs", "dict-rhs", "unknown-key", "string-rhs-delta",
        "non-string-name", "non-string-notes", "zero-denominator", "int-entry",
        "null-entry", "list-entry", "string-entry"])
def test_malformed_registry_entry_rejected(entry, reason):
    with pytest.raises(ValueError, match=f"^{reason}"):
        relations._relation_from_dict(entry, 4)


@pytest.mark.parametrize("text, reason", [
    ("[]", "the registry must be a JSON object, got list$"),
    ("null", "the registry must be a JSON object, got NoneType$"),
    ("{}", "the registry's 'relations' must be a list, got NoneType$"),
    ('{"relations": {"name": "r"}}', "the registry's 'relations' must be a list, got dict$"),
    ('{"relations": [{"name": "r", "lhs": "Sc"}, 3]}',
     "registry entry 1 must be a JSON object, got int$"),
], ids=["list", "null", "no-relations", "dict-relations", "int-entry"])
def test_malformed_registry_rejected(text, reason):
    with pytest.raises(ValueError, match=f"^{reason}"):
        relations._read_registry(text)


def test_registry_text_reads_as_the_registry():
    text = resources.files("riemann_syzygy.data").joinpath("relations.json").read_text()
    assert relations._read_registry(text) == relations.load_relations()


@pytest.mark.parametrize("value, got", [
    (5, "int"), (["R"], "list"), ("", "a blank string"), (None, "NoneType"),
], ids=["int", "list", "blank", "null"])
def test_registry_side_must_be_an_expression(value, got):
    entry = {"name": "bad_rel", "lhs": value}
    with pytest.raises(ValueError, match=(
            f"^bad_rel: lhs must be an expression string or a Poly, got {got}$")):
        relations._relation_from_dict(entry, 0)


def test_checking_parses_nothing(monkeypatch):
    """The registry is parsed when the module is imported: verifying it, and
    making and checking every mutant, parse nothing."""
    def parse(text):
        raise AssertionError(f"parsed {text!r}")

    monkeypatch.setattr(expr, "parse", parse)
    assert verify_all(1, 2).ok
    samples = {d: random_fblocks_stream(1, 2, GenConfig(einstein=(d == "einstein")))
               for d in ("general", "einstein")}
    results = [check_relation(mutant, samples[rel.domain])
               for rel in load_relations() for _, mutant in mutations(rel)]
    assert len(results) > 398


def _registry_entries():
    text = resources.files("riemann_syzygy.data").joinpath("relations.json").read_text()
    return json.loads(text)["relations"]


def test_registry_sides_are_their_parsed_text():
    entries = _registry_entries()
    assert [d["name"] for d in entries] == relation_names()
    for d in entries:
        rel = get_relation(d["name"])
        assert rel.lhs == expr.parse(d["lhs"]), rel.name
        assert rel.rhs == (expr.parse(d["rhs"]) if d.get("rhs") else None), rel.name


def test_registry_file_is_its_own_dumps():
    # every side is a plain string, and the file is written as the package
    # writes JSON: sorted keys, two-space indent, final newline
    text = resources.files("riemann_syzygy.data").joinpath("relations.json").read_text()
    assert dumps(json.loads(text)) == text
    assert all(isinstance(d["lhs"], str) and isinstance(d.get("rhs") or "", str)
               for d in json.loads(text)["relations"])


def test_registry_entry_tags_kept():
    rel = relations._relation_from_dict(
        {"name": "ok_rel", "lhs": _SIDE, "tags": ["a", "bc"]}, 0)
    assert rel.tags == ("a", "bc") and rel.rhs is None


def test_registry_sides_accepted():
    for rel in load_relations():
        assert isinstance(rel.lhs, expr.Poly), rel.name
        assert rel.rhs is None or isinstance(rel.rhs, expr.Poly), rel.name


# ---------------------------------------------------------------------------
# Meta-checks: structural consequences beyond residual-zero


def _trace_value(rel_name, t):
    """Evaluate a rank-2 relation's lhs on a raw tensor and take its trace."""
    m = expr.evaluate(get_relation(rel_name).lhs, expr.tensor_context(t))
    return sum(m[i, i] for i in range(4))


def _scalar_value(rel_name, t):
    return expr.evaluate(get_relation(rel_name).lhs, expr.tensor_context(t))


def test_contracting_rank2_syzygies_gives_cubic_traces():
    """Trace the second-rank syzygies on tensors that keep pair symmetry but
    break the first Bianchi identity; there the cubic trace identities become
    falsifiable, and the exact multiples must still come out."""
    saw_nonzero = False
    for seed in range(1, 7):
        t = relaxed_tensor(seed)
        d1 = _scalar_value("cubic_trace_1", t)
        d2 = _scalar_value("cubic_trace_2", t)
        saw_nonzero = saw_nonzero or d2 != 0
        assert _trace_value("rank2_contracted_1", t) == 4 * d1
        assert _trace_value("rank2_contracted_2", t) == 8 * d2
        assert _trace_value("rank2_syzygy_1", t) == 8 * d2
        assert _trace_value("rank2_syzygy_2", t) == 4 * d2
    assert saw_nonzero  # the comparison was not vacuous


def test_quartic_x1_is_sixth_of_c_plus_d():
    c = get_relation("quartic_c").lhs
    d = get_relation("quartic_d").lhs
    x1 = get_relation("quartic_x1").lhs
    diff = expr.combine((Fraction(1, 6), c), (Fraction(1, 6), d), (-1, x1))
    # equality must hold term by term for arbitrary tensors, not just
    # curvature tensors: check on Bianchi-violating samples
    for seed in range(1, 4):
        t = relaxed_tensor(seed)
        assert expr.evaluate(diff, expr.tensor_context(t)) == 0


def test_quartic_x2_combination():
    combo = expr.combine(
        (Fraction(1, 4), get_relation("quartic_f").lhs),
        (Fraction(-3, 4), get_relation("quartic_g").lhs),
        (Fraction(1, 2), get_relation("quartic_h").lhs),
        (Fraction(1, 2), get_relation("quartic_a").lhs),
        (Fraction(3, 2), get_relation("quartic_b").lhs),
        (-1, get_relation("quartic_x2").lhs),
    )
    for seed in range(1, 4):
        t = relaxed_tensor(seed)
        assert expr.evaluate(combo, expr.tensor_context(t)) == 0


def test_einstein_pseudo_contractions_give_signature_density():
    """Contracting both free pairs of the orientation-odd relations yields a
    fixed nonzero multiple of the signature density, except the last one,
    whose contraction vanishes identically."""
    einstein = random_fblocks_stream(31337, 6, GenConfig(einstein=True))
    hirz = expr.parse("eps[c,d,e,f]*R[a,b,c,d]*R[a,b,e,f]")
    expected = {
        1: Fraction(1), 2: Fraction(1, 2), 3: Fraction(1, 4),
        4: Fraction(1, 4), 5: Fraction(1, 2), 6: Fraction(1),
        7: Fraction(-1, 2),
    }
    for i in range(1, 9):
        rel = get_relation(f"einstein_pseudo_{i}")
        traced = expr.relabel(rel.lhs, {"c": "a", "d": "b"})
        vals = []
        for fb in einstein:
            ctx = contexts_for(fb)["tensor"]
            vals.append(
                (expr.evaluate(traced, ctx), expr.evaluate(hirz, ctx))
            )
        if i == 8:
            assert all(v == 0 for v, _ in vals)
            continue
        qs = {Fraction(v, h) for v, h in vals if h != 0}
        assert qs == {expected[i]}, f"einstein_pseudo_{i}: ratio {qs}"


# ---------------------------------------------------------------------------
# Mutation soundness of the verifier


def test_mutations_change_the_expression():
    """Each mutant differs from its relation in one coefficient of one side,
    by exactly +1."""
    count = 0
    for rel in load_relations():
        sides = (rel.lhs, rel.rhs)
        for desc, mutant in mutations(rel):
            assert rel.name in desc
            changed = [(k, i, a, b)
                       for k, (p, q) in enumerate(zip(sides, (mutant.lhs, mutant.rhs)))
                       if p is not None
                       for i, (a, b) in enumerate(zip(p.monomials, q.monomials))
                       if a != b]
            assert len(changed) == 1, desc
            [(k, i, a, b)] = changed
            assert desc == f"{rel.name}: {('lhs', 'rhs')[k]} monomial {i} coefficient +1"
            assert b.factors == a.factors and b.coeff == a.coeff + 1
            # nothing else moved: same monomial count and free labels
            for p, q in zip(sides, (mutant.lhs, mutant.rhs)):
                assert (p is None) == (q is None)
                if p is not None:
                    assert len(q.monomials) == len(p.monomials)
                    assert q.free_labels == p.free_labels
            count += 1
    assert count == sum(len(p.monomials) for r in load_relations()
                        for p in (r.lhs, r.rhs) if p is not None)


def test_mutations_parse_the_relation_once(monkeypatch, samples):
    parsed = []
    parse = expr.parse
    monkeypatch.setattr(expr, "parse", lambda text: parsed.append(text) or parse(text))
    # the relation was parsed when the registry loaded: generating its
    # mutants, and checking every one, parses nothing more
    rel = get_relation("quartic_a")
    assert len(list(mutations(rel))) == 7
    rel = get_relation("hirzebruch_dual_route")
    results = [check_relation(mutant, samples[:3]) for _, mutant in mutations(rel)]
    assert len(results) == 3 and not any(r.ok for r in results)
    assert parsed == []



def test_mutants_equal_the_checked_replace():
    """A mutant, made without ``Relation``'s checks, equals the relation
    that ``dataclasses.replace`` makes from the same side, with every check
    run."""
    count = 0
    for rel in load_relations():
        for desc, mutant in mutations(rel):
            key = "lhs" if ": lhs " in desc else "rhs"
            side = getattr(mutant, key)
            assert side is not getattr(rel, key)
            assert type(mutant) is Relation and type(mutant.tags) is tuple
            assert mutant == replace(rel, **{key: side}), desc
            count += 1
    assert count > 398

def test_mutated_relation_detected(samples):
    rel = get_relation("gauss_bonnet")
    for _, mutant in mutations(rel):
        result = check_relation(mutant, samples[:5])
        assert not result.ok
        assert result.first_failure is not None


# sha256 of dumps(verify_all(1, 10).to_dict()), and of the JSON list of
# (description, ok, first_failure) of every mutant of every expect-zero
# relation on 5 samples per domain (seed 1), both recorded before each
# monomial's contraction plan was compiled once
_GOLDEN_VERIFY = "9f6b478f264a35631b1fff0d56c24974d5d44f15b2440834c35a01fa2efd2c7f"
_GOLDEN_MUTANTS = "e3d0dee2828dc0a566c721c772dfbbeeeea3a0f40f5452060102585100f530d9"


def test_verify_and_mutation_verdicts_byte_identical():
    text = dumps(verify_all(1, 10).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == _GOLDEN_VERIFY
    samples = {domain: random_fblocks_stream(1, 5, GenConfig(einstein=domain == "einstein"))
               for domain in ("general", "einstein")}
    rows = []
    for rel in load_relations():
        if rel.expect == "zero":
            for desc, mutant in mutations(rel):
                result = check_relation(mutant, samples[mutant.domain])
                rows.append([desc, result.ok, result.first_failure])
    assert len(rows) == 398 and sum(not ok for _, ok, _ in rows) == 395
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == _GOLDEN_MUTANTS


# ---------------------------------------------------------------------------
# A relation built from its expression strings equals one built from Polys


def _poly_twin(d):
    """Registry entry ``d`` with each side's expression given as its Poly."""
    return {**d, **{key: expr.parse(d[key]) for key in ("lhs", "rhs") if d.get(key)}}


def test_poly_sides_check_like_strings():
    samples = {domain: random_fblocks_stream(7, 3, GenConfig(einstein=domain == "einstein"))
               for domain in ("general", "einstein")}
    entries = _registry_entries()
    assert len(entries) == 67
    for i, d in enumerate(entries):
        rel = relations._relation_from_dict(d, i)
        twin = relations._relation_from_dict(_poly_twin(d), i)
        assert twin == rel == get_relation(rel.name)
        want = check_relation(rel, samples[rel.domain])
        assert check_relation(twin, samples[rel.domain]) == want, rel.name


@pytest.mark.parametrize("lhs, rhs, rhs_delta", _MISMATCHED)
def test_poly_sides_mismatch_like_strings(lhs, rhs, rhs_delta):
    with pytest.raises(ValueError) as want:
        _shaped(lhs, rhs, rhs_delta)
    with pytest.raises(ValueError) as got:
        _shaped(expr.parse(lhs), expr.parse(rhs), rhs_delta)
    assert str(got.value) == str(want.value)


def test_registry_sides_render_round_trip():
    for rel in load_relations():
        for side in (rel.lhs, rel.rhs):
            if side is not None:
                assert expr.parse(expr.render(side)) == side, rel.name


def test_verify_all_builds_each_sample_once(monkeypatch):
    recon, weyl = [], []
    for name, calls in (("reconstruct_scaled", recon), ("weyl6", weyl)):
        fn = getattr(expr, name)
        monkeypatch.setattr(expr, name,
                            lambda x, fn=fn, calls=calls: calls.append(x) or fn(x))
    report = verify_all(5, 3)
    assert report.ok
    # 3 general and 3 Einstein samples, each reconstructed at most once (a
    # sample's blocks are its own arrays)
    assert 0 < len(recon) == len({id(b["Ap"]) for b in recon}) <= 6
    assert 0 < len(weyl) <= 6


def test_mutants_reuse_the_relations_contractions(monkeypatch):
    samples = {d: random_fblocks_stream(13, 3, GenConfig(einstein=(d == "einstein")))
               for d in ("general", "einstein")}
    rels = load_relations()
    for rel in rels:
        check_relation(rel, samples[rel.domain])
    calls = []
    # a one-pass contraction is an einsum, each pairwise step a matmul
    for name in ("einsum", "matmul"):
        monkeypatch.setattr(np, name, lambda *a, f=getattr(np, name), **k:
                            calls.append(f.__name__) or f(*a, **k))
    results = [check_relation(mutant, samples[rel.domain])
               for rel in rels for _, mutant in mutations(rel)]
    assert len(results) > 398 and not all(r.ok for r in results)
    assert calls == []
