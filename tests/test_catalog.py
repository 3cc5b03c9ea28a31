"""Invariant catalogs: dual representations, parity behavior, name lookup."""

import ast
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from riemann_syzygy import catalog, expr
from riemann_syzygy.decomp import FBlocks
from riemann_syzygy.catalog import (
    CATALOGS,
    catalog_names,
    contexts_for,
)

from conftest import parity_sign

EVEN_CATALOGS = [
    "quadratic", "quadratic_basis", "cubic", "cubic_basis",
    "quartic", "quartic_basis", "quintic",
]
ODD_CATALOGS = ["pseudo_q2", "pseudo_q3", "pseudo_q4"]


def _values(entry, fb):
    ctx = contexts_for(fb)
    reps = entry.representations()
    return {kind: expr.evaluate(p, ctx) for kind, p in reps.items()}


def _value(entry, fb):
    return expr.evaluate(entry.form(), contexts_for(fb))


@pytest.mark.parametrize("name", sorted(CATALOGS))
def test_all_representations_agree(name, samples):
    """Every representation of every entry gives the same exact value."""
    for entry in catalog.catalog(name):
        for fb in samples[:4]:
            vals = list(_values(entry, fb).values())
            first = vals[0]
            for v in vals[1:]:
                if isinstance(first, np.ndarray):
                    assert np.array_equal(first, v), entry.label
                else:
                    assert first == v, entry.label


@pytest.mark.parametrize("name", EVEN_CATALOGS)
def test_scalar_catalogs_parity(name, samples):
    """Orientation reversal leaves eps-free scalar entries unchanged and
    flips the sign of single-eps entries."""
    for entry in catalog.catalog(name):
        if entry.free_labels():
            continue  # only scalar entries are compared across orientations
        sign = parity_sign(entry)
        for fb in samples[:3]:
            assert _value(entry, fb) == sign * _value(entry, fb.parity()), entry.label


@pytest.mark.parametrize("name", ODD_CATALOGS)
def test_pseudo_catalogs_parity_odd(name, samples):
    for entry in catalog.catalog(name):
        for fb in samples[:3]:
            assert _value(entry, fb) == -_value(entry, fb.parity()), entry.label
            # orientation-odd scalars vanish on parity-symmetric input
    # and each pseudo entry is the odd variant of an even word: spot check
    # the quartic set against its source labels
    if name == "pseudo_q4":
        sources = {e.label: e for e in catalog.catalog("quartic_basis")}
        for entry, src_label in zip(
            catalog.catalog(name), catalog.PSEUDO_Q4_SOURCES
        ):
            src = sources[src_label]
            odd = expr.pseudo_variant(src.form("matrix"))
            for fb in samples[:2]:
                ctx = contexts_for(fb)
                assert (
                    expr.evaluate(odd, ctx)
                    == expr.evaluate(entry.matrix, ctx)
                ), entry.label


def test_catalog_sizes():
    assert len(catalog.catalog("quadratic")) == 5
    assert len(catalog.catalog("quadratic_basis")) == 3
    assert len(catalog.catalog("cubic")) == 8
    assert len(catalog.catalog("cubic_basis")) == 6
    assert len(catalog.catalog("cubic_rank2")) == 16
    assert len(catalog.catalog("quartic")) == 26
    assert len(catalog.catalog("quartic_basis")) == 14
    assert len(catalog.catalog("quintic")) == 24
    assert len(catalog.catalog("pseudo_q4")) == 7


def test_catalog_aliases_removed():
    """Each catalog answers to one name: the old long-form spellings are
    unknown, and the error lists the catalogs there are."""
    for old in ("quadratic_scalars", "cubic_scalars", "quartic_scalars",
                "quintic_basis"):
        with pytest.raises(KeyError, match=f"unknown catalog '{old}'") as exc:
            catalog.catalog(old)
        assert "available: " + ", ".join(catalog_names()) in str(exc.value)


def test_benchmark_catalogs_exist():
    """Every catalog the benchmark ranks by name is still a catalog."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    names = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets]
        in (["SCALAR_CATALOGS"], ["TENSOR_CATALOG"])
    }
    used = [*names["SCALAR_CATALOGS"], names["TENSOR_CATALOG"]]
    assert len(used) == 4
    assert [n for n in used if n not in CATALOGS] == []


@pytest.mark.parametrize("fields, reason", [
    ({"tensor": "R[a,b"}, r"tensor: malformed factor 'R\[a,b'"),
    ({"matrix": "R*R - Sc*Sc"}, "matrix: expected symbols of the matrix language, "
     r"got R of rank 0 \(matrix\), Sc of rank 0 \(tensor\)"),
    ({"tensor": "Rcc[a,b]*Rcc[a,b]"}, "tensor: expected symbols of the tensor "
     r"language, got Rcc of rank 2 \(no language\)"),
    ({"tensor": "Rc[a,b,c]*Rc[a,b,c]"}, "tensor: expected symbols of the tensor "
     r"language, got Rc of rank 3 \(no language\)"),
    ({"fform": {"expr": "Sc", "language": "tensor"}},
     "fform: expected an expression string or a Poly, got dict"),
    ({"tensor": "Ap[i,j]*Ap[i,j]"}, "tensor: expected symbols of the tensor "
     r"language, got Ap of rank 2 \(matrix\)"),
    ({"fform": "Rc[a,b]*Rc[a,b]"}, "fform: expected symbols of the matrix "
     r"language, got Rc of rank 2 \(tensor\)"),
    ({"matrix": "R*R - 1/0*detB"}, r"matrix: zero denominator in term '1/0\*detB'"),
], ids=["malformed", "mixed", "unknown", "misranked", "dict", "matrix-as-tensor",
        "tensor-as-fform", "zero-denominator"])
def test_malformed_entry_rejected(fields, reason):
    # rejected when the entry is made, naming the entry and the field
    with pytest.raises(expr.ExprError, match=f"^z: {reason}$"):
        catalog.CatalogEntry("z", **fields)


def test_form_is_the_poly_of_its_language():
    entry = catalog.catalog("quadratic")[0]
    assert entry.form() is entry.tensor and entry.form().language == "tensor"
    assert entry.form("matrix") is entry.matrix and entry.matrix.language == "matrix"


def test_entries_hold_polys():
    """A form is parsed once, when its entry is made: a malformed form fails
    there, and every entry of every catalog holds only Polys."""
    with pytest.raises(expr.ExprError, match="malformed factor"):
        catalog.CatalogEntry("x", tensor="R[a,b")
    for name in catalog_names():
        for entry in catalog.catalog(name):
            forms = entry.representations().values()
            assert forms and all(isinstance(p, expr.Poly) for p in forms), (
                name, entry.label)


def test_unknown_catalog():
    with pytest.raises(KeyError, match="unknown catalog"):
        catalog.catalog("nope")
    assert "quartic" in catalog_names()


def test_rank2_entries_have_two_free_indices():
    for entry in catalog.catalog("cubic_rank2"):
        assert entry.tensor.free_labels == ("a", "b"), entry.label


def _count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; returns its growing call list."""
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_contexts_build_only_the_symbols_used(monkeypatch, samples):
    weyl = _count_calls(monkeypatch, expr, "weyl6")
    dual = _count_calls(monkeypatch, expr, "dual2")
    recon = _count_calls(monkeypatch, expr, "reconstruct_scaled")
    # a sample of its own: the session's samples keep the contexts and
    # symbols that earlier tests built on them
    fb = samples[0]
    ctx = contexts_for(FBlocks(Ap=fb.Ap, B=fb.B, Am=fb.Am))
    # a matrix-language expression, the matrix language's scalar R among its
    # symbols, needs no rank-4 tensor at all
    expr.evaluate("Ap[i,j]*B[j,k]*BT[k,i] + R", ctx)
    assert ("R", 4) in ctx.rules and len(recon) == 0
    # a Ricci contraction needs neither the Weyl tensor nor the dual
    expr.evaluate("Rc[a,b]*Rc[a,b]", ctx)
    assert ("W", 4) in ctx.rules and ("Rt", 4) in ctx.rules
    assert (len(recon), len(weyl), len(dual)) == (1, 0, 0)
    with pytest.raises(expr.ExprError, match="unknown symbol"):
        expr.evaluate("Nope[a,b]*Rc[a,b]", ctx)
    # a built symbol is kept for the rest of the context's life
    w = ctx.scaled("W", 4)
    expr.evaluate("W[a,b,c,d]*W[a,b,c,d]", ctx)
    assert ctx.scaled("W", 4) is w and len(weyl) == 1 and len(recon) == 1


def test_contexts_kept_on_the_sample(samples):
    fb = samples[0]
    ctx = contexts_for(fb)
    assert contexts_for(fb) is ctx
    twin = FBlocks(Ap=fb.Ap, B=fb.B, Am=fb.Am)
    other = contexts_for(twin)
    assert other is not ctx and contexts_for(twin) is other


def test_contexts_go_with_their_sample(samples):
    s = samples[0]
    fb = FBlocks(Ap=s.Ap, B=s.B, Am=s.Am)
    ctx = contexts_for(fb)
    expr.evaluate("R[a,b,c,d]*W[a,b,c,d]", ctx)
    expr.evaluate("Ap[i,j]*B[j,k]*BT[k,i]", ctx)
    sample, context = weakref.ref(fb), weakref.ref(ctx)
    # freed by reference counting alone: the context kept on the sample
    # holds no reference back to it
    enabled = gc.isenabled()
    gc.disable()
    try:
        del fb, ctx
        assert sample() is None and context() is None
    finally:
        if enabled:
            gc.enable()
