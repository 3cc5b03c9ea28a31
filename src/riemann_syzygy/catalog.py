"""Catalogs of curvature-invariant monomials at orders 2 through 5.

Each entry carries one or more exact representations:

* ``tensor`` — an index-contraction expression over the rank-4 tensor
  language (symbols R, Rc, Sc, W, Rt, eps, delta),
* ``matrix`` — a block/trace-word expression over the matrix language
  (Ap, Am, B, BT, eps3, delta3, R, detB), written so the distinction
  between B and its transpose is preserved,
* ``fform``  — the same matrix-language value written entry-wise in the
  block coefficients (B only), mirroring the block-expansion normal form;
  it is evaluated in the matrix language.

All representations of an entry evaluate to the same exact rational on every
curvature tensor; the test suite verifies this on random samples.
An entry holds every form as a Poly, parsed once when the entry is made, so
a malformed form, or one whose symbols are not of the language its field
stands for, fails at import, naming the entry and the field.  The quartic
pseudo-scalars are derived from their even sources by
``expr.pseudo_variant``.  ``CatalogEntry.form`` is the one rule that picks
the Poly that ``ranklab.sample_matrix`` and the CLI evaluate, in the one
context of a sample or batch (``contexts_for``, ``expr.context``) that holds
both languages.  Each catalog has one name, its key in ``CATALOGS``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import expr
from .decomp import FBlocks

__all__ = [
    "CatalogEntry",
    "CATALOGS",
    "catalog",
    "catalog_names",
    "contexts_for",
]


# the language each representation must be written in
_LANGUAGE = dict(tensor="tensor", matrix="matrix", fform="matrix")


@dataclass(frozen=True)
class CatalogEntry:
    """A named invariant with its available exact representations, each
    given as an expression string or a Poly and held as a Poly in the field's
    language (ExprError naming the entry and the field otherwise)."""

    label: str
    tensor: object = None  # Poly | None
    matrix: object = None
    fform: object = None

    def __post_init__(self):
        for name, language in _LANGUAGE.items():
            value = getattr(self, name)
            if value is not None:
                try:
                    object.__setattr__(self, name, expr.of_language(value, language))
                except expr.ExprError as e:
                    raise expr.ExprError(f"{self.label}: {name}: {e}") from e

    def representations(self):
        return {
            name: getattr(self, name)
            for name in _LANGUAGE
            if getattr(self, name) is not None
        }

    def form(self, representation=None):
        """The Poly of the named representation, or of the first one when
        none is named."""
        reps = self.representations()
        name = representation or next(iter(reps))
        if name not in reps:
            raise ValueError(f"catalog entry {self.label!r} has no {name!r} form")
        return reps[name]

    def free_labels(self):
        """Free index labels of the entry (empty for a scalar invariant)."""
        return self.form().free_labels


def _c(*terms):
    return expr.combine(*terms)


# ---------------------------------------------------------------------------
# Recurring matrix-language building blocks (entry-wise f-form, B only).

# 6 det B, written entry-wise
DETB6 = "2*B[i,j]*B[j,k]*B[k,i] - 3*B[i,i]*B[j,k]*B[k,j] + B[i,i]*B[j,j]*B[k,k]"
# sum of squares of all blocks weighting the mixed block twice
K2 = "Ap[i,j]*Ap[i,j] + 2*B[i,j]*B[i,j] + Am[i,j]*Am[i,j]"
# the symmetric-block squares alone
A2SUM = "Ap[i,j]*Ap[i,j] + Am[i,j]*Am[i,j]"
B2 = "B[i,j]*B[i,j]"
# cubic mixed word and its parity partner
V3 = "Ap[i,j]*B[i,k]*B[j,k] + Am[i,j]*B[k,i]*B[k,j]"
# the same two blocks multiplied by the scalar curvature
R_DETB6 = (
    "2*R*B[i,j]*B[j,k]*B[k,i] - 3*R*B[i,i]*B[j,k]*B[k,j]"
    " + R*B[i,i]*B[j,j]*B[k,k]"
)
R_V3 = "R*B[i,j]*B[k,j]*Ap[i,k] + R*B[j,i]*B[j,k]*Am[i,k]"
# cubic symmetric word
A3SUM = "Ap[i,j]*Ap[i,k]*Ap[j,k] + Am[i,j]*Am[i,k]*Am[j,k]"
# quartic four-term groups multiplying one symmetric block
G4P = (
    "B[i,j]*B[j,i]*B[k,l]*Ap[k,l] - B[i,i]*B[j,j]*B[k,l]*Ap[k,l]"
    " + 2*B[i,i]*B[j,k]*B[l,j]*Ap[k,l] - 2*B[i,j]*B[j,k]*B[l,i]*Ap[k,l]"
)
G4M = (
    "B[i,j]*B[j,i]*B[k,l]*Am[k,l] - B[i,i]*B[j,j]*B[k,l]*Am[k,l]"
    " + 2*B[i,i]*B[k,j]*B[j,l]*Am[k,l] - 2*B[j,i]*B[k,j]*B[i,l]*Am[k,l]"
)
# quartic words
W4SUM = "Ap[i,j]*Ap[i,k]*Ap[j,l]*Ap[k,l] + Am[i,j]*Am[i,k]*Am[j,l]*Am[k,l]"
W4P = "Ap[i,j]*Ap[i,k]*Ap[j,l]*Ap[k,l]"
W4M = "Am[i,j]*Am[i,k]*Am[j,l]*Am[k,l]"
XI4 = "B[i,j]*B[i,k]*B[l,j]*B[l,k]"
XII4 = "Ap[i,j]*Am[k,l]*B[i,k]*B[j,l]"
XIII4 = "Ap[i,j]*Ap[j,l]*B[i,k]*B[l,k] + Am[i,j]*Am[j,l]*B[k,i]*B[k,l]"
X4 = "Ap[i,j]*Ap[i,j]*Ap[k,l]*Ap[k,l] + Am[i,j]*Am[i,j]*Am[k,l]*Am[k,l]"
VII4 = "Ap[i,j]*Ap[i,j]*Am[k,l]*Am[k,l]"
VIII4 = "B[i,j]*B[i,j]*B[k,l]*B[k,l]"
IX4 = "B[k,l]*B[k,l]*Ap[i,j]*Ap[i,j] + B[k,l]*B[k,l]*Am[i,j]*Am[i,j]"
IXK2 = "B[k,l]*B[k,l]*Ap[i,j]*Ap[i,j] + 2*B[k,l]*B[k,l]*B[i,j]*B[i,j] + B[k,l]*B[k,l]*Am[i,j]*Am[i,j]"
# quartic symmetric-times-mixed squares split by family
PP2P = "B[i,j]*B[k,j]*Ap[i,l]*Ap[k,l]"
MM2M = "B[j,i]*B[j,k]*Am[i,l]*Am[k,l]"


# ---------------------------------------------------------------------------
# Quadratic order

QUADRATIC_SCALARS = [
    CatalogEntry(
        "R2",
        tensor="Sc*Sc",
        matrix="R*R",
    ),
    CatalogEntry(
        "Rc2",
        tensor="Rc[a,b]*Rc[a,b]",
        matrix=_c((1, "1/4*R*R"), (16, B2)),
    ),
    CatalogEntry(
        "K",
        tensor="R[a,b,c,d]*R[a,b,c,d]",
        matrix=expr.scale(K2, 16),
    ),
    CatalogEntry(
        "epseps",
        tensor="eps[a,b,c,d]*eps[e,f,g,h]*R[a,b,e,f]*R[c,d,g,h]",
        matrix=_c((64, A2SUM), (-128, B2)),
    ),
    CatalogEntry(
        "hirzebruch",
        tensor="eps[c,d,e,f]*R[a,b,c,d]*R[a,b,e,f]",
        matrix="32*Ap[i,j]*Ap[i,j] - 32*Am[i,j]*Am[i,j]",
    ),
]

QUADRATIC_BASIS = [
    CatalogEntry("q2_R2", matrix="R*R"),
    CatalogEntry("q2_A2", matrix=A2SUM),
    CatalogEntry("q2_B2", matrix=B2),
]


# ---------------------------------------------------------------------------
# Cubic order: the 8 scalar monomials with their block expansions

CUBIC_SCALARS = [
    CatalogEntry("c_R3", tensor="Sc*Sc*Sc", matrix="R*R*R"),
    CatalogEntry(
        "c_RRc2",
        tensor="Sc*Rc[a,b]*Rc[a,b]",
        matrix="1/4*R*R*R + 16*R*B[i,j]*B[i,j]",
    ),
    CatalogEntry(
        "c_Rc3",
        tensor="Rc[a,b]*Rc[b,c]*Rc[c,a]",
        matrix=_c(
            (1, "1/16*R*R*R + 12*R*B[i,j]*B[i,j]"),
            (-32, DETB6),
        ),
    ),
    CatalogEntry(
        "c_RcRcRiem",
        tensor="Rc[a,c]*Rc[b,d]*R[a,b,c,d]",
        matrix=_c(
            (1, "1/16*R*R*R + 4*R*B[i,j]*B[i,j]"),
            (32, DETB6),
            (32, V3),
        ),
    ),
    CatalogEntry(
        "c_RK",
        tensor="Sc*R[a,b,c,d]*R[a,b,c,d]",
        matrix="16*R*Ap[i,j]*Ap[i,j] + 32*R*B[i,j]*B[i,j] + 16*R*Am[i,j]*Am[i,j]",
    ),
    CatalogEntry(
        "c_RcRiem2",
        tensor="Rc[a,b]*R[a,c,d,e]*R[b,c,d,e]",
        matrix=_c(
            (1, "4*R*Ap[i,j]*Ap[i,j] + 8*R*B[i,j]*B[i,j] + 4*R*Am[i,j]*Am[i,j]"),
            (64, V3),
        ),
    ),
    CatalogEntry(
        "c_V",
        tensor="R[a,b,c,d]*R[c,d,e,f]*R[e,f,a,b]",
        matrix=_c((192, V3), (64, A3SUM)),
    ),
    CatalogEntry(
        "c_theta",
        tensor="R[a,c,b,d]*R[c,e,d,f]*R[e,a,f,b]",
        matrix=_c(
            (1, "1/16*R*R*R - 6*R*Ap[i,j]*Ap[i,j] - 6*R*Am[i,j]*Am[i,j]"),
            (32, A3SUM),
            (32, DETB6),
        ),
    ),
]

CUBIC_BASIS = [
    CatalogEntry("q3_R3", matrix="R*R*R"),
    CatalogEntry("q3_RA2", matrix="R*Ap[i,j]*Ap[i,j] + R*Am[i,j]*Am[i,j]"),
    CatalogEntry("q3_RB2", matrix="R*B[i,j]*B[i,j]"),
    CatalogEntry("q3_A3", matrix=A3SUM),
    CatalogEntry("q3_V3", matrix=V3),
    CatalogEntry("q3_detB", matrix=DETB6),
]


# ---------------------------------------------------------------------------
# Cubic order: the 16 second-rank tensors (free indices a, b)

CUBIC_RANK2 = [
    CatalogEntry("A", tensor="Sc*Sc*Rc[a,b]"),
    CatalogEntry("B", tensor="Sc*Rc[a,c]*Rc[b,c]"),
    CatalogEntry("C", tensor="Rc[a,b]*Rc[c,d]*Rc[c,d]"),
    CatalogEntry("D", tensor="Rc[a,c]*Rc[b,d]*Rc[c,d]"),
    CatalogEntry("E", tensor="Sc*R[a,c,b,d]*Rc[c,d]"),
    CatalogEntry("F", tensor="R[a,c,b,d]*Rc[c,e]*Rc[d,e]"),
    CatalogEntry("G", tensor="Rc[a,c]*R[b,e,c,d]*Rc[d,e]"),
    CatalogEntry("H", tensor="Sc*R[a,e,c,d]*R[b,e,c,d]"),
    CatalogEntry("I", tensor="Rc[a,b]*R[c,d,e,f]*R[c,d,e,f]"),
    CatalogEntry("J", tensor="Rc[a,c]*R[b,e,d,f]*R[c,e,d,f]"),
    CatalogEntry("K", tensor="R[a,e,c,d]*R[b,f,c,d]*Rc[e,f]"),
    CatalogEntry("L", tensor="R[a,c,b,d]*R[c,e,d,f]*Rc[e,f]"),
    CatalogEntry("M", tensor="R[a,c,d,e]*R[b,c,d,f]*Rc[e,f]"),
    CatalogEntry("N", tensor="R[a,g,c,d]*R[b,g,e,f]*R[c,d,e,f]"),
    CatalogEntry("O", tensor="R[a,e,c,g]*R[b,f,d,g]*R[c,d,e,f]"),
    CatalogEntry("P", tensor="R[a,e,b,g]*R[c,d,e,f]*R[c,d,f,g]"),
]


# ---------------------------------------------------------------------------
# Quartic order: the 26 scalar monomials, tensor form plus block expansion

QUARTIC_SCALARS = [
    CatalogEntry("A", tensor="Sc*Sc*Sc*Sc", matrix="R*R*R*R"),
    CatalogEntry(
        "B",
        tensor="Sc*Sc*Rc[a,b]*Rc[a,b]",
        matrix="1/4*R*R*R*R + 16*R*R*B[i,j]*B[i,j]",
    ),
    CatalogEntry(
        "C",
        tensor="Sc*Rc[a,b]*Rc[b,c]*Rc[c,a]",
        matrix=_c(
            (1, "1/16*R*R*R*R + 12*R*R*B[i,j]*B[i,j]"),
            (-32, R_DETB6),
        ),
    ),
    CatalogEntry(
        "D",
        tensor="Rc[a,b]*Rc[a,b]*Rc[c,d]*Rc[c,d]",
        matrix="1/16*R*R*R*R + 8*R*R*B[i,j]*B[i,j] + 256*B[i,j]*B[i,j]*B[k,l]*B[k,l]",
    ),
    CatalogEntry(
        "E",
        tensor="Rc[a,b]*Rc[b,c]*Rc[c,d]*Rc[d,a]",
        matrix=_c(
            (1, "1/64*R*R*R*R + 6*R*R*B[i,j]*B[i,j]"),
            (-32, R_DETB6),
            (192, VIII4),
            (-128, XI4),
        ),
    ),
    CatalogEntry(
        "F",
        tensor="Sc*Rc[a,b]*Rc[c,d]*R[a,c,b,d]",
        matrix=_c(
            (1, "1/16*R*R*R*R + 4*R*R*B[i,j]*B[i,j]"),
            (32, R_DETB6),
            (32, R_V3),
        ),
    ),
    CatalogEntry(
        "G",
        tensor="Rc[a,b]*Rc[c,e]*Rc[e,d]*R[a,c,b,d]",
        matrix=_c(
            (1, "1/64*R*R*R*R + 2*R*R*B[i,j]*B[i,j]"),
            (8, R_DETB6),
            (16, R_V3),
            (-64, VIII4),
            (128, XI4),
            (-32, G4P),
            (-32, G4M),
        ),
    ),
    CatalogEntry(
        "H",
        tensor="Sc*Sc*R[a,b,c,d]*R[a,b,c,d]",
        matrix="16*R*R*Ap[i,j]*Ap[i,j] + 32*R*R*B[i,j]*B[i,j] + 16*R*R*Am[i,j]*Am[i,j]",
    ),
    CatalogEntry(
        "I",
        tensor="Sc*Rc[a,b]*R[a,c,d,e]*R[b,c,d,e]",
        matrix=_c(
            (1, "4*R*R*Ap[i,j]*Ap[i,j] + 8*R*R*B[i,j]*B[i,j] + 4*R*R*Am[i,j]*Am[i,j]"),
            (64, R_V3),
        ),
    ),
    CatalogEntry(
        "J",
        tensor="Rc[a,b]*Rc[a,b]*R[c,d,e,f]*R[c,d,e,f]",
        matrix=_c(
            (1, "4*R*R*Ap[i,j]*Ap[i,j] + 8*R*R*B[i,j]*B[i,j] + 4*R*R*Am[i,j]*Am[i,j]"),
            (256, IXK2),
        ),
    ),
    CatalogEntry(
        "K",
        tensor="Rc[a,b]*Rc[b,c]*R[d,e,f,a]*R[d,e,f,c]",
        matrix=_c(
            (1, "R*R*Ap[i,j]*Ap[i,j] + 2*R*R*B[i,j]*B[i,j] + R*R*Am[i,j]*Am[i,j]"),
            (32, R_V3),
            (64, IXK2),
            (128, G4P),
            (128, G4M),
        ),
    ),
    CatalogEntry(
        "L",
        tensor="Rc[a,b]*Rc[c,d]*R[a,c,e,f]*R[b,d,e,f]",
        matrix=_c(
            (1, "R*R*Ap[i,j]*Ap[i,j] + 2*R*R*B[i,j]*B[i,j] + R*R*Am[i,j]*Am[i,j]"),
            (32, R_V3),
            (-64, IXK2),
            (-128, G4P),
            (-128, G4M),
            (128, PP2P),
            (256, XI4),
            (128, MM2M),
        ),
    ),
    CatalogEntry(
        "M",
        tensor="Rc[a,b]*Rc[c,d]*R[a,e,b,f]*R[c,e,d,f]",
        matrix=_c(
            (1, "1/64*R*R*R*R + 2*R*R*B[i,j]*B[i,j]"),
            (16, R_DETB6),
            (192, VIII4),
            (64, G4P),
            (64, G4M),
            (64, PP2P),
            (128, XII4),
            (-128, XI4),
            (64, MM2M),
        ),
    ),
    CatalogEntry(
        "N",
        tensor="Rc[a,b]*Rc[c,d]*R[a,e,c,f]*R[b,e,d,f]",
        matrix=_c(
            (1, "R*R*Ap[i,j]*Ap[i,j] + 2*R*R*B[i,j]*B[i,j] + R*R*Am[i,j]*Am[i,j]"),
            (32, R_V3),
            (128, XII4),
            (128, XI4),
        ),
    ),
    CatalogEntry(
        "O",
        tensor="Sc*R[a,b,c,d]*R[c,d,e,f]*R[e,f,a,b]",
        matrix=(
            "64*R*Ap[i,j]*Ap[i,k]*Ap[j,k] + 192*R*Ap[i,k]*B[i,j]*B[k,j]"
            " + 192*R*Am[i,k]*B[j,i]*B[j,k] + 64*R*Am[i,j]*Am[i,k]*Am[j,k]"
        ),
    ),
    CatalogEntry(
        "P",
        tensor="Sc*R[a,c,b,d]*R[a,e,b,f]*R[c,e,d,f]",
        matrix=_c(
            (1, "1/16*R*R*R*R - 6*R*R*Ap[i,j]*Ap[i,j] - 6*R*R*Am[i,j]*Am[i,j]"),
            (32, R_DETB6),
            (32, "R*Ap[i,j]*Ap[i,k]*Ap[j,k] + R*Am[i,j]*Am[i,k]*Am[j,k]"),
        ),
    ),
    CatalogEntry(
        "Q",
        tensor="Rc[a,b]*R[a,c,b,d]*R[e,f,g,c]*R[e,f,g,d]",
        matrix=_c(
            (1, "R*R*Ap[i,j]*Ap[i,j] + 2*R*R*B[i,j]*B[i,j] + R*R*Am[i,j]*Am[i,j]"),
            (64, IXK2),
            (-128, G4P),
            (-128, G4M),
            (128, PP2P),
            (256, XII4),
            (128, MM2M),
        ),
    ),
    CatalogEntry(
        "R",
        tensor="Rc[a,b]*R[c,d,e,f]*R[a,g,e,f]*R[b,g,c,d]",
        matrix=_c(
            (1, (
                "16*R*Ap[i,j]*Ap[i,k]*Ap[j,k] + 48*R*Ap[i,k]*B[i,j]*B[k,j]"
                " + 48*R*Am[i,k]*B[j,i]*B[j,k] + 16*R*Am[i,j]*Am[i,k]*Am[j,k]"
            )),
            (256, "Ap[i,j]*Ap[j,k]*B[k,l]*B[i,l]"),
            (256, XII4),
            (256, XI4),
            (256, "Am[i,j]*Am[j,k]*B[l,k]*B[l,i]"),
        ),
    ),
    CatalogEntry(
        "S",
        tensor="Rc[a,b]*R[c,e,d,f]*R[e,g,f,a]*R[g,c,b,d]",
        matrix=_c(
            (1, "1/64*R*R*R*R - 3/2*R*R*Ap[i,j]*Ap[i,j] + R*R*B[i,j]*B[i,j] - 3/2*R*R*Am[i,j]*Am[i,j]"),
            (8, R_DETB6),
            (8, (
                "R*Ap[i,j]*Ap[i,k]*Ap[j,k] - R*Ap[i,k]*B[i,j]*B[k,j]"
                " - R*Am[i,k]*B[j,i]*B[j,k] + R*Am[i,j]*Am[i,k]*Am[j,k]"
            )),
            (-32, IX4),
            (64, PP2P),
            (64, MM2M),
            (-32, G4P),
            (-32, G4M),
        ),
    ),
    CatalogEntry(
        "T",
        tensor="R[a,b,c,d]*R[a,b,c,d]*R[e,f,g,h]*R[e,f,g,h]",
        matrix=_c(
            (256, X4),
            (1024, VIII4),
            (1024, "Ap[i,j]*Ap[i,j]*B[k,l]*B[k,l] + Am[i,j]*Am[i,j]*B[k,l]*B[k,l]"),
            (512, VII4),
        ),
    ),
    CatalogEntry(
        "U",
        tensor="R[a,b,c,d]*R[a,b,c,e]*R[f,g,h,d]*R[f,g,h,e]",
        matrix=_c(
            (256, "B[k,l]*B[k,l]*Ap[i,j]*Ap[i,j] + B[k,l]*B[k,l]*B[i,j]*B[i,j] + B[k,l]*B[k,l]*Am[i,j]*Am[i,j]"),
            (64, X4),
            (128, VII4),
            (256, "Ap[i,j]*Ap[j,k]*B[k,l]*B[i,l]"),
            (512, XII4),
            (256, "Am[i,j]*Am[j,k]*B[l,k]*B[l,i]"),
        ),
    ),
    CatalogEntry(
        "V",
        tensor="R[a,b,c,d]*R[c,d,e,f]*R[e,f,g,h]*R[g,h,a,b]",
        matrix=_c(
            (256, W4SUM),
            (1024, "Ap[i,j]*Ap[j,l]*B[i,k]*B[l,k] + Am[i,j]*Am[j,l]*B[k,i]*B[k,l]"),
            (1024, XII4),
            (512, XI4),
        ),
    ),
    CatalogEntry(
        "W",
        tensor="R[a,b,c,d]*R[a,b,e,f]*R[c,e,g,h]*R[d,f,g,h]",
        matrix=_c(
            (-64, X4),
            (128, VII4),
            (128, W4SUM),
            (512, "Ap[i,j]*Ap[j,l]*B[i,k]*B[l,k] + Am[i,j]*Am[j,l]*B[k,i]*B[k,l]"),
            (512, XII4),
            (256, XI4),
        ),
    ),
    CatalogEntry(
        "X",
        tensor="R[a,b,c,d]*R[e,f,a,b]*R[g,c,h,e]*R[g,d,h,f]",
        matrix=_c(
            (1, "R*R*Ap[i,j]*Ap[i,j] + 2*R*R*B[i,j]*B[i,j] + R*R*Am[i,j]*Am[i,j]"),
            (-16, (
                "R*Ap[i,j]*Ap[i,k]*Ap[j,k] + R*Ap[i,k]*B[i,j]*B[k,j]"
                " + R*Am[i,k]*B[j,i]*B[j,k] + R*Am[i,j]*Am[i,k]*Am[j,k]"
            )),
            (-64, X4),
            (-64, "Ap[i,j]*Ap[i,j]*B[k,l]*B[k,l] + Am[i,j]*Am[i,j]*B[k,l]*B[k,l]"),
            (-128, G4P),
            (-128, G4M),
            (128, W4SUM),
            (128, XIII4),
        ),
    ),
    CatalogEntry(
        "Y",
        tensor="R[a,c,b,d]*R[c,e,d,f]*R[e,g,f,h]*R[g,a,h,b]",
        matrix=_c(
            (64, "B[k,l]*B[k,l]*Ap[i,j]*Ap[i,j] + 3*B[k,l]*B[k,l]*B[i,j]*B[i,j] + B[k,l]*B[k,l]*Am[i,j]*Am[i,j]"),
            (-32, W4P),
            (128, "B[j,i]*B[k,i]*Ap[j,l]*Ap[k,l]"),
            (384, "Ap[i,j]*B[i,k]*B[j,l]*Am[k,l]"),
            (-64, XI4),
            (128, "B[i,j]*B[i,k]*Am[j,l]*Am[k,l]"),
            (-32, W4M),
            (48, X4),
            (96, VII4),
        ),
    ),
    CatalogEntry(
        "Z",
        tensor="R[a,c,b,d]*R[e,a,f,b]*R[g,e,h,c]*R[f,g,d,h]",
        matrix=_c(
            (1, "7/512*R*R*R*R"),
            (1, "-13/8*R*R*Ap[i,j]*Ap[i,j] + 2*R*R*B[i,j]*B[i,j] - 13/8*R*R*Am[i,j]*Am[i,j]"),
            (1, (
                "12*R*Ap[i,j]*Ap[i,k]*Ap[j,k] - 16*R*B[j,i]*B[k,i]*Ap[j,k]"
                " + 7*R*B[i,i]*B[j,j]*B[k,k] - 21*R*B[i,i]*B[j,k]*B[k,j]"
                " + 14*R*B[i,j]*B[j,k]*B[k,i] - 16*R*B[i,j]*B[i,k]*Am[j,k]"
                " + 12*R*Am[i,j]*Am[i,k]*Am[j,k]"
            )),
            (-44, G4P),
            (-44, G4M),
            (-40, W4P),
            (128, PP2P),
            (256, "Ap[i,j]*B[i,k]*B[j,l]*Am[k,l]"),
            (128, MM2M),
            (-40, W4M),
            (20, X4),
            (64, VII4),
            (64, VIII4),
        ),
    ),
]


# ---------------------------------------------------------------------------
# Quartic order: the 14 basis elements, trace-word and entry-wise forms

QUARTIC_BASIS = [
    CatalogEntry("I", matrix="R*R*R*R", fform="R*R*R*R"),
    CatalogEntry("II", matrix="R*R*B[i,j]*BT[j,i]", fform="R*R*B[i,j]*B[i,j]"),
    CatalogEntry(
        "III",
        matrix="R*R*Ap[i,j]*Ap[j,i] + R*R*Am[i,j]*Am[j,i]",
        fform="R*R*Ap[i,j]*Ap[i,j] + R*R*Am[i,j]*Am[i,j]",
    ),
    CatalogEntry(
        "IV",
        matrix="R*Ap[i,j]*Ap[j,k]*Ap[k,i] + R*Am[i,j]*Am[j,k]*Am[k,i]",
        fform="R*Ap[i,j]*Ap[i,k]*Ap[j,k] + R*Am[i,j]*Am[i,k]*Am[j,k]",
    ),
    CatalogEntry(
        "V",
        matrix="R*BT[i,j]*Ap[j,k]*B[k,i] + R*B[i,j]*Am[j,k]*BT[k,i]",
        fform="R*Ap[i,j]*B[i,k]*B[j,k] + R*Am[i,j]*B[k,i]*B[k,j]",
    ),
    CatalogEntry("VI", matrix="R*detB", fform="R*detB"),
    CatalogEntry(
        "VII",
        matrix="Ap[i,j]*Ap[j,i]*Am[k,l]*Am[l,k]",
        fform=VII4,
    ),
    CatalogEntry(
        "VIII",
        matrix="B[i,j]*BT[j,i]*B[k,l]*BT[l,k]",
        fform=VIII4,
    ),
    CatalogEntry(
        "IX",
        matrix="B[i,j]*BT[j,i]*Ap[k,l]*Ap[l,k] + B[i,j]*BT[j,i]*Am[k,l]*Am[l,k]",
        fform=IX4,
    ),
    CatalogEntry(
        "X",
        matrix="Ap[i,j]*Ap[j,i]*Ap[k,l]*Ap[l,k] + Am[i,j]*Am[j,i]*Am[k,l]*Am[l,k]",
        fform=X4,
    ),
    CatalogEntry(
        "XI",
        matrix="B[i,j]*BT[j,k]*B[k,l]*BT[l,i]",
        fform=XI4,
    ),
    CatalogEntry(
        "XII",
        matrix="Ap[i,j]*B[j,k]*Am[k,l]*BT[l,i]",
        fform=XII4,
    ),
    CatalogEntry(
        "XIII",
        matrix="BT[i,j]*Ap[j,k]*Ap[k,l]*B[l,i] + B[i,j]*Am[j,k]*Am[k,l]*BT[l,i]",
        fform=XIII4,
    ),
    CatalogEntry(
        "XIV",
        matrix="Ap[i,j]*Ap[j,k]*Ap[k,l]*Ap[l,i] + Am[i,j]*Am[j,k]*Am[k,l]*Am[l,i]",
        fform=W4SUM,
    ),
]


# ---------------------------------------------------------------------------
# Quintic order: 24 basis candidates

def _times_r(entry):
    return replace(entry.matrix, monomials=tuple(
        expr.Monomial(coeff=m.coeff, factors=(("R", ()),) + m.factors)
        for m in entry.matrix.monomials))


QUINTIC_BASIS = [
    CatalogEntry(f"S5_{n}", matrix=_times_r(QUARTIC_BASIS[n - 1]))
    for n in range(1, 14)
] + [
    CatalogEntry(
        "S5_14",
        matrix=(
            "Ap[i,j]*Ap[j,i]*Ap[k,l]*Ap[l,m]*Ap[m,k]"
            " + Am[i,j]*Am[j,i]*Am[k,l]*Am[l,m]*Am[m,k]"
        ),
    ),
    CatalogEntry(
        "S5_15",
        matrix=(
            "Ap[i,j]*Ap[j,i]*Am[k,l]*Am[l,m]*Am[m,k]"
            " + Am[i,j]*Am[j,i]*Ap[k,l]*Ap[l,m]*Ap[m,k]"
        ),
    ),
    CatalogEntry(
        "S5_16",
        matrix=(
            "Ap[i,j]*Ap[j,i]*BT[k,l]*Ap[l,m]*B[m,k] + Ap[i,j]*Ap[j,i]*B[k,l]*Am[l,m]*BT[m,k]"
            " + Am[i,j]*Am[j,i]*BT[k,l]*Ap[l,m]*B[m,k] + Am[i,j]*Am[j,i]*B[k,l]*Am[l,m]*BT[m,k]"
        ),
    ),
    CatalogEntry(
        "S5_17",
        matrix=(
            "B[i,j]*BT[j,i]*Ap[k,l]*Ap[l,m]*Ap[m,k]"
            " + B[i,j]*BT[j,i]*Am[k,l]*Am[l,m]*Am[m,k]"
        ),
    ),
    CatalogEntry(
        "S5_18",
        matrix="Ap[i,j]*Ap[j,i]*detB + Am[i,j]*Am[j,i]*detB",
    ),
    CatalogEntry(
        "S5_19",
        matrix=(
            "B[i,j]*BT[j,i]*BT[k,l]*Ap[l,m]*B[m,k]"
            " + B[i,j]*BT[j,i]*B[k,l]*Am[l,m]*BT[m,k]"
        ),
    ),
    CatalogEntry("S5_20", matrix="B[i,j]*BT[j,i]*detB"),
    CatalogEntry(
        "S5_21",
        matrix=(
            "Ap[i,j]*Ap[j,k]*Ap[k,l]*Ap[l,m]*Ap[m,i]"
            " + Am[i,j]*Am[j,k]*Am[k,l]*Am[l,m]*Am[m,i]"
        ),
    ),
    CatalogEntry(
        "S5_22",
        matrix=(
            "BT[i,j]*Ap[j,k]*Ap[k,l]*Ap[l,m]*B[m,i]"
            " + B[i,j]*Am[j,k]*Am[k,l]*Am[l,m]*BT[m,i]"
        ),
    ),
    CatalogEntry(
        "S5_23",
        matrix=(
            "Ap[i,j]*Ap[j,k]*B[k,l]*Am[l,m]*BT[m,i]"
            " + Am[i,j]*Am[j,k]*BT[k,l]*Ap[l,m]*B[m,i]"
        ),
    ),
    CatalogEntry(
        "S5_24",
        matrix=(
            "B[i,j]*BT[j,k]*Ap[k,l]*B[l,m]*BT[m,i]"
            " + BT[i,j]*B[j,k]*Am[k,l]*BT[l,m]*B[m,i]"
        ),
    ),
]


# ---------------------------------------------------------------------------
# Pseudo (orientation-odd) scalar sets

PSEUDO_Q2 = [
    CatalogEntry("Q2t", matrix="Ap[i,j]*Ap[j,i] - Am[i,j]*Am[j,i]"),
]

PSEUDO_Q3 = [
    CatalogEntry("Q3t_1", matrix="R*Ap[i,j]*Ap[j,i] - R*Am[i,j]*Am[j,i]"),
    CatalogEntry(
        "Q3t_2", matrix="Ap[i,j]*Ap[j,k]*Ap[k,i] - Am[i,j]*Am[j,k]*Am[k,i]"
    ),
    CatalogEntry(
        "Q3t_3", matrix="BT[i,j]*Ap[j,k]*B[k,i] - B[i,j]*Am[j,k]*BT[k,i]"
    ),
]

# Labels in QUARTIC_BASIS whose orientation-odd variants form the quartic
# pseudo-scalar set.
PSEUDO_Q4_SOURCES = ["III", "IV", "V", "IX", "X", "XIII", "XIV"]

PSEUDO_Q4 = [
    CatalogEntry(f"{e.label}t", matrix=expr.pseudo_variant(e.matrix))
    for e in QUARTIC_BASIS
    if e.label in PSEUDO_Q4_SOURCES
]


CATALOGS = {
    "quadratic": QUADRATIC_SCALARS,
    "quadratic_basis": QUADRATIC_BASIS,
    "cubic": CUBIC_SCALARS,
    "cubic_basis": CUBIC_BASIS,
    "cubic_rank2": CUBIC_RANK2,
    "quartic": QUARTIC_SCALARS,
    "quartic_basis": QUARTIC_BASIS,
    "quintic": QUINTIC_BASIS,
    "pseudo_q2": PSEUDO_Q2,
    "pseudo_q3": PSEUDO_Q3,
    "pseudo_q4": PSEUDO_Q4,
}


def catalog_names():
    return sorted(CATALOGS)


def catalog(name):
    try:
        return CATALOGS[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog {name!r}; available: {', '.join(catalog_names())}"
        ) from None


def contexts_for(fb: FBlocks):
    """The evaluation context of one sample (``expr.context``), which holds
    both languages: every Poly is evaluated in it.

    The context is made on the first call and kept in ``fb.memo``, so every
    later call on the same FBlocks returns the same context, and every symbol
    and monomial contraction it holds (see ``expr.LazyContext``), for as long
    as the sample lives; another FBlocks of the same blocks gets its own.
    The tensor is reconstructed only when a factor of the tensor language
    asks for one of its symbols.
    """
    if "context" not in fb.memo:
        fb.memo["context"] = expr.context(fb)
    return fb.memo["context"]
