"""Exact-rational rank-4 curvature tensors on four Euclidean dimensions.

A curvature tensor is stored as a ``(4, 4, 4, 4)`` numpy array with
``dtype=object`` whose entries are Python ints or ``fractions.Fraction``.
All derived quantities (Ricci, scalar, Weyl, pseudo-tensor) are computed in
exact arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .thooft import EPS4

__all__ = [
    "Rank4Tensor",
    "exact",
    "ValidationReport",
    "validate_riemann",
    "ricci",
    "ricci_scalar",
    "traceless_ricci",
    "weyl",
    "pseudo_riemann",
    "constant_curvature",
    "rational_to_str",
    "rational_from_str",
    "riemann_to_dict",
    "riemann_from_dict",
    "riemann_to_json",
    "riemann_from_json",
]

Rank4Tensor = np.ndarray  # (4,4,4,4) object array of ints / Fractions

SCHEMA = "riemann-syzygy/1"

DELTA4 = np.array(
    [[1 if a == b else 0 for b in range(4)] for a in range(4)], dtype=object
)
# d_ac d_bd - d_ad d_bc: the curvature tensor of the unit 4-sphere (R = 12)
DELTA_WEDGE = np.einsum("ac,bd->abcd", DELTA4, DELTA4) - np.einsum(
    "ad,bc->abcd", DELTA4, DELTA4
)


def zeros() -> Rank4Tensor:
    return np.zeros((4, 4, 4, 4), dtype=object)


def _as_rational(x):
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"expected int or Fraction entry, got {type(x).__name__}")


# The exact normal form of a scalar or, entrywise, of an object array: an
# int when the value is integral, a Fraction otherwise.  Ints, numpy integers
# and Fractions are accepted; anything else (floats, strings) is a TypeError.
exact = np.frompyfunc(_as_rational, 1, 1)


def as_tensor(values) -> Rank4Tensor:
    """Coerce a nested sequence / array into a validated object array."""
    arr = np.asarray(values, dtype=object)
    if arr.shape != (4, 4, 4, 4):
        raise ValueError(f"curvature tensor must have shape (4,4,4,4), got {arr.shape}")
    return exact(arr)


@dataclass
class ValidationReport:
    """Outcome of the algebraic-symmetry checks on a candidate tensor."""

    checks: list = field(default_factory=list)  # (name, ok, counterexample)

    def add(self, name, ok, counterexample=None):
        self.checks.append((name, bool(ok), counterexample))

    @property
    def is_riemann(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [name for name, ok, _ in self.checks if not ok]

    def to_dict(self):
        return {
            "schema": SCHEMA,
            "is_riemann": self.is_riemann,
            "checks": [
                {"name": name, "ok": ok, "counterexample": ce}
                for name, ok, ce in self.checks
            ],
        }


def validate_riemann(t: Rank4Tensor) -> ValidationReport:
    """Check the algebraic curvature symmetries.

    Antisymmetry in the first and second index pairs, symmetry under pair
    exchange, and the first Bianchi identity.  Counterexamples are reported
    with 1-based indices.
    """
    report = ValidationReport()
    residuals = (
        ("Antisymmetry (first pair)", t + np.einsum("bacd->abcd", t)),
        ("Antisymmetry (second pair)", t + np.einsum("abdc->abcd", t)),
        ("Pair symmetry", t - np.einsum("cdab->abcd", t)),
        (
            "First Bianchi identity",
            t + np.einsum("acdb->abcd", t) + np.einsum("adbc->abcd", t),
        ),
    )
    for name, residual in residuals:
        bad = np.argwhere(residual != 0)  # in C order, as a, b, c, d loops
        if len(bad):
            report.add(name, False, tuple(int(i) + 1 for i in bad[0]))
        else:
            report.add(name, True)
    return report


def ricci(t: Rank4Tensor):
    """Ricci tensor R_ab = R_acbc as a (4,4) object array."""
    return np.einsum("acbc->ab", t)


def ricci_scalar(t: Rank4Tensor):
    """Scalar curvature R = R_abab."""
    return np.einsum("abab->", t)


def traceless_ricci(t: Rank4Tensor):
    """S_ab = R_ab - (R/4) delta_ab."""
    return exact(ricci(t) - Fraction(ricci_scalar(t), 4) * DELTA4)


def weyl(t: Rank4Tensor) -> Rank4Tensor:
    """Weyl (conformal) part: W = R - 1/2 delta (.) Rc + (Sc/6) DELTA_WEDGE.

    delta (.) Rc is the Kulkarni-Nomizu product
    d_ac Rc_bd + d_bd Rc_ac - d_ad Rc_bc - d_bc Rc_ad.
    """
    x = np.einsum("ac,bd->abcd", DELTA4, ricci(t))
    kn = (
        x
        + np.einsum("badc->abcd", x)
        - np.einsum("abdc->abcd", x)
        - np.einsum("bacd->abcd", x)
    )
    return exact(t - Fraction(1, 2) * kn + Fraction(ricci_scalar(t), 6) * DELTA_WEDGE)


def pseudo_riemann(t: Rank4Tensor) -> Rank4Tensor:
    """Dual on the second pair: Rt_abcd = 1/2 eps_cdef R_abef."""
    return exact(Fraction(1, 2) * np.einsum("cdef,abef->abcd", EPS4, t))


def constant_curvature(scalar) -> Rank4Tensor:
    """Maximally symmetric tensor R_abcd = (R/12)(d_ac d_bd - d_ad d_bc)."""
    return exact(Fraction(scalar, 12) * DELTA_WEDGE)


# ---------------------------------------------------------------------------
# JSON serialization.  Rationals are encoded as bare ints or "p/q" strings
# with q > 0 and gcd(p, q) = 1.


def rational_to_str(x):
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(s):
    if isinstance(s, bool):
        raise ValueError(f"invalid rational: {s!r}")
    if isinstance(s, int):
        return s
    if isinstance(s, str):
        parts = s.split("/")
        if len(parts) == 1 and _is_int(parts[0]):
            return int(parts[0])
        if len(parts) == 2 and _is_int(parts[0]) and _is_int(parts[1]):
            q = int(parts[1])
            if q <= 0:
                raise ValueError(f"denominator must be positive in {s!r}")
            return exact(Fraction(int(parts[0]), q))
    raise ValueError(f"invalid rational: {s!r}")


def _is_int(s):
    try:
        int(s)
        return True
    except ValueError:
        return False


def riemann_to_dict(t: Rank4Tensor, format="sparse"):
    if format == "dense":
        comp = [
            [
                [[rational_to_str(t[a, b, c, d]) for d in range(4)] for c in range(4)]
                for b in range(4)
            ]
            for a in range(4)
        ]
        return {"schema": SCHEMA, "format": "dense", "components": comp}
    if format == "sparse":
        entries = []
        for a, b, c, d in np.ndindex(4, 4, 4, 4):
            if t[a, b, c, d] != 0:
                entries.append(
                    [a + 1, b + 1, c + 1, d + 1, rational_to_str(t[a, b, c, d])]
                )
        return {"schema": SCHEMA, "format": "sparse", "entries": entries}
    raise ValueError(f"unknown format {format!r}")


def riemann_from_dict(data) -> Rank4Tensor:
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    schema = data.get("schema", SCHEMA)
    if schema != SCHEMA:
        raise ValueError(f"unknown schema {schema!r} (expected {SCHEMA!r})")
    fmt = data.get("format")
    if fmt == "dense":
        comp = data.get("components")
        arr = np.asarray(comp, dtype=object)
        if arr.shape != (4, 4, 4, 4):
            raise ValueError("dense components must be a 4x4x4x4 nested list")
        t = zeros()
        for idx in np.ndindex(4, 4, 4, 4):
            t[idx] = rational_from_str(arr[idx])
        return t
    if fmt == "sparse":
        t = zeros()
        seen = set()
        for entry in data.get("entries", []):
            if len(entry) != 5:
                raise ValueError(f"sparse entry must be [a,b,c,d,value]: {entry!r}")
            a, b, c, d, v = entry
            for name, i in zip("abcd", (a, b, c, d)):
                if not isinstance(i, int) or not 1 <= i <= 4:
                    raise ValueError(f"index {name}={i!r} out of range 1..4")
            if (a, b, c, d) in seen:
                raise ValueError(f"duplicate sparse entry for index {[a, b, c, d]}")
            seen.add((a, b, c, d))
            t[a - 1, b - 1, c - 1, d - 1] = rational_from_str(v)
        return t
    raise ValueError(f"unknown or missing format {fmt!r}")


def riemann_to_json(t: Rank4Tensor, format="sparse"):
    return json.dumps(riemann_to_dict(t, format=format), sort_keys=True, indent=2) + "\n"


def riemann_from_json(text) -> Rank4Tensor:
    return riemann_from_dict(json.loads(text))
