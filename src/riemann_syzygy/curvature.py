"""Exact-rational rank-4 curvature tensors on four Euclidean dimensions.

A curvature tensor is stored as a ``(4, 4, 4, 4)`` numpy array with
``dtype=object`` whose entries are Python ints or ``fractions.Fraction``.
All derived quantities (Ricci, scalar, Weyl, pseudo-tensor) are computed in
exact arithmetic.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .thooft import DELTA4, DELTA_WEDGE, EPS4, SCHEMA, _first_failure

__all__ = [
    "Rank4Tensor",
    "exact",
    "as_tensor",
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
    "rationals_to_json",
    "rationals_from_json",
    "check_schema",
    "dumps",
    "riemann_to_dict",
    "riemann_from_dict",
    "riemann_to_json",
    "riemann_from_json",
]

Rank4Tensor = np.ndarray  # (4,4,4,4) object array of ints / Fractions


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


def _shaped(values, shape, name):
    arr = np.asarray(values, dtype=object)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def as_tensor(values, shape=(4, 4, 4, 4), name="curvature tensor"):
    """The shape-checked entry point for values from outside the package:
    an object array of the given shape in exact normal form."""
    return exact(_shaped(values, shape, name))


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
        ce = _first_failure(residual)
        if ce is not None:
            ce = tuple(i + 1 for i in ce)
        report.add(name, ce is None, ce)
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


# a bare ASCII integer or p/q: no sign on q, no spaces, "_" or other digits
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational_from_str(s):
    if isinstance(s, bool):
        raise ValueError(f"invalid rational: {s!r}")
    if isinstance(s, int):
        return s
    m = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if m is None:
        raise ValueError(f"invalid rational: {s!r}")
    p, q = m.groups()
    if q is None:
        return int(p)
    if int(q) == 0:
        raise ValueError(f"denominator must be positive in {s!r}")
    return exact(Fraction(int(p), int(q)))


_to_str = np.frompyfunc(rational_to_str, 1, 1)
_from_str = np.frompyfunc(rational_from_str, 1, 1)


def rationals_to_json(arr):
    """Nested lists of ints and "p/q" strings for an array of rationals."""
    return _to_str(arr).tolist()


def rationals_from_json(values, shape, name):
    """Object array of the given shape from nested JSON ints and "p/q"
    strings; the shape is checked first."""
    return _from_str(_shaped(values, shape, name))


def check_schema(data):
    """Reject anything but a JSON object whose schema, if given, is SCHEMA."""
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    schema = data.get("schema", SCHEMA)
    if schema != SCHEMA:
        raise ValueError(f"unknown schema {schema!r} (expected {SCHEMA!r})")


def dumps(data):
    """The package's JSON text: sorted keys, two-space indent, final newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def riemann_to_dict(t: Rank4Tensor, format="sparse"):
    if format == "dense":
        return {"schema": SCHEMA, "format": "dense",
                "components": rationals_to_json(t)}
    if format == "sparse":
        nonzero = t != 0  # values and indices both in C order
        entries = [
            idx + [v]
            for idx, v in zip((np.argwhere(nonzero) + 1).tolist(),
                              rationals_to_json(t[nonzero]))
        ]
        return {"schema": SCHEMA, "format": "sparse", "entries": entries}
    raise ValueError(f"unknown format {format!r}")


def riemann_from_dict(data) -> Rank4Tensor:
    check_schema(data)
    fmt = data.get("format")
    if fmt == "dense":
        return rationals_from_json(
            data.get("components"), (4, 4, 4, 4), "dense components"
        )
    if fmt == "sparse":
        t = zeros()
        seen = set()
        for entry in data.get("entries", []):
            if len(entry) != 5:
                raise ValueError(f"sparse entry must be [a,b,c,d,value]: {entry!r}")
            a, b, c, d, v = entry
            for name, i in zip("abcd", (a, b, c, d)):
                # type(), not isinstance(): a JSON true is not the index 1
                if type(i) is not int or not 1 <= i <= 4:
                    raise ValueError(f"index {name}={i!r} out of range 1..4")
            if (a, b, c, d) in seen:
                raise ValueError(f"duplicate sparse entry for index {[a, b, c, d]}")
            seen.add((a, b, c, d))
            t[a - 1, b - 1, c - 1, d - 1] = rational_from_str(v)
        return t
    raise ValueError(f"unknown or missing format {fmt!r}")


def riemann_to_json(t: Rank4Tensor, format="sparse"):
    return dumps(riemann_to_dict(t, format=format))


def riemann_from_json(text) -> Rank4Tensor:
    return riemann_from_dict(json.loads(text))
