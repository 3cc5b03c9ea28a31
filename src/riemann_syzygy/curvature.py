"""Exact-rational rank-4 curvature tensors on four Euclidean dimensions.

A curvature tensor is stored as a ``(4, 4, 4, 4)`` numpy array with
``dtype=object`` whose entries are Python ints or ``fractions.Fraction``.
All derived quantities (Ricci, scalar, Weyl, pseudo-tensor) are computed in
exact arithmetic.

An exact value can also be held as a ``Scaled``: integer numerators over one
positive denominator.  The numerators are an int64 array when their
magnitudes are proven below ``INT64_BOUND`` and an object array of Python
ints otherwise, so integer arithmetic on them never wraps.  The Ricci,
scalar, Weyl and dual builders take integer numerators as readily as exact
entries; Weyl and the dual come as 6 W and 2 Rt there, which stay integral.

``validate_riemann`` checks the algebraic symmetries and returns them as a
``thooft.CheckReport``, the report class the symbol-table checks use too.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .thooft import (DELTA4, DELTA_WEDGE, EPS4, SCHEMA, CheckReport,
                     check_report, dumps, int64)

__all__ = [
    "Rank4Tensor",
    "exact",
    "as_tensor",
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
    if type(x) is int:
        return x
    if isinstance(x, (int, np.integer)) and type(x) is not bool:
        return int(x)
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"expected int or Fraction entry, got {type(x).__name__}")


# The exact normal form of a scalar or, entrywise, of an object array: an
# int when the value is integral, a Fraction otherwise.  Ints, numpy integers
# and Fractions are accepted; anything else (bools, floats, strings) is a
# TypeError.
exact = np.frompyfunc(_as_rational, 1, 1)


# Integer arithmetic runs on int64 only when a bound proves every entry and
# every intermediate below this, half of int64's range.
INT64_BOUND = 2**62


class Scaled(NamedTuple):
    """An exact scalar or array as ``num / den``, with ``den`` > 0 and every
    ``|num|`` entry at most ``bound``.  ``num`` is an array, 0-d for a
    scalar: int64 when ``bound < INT64_BOUND`` and an object array of Python
    ints otherwise."""

    num: np.ndarray
    den: int
    bound: int


def int_dtype(bound):
    """The dtype for integers of magnitude at most ``bound``."""
    return np.int64 if bound < INT64_BOUND else object


def _from_ints(num, den):
    """The Scaled form of integer numerators (int64 or Python ints) over den."""
    num = np.asarray(num)
    bound = max(int(num.max()), -int(num.min()))
    return Scaled(num.astype(int_dtype(bound), copy=False), den, bound)


def scaled(value) -> Scaled:
    """Integer numerators of an exact scalar or array over the least common
    denominator of its entries."""
    value = np.asarray(value, dtype=object)
    flat = value.ravel().tolist()
    den = 1
    if set(map(type, flat)) != {int}:
        flat = [_as_rational(x) for x in flat]
        den = math.lcm(*(x.denominator for x in flat if type(x) is Fraction))
        flat = [x.numerator * (den // x.denominator) for x in flat]
    bound = max(map(abs, flat))
    num = np.array(flat, dtype=int_dtype(bound)).reshape(value.shape)
    return Scaled(num, den, bound)


def widened(s: Scaled, growth):
    """``s.num`` in a dtype in which integer arithmetic that multiplies
    magnitudes by at most ``growth`` cannot wrap: as it is (int64 or Python
    ints) when ``growth * s.bound`` is below INT64_BOUND, as Python ints
    otherwise."""
    if growth * s.bound >= INT64_BOUND:
        return s.num.astype(object)
    return s.num


def derived(fn, growth, s: Scaled, den_factor=1) -> Scaled:
    """Scaled form of ``fn(s.num) / (s.den * den_factor)``.

    ``fn`` is integer arithmetic that multiplies magnitudes by at most
    ``growth``, in every intermediate as in its result; it runs on
    ``widened(s, growth)``.  The result's bound is found by a scan of it;
    a caller that needs no bound calls ``fn(widened(s, growth))`` itself.
    """
    return _from_ints(fn(widened(s, growth)), s.den * den_factor)


def _divide(n, den):
    return _as_rational(Fraction(int(n), den))


def unscaled(num, den):
    """The exact value ``num / den`` of integer numerators (int64 or Python
    ints, array or scalar), in exact normal form: no numpy scalar leaves."""
    if np.ndim(num) == 0:
        return int(num) if den == 1 else _divide(num, den)
    if den == 1:
        return num.astype(object)
    flat = num.ravel().tolist()
    if math.gcd(den, *flat) == den:
        flat = [n // den for n in flat]
    else:
        flat = [_divide(n, den) for n in flat]
    return np.array(flat, dtype=object).reshape(num.shape)


def _shaped(values, shape, name):
    arr = np.asarray(values, dtype=object)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def as_tensor(values, shape=(4, 4, 4, 4), name="curvature tensor"):
    """The shape-checked entry point for values from outside the package:
    an object array of the given shape in exact normal form.  An array of
    integer dtype becomes Python ints in one ``astype(object)``; other input
    goes through ``exact`` entry by entry."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return _shaped(values, shape, name)
    return exact(_shaped(values, shape, name))


# Each check as a residual of integer numerators that sums at most 3 entries
_SYMMETRIES = (
    ("Antisymmetry (first pair)", lambda n: n + np.einsum("bacd->abcd", n)),
    ("Antisymmetry (second pair)", lambda n: n + np.einsum("abdc->abcd", n)),
    ("Pair symmetry", lambda n: n - np.einsum("cdab->abcd", n)),
    (
        "First Bianchi identity",
        lambda n: n + np.einsum("acdb->abcd", n) + np.einsum("adbc->abcd", n),
    ),
)


def validate_riemann(t: Rank4Tensor) -> CheckReport:
    """Check the algebraic curvature symmetries.

    Antisymmetry in the first and second index pairs, symmetry under pair
    exchange, and the first Bianchi identity, each as a residual of ``t``'s
    integer numerators.  Counterexamples are reported with 1-based indices.
    """
    return symmetry_report(scaled(t))


def symmetry_report(s: Scaled) -> CheckReport:
    """``validate_riemann`` of the tensor whose scaled form is ``s``."""
    n = widened(s, 3)
    residuals = {name: [check(n)] for name, check in _SYMMETRIES}
    return check_report("is_riemann", "checks", residuals, base=1)


def ricci(t: Rank4Tensor):
    """Ricci tensor R_ab = R_acbc, in the dtype of ``t``; on a stack of
    tensors, one per leading index."""
    return np.einsum("...acbc->...ab", t)


def ricci_scalar(t: Rank4Tensor):
    """Scalar curvature R = R_abab; on a stack of tensors, one per leading
    index."""
    return np.einsum("...abab->...", t)


def traceless_ricci(t: Rank4Tensor):
    """S_ab = R_ab - (R/4) delta_ab."""
    return exact(ricci(t) - Fraction(ricci_scalar(t), 4) * DELTA4)


def weyl6(t):
    """6 W = 6 R - 3 delta (.) Rc + Sc DELTA_WEDGE, in the dtype of ``t``.

    delta (.) Rc is the Kulkarni-Nomizu product
    d_ac Rc_bd + d_bd Rc_ac - d_ad Rc_bc - d_bc Rc_ad.  On integers of
    magnitude at most M every entry and intermediate is below 128 M
    (|Rc| <= 4 M, |Sc| <= 16 M).  On a stack of tensors, one per leading
    index.
    """
    delta = np.eye(4, dtype=t.dtype)
    x = np.einsum("ac,...bd->...abcd", delta, 3 * ricci(t))
    kn3 = (
        x
        + np.einsum("...badc->...abcd", x)
        - np.einsum("...abdc->...abcd", x)
        - np.einsum("...bacd->...abcd", x)
    )
    wedge = np.einsum("ac,bd->abcd", delta, delta)
    return 6 * t - kn3 + np.multiply.outer(ricci_scalar(t),
                                           wedge - wedge.transpose(0, 1, 3, 2))


def weyl(t: Rank4Tensor) -> Rank4Tensor:
    """Weyl (conformal) part: W = R - 1/2 delta (.) Rc + (Sc/6) DELTA_WEDGE."""
    return exact(Fraction(1, 6) * weyl6(t))


def dual2(t):
    """2 Rt_abcd = eps_cdef R_abef, in the dtype of ``t``; on integers of
    magnitude at most M every entry and intermediate is below 16 M.  On a
    stack of tensors, one per leading index."""
    eps = EPS4 if t.dtype == object else int64("EPS4")
    return np.einsum("cdef,...abef->...abcd", eps, t)


def pseudo_riemann(t: Rank4Tensor) -> Rank4Tensor:
    """Dual on the second pair: Rt_abcd = 1/2 eps_cdef R_abef."""
    return exact(Fraction(1, 2) * dual2(t))


def constant_curvature(scalar) -> Rank4Tensor:
    """Maximally symmetric tensor R_abcd = (R/12)(d_ac d_bd - d_ad d_bc)."""
    return exact(Fraction(scalar, 12) * DELTA_WEDGE)


# ---------------------------------------------------------------------------
# JSON serialization.  Rationals are encoded as bare ints or "p/q" strings
# with q > 0 and gcd(p, q) = 1.


def rational_to_str(x):
    # type(), not isinstance(): a bool still goes through Fraction, which
    # makes it a plain int
    if type(x) is int:
        return x
    # not through Fraction, which would keep a numpy integer as its
    # numerator and negate it in its own dtype, where -(-2**63) wraps
    if isinstance(x, np.integer):
        return int(x)
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
        entries = data.get("entries")
        if not isinstance(entries, list):
            raise ValueError(f"sparse entries must be a list, got {entries!r}")
        # the entries in C order, filled in one flat list; None marks an
        # index no entry has given yet
        flat = [None] * 256
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 5:
                raise ValueError(f"sparse entry must be [a,b,c,d,value]: {entry!r}")
            a, b, c, d, v = entry
            # type(), not isinstance(): a JSON true is not the index 1
            if not (type(a) is type(b) is type(c) is type(d) is int
                    and 1 <= a <= 4 and 1 <= b <= 4 and 1 <= c <= 4
                    and 1 <= d <= 4):
                for name, i in zip("abcd", (a, b, c, d)):
                    if type(i) is not int or not 1 <= i <= 4:
                        raise ValueError(f"index {name}={i!r} out of range 1..4")
            k = 64 * a + 16 * b + 4 * c + d - 85
            if flat[k] is not None:
                raise ValueError(f"duplicate sparse entry for index {[a, b, c, d]}")
            flat[k] = rational_from_str(v)
        return np.array([0 if v is None else v for v in flat],
                        dtype=object).reshape(4, 4, 4, 4)
    raise ValueError(f"unknown or missing format {fmt!r}")


def riemann_to_json(t: Rank4Tensor, format="sparse"):
    return dumps(riemann_to_dict(t, format=format))


def riemann_from_json(text) -> Rank4Tensor:
    return riemann_from_dict(json.loads(text))
