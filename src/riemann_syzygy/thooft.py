"""Self-dual and anti-self-dual mixing symbols on four Euclidean indices.

The two families of constant antisymmetric symbols ``eta[i]`` (self-dual) and
``etabar[i]`` (anti-self-dual), i = 1..3, intertwine the two su(2) factors of
so(4) with antisymmetric index pairs.  All arithmetic is exact integer.

Public API uses 1-based indices (i in 1..3, a,b,c,d in 1..4) to match the
conventional notation; the arrays themselves are 0-based.

This module imports no other package module, so it also holds what the
others share: the JSON schema tag and writer, and ``CheckReport``, the one
pass/fail report of named checks, used for the identities of the symbol
tables (``verify_appendix_a``) and the curvature symmetries
(``curvature.validate_riemann``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = [
    "ETA",
    "ETABAR",
    "EPS4",
    "eta",
    "etabar",
    "levi_civita",
    "CheckReport",
    "check_report",
    "verify_appendix_a",
]


def _levi_civita(n):
    """Totally antisymmetric symbol on n indices, +1 at (0, 1, ..., n-1)."""
    e = np.zeros((n,) * n, dtype=object)
    for p in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(p, 2))
        e[p] = (-1) ** inversions
    return e


# Schema tag of every JSON document the package reads or writes, and the
# writer of its JSON text; defined here because thooft imports no other
# package module.  curvature re-exports both.
SCHEMA = "riemann-syzygy/1"


def dumps(data):
    """The package's JSON text: sorted keys, two-space indent, final newline.

    The bytes are those of ``json.dumps(data, sort_keys=True, indent=2)``
    plus a newline, written without the standard library's encoder, which
    drops to pure Python under any ``indent``.  Only str, int, bool, None,
    list, tuple and dict with str keys are accepted, by exact type (a key
    may be a str subclass); anything else, a float, ``Fraction`` or numpy
    scalar included, raises ``TypeError``.
    """
    return _write(data, "\n") + "\n"


# the text of each JSON scalar type, by exact type: a bool is not written as
# an int, and int.__repr__ is what json writes for an int
_SCALAR = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _write(x, nl):
    """JSON text of ``x`` whose lines after the first start with ``nl``."""
    t = type(x)
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = nl + "  "
        try:  # a list of scalars in one comprehension
            items = [_SCALAR[type(v)](v) for v in x]
        except KeyError:
            items = [_write(v, inner) for v in x]
        return f"[{inner}{(',' + inner).join(items)}{nl}]"
    if t is dict:
        if not x:
            return "{}"
        inner = nl + "  "
        # encode_basestring_ascii raises TypeError on a key that is no str
        items = [f"{encode_basestring_ascii(k)}: {_write(x[k], inner)}"
                 for k in sorted(x)]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    try:
        return _SCALAR[t](x)
    except KeyError:
        raise TypeError(f"{t.__name__} is not a JSON type") from None


EPS3 = _levi_civita(3)
EPS4 = _levi_civita(4)
DELTA3 = np.eye(3, dtype=object)
DELTA4 = np.eye(4, dtype=object)
# d_ac d_bd - d_ad d_bc: the curvature tensor of the unit 4-sphere (R = 12)
DELTA_WEDGE = np.einsum("ac,bd->abcd", DELTA4, DELTA4) - np.einsum(
    "ad,bc->abcd", DELTA4, DELTA4
)


def _build_eta(sign):
    """eta^i_ab = eps^{i4ab} + sign*(delta^{ia} delta^{4b} - delta^{ib} delta^{4a}).

    sign=+1 gives the self-dual family, sign=-1 the anti-self-dual one.
    (0-based: i in 0..2 maps to index value i, the distinguished index is 3.)
    """
    x = np.einsum("ia,b->iab", DELTA4[:3], DELTA4[3])
    return EPS4[:3, 3] + sign * (x - x.transpose(0, 2, 1))


ETA = _build_eta(+1)
ETABAR = _build_eta(-1)


_TABLES = {
    "EPS3": EPS3,
    "EPS4": EPS4,
    "DELTA3": DELTA3,
    "DELTA4": DELTA4,
    "ETA": ETA,
    "ETABAR": ETABAR,
}


@functools.cache
def int64(name):
    """The table ``name`` of this module ("EPS4", "DELTA3", "ETA", ...) as a
    read-only int64 array, made on its first use only and kept."""
    table = _TABLES[name].astype(np.int64)
    table.flags.writeable = False
    return table


def _check_range(name, value, lo, hi):
    if not isinstance(value, int) or not (lo <= value <= hi):
        raise ValueError(f"{name} must be an integer in {lo}..{hi}, got {value!r}")


def eta(i, a, b):
    """Self-dual symbol eta^i_ab with 1-based indices."""
    _check_range("i", i, 1, 3)
    _check_range("a", a, 1, 4)
    _check_range("b", b, 1, 4)
    return int(ETA[i - 1, a - 1, b - 1])


def etabar(i, a, b):
    """Anti-self-dual symbol etabar^i_ab with 1-based indices."""
    _check_range("i", i, 1, 3)
    _check_range("a", a, 1, 4)
    _check_range("b", b, 1, 4)
    return int(ETABAR[i - 1, a - 1, b - 1])


def levi_civita(a, b, c, d):
    """Totally antisymmetric symbol with levi_civita(1,2,3,4) = 1."""
    for name, v in zip("abcd", (a, b, c, d)):
        _check_range(name, v, 1, 4)
    return int(EPS4[a - 1, b - 1, c - 1, d - 1])


@dataclass
class CheckReport:
    """Pass/fail per named check, with the first counterexample of each.

    ``ok_key`` and ``list_key`` name the JSON keys of the overall verdict
    and of the list of checks: ``is_riemann``/``checks`` for the curvature
    symmetries, ``all_ok``/``identities`` for the symbol tables.
    """

    ok_key: str
    list_key: str
    results: list  # (name, ok, counterexample)

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.results)

    def failures(self):
        return [name for name, ok, _ in self.results if not ok]

    def to_dict(self):
        return {
            "schema": SCHEMA,
            self.ok_key: self.ok,
            self.list_key: [
                {"name": name, "ok": ok, "counterexample": ce}
                for name, ok, ce in self.results
            ],
        }


def check_report(ok_key, list_key, residuals_by_name, base=0):
    """The CheckReport of named checks, each a list of same-shaped residual
    arrays.  A check passes when all its residuals are zero; otherwise its
    counterexample is the first index, in C order, at which any is nonzero,
    as a tuple of ints counted from ``base``."""
    results = []
    for name, residuals in residuals_by_name.items():
        bad = residuals[0] != 0
        for r in residuals[1:]:
            bad |= r != 0
        ce = None
        if bad.any():
            ce = tuple(int(i) + base
                       for i in np.unravel_index(bad.argmax(), bad.shape))
        results.append((name, ce is None, ce))
    return CheckReport(ok_key, list_key, results)


def verify_appendix_a():
    """Exhaustively check every defining identity of the symbol tables.

    Covers: self/anti-self-duality, the i-summed product formula, the
    epsilon contraction identity, mutual orthogonality, the c-contracted
    product, the exchange symmetry, the eps^{ijk} expansion, and the su(2)
    commutators of tau = eta/2.  Each identity is a residual array over its
    free indices, taken for eta (s = +1) and etabar (s = -1) together where
    it holds for both.
    """
    tables = ((ETA, 1), (ETABAR, -1))
    identities = {
        # (anti-)self-duality: eta^i_ab = +- 1/2 eps_abcd eta^i_cd
        "self_duality": [
            2 * t - s * np.einsum("abcd,icd->iab", EPS4, t) for t, s in tables
        ],
        # sum_i eta^i_ab eta^i_cd = delta_ac delta_bd - delta_ad delta_bc +- eps_abcd
        "product_sum_i": [
            np.einsum("iab,icd->abcd", t, t) - DELTA_WEDGE - s * EPS4
            for t, s in tables
        ],
        # eps_abcd eta^i_de = -+ (delta_ec eta^i_ab + delta_ea eta^i_bc
        #                         - delta_eb eta^i_ac)
        "eps_contraction": [
            np.einsum("abcd,ide->iabce", EPS4, t)
            + s * (
                np.einsum("ec,iab->iabce", DELTA4, t)
                + np.einsum("ea,ibc->iabce", DELTA4, t)
                - np.einsum("eb,iac->iabce", DELTA4, t)
            )
            for t, s in tables
        ],
        # eta^i_ab etabar^j_ab = 0
        "orthogonality": [np.einsum("iab,jab->ij", ETA, ETABAR)],
        # eta^i_ac eta^j_bc = delta^ij delta_ab + eps^ijk eta^k_ab
        "product_sum_c": [
            np.einsum("iac,jbc->ijab", t, t)
            - np.einsum("ij,ab->ijab", DELTA3, DELTA4)
            - np.einsum("ijk,kab->ijab", EPS3, t)
            for t, _ in tables
        ],
        # eta^i_ac etabar^j_bc = eta^i_bc etabar^j_ac
        "exchange_symmetry": [
            np.einsum("iac,jbc->ijab", ETA, ETABAR)
            - np.einsum("ibc,jac->ijab", ETA, ETABAR)
        ],
        # eps^ijk eta^j_ab eta^k_cd = delta_ac eta^i_bd - delta_ad eta^i_bc
        #                             - delta_bc eta^i_ad + delta_bd eta^i_ac
        "eps_ijk_expansion": [
            np.einsum("ijk,jab,kcd->iabcd", EPS3, t, t)
            - np.einsum("ac,ibd->iabcd", DELTA4, t)
            + np.einsum("ad,ibc->iabcd", DELTA4, t)
            + np.einsum("bc,iad->iabcd", DELTA4, t)
            - np.einsum("bd,iac->iabcd", DELTA4, t)
            for t, _ in tables
        ],
        # su(2) commutators of tau = eta/2: [tau^i+-, tau^j+-] = -eps^ijk tau^k+-,
        # and the two families commute.  Checked with 4*eta to stay integer.
        "su2_commutators": [
            np.einsum("iac,jcb->ijab", t, t)
            - np.einsum("jac,icb->ijab", t, t)
            + 2 * np.einsum("ijk,kab->ijab", EPS3, t)
            for t, _ in tables
        ]
        + [
            np.einsum("iac,jcb->ijab", ETA, ETABAR)
            - np.einsum("jac,icb->ijab", ETABAR, ETA)
        ],
    }
    return check_report("all_ok", "identities", identities)
