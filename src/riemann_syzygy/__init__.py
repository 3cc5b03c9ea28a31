"""Exact-arithmetic toolkit for 4D curvature tensors.

Irreducible self-dual / anti-self-dual block decomposition, curvature
invariant catalogs with dual (index-contraction and block trace-word)
representations, a registry of exactly verified algebraic identities, and
randomized exact-rational rank analysis.  All arithmetic is exact: integers
and fractions only, no floating point anywhere.
"""

from . import catalog, curvature, decomp, expr, gen, ranklab, relations, thooft
from .curvature import (
    constant_curvature,
    pseudo_riemann,
    ricci,
    ricci_scalar,
    riemann_from_json,
    riemann_to_json,
    traceless_ricci,
    validate_riemann,
    weyl,
)
from .decomp import FBlocks, decompose, fblocks_from_json, fblocks_to_json, reconstruct
from .gen import GenConfig, random_fblocks, random_fblocks_stream
from .ranklab import express_over, rank_report
from .relations import load_relations, verify_all
from .thooft import ETA, ETABAR, eta, etabar, levi_civita, verify_appendix_a

__version__ = "1.0.0"

__all__ = [
    "catalog",
    "curvature",
    "decomp",
    "expr",
    "gen",
    "ranklab",
    "relations",
    "thooft",
    "constant_curvature",
    "pseudo_riemann",
    "ricci",
    "ricci_scalar",
    "riemann_from_json",
    "riemann_to_json",
    "traceless_ricci",
    "validate_riemann",
    "weyl",
    "FBlocks",
    "decompose",
    "fblocks_from_json",
    "fblocks_to_json",
    "reconstruct",
    "GenConfig",
    "random_fblocks",
    "random_fblocks_stream",
    "express_over",
    "rank_report",
    "load_relations",
    "verify_all",
    "ETA",
    "ETABAR",
    "eta",
    "etabar",
    "levi_civita",
    "verify_appendix_a",
    "__version__",
]
