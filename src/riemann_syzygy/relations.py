"""Registry and exact verification of curvature-invariant identities.

Every relation is stored declaratively in ``data/relations.json`` as one or
two index-contraction expressions (see :mod:`.expr`) together with a domain
("general" curvature tensors or "einstein", i.e. vanishing mixed block) and
an expectation ("zero" for identities, "nonzero" for recorded non-identities
kept as negative controls).  Verification evaluates the residual lhs - rhs
exactly, component by component, on seeded random samples.

A ``Relation`` holds each side as an ``expr.Poly``, parsed once when the
relation is made (a side may be given as an expression string or a Poly);
the Poly's ``language``, read from its symbols, picks the context a side is
evaluated in, and a side of no single language is rejected.  The registry,
whose sides are plain strings, is read, parsed and checked once, when this
module is imported, so a malformed entry fails at import, naming the
relation, and no check, residual or mutant parses anything.

Samples are checked one by one, each through ``catalog.contexts_for``,
which keeps the sample's two contexts on the sample.  Every relation and
every mutant checked on the same FBlocks therefore shares its symbols and
its monomial contractions (see ``expr.LazyContext``), for as long as the
sample lives: ``verify_all`` builds each of its samples' symbols once, and
a mutant checked after its relation contracts nothing anew.

A mutant (``mutations``) is its relation with one coefficient shifted.  It
is copied from the checked relation with one side replaced, and is not
checked again: the checks read the sides' languages and free labels, which
a coefficient does not change.  Every relation from outside, a registry
entry or a direct ``Relation(...)``, runs every check.

Relations whose two sides live in different languages (one contracted from
the rank-4 tensor, the other from the 3x3 blocks) double as consistency
checks between the two evaluation routes.  A relation with ``rhs_delta``
equates a tensor expression with two free indices to a scalar multiple of
the identity matrix.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from importlib import resources

import numpy as np

from . import expr
from .catalog import contexts_for
from .curvature import DELTA4, SCHEMA
from .gen import GenConfig, checked_seed, integer, random_fblocks_stream

__all__ = [
    "Relation",
    "RelationResult",
    "VerifyReport",
    "load_relations",
    "relation_names",
    "get_relation",
    "residual",
    "check_relation",
    "verify_all",
    "mutations",
]

@dataclass(frozen=True)
class Relation:
    """One cataloged identity (or recorded non-identity).  Each side is given
    as an expression string or an ``expr.Poly`` and held as a Poly, whose
    ``language`` picks the context it is evaluated in."""

    name: str
    domain: str  # "general" or "einstein"
    lhs: expr.Poly
    rhs: expr.Poly | None = None
    rhs_delta: bool = False
    expect: str = "zero"  # "zero" or "nonzero"
    tags: tuple = ()
    notes: str = ""

    def __post_init__(self):
        """ValueError naming the relation for a bad field, a side that does
        not parse or whose symbols fit no single language, or sides that
        cannot be compared entry by entry: different free labels, or, with
        ``rhs_delta``, anything but a two-index lhs and scalar rhs.  The
        tags, a list or tuple of strings, are kept as a tuple."""
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        tags = self.tags
        if not isinstance(tags, (list, tuple)) or not all(isinstance(t, str) for t in tags):
            raise ValueError(f"{self.name}: tags must be a list of strings, got {tags!r}")
        if isinstance(tags, list):
            object.__setattr__(self, "tags", tuple(tags))
        if not isinstance(self.rhs_delta, bool):
            raise ValueError(
                f"{self.name}: rhs_delta must be true or false, got {self.rhs_delta!r}")
        if not isinstance(self.notes, str):
            raise ValueError(f"{self.name}: notes must be a string, got {self.notes!r}")
        if self.domain not in ("general", "einstein"):
            raise ValueError(f"{self.name}: bad domain {self.domain!r}")
        if self.expect not in ("zero", "nonzero"):
            raise ValueError(f"{self.name}: bad expect {self.expect!r}")
        if self.rhs_delta and self.rhs is None:
            raise ValueError(f"{self.name}: rhs_delta requires an rhs")
        for key in ("lhs", "rhs") if self.rhs is not None else ("lhs",):
            side = getattr(self, key)
            if not (isinstance(side, expr.Poly) or isinstance(side, str) and side.strip()):
                got = "a blank string" if isinstance(side, str) else type(side).__name__
                raise ValueError(
                    f"{self.name}: {key} must be an expression string or a Poly, got {got}")
            try:
                object.__setattr__(self, key, expr.of_language(side))
            except expr.ExprError as e:
                raise ValueError(f"{self.name}: {key}: {e}") from e
        if self.rhs is None:
            return
        lhs, rhs = self.lhs, self.rhs
        if self.rhs_delta:
            ok = len(lhs.free_labels) == 2 and rhs.is_scalar
            want = "a two-index lhs and a scalar rhs"
        else:
            ok = lhs.free_labels == rhs.free_labels
            want = "the same free labels on both sides"
        if not ok:
            raise ValueError(
                f"{self.name}: lhs free labels {lhs.free_labels} and rhs free "
                f"labels {rhs.free_labels} do not fit; expected {want}"
            )


@dataclass
class RelationResult:
    name: str
    ok: bool
    expect: str
    domain: str
    n_samples: int
    first_failure: int | None  # 0-based sample index, None if ok


@dataclass
class VerifyReport:
    seed: int
    n_samples: int
    results: list

    @property
    def ok(self):
        return all(r.ok for r in self.results)

    def failures(self):
        return [r.name for r in self.results if not r.ok]

    def to_dict(self):
        return {"schema": SCHEMA, **asdict(self), "ok": self.ok}


def _relation_from_dict(d, position):
    """The Relation of registry entry number ``position``; a null ``rhs`` is
    none and a missing domain is "general".  ValueError naming the relation
    (or, without a name that is a string, the position) for an entry that is
    not a JSON object, a missing name or lhs, a key that is not a field of
    ``Relation``, and whatever ``Relation`` rejects."""
    if not isinstance(d, dict):
        raise ValueError(f"registry entry {position} must be a JSON object, "
                         f"got {type(d).__name__}")
    if "name" not in d:
        raise ValueError(f"registry entry {position} has no name")
    name = d["name"]
    if not isinstance(name, str):
        raise ValueError(f"registry entry {position}: name must be a string, got {name!r}")
    unknown = sorted(set(d) - {f.name for f in fields(Relation)})
    if unknown:
        raise ValueError(f"{name}: unknown key(s) {', '.join(unknown)}")
    if "lhs" not in d:
        raise ValueError(f"{name}: no lhs")
    return Relation(**{"domain": "general", **d})


def _read_registry(text):
    """All relations of the registry JSON ``text``, in file order.
    ValueError unless it is an object holding a ``relations`` list, and for
    a malformed entry or a repeated name."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"the registry must be a JSON object, got {type(data).__name__}")
    entries = data.get("relations")
    if not isinstance(entries, list):
        raise ValueError("the registry's 'relations' must be a list, got "
                         f"{type(entries).__name__}")
    rels = tuple(_relation_from_dict(d, i) for i, d in enumerate(entries))
    names = [r.name for r in rels]
    if len(set(names)) != len(names):
        raise ValueError("duplicate relation names in the registry")
    return rels


_REGISTRY = _read_registry(
    resources.files("riemann_syzygy.data").joinpath("relations.json").read_text())


def load_relations():
    """All cataloged relations, in file order, read and parsed once, when
    this module is imported."""
    return _REGISTRY


def relation_names():
    return [r.name for r in load_relations()]


def get_relation(name):
    for r in load_relations():
        if r.name == name:
            return r
    raise KeyError(f"unknown relation {name!r}")


def _is_zero(value):
    if isinstance(value, np.ndarray):
        return bool(np.all(value == 0))
    return value == 0


def residual(rel: Relation, fb):
    """Exact lhs - rhs on one sample (scalar or object ndarray)."""
    ctx = contexts_for(fb)
    lv = expr.evaluate(rel.lhs, ctx[rel.lhs.language])
    if rel.rhs is None:
        return lv
    rv = expr.evaluate(rel.rhs, ctx[rel.rhs.language])
    if rel.rhs_delta:
        rv = rv * DELTA4
    return lv - rv


def check_relation(rel: Relation, samples):
    """Verify one relation on a non-empty list of FBlocks samples."""
    if not samples:
        raise ValueError(f"{rel.name}: no samples to check on")
    first_failure = None
    saw_nonzero = False
    for i, fb in enumerate(samples):
        if not _is_zero(residual(rel, fb)):
            saw_nonzero = True
            if rel.expect == "zero":
                first_failure = i
                break
    ok = saw_nonzero if rel.expect == "nonzero" else first_failure is None
    return RelationResult(
        name=rel.name,
        ok=ok,
        expect=rel.expect,
        domain=rel.domain,
        n_samples=len(samples),
        first_failure=first_failure,
    )


def verify_all(seed, n_samples=50, relations=None, bound=9):
    """Verify relations on seeded samples, honoring each relation's domain.

    General-domain relations run on unconstrained samples; einstein-domain
    relations run on samples with vanishing mixed block.  Both streams derive
    deterministically from the one seed.  An empty ``relations`` is refused
    before anything is drawn: a report of no results would pass vacuously.
    """
    checked_seed(seed)
    if integer("n_samples", n_samples) < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    configs = {domain: GenConfig(bound=bound, einstein=(domain == "einstein"))
               for domain in ("general", "einstein")}
    relations = load_relations() if relations is None else tuple(relations)
    if not relations:
        raise ValueError("no relations to verify")
    streams = {}

    def samples_for(domain):
        if domain not in streams:
            streams[domain] = random_fblocks_stream(seed, n_samples, configs[domain])
        return streams[domain]

    results = [check_relation(r, samples_for(r.domain)) for r in relations]
    return VerifyReport(seed=seed, n_samples=n_samples, results=results)


# ---------------------------------------------------------------------------
# Mutation hooks: used to confirm the verifier actually detects corrupted
# coefficients rather than passing vacuously.


def _mutate_expr(poly, index):
    monos = list(poly.monomials)
    m = monos[index]
    monos[index] = expr.Monomial(coeff=m.coeff + 1, factors=m.factors)
    return expr.Poly(monomials=tuple(monos), free_labels=poly.free_labels,
                     language=poly.language)


def _with_side(rel, key, poly):
    """``rel`` with its side ``key`` replaced by ``poly``, a Poly of the same
    language and free labels, made without ``Relation``'s checks: they held
    for ``rel`` and hold for the copy, which differs from it in coefficients
    only."""
    mutant = object.__new__(Relation)
    mutant.__dict__.update(rel.__dict__)
    mutant.__dict__[key] = poly
    return mutant


def mutations(rel: Relation):
    """Yield (description, relation) pairs, each with one coefficient of the
    original relation shifted by +1; the other side is the original's.  A
    mutant is copied from the checked relation with one side replaced, and
    is not checked again (``_with_side``)."""
    for key in ("lhs", "rhs") if rel.rhs is not None else ("lhs",):
        side = getattr(rel, key)
        for i in range(len(side.monomials)):
            yield (
                f"{rel.name}: {key} monomial {i} coefficient +1",
                _with_side(rel, key, _mutate_expr(side, i)),
            )
