"""Command-line entry point.

Subcommands wire the library modules together with JSON input/output and
deterministic exit codes:

    0   success / all checks passed
    1   a verification failed, or a rank did not match --expect
    2   usage error or malformed input

The subcommands that draw samples (``generate``, ``verify``, ``rank`` and
``invariants``, which also takes a blocks file instead) require an explicit
--seed, so that identical inputs give byte-identical reports.  A report is
JSON, or a table with --format table, which only ``thooft-check``,
``invariants``, ``verify`` and ``rank`` take.  It goes to stdout or to
--out; an --out that cannot be written exits 2.

Samples travel one way each: ``generate`` writes them (``generate --seed S
--samples N`` writes the samples that ``rank --seed S --samples N`` ranks),
and ``reconstruct``, ``invariants INPUT`` and ``rank --import-samples`` read
them.  ``rank`` and ``invariants`` refuse an envelope whose ``config``
differs from their ``--bound`` and ``--einstein``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from . import catalog as catalog_mod
from . import expr, ranklab, relations, thooft
from .curvature import (
    SCHEMA,
    dumps,
    rational_to_str,
    riemann_from_json,
    riemann_to_dict,
)
from .decomp import (
    decompose,
    fblocks_from_dict,
    fblocks_to_dict,
    reconstruct,
)
from .gen import GenConfig, random_fblocks_stream

__all__ = ["main", "run"]


class _UsageError(Exception):
    pass


def _write(args, report, table=None):
    """Write ``report`` as JSON, or with ``--format table`` the ``table``
    lines of a command that has one, to stdout or to ``--out``."""
    if table is not None and args.format == "table":
        text = "\n".join(table) + "\n"
    else:
        text = dumps(report)
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as f:
            f.write(text)
    except OSError as e:
        raise _UsageError(f"cannot write {args.out!r}: {e}") from e


def _read_input(path):
    try:
        if path in (None, "-"):
            return sys.stdin.read()
        with open(path) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise _UsageError(f"cannot read {path!r}: {e}") from e


def _samples_to_dict(fbs, config):
    return {
        "schema": SCHEMA,
        "config": asdict(config),
        "samples": [fblocks_to_dict(fb) for fb in fbs],
    }


def _read_samples(path, config=None):
    """The block triples of a samples envelope (as written by ``generate``),
    or the one triple of a bare blocks object.  Given a ``GenConfig``, an
    envelope whose ``config`` differs from it is refused."""
    try:
        data = json.loads(_read_input(path))
        if not (isinstance(data, dict) and "samples" in data):
            return [fblocks_from_dict(data)]
        samples = data["samples"]
        if not isinstance(samples, list):
            raise ValueError(
                f"samples must be a list, got {type(samples).__name__}")
        fbs = [fblocks_from_dict(d) for d in samples]
    except (ValueError, KeyError, TypeError) as e:
        raise _UsageError(f"malformed blocks input {path!r}: {e}") from e
    given = data.get("config")
    if config is not None and given is not None and given != asdict(config):
        raise _UsageError(
            f"{path!r} holds samples of config {json.dumps(given)}, but the "
            f"options give {json.dumps(asdict(config))}; pass the --bound "
            "and --einstein it was generated with"
        )
    return fbs


def _read_blocks(path, config=None):
    """One block triple: a bare blocks object, or a samples envelope holding
    exactly one sample (of ``config``, when one is given)."""
    fbs = _read_samples(path, config)
    if len(fbs) != 1:
        raise _UsageError(
            f"{path!r} holds {len(fbs)} samples; "
            "exactly one is needed (generate --samples 1)"
        )
    return fbs[0]


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the exit code)


def _cmd_thooft_check(args):
    report = thooft.verify_appendix_a()
    _write(args, report.to_dict(), [
        f"{'PASS' if ok else 'FAIL'} {name}" for name, ok, _ in report.results
    ])
    return 0 if report.ok else 1


def _cmd_generate(args):
    if args.samples < 1:
        raise _UsageError(f"--samples must be at least 1, got {args.samples}")
    config = GenConfig(bound=args.bound, einstein=args.einstein)
    fbs = random_fblocks_stream(args.seed, args.samples, config)
    _write(args, _samples_to_dict(fbs, config))
    return 0


def _cmd_decompose(args):
    text = _read_input(args.input)
    try:
        tensor = riemann_from_json(text)
    except (ValueError, KeyError, TypeError) as e:
        raise _UsageError(f"malformed tensor input: {e}") from e
    try:
        fb = decompose(tensor)
    except ValueError as e:
        raise _UsageError(str(e)) from e
    _write(args, fblocks_to_dict(fb))
    return 0


def _cmd_reconstruct(args):
    tensor = reconstruct(_read_blocks(args.input))
    _write(args, riemann_to_dict(tensor, format=args.tensor_format))
    return 0


def _cmd_invariants(args):
    entries = _resolve_catalog(args.catalog)
    if any(e.free_labels() for e in entries):
        raise _UsageError(
            f"catalog {args.catalog!r} is tensor-valued; invariants evaluates "
            f"scalar catalogs only (use: rank --catalog {args.catalog})"
        )
    config = GenConfig(bound=args.bound, einstein=args.einstein)
    if args.input:
        fb = _read_blocks(args.input, config)
    else:
        fb = random_fblocks_stream(args.seed, 1, config)[0]
    ctx = catalog_mod.contexts_for(fb)
    forms = [e.form() for e in entries]
    values = {e.label: rational_to_str(expr.evaluate(p, ctx))
              for e, p in zip(entries, forms)}
    report = {"schema": SCHEMA, "catalog": args.catalog, "values": values}
    _write(args, report, [f"{k} = {v}" for k, v in values.items()])
    return 0


def _select_relations(args):
    rels = relations.load_relations()
    if args.names is not None:
        by_name = {r.name: r for r in rels}
        missing = [n for n in args.names if n not in by_name]
        if missing:
            raise _UsageError(f"unknown relations: {', '.join(missing)}")
        return [by_name[n] for n in args.names]
    if args.set == "all":
        return list(rels)
    selected = [
        r for r in rels if args.set == r.domain or args.set in r.tags
    ]
    if not selected:
        raise _UsageError(f"--set {args.set!r} selects no relations")
    return selected


def _cmd_verify(args):
    rels = _select_relations(args)
    report = relations.verify_all(
        seed=args.seed, n_samples=args.samples, relations=rels,
        bound=args.bound,
    )
    table = [f"{'PASS' if r.ok else 'FAIL'} {r.name}" for r in report.results]
    table.append(f"{'OK' if report.ok else 'FAILED'}")
    _write(args, report.to_dict(), table)
    return 0 if report.ok else 1


def _resolve_catalog(name):
    try:
        return catalog_mod.catalog(name)
    except KeyError as e:
        raise _UsageError(e.args[0]) from e


def _cmd_rank(args):
    entries = _resolve_catalog(args.catalog)
    config = GenConfig(bound=args.bound, einstein=args.einstein)
    samples = (_read_samples(args.import_samples, config)
               if args.import_samples else None)
    report = ranklab.rank_report(
        entries, seed=args.seed,
        n_samples=args.samples, config=config,
        representation=args.representation, catalog_name=args.catalog,
        samples=samples,
    )
    ncols = len(report.labels)
    if report.n_rows < ncols:
        print(f"warning: {report.n_rows} sample rows for {ncols} columns; "
              "the rank cannot reach full column rank", file=sys.stderr)
    table = [
        f"catalog: {report.catalog}",
        f"rank: {report.rank} / {ncols}",
        f"stable: {report.stable}",
    ]
    for vec in report.nullspace:
        terms = [f"{c}*{lbl}" for c, lbl in zip(vec, report.labels) if c]
        table.append("null: " + " + ".join(terms))
    _write(args, report.to_dict(), table)
    if args.expect is not None and report.rank != args.expect:
        return 1
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


@functools.cache
def _build_parser():
    """The one parser of this process, built on first use.  Sharing it is
    safe: ``parse_args`` returns a fresh namespace and leaves the parser as
    it was, and help and usage errors go to the ``sys.stdout`` and
    ``sys.stderr`` of the moment they are printed."""
    p = argparse.ArgumentParser(
        prog="riemann-syzygy",
        description="Exact block decomposition, invariant catalogs, and "
                    "identity verification for 4D curvature tensors.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, table=False, seed=None, samples=None, bound=True):
        # --format where there is a table; --seed where samples are drawn,
        # with the reason _check_seed gives when it is missing
        sp.add_argument("--out", help="write the report to a file")
        if table:
            sp.add_argument("--format", choices=("json", "table"),
                            default="json")
        if seed:
            sp.add_argument("--seed", type=int, default=None,
                            help="random seed (required; no clock default)")
            sp.set_defaults(seed_reason=seed)
        if samples is not None:
            sp.add_argument("--samples", type=int, default=samples)
        if bound:
            sp.add_argument("--bound", type=int, default=9,
                            help="integer entry bound for random blocks")

    sp = sub.add_parser("thooft-check",
                        help="exhaustively verify the symbol-table identities")
    common(sp, table=True, bound=False)
    sp.set_defaults(func=_cmd_thooft_check)

    sp = sub.add_parser("generate", help="emit random block samples as JSON")
    common(sp, seed="no wall-clock default", samples=1)
    sp.add_argument("--einstein", action="store_true")
    sp.set_defaults(func=_cmd_generate)

    sp = sub.add_parser("decompose",
                        help="rank-4 tensor JSON -> block triple JSON")
    common(sp, bound=False)
    sp.add_argument("input", nargs="?", default="-",
                    help="tensor JSON file (default stdin)")
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("reconstruct",
                        help="block triple JSON -> rank-4 tensor JSON")
    common(sp, bound=False)
    sp.add_argument("input", nargs="?", default="-")
    sp.add_argument("--tensor-format", choices=("sparse", "dense"),
                    default="sparse")
    sp.set_defaults(func=_cmd_reconstruct)

    sp = sub.add_parser("invariants",
                        help="evaluate one catalog on a sample")
    common(sp, table=True, seed="or give a blocks file")
    sp.add_argument("--catalog", required=True)
    sp.add_argument("--einstein", action="store_true")
    sp.add_argument("input", nargs="?", default=None,
                    help="block triple JSON file (alternative to --seed)")
    sp.set_defaults(func=_cmd_invariants)

    sp = sub.add_parser("verify", help="verify cataloged relations")
    common(sp, table=True, seed="no wall-clock default", samples=50)
    sp.add_argument("--set", default="all",
                    help="relation subset: all, a domain, or a tag")
    sp.add_argument("--names", nargs="+", default=None,
                    help="explicit relation names (overrides --set)")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser(
        "rank",
        help="exact rank and confirmed linear identities of a catalog")
    common(sp, table=True, seed="it also draws the batch that confirms "
                                  "the null vectors")
    sp.add_argument("--samples", type=int, default=None,
                    help="sample count (default: 2*|catalog| + 8)")
    sp.add_argument("--catalog", required=True)
    sp.add_argument("--einstein", action="store_true")
    sp.add_argument("--representation",
                    choices=("tensor", "matrix", "fform"), default=None)
    sp.add_argument("--import-samples", dest="import_samples")
    sp.add_argument("--expect", type=int, default=None,
                    help="exit 1 unless the rank equals this value")
    sp.set_defaults(func=_cmd_rank)

    return p


def _check_seed(args):
    """A subcommand that draws samples needs ``--seed``; ``invariants``
    takes a blocks file instead, and not both."""
    if "seed" not in args:
        return
    if getattr(args, "input", None):
        if args.seed is not None:
            raise _UsageError("give a blocks file or --seed, not both")
    elif args.seed is None:
        raise _UsageError(f"--seed is required ({args.seed_reason})")


def run(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _check_seed(args)
        return args.func(args)
    except (_UsageError, ValueError) as e:  # ExprError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
