"""The four benchmark workloads.

Each workload is a function ``pass_(seed, clock) -> Pass`` that runs one
pass of user-visible work through the package's public functions, times
each operation with ``clock()`` (seconds; run.py passes a clock that leaves
out the reference work it interleaves), and checks every result against
``expected.json``.  The package only ever sees the samples generated from
``seed``; nothing here depends on a particular seed, so the checks hold for
every seed.

An attempted operation, what ``error_rate`` counts, is one relation
verdict, one rank report, one mutant verdict or one CLI call.  A timed
operation is one mutant verdict or one CLI call, or the whole pass for
verify-registry and rank-catalogs.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from riemann_syzygy import catalog, cli, decomp, gen, ranklab, relations

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

# Samples per domain for one verify_all pass.  The paper-scale run (n=50,
# about 25 s) is too long to repeat inside one benchmark run; the work per
# sample is the same, and the pinned n=50 counts live in selftest.py.
VERIFY_SAMPLES = 5
MUTATION_SAMPLES = 5  # per domain
ROUNDTRIP_SAMPLES = 100  # two CLI calls each
SCALAR_CATALOGS = ("quartic", "quartic_basis", "quintic")
TENSOR_CATALOG = "cubic_rank2"


@dataclass
class Pass:
    """Timings and verdicts of one pass.

    ``latencies_s`` holds one entry per timed operation; ``parts_s`` holds
    named sub-totals reported in the human-readable summary.
    """

    latencies_s: list = field(default_factory=list)  # empty: the pass is one
    attempted: int = 0
    failed: int = 0
    parts_s: dict = field(default_factory=dict)


def verify_registry(seed, clock=time.perf_counter):
    """One ``verify_all`` over the whole registry, VERIFY_SAMPLES per domain.

    The call is the pass's one timed operation; each verdict is one
    attempted operation.
    """
    exp = EXPECTED["verify-registry"]
    p = Pass()
    report = relations.verify_all(seed, VERIFY_SAMPLES)
    results = report.results
    p.attempted = len(results)
    p.failed = sum(not r.ok for r in results)
    domains = [r.domain for r in results]
    shape = (len(results), domains.count("general"), domains.count("einstein"),
             [r.name for r in results if r.expect == "nonzero"])
    if shape != (exp["relations"], exp["general"], exp["einstein"],
                 exp["nonzero_controls"]):
        p.failed += 1  # relations went missing or changed domain
    return p


def rank_catalogs(seed, clock=time.perf_counter):
    """``rank_report`` on three scalar catalogs and one tensor catalog.

    The pass is timed as one operation: the catalogs differ in size, so a
    median over single reports would pick whichever catalog lands in the
    middle.  Each report is one attempted operation.
    """
    exp = EXPECTED["rank-catalogs"]
    p = Pass(parts_s={"scalar": 0.0, "tensor": 0.0})
    for name in SCALAR_CATALOGS + (TENSOR_CATALOG,):
        t0 = clock()
        report = ranklab.rank_report(catalog.catalog(name), seed=seed,
                                     catalog_name=name)
        p.parts_s["tensor" if name == TENSOR_CATALOG else "scalar"] += clock() - t0
        p.attempted += 1
        if (report.rank != exp[name]["rank"]
                or report.nullspace != exp[name]["nullspace"]):
            p.failed += 1
    return p


def mutation_sweep(seed, clock=time.perf_counter):
    """Every single-coefficient mutant of every ``expect: zero`` relation.

    A mutant's time runs from asking the generator for it to its verdict.
    Every mutant must be detected except the pinned exempt ones, whose
    mutated monomial vanishes identically.
    """
    exp = EXPECTED["mutation-sweep"]
    exempt = set(exp["exempt"])
    samples = {
        d: gen.random_fblocks_stream(
            seed, MUTATION_SAMPLES, gen.GenConfig(einstein=(d == "einstein")))
        for d in ("general", "einstein")
    }
    p = Pass()
    for rel in relations.load_relations():
        if rel.expect != "zero":
            continue
        mutants = relations.mutations(rel)
        while True:
            t0 = clock()
            item = next(mutants, None)
            if item is None:
                break
            desc, mutant = item
            verdict = relations.check_relation(mutant, samples[rel.domain])
            p.latencies_s.append(clock() - t0)
            p.attempted += 1
            if verdict.ok != (desc in exempt):
                p.failed += 1
    p.failed += abs(exp["mutants"] - p.attempted)
    return p


def cli_roundtrip(seed, clock=time.perf_counter, *, workdir):
    """Blocks file -> ``reconstruct`` -> tensor file -> ``decompose`` -> blocks.

    The blocks files are written one sample each with ``fblocks_to_json``:
    the ``samples`` envelope that ``generate`` writes is not accepted by
    ``reconstruct`` (a known defect, see README.md).  A nonzero exit code,
    or a decomposed file that differs from its input in any byte, fails the
    call.
    """
    p = Pass()
    fbs = gen.random_fblocks_stream(seed, ROUNDTRIP_SAMPLES)
    with tempfile.TemporaryDirectory(dir=workdir) as d:
        blocks = os.path.join(d, "blocks.json")
        tensor = os.path.join(d, "tensor.json")
        back = os.path.join(d, "back.json")
        for fb in fbs:
            text = decomp.fblocks_to_json(fb)
            with open(blocks, "w") as f:
                f.write(text)
            codes = []
            for argv in (["reconstruct", blocks, "--out", tensor],
                         ["decompose", tensor, "--out", back]):
                t0 = clock()
                codes.append(cli.run(argv))
                p.latencies_s.append(clock() - t0)
            p.attempted += 2
            p.failed += codes[0] != 0
            if codes[1] != 0 or Path(back).read_text() != text:
                p.failed += 1
    return p
