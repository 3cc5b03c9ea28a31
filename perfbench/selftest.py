"""Self-test of the benchmark: exact counts, correctness gate, metric names.

    python3 perfbench/selftest.py

Run from the root of a source checkout; takes about two minutes.  Checks:

- two traced passes on the same samples give identical per-layer counts,
  and every workload's correctness gate passes, on two seeds;
- the pinned baseline counts: ``catalog.contexts_for.calls`` = 3350 on 100
  distinct samples for ``verify_all`` at n=50, = 552 on 10 distinct samples
  for the mutation sweep (both seed 1), and ``ranklab.rref.calls`` = 3 per
  ``rank_report``;
- run.py reports exactly the metrics and units BENCHMARK.json declares;
- run.py fails without printing a result where there is no package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402
from riemann_syzygy import relations  # noqa: E402

OUT = HERE / "out"
FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def traced(fn, seed):
    rec = spans.Recorder()
    with spans.installed(rec):
        p = fn(seed)
    return p, spans.exact_counts(spans.layer_metrics(rec, 0.0))


def main():
    OUT.mkdir(exist_ok=True)
    fns = {
        "verify-registry": workloads.verify_registry,
        "rank-catalogs": workloads.rank_catalogs,
        "mutation-sweep": workloads.mutation_sweep,
        "cli-roundtrip": partial(workloads.cli_roundtrip, workdir=OUT),
    }
    counts = {}
    for name, fn in fns.items():
        for seed in (1, 2):
            p1, c1 = traced(fn, seed)
            p2, c2 = traced(fn, seed)
            check(p1.failed == p2.failed == 0 and p1.attempted > 0,
                  f"{name} seed {seed}: gate passes ({p1.attempted} operations)")
            check(c1 == c2, f"{name} seed {seed}: traced counts repeat exactly")
            counts[name, seed] = c1

    c = counts["mutation-sweep", 1]
    check(c["catalog.contexts_for.calls"] == 552
          and round(c["catalog.contexts_for.distinct_ratio"] * 552) == 10,
          "mutation-sweep seed 1: 552 contexts_for calls on 10 samples")
    c = counts["rank-catalogs", 1]
    check(c["ranklab.rref.calls"] == 3 * 4, "rank-catalogs: 3 rref calls per rank_report")
    _, c = traced(lambda seed: relations.verify_all(seed, 50), 1)
    check(c["catalog.contexts_for.calls"] == 3350
          and round(c["catalog.contexts_for.distinct_ratio"] * 3350) == 100,
          "verify_all n=50 seed 1: 3350 contexts_for calls on 100 samples")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = spans.layer_metrics(spans.Recorder(), 0.0)
    check([(m["name"], m["unit"]) for m in declared["per_layer"]]
          == [(k, spans.unit_of(k)) for k in layer],
          "BENCHMARK.json per_layer matches spans.layer_metrics")
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                          "cli-roundtrip", "--seed", "1", "--seconds", "1"],
                         capture_output=True, text=True, timeout=180, cwd=ROOT)
    result = json.loads(out.stdout.splitlines()[-1])
    check(sorted((m["name"], m["unit"]) for m in declared["end_to_end"])
          == sorted((k, v["unit"]) for k, v in result["metrics"].items()),
          "BENCHMARK.json end_to_end matches run.py --trace 0")

    with tempfile.TemporaryDirectory(dir=OUT) as d:
        shutil.copy(ROOT / "BENCHMARK.json", d)
        shutil.copytree(HERE, Path(d) / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                              "verify-registry", "--seed", "1", "--seconds", "1"],
                             capture_output=True, text=True, timeout=180, cwd=d)
        check(out.returncode != 0 and not out.stdout,
              "run.py fails without a result when src/ is missing")

    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
