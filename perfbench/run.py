"""Benchmark of riemann-syzygy: four seeded workloads.

    python3 perfbench/run.py --workload verify-registry --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every pass runs in a fresh interpreter, so no cache in the
package outlives one pass, and each interpreter first times its own
set-up.  With ``--trace 0`` the workload repeats whole passes, each on
samples from its own seed drawn from ``--seed``, for about ``--seconds``
seconds, and reports the end-to-end metrics of BENCHMARK.json.  With
``--trace 1`` it runs one pass untraced and the same pass traced, twice,
checks that the traced counts repeat exactly, and reports the per-layer
metrics of BENCHMARK.json from the second traced pass.  ``all`` runs every
workload in turn.

Lines before the last one are a human-readable summary (verify_s,
rank.scalar_s, mutation.p97_ms, ...; see README.md).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"  # spans and temporary CLI files; ignored by git
WORKLOADS = ("verify-registry", "rank-catalogs", "mutation-sweep", "cli-roundtrip")
TRACE_ROUNDS = 2
# setup_s is set-up time in reference units times this: seconds on a host
# where one run of the reference work takes 5 ms (4.3 to 7 ms on the host
# of the first baseline).
NOMINAL_REF_S = 0.005
SETUP_INTERVAL_S = 0.02  # set-up takes about 0.2 s
PASS_INTERVAL_S = 0.05


def one_pass(workload, pass_seed, trace, spans_path):
    """Child mode: time set-up, run one pass, print its facts as JSON.

    Set-up is ``import riemann_syzygy`` and ``load_relations()``, before
    anything else of the package or numpy is imported.  It and the pass
    each run with the reference work interleaved, whose time is left out
    of set-up, of the pass, of every operation and, when tracing, of every
    span.  An exception fails the pass.
    """
    import reference

    ref = reference.Reference(SETUP_INTERVAL_S)
    with ref.interleaved():
        import riemann_syzygy
        riemann_syzygy.load_relations()
    setup_ref = ref.in_units()

    import contextlib
    import resource
    import traceback
    from functools import partial

    import spans
    import workloads

    fn = {
        "verify-registry": workloads.verify_registry,
        "rank-catalogs": workloads.rank_catalogs,
        "mutation-sweep": workloads.mutation_sweep,
        "cli-roundtrip": partial(workloads.cli_roundtrip, workdir=OUT),
    }[workload]
    ref = reference.Reference(PASS_INTERVAL_S)
    rec = spans.Recorder() if trace else None
    tracing = spans.installed(rec) if trace else contextlib.nullcontext()
    if rec is not None:
        rec.clock = ref.clock
    t0 = time.perf_counter()
    raised = False
    with ref.interleaved(), tracing:
        try:
            p = fn(pass_seed, ref.clock)
        except Exception:
            traceback.print_exc()
            p = workloads.Pass(attempted=1, failed=1)
            raised = True
    wall = time.perf_counter() - t0 - ref.spent_s
    in_ref = ref.in_units()
    if not p.latencies_s:  # a pass that times no operation of its own is one
        p.latencies_s.append(wall)
    result = {
        "attempted": p.attempted, "failed": p.failed, "raised": raised,
        "wall_s": wall, "in_ref": in_ref,
        "op_ref": [x * in_ref / wall for x in p.latencies_s],
        "op_s": p.latencies_s,
        "parts_s": p.parts_s,
        "parts_ref": {k: x * in_ref / wall for k, x in p.parts_s.items()},
        "setup_ref": setup_ref,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if rec is not None:
        rec.write(spans_path)
        result["layer"] = spans.layer_metrics(rec, 0.0)
    print(json.dumps(result))


def run_pass(workload, pass_seed, trace=0, spans_path=OUT / "spans.jsonl"):
    """One pass in a fresh interpreter: its facts, or None if it crashed."""
    out = subprocess.run([sys.executable, __file__, "--one-pass", workload,
                          str(pass_seed), str(trace), str(spans_path)],
                         stdout=subprocess.PIPE, text=True, timeout=170)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        print(f"{workload}: pass {pass_seed} exited {out.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def summary(workload, passes):
    """Print user-visible raw times, and the same in reference units."""
    import spans

    med = statistics.median
    lat_ms = [1000 * x for p in passes for x in p["op_s"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    rows = [("error_rate", failed / attempted, f"of {attempted} ops")]
    if workload == "verify-registry":
        rows.append(("verify_s", med(p["wall_s"] for p in passes), "s"))
    elif workload == "rank-catalogs":
        for part in ("scalar", "tensor"):
            rows += [(f"rank.{part}_s", med(p["parts_s"][part] for p in passes), "s"),
                     (f"rank.{part}_ref", med(p["parts_ref"][part] for p in passes), "ref")]
    else:
        # the highest percentile that leaves at least ten operations beyond it
        name, tail = (("mutation", 97) if workload == "mutation-sweep"
                      else ("roundtrip", 98))
        rows += [(f"{name}_s", med(p["wall_s"] for p in passes), "s"),
                 (f"{name}.p50_ms", spans.percentile(lat_ms, 0.5), "ms"),
                 (f"{name}.p{tail}_ms", spans.percentile(lat_ms, tail / 100), "ms")]
    print(f"{workload}: {len(passes)} passes, {len(lat_ms)} timed operations")
    for key, value, unit in rows:
        print(f"  {key:<18} {value:12.6g} {unit}")


def run_untraced(workload, seed, seconds):
    seeds = random.Random(seed)
    passes, child_s = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        p = run_pass(workload, seeds.randrange(1 << 30))
        if p is None:
            return passes, None, False
        passes.append(p)
        child_s.append(time.perf_counter() - t0)
        if p["raised"] or time.perf_counter() - start + statistics.median(child_s) > seconds:
            break
    med = statistics.median
    metrics = {
        "pass_ref": (med(p["in_ref"] for p in passes), "ref"),
        "op.p50_ref": (med(x for p in passes for x in p["op_ref"]), "ref"),
        "peak_rss_mb": (med(p["rss_mb"] for p in passes), "MB"),
        "setup_s": (NOMINAL_REF_S * med(p["setup_ref"] for p in passes), "s"),
    }
    summary(workload, passes)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<18} {value:12.6g} {unit}")
    return passes, metrics, True


def run_traced(workload, seed):
    import spans

    pass_seed = random.Random(seed).randrange(1 << 30)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    passes, counts, overheads = [], [], []
    for _ in range(TRACE_ROUNDS):
        untraced = run_pass(workload, pass_seed)
        traced = run_pass(workload, pass_seed, 1, spans_path)
        if untraced is None or traced is None:
            return passes, None, False
        passes += [untraced, traced]
        # the extra time in reference units, at the untraced pass's rate
        overheads.append((traced["in_ref"] - untraced["in_ref"])
                         * untraced["wall_s"] / untraced["in_ref"])
        layer = traced["layer"]
        counts.append(spans.exact_counts(layer))
    layer["trace.overhead_s"] = statistics.median(overheads)
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        print("traced counts differ between identical passes:", counts,
              file=sys.stderr)
    print(f"{workload}: per-layer metrics of one traced pass (0 = not called)")
    for key, value in layer.items():
        print(f"  {key:<38} {value:14.6g} {spans.unit_of(key)}")
    metrics = {k: (v, spans.unit_of(k)) for k, v in layer.items()}
    return passes, metrics, repeat


def run_workload(workload, seed, seconds, trace):
    if trace:
        passes, metrics, ok = run_traced(workload, seed)
    else:
        passes, metrics, ok = run_untraced(workload, seed, seconds)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if metrics is None:  # a pass crashed: no result to report
        return 1
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main():
    if sys.argv[1:2] == ["--one-pass"]:
        workload, pass_seed, trace, spans_path = sys.argv[2:]
        one_pass(workload, int(pass_seed), int(trace), spans_path)
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    OUT.mkdir(exist_ok=True)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(w, args.seed, args.seconds, args.trace) for w in chosen)


if __name__ == "__main__":
    if not (SRC / "riemann_syzygy" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC}; run from a riemann-syzygy checkout")
    sys.path.insert(0, str(SRC))
    sys.exit(main())
