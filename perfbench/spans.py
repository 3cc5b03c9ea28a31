"""Span recorder for the traced benchmark run.

``installed(recorder)`` rebinds every public function (the names in
``__all__``) of the package modules listed in ``MODULES`` at every module
that binds it.  The package imports by name, so ``relations.contexts_for``
and ``ranklab.contexts_for`` are rebound together with
``catalog.contexts_for``, ``catalog.reconstruct`` with
``decomp.reconstruct``, and so on.  ``numpy.einsum`` is rebound too, to
count the contractions issued from inside ``expr``.  Everything is restored
on exit; the untraced run never enters ``installed``.

Spans are kept in memory and written out once, at the end, by ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import sys
import time
import uuid
from collections import defaultdict

import numpy

MODULES = ("gen", "decomp", "curvature", "expr", "catalog", "relations",
           "ranklab", "cli")


def _sample_key(fb):
    return (*fb.Ap.flat, *fb.B.flat, *fb.Am.flat)


# Facts taken from a call's bound arguments and result, for the ratios that
# spans alone cannot give.
_OBSERVERS = {
    "catalog.contexts_for": lambda a, r: _sample_key(a["fb"]),
    "expr.parse": lambda a, r: a["text"],
    "ranklab.sample_matrix": lambda a, r: ([_sample_key(fb) for fb in a["fbs"]],
                                           len(r)),
    "ranklab.rref": lambda a, r: (len(a["rows"]), len(r[1])),
    "gen.random_fblocks_stream": lambda a, r: len(r),
    "gen.random_fblocks": lambda a, r: 1,
}


class Recorder:
    """Spans of one traced pass: ``[name, start, end, parent index]``.

    ``clock`` gives the span times; run.py sets one that leaves out its
    reference work.
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self.facts = defaultdict(list)
        self.expr_einsum_calls = 0
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = self.clock()

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            # the work happens while the caller iterates: one span per step
            @functools.wraps(fn)
            def stepper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close()
                    yield item
            return stepper

        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if observe is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.facts[name].append(observe(bound, result))
            return result
        return wrapper

    def count_einsum(self, einsum):
        @functools.wraps(einsum)
        def counting(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0].startswith("expr."):
                self.expr_einsum_calls += 1
            return einsum(*args, **kwargs)
        return counting

    def write(self, path):
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                    "start": start, "end": end,
                                    "parent": parent}) + "\n")


@contextlib.contextmanager
def installed(rec):
    """Route every public package function, and numpy.einsum, through rec."""
    wrapped = {}
    for short in MODULES:
        mod = importlib.import_module(f"riemann_syzygy.{short}")
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn):
                wrapped[fn] = rec.wrap(f"{short}.{name}", fn)
    bindings = [(numpy, "einsum", numpy.einsum, rec.count_einsum(numpy.einsum))]
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] != "riemann_syzygy":
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                bindings.append((mod, attr, val, wrapped[val]))
    try:
        for mod, attr, _, new in bindings:
            setattr(mod, attr, new)
        yield rec
    finally:
        for mod, attr, old, _ in bindings:
            setattr(mod, attr, old)


class _Stat:
    __slots__ = ("calls", "s", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.s = 0.0  # inclusive, counting only the outermost of nested spans
        self.self_s = 0.0
        self.durations = []


def _has_ancestor(spans, i, pred):
    p = spans[i][3]
    while p >= 0:
        if pred(spans[p][0]):
            return True
        p = spans[p][3]
    return False


def _stats(spans):
    children_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children_s[parent] += end - start
    stats = defaultdict(_Stat)
    gen_s = 0.0
    for i, (name, start, end, _) in enumerate(spans):
        d = end - start
        st = stats[name]
        st.calls += 1
        st.self_s += d - children_s[i]
        st.durations.append(d)
        if not _has_ancestor(spans, i, name.__eq__):
            st.s += d
        if name.startswith("gen.") and not _has_ancestor(
                spans, i, lambda n: n.startswith("gen.")):
            gen_s += d
    return stats, gen_s


def _ratio(a, b):
    return a / b if b else 0.0


def percentile(values, q):
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)]


def unit_of(metric):
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith(".distinct_ratio"):
        return "ratio"
    if metric.endswith(".rows_per_rank"):
        return "rows/rank"
    return "count"


def layer_metrics(rec, overhead_s):
    """Per-layer metrics of one traced pass; layers not called read 0."""
    st, gen_s = _stats(rec.spans)
    f = rec.facts
    ctx_keys = f["catalog.contexts_for"]
    parse_keys = f["expr.parse"]
    sm_keys = [k for keys, _ in f["ranklab.sample_matrix"] for k in keys]
    rref_rows = sum(rows for rows, _ in f["ranklab.rref"])
    rref_rank = sum(rank for _, rank in f["ranklab.rref"])
    check = st["relations.check_relation"].durations
    return {
        "catalog.contexts_for.calls": st["catalog.contexts_for"].calls,
        "catalog.contexts_for.s": st["catalog.contexts_for"].s,
        "catalog.contexts_for.distinct_ratio": _ratio(len(set(ctx_keys)), len(ctx_keys)),
        "decomp.reconstruct.calls": st["decomp.reconstruct"].calls,
        "decomp.reconstruct.s": st["decomp.reconstruct"].s,
        "curvature.weyl.calls": st["curvature.weyl"].calls,
        "curvature.weyl.s": st["curvature.weyl"].s,
        "curvature.pseudo_riemann.calls": st["curvature.pseudo_riemann"].calls,
        "curvature.pseudo_riemann.s": st["curvature.pseudo_riemann"].s,
        "expr.tensor_context.self_s": st["expr.tensor_context"].self_s,
        "expr.matrix_context.s": st["expr.matrix_context"].s,
        "expr.parse.calls": st["expr.parse"].calls,
        "expr.parse.s": st["expr.parse"].s,
        "expr.parse.distinct_ratio": _ratio(len(set(parse_keys)), len(parse_keys)),
        "expr.evaluate.calls": st["expr.evaluate"].calls,
        "expr.evaluate.s": st["expr.evaluate"].s,
        "expr.einsum.calls": rec.expr_einsum_calls,
        "ranklab.rref.calls": st["ranklab.rref"].calls,
        "ranklab.rref.s": st["ranklab.rref"].s,
        "ranklab.rref.rows_per_rank": _ratio(rref_rows, rref_rank),
        "ranklab.nullspace.s": st["ranklab.nullspace"].s,
        "ranklab.sample_matrix.calls": st["ranklab.sample_matrix"].calls,
        "ranklab.sample_matrix.s": st["ranklab.sample_matrix"].s,
        "ranklab.sample_matrix.rows": sum(rows for _, rows in f["ranklab.sample_matrix"]),
        "ranklab.sample_matrix.distinct_ratio": _ratio(len(set(sm_keys)), len(sm_keys)),
        "relations.residual.calls": st["relations.residual"].calls,
        "relations.residual.self_s": st["relations.residual"].self_s,
        "relations.check_relation.p50_ms": 1000 * percentile(check, 0.50),
        "relations.check_relation.p85_ms": 1000 * percentile(check, 0.85),
        "relations.mutations.s": st["relations.mutations"].s,
        "decomp.decompose.calls": st["decomp.decompose"].calls,
        "decomp.decompose.s": st["decomp.decompose"].s,
        "curvature.validate_riemann.calls": st["curvature.validate_riemann"].calls,
        "curvature.validate_riemann.s": st["curvature.validate_riemann"].s,
        "cli.run.calls": st["cli.run"].calls,
        "cli.run.self_s": st["cli.run"].self_s,
        "gen.samples": sum(f["gen.random_fblocks_stream"]) + sum(f["gen.random_fblocks"]),
        "gen.s": gen_s,
        "trace.overhead_s": overhead_s,
    }


def exact_counts(metrics):
    """The metrics that must repeat exactly for the same inputs."""
    return {k: v for k, v in metrics.items() if unit_of(k) not in ("s", "ms")}
