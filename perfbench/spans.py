"""Span recorder that times geomhull's layers from outside the package.

`traced(tracer)` rebinds each listed function wherever a geomhull module
holds it (its defining module and every module-level import, such as
`hulls.solve_lp` or `dvoretzky.mvee`), and each listed method on its class.
Every call then records a span (name, start, end, parent, request) in
memory.  A span's self time is its duration minus the time its child spans
cover.  Counters are taken at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

from geomhull import balance, bodies, cube, dvoretzky, hulls, optim

MODULES = {"optim": optim, "bodies": bodies, "hulls": hulls,
           "balance": balance, "cube": cube, "dvoretzky": dvoretzky}


def _count_verdict(counters, args, verdict):
    counters["hulls.bb_nodes"] += verdict.nodes
    counters["hulls.verdicts"] += 1


def _count_flat(counters, args, result):
    counters["hulls.flat_terms"] += len(result[0].terms)


def _count_evaluated(counters, args, result):
    counters["hulls.evaluate_terms"] += len(args[0].terms)


def _count_ellipticity(counters, args, result):
    best = counters.get("dvoretzky.ellipticity_min")
    if best is None or result.ellipticity < best:
        counters["dvoretzky.ellipticity_min"] = result.ellipticity


# (module, attribute path, counter hook).  Per-call figures come from
# PER_CALL below; everything else is calls and self time.
FUNCTIONS = [
    ("optim", "solve_lp", None),
    ("optim", "mvee", None),
    ("bodies", "envelope_gauge", None),
    ("hulls", "delta_m_membership", _count_verdict),
    ("hulls", "approx2_transform", _count_flat),
    ("hulls", "GammaRepresentation.evaluate", _count_evaluated),
    ("hulls", "DeltaMCertificate.slots", None),
    ("balance", "type1_represent", None),
    ("balance", "halving_step", None),
    ("balance", "greedy_signs", None),
    ("cube", "cube_quotient", None),
    ("cube", "subsample_vertex_fit", None),
    ("cube", "alesker_chain", None),
    ("cube", "counting_select", None),
    ("cube", "represent_cube_point", None),
    ("dvoretzky", "dvoretzky_search", _count_ellipticity),
    ("dvoretzky", "random_projection", None),
]
SPAN_NAMES = [f"{mod}.{path}" for mod, path, _ in FUNCTIONS]
PER_CALL = {"optim.solve_lp": ("us", 1e6), "optim.mvee": ("ms", 1e3),
            "bodies.envelope_gauge": ("us", 1e6)}


class Tracer:
    """In-memory spans; `request` tags the spans of the request in flight."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request]
        self.counters = defaultdict(float)
        self.request = -1
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.request])

    def end(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def totals(self):
        """Per span name: calls, total duration and self time."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            calls[name] += 1
            total[name] += duration
            self_s[name] += duration
            if parent >= 0:
                self_s[self.spans[parent][0]] -= duration
        return calls, total, self_s

    def write(self, path):
        payload = {"fields": ["name", "start", "end", "parent", "request"],
                   "spans": self.spans, "counters": dict(self.counters)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


def _wrap(tracer, name, fn, count):
    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if count is not None:
            count(tracer.counters, args, result)
        return result
    return traced_call


@contextlib.contextmanager
def traced(tracer):
    """Route every listed geomhull function through `tracer`, then restore."""
    undo = []
    try:
        for mod, path, count in FUNCTIONS:
            name = f"{mod}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(MODULES[mod], cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, _wrap(tracer, name, original, count))
                undo.append((owner, attr, original))
                continue
            original = getattr(MODULES[mod], path)
            wrapped = _wrap(tracer, name, original, count)
            for module in MODULES.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        undo.append((module, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(tracer):
    """Per-layer metrics of a traced run, keyed by metric name."""
    calls, total, self_s = tracer.totals()
    c = tracer.counters
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
        if name in PER_CALL:
            unit, factor = PER_CALL[name]
            per_call = self_s[name] / calls[name] * factor if calls[name] else 0.0
            out[f"{name}.{unit}_per_call"] = (per_call, unit)
    out["hulls.bb_nodes"] = (c["hulls.bb_nodes"], "count")
    out["hulls.bb_nodes_per_verdict"] = (
        c["hulls.bb_nodes"] / c["hulls.verdicts"] if c["hulls.verdicts"] else 0.0,
        "nodes/verdict")
    out["hulls.flat_terms"] = (c["hulls.flat_terms"], "count")
    evaluate_s = self_s["hulls.GammaRepresentation.evaluate"]
    out["hulls.evaluate_terms_per_s"] = (
        c["hulls.evaluate_terms"] / evaluate_s if evaluate_s > 0 else 0.0, "1/s")
    out["dvoretzky.ellipticity_min"] = (c.get("dvoretzky.ellipticity_min", 0.0),
                                        "ratio")
    # request time not inside any listed function's span
    request_s = total["request"]
    out["trace_coverage_frac"] = (
        1.0 - self_s["request"] / request_s if request_s > 0 else 0.0, "ratio")
    return out
