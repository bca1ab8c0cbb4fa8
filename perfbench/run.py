"""Closed-loop benchmark of geomhull's certified pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload quotient --seed 1 --seconds 24 --trace 0

One client in one process sends one request at a time; the next request goes
out when the previous one returns.  Each output is checked by the workload's
own verifier (perfbench/workloads.py) before it counts as certified.  The
last line of standard output is the JSON result; the line before it holds
the run's details: versions, seed, sample counts and the output digest.

--trace 0 reports the end-to-end metrics.  --trace 1 also times requests
untraced, then repeats the set-up and the first requests under the span
recorder in perfbench/spans.py and reports per-layer metrics.  See
perfbench/METRICS.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("quotient", "projection", "type1", "membership")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is timed in this process and again in fresh processes: at least 3
# samples, more (up to 5) while the fresh processes have taken under 4 s.
SETUP_SAMPLES = (3, 5)
SETUP_PROBE_BUDGET_S = 4.0
WARMUP_REQUESTS = 5  # drawn apart from the measured requests
WARMUP_BASE = 1 << 40


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def load(name, seed):
    """Import geomhull from this checkout's src/ and set the workload up.

    Returns the workload and the set-up time: imports, the instance, and any
    pipeline build done before the first request.
    """
    package = ROOT / "src" / "geomhull"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no geomhull package at {package}")
    sys.path.insert(0, str(package.parent))
    start = time.perf_counter()
    import geomhull
    import workloads
    if Path(geomhull.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported geomhull from {geomhull.__file__}")
    workload = workloads.WORKLOADS[name](seed)
    workload.setup()
    return workload, time.perf_counter() - start


def setup_samples(args, own):
    """Set-up times of this process and of fresh processes doing only set-up."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-probe"]
    fewest, most = SETUP_SAMPLES
    start = time.perf_counter()
    while len(samples) < most and (
            len(samples) < fewest
            or time.perf_counter() - start < SETUP_PROBE_BUDGET_S):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


class Loop:
    """Closed-loop requests with latency, verdict and digest bookkeeping."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()

    def send(self, i, tracer=None):
        w = self.workload
        inp = w.request(i)
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                out = w.call(inp)
            else:
                tracer.request = i
                with tracer.span("request"):
                    out = w.call(inp)
        except Exception:
            self.latencies.append(time.perf_counter() - start)
            self._reject(i, traceback.format_exc())
            return
        self.latencies.append(time.perf_counter() - start)
        reason = w.check(inp, out)
        if reason is not None:
            self._reject(i, reason)
        if i < w.digest_requests:
            self.digest.update(w.text(inp, out).encode() + b"\n")

    def _reject(self, i, reason):
        self.failed += 1
        if self.failed <= 3:
            print(f"perfbench: request {i} failed: {reason}", file=sys.stderr)


def self_test(workload):
    """The verifier accepts a real output and rejects a corrupted copy."""
    inp = workload.request(WARMUP_BASE)
    out = workload.call(inp)
    accepted = workload.check(inp, out) is None
    rejected = workload.check(inp, workload.corrupt(out)) is not None
    return accepted and rejected


def timed_run(workload, seconds):
    """Warm up, then send requests 0, 1, ... until `seconds` have passed and
    at least the digest's requests are done."""
    for j in range(WARMUP_REQUESTS):
        workload.call(workload.request(WARMUP_BASE + 1 + j))
    gc.collect()
    loop = Loop(workload)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < workload.digest_requests or time.perf_counter() < deadline:
        loop.send(i)
        i += 1
    return loop


def end_to_end(workload, loop, setup):
    lat_ms = sorted(1e3 * t for t in loop.latencies)
    permilles = statistics.quantiles(lat_ms, n=1000, method="inclusive")
    tail = permilles[round(workload.tail_pct * 10) - 1]
    certified = loop.attempted - loop.failed
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "req_tail_ms": (tail, "ms"),
        "certified_frac": (certified / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    # The median and the throughput go to the details line, not the metrics:
    # on a shared host whose speed switches between two levels for seconds to
    # minutes at a time, both follow the share of slow time in a run, while
    # the tail sits at the slow level in nearly every run.
    details = {"req_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
               "certified_per_s": {"value": certified / sum(loop.latencies),
                                   "unit": "1/s"},
               "requests": len(lat_ms), "tail_pct": workload.tail_pct,
               "tail_samples_beyond": sum(v > tail for v in lat_ms),
               "setup_samples_s": setup}
    return metrics, details


def traced_replay(name, workload, untraced, seed):
    """Replay the digest's requests under the span recorder."""
    import spans
    tracer = spans.Tracer()
    replay = Loop(workload)
    with spans.traced(tracer):
        with tracer.span("setup"):
            workload.setup()
        gc.collect()
        for i in range(workload.digest_requests):
            replay.send(i, tracer)
    tracer.write(ROOT / ".bench_out" / f"trace-{name}-{seed}.json")
    metrics = spans.layer_metrics(tracer)
    k = workload.digest_requests
    metrics["trace_overhead_frac"] = (
        sum(replay.latencies) / sum(untraced.latencies[:k]) - 1.0, "ratio")
    main_calls = metrics[f"{workload.main_layer}.calls"][0]
    same = replay.digest.digest() == untraced.digest.digest()
    details = {"main_layer": workload.main_layer, "main_layer_calls": main_calls,
               "replay_digest_matches": same}
    ok = main_calls > 0 and same
    return replay, metrics, details, ok


def environment(seed):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "nproc": os.cpu_count(), "seed": seed,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    workload, own_setup = load(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    verifier_ok = self_test(workload)
    loop = timed_run(workload, args.seconds)
    info = {"workload": args.workload, **environment(args.seed),
            "verifier_self_test": verifier_ok, "digest": loop.digest.hexdigest()}
    attempted, failed = loop.attempted, loop.failed
    if args.trace:
        replay, metrics, details, trace_ok = traced_replay(
            args.workload, workload, loop, args.seed)
        attempted += replay.attempted
        failed += replay.failed
        info.update(details, requests=len(loop.latencies))
    else:
        trace_ok = True
        metrics, details = end_to_end(workload, loop, setup_samples(args, own_setup))
        info.update(details)
    correct = verifier_ok and trace_ok and failed == 0
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
