"""The benchmark's verifiers still read what geomhull returns.

Each perfbench workload checks every output with its own verifier and, before
each run, shows that the verifier accepts a real output and rejects a
corrupted copy.  This makes the same two checks on the self-test's request
at seed 101, so a change to an output's shape that the benchmark can no
longer read (a representation whose terms stop being a list of tuples, say)
fails here.  The verifier must also accept the first measured requests at
that seed, so an output the benchmark would reject as incorrect fails here
too.  Replayed under the span recorder, the first requests must give the
same output text and reach the workload's main layer, as `--trace 1` asks.
"""

import importlib.util
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
spans = _load("spans")
workloads = _load("workloads")


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def workload(request):
    """The workload at seed 101, set up once for both tests."""
    built = workloads.WORKLOADS[request.param](101)
    built.setup()
    return built


def test_verifier_self_test(workload):
    inp = workload.request(run.WARMUP_BASE)
    out = workload.call(inp)
    assert workload.check(inp, out) is None
    assert workload.check(inp, workload.corrupt(out)) is not None


def test_verifier_accepts_measured_requests(workload):
    for i in range(5):
        inp = workload.request(i)
        assert workload.check(inp, workload.call(inp)) is None, f"request {i}"


def _texts(workload, count):
    inputs = [workload.request(i) for i in range(count)]
    return [workload.text(inp, workload.call(inp)) for inp in inputs]


def test_traced_replay_matches_untraced(workload):
    untraced = _texts(workload, 3)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        traced = _texts(workload, 3)
    assert traced == untraced
    calls, _, _ = tracer.totals()
    assert calls[workload.main_layer] > 0
