"""The benchmark's verifiers still read what geomhull returns.

Each perfbench workload checks every output with its own verifier and, before
each run, shows that the verifier accepts a real output and rejects a
corrupted copy.  This makes the same two checks on the self-test's request
at seed 101, so a change to an output's shape that the benchmark can no
longer read (a representation whose terms stop being a list of tuples, say)
fails here.
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
workloads = _load("workloads")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_verifier_self_test(name):
    workload = workloads.WORKLOADS[name](101)
    workload.setup()
    inp = workload.request(run.WARMUP_BASE)
    out = workload.call(inp)
    assert workload.check(inp, out) is None
    assert workload.check(inp, workload.corrupt(out)) is not None
