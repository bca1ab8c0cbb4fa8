"""Pinned branch-and-bound searches of the m-term average-hull oracle.

The LP kernel under `hulls.delta_m_membership` may change how fast a node
is solved, not which nodes are searched.  Acceptance criterion 10's grid
searches 3,042 nodes.  The membership benchmark's digest requests at seeds
101-103 (m = 1 + i mod 4, x uniform in [-1.4, 1.4]^2 from the generator
seeded [seed, i]) keep their verdicts, optima, multiplicity vectors and
node counts, pinned in membership_pins.json.  Alphas are not pinned: at a
tie between equal-cost generators their last digits follow float noise, so
each certificate is checked against its point instead.

A change that moves the search regenerates the pins with

    PYTHONPATH=src python tests/test_membership_tree.py > tests/membership_pins.json

and says why the tree moved.
"""

import json
import math
import pathlib
import sys

import numpy as np
import pytest

from geomhull.bodies import GeneratingSet
from geomhull.hulls import delta_m_membership

PINS = pathlib.Path(__file__).with_name("membership_pins.json")
ANGLES = (0.37, 1.91, 3.85, 5.2)
SEEDS = (101, 102, 103)
REQUESTS = 400


def _generators():
    return GeneratingSet(2, np.array([[math.cos(a), math.sin(a)]
                                      for a in ANGLES]))


def searches(seed):
    """(x, m, verdict) of each digest request at `seed`."""
    S = _generators()
    for i in range(REQUESTS):
        m = 1 + i % 4
        x = np.random.default_rng([seed, i]).uniform(-1.4, 1.4, size=2)
        yield x, m, delta_m_membership(S, m, x)


def summary(verdict):
    mult = ("" if verdict.certificate is None else
            ",".join(str(int(v)) for v in verdict.certificate.multiplicities))
    return f"{verdict.status}|{verdict.optimum}|{mult}|{verdict.nodes}"


def test_criterion_10_grid_searches_3042_nodes():
    S = _generators()
    grid = np.linspace(-1.4, 1.4, 21)
    nodes = sum(delta_m_membership(S, m, np.array([gx, gy])).nodes
                for m in (1, 2, 3, 4) for gx in grid for gy in grid)
    assert nodes == 3042


@pytest.mark.parametrize("seed", SEEDS)
def test_benchmark_requests_match_pins(seed):
    pinned = json.loads(PINS.read_text(encoding="utf-8"))[str(seed)]
    S = _generators()
    got = []
    for x, m, verdict in searches(seed):
        got.append(summary(verdict))
        if verdict.status == "member":
            err = np.linalg.norm(verdict.certificate.evaluate(S) - x)
            assert err <= 1e-7
    moved = [i for i, (a, b) in enumerate(zip(got, pinned)) if a != b]
    assert len(got) == len(pinned) and not moved, f"requests moved: {moved}"


if __name__ == "__main__":
    pins = {str(seed): [summary(v) for _, _, v in searches(seed)]
            for seed in SEEDS}
    sys.stdout.write(json.dumps(pins, indent=0, sort_keys=True) + "\n")
