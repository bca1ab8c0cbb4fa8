"""Pinned ellipsoids of the projection benchmark and of acceptance criterion 09.

`optim.mvee` may change how fast its ascent converges, not which ellipsoid
it returns beyond its tolerance.  The projection benchmark's digest requests
at seeds 101-103 (one `dvoretzky_search` trial at k = 3 on 500 unit vectors
in R^40 drawn from the generator seeded `seed`, with the search seeded from
SeedSequence([seed, i])) keep log det(shape_matrix / scale) within the
duality bound 2k log(1 + 1e-7) of the values pinned in projection_pins.json,
and criterion 09's 200-trial search keeps its winning trial.

A change that moves an ellipsoid beyond the bound regenerates the pins with

    PYTHONPATH=src python tests/test_projection_pins.py > tests/projection_pins.json

and says why it moved.
"""

import json
import math
import pathlib
import sys

import numpy as np
import pytest

from geomhull.bodies import GeneratingSet
from geomhull.dvoretzky import dvoretzky_search

PINS = pathlib.Path(__file__).with_name("projection_pins.json")
SEEDS = (101, 102, 103)
REQUESTS = 12
K = 3


def _sphere_sample(seed):
    pts = np.random.default_rng(seed).standard_normal((500, 40))
    return GeneratingSet(40, pts / np.linalg.norm(pts, axis=1, keepdims=True))


def log_dets(seed):
    """log det(shape_matrix / scale) of each digest request at `seed`."""
    S = _sphere_sample(seed)
    out = []
    for i in range(REQUESTS):
        search_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        E = dvoretzky_search(S, k=K, eta=0.2, trials=1, seed=search_seed).ellipsoid
        out.append(float(np.linalg.slogdet(E.shape_matrix / E.scale)[1]))
    return out


def criterion_09_trial():
    return dvoretzky_search(_sphere_sample(7), k=3, eta=0.2, trials=200,
                            seed=123).trial


@pytest.mark.parametrize("seed", SEEDS)
def test_benchmark_ellipsoids_match_pins(seed):
    pinned = json.loads(PINS.read_text(encoding="utf-8"))[str(seed)]
    got = log_dets(seed)
    bound = 2 * K * math.log1p(1e-7) + 1e-10
    moved = [i for i, (a, b) in enumerate(zip(got, pinned)) if abs(a - b) > bound]
    assert len(got) == len(pinned) and not moved, f"requests moved: {moved}"


def test_criterion_09_keeps_its_winning_trial():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))["criterion_09_trial"]
    assert criterion_09_trial() == pinned


if __name__ == "__main__":
    pins = {str(seed): log_dets(seed) for seed in SEEDS}
    pins["criterion_09_trial"] = criterion_09_trial()
    sys.stdout.write(json.dumps(pins, indent=0, sort_keys=True) + "\n")
