"""Pinned delta on a generic body whose delta lies strictly below the cap.

The body ("the seventh body"): p = 0.5 in R^2, generated by the rows of
default_rng(28).standard_normal((8, 2)) scaled to unit norm, the first four
then scaled by 0.8.  `delta_nonconvexity` returns a certified lower bound
there, an exact gauge at a point inside the envelope ball, and not the true
maximum: a grid of 2,000,001 points on each edge of conv(+-S) finds
1.998317, and n^(1/p-1) = 2 caps delta from above.  delta_pins.json keeps
all three, so a change to the gauge or the ascent that moves delta shows
how far it moved and towards which end.

A change that moves delta regenerates the pin with

    PYTHONPATH=src python tests/test_delta_pins.py > tests/delta_pins.json

and says why it moved; the grid value and the cap stay as they are.
"""

import json
import pathlib
import sys

import numpy as np

from geomhull.bodies import GeneratingSet, PBody, delta_nonconvexity

PINS = pathlib.Path(__file__).with_name("delta_pins.json")
GRID_MAX = 1.998317
CAP = 2.0


def seventh_body():
    pts = np.random.default_rng(28).standard_normal((8, 2))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[:4] *= 0.8
    return PBody(GeneratingSet(2, pts), 0.5)


def test_seventh_body_delta_matches_pin():
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    assert (pins["grid_max"], pins["cap"]) == (GRID_MAX, CAP)
    delta = delta_nonconvexity(seventh_body())
    assert abs(delta - pins["delta"]) <= 1e-9 * pins["delta"]
    assert delta <= CAP


if __name__ == "__main__":
    record = {"delta": delta_nonconvexity(seventh_body()),
              "grid_max": GRID_MAX, "cap": CAP}
    sys.stdout.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
