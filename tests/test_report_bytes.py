"""Pinned report bytes: fixed CLI runs hash to the values in report_digests.json.

The runs are acceptance criterion 11's pipelines with their three input
files, plus `verify delta`, `verify type1 --trials 10`, `verify alesker
--n 8`, and `run cube-quotient` on the rotated cube in R^6 of
rotated_cube6.json, where no cube vertex is in S up to sign, so every
vertex certificate comes from the envelope LP and the subsample.  Float
results depend on the Python, numpy and BLAS builds, so the pins carry the
environment they were made in, and the test skips elsewhere.

A change that moves report bytes regenerates the pins with

    PYTHONPATH=src python tests/test_report_bytes.py > tests/report_digests.json

and names the fields that moved.
"""

import hashlib
import json
import pathlib
import platform
import sys
import tempfile

import numpy as np
import pytest

from geomhull import cli

PINS = pathlib.Path(__file__).with_name("report_digests.json")
# input files kept under tests/; rotated_cube6.json is sqrt(6) {-1, 1}^6 Q^T,
# rows in itertools.product([-1.0, 1.0], repeat=6) order, with Q the
# np.linalg.qr factor of default_rng(6).standard_normal((6, 6))
FIXTURES = {"rotated-cube6": pathlib.Path(__file__).with_name(
    "rotated_cube6.json")}

# (output name, argv without --out); {name} is the path of an earlier output
RUNS = (
    ("lp-ball", ["generate", "lp-ball", "--n", "4", "--p", "0.5"]),
    ("cube-vertices", ["generate", "cube-vertices", "--n", "4",
                       "--p", "1.0"]),
    ("sphere-sample", ["generate", "sphere-sample", "--n", "8",
                       "--count", "40", "--seed", "3"]),
    ("random-vertex-subset", ["generate", "random-vertex-subset", "--n", "8",
                              "--eps", "0.5", "--seed", "5"]),
    ("cube-quotient", ["run", "cube-quotient", "--input", "{cube-vertices}",
                       "--eps", "0.5", "--seed", "9", "--queries", "6"]),
    ("pnormed-quotient", ["run", "pnormed-quotient",
                          "--input", "{cube-vertices}", "--eps", "0.5",
                          "--seed", "2", "--queries", "4"]),
    ("cubic-from-delta", ["run", "cubic-from-delta", "--input", "{lp-ball}",
                          "--coords", "0,1,2,3", "--seed", "2",
                          "--queries", "4"]),
    ("dvoretzky-search", ["run", "dvoretzky-search",
                          "--input", "{sphere-sample}", "--k", "2",
                          "--eta", "0.3", "--trials", "3", "--seed", "4"]),
    ("verify-main", ["verify", "main", "--input", "{cube-vertices}",
                     "--queries", "4", "--seed", "1"]),
    ("verify-delta", ["verify", "delta", "--input", "{lp-ball}"]),
    ("verify-type1", ["verify", "type1", "--trials", "10"]),
    ("verify-alesker", ["verify", "alesker", "--n", "8"]),
    ("rotated-cube-quotient", ["run", "cube-quotient",
                               "--input", "{rotated-cube6}", "--eps", "0.5",
                               "--seed", "2", "--queries", "4"]),
)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def report_digests(directory):
    """sha256 of every output of RUNS, written under `directory`."""
    paths = {name: str(path) for name, path in FIXTURES.items()}
    digests = {}
    for name, argv in RUNS:
        paths[name] = str(pathlib.Path(directory) / name)
        argv = [arg.format_map(paths) for arg in argv] + ["--out", paths[name]]
        assert cli.main(argv) == 0, name
        digests[name] = hashlib.sha256(
            pathlib.Path(paths[name]).read_bytes()).hexdigest()
    return digests


def test_report_bytes_match_pins(tmp_path):
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    here = environment()
    if pins["environment"] != here:
        pytest.skip(f"pins made on {pins['environment']}, this is {here}")
    got = report_digests(tmp_path)
    moved = sorted(name for name in got if got[name] != pins["digests"][name])
    assert not moved, f"report bytes moved: {moved}"
    assert set(got) == set(pins["digests"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        record = {"environment": environment(),
                  "digests": report_digests(directory)}
    sys.stdout.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
