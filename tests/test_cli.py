import csv
import json
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from geomhull import cli
from geomhull.cli import (EXIT_BUDGET, EXIT_FAIL, EXIT_INPUT, EXIT_NUMERIC,
                          EXIT_PASS, main, read_config_file)
from geomhull.bodies import load_generating_set_json
from geomhull.cube import Calibration
from geomhull.errors import InputError


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def lp_ball_file(tmp_path):
    path = str(tmp_path / "lp.json")
    assert run("generate", "lp-ball", "--n", "4", "--p", "0.5",
               "--out", path) == EXIT_PASS
    return path


@pytest.fixture()
def cube_file(tmp_path):
    path = str(tmp_path / "cube.json")
    assert run("generate", "cube-vertices", "--n", "4",
               "--out", path) == EXIT_PASS
    return path


class TestGenerate:
    def test_lp_ball_shape(self, lp_ball_file):
        S, p = load_generating_set_json(lp_ball_file)
        assert p == 0.5
        assert S.points.shape == (8, 4)

    def test_cube_vertices_shape(self, cube_file):
        S, p = load_generating_set_json(cube_file)
        assert p is None
        assert S.points.shape == (16, 4)

    def test_random_vertex_subset_formula_count(self, tmp_path):
        # ceil(2^(10 * 0.95)) = 725
        path = str(tmp_path / "v.json")
        assert run("generate", "random-vertex-subset", "--n", "10",
                   "--eps", "0.5", "--const.c", "0.1", "--seed", "3",
                   "--out", path) == EXIT_PASS
        S, _ = load_generating_set_json(path)
        assert S.points.shape == (725, 10)
        assert set(np.unique(S.points)) == {-1.0, 1.0}

    def test_sphere_sample_unit_norms(self, tmp_path):
        path = str(tmp_path / "s.json")
        assert run("generate", "sphere-sample", "--n", "6", "--count", "40",
                   "--seed", "1", "--out", path) == EXIT_PASS
        S, _ = load_generating_set_json(path)
        assert S.points.shape == (40, 6)
        assert np.abs(np.linalg.norm(S.points, axis=1) - 1).max() < 1e-12

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_empty_sphere_sample_is_input_error(self, count):
        assert run("generate", "sphere-sample", "--n", "3",
                   "--count", count) == EXIT_INPUT

    def test_overfull_subset_is_input_error(self):
        assert run("generate", "random-vertex-subset", "--n", "3",
                   "--count", "100") == EXIT_INPUT

    @pytest.mark.parametrize("command", [("generate", "random-vertex-subset"),
                                         ("verify", "alesker")])
    def test_oversized_vertex_dimension_is_input_error(self, command):
        # the dimension is checked before 2^(n(1 - c eps)) can overflow
        assert run(*command, "--n", "2000") == EXIT_INPUT

    def test_csv_format(self, tmp_path, capsys):
        assert run("generate", "lp-ball", "--n", "2", "--p", "0.5",
                   "--format", "csv") == EXIT_PASS
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "index,x0,x1,p"
        assert len(out) == 5


class TestVerify:
    def test_delta_passes_on_lp_ball(self, lp_ball_file, capsys):
        assert run("verify", "delta", "--input", lp_ball_file) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["realized"]["analytic"] == 4.0
        assert report["calibration"]["c1"] == 0.03125

    def test_delta_needs_p(self, cube_file):
        assert run("verify", "delta", "--input", cube_file) == EXIT_INPUT

    def test_missing_input_file(self):
        assert run("verify", "delta", "--input", "/nonexistent") == EXIT_INPUT

    def test_pconv_passes(self, lp_ball_file):
        assert run("verify", "pconv", "--input", lp_ball_file, "--theta",
                   "0.5", "--samples", "300") == EXIT_PASS

    def test_pconv_input_matches_flags(self, lp_ball_file, capsys):
        # an lp-ball file gets the same closed-form gauge as --p/--n
        args = ("--theta", "0.5", "--samples", "300")
        assert run("verify", "pconv", "--input", lp_ball_file,
                   *args) == EXIT_PASS
        from_file = json.loads(capsys.readouterr().out)
        assert run("verify", "pconv", "--p", "0.5", "--n", "4",
                   *args) == EXIT_PASS
        from_flags = json.loads(capsys.readouterr().out)
        assert from_file["realized"] == from_flags["realized"]

    @pytest.mark.parametrize("p", ["0.001", "0.002"])
    def test_small_p_names_the_contraction_bound(self, p, capsys):
        assert run("verify", "pconv", "--p", p,
                   "--samples", "5") == EXIT_NUMERIC
        assert "contraction bound" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["0.001"])
    def test_small_p_names_delta(self, p, tmp_path, capsys):
        # n^(1/p-1) itself overflows a float
        path = str(tmp_path / "lp.json")
        assert run("generate", "lp-ball", "--n", "4", "--p", p,
                   "--out", path) == EXIT_PASS
        assert run("verify", "delta", "--input", path) == EXIT_NUMERIC
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["0.002", "0.003"])
    def test_small_p_delta_search_steps(self, p, tmp_path, capsys):
        # delta = 4^(1/p-1) is finite, but the ascent's gradient norms
        # overflow in their squares unless the rows are scaled first
        path = str(tmp_path / "lp.json")
        assert run("generate", "lp-ball", "--n", "4", "--p", p,
                   "--out", path) == EXIT_PASS
        capsys.readouterr()
        assert run("verify", "delta", "--input", path) == EXIT_PASS
        realized = json.loads(capsys.readouterr().out)["realized"]
        assert realized["search"] == pytest.approx(realized["analytic"],
                                                   rel=1e-9)

    def test_pconv_on_a_generic_body(self, tmp_path):
        # five points in the plane take the exact gauge, not the closed form
        path = str(tmp_path / "s.json")
        assert run("generate", "sphere-sample", "--n", "2", "--count", "5",
                   "--seed", "5", "--p", "0.5", "--out", path) == EXIT_PASS
        assert run("verify", "pconv", "--input", path) == EXIT_PASS

    def test_pconv_from_flags_without_input(self):
        assert run("verify", "pconv", "--p", "0.5", "--theta", "0.75",
                   "--samples", "300") == EXIT_PASS
        assert run("verify", "pconv", "--theta", "0.75") == EXIT_INPUT

    def test_failing_verification_exits_one(self, tmp_path):
        # a 1-trial search on a lumpy set cannot meet eta = 0.001
        path = str(tmp_path / "s.json")
        run("generate", "sphere-sample", "--n", "8", "--count", "30",
            "--seed", "2", "--out", path)
        assert run("verify", "dvoretzky", "--input", path, "--k", "2",
                   "--eta", "0.001", "--trials", "1") == EXIT_FAIL

    @pytest.mark.parametrize("error", [MemoryError(), MemoryError(
        "Unable to allocate 964. MiB for an array with shape (8192, 8192)")])
    def test_out_of_memory_exits_four(self, error, cube_file, monkeypatch,
                                      capsys):
        # exit 1 would read as "verification failed"
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "cube_quotient", exhausted)
        assert run("run", "cube-quotient", "--input", cube_file) == EXIT_BUDGET
        assert capsys.readouterr().err.startswith("out of memory: ")

    def test_numerical_failure_exits_three(self, lp_ball_file):
        # cross-polytope envelope cannot contain the cube
        assert run("run", "pnormed-quotient", "--input", lp_ball_file,
                   "--eps", "0.5") == EXIT_NUMERIC

    def test_main_passes_on_cube(self, cube_file, tmp_path):
        out = str(tmp_path / "main.json")
        assert run("verify", "main", "--input", cube_file, "--queries", "8",
                   "--out", out) == EXIT_PASS
        report = json.loads(open(out).read())
        assert report["realized"]["verified_fraction"] == 1.0
        assert report["report"]["sigma"] == [0, 1, 2, 3]

    def test_alesker_replays_each_certificate(self, monkeypatch):
        # one certificate's rows with their alphas negated still have
        # |alpha| <= mult, so only the replay of scale * S[gens]^T alpha / m
        # on sigma can catch it
        real = cli.chain_cube_certificate

        def tampered(chain, S, C):
            certs = real(chain, S, C=C)
            pattern = next(iter(certs.certificates))
            gens, mults, alphas = certs.certificates[pattern]
            certs.certificates[pattern] = gens, mults, [-a for a in alphas]
            return certs

        monkeypatch.setattr(cli, "chain_cube_certificate", tampered)
        assert run("verify", "alesker", "--n", "8", "--eps", "0.5",
                   "--seed", "4") == EXIT_FAIL

    @pytest.mark.parametrize("argv, sigma_size", [(("--seed", "6"), 10),
                                                  (("--n", "6", "--seed", "0"), 6)])
    def test_alesker_anchors_on_the_largest_fiber(self, argv, sigma_size,
                                                  capsys):
        # on these sets the all-plus fiber grows no tau ("no anchor extension
        # grows the chain", exit 3); the largest fiber grows sigma to all n
        assert run("verify", "alesker", *argv) == EXIT_PASS
        constants = json.loads(capsys.readouterr().out)["constants"]
        assert constants["sigma_size"] == sigma_size

    def test_type1_defect_scales_with_the_generators(self, tmp_path, capsys):
        # the halving defect is bounded by max ||s_i|| / sqrt(N), 3.5 / sqrt(N)
        # here; against 1 / sqrt(N) this valid run read 1.13
        path = tmp_path / "four.json"
        path.write_text('{"dimension": 2, "points": '
                        '[[3, 0], [0, 3], [2, 2.5], [-1, 2.7]]}')
        assert run("verify", "type1", "--input", str(path)) == EXIT_PASS
        realized = json.loads(capsys.readouterr().out)["realized"]
        assert 0.0 < realized["defect_ratio_max"] <= 1.0

    def test_trials_are_never_capped(self, capsys):
        assert run("verify", "approx2", "--trials", "201") == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["constants"]["trials"] == 201

    # dvoretzky (about 14 s) is left to acceptance criterion 09
    @pytest.mark.parametrize("suite", ["approx2", "type1", "counting",
                                       "alesker"])
    def test_input_free_suite_passes_at_defaults(self, suite):
        assert run("verify", suite) == EXIT_PASS

    @pytest.mark.parametrize("command", [("run", "cube-quotient"),
                                         ("verify", "main")])
    def test_oversized_subsample_exits_two(self, command, tmp_path, capsys):
        # d = 10^4 asks for m ~ 1.35e9 subsample slots per vertex, d = 85
        # for m ~ 97,900: within memory, but minutes of work
        for d in (10000, 85):
            path = tmp_path / "far.json"
            path.write_text('{"dimension": 2, '
                            f'"points": [[1, 1], [1, -1], [{d}, 0]]}}')
            assert run(*command, "--input", str(path)) == EXIT_INPUT
            assert "input error:" in capsys.readouterr().err


class TestRun:
    def test_cube_quotient_byte_identical(self, cube_file, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        args = ("run", "cube-quotient", "--input", cube_file, "--eps", "0.5",
                "--seed", "9", "--queries", "6")
        assert run(*args, "--out", a) == EXIT_PASS
        assert run(*args, "--out", b) == EXIT_PASS
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_cube_quotient_csv_rows(self, cube_file, tmp_path):
        out = str(tmp_path / "q.csv")
        assert run("run", "cube-quotient", "--input", cube_file, "--eps",
                   "0.5", "--seed", "9", "--queries", "6", "--format", "csv",
                   "--out", out) == EXIT_PASS
        lines = open(out).read().splitlines()
        header = lines[0].split(",")
        assert "record" in header and "residual" in header
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"vertex-certificate", "query"}
        assert len(lines) == 1 + 16 + 6

    def test_booleans_are_written_as_booleans(self, cube_file, tmp_path):
        args = ("--input", cube_file, "--seed", "1", "--queries", "4")
        reports, verified = [], []
        for command in (("run", "cube-quotient"), ("verify", "main")):
            out = tmp_path / "r.json"
            assert run(*command, *args, "--out", str(out)) == EXIT_PASS
            reports.append(json.loads(out.read_text()))
            assert run(*command, *args, "--format", "csv",
                       "--out", str(out)) == EXIT_PASS
            rows = csv.DictReader(out.read_text().splitlines())
            verified.append([row["verified"] for row in rows
                             if row["record"] == "query"])
        quotient, main_report = reports
        assert type(main_report["pass"]) is bool
        for report in (quotient, main_report["report"]):
            assert type(report["density_ok"]) is bool
            assert report["vertex_fit"] == main_report["realized"]["vertex_fit"]
            assert all(type(q["verified"]) is bool
                       for q in report["certificates"])
        assert verified[0] == verified[1] == ["True"] * 4

    def test_pnormed_quotient_p1(self, tmp_path):
        src = str(tmp_path / "c.json")
        run("generate", "cube-vertices", "--n", "3", "--p", "1.0",
            "--out", src)
        out = str(tmp_path / "pn.json")
        assert run("run", "pnormed-quotient", "--input", src, "--eps", "0.5",
                   "--seed", "1", "--queries", "4", "--out", out) == EXIT_PASS
        payload = json.loads(open(out).read())
        assert payload["distance"]["contraction"] == 1.0
        assert payload["quotient"]["seed"] == 1

    def test_cubic_from_delta(self, lp_ball_file, tmp_path):
        out = str(tmp_path / "cfd.json")
        assert run("run", "cubic-from-delta", "--input", lp_ball_file,
                   "--coords", "0,1,2,3", "--seed", "2", "--queries", "4",
                   "--out", out) == EXIT_PASS
        payload = json.loads(open(out).read())
        assert payload["summary"]["operator_k"] == 1

    def test_cubic_from_delta_on_a_generic_body(self, tmp_path):
        src = tmp_path / "three.json"
        src.write_text(json.dumps({"dimension": 2, "p": 0.5,
                                   "points": [[1, 0], [0, 1], [0.6, 0.7]]}))
        out = str(tmp_path / "cfd.json")
        assert run("run", "cubic-from-delta", "--input", str(src),
                   "--coords", "0,1", "--out", out) == EXIT_PASS
        delta = json.loads(open(out).read())["summary"]["delta"]
        # a certified lower bound, under the cap n^(1/p-1) = 2
        assert 1.0 <= delta <= 2.0 + 1e-12

    def test_dvoretzky_search_report(self, tmp_path):
        src = str(tmp_path / "s.json")
        run("generate", "sphere-sample", "--n", "8", "--count", "40",
            "--seed", "3", "--out", src)
        out = str(tmp_path / "d.json")
        assert run("run", "dvoretzky-search", "--input", src, "--k", "2",
                   "--eta", "0.3", "--trials", "3", "--seed", "4",
                   "--out", out) == EXIT_PASS
        payload = json.loads(open(out).read())
        assert payload["rank"] == 2
        assert payload["seed"] == 4
        assert "calibration" in payload


# (case, config file text or None, flags): a config line is read as the flag
# --key=value, so a file and the command line are judged by the same rules
OPTION_MISTAKES = [
    ("abbreviated-flag", None, ("--sam", "5")),
    ("abbreviated-key", "sam = 5\n", ()),
    ("fractional-seed-flag", None, ("--seed", "3.0")),
    ("fractional-seed-key", "seed = 3.0\n", ()),
    ("target-key", "target = x\n", ()),
    ("command-key", "command = x\n", ()),
    ("seed-word-flag", None, ("--seed", "abc")),
    ("unknown-key", "epsilon = 0.5\n", ()),
    ("format-key", "format = xml\n", ()),
    ("const-word-key", "const.c = abc\n", ()),
    ("config-key", "config = other.cfg\n", ()),
    # seeds below 0 and counts below 1, which once ended in a traceback or
    # passed on nothing
    ("negative-seed-flag", None, ("--seed", "-1")),
    ("negative-seed-key", "seed = -1\n", ()),
    ("negative-queries-flag", None, ("--queries", "-1")),
    ("zero-queries-flag", None, ("--queries", "0")),
    ("zero-samples-flag", None, ("--samples", "0")),
    ("negative-samples-flag", None, ("--samples", "-5")),
    ("zero-trials-flag", None, ("--trials", "0")),
    ("negative-trials-flag", None, ("--trials", "-3")),
    ("zero-trials-key", "trials = 0\n", ()),
    # tolerances and constants that are not finite and positive, which once
    # ran on or ended in a traceback
    ("zero-tol-flag", None, ("--tol", "0")),
    ("zero-tol-key", "tol = 0\n", ()),
    ("nan-tol-flag", None, ("--tol", "nan")),
    ("nan-tol-key", "tol = nan\n", ()),
    ("negative-tol-flag", None, ("--tol", "-1")),
    ("negative-tol-key", "tol = -1\n", ()),
    ("infinite-tol-flag", None, ("--tol", "inf")),
    # there is no node budget option: the flag and the key are unknown
    ("budget-flag", None, ("--budget", "5")),
    ("budget-key", "budget = 5\n", ()),
    ("negative-const-flag", None, ("--const.c", "-1")),
    ("negative-const-key", "c = -1\n", ()),
    ("zero-const-flag", None, ("--const.c2", "0")),
    ("zero-const-key", "const.c1 = 0\n", ()),
    # eps values that are not finite and positive, and counts below 1, which
    # once ended in a traceback or a misleading dimension error
    ("nan-eps-flag", None, ("--eps", "nan")),
    ("nan-eps-key", "eps = nan\n", ()),
    ("infinite-eps-flag", None, ("--eps", "inf")),
    ("infinite-eps-key", "eps = inf\n", ()),
    ("zero-eps-flag", None, ("--eps", "0")),
    ("negative-eps-key", "eps = -0.5\n", ()),
    ("negative-count-flag", None, ("--count", "-1")),
    ("negative-count-key", "count = -1\n", ()),
    ("zero-count-flag", None, ("--count", "0")),
    ("zero-count-key", "count = 0\n", ()),
]


class TestConfig:
    @pytest.mark.parametrize("text,flags",
                             [case[1:] for case in OPTION_MISTAKES],
                             ids=[case[0] for case in OPTION_MISTAKES])
    def test_option_mistake_exits_two(self, text, flags, tmp_path, capsys):
        argv = ["verify", "counting", "--n", "4", *flags]
        if text is not None:
            path = tmp_path / "c.cfg"
            path.write_text(text)
            argv += ["--config", str(path)]
        assert run(*argv) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error:")

    def test_missing_subcommand_exits_two(self, capsys):
        assert run() == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error:")

    def test_config_file_then_cli_override(self, cube_file, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("eps=0.5\nseed=11\nqueries=4\nconst.c2=2.0\n")
        out = str(tmp_path / "r.json")
        assert run("run", "cube-quotient", "--input", cube_file, "--config",
                   str(cfgfile), "--seed", "12", "--out", out) == EXIT_PASS
        payload = json.loads(open(out).read())
        assert payload["seed"] == 12          # CLI wins over the file
        assert payload["calibration"]["c2"] == 2.0

    def test_unknown_config_key_rejected(self, cube_file, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("epsilon=0.5\n")
        assert run("run", "cube-quotient", "--input", cube_file,
                   "--config", str(cfgfile)) == EXIT_INPUT

    def test_numeric_coords_read_as_a_list(self, lp_ball_file, tmp_path):
        # "coords = 3" parses as an int; it must still reach the coordinate
        # check, which rejects a one-coordinate subspace as too small
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("coords = 3\n")
        assert run("run", "cubic-from-delta", "--input", lp_ball_file,
                   "--config", str(cfgfile)) == EXIT_INPUT

    def test_read_config_file_parsing(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("# comment\nseed=3\neps=0.25 # tail\nname=abc\n")
        assert read_config_file(str(cfgfile)) == {"seed": "3", "eps": "0.25",
                                                  "name": "abc"}

    def test_malformed_line_rejected(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("just a line\n")
        with pytest.raises(InputError):
            read_config_file(str(cfgfile))

    def test_calibrate_roundtrip(self, tmp_path, capsys):
        calfile = str(tmp_path / "cal.cfg")
        assert run("calibrate", "--const.c1", "0.0625",
                   "--out", calfile) == EXIT_PASS
        printed = json.loads(capsys.readouterr().out)
        assert printed["calibration"]["c1"] == 0.0625
        assert run("calibrate", "--config", calfile) == EXIT_PASS
        again = json.loads(capsys.readouterr().out)
        assert again["calibration"] == printed["calibration"]


APPROX2 = ("verify", "approx2", "--trials", "2")
SPHERE = '{"dimension": 3, "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}'

# (case, command, flag carrying the file, file text; None makes a directory)
MALFORMED = [(case, APPROX2, flag, text) for case, flag, text in [
    ("truncated-json", "input", '{"dimension": 2, "points": [[1, 0], [0'),
    ("top-level-list", "input", "[[1, 0], [0, 1]]"),
    ("dimension-word", "input",
     '{"dimension": "two", "points": [[1, 0], [0, 1]]}'),
    ("dimension-fraction", "input",
     '{"dimension": 2.7, "points": [[1, 0], [0, 1]]}'),
    ("dimension-zero", "input", '{"dimension": 0, "points": []}'),
    ("ragged-points", "input", '{"dimension": 2, "points": [[1, 0], [0]]}'),
    ("points-3d", "input", '{"dimension": 1, "points": [[[1]], [[-1]]]}'),
    ("points-huge-int", "input",
     '{"dimension": 1, "points": [[1%s]]}' % ("0" * 400)),
    ("p-word", "input",
     '{"dimension": 2, "points": [[1, 0], [0, 1]], "p": "x"}'),
    ("p-huge-int", "input",
     '{"dimension": 2, "points": [[1, 0], [0, 1]], "p": 1%s}' % ("0" * 400)),
    ("input-directory", "input", None),
    ("const-word", "config", "const.c = abc\n"),
    ("seed-word", "config", "seed = abc\n"),
    ("eps-word", "config", "eps = abc\n"),
]] + [
    # out-of-range flag values, which once ran silently at a default; the
    # file is an empty config, or a valid instance where one is needed
    ("type1-theta", ("verify", "type1", "--theta", "0.2"), "config", ""),
    ("type1-m-zero", ("verify", "type1", "--m", "0"), "config", ""),
    ("counting-n-zero", ("verify", "counting", "--n", "0"), "config", ""),
    ("alesker-n-zero", ("verify", "alesker", "--n", "0"), "config", ""),
    ("dvoretzky-n-zero", ("verify", "dvoretzky", "--n", "0"), "config", ""),
    ("dvoretzky-count-zero", ("verify", "dvoretzky", "--count", "0"),
     "config", ""),
    ("dvoretzky-k-zero", ("verify", "dvoretzky", "--k", "0"), "config", ""),
    ("search-k-zero", ("run", "dvoretzky-search", "--k", "0"), "input",
     SPHERE),
    ("subset-eps-nan", ("generate", "random-vertex-subset", "--n", "4",
                        "--eps", "nan"), "config", ""),
    ("subset-count-negative", ("generate", "random-vertex-subset", "--n", "4",
                               "--count", "-1"), "config", ""),
    ("alesker-eps-nan", ("verify", "alesker", "--n", "6", "--eps", "nan"),
     "config", ""),
]


@pytest.mark.parametrize("command,flag,text", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_exits_two(command, flag, text, tmp_path, capsys):
    path = tmp_path / "bad"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    assert run(*command, f"--{flag}", str(path)) == EXIT_INPUT
    assert "input error:" in capsys.readouterr().err


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)
_numbers = st.integers(-3, 3) | st.floats()
_points = st.lists(st.lists(_numbers, max_size=3), max_size=6)
_instance = st.fixed_dictionaries(
    {"dimension": st.integers(-1, 3) | _json, "points": _points | _json},
    optional={"p": st.floats(0, 2) | _json, "label": _json})


@st.composite
def _lp_ball(draw):
    """Signed-basis files, the shape that takes the closed-form gauge."""
    n = draw(st.integers(1, 3))
    eye = np.eye(n)
    return {"dimension": n, "points": np.vstack([eye, -eye]).tolist(),
            "p": draw(_numbers)}


# the subsample size m of run cube-quotient and verify main grows with the
# square of the largest coordinate; cube.MAX_SUBSAMPLE keeps the largest
# accepted file near 20 s and makes any larger one an input error
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=_json | _instance | _lp_ball(),
       command=st.sampled_from([("verify", "delta"),
                                ("verify", "pconv", "--samples", "5"),
                                ("run", "cube-quotient"), ("verify", "main")]))
def test_fuzzed_input_file_never_crashes(obj, command, tmp_path):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(obj))
    assert run(*command, "--input", str(path)) in (
        EXIT_PASS, EXIT_FAIL, EXIT_INPUT, EXIT_NUMERIC, EXIT_BUDGET)


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_cli_lines_parse():
    """Every `geomhull ...` line of the README's CLI block uses live flags."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    lines = [line for line in block.split("```")[1].splitlines()
             if line.startswith("geomhull ")]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except InputError as exc:
            pytest.fail(f"{line}: {exc}")


def console(*argv):
    """`python -m geomhull.cli argv`: main(None), which reads sys.argv."""
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "geomhull.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


class TestConsole:
    def test_calibrate_reads_its_own_file(self, tmp_path):
        calfile = tmp_path / "cal.cfg"
        done = console("calibrate", "--const.c1", "0.0625",
                       "--out", str(calfile))
        assert done.returncode == EXIT_PASS
        assert calfile.read_text().splitlines()[0].startswith("c=")
        done = console("calibrate", "--config", str(calfile))
        assert done.returncode == EXIT_PASS
        want = dict(Calibration().as_dict(), c1=0.0625)
        assert json.loads(done.stdout)["calibration"] == want

    def test_config_file_not_utf8_is_an_input_error(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_bytes(b"\xff\xfe\x00seed=1\n")
        done = console("verify", "counting", "--config", str(cfgfile))
        assert done.returncode == EXIT_INPUT
        assert done.stderr.startswith("input error:")

    def test_flag_mistake_is_an_input_error(self):
        done = console("verify", "counting", "--seed", "abc")
        assert done.returncode == EXIT_INPUT
        assert done.stderr.startswith("input error:")
