"""Command line entry point.

Four subcommands: `generate` writes generating-set instances, `verify` runs a
named verification suite and exits 0 only on pass, `run` executes a pipeline
and writes its report, `calibrate` manages the record of tunable constants.
Reports are deterministic functions of config + seed, so identical invocations
produce byte-identical files.  Calibrated constants always appear under a
"calibration" key, separate from formula targets; a passing run certifies the
emitted certificates, not the constants.

Exit codes: 0 pass, 1 verification failure, 2 bad input, 3 numerical or phase
failure, 4 out of memory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import fields, is_dataclass

import numpy as np

from . import __version__
from .balance import type1_represent
from .bodies import (GeneratingSet, PBody, delta_nonconvexity, fmt17,
                     generating_set_to_json, lp_ball_body,
                     load_generating_set_json)
from .cube import (Calibration, VertexSet, alesker_chain, chain_constants,
                   chain_cube_certificate, counting_select, cube_quotient,
                   cubic_quotient_from_nonconvexity, density_threshold,
                   pnormed_quotient, vertex_generating_set,
                   vertex_set_from_generating_set)
from .dvoretzky import dvoretzky_search, ellipsoid_gamma_represent
from .errors import ContractionError, InputError, NumericalError, PhaseError
from .hulls import approx2_transform, verify_pconv_contraction

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_BUDGET = 4

CONST_NAMES = tuple(f.name for f in fields(Calibration))


def read_config_file(path):
    """Flat key=value lines, values as text; # starts a comment; later keys win."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc})") from None
    return out


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _plain(obj):
    """obj as plain JSON values: a dataclass's public fields, str keys, lists
    for tuples and arrays, Python numbers for numpy scalars; bools stay bools."""
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)
                if not f.name.startswith("_")}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):   # before int: bool is an int
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _json_text(payload):
    return json.dumps(_plain(payload), sort_keys=True, indent=2) + "\n"


def _csv_text(rows):
    keys = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n",
                            restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: fmt17(v) if isinstance(v, float) else v
                         for k, v in row.items()})
    return buf.getvalue()


def emit(payload, rows, cfg):
    """Write the JSON payload or its CSV flattening to --out or stdout."""
    _write(_csv_text(rows) if cfg.format == "csv" else _json_text(payload),
           cfg)


def _write(text, cfg):
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _loaded_input(cfg):
    if not cfg.input:
        raise InputError(f"{cfg.command} {cfg.target} needs --input")
    return load_generating_set_json(cfg.input)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _sample_vertex_subset(n, count, cfg):
    """`count` distinct vertices of the n-cube drawn with cfg.seed; with
    count None, the fewest that are dense at the calibrated c and cfg.eps."""
    if n < 1 or n > 16:
        raise InputError("vertex sampling needs dimension 1..16")
    if count is None:
        count = math.ceil(density_threshold(n, cfg.calibration.c, cfg.eps))
    if count > 2 ** n:
        raise InputError(f"cannot draw {count} distinct vertices from "
                         f"{2 ** n}")
    rng = np.random.default_rng(cfg.seed)
    masks = rng.choice(2 ** n, size=count, replace=False)
    return VertexSet(n, frozenset(int(m) for m in masks))


def _sphere_sample(n, count, rng):
    """count points drawn uniformly from the unit sphere of R^n."""
    if n < 1 or count < 1:
        raise InputError("a sphere sample needs n >= 1 and count >= 1")
    pts = rng.standard_normal((count, n))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    if norms.min() < 1e-12:
        raise NumericalError("degenerate sphere sample")
    return GeneratingSet(n, pts / norms, label="sphere-sample")


def _circle(k):
    """The k unit vectors at angles 2 pi j / k in the plane."""
    angles = np.linspace(0.0, 2.0 * math.pi, k + 1)[:-1]
    return GeneratingSet(2, np.column_stack([np.cos(angles), np.sin(angles)]),
                         label=f"circle-{k}")


def cmd_generate(cfg):
    kind = cfg.target
    if kind == "lp-ball":
        if cfg.n is None or cfg.p is None:
            raise InputError("lp-ball needs --n and --p")
        body = lp_ball_body(cfg.n, cfg.p)
        S, p = body.generators, body.p
    elif kind == "cube-vertices":
        if cfg.n is None:
            raise InputError("cube-vertices needs --n")
        if cfg.n > 14:
            raise InputError("cube-vertices capped at dimension 14")
        S = vertex_generating_set(VertexSet.full(cfg.n), label="cube-vertices")
        p = cfg.p
    elif kind == "random-vertex-subset":
        if cfg.n is None:
            raise InputError("random-vertex-subset needs --n")
        V = _sample_vertex_subset(cfg.n, cfg.count, cfg)
        S = vertex_generating_set(V, label="random-vertex-subset")
        p = cfg.p
    elif kind == "sphere-sample":
        if cfg.n is None:
            raise InputError("sphere-sample needs --n")
        count = cfg.count if cfg.count is not None else 10 * cfg.n
        S = _sphere_sample(cfg.n, count, np.random.default_rng(cfg.seed))
        p = cfg.p
    else:
        raise InputError(f"unknown generate kind {kind!r}")
    if cfg.format == "csv":
        rows = []
        for i, row in enumerate(S.points):
            rec = {"index": i}
            rec.update({f"x{j}": float(v) for j, v in enumerate(row)})
            if p is not None:
                rec["p"] = float(p)
            rows.append(rec)
        emit(None, rows, cfg)
    else:
        _write(generating_set_to_json(S, p=p), cfg)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _finish_verify(report, cfg, rows=None):
    report.setdefault("seed", cfg.seed)
    report["calibration"] = cfg.calibration.as_dict()
    emit(report, rows if rows is not None else [
        {"lemma": report.get("lemma", cfg.target),
         "pass": report["pass"]}], cfg)
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def verify_delta(cfg):
    S, p = _loaded_input(cfg)
    if p is None:
        raise InputError("delta verification needs a generating set with p")
    body = PBody(S, p)
    if body.analytic_kind != "lp_ball":
        raise InputError("delta verification expects the signed basis vectors")
    expected = delta_nonconvexity(body, method="analytic")
    realized = {"analytic": expected,
                "search": delta_nonconvexity(body, method="search",
                                             seed=cfg.seed)}
    report = {
        "lemma": "delta",
        "constants": {"n": S.dimension, "p": p},
        "target": {"delta": expected},
        "realized": realized,
        "pass": bool(realized["search"] >= expected * (1 - 1e-3) - cfg.tol),
    }
    return _finish_verify(report, cfg)


def verify_pconv(cfg):
    if cfg.input:
        S, p = _loaded_input(cfg)
        if p is None:
            raise InputError("pconv verification needs a generating set with p")
        body = PBody(S, p)
    else:
        # no instance file: check the signed basis in dimension n (default 3)
        if cfg.p is None:
            raise InputError("verify pconv needs --input or --p")
        body = lp_ball_body(cfg.n if cfg.n is not None else 3, cfg.p)
    result = verify_pconv_contraction(body, cfg.theta, samples=cfg.samples,
                                      seed=cfg.seed)
    report = {
        "lemma": "pconv",
        "constants": result["params"],
        "target": {"bound": result["bound"]},
        "realized": {"max_ratio": result["max_ratio"],
                     "samples": result["samples"]},
        "pass": result["pass"],
    }
    return _finish_verify(report, cfg)


def _random_hull_element(S, m, depth, rng):
    """lambdas and level-tagged rows (levels, generators, multiplicities,
    alphas) of a random series over m-term averages, one entry a slot."""
    levels, gens, alphas, lams = [], [], [], []
    for level in range(depth):
        levels += [level] * m
        gens += rng.integers(0, S.count, size=m).tolist()
        alphas += rng.uniform(-1.0, 1.0, size=m).tolist()
        lams.append(rng.uniform(-1.0, 1.0))
    return lams, (levels, gens, [1] * len(gens), alphas)


def verify_approx2(cfg):
    if cfg.input:
        S, _ = _loaded_input(cfg)
    else:
        S = _circle(8)
    theta = cfg.theta
    rng = np.random.default_rng(cfg.seed)
    worst_scale, worst_err, samples = 0.0, 0.0, []
    for t in range(cfg.trials):
        m = int(rng.choice([2, 3, 5]))
        lams, rows = _random_hull_element(S, m, depth=6, rng=rng)
        rep, scale = approx2_transform(theta, m, lams, rows)
        # the series over averages, summed slot by slot as stated
        levels, gens, _, alphas = rows
        want = np.zeros(S.dimension)
        for level, gen, alpha in zip(levels, gens, alphas):
            want += ((1.0 - theta) * theta ** level * lams[level] * alpha / m
                     * S.points[gen])
        err = float(np.linalg.norm(scale * rep.evaluate(S) - want))
        worst_scale = max(worst_scale, scale)
        worst_err = max(worst_err, err)
        samples.append({"trial": t, "m": m, "scale": scale, "error": err})
    report = {
        "lemma": "approx2",
        "constants": {"theta": theta, "trials": cfg.trials},
        "target": {"scale_max": 1.2},
        "realized": {"scale_max": worst_scale, "reconstruction_max": worst_err},
        "pass": bool(worst_scale <= 1.2 + 1e-12 and worst_err <= cfg.tol),
    }
    return _finish_verify(report, cfg, rows=samples)


def verify_type1(cfg):
    if cfg.input:
        S, _ = _loaded_input(cfg)
    else:
        S = _circle(32)
    theta, m = cfg.theta, cfg.m
    rng = np.random.default_rng(cfg.seed)
    # greedy_signs bounds a halving's defect by max ||s_i|| / sqrt(N)
    widest = float(np.linalg.norm(S.points, axis=1).max())
    worst_err, worst_defect_ratio, samples = 0.0, 0.0, []
    for t in range(cfg.trials):
        w = rng.dirichlet(np.ones(S.count)) * rng.uniform(0.2, 1.0)
        signs = rng.choice([-1.0, 1.0], size=S.count)
        x = (signs * w) @ S.points
        trace = []
        rep, scale = type1_represent(S, theta, m, x, trace=trace)
        err = float(np.linalg.norm(scale * rep.evaluate(S) - x))
        for rec in trace:
            bound = widest / math.sqrt(rec["input_terms"])
            worst_defect_ratio = max(worst_defect_ratio,
                                     rec["defect"] / bound)
        worst_err = max(worst_err, err)
        samples.append({"trial": t, "scale": scale, "error": err})
    report = {
        "lemma": "type1",
        "constants": {"theta": theta, "m": m, "trials": cfg.trials},
        "target": {"reconstruction": cfg.tol, "defect_ratio": 1.0},
        "realized": {"reconstruction_max": worst_err,
                     "defect_ratio_max": worst_defect_ratio},
        "pass": bool(worst_err <= cfg.tol
                     and worst_defect_ratio <= 1.0 + 1e-9),
    }
    return _finish_verify(report, cfg, rows=samples)


def verify_alesker(cfg):
    if cfg.input:
        S, _ = _loaded_input(cfg)
        V = vertex_set_from_generating_set(S)
    else:
        n = cfg.n if cfg.n is not None else 10
        V = _sample_vertex_subset(n, None, cfg)
        S = vertex_generating_set(V, label="random-vertex-subset")
    chain = alesker_chain(V, cfg.eps, density_c=cfg.calibration.c)
    certs = chain_cube_certificate(chain, S, C=cfg.calibration.C)
    levels = len(chain.sigma) - 1
    want_a, want_b = chain_constants(levels)
    sigma = list(chain.sigma[-1])
    replayed = 0  # certificates that re-check from their rows alone
    for pattern, (gens, mult, alphas) in certs.certificates.items():
        mult, alphas = np.asarray(mult), np.asarray(alphas)
        on_sigma = S.points[np.ix_(gens, sigma)]
        value = certs.scale * (on_sigma.T @ alphas) / certs.m
        replayed += bool((mult >= 0).all() and mult.sum() <= certs.m
                         and (np.abs(alphas) <= mult).all()
                         and np.abs(value - np.array(pattern)).max() <= 1e-9)
    report = {
        "lemma": "alesker",
        "constants": {
            "n": V.n, "members": V.count, "epsilon": cfg.eps,
            "levels": levels, "scale": certs.scale, "m": certs.m,
            "sigma_size": len(chain.sigma[-1]),
        },
        "target": {"scale": want_a, "m": want_b,
                   "scale_budget": certs.scale_target,
                   "m_budget": certs.m_target},
        "realized": {"vertices_certified": len(certs.certificates),
                     "calibration_ok": certs.calibration_ok},
        "pass": bool(replayed == len(certs.certificates) == 2 ** len(sigma)),
    }
    return _finish_verify(report, cfg)


def verify_counting(cfg):
    n = cfg.n if cfg.n is not None else 8
    if not 3 <= n <= 12:   # both subset sizes n - 1 and n - 2 must be positive
        raise InputError("counting verification needs dimension 3..12")
    rng = np.random.default_rng(cfg.seed)
    samples = []
    ok = True
    for k in (n - 1, n - 2):
        candidates = {}
        for mask in range(2 ** n):
            coords = rng.choice(n, size=k, replace=False)
            candidates[mask] = frozenset(int(c) for c in coords)
        tau, T, _ = counting_select(candidates, k)
        bound = 2.0 ** n / (2.0 ** (n - k) * math.comb(n, k))
        ratio = T.count / bound
        ok = ok and T.count >= bound - 1e-9
        samples.append({"n": n, "k": k, "selected": T.count,
                        "bound": bound, "ratio": ratio})
    report = {
        "lemma": "counting",
        "constants": {"n": n},
        "target": {"ratio_min": 1.0},
        "realized": {"cases": samples},
        "pass": bool(ok),
    }
    return _finish_verify(report, cfg, rows=samples)


def verify_main(cfg):
    S, _ = _loaded_input(cfg)
    report_obj = cube_quotient(S, cfg.eps, calibration=cfg.calibration,
                               seed=cfg.seed, queries=cfg.queries,
                               query_tolerance=cfg.tol)
    ok = report_obj.verified_fraction >= 0.99
    report = {
        "lemma": "main",
        "constants": {
            "epsilon": cfg.eps, "sigma": report_obj.sigma,
            "m": report_obj.flat_m, "chain_levels": report_obj.chain_levels,
        },
        "target": {"verified_fraction": 0.99,
                   "theta_formula": report_obj.theta_formula},
        "realized": {"verified_fraction": report_obj.verified_fraction,
                     "theta": report_obj.theta,
                     "C_over_eps": report_obj.C_over_eps,
                     "vertex_fit": report_obj.vertex_fit},
        "report": report_obj,
        "pass": bool(ok),
    }
    rows = [{"record": "query", "index": i,
             "residual": q["residual"], "verified": q["verified"]}
            for i, q in enumerate(report_obj.certificates)]
    return _finish_verify(report, cfg, rows=rows)


def verify_dvoretzky(cfg):
    if cfg.input:
        S, _ = _loaded_input(cfg)
    else:
        S = _sphere_sample(cfg.n if cfg.n is not None else 40,
                           cfg.count if cfg.count is not None else 500,
                           np.random.default_rng(cfg.seed + 1))
    k = cfg.k
    result = dvoretzky_search(S, k, cfg.eta, cfg.trials, cfg.seed)
    eta_real = result.ellipticity - 1.0
    theta = 0.5
    proj = GeneratingSet(k, S.points @ result.projection_matrix.T,
                         label="projected")
    rng = np.random.default_rng(cfg.seed + 2)
    Minv = np.linalg.inv(result.ellipsoid.shape_matrix
                         / result.ellipsoid.scale)
    L = np.linalg.cholesky(Minv)
    rep_fail = 0
    n_rep = 20
    for _ in range(n_rep):
        u = rng.standard_normal(k)
        u /= np.linalg.norm(u)
        y = (1 - theta) * rng.uniform(0, 1) ** (1.0 / k) * (L @ u)
        try:
            ellipsoid_gamma_represent(proj, result.ellipsoid, theta, y,
                                      eta=max(eta_real, 1e-9))
        except ContractionError:
            rep_fail += 1
    report = {
        "lemma": "dvoretzky",
        "constants": {"k": k, "trials": cfg.trials, "eta": cfg.eta,
                      "theta": theta},
        "target": {"ellipticity": 1.0 + cfg.eta, "representation_failures": 0},
        "realized": {"ellipticity": result.ellipticity,
                     "winning_trial": result.trial,
                     "representation_failures": rep_fail,
                     "representation_samples": n_rep},
        "pass": bool(result.success and rep_fail == 0),
    }
    return _finish_verify(report, cfg)


VERIFIERS = {
    "pconv": verify_pconv,
    "approx2": verify_approx2,
    "type1": verify_type1,
    "alesker": verify_alesker,
    "counting": verify_counting,
    "main": verify_main,
    "dvoretzky": verify_dvoretzky,
    "delta": verify_delta,
}


def cmd_verify(cfg):
    return VERIFIERS[cfg.target](cfg)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _quotient_rows(report):
    rows = []
    for pattern in sorted(report.vertex_certificates):
        cert = report.vertex_certificates[pattern]
        rows.append({"record": "vertex-certificate", "key": pattern,
                     "m": cert["m"], "entries": len(cert["entries"]),
                     "scale": cert["scale"],
                     "snap_residual": cert["snap_residual"]})
    for i, q in enumerate(report.certificates):
        rows.append({"record": "query", "key": i, "residual": q["residual"],
                     "verified": q["verified"], "terms": q["terms"]})
    return rows


def run_cube_quotient(cfg):
    S, _ = _loaded_input(cfg)
    report = cube_quotient(S, cfg.eps, calibration=cfg.calibration,
                           seed=cfg.seed, queries=cfg.queries,
                           query_tolerance=cfg.tol)
    emit(report, _quotient_rows(report), cfg)
    return EXIT_PASS


def run_pnormed_quotient(cfg):
    S, p = _loaded_input(cfg)
    if p is None:
        raise InputError("pnormed-quotient needs a generating set with p")
    body = PBody(S, p)
    report, distance = pnormed_quotient(body, cfg.eps,
                                        calibration=cfg.calibration,
                                        seed=cfg.seed, queries=cfg.queries,
                                        query_tolerance=cfg.tol)
    rows = _quotient_rows(report)
    rows.append({"record": "distance", **distance})
    emit({"quotient": report, "distance": distance}, rows, cfg)
    return EXIT_PASS


def run_cubic_from_delta(cfg):
    S, p = _loaded_input(cfg)
    if p is None:
        raise InputError("cubic-from-delta needs a generating set with p")
    if cfg.coords is None:
        raise InputError("cubic-from-delta needs --coords i,j,...")
    try:
        coords = [int(t) for t in cfg.coords.split(",") if t.strip()]
    except ValueError:
        raise InputError(f"bad coordinate list {cfg.coords!r}")
    body = PBody(S, p)
    report, summary = cubic_quotient_from_nonconvexity(
        body, coords, calibration=cfg.calibration, seed=cfg.seed,
        queries=cfg.queries, query_tolerance=cfg.tol)
    rows = _quotient_rows(report)
    rows.append({"record": "summary", **{k: ("" if v is None else v)
                                         for k, v in summary.items()}})
    emit({"quotient": report, "summary": summary}, rows, cfg)
    return EXIT_PASS


def run_dvoretzky_search(cfg):
    S, _ = _loaded_input(cfg)
    result = dvoretzky_search(S, cfg.k, cfg.eta, cfg.trials, cfg.seed)
    payload = _plain(result)
    payload["calibration"] = cfg.calibration.as_dict()
    rows = [{"record": "projection", "rank": result.rank,
             "ellipticity": result.ellipticity, "trial": result.trial,
             "success": result.success, "seed": result.seed}]
    emit(payload, rows, cfg)
    return EXIT_PASS


PIPELINES = {
    "cube-quotient": run_cube_quotient,
    "pnormed-quotient": run_pnormed_quotient,
    "cubic-from-delta": run_cubic_from_delta,
    "dvoretzky-search": run_dvoretzky_search,
}


def cmd_run(cfg):
    return PIPELINES[cfg.target](cfg)


def cmd_calibrate(cfg):
    record = cfg.calibration.as_dict()
    payload = {
        "calibration": record,
        "seed": cfg.seed,
        "note": "tunable constants; formula targets are reported separately",
    }
    if cfg.out:
        lines = [f"{name}={fmt17(record[name])}\n" for name in CONST_NAMES]
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    sys.stdout.write(_json_text(payload))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Exact flag names only, and a usage error is an InputError (exit 2)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise InputError(message)


def _above(low, kind=int):
    """An option type: a finite int (or float) above `low`."""
    def parse(text):
        if not low < kind(text) < math.inf:
            raise argparse.ArgumentTypeError(f"must be above {low}: {text}")
        return kind(text)
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _add_common(parser):
    """The one table of options: each flag's type, default and choices."""
    parser.add_argument("--config", help="flat key=value file of these flags")
    parser.add_argument("--seed", type=_above(-1), default=0)
    parser.add_argument("--input")
    parser.add_argument("--out")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--tol", type=_above(0, float), default=1e-6)
    parser.add_argument("--n", type=int)
    parser.add_argument("--p", type=float)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--m", type=int, default=4)
    parser.add_argument("--count", type=_above(0))
    parser.add_argument("--eps", type=_above(0, float), default=0.5)
    parser.add_argument("--theta", type=float, default=0.75)
    parser.add_argument("--eta", type=float, default=0.2)
    parser.add_argument("--trials", type=_above(0), default=64)
    parser.add_argument("--queries", type=_above(0), default=32)
    parser.add_argument("--samples", type=_above(0), default=1000)
    parser.add_argument("--coords")
    for name, value in Calibration().as_dict().items():
        parser.add_argument(f"--const.{name}", type=_above(0, float),
                            default=value, dest=f"const_{name}")


def build_parser():
    parser = _Parser(
        prog="geomhull",
        description="hull certificates, cube quotients, and projection search")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a generating-set instance")
    gen.add_argument("target", choices=("lp-ball", "cube-vertices",
                                        "random-vertex-subset",
                                        "sphere-sample"))
    _add_common(gen)
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("target", choices=tuple(VERIFIERS))
    _add_common(ver)
    ver.set_defaults(func=cmd_verify)

    run = sub.add_parser("run", help="execute a pipeline, write its report")
    run.add_argument("target", choices=tuple(PIPELINES))
    _add_common(run)
    run.set_defaults(func=cmd_run)

    cal = sub.add_parser("calibrate", help="print or write the constant record")
    cal.set_defaults(target="calibrate")
    _add_common(cal)
    cal.set_defaults(func=cmd_calibrate)
    return parser


def _parse(argv):
    """The flags of argv, with each line `key = value` of a --config file
    read as the flag --key=value (--const.key=value for a bare calibration
    name, the calibrate --out format) placed right after the subcommand
    word, so explicit flags win."""
    parser = build_parser()
    cfg = parser.parse_args(argv)
    if cfg.config:
        flags = []
        for key, value in read_config_file(cfg.config).items():
            if key == "config":
                raise InputError(f"{cfg.config}: a config file cannot name "
                                 "another")
            flags.append(f"--const.{key}={value}" if key in CONST_NAMES
                         else f"--{key}={value}")
        at = argv.index(cfg.command) + 1
        cfg = parser.parse_args(argv[:at] + flags + argv[at:])
    cfg.calibration = Calibration.from_mapping(
        {name: getattr(cfg, f"const_{name}") for name in CONST_NAMES})
    return cfg


def main(argv=None):
    try:
        cfg = _parse(sys.argv[1:] if argv is None else list(argv))
        return cfg.func(cfg)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NumericalError, PhaseError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
