"""Acceptance gate: one test per published criterion, at the stated
tolerances and runtime budgets.  Each test prints a single pass/fail line.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from geomhull import balance, bodies, cli, cube, dvoretzky, hulls


def _line(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


class _Clock:
    def __init__(self, limit):
        self.limit = limit
        self.start = time.monotonic()

    @property
    def elapsed(self):
        return time.monotonic() - self.start

    def ok(self):
        return self.elapsed <= self.limit


def _circle(k):
    angles = np.linspace(0.0, 2.0 * math.pi, k + 1)[:-1]
    return bodies.GeneratingSet(
        2, np.column_stack([np.cos(angles), np.sin(angles)]))


def test_criterion_01_delta_exactness():
    clock = _Clock(10.0)
    worst_rel = 0.0
    for p in (0.5, 0.75):
        for n in range(2, 9):
            body = bodies.lp_ball_body(n, p)
            expected = float(n) ** (1.0 / p - 1.0)
            analytic = bodies.delta_nonconvexity(body, method="analytic")
            assert abs(analytic - expected) <= 1e-12
            search = bodies.delta_nonconvexity(body, method="search", seed=0)
            worst_rel = max(worst_rel, abs(search - expected) / expected)
    ok = worst_rel <= 1e-3 and clock.ok()
    _line(1, ok, f"search within {worst_rel:.2e}, {clock.elapsed:.1f}s")


def test_criterion_02_pconv_monte_carlo():
    clock = _Clock(30.0)
    worst = 0.0
    for p in (0.5, 0.75):
        body = bodies.lp_ball_body(3, p)
        for theta in (0.5, 0.9):
            result = hulls.verify_pconv_contraction(body, theta,
                                                    samples=10 ** 4, seed=0)
            assert result["pass"], (p, theta)
            worst = max(worst, result["max_ratio"])
    ok = worst <= 1.0 + 1e-6 and clock.ok()
    _line(2, ok, f"max gauge/bound ratio {worst:.6f}, {clock.elapsed:.1f}s")


def test_criterion_03_approx2_transform():
    clock = _Clock(10.0)
    S = _circle(8)
    theta = 0.75
    rng = np.random.default_rng(3)
    worst_scale, worst_err = 0.0, 0.0
    for trial in range(100):
        m = int(rng.choice([2, 3, 5]))
        lams, levels, gens, alphas = [], [], [], []  # one entry per slot
        for level in range(6):
            idx = rng.integers(0, S.count, size=m)
            levels += [level] * m
            gens += idx.tolist()
            alphas += [rng.uniform(-1, 1) for _ in idx]
            lams.append(float(rng.uniform(-1, 1)))
        rep, scale = hulls.approx2_transform(
            theta, m, lams, (levels, gens, [1] * len(gens), alphas))
        worst_scale = max(worst_scale, scale)
        outer = np.zeros(S.dimension)  # the series over averages, slotwise
        for level, gen, alpha in zip(levels, gens, alphas):
            outer += (1.0 - theta) * theta ** level * lams[level] * alpha / m \
                * S.points[gen]
        err = float(np.linalg.norm(scale * rep.evaluate(S) - outer))
        worst_err = max(worst_err, err)
    ok = worst_scale <= 1.2 + 1e-12 and worst_err <= 1e-10 and clock.ok()
    _line(3, ok, f"scale {worst_scale:.6f}, reconstruction {worst_err:.2e}, "
                 f"{clock.elapsed:.1f}s")


def test_criterion_04_type1_pipeline():
    clock = _Clock(60.0)
    S = _circle(64)
    rng = np.random.default_rng(4)
    theta = 0.5
    worst_err, worst_defect = 0.0, 0.0
    for trial in range(100):
        w = rng.dirichlet(np.ones(64)) * rng.uniform(0.1, 1.0)
        signs = rng.choice([-1.0, 1.0], size=64)
        x = (signs * w) @ S.points
        trace = []
        rep, scale = balance.type1_represent(S, theta, 4, x, trace=trace)
        err = float(np.linalg.norm(scale * rep.evaluate(S) - x))
        worst_err = max(worst_err, err)
        for rec in trace:
            bound = 1.0 / math.sqrt(rec["input_terms"])
            worst_defect = max(worst_defect, rec["defect"] / bound)
    ok = worst_err <= 1e-6 and worst_defect <= 1.0 + 1e-9 and clock.ok()
    _line(4, ok, f"reconstruction {worst_err:.2e}, defect/bound "
                 f"{worst_defect:.3f}, {clock.elapsed:.1f}s")


def test_criterion_05_chain_exact_certificates():
    clock = _Clock(300.0)
    rng = np.random.default_rng(5)
    n, eps = 10, 0.5
    sigma_sizes = []
    for trial in range(20):
        masks = rng.choice(2 ** n, size=2 ** 9, replace=False)
        V = cube.VertexSet(n, frozenset(int(m) for m in masks))
        chain = cube.alesker_chain(V, eps, density_c=0.2)
        levels = chain.levels
        S = cube.vertex_generating_set(V)
        certs = cube.chain_cube_certificate(chain, S)
        want_a, want_b = cube.chain_constants(levels)
        assert (certs.scale, certs.m) == (want_a, want_b)
        for k in range(levels + 1):   # closed forms at every level
            assert cube.chain_constants(k) == (2 ** (k + 1) - 1,
                                               2 * 4 ** k - 2 ** k)
        sigma = chain.sigma[-1]
        sigma_sizes.append(len(sigma))
        assert len(certs.certificates) == 2 ** len(sigma)
        # independent exact rational recheck of every table entry
        weight = 1 << levels
        for pattern, combo in chain.rep_table.items():
            slots = 0
            for member, coef in combo.items():
                assert member in V.members
                scaled = abs(coef) * weight
                slots += -(-scaled.numerator // scaled.denominator)
            assert slots <= want_b
            for pos, coord in enumerate(sigma):
                total = Fraction(0)
                for member, coef in combo.items():
                    total += coef * (-1 if (member >> coord) & 1 else 1)
                assert total == pattern[pos]
    min_sigma = min(sigma_sizes)
    ok = min_sigma >= 5 and clock.ok()
    _line(5, ok, f"20 subsets, min |sigma| {min_sigma}, "
                 f"{clock.elapsed:.1f}s")


def test_criterion_06_counting_bound():
    clock = _Clock(30.0)
    rng = np.random.default_rng(6)
    checked = 0
    for n in range(3, 11):
        for k in (n - 1, n - 2):
            if k < 1:
                continue
            bound = 2.0 ** n / (2.0 ** (n - k) * math.comb(n, k))
            schemes = []
            fixed = frozenset(range(k))
            schemes.append({m: fixed for m in range(2 ** n)})
            tail = frozenset(range(n - k, n))
            schemes.append({m: (fixed if m % 2 == 0 else tail)
                            for m in range(2 ** n)})
            for _ in range(3):
                schemes.append(
                    {m: frozenset(int(c) for c in
                                  rng.choice(n, size=k, replace=False))
                     for m in range(2 ** n)})
            for candidates in schemes:
                tau, T, _ = cube.counting_select(candidates, k)
                assert T.count >= bound - 1e-9, (n, k, T.count, bound)
                checked += 1
    ok = clock.ok()
    _line(6, ok, f"{checked} covering maps, bound held, "
                 f"{clock.elapsed:.1f}s")


def _noisy_cube_instance(seed=11, noise=50, d=2.0):
    n = 10
    verts = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
    rng = np.random.default_rng(seed)
    extra = rng.standard_normal((noise, n))
    extra *= d / np.abs(extra).max()
    return bodies.GeneratingSet(n, np.vstack([verts, extra]),
                                label="cube-plus-noise")


def test_criterion_07_cube_quotient_end_to_end():
    clock = _Clock(600.0)
    S = _noisy_cube_instance()
    report = cube.cube_quotient(S, 0.5, seed=11, queries=200)
    # the proved per-vertex fit bound, against Maurey's 4 n d^2 / m
    fit = report.vertex_fit
    used = report.constants_used
    allowance = 4 * used["n"] * used["d"] ** 2 / used["m"]
    ok = (len(report.sigma) >= 5
          and report.verified_fraction >= 0.99
          and fit["error_max"] <= fit["bound_max"] + 1e-12
          and fit["bound_max"] ** 2 <= allowance
          and clock.ok())
    _line(7, ok, f"|sigma| {len(report.sigma)}, verified "
                 f"{report.verified_fraction:.3f}, vertex fit "
                 f"{fit['error_max']:.3e} <= {fit['bound_max']:.3e}, "
                 f"{clock.elapsed:.1f}s")


def test_criterion_08_l1_operator_image():
    clock = _Clock(5.0)
    for k in (1, 2):
        m = 2 ** (2 * k - 1)
        T = cube.l1_to_cube_operator(m, k)
        cols = bodies.GeneratingSet(2 * k, T.T, label="columns")
        assert np.abs(T).max() <= 1.0       # image inside the cube
        for vertex in itertools.product([-1.0, 1.0], repeat=2 * k):
            cert = bodies.envelope_gauge(cols, np.array(vertex))
            assert abs(cert.value - 1.0) <= 1e-9, (k, vertex, cert.value)
    ok = clock.ok()
    _line(8, ok, f"k in {{1,2}}: cube vertices at LP gauge 1, "
                 f"{clock.elapsed:.1f}s")


def test_criterion_09_dvoretzky_search_and_represent():
    clock = _Clock(120.0)
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((500, 40))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    S = bodies.GeneratingSet(40, pts, label="sphere-sample")
    result = dvoretzky.dvoretzky_search(S, k=3, eta=0.2, trials=200,
                                        seed=123)
    eta_real = result.ellipticity - 1.0
    proj = bodies.GeneratingSet(3, S.points @ result.projection_matrix.T)
    E = result.ellipsoid
    theta = 0.5
    Minv = np.linalg.inv(E.shape_matrix / E.scale)
    L = np.linalg.cholesky(Minv)
    rng2 = np.random.default_rng(99)
    failures = 0
    for _ in range(100):
        u = rng2.standard_normal(3)
        u /= np.linalg.norm(u)
        r = rng2.uniform(0, 1) ** (1.0 / 3.0)
        y = (1 - theta) * r * (L @ u)
        try:
            rep = dvoretzky.ellipsoid_gamma_represent(
                proj, E, theta, y, tolerance=1e-9, eta=eta_real)
            if np.linalg.norm(rep.evaluate(proj) - y) > 1e-7:
                failures += 1
        except Exception:
            failures += 1
    ok = result.ellipticity <= 1.2 and failures == 0 and clock.ok()
    _line(9, ok, f"ellipticity {result.ellipticity:.4f} <= 1.2, "
                 f"{failures}/100 representation failures, "
                 f"{clock.elapsed:.1f}s")


def _zonogon_member(S, mult, m, x, tol=1e-9):
    for sx, sy in S.points:
        u = np.array([-sy, sx])
        if abs(u @ x) > (mult / m * np.abs(S.points @ u)).sum() + tol:
            return False
    return True


def test_criterion_10_delta_m_oracle_equivalence():
    clock = _Clock(60.0)
    angles = [0.37, 1.91, 3.85, 5.2]
    S = bodies.GeneratingSet(
        2, np.array([[math.cos(a), math.sin(a)] for a in angles]))
    grid = np.linspace(-1.4, 1.4, 21)
    disagreements = 0
    checked = 0
    for m in (1, 2, 3, 4):
        vectors = [np.array(v, dtype=float)
                   for v in itertools.product(range(m + 1), repeat=4)
                   if sum(v) <= m]
        for gx in grid:
            for gy in grid:
                x = np.array([gx, gy])
                want = any(_zonogon_member(S, v, m, x) for v in vectors)
                verdict = hulls.delta_m_membership(S, m, x)
                assert verdict.status in ("member", "non-member")
                got = verdict.status == "member"
                if got != want:
                    disagreements += 1
                if got:
                    err = np.linalg.norm(verdict.certificate.evaluate(S) - x)
                    assert err <= 1e-7
                checked += 1
    ok = disagreements == 0 and clock.ok()
    _line(10, ok, f"{checked} grid points x m-values, "
                  f"{disagreements} disagreements, {clock.elapsed:.1f}s")


def test_criterion_11_reproducibility(tmp_path):
    clock = _Clock(120.0)
    runs = []

    lp = str(tmp_path / "lp.json")
    cli.main(["generate", "lp-ball", "--n", "4", "--p", "0.5", "--out", lp])
    cb = str(tmp_path / "cube.json")
    cli.main(["generate", "cube-vertices", "--n", "4", "--p", "1.0",
              "--out", cb])
    sph = str(tmp_path / "sph.json")
    cli.main(["generate", "sphere-sample", "--n", "8", "--count", "40",
              "--seed", "3", "--out", sph])

    runs.append(("generate", ["generate", "random-vertex-subset", "--n", "8",
                              "--eps", "0.5", "--seed", "5"]))
    runs.append(("cube-quotient", ["run", "cube-quotient", "--input", cb,
                                   "--eps", "0.5", "--seed", "9",
                                   "--queries", "6"]))
    runs.append(("pnormed-quotient", ["run", "pnormed-quotient", "--input",
                                      cb, "--eps", "0.5", "--seed", "2",
                                      "--queries", "4"]))
    runs.append(("cubic-from-delta", ["run", "cubic-from-delta", "--input",
                                      lp, "--coords", "0,1,2,3", "--seed",
                                      "2", "--queries", "4"]))
    runs.append(("dvoretzky-search", ["run", "dvoretzky-search", "--input",
                                      sph, "--k", "2", "--eta", "0.3",
                                      "--trials", "3", "--seed", "4"]))
    runs.append(("verify-main", ["verify", "main", "--input", cb,
                                 "--queries", "4", "--seed", "1"]))

    mismatched = []
    for name, argv in runs:
        a = str(tmp_path / f"{name}-a.out")
        b = str(tmp_path / f"{name}-b.out")
        assert cli.main(argv + ["--out", a]) == 0, name
        assert cli.main(argv + ["--out", b]) == 0, name
        if open(a, "rb").read() != open(b, "rb").read():
            mismatched.append(name)
    ok = not mismatched and clock.ok()
    _line(11, ok, f"{len(runs)} pipelines byte-identical"
                  + (f", mismatches: {mismatched}" if mismatched else "")
                  + f", {clock.elapsed:.1f}s")
