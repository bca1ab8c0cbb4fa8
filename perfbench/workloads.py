"""The benchmark's four workloads and their independent output checks.

Each workload builds its instance from the seed, turns a request number into
one request's input, calls one public geomhull function per request, and
checks the output.  The checks use numpy and the standard library only and
never call the geomhull evaluate path they check.  `check` returns None for
an accepted output and a reason string for a rejected one; `corrupt` breaks
one output so the benchmark can show that `check` rejects it.  `tail_pct` is
the latency percentile reported as the tail: at the run length in
BENCHMARK.json it leaves at least ten samples beyond it, also when the
machine runs slow.
"""

from __future__ import annotations

import copy
import itertools
import math

import numpy as np

from geomhull import balance, bodies, cube, dvoretzky, hulls
from geomhull.bodies import fmt17


def _rng(seed, i):
    return np.random.default_rng([seed, i])


def _series_weights(terms, theta):
    """(1-theta) theta^level lambda for each (level, lambda, index) term."""
    arr = np.array(terms, dtype=float).reshape(-1, 3)
    levels = arr[:, 0].astype(np.int64)
    lams = arr[:, 1]
    idx = arr[:, 2].astype(np.int64)
    return levels, lams, idx, (1.0 - theta) * theta ** levels * lams


def _series_problem(rep, count):
    """Reason a representation's terms are malformed, or None."""
    levels, lams, idx, _ = _series_weights(rep.terms, rep.theta)
    if len(levels) and (np.diff(levels) <= 0).any():
        return "levels do not strictly increase"
    if (np.abs(lams) > 1 + 1e-12).any():
        return "|lambda| exceeds 1"
    if len(idx) and (idx.min() < 0 or idx.max() >= count):
        return "generator index out of range"
    return None


def _series_text(rep):
    return ";".join(f"{level},{fmt17(lam)},{idx}" for level, lam, idx in rep.terms)


def noisy_cube(seed, noise=50, d=2.0, n=10):
    """The 2^n cube vertices plus `noise` seeded points of sup-norm d."""
    verts = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
    extra = np.random.default_rng(seed).standard_normal((noise, n))
    extra *= d / np.abs(extra).max()
    return bodies.GeneratingSet(n, np.vstack([verts, extra]),
                                label="cube-plus-noise")


def circle(k):
    angles = np.linspace(0.0, 2.0 * math.pi, k + 1)[:-1]
    return bodies.GeneratingSet(
        2, np.column_stack([np.cos(angles), np.sin(angles)]))


class Quotient:
    """Queries against a built cube quotient of the noisy 10-cube."""

    main_layer = "hulls.approx2_transform"
    tail_pct = 98
    digest_requests = 60

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.S = noisy_cube(self.seed)
        self.report = cube.cube_quotient(self.S, 0.5, seed=self.seed, queries=32)

    def request(self, i):
        return _rng(self.seed, i).uniform(-1.0, 1.0, size=len(self.report.sigma))

    def call(self, x):
        return cube.represent_cube_point(self.report, self.S, x)

    def check(self, x, rep):
        problem = _series_problem(rep, self.S.count)
        if problem:
            return problem
        _, _, idx, weights = _series_weights(rep.terms, rep.theta)
        sigma = np.array(self.report.sigma, dtype=np.int64)
        achieved = self.report.C_over_eps * (weights @ self.S.points[idx][:, sigma])
        residual = float(np.linalg.norm(x - achieved))
        if not residual <= self.report.query_tolerance:
            return f"query residual {residual:.3e} exceeds the tolerance"
        return None

    def text(self, x, rep):
        return f"{_series_text(rep)}|{fmt17(rep.residual_norm)}"

    def corrupt(self, rep):
        """Flip the sign of the heaviest term's lambda."""
        *_, weights = _series_weights(rep.terms, rep.theta)
        j = int(np.argmax(np.abs(weights)))
        level, lam, idx = rep.terms[j]
        out = copy.copy(rep)
        out.terms = rep.terms[:j] + [(level, -lam, idx)] + rep.terms[j + 1:]
        return out


class Projection:
    """One random candidate projection of a 500-point sphere sample per request."""

    main_layer = "optim.mvee"
    tail_pct = 85
    digest_requests = 12

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        pts = np.random.default_rng(self.seed).standard_normal((500, 40))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        self.S = bodies.GeneratingSet(40, pts, label="sphere-sample")

    def request(self, i):
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def call(self, seed):
        return dvoretzky.dvoretzky_search(self.S, k=3, eta=0.2, trials=1,
                                          seed=seed)

    def check(self, seed, res):
        P = np.asarray(res.projection_matrix, dtype=float)
        if P.shape != (3, 40):
            return "projection has the wrong shape"
        if np.abs(P @ P.T - np.eye(3)).max() > 1e-10:
            return "projection rows are not orthonormal"
        M = np.asarray(res.ellipsoid.shape_matrix, dtype=float)
        scale = float(res.ellipsoid.scale)
        Y = self.S.points @ P.T
        reach = np.einsum("ij,jk,ik->i", Y, M, Y) / scale
        if reach.max() > 1.0 + 1e-7:
            return "a projected point lies outside the ellipsoid"
        if reach.max() < 1.0 - 1e-7:
            return "the ellipsoid touches no projected point"
        eigval, eigvec = np.linalg.eigh(M)
        if eigval.min() <= 0:
            return "ellipsoid shape matrix is not positive definite"
        dirs = np.vstack([eigvec.T, np.eye(3)])
        support = np.sqrt(scale * ((dirs @ eigvec) ** 2 / eigval).sum(axis=1))
        hull = np.abs(Y @ dirs.T).max(axis=0)
        ratio = max(1.0, float((support / hull).max()))
        if not (res.ellipticity >= 1.0 - 1e-9
                and ratio <= res.ellipticity * (1 + 1e-9)):
            return f"support ratio {ratio:.9g} exceeds the reported ellipticity"
        return None

    def text(self, seed, res):
        numbers = np.concatenate([res.projection_matrix.ravel(),
                                  res.ellipsoid.shape_matrix.ravel(),
                                  [res.ellipsoid.scale, res.ellipticity]])
        return ",".join(fmt17(v) for v in numbers)

    def corrupt(self, res):
        """Shrink the ellipsoid's scale so that it no longer encloses the points."""
        out = copy.copy(res)
        out.ellipsoid = copy.copy(res.ellipsoid)
        out.ellipsoid.scale = res.ellipsoid.scale * 0.9
        return out


class Type1:
    """Balanced type-1 representations of signed convex combinations on a 64-gon."""

    main_layer = "bodies.envelope_gauge"
    tail_pct = 97
    digest_requests = 40

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.S = circle(64)

    def request(self, i):
        rng = _rng(self.seed, i)
        w = rng.dirichlet(np.ones(64)) * rng.uniform(0.1, 1.0)
        signs = rng.choice([-1.0, 1.0], size=64)
        return (signs * w) @ self.S.points

    def call(self, x):
        trace = []
        rep, scale = balance.type1_represent(self.S, 0.5, 4, x, trace=trace)
        return rep, scale, trace

    def check(self, x, out):
        rep, scale, trace = out
        problem = _series_problem(rep, self.S.count)
        if problem:
            return problem
        _, _, idx, weights = _series_weights(rep.terms, rep.theta)
        err = float(np.linalg.norm(scale * (weights @ self.S.points[idx]) - x))
        if not err <= 1e-6:
            return f"reconstruction error {err:.3e} exceeds 1e-6"
        for rec in trace:
            if rec["defect"] > (1 + 1e-9) / math.sqrt(rec["input_terms"]):
                return f"halving defect {rec['defect']:.6g} exceeds 1/sqrt(N)"
        return None

    def text(self, x, out):
        rep, scale, trace = out
        defects = ",".join(fmt17(rec["defect"]) for rec in trace)
        return f"{_series_text(rep)}|{fmt17(scale)}|{defects}"

    def corrupt(self, out):
        """Drop the heaviest term of the representation."""
        rep, scale, trace = out
        *_, weights = _series_weights(rep.terms, rep.theta)
        drop = int(np.argmax(np.abs(weights)))
        dropped = copy.copy(rep)
        dropped.terms = rep.terms[:drop] + rep.terms[drop + 1:]
        return dropped, scale, trace


class Membership:
    """m-term average-hull verdicts for seeded points on four unit generators."""

    main_layer = "optim.solve_lp"
    tail_pct = 99.7
    digest_requests = 400
    angles = (0.37, 1.91, 3.85, 5.2)

    def __init__(self, seed):
        self.seed = seed
        self._zonogon_support = {}

    def setup(self):
        self.S = bodies.GeneratingSet(
            2, np.array([[math.cos(a), math.sin(a)] for a in self.angles]))

    def request(self, i):
        return 1 + i % 4, _rng(self.seed, i).uniform(-1.4, 1.4, size=2)

    def call(self, inp):
        m, x = inp
        return hulls.delta_m_membership(self.S, m, x)

    def in_hull(self, m, x, tol=1e-9):
        """Zonogon oracle: x is in the hull iff some multiplicity vector v with
        sum v <= m puts x in the zonogon sum_i (v_i/m) [-s_i, s_i], whose edge
        normals are the generators turned by 90 degrees."""
        P = self.S.points
        if m not in self._zonogon_support:
            mults = np.array([v for v in itertools.product(range(m + 1), repeat=len(P))
                              if sum(v) <= m], dtype=float)
            normals = np.column_stack([-P[:, 1], P[:, 0]])
            self._zonogon_support[m] = (normals, mults @ np.abs(P @ normals.T) / m)
        normals, support = self._zonogon_support[m]
        return bool((np.abs(normals @ x) <= support + tol).all(axis=1).any())

    def check(self, inp, verdict):
        m, x = inp
        if verdict.status not in ("member", "non-member"):
            return f"verdict {verdict.status!r} is not decided"
        if (verdict.status == "member") != self.in_hull(m, x):
            return f"verdict {verdict.status!r} disagrees with the zonogon oracle"
        if verdict.status == "non-member":
            return None
        cert = verdict.certificate
        if cert is None:
            return "member verdict without a certificate"
        mult = np.asarray(cert.multiplicities)
        alphas = np.asarray(cert.alphas, dtype=float)
        if cert.m != m or (mult < 0).any() or mult.sum() > m:
            return "certificate multiplicities exceed the budget m"
        if (np.abs(alphas) > mult + 1e-9).any():
            return "certificate alpha exceeds its multiplicity"
        err = float(np.linalg.norm(self.S.points.T @ alphas / m - x))
        if not err <= 1e-7:
            return f"certificate misses the point by {err:.3e}"
        return None

    def text(self, inp, verdict):
        cert = verdict.certificate
        body = "" if cert is None else ",".join(
            [str(int(v)) for v in cert.multiplicities] + [fmt17(a) for a in cert.alphas])
        return f"{verdict.status}|{verdict.optimum}|{verdict.nodes}|{body}"

    def corrupt(self, verdict):
        """Invert the verdict."""
        out = copy.copy(verdict)
        out.status = "non-member" if verdict.status == "member" else "member"
        return out


WORKLOADS = {"quotient": Quotient, "projection": Projection, "type1": Type1,
             "membership": Membership}
