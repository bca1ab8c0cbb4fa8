"""Hull membership oracles and representation transforms.

Three hulls of a generating set S appear here: the envelope ball (handled in
bodies), the m-term average hull (points (1/m) sum alpha_i s_i with integer
multiplicity budget m), and the theta-geometric hull (series
(1-theta) sum theta^k lambda_k s_k with |lambda_k| <= 1).  Membership in the
average hull is decided exactly by branch-and-bound.  Geometric-hull points
travel as representations: the contraction bound says how far such a series
can stick out of a p-convex ball, and the flattening transform turns a series
over m-term averages into a plain series over S.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .bodies import GeneratingSet, PBody
from .errors import InputError, NumericalError
from .optim import solve_lp


# (theta, read-only [theta ** j for j = 0, 1, ...]): a memo of one pure
# function, so which caller filled it never changes a result
_powers = (None, np.empty(0))


def _theta_powers(theta, count):
    """theta ** j for j < count, each a Python-float power (np.power may
    differ in the last bit); the table of the last theta is kept."""
    global _powers
    theta = float(theta)
    cached, table = _powers
    if cached != theta or table.size < count:
        size = count if cached != theta else max(count, 2 * table.size)
        table = np.array([theta ** j for j in range(size)])
        table.flags.writeable = False
        _powers = (theta, table)
    return table[:count]


@dataclass(eq=False)
class GammaRepresentation:
    """Truncated geometric-series representation of a point over a generating set.

    Term j is level levels[j], coefficient lambdas[j] and generator
    indices[j], held as three arrays with strictly increasing levels, the
    last level being the truncation depth; the point is
    (1-theta) sum_j theta^levels[j] lambdas[j] s_indices[j] plus a residual
    of Euclidean norm residual_norm.  `terms` is the (level, lambda, index)
    tuple list, built on demand; assigning it runs the same checks.
    """

    theta: float
    levels: np.ndarray
    lambdas: np.ndarray
    indices: np.ndarray
    residual_norm: float = 0.0

    def __post_init__(self):
        if not 0 < self.theta < 1:
            raise InputError("theta must lie in (0, 1)")
        self._set(self.levels, self.lambdas, self.indices)

    def _set(self, levels, lambdas, indices):
        levels = np.asarray(levels, dtype=np.int64)
        lambdas = np.asarray(lambdas, dtype=float)
        indices = np.asarray(indices, dtype=np.int64)
        if levels.ndim != 1 or not levels.shape == lambdas.shape == indices.shape:
            raise InputError("levels, lambdas and indices must be 1-d, one length")
        if levels.size and (levels[0] < 0 or (np.diff(levels) <= 0).any()):
            raise InputError("levels must be strictly increasing")
        if not (np.abs(lambdas) <= 1 + 1e-12).all():
            raise InputError(f"|lambda| = {np.abs(lambdas).max()} exceeds 1")
        self.levels, self.lambdas, self.indices = levels, lambdas, indices

    @property
    def terms(self):
        return list(zip(self.levels.tolist(), self.lambdas.tolist(),
                        self.indices.tolist()))

    @terms.setter
    def terms(self, terms):
        self._set(*(zip(*terms) if terms else ((), (), ())))

    def evaluate(self, S: GeneratingSet):
        """Python-float powers and an in-order row sum, carried across blocks
        of at most 2^13 floats, give the bits of the term-by-term sum.  The
        allocator keeps and reuses a 64 KB block, while a quotient query's
        whole 6,000 x 10 series is unmapped and faulted back in each call."""
        levels = self.levels
        # the power table may hold 8 entries per term, a memory bound tied to
        # the term arrays and not a timed crossover: cube-quotient series
        # fill about one level per term and read the table, while type1's
        # (about 10 terms over 100 levels) and hand-built sparse series take
        # the per-term powers
        if levels.size and levels[-1] < 8 * levels.size:
            powers = _theta_powers(self.theta, int(levels[-1]) + 1)[levels]
        else:
            powers = np.array([self.theta ** level for level in levels.tolist()])
        w = (1.0 - self.theta) * powers * self.lambdas
        step = max(1, 2 ** 13 // S.dimension)
        total = np.zeros(S.dimension)
        for start in range(0, w.size, step):
            rows = S.points[self.indices[start:start + step]]
            rows *= w[start:start + step, None]
            rows[0] += total
            total = rows.sum(axis=0)
        return total


def check_rows(m, totals, multiplicities, alphas):
    """Reject rows that are not m-term average-hull certificates; totals are
    the rows' summed multiplicities.  NaN passes no test.  np.count_nonzero
    is a C call, faster than ndarray.any on a halving's short rows."""
    if np.count_nonzero(multiplicities < 0):
        raise InputError("multiplicities must be nonnegative")
    if np.count_nonzero(totals > m):
        raise InputError("multiplicities exceed the budget m")
    if np.count_nonzero(~(np.abs(alphas) <= multiplicities + 1e-9)):
        raise InputError("alpha exceeds its multiplicity")


def _slot_layout(rows, counts, totals):
    """Lay nonzero certificate entries, sorted by (row, generator), into unit
    slots: each entry fills counts[e] adjacent slots of its row, generators
    in index order from the row's slot 0, and a row's slots past totals[row]
    stay empty.  Returns (entry, position), one pair per filled slot."""
    entry = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(totals) - totals  # each row's first slot
    return entry, np.arange(entry.size) - first[rows[entry]]


@dataclass
class DeltaMCertificate:
    """Witness that a point lies in the m-term average hull: x = (1/m) sum alpha_i s_i."""

    m: int
    multiplicities: np.ndarray
    alphas: np.ndarray

    def __post_init__(self):
        self.multiplicities = np.asarray(self.multiplicities, dtype=int)
        self.alphas = np.asarray(self.alphas, dtype=float)
        if self.m < 1:
            raise InputError("m must be at least 1")
        check_rows(self.m, self.multiplicities.sum(axis=-1),
                   self.multiplicities, self.alphas)

    def evaluate(self, S: GeneratingSet):
        return S.points.T @ self.alphas / self.m

    def slots(self):
        """Expand into exactly m unit slots as (indices, coefficients) arrays,
        laid out by _slot_layout, then (0, 0.0) up to m."""
        gens = np.flatnonzero(self.multiplicities)
        counts = self.multiplicities[gens]
        entry, slot = _slot_layout(0 * gens, counts, [counts.sum()])
        idx, coef = np.zeros(self.m, dtype=np.int64), np.zeros(self.m)
        idx[slot] = gens[entry]
        coef[slot] = self.alphas[gens][entry] / counts[entry]
        return idx, coef


def rows_average(S: GeneratingSet, rows, m):
    """(1/m) sum alpha_i s_i for nonzero (generators, multiplicities, alphas)
    rows, with the bits DeltaMCertificate.evaluate gives the dense rows."""
    gens, _, alphas = rows
    return S.points.T @ np.bincount(gens, alphas, S.count) / m


@dataclass
class DeltaMVerdict:
    """Outcome of the average-hull membership search."""

    status: str  # member | non-member | undecided
    certificate: DeltaMCertificate | None
    optimum: int | None
    nodes: int


def _node_lp(S, target):
    """The node LP as a function of the node's (caps, commits) and a start:
    min sum_i max(|alpha_i|, commits_i) s.t. S^T alpha = target, |alpha_i| <= caps_i.

    Split alpha = a - b and introduce t_i >= a_i + b_i, t_i >= commits_i; the
    slack row a_i + b_i - t_i + w_i = 0 keeps everything in equality form.
    Only the bounds depend on the node, so the rows and costs are built once,
    and a child starts from its parent's optimal basis (None at the root).
    Returns (value, alpha, basis), all None when the node is infeasible.
    """
    k = S.count
    n = S.dimension
    A = np.vstack([
        np.hstack([S.points.T, -S.points.T, np.zeros((n, 2 * k))]),
        np.hstack([np.eye(k), np.eye(k), -np.eye(k), np.eye(k)]),
    ])
    rhs = np.concatenate([np.asarray(target, dtype=float), np.zeros(k)])
    cost = np.concatenate([np.zeros(2 * k), np.ones(k), np.zeros(k)])
    zeros, inf = np.zeros(k), np.full(k, np.inf)

    def solve(caps, commits, start):
        sol = solve_lp(cost, A, rhs, np.concatenate([zeros, zeros, commits, zeros]),
                       np.concatenate([caps, caps, inf, inf]), start=start)
        if sol.status != "optimal":
            return None, None, None
        return sol.value, sol.x[:k] - sol.x[k:2 * k], sol.basis

    return solve


def delta_m_membership(S: GeneratingSet, m: int, x) -> DeltaMVerdict:
    """Decide whether x lies in the m-term average hull of S.

    Minimizes sum ceil(|alpha_i|) subject to sum alpha_i s_i = m x by
    branch-and-bound: nodes carry per-generator caps and committed lower
    counts, each bounded below by the ceiling of an LP relaxation of
    sum max(|alpha_i|, committed_i).  Membership holds iff the optimum is
    <= m.  A child's LP starts from its parent's optimal basis, as the two
    differ in one bound.  Exhausting the budget of 10^6 nodes yields an
    undecided verdict, which is distinct from non-membership.
    """
    if m < 1:
        raise InputError("m must be at least 1")
    x = np.asarray(x, dtype=float)
    if x.shape != (S.dimension,):
        raise InputError("point dimension mismatch")
    k = S.count
    node_lp = _node_lp(S, m * x)
    best_val = None
    best_alpha = None
    nodes = 0
    heap = [(0, 0, np.full(k, m), np.zeros(k, dtype=int), None)]
    tiebreak = 1
    while heap:
        if nodes >= 10 ** 6:
            return DeltaMVerdict("undecided", None, None, nodes)
        _, _, caps, commits, start = heapq.heappop(heap)
        nodes += 1
        value, alpha, basis = node_lp(caps, commits, start)
        if value is None:
            continue
        lower = math.ceil(value - 1e-9)
        if lower > m:
            continue
        cand = int(np.ceil(np.abs(alpha) - 1e-9).sum())
        if best_val is None or cand < best_val:
            best_val, best_alpha = cand, alpha.copy()
            if best_val <= m:
                break
        branch = None
        for i in range(k):
            mag = abs(alpha[i])
            frac = mag - math.floor(mag + 1e-9)
            if 1e-7 < frac < 1 - 1e-7 and math.ceil(mag - 1e-9) > commits[i]:
                branch = i
                break
        if branch is None:
            continue  # LP already integral here; cand banked the node exactly
        f = math.floor(abs(alpha[branch]))
        caps_a = caps.copy()
        caps_a[branch] = f
        commits_a = commits.copy()
        commits_a[branch] = min(commits_a[branch], f)
        heapq.heappush(heap, (lower, tiebreak, caps_a, commits_a, basis))
        commits_b = commits.copy()
        commits_b[branch] = f + 1
        heapq.heappush(heap, (lower, tiebreak + 1, caps, commits_b, basis))
        tiebreak += 2
    if best_val is not None and best_val <= m:
        mult = np.ceil(np.abs(best_alpha) - 1e-9).astype(int)
        cert = DeltaMCertificate(m=m, multiplicities=mult, alphas=best_alpha)
        return DeltaMVerdict("member", cert, best_val, nodes)
    return DeltaMVerdict("non-member", None, best_val, nodes)


# ---------------------------------------------------------------------------
# geometric hull
# ---------------------------------------------------------------------------

def pconv_contraction_bound(p, theta):
    """How far the geometric hull of a p-ball can stick out: p^(-1/p)(1-theta)^(1-1/p)."""
    if not 0 < p <= 1:
        raise InputError("p must lie in (0, 1]")
    if not 0 < theta < 1:
        raise InputError("theta must lie in (0, 1)")
    if p == 1.0:
        return 1.0
    try:
        bound = p ** (-1.0 / p) * (1.0 - theta) ** (1.0 - 1.0 / p)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise NumericalError(
            f"pconv contraction bound p^(-1/p)(1-theta)^(1-1/p) overflows "
            f"at p={p}, theta={theta}")
    return bound


def verify_pconv_contraction(body: PBody, theta, samples=1000, seed=0):
    """Monte-Carlo check that geometric-hull points stay inside the bound.

    Draws random truncated series elements (uniform lambda in [-1,1], uniform
    generator picks, depth 64), measures their p-gauge, and compares
    the worst against pconv_contraction_bound(p, theta).
    """
    if samples < 1:
        raise InputError("samples must be at least 1")
    bound = pconv_contraction_bound(body.p, theta)
    depth = 64
    rng = np.random.default_rng(seed)
    P = body.generators.points
    idx = rng.integers(0, P.shape[0], size=(samples, depth))
    lam = rng.uniform(-1.0, 1.0, size=(samples, depth))
    weights = lam * theta ** np.arange(depth)
    X = (1.0 - theta) * np.einsum("tk,tkn->tn", weights, P[idx])
    gauges = body.batch_gauge(X)
    max_gauge = float(gauges.max())
    return {
        "lemma": "pconv-contraction",
        "params": {"p": body.p, "theta": theta, "depth": depth, "seed": seed},
        "samples": int(samples),
        "max_ratio": max_gauge / bound,
        "bound": bound,
        "pass": bool(max_gauge <= bound + 1e-6),
    }


# ---------------------------------------------------------------------------
# average-hull levels into geometric-hull levels
# ---------------------------------------------------------------------------

def flatten_scale(theta, m):
    """Ratio and scale of a theta-series over m-term averages, flattened.

    Returns (phi, scale) with phi = theta^(1/m) and
    scale = (1-theta) phi^(1-m) / (m (1-phi)): the flattened series at ratio
    phi, times scale, evaluates to the original series.
    """
    phi = theta ** (1.0 / m)
    return phi, (1.0 - theta) * phi ** (1 - m) / (m * (1.0 - phi))


def approx2_transform(theta, m, lambdas, rows):
    """Flatten a geometric series over m-term averages into a plain series.

    The series is held as level-tagged nonzero rows (levels, generators,
    multiplicities, alphas); entries that share a (level, generator) are
    summed in input order.  Level k is lambdas[k] (1/m) sum alpha s_g over
    its entries, an m-term average, which splits into m unit slots (laid out
    by _slot_layout, as DeltaMCertificate.slots) at levels km..km+m-1 of a
    representation with ratio theta^(1/m); the exact scale from flatten_scale
    never exceeds 2 theta / (3 theta - 1) once theta > 1/3.  All levels are
    checked and laid out in one vectorised pass, and the representation's
    arrays are the nonzero slots in level order.  Returns (representation,
    scale) with scale * eval(rep) = (1-theta) sum_k theta^k lambdas[k] (1/m)
    sum alpha s_g.
    """
    if not 1.0 / 3.0 < theta < 1:
        raise InputError("theta must lie in (1/3, 1)")
    if m < 1:
        raise InputError("m must be at least 1")
    phi, scale = flatten_scale(theta, m)
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or not (np.abs(lambdas) <= 1 + 1e-12).all():
        raise InputError("outer lambdas must be a list within [-1, 1]")
    levels, gens, mults = (np.asarray(a, dtype=np.int64) for a in rows[:3])
    alphas = np.asarray(rows[3], dtype=float)
    if levels.ndim != 1 or not (levels.shape == gens.shape == mults.shape
                                == alphas.shape):
        raise InputError("rows must be four 1-d arrays of one length")
    width = int(gens.max(initial=0)) + 1
    if (levels.size and (min(levels.min(), gens.min()) < 0
                         or levels.max() >= lambdas.size)
            or width * lambdas.size >= 2 ** 62):
        raise InputError("levels and generators must be indices of lambdas "
                         "and of S")
    keys, inverse = np.unique(levels * width + gens, return_inverse=True)
    level, gen = np.divmod(keys, width)
    counts = np.bincount(inverse, mults, keys.size).astype(np.int64)
    alphas = np.bincount(inverse, alphas, keys.size)  # (0 + a1) + a2 ...
    totals = np.bincount(level, counts, lambdas.size).astype(np.int64)
    check_rows(m, totals, counts, alphas)
    entry, position = _slot_layout(level, counts, totals)
    level = level[entry]
    powers = _theta_powers(phi, m)[::-1]
    mu = lambdas[level] * (alphas[entry] / counts[entry]) * powers[position]
    keep = mu != 0.0
    rep = GammaRepresentation(theta=phi, levels=(level * m + position)[keep],
                              lambdas=mu[keep], indices=gen[entry][keep])
    return rep, scale
