"""Optimization kernel: dense revised simplex, minimum-volume enclosing
ellipsoid, and multi-start gauge maximization over polytopes, a lower bound.

Everything here is self-contained on top of numpy.  The LP solver is the
workhorse behind every hull membership check in the package, so it returns
primal and dual vectors and is verified against strong duality by its tests.
Its optimal basis is a start for an LP that differs in its bounds, as a
branch-and-bound child differs from its parent: a bounded dual simplex then
replaces phase 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InputError, NumericalError

FEAS_TOL = 1e-9


# ---------------------------------------------------------------------------
# linear programming
# ---------------------------------------------------------------------------

@dataclass
class LPSolution:
    status: str                 # "optimal" | "infeasible" | "unbounded"
    value: float = None
    x: np.ndarray = None
    y: np.ndarray = None        # duals of the original equality rows
    certificate: np.ndarray = None  # Farkas vector (equality rows) when infeasible
    basis: tuple = None         # (basis, direction) at the optimum: a start


def _factor(M, b, upper, basis, direction):
    """B^-1 and x_B from scratch, each nonbasic column at the bound its
    direction names."""
    try:
        Binv = np.linalg.inv(M[:, basis])
    except np.linalg.LinAlgError:
        raise NumericalError("working basis became singular")
    up = direction > 0
    return Binv, Binv @ (b - M[:, up] @ upper[up])


def _eta(Binv, alpha, r):
    """Rank-one update of B^-1 in place once the column whose B^-1 image is
    alpha replaces the basic column of row r."""
    row = Binv[r] / alpha[r]
    Binv -= alpha[:, None] * row
    Binv[r] = row


def _pivot_loop(c, M, b, upper, basis, direction, max_iter):
    """Bounded revised simplex on  min c@z, M@z = b, 0 <= z <= upper  from a
    feasible basis: Dantzig's upper-bounding technique (1955).

    `direction` is -1 for a nonbasic column at 0, +1 for one at its upper
    bound, 0 for a basic column or one that may never enter.  A basic column
    fixed at [0, 0] leaves on the first pivot that would move it.  B^-1 and
    x_B follow each pivot by a rank-one (eta) update and are refactorised
    every m pivots.  Dantzig pricing with a Bland's-rule fallback after a
    run of degenerate pivots, which guarantees termination.  Returns
    (status, basis, xB, y).
    """
    m = len(b)
    bland = False
    degenerate_run = 0
    since = m  # eta updates since the last refactorisation
    for _ in range(max_iter):
        if since >= m:
            Binv, xB = _factor(M, b, upper, basis, direction)
            since = 0
        y = c[basis] @ Binv
        score = (c - y @ M) * direction
        if bland:
            eligible = np.flatnonzero(score > FEAS_TOL)
            if eligible.size == 0:
                return "optimal", basis, xB, y
            j = int(eligible[0])
        else:
            j = int(score.argmax())
            if score[j] <= FEAS_TOL:
                return "optimal", basis, xB, y
        alpha = Binv @ M[:, j]
        d = -direction[j] * alpha  # x_B falls by t*d as column j moves by t
        # ratio of each x_B entry to the bound it falls or rises to; inf
        # where it does not move
        ratios = [(x if step > 0 else x - bound) / step
                  if abs(step) > FEAS_TOL else math.inf
                  for step, x, bound in zip(d.tolist(), xB.tolist(),
                                            upper[basis].tolist())]
        t = min(ratios, default=math.inf)
        if upper[j] <= t:
            if upper[j] == np.inf:
                return "unbounded", basis, xB, y
            xB -= upper[j] * d  # bound flip: j crosses to its other bound
            direction[j] = -direction[j]
            degenerate_run = 0
            continue
        r = ratios.index(t)
        if bland:
            ties = [i for i, q in enumerate(ratios) if q <= t + FEAS_TOL]
            r = min(ties, key=basis.__getitem__)
            t = ratios[r]
        if t <= FEAS_TOL:
            degenerate_run += 1
            if degenerate_run > 60:
                bland = True
        else:
            degenerate_run = 0
        leaving = basis[r]
        direction[leaving] = 0 if upper[leaving] == 0 else (1 if d[r] < 0 else -1)
        xB -= t * d
        xB[r] = t if direction[j] < 0 else upper[j] - t
        basis[r], direction[j] = j, 0
        _eta(Binv, alpha, r)  # |alpha[r]| > FEAS_TOL by the ratio test
        since += 1
    raise NumericalError("cycling guard exceeded (simplex iteration cap)")


def _dual_loop(c, M, b, upper, basis, direction, max_iter, tol):
    """Bounded dual simplex on  min c@z, M@z = b, 0 <= z <= upper  from a
    dual feasible basis, until x_B is within tol of its bounds (Koberstein
    2005, without the bound-flipping ratio test).

    `basis` and `direction` are as in _pivot_loop and change in place.  The
    row whose x_B lies farthest outside [0, upper] leaves at the bound it
    violates; among the nonbasic columns whose move from their bound pushes
    that x_B back, the one whose reduced cost reaches zero first enters,
    ties within FEAS_TOL going to the lowest column index.  Returns None
    once x_B is within its bounds, or a Farkas vector w for the rows of M
    when no column can push it back: w @ b > the largest w @ M @ z over the
    box.  Raises InputError if the first basis is singular or not dual
    feasible within FEAS_TOL.
    """
    m = len(b)
    try:
        Binv, xB = _factor(M, b, upper, basis, direction)
    except NumericalError:
        raise InputError("start basis is singular") from None
    score = (c - (c[basis] @ Binv) @ M) * direction  # > 0: the column prices in
    if score.max(initial=0.0) > FEAS_TOL:
        raise InputError("start basis is not dual feasible")
    since = 0
    for _ in range(max_iter):
        if since >= m:
            Binv, xB = _factor(M, b, upper, basis, direction)
            since = 0
        width = upper[basis].tolist()
        violation = [max(-x, x - w) for x, w in zip(xB.tolist(), width)]
        worst = max(violation, default=0.0)
        if worst <= tol:
            return None
        r = violation.index(worst)
        if score is None:  # priced after each pivot only when needed
            score = (c - (c[basis] @ Binv) @ M) * direction
        side = 1.0 if xB[r] < 0 else -1.0  # +1: x_B[r] must rise
        # reduced-cost ratio of each column whose move from its bound
        # pushes x_B[r] back by more than FEAS_TOL a unit; inf elsewhere
        push = (Binv[r] @ M) * (side * direction)
        ratios = [max(-s, 0.0) / q if q > FEAS_TOL else math.inf
                  for q, s in zip(push.tolist(), score.tolist())]
        t = min(ratios, default=math.inf)
        if t == math.inf:
            return -side * Binv[r]
        j = next(k for k, q in enumerate(ratios) if q <= t + FEAS_TOL)
        alpha = Binv @ M[:, j]
        leaving = basis[r]
        step = (xB[r] - (0.0 if side > 0 else width[r])) / alpha[r]  # z_j's move
        xB -= step * alpha
        xB[r] = (0.0 if direction[j] < 0 else upper[j]) + step
        direction[leaving] = 0 if upper[leaving] == 0 else -side
        basis[r], direction[j] = j, 0
        _eta(Binv, alpha, r)
        since, score = since + 1, None
    raise NumericalError("cycling guard exceeded (dual simplex iteration cap)")


def _warm_start(start, width, m):
    """Validated copies of a (basis, direction) start for columns of these
    widths: nonbasic columns of zero width get direction 0, the other
    nonbasic ones -1 (at 0) unless +1 (at their upper bound)."""
    basis, direction = start
    basis = np.array(basis, dtype=np.int64)
    ids = basis.tolist()
    if (basis.shape != (m,) or np.shape(direction) != width.shape
            or len(set(ids)) != m
            or not 0 <= min(ids, default=0) <= max(ids, default=0) < width.size):
        raise InputError("start needs one distinct basic column per row and "
                         "one direction per column")
    direction = np.where(np.asarray(direction) > 0, 1.0, -1.0)
    direction[width == 0] = 0.0
    direction[basis] = 0.0
    if np.isinf(width[direction > 0]).any():
        raise InputError("start puts a column at an infinite upper bound")
    return basis, direction


def solve_lp(objective, A, b, lower, upper, start=None) -> LPSolution:
    """min objective @ x  subject to  A @ x = b  and  lower <= x <= upper.

    The only LP entry point of the package.  `lower` and `upper` are float
    arrays, one entry per variable; `lower` must be finite and `upper` may
    be inf.  On "optimal" the solution carries primal x, equality duals y,
    and the objective value.  On "infeasible" it carries a Farkas vector y:
    with g = y @ A, y @ b > sum_j max(g_j lower_j, g_j upper_j), so no x in
    the box meets A @ x = b (up to FEAS_TOL, g_j <= 0 where upper_j = inf).

    Two-phase bounded-variable simplex on z = x - lower in [0, upper - lower],
    with no rows for the bounds.  Phase 1 starts from one artificial per row;
    those it leaves basic at zero stay in phase 2 fixed at [0, 0], so a
    redundant row keeps its artificial and gets a zero dual.  An optimal
    solution also carries `basis`, the (basis, direction) pair phase 2 ends
    with: basic column indices, then -1/+1 for a nonbasic column at its
    lower/upper bound and 0 for one that may not enter, over the n columns
    and then the m artificials.

    `start` is such a pair from an LP with the same A and objective; b and
    the bounds may differ, and so may the row signs of b - A @ lower, as a
    basis is a set of columns.  It must be nonsingular and dual feasible
    within FEAS_TOL, else InputError.  Phase 1 is skipped: a bounded dual
    simplex (_dual_loop) moves the basis until x_B is within its bounds, or
    returns "infeasible" with a Farkas vector from the leaving row of B^-1,
    and phase 2 then confirms the optimum.  The start is not modified.
    """
    c = np.atleast_1d(np.asarray(objective, dtype=float))
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    m, n = A.shape
    if c.shape != (n,):
        raise InputError("objective length does not match column count")
    if b.shape != (m,):
        raise InputError("rhs length does not match row count")
    if lower.shape != (n,) or upper.shape != (n,):
        raise InputError("one lower and one upper bound per variable required")
    if not (np.isfinite(A).all() and np.isfinite(b).all()
            and np.isfinite(c).all()):
        raise InputError("LP data must be finite")
    if not np.isfinite(lower).all():
        raise InputError("lower bounds must be finite")
    if not (lower <= upper).all():
        raise InputError("every bound pair needs lower <= upper")

    b_std = b - A @ lower
    sign = np.where(b_std < 0, -1.0, 1.0)  # rows signed so that b_std >= 0
    b_std *= sign
    M = np.hstack([A * sign[:, None], np.eye(m)])  # then the m artificials
    c2 = np.concatenate([c, np.zeros(m)])
    max_iter = max(20000, 80 * (m + n))
    if start is None:
        width = np.concatenate([upper - lower, np.full(m, np.inf)])
        direction = np.concatenate([np.where(upper > lower, -1.0, 0.0),
                                    np.zeros(m)])
        basis = np.arange(n, n + m)
        # phase 1: minimise the sum of the artificials
        c1 = np.concatenate([np.zeros(n), np.ones(m)])
        status, basis, xB, y1 = _pivot_loop(c1, M, b_std, width, basis,
                                            direction, max_iter)
        if status != "optimal":
            raise NumericalError("phase-1 simplex did not converge")
        if c1[basis] @ xB > FEAS_TOL * max(1.0, b_std.max(initial=0.0)) * max(1, m):
            return LPSolution(status="infeasible", certificate=sign * y1)
        width[n:] = 0.0
        direction[n:] = 0.0
    else:
        # a basis is a set of columns, so row signs that differ from the
        # start's LP leave it valid; the dual loop replaces phase 1
        width = np.concatenate([upper - lower, np.zeros(m)])
        basis, direction = _warm_start(start, width, m)
        farkas = _dual_loop(c2, M, b_std, width, basis, direction, max_iter,
                            FEAS_TOL * max(1.0, b_std.max(initial=0.0)))
        if farkas is not None:
            return LPSolution(status="infeasible", certificate=sign * farkas)

    # phase 2: every artificial is fixed at [0, 0] and never enters
    status, basis, xB, y = _pivot_loop(c2, M, b_std, width, basis,
                                       direction, max_iter)
    z = np.where(direction > 0, width, 0.0)
    z[basis] = xB
    if status == "unbounded":
        return LPSolution(status="unbounded", x=lower + z[:n])
    # complementary slackness sanity check on the reduced costs
    if np.abs(c2[basis] - y @ M[:, basis]).max(initial=0.0) > 1e-6:
        raise NumericalError("complementary slackness violated at optimum")
    # an answer lies in its box: clipped within the residual's tolerance
    tol = FEAS_TOL * max(1.0, np.abs(b).max(initial=0.0)) * 10
    if (z < -tol).any() or (z > width + tol).any():
        raise NumericalError("basic variable outside its bounds at optimum")
    x = lower + np.clip(z, 0.0, width)[:n]
    residual = np.abs(A @ x - b).max(initial=0.0)
    if residual > tol:
        raise NumericalError(f"primal residual {residual:.3e} out of tolerance")
    return LPSolution(status="optimal", value=float(c @ x), x=x, y=sign * y,
                      basis=(basis, direction))


# ---------------------------------------------------------------------------
# minimum-volume enclosing ellipsoid (origin-symmetric)
# ---------------------------------------------------------------------------

@dataclass
class Ellipsoid:
    """Origin-centered ellipsoid { y : y @ shape_matrix @ y <= scale }."""

    shape_matrix: np.ndarray
    scale: float

    def __post_init__(self):
        M = np.asarray(self.shape_matrix, dtype=float)
        if np.abs(M - M.T).max(initial=0.0) > 1e-9 * max(1.0, np.abs(M).max()):
            raise InputError("shape matrix must be symmetric")
        self.shape_matrix = 0.5 * (M + M.T)
        if np.linalg.eigvalsh(self.shape_matrix).min() <= 0:
            raise InputError("shape matrix must be positive definite")
        if not self.scale > 0:
            raise InputError("scale must be positive")

    def support(self, u):
        """sqrt(scale * u M^{-1} u): a float for one direction, an array for rows."""
        u = np.asarray(u, dtype=float)
        w = np.linalg.solve(self.shape_matrix, u.T).T
        h = np.sqrt(self.scale * np.einsum("...i,...i->...", u, w))
        return float(h) if u.ndim == 1 else h


def _newton_direction(K):
    """Newton direction d, 1^T d = 0, for log det V (gradient diag K, Hessian
    -K*K, K = Y_S V^{-1} Y_S^T) on the weights of S.  One eigh solves the
    bordered system, cutting eigenvalues below eps (|S| + 1) of the largest in
    size as lstsq does: that drops the null directions of twin and +- rows,
    and keeps the long flat step needed past n(n+1)/2 weighted points."""
    kkt = np.pad(K * K, (0, 1), constant_values=1.0)
    kkt[-1, -1] = 0.0
    w, U = np.linalg.eigh(kkt)
    big = np.abs(w) > np.finfo(float).eps * len(w) * np.abs(w).max()
    return U[:-1, big] @ ((U[:-1, big].T @ np.diag(K)) / w[big])


def mvee(points, tolerance=1e-7) -> Ellipsoid:
    """Minimum-volume origin-symmetric ellipsoid enclosing the given points.

    Points count with their negations, so pass each once.  V^{-1} and
    g_i = x_i V^{-1} x_i are recomputed from the weights u every 25 steps and
    after an ill-conditioned update; while the gap max_i g_i / n - 1 exceeds
    `tolerance`, each point no optimal design can weight is then dropped
    (Harman & Pronzato 2007) after a multiplicative step u_i <- u_i g_i / n
    (Titterington 1976), and a Newton step for log det V is tried on S, the
    support and each point with g_i > n, if its |S|^3 solve costs at most 25
    ascent steps over the active points or the gap has not dropped since the
    last recomputation: the full step clipped at 0, else the step to where a
    weight reaches 0, whichever first raises log det V.  Else Khachiyan ascent
    with Wolfe-Atwood away steps and rank-one updates (Todd & Yildirim 2007).
    Stops when a fresh matrix has gap <= `tolerance` over all input points; a
    dropped point outside it is put back with weight 0.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    k, n = X.shape
    if np.linalg.matrix_rank(X) < n:
        raise DegeneracyError("points do not span the space")
    active, Y = np.arange(k), X
    u = np.full(k, 1.0 / k)
    refresh = 25  # steps between recomputations of V^{-1} and g from u
    since, last_gap = refresh, np.inf
    for _ in range(100000):
        if since >= refresh:
            V = Y.T @ (u[:, None] * Y)
            try:
                M = np.linalg.inv(V)
            except np.linalg.LinAlgError:
                raise DegeneracyError("weight matrix became singular")
            M = 0.5 * (M + M.T)
            g = np.einsum("ij,ij->i", Y @ M, Y)
            gap = g.max() / n - 1.0
            if gap > tolerance:
                # no optimal design weights a point with g_i < H (Harman &
                # Pronzato 2007, with eps = max_i g_i - n); the margin covers
                # rounding in g
                eps = n * gap
                H = n * (1.0 + eps / 2.0 - np.sqrt(eps * (4.0 + eps - 4.0 / n)) / 2.0)
                keep = g >= H * (1.0 - 1e-9)
                if not keep.all():
                    u, active = u[keep] * g[keep], active[keep]
                    u, Y = u / u.sum(), X[active]
                    continue
            S = np.flatnonzero((u > 1e-12) | (g > n))
            if gap > tolerance and (len(S) ** 3 <= refresh * len(active) * n
                                    or gap >= last_gap):
                d = _newton_direction(Y[S] @ M @ Y[S].T)
                t_cut = (u[S][d < 0] / -d[d < 0]).min(initial=1.0)
                for t in sorted({1.0, t_cut}, reverse=True):
                    trial = u.copy()
                    trial[S] = np.maximum(u[S] + t * d, 0.0)
                    trial /= trial.sum()
                    V_trial = Y.T @ (trial[:, None] * Y)
                    if np.linalg.slogdet(V_trial)[1] > np.linalg.slogdet(V)[1]:
                        break
                else:
                    trial = None
                if trial is not None:
                    u, last_gap = trial, np.inf  # recompute, then maybe again
                    continue
            last_gap, since = gap, 0
        if g.max() / n - 1.0 <= tolerance:
            if since > 0:
                since = refresh
                continue
            g_all = np.einsum("ij,ij->i", X @ M, X)
            if g_all.max() / n - 1.0 <= tolerance:
                return Ellipsoid(shape_matrix=M, scale=float(n))
            back = np.setdiff1d(np.flatnonzero(g_all / n - 1.0 > tolerance), active)
            active, u = np.append(active, back), np.append(u, np.zeros(back.size))
            Y, g = X[active], g_all[active]
        j_up = int(g.argmax())
        gap_up = g[j_up] / n - 1.0
        j_dn = int(np.where(u > 1e-12, g, np.inf).argmin())
        j = j_up if gap_up >= 1.0 - g[j_dn] / n else j_dn
        step = (g[j] - n) / (n * (g[j] - 1.0)) if g[j] > 1.0 + 1e-15 else -np.inf
        if j != j_up:  # an away step takes at most the weight u_j
            step = max(step, -u[j] / (1.0 - u[j]) if u[j] < 1.0 else 0.0)
        u *= 1.0 - step
        u[j] += step
        np.clip(u, 0.0, None, out=u)
        u /= u.sum()
        a = step / (1.0 - step)  # V <- (1 - step) (V + a x_j x_j^T)
        pivot = 1.0 + a * g[j]
        if pivot < 1e-8:
            since = refresh
            continue
        w = M @ Y[j]
        g = (g - (a / pivot) * (Y @ w) ** 2) / (1.0 - step)
        M = (M - (a / pivot) * w[:, None] * w) / (1.0 - step)
        since += 1
    raise NumericalError("ellipsoid ascent hit the iteration cap before the gap closed")


# ---------------------------------------------------------------------------
# gauge maximization over a polytope
# ---------------------------------------------------------------------------

def _project_rows_to_simplex(W):
    """Euclidean projection of each row of W onto the probability simplex."""
    sorted_W = np.sort(W, axis=1)[:, ::-1]
    css = np.cumsum(sorted_W, axis=1) - 1.0
    idx = np.arange(1, W.shape[1] + 1)
    cond = sorted_W - css / idx > 0
    rho = cond.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(W.shape[0]), rho] / (rho + 1)
    return np.maximum(W - theta[:, None], 0.0)


def max_gauge_over_polytope(body, polytope_vertices, seed=0):
    """Lower-bound the maximum of the body's gauge over a polytope hull.

    Multi-start projected ascent over barycentric weights: starts are the
    barycenter, every vertex-pair midpoint, and 32 Dirichlet samples, all
    ascending together for at most 500 steps, each with one batch_gauge call
    for all 2n difference points.  Returns (value, point): the exact gauge at
    a point that LP re-checks in the hull, so a certified lower bound.
    """
    V = np.atleast_2d(np.asarray(polytope_vertices, dtype=float))
    v, n = V.shape
    if v < 1:
        raise InputError("polytope needs at least one vertex")
    gauge = body.batch_gauge

    rng = np.random.default_rng(seed)
    starts = [np.full((1, v), 1.0 / v)]
    eye = np.eye(v)
    pair_mid = [(eye[i] + eye[j]) / 2.0 for i in range(v) for j in range(i, v)]
    starts.append(np.asarray(pair_mid))
    starts.append(rng.dirichlet(np.ones(v), size=32))
    W = np.vstack(starts)
    rows = W.shape[0]

    step = np.full(rows, 0.25)
    X = W @ V
    f = gauge(X)
    best_val = f.copy()
    best_X = X.copy()
    h = 1e-7
    offsets = h * np.vstack([np.eye(n), -np.eye(n)])
    for _ in range(500):
        # finite-difference gradient in point space, mapped back to weights
        F = gauge((X + offsets[:, None, :]).reshape(-1, n)).reshape(2, n, rows)
        with np.errstate(over="ignore", invalid="ignore"):
            Gw = ((F[0] - F[1]) / (2 * h)).T @ V.T
            norms = np.linalg.norm(Gw, axis=1, keepdims=True)
            # squares overflow a norm past ~1e154, as at small p: divide such
            # a finite row by its largest entry first
            big = ~np.isfinite(norms[:, 0]) & np.isfinite(Gw).all(axis=1)
            if big.any():
                Gw[big] /= np.abs(Gw[big]).max(axis=1, keepdims=True)
                norms[big] = np.linalg.norm(Gw[big], axis=1, keepdims=True)
        if not np.isfinite(norms).all():
            raise NumericalError(f"the gauge gradient is not finite at "
                                 f"p={body.p}: the delta ascent cannot step")
        norms[norms == 0] = 1.0
        W_try = _project_rows_to_simplex(W + step[:, None] * Gw / norms)
        X_try = W_try @ V
        f_try = gauge(X_try)
        improved = f_try > f + 1e-14
        W[improved] = W_try[improved]
        X[improved] = X_try[improved]
        f[improved] = f_try[improved]
        step[improved] *= 1.2
        step[~improved] *= 0.5
        better = f > best_val
        best_val[better] = f[better]
        best_X[better] = X[better]
        if step.max() < 1e-14:
            break
    i = int(np.argmax(best_val))
    point = best_X[i]
    value = float(gauge(point[None, :])[0])
    _check_hull_membership(V, point)
    return value, point


def _check_hull_membership(V, point):
    """Assert `point` is a convex combination of the rows of V (via LP)."""
    v, n = V.shape
    A = np.vstack([V.T, np.ones((1, v))])
    b = np.concatenate([point, [1.0]])
    sol = solve_lp(np.zeros(v), A, b, np.zeros(v), np.full(v, np.inf))
    if sol.status != "optimal":
        raise NumericalError("ascent left the polytope (barycentric LP infeasible)")
