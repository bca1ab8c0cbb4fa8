import math

import numpy as np
import pytest
import scipy.optimize

from geomhull import hulls, optim
from geomhull.errors import DegeneracyError, InputError, NumericalError
from geomhull.optim import (FEAS_TOL, Ellipsoid, _newton_direction,
                            max_gauge_over_polytope, mvee, solve_lp)
from geomhull.bodies import GeneratingSet, PBody, lp_ball_body
from geomhull.dvoretzky import random_projection


def _random_lp(rng, m, n):
    """A bounded-feasible LP in inequality form, turned into equalities."""
    A = rng.standard_normal((m, n))
    x0 = rng.uniform(-1.0, 1.0, size=n)
    b = A @ x0 + rng.uniform(0.1, 2.0, size=m)   # x0 strictly feasible
    c = rng.standard_normal(n)
    return A, b, c


def _to_equalities(A, b, n):
    """A x <= b, -1 <= x <= 1   as   [A | I] z = b with slack bounds."""
    m = A.shape[0]
    M = np.hstack([A, np.eye(m)])
    lower = np.concatenate([-np.ones(n), np.zeros(m)])
    upper = np.concatenate([np.ones(n), np.full(m, np.inf)])
    return M, lower, upper


def _bounded_equality_lp(rng, m, n):
    """A feasible, bounded equality LP with nonzero finite lower bounds.

    Each variable is ranged, fixed (lower == upper) or bounded below only;
    the last kind gets a positive cost, so the optimum is finite.
    """
    A = rng.standard_normal((m, n))
    lower = rng.uniform(-2.0, 2.0, size=n)
    kind = rng.integers(0, 3, size=n)
    upper = np.where(kind == 0, lower + rng.uniform(0.5, 2.0, size=n),
                     np.where(kind == 1, lower, np.inf))
    c = rng.standard_normal(n)
    c[kind == 2] = np.abs(c[kind == 2]) + 0.1
    x0 = lower + np.where(kind == 2, 1.0, upper - lower) * rng.uniform(size=n)
    return c, A, A @ x0, lower, upper


class TestSolveLP:
    def test_matches_scipy_on_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            m, n = rng.integers(2, 7), rng.integers(2, 6)
            A, b, c = _random_lp(rng, m, n)
            M, lower, upper = _to_equalities(A, b, n)
            obj = np.concatenate([c, np.zeros(m)])
            mine = solve_lp(obj, M, b, lower, upper)
            ref = scipy.optimize.linprog(c, A_ub=A, b_ub=b,
                                         bounds=[(-1, 1)] * n,
                                         method="highs")
            assert mine.status == "optimal"
            assert ref.status == 0
            assert mine.value == pytest.approx(ref.fun, abs=1e-7)

    def test_matches_scipy_with_shifted_and_fixed_bounds(self):
        rng = np.random.default_rng(2)
        fixed_seen = 0
        for trial in range(30):
            m, n = rng.integers(1, 5), rng.integers(5, 9)
            c, A, b, lower, upper = _bounded_equality_lp(rng, m, n)
            mine = solve_lp(c, A, b, lower, upper)
            ref = scipy.optimize.linprog(
                c, A_eq=A, b_eq=b,
                bounds=[(lo, None if np.isinf(hi) else hi)
                        for lo, hi in zip(lower, upper)],
                method="highs")
            assert ref.status == 0
            assert mine.status == "optimal"
            assert mine.value == pytest.approx(ref.fun, abs=1e-7)
            assert np.abs(A @ mine.x - b).max() < 1e-7
            assert (mine.x >= lower - 1e-9).all()
            assert (mine.x <= upper + 1e-9).all()
            fixed = lower == upper
            assert np.abs(mine.x[fixed] - lower[fixed]).max(initial=0.0) < 1e-9
            fixed_seen += int(fixed.sum())
        assert fixed_seen > 0

    def test_strong_duality_holds(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            A, b, c = _random_lp(rng, 4, 3)
            M, lower, upper = _to_equalities(A, b, 3)
            obj = np.concatenate([c, np.zeros(4)])
            sol = solve_lp(obj, M, b, lower, upper)
            assert sol.status == "optimal"
            resid = M @ sol.x - b
            assert np.abs(resid).max() < 1e-7
            # dual feasibility: the slack columns (bounds [0, inf)) need
            # reduced costs r = c - M^T y >= 0
            r = obj - M.T @ sol.y
            assert r[3:].min() >= -1e-9
            # zero gap: c x = y b + sum of r_j at the bound it pushes x_j to;
            # on the slack columns that bound is 0
            bound_part = sum(rj * (lo if rj > 0 else hi)
                             for rj, lo, hi in zip(r[:3], lower[:3], upper[:3]))
            assert obj @ sol.x == pytest.approx(sol.y @ b + bound_part,
                                                abs=1e-9)

    def test_infeasible_returns_farkas_certificate(self):
        # x <= 1 and x >= 2 cannot hold together (x, and both slacks, >= 0)
        M = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, -1.0]])
        b = np.array([1.0, 2.0])
        sol = solve_lp(np.array([1.0, 0.0, 0.0]), M, b, np.zeros(3),
                       np.full(3, np.inf))
        assert sol.status == "infeasible"
        assert sol.certificate is not None

    def test_unbounded_detected(self):
        M = np.array([[1.0, -1.0]])
        b = np.array([0.0])
        sol = solve_lp(np.array([-1.0, 0.0]), M, b, np.zeros(2),
                       np.full(2, np.inf))
        assert sol.status == "unbounded"

    def test_bound_validation(self):
        with pytest.raises(InputError):
            solve_lp(np.array([1.0]), np.array([[1.0]]), np.array([1.0]),
                     np.array([2.0]), np.array([1.0]))

    @pytest.mark.parametrize("lower", [-np.inf, np.nan])
    def test_lower_bound_must_be_finite(self, lower):
        with pytest.raises(InputError):
            solve_lp(np.array([1.0]), np.array([[1.0]]), np.array([1.0]),
                     np.array([lower]), np.array([np.inf]))


def _with_dependent_rows(rng, A, b):
    """A @ x = b plus a copy of row 0 and the sum of rows 1 and 2, shuffled."""
    A = np.vstack([A, A[0], A[1] + A[2]])
    b = np.concatenate([b, [b[0], b[1] + b[2]]])
    order = rng.permutation(len(b))
    return A[order], b[order]


def _check_against_highs(c, A, b, lower, upper):
    """solve_lp agrees with HiGHS on the optimum; with no finite upper bound
    and zero lower bounds the duals also price the optimum, y @ b == value."""
    mine = solve_lp(c, A, b, lower, upper)
    ref = scipy.optimize.linprog(
        c, A_eq=A, b_eq=b,
        bounds=[(lo, None if np.isinf(hi) else hi)
                for lo, hi in zip(lower, upper)],
        method="highs")
    assert ref.status == 0
    assert mine.status == "optimal"
    assert mine.value == pytest.approx(ref.fun, abs=1e-7)
    assert np.abs(A @ mine.x - b).max() < 1e-7
    assert (mine.x >= lower - 1e-9).all() and (mine.x <= upper + 1e-9).all()
    if np.isinf(upper).all() and not lower.any():
        assert mine.y @ b == pytest.approx(mine.value, abs=1e-7)
        assert (c - mine.y @ A).min() >= -1e-7
    return mine


class TestRankDeficientLP:
    """Rows that phase 1 cannot clear of their artificial variables."""

    @pytest.mark.parametrize("seed", range(20))
    def test_duplicated_and_combined_rows_match_highs(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(3, 6)), int(rng.integers(6, 10))
        A = rng.standard_normal((m, n))
        b = A @ rng.uniform(0.0, 1.0, size=n)
        A, b = _with_dependent_rows(rng, A, b)
        # c - y0 @ A > 0 for some y0, so the optimum is finite
        c = rng.standard_normal(m + 2) @ A + rng.uniform(0.1, 1.0, size=n)
        _check_against_highs(c, A, b, np.zeros(n), np.full(n, np.inf))

    @pytest.mark.parametrize("seed", range(10))
    def test_dependent_rows_with_shifted_and_fixed_bounds(self, seed):
        rng = np.random.default_rng(100 + seed)
        c, A, b, lower, upper = _bounded_equality_lp(rng, 3, 8)
        A, b = _with_dependent_rows(rng, A, b)
        _check_against_highs(c, A, b, lower, upper)

    @pytest.mark.parametrize("seed", range(10))
    def test_zero_rhs_row_forces_its_support_to_zero(self, seed):
        # row 0 reads -w0 x0 - w1 x1 = 0 and has no positive entry, so a
        # ratio test rarely picks its artificial: in 8 of these 10 seeds it
        # ends phase 1 basic at zero
        rng = np.random.default_rng(200 + seed)
        m, n = 3, 7
        x0 = rng.uniform(0.0, 1.0, size=n)
        x0[:2] = 0.0
        A = rng.standard_normal((m, n))
        zero_row = np.zeros(n)
        zero_row[:2] = -rng.uniform(0.5, 2.0, size=2)
        A = np.vstack([zero_row, A])
        b = A @ x0
        c = rng.standard_normal(m + 1) @ A + rng.uniform(0.1, 1.0, size=n)
        sol = _check_against_highs(c, A, b, np.zeros(n), np.full(n, np.inf))
        assert np.abs(sol.x[:2]).max() < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_infeasible_with_redundant_row_gives_farkas_vector(self, seed):
        rng = np.random.default_rng(300 + seed)
        m, n = 3, 6
        A = rng.standard_normal((m, n))
        b = A @ rng.uniform(0.0, 1.0, size=n)
        A, b = _with_dependent_rows(rng, A, b)
        A = np.vstack([A, A[0]])          # row 0 again, one unit off
        b = np.append(b, b[0] + 1.0)
        ref = scipy.optimize.linprog(np.zeros(n), A_eq=A, b_eq=b,
                                     bounds=(0, None), method="highs")
        assert ref.status == 2
        sol = solve_lp(np.zeros(n), A, b, np.zeros(n), np.full(n, np.inf))
        assert sol.status == "infeasible"
        y = sol.certificate
        assert (y @ A).max() <= 1e-7
        assert y @ b > 0


def _highs(c, A, b, lower, upper):
    return scipy.optimize.linprog(
        c, A_eq=A, b_eq=b,
        bounds=[(lo, None if np.isinf(hi) else hi)
                for lo, hi in zip(lower, upper)],
        method="highs")


def _boxed_farkas_margin(y, A, b, lower, upper):
    """y @ b minus the largest y @ A @ x over the finite box lower <= x <= upper.

    A positive margin proves that no x in the box meets A @ x = b."""
    g = y @ A
    return y @ b - np.maximum(g * lower, g * upper).sum()


def _open_farkas_margin(y, A, b, lower, upper):
    """_boxed_farkas_margin where some upper bounds are inf.  There the
    solve_lp contract asks g_j = (y @ A)_j <= FEAS_TOL (rounding leaves
    about 1e-16 where g_j is 0), and the largest g_j x_j over x_j >= lower_j
    is taken as g_j lower_j."""
    open_ = np.isinf(upper)
    assert ((y @ A)[open_] <= FEAS_TOL * max(1.0, np.abs(y).max())).all()
    return _boxed_farkas_margin(y, A, b, lower, np.where(open_, lower, upper))


def _membership_node_lp(S, target, caps, commits):
    """The average-hull node LP: S^T (a - b) = target, a_i + b_i - t_i + w_i
    = 0, 0 <= a_i, b_i <= caps_i, t_i >= commits_i, minimising sum t_i."""
    k, n = S.shape
    A = np.vstack([
        np.hstack([S.T, -S.T, np.zeros((n, 2 * k))]),
        np.hstack([np.eye(k), np.eye(k), -np.eye(k), np.eye(k)]),
    ])
    b = np.concatenate([target, np.zeros(k)])
    c = np.concatenate([np.zeros(2 * k), np.ones(k), np.zeros(k)])
    zeros, inf = np.zeros(k), np.full(k, np.inf)
    return (c, A, b, np.concatenate([zeros, zeros, commits, zeros]),
            np.concatenate([caps, caps, inf, inf]))


class TestBoundedVariables:
    """LPs whose finite upper bounds decide the pivots: bound flips, basics
    that leave at their upper bound, fixed columns and unbounded rays."""

    @pytest.mark.parametrize("seed", range(10))
    def test_entering_column_reaches_its_own_upper_bound(self, seed):
        # narrow ranged columns against slacks with room to spare: a column
        # that enters hits its upper bound before any basic variable blocks
        rng = np.random.default_rng(400 + seed)
        m, n = int(rng.integers(2, 5)), int(rng.integers(3, 8))
        A = rng.uniform(0.1, 1.0, size=(m, n))
        lower = rng.uniform(-1.0, 1.0, size=n)
        upper = lower + rng.uniform(0.1, 0.5, size=n)
        b = A @ upper + rng.uniform(5.0, 10.0, size=m)
        c = np.concatenate([rng.uniform(-2.0, 0.5, size=n), np.zeros(m)])
        sol = _check_against_highs(
            c, np.hstack([A, np.eye(m)]), b,
            np.concatenate([lower, np.zeros(m)]),
            np.concatenate([upper, np.full(m, np.inf)]))
        falling = c[:n] < 0
        assert np.abs(sol.x[:n][falling] - upper[falling]).max() < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_basics_leave_at_their_upper_bound(self, seed):
        # s = D z with s in a narrow box and z cheap to raise: the basic s
        # climb to their upper bounds and leave the basis there
        rng = np.random.default_rng(500 + seed)
        m, k = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        D = rng.uniform(0.2, 1.0, size=(m, k))
        z_lower = rng.uniform(-1.0, 1.0, size=k)
        s_mid = D @ z_lower
        s_lower = s_mid - rng.uniform(0.0, 0.2, size=m)
        s_upper = s_mid + rng.uniform(0.1, 0.5, size=m)
        A = np.hstack([-D, np.eye(m)])
        c = np.concatenate([-rng.uniform(0.5, 2.0, size=k),
                            rng.uniform(-0.1, 0.1, size=m)])
        lower = np.concatenate([z_lower, s_lower])
        upper = np.concatenate([z_lower + 5.0, s_upper])
        sol = _check_against_highs(c, A, np.zeros(m), lower, upper)
        assert np.isclose(sol.x[k:], s_upper, atol=1e-9).any()

    @pytest.mark.parametrize("seed", range(10))
    def test_fixed_columns_and_zero_caps(self, seed):
        # membership node LPs with some caps 0, so both alpha parts of those
        # generators are fixed at 0, plus a fixed column at a nonzero value
        rng = np.random.default_rng(600 + seed)
        k = int(rng.integers(4, 7))
        S = rng.standard_normal((k, 2))
        caps = rng.integers(0, 3, size=k).astype(float)
        caps[int(rng.integers(k))] = 0.0
        caps[int(rng.integers(k))] = 2.0
        alpha = rng.uniform(-1.0, 1.0, size=k) * caps
        commits = np.minimum(rng.integers(0, 2, size=k), caps)
        c, A, b, lower, upper = _membership_node_lp(S, S.T @ alpha, caps, commits)
        fixed_value = rng.uniform(-1.0, 1.0)
        column = rng.standard_normal(A.shape[0])
        A = np.hstack([A, column[:, None]])
        b = b + column * fixed_value
        c = np.append(c, rng.standard_normal())
        lower = np.append(lower, fixed_value)
        upper = np.append(upper, fixed_value)
        sol = _check_against_highs(c, A, b, lower, upper)
        fixed = lower == upper
        assert fixed.sum() >= 3
        assert np.abs(sol.x[fixed] - lower[fixed]).max() < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_unbounded_ray_through_an_uncapped_column(self, seed):
        # columns a and -a, both uncapped, with a negative summed cost: raising
        # both together keeps A @ x fixed and lowers the objective forever
        rng = np.random.default_rng(700 + seed)
        c, A, b, lower, upper = _bounded_equality_lp(rng, 3, 6)
        a = rng.standard_normal(3)
        p_lower, q_lower = rng.uniform(-1.0, 1.0, size=2)
        A = np.hstack([A, a[:, None], -a[:, None]])
        b = b + a * (p_lower - q_lower)
        cost_p = rng.uniform(-2.0, 2.0)
        c = np.concatenate([c, [cost_p, -cost_p - rng.uniform(0.1, 1.0)]])
        lower = np.concatenate([lower, [p_lower, q_lower]])
        upper = np.concatenate([upper, [np.inf, np.inf]])
        assert _highs(c, A, b, lower, upper).status == 3
        assert solve_lp(c, A, b, lower, upper).status == "unbounded"

    def test_no_rows_puts_each_column_at_its_cheaper_bound(self):
        A, b = np.zeros((0, 3)), np.zeros(0)
        c = np.array([1.0, -1.0, 0.5])
        lower, upper = np.array([0.5, -1.0, 2.0]), np.array([1.0, 2.0, np.inf])
        sol = solve_lp(c, A, b, lower, upper)
        assert sol.status == "optimal"
        assert sol.x.tolist() == [0.5, 2.0, 2.0] and sol.value == -0.5
        c[2] = -0.5
        assert solve_lp(c, A, b, lower, upper).status == "unbounded"

    def test_a_basic_just_past_its_bound_is_clipped(self):
        # the envelope LP of [[1, 0], [1, 1e-12], [0, 1e-4]] at (2, 1e-12):
        # the optimal basis holds the s2 weight at -1e-8, within tolerance
        P = np.array([[1.0, 0.0], [1.0, 1e-12], [0.0, 1e-4]])
        sol = solve_lp(np.ones(6), np.hstack([P.T, -P.T]), P[0] + P[1],
                       np.zeros(6), np.full(6, np.inf))
        assert sol.status == "optimal"
        assert sol.x.min() == 0.0 and sol.value == 2.0

    def test_a_basic_far_past_its_bound_raises(self, monkeypatch):
        # phase 2's basic values moved 1e-6 below 0: past the 1e-8 tolerance
        real, calls = optim._pivot_loop, []

        def shifted(*args):
            status, basis, xB, y = real(*args)
            calls.append(status)
            if len(calls) == 2:
                xB = xB.copy()
                xB[0] = -1e-6
            return status, basis, xB, y

        monkeypatch.setattr(optim, "_pivot_loop", shifted)
        with pytest.raises(NumericalError, match="outside its bounds"):
            solve_lp(np.array([1.0, 2.0]), np.array([[1.0, 1.0]]),
                     np.array([1.0]), np.zeros(2), np.full(2, np.inf))

    def test_replayed_membership_node_lps_match_highs(self, monkeypatch):
        # every node LP of acceptance criterion 10's grid at m = 3, recorded
        # from the branch-and-bound search with the solution the search got
        # (warm-started from the parent's basis below the root) and checked
        # against HiGHS
        recorded = []

        def record(*args, start):
            sol = solve_lp(*args, start=start)
            recorded.append(([np.array(arg, dtype=float) for arg in args],
                             start, sol))
            return sol

        monkeypatch.setattr(hulls, "solve_lp", record)
        angles = [0.37, 1.91, 3.85, 5.2]
        S = GeneratingSet(2, np.array([[math.cos(a), math.sin(a)]
                                       for a in angles]))
        grid = np.linspace(-1.4, 1.4, 21)
        for gx in grid:
            for gy in grid:
                hulls.delta_m_membership(S, 3, np.array([gx, gy]))
        assert len(recorded) == 717
        infeasible = warm = 0
        for (c, A, b, lower, upper), start, mine in recorded:
            warm += start is not None
            ref = _highs(c, A, b, lower, upper)
            if ref.status == 2:
                assert mine.status == "infeasible"
                assert _open_farkas_margin(mine.certificate, A, b, lower,
                                           upper) > 0
                infeasible += 1
                continue
            assert ref.status == 0 and mine.status == "optimal"
            assert mine.value == pytest.approx(ref.fun, abs=1e-7)
            assert np.abs(A @ mine.x - b).max() < 1e-7
            assert (mine.x >= lower - 1e-9).all()
            assert (mine.x <= upper + 1e-9).all()
        assert infeasible == 30
        assert warm == 717 - 21 * 21

    @pytest.mark.parametrize("seed", range(50))
    def test_infeasible_box_has_bounded_farkas_certificate(self, seed):
        # b lies beyond the box's image along a random y, by a margin of at
        # least 0.1: HiGHS confirms infeasibility, and the certificate y
        # must prove it, y @ b > max of y @ A @ x over the box
        rng = np.random.default_rng(800 + seed)
        m, n = int(rng.integers(1, 5)), int(rng.integers(2, 8))
        A = rng.standard_normal((m, n))
        lower = rng.uniform(-2.0, 2.0, size=n)
        upper = lower + rng.uniform(0.2, 1.5, size=n)
        x0 = rng.uniform(lower, upper)
        y = rng.standard_normal(m)
        g = y @ A
        reach = np.maximum(g * lower, g * upper).sum() - g @ x0
        b = A @ x0 + y * (reach + rng.uniform(0.1, 1.0)) / (y @ y)
        c = rng.standard_normal(n)
        assert _highs(c, A, b, lower, upper).status == 2
        sol = solve_lp(c, A, b, lower, upper)
        assert sol.status == "infeasible"
        assert _boxed_farkas_margin(sol.certificate, A, b, lower, upper) > 0


def _children(rng, lp, sol):
    """Branch-and-bound children of a solved LP, each one bound away:
    an upper bound lowered below its basic value, a lower bound raised
    above it, and a column fixed at [0, 0]."""
    c, A, b, lower, upper = lp
    basis = sol.basis[0]
    basic = basis[basis < len(c)]
    above = basic[sol.x[basic] > lower[basic] + 1e-6]
    if above.size:
        j = rng.choice(above)
        up = upper.copy()
        up[j] = lower[j] + (sol.x[j] - lower[j]) * rng.uniform(0.1, 0.9)
        yield c, A, b, lower, up
    below = basic[sol.x[basic] < upper[basic] - 1e-6]
    if below.size:
        j = rng.choice(below)
        lo = lower.copy()
        room = upper[j] - sol.x[j] if np.isfinite(upper[j]) else 2.0
        lo[j] = sol.x[j] + room * rng.uniform(0.1, 0.9)
        yield c, A, b, lo, upper
    j = rng.choice(basic) if basic.size else rng.integers(len(c))
    lo, up = lower.copy(), upper.copy()
    lo[j] = up[j] = 0.0
    yield c, A, b, lo, up


class TestWarmStart:
    """solve_lp from a parent's optimal basis: the bounded dual simplex."""

    @pytest.mark.parametrize("seed", range(12))
    def test_children_from_the_parent_basis_match_highs(self, seed):
        rng = np.random.default_rng(900 + seed)
        outcomes = set()
        for _ in range(5):
            m, n = int(rng.integers(2, 5)), int(rng.integers(5, 10))
            lp = _bounded_equality_lp(rng, m, n)
            parent = solve_lp(*lp)
            assert parent.status == "optimal"
            for child in _children(rng, lp, parent):
                c, A, b, lower, upper = child
                ref = _highs(*child)
                warm = solve_lp(*child, start=parent.basis)
                outcomes.add(warm.status)
                if ref.status == 2:
                    assert warm.status == "infeasible"
                    assert _open_farkas_margin(warm.certificate, A, b,
                                               lower, upper) > 0
                    continue
                assert ref.status == 0 and warm.status == "optimal"
                assert warm.value == pytest.approx(ref.fun, abs=1e-7)
                assert np.abs(A @ warm.x - b).max() < 1e-7
                assert (warm.x >= lower - 1e-9).all()
                assert (warm.x <= upper + 1e-9).all()
                # the child's basis starts its own children
                again = solve_lp(*child, start=warm.basis)
                assert again.value == pytest.approx(warm.value, abs=1e-9)
        assert outcomes == {"optimal", "infeasible"}

    def test_start_is_left_unchanged(self):
        rng = np.random.default_rng(950)
        lp = _bounded_equality_lp(rng, 3, 8)
        parent = solve_lp(*lp)
        basis, direction = (v.copy() for v in parent.basis)
        for child in _children(rng, lp, parent):
            solve_lp(*child, start=parent.basis)
        assert np.array_equal(parent.basis[0], basis)
        assert np.array_equal(parent.basis[1], direction)

    def test_start_that_is_not_dual_feasible_raises(self):
        A, b, c = _random_lp(np.random.default_rng(951), 3, 5)
        M, lower, upper = _to_equalities(A, b, 5)
        c = np.concatenate([c, np.zeros(3)])
        parent = solve_lp(c, M, b, lower, upper)
        # the same basis prices -c wrongly on every nonbasic column that
        # may enter and has a nonzero reduced cost
        free = parent.basis[1][:8] != 0
        assert np.abs(c - parent.y @ M)[free].max() > 1e-3
        with pytest.raises(InputError, match="dual feasible"):
            solve_lp(-c, M, b, lower, upper, start=parent.basis)

    def test_singular_or_malformed_start_raises(self):
        # columns 0 and 1 are equal, so no basis holds both
        A = np.array([[1.0, 1.0, 2.0], [0.5, 0.5, 1.0 + 1e-3]])
        lp = (np.ones(3), A, A @ np.ones(3), np.zeros(3), np.full(3, 4.0))
        direction = np.array([0.0, 0.0, -1.0, 0.0, 0.0])
        with pytest.raises(InputError, match="singular"):
            solve_lp(*lp, start=(np.array([0, 1]), direction))
        for basis, d in (([0, 0], direction), ([0, 5], direction),
                         ([0], direction), ([0, 2], direction[:4])):
            with pytest.raises(InputError):
                solve_lp(*lp, start=(np.array(basis), d))
        unbounded = (lp[0], A, lp[2], np.zeros(3), np.array([4.0, np.inf, 4.0]))
        with pytest.raises(InputError, match="infinite"):
            solve_lp(*unbounded, start=(np.array([0, 2]),
                                        np.array([0.0, 1.0, 0.0, 0.0, 0.0])))


def _reference_pivot_loop(c, M, b, upper, basis, direction, max_iter):
    """The simplex iteration _pivot_loop replaced, with its ratio test on
    masked arrays and np.outer; same arithmetic, more numpy calls."""
    m = len(b)
    bland = False
    degenerate_run = 0
    since = m
    for _ in range(max_iter):
        if since >= m:
            Binv = np.linalg.inv(M[:, basis])
            up = direction > 0
            xB = Binv @ (b - M[:, up] @ upper[up])
            since = 0
        y = c[basis] @ Binv
        score = (c - y @ M) * direction
        if bland:
            eligible = np.flatnonzero(score > FEAS_TOL)
            if eligible.size == 0:
                return "optimal", basis, xB, y
            j = int(eligible[0])
        else:
            j = int(np.argmax(score))
            if score[j] <= FEAS_TOL:
                return "optimal", basis, xB, y
        alpha = Binv @ M[:, j]
        d = -direction[j] * alpha
        moved = np.abs(d) > FEAS_TOL
        ratios = np.full(m, np.inf)
        ratios[moved] = np.where(d > 0, xB, xB - upper[basis])[moved] / d[moved]
        t = ratios.min(initial=np.inf)
        if upper[j] <= t:
            if upper[j] == np.inf:
                return "unbounded", basis, xB, y
            xB -= upper[j] * d
            direction[j] = -direction[j]
            degenerate_run = 0
            continue
        r = int(np.argmin(ratios))
        if bland:
            ties = np.flatnonzero(ratios <= t + FEAS_TOL)
            r = int(ties[np.argmin(basis[ties])])
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
        row = Binv[r] / alpha[r]
        Binv -= np.outer(alpha, row)
        Binv[r] = row
        since += 1
    raise NumericalError("cycling guard exceeded (simplex iteration cap)")


def _beale():
    """Beale's (1955) LP, on which Dantzig pricing cycles: it runs the
    Bland fallback."""
    A = np.array([[1.0, 0, 0, 0.25, -8, -1, 9], [0, 1, 0, 0.5, -12, -0.5, 3],
                  [0, 0, 1, 0, 0, 1, 0]])
    c = np.array([0.0, 0, 0, -0.75, 20, -0.5, 6])
    return c, A, np.array([0.0, 0.0, 1.0]), np.zeros(7), np.full(7, np.inf)


def _envelope_lps(count):
    angles = np.linspace(0.0, 2.0 * math.pi, 65)[:-1]
    S = np.column_stack([np.cos(angles), np.sin(angles)])
    A = np.hstack([S.T, -S.T])
    rng = np.random.default_rng(12)
    for _ in range(count):
        w = rng.dirichlet(np.ones(64)) * rng.uniform(0.1, 1.0)
        x = (rng.choice([-1.0, 1.0], size=64) * w) @ S
        yield np.ones(128), A, x, np.zeros(128), np.full(128, np.inf)


class TestPivotLoopBits:
    """solve_lp gives the same bits with the former simplex iteration."""

    @staticmethod
    def _instances():
        rng = np.random.default_rng(13)
        yield _beale()
        yield from _envelope_lps(20)
        for _ in range(20):
            A, b, c = _random_lp(rng, 4, 7)
            M, lower, upper = _to_equalities(A, b, 7)
            yield np.concatenate([c, np.zeros(4)]), M, b, lower, upper
        for _ in range(20):
            yield _bounded_equality_lp(rng, 3, 8)
        yield (np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.zeros(1),
               np.zeros(2), np.full(2, np.inf))  # unbounded along (1, 1)
        yield (np.ones(2), np.array([[1.0, 1.0]]), np.array([3.0]),
               np.zeros(2), np.ones(2))  # infeasible box

    @staticmethod
    def _node_lps(monkeypatch):
        # branch-and-bound node LPs of criterion 10's generators: ranged
        # and fixed columns, degenerate vertices; each with its start.  At
        # m = 3 every search ends at its root; at m = 1, 40 children replay
        # the dual loop before the primal one
        recorded = []

        def record(*args, **start):
            recorded.append((args, start))
            return solve_lp(*args, **start)

        angles = [0.37, 1.91, 3.85, 5.2]
        S = GeneratingSet(2, np.array([[math.cos(a), math.sin(a)]
                                       for a in angles]))
        with monkeypatch.context() as patch:
            patch.setattr(hulls, "solve_lp", record)
            for m in (3, 1):
                for gx in np.linspace(-1.4, 1.4, 7):
                    for gy in np.linspace(-1.4, 1.4, 7):
                        hulls.delta_m_membership(S, m, np.array([gx, gy]))
        return recorded

    def test_same_bits_as_the_masked_array_iteration(self, monkeypatch):
        node_lps = self._node_lps(monkeypatch)
        assert sum(start["start"] is not None for _, start in node_lps) == 40
        lps = [(lp, {}) for lp in self._instances()] + node_lps

        def solve_all():
            return [solve_lp(*lp, **start) for lp, start in lps]

        fast = solve_all()
        monkeypatch.setattr(optim, "_pivot_loop", _reference_pivot_loop)
        statuses = set()
        for new, old in zip(fast, solve_all(), strict=True):
            statuses.add(new.status)
            assert new.status == old.status and new.value == old.value
            for field in ("x", "y", "certificate"):
                a, b = getattr(new, field), getattr(old, field)
                assert (a is None and b is None) or np.array_equal(a, b)
        assert statuses == {"optimal", "unbounded", "infeasible"}

    def test_beale_runs_the_bland_fallback(self, monkeypatch):
        # the degenerate-run guard is crossed: 61 zero steps in a row
        runs = []
        real = optim._pivot_loop

        def watched(c, M, b, upper, basis, direction, max_iter):
            result = real(c, M, b, upper, basis, direction, max_iter)
            runs.append(result[0])
            return result

        monkeypatch.setattr(optim, "_pivot_loop", watched)
        sol = solve_lp(*_beale())
        assert sol.status == "optimal" and sol.value == pytest.approx(-1.25)
        assert runs == ["optimal", "optimal"]


class TestTieBreaks:
    """Which column leaves or enters when ratios tie within FEAS_TOL."""

    def test_bland_ratio_tie_goes_to_the_lowest_basis_index(self, monkeypatch):
        # Beale's LP from its slack basis: Dantzig pricing cycles until the
        # degenerate-run guard turns on Bland's rule.  Its second pivot
        # brings column 5 into the basis (3, 4, 2), where the rows of 3 and
        # 4 both block it at ratio 0; the lower basis index, 3, leaves
        c, A, b, _, upper = _beale()
        basis = np.array([0, 1, 2])
        direction = np.array([0.0, 0.0, 0.0, -1.0, -1.0, -1.0, -1.0])
        last, pivots = basis.copy(), []
        real_eta = optim._eta

        def eta(Binv, alpha, r):
            pivots.append((int(last[r]), int(basis[r])))  # (leaves, enters)
            last[:] = basis
            real_eta(Binv, alpha, r)

        monkeypatch.setattr(optim, "_eta", eta)
        status, basis, xB, _ = optim._pivot_loop(c, A, b, upper, basis,
                                                 direction, 1000)
        assert len(pivots) > 61
        assert pivots[-5:] == [(1, 4), (3, 5), (4, 0), (2, 1), (1, 3)]
        B = A[:, [3, 4, 2]]
        x_tie, alpha = np.linalg.solve(B, b), np.linalg.solve(B, A[:, 5])
        assert (x_tie[:2] == 0).all() and (alpha[:2] > FEAS_TOL).all()
        assert status == "optimal" and basis.tolist() == [5, 0, 3]
        assert c[basis] @ xB == pytest.approx(-1.25)

    def test_dual_ratio_tie_goes_to_the_lowest_column(self):
        # z0 - z1 - z2 = -1 from the basis {z0}: z0 = -1 leaves, and z1 or
        # z2 can enter, at reduced-cost ratios 1 + 5e-10 and 1.  They tie
        # within FEAS_TOL, so z1 enters although z2's ratio is smaller,
        # and the primal check then keeps it
        A = np.array([[1.0, -1.0, -1.0]])
        start = (np.array([0]), np.array([0.0, -1.0, -1.0, 0.0]))
        sol = solve_lp(np.array([0.0, 1.0 + 5e-10, 1.0]), A, np.array([-1.0]),
                       np.zeros(3), np.full(3, np.inf), start=start)
        assert sol.status == "optimal"
        assert sol.x.tolist() == [0.0, 1.0, 0.0]
        assert sol.basis[0].tolist() == [1]


class TestMVEE:
    def test_cross_polytope_gives_unit_ball(self):
        pts = np.vstack([np.eye(3), -np.eye(3)])
        E = mvee(pts, tolerance=1e-9)
        assert np.abs(E.shape_matrix / E.scale - np.eye(3)).max() < 1e-6

    def test_cube_gives_sqrt_n_ball(self):
        import itertools
        for n in (2, 3, 4):
            pts = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
            E = mvee(pts, tolerance=1e-9)
            # ball of radius sqrt(n): y (M/scale) y <= 1 with M/scale = I/n
            assert np.abs(E.shape_matrix / E.scale - np.eye(n) / n).max() < 1e-6

    def test_diagonal_scaling_recovered_exactly(self):
        D = np.diag([3.0, 1.0, 0.5])
        pts = np.vstack([np.eye(3), -np.eye(3)]) @ D
        E = mvee(pts, tolerance=1e-10)
        want = np.diag(1.0 / np.diag(D) ** 2)
        assert np.abs(E.shape_matrix / E.scale - want).max() < 1e-6

    def test_all_points_contained(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((40, 4))
        E = mvee(pts)
        for x in pts:
            assert x @ E.shape_matrix @ x <= E.scale * (1 + 1e-5)

    def test_john_sandwich_factor_sqrt_n(self):
        # symmetric John: E/sqrt(n) lies inside the hull; spot-check by
        # support comparison along many directions
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((30, 3))
        pts = np.vstack([pts, -pts])
        E = mvee(pts, tolerance=1e-9)
        n = 3
        for _ in range(100):
            u = rng.standard_normal(n)
            hull = np.abs(pts @ u).max()
            assert E.support(u) <= hull * np.sqrt(n) * (1 + 1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_points_once_match_mirrored_points(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((120, 8))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        Y = pts @ Q
        once, mirrored = mvee(Y), mvee(np.vstack([Y, -Y]))
        A = once.shape_matrix / once.scale
        B = mirrored.shape_matrix / mirrored.scale
        assert np.abs(A - B).max() <= 1e-6 * np.abs(B).max()

    @pytest.mark.parametrize("tolerance", [1e-7, 1e-9])
    def test_returned_matrix_meets_the_tolerance(self, tolerance):
        # the stopping gap is read on the matrix that is returned.  The mix is
        # orthogonal, so the 10^±1 scales set the conditioning, and rounding
        # in the quadratic form stays over 100 times below the margin by
        # which these inputs pass.  Weights summing to 1 put the farthest
        # point on the boundary; weights scaled by c scale every reach by 1/c.
        # Seeds 40-51 are clouds of about 200-500 points with exact duplicate
        # rows and exact +- pairs, where most points are dropped long before
        # the end: the points dropped must stay inside too.
        for seed in range(52):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 6)) if seed < 40 else int(rng.integers(2, 7))
            k = 8 * n if seed < 40 else int(rng.integers(180, 451))
            X = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-1.0, 1.0, n)
            X = X @ np.linalg.qr(rng.standard_normal((n, n)))[0]
            if seed >= 40:
                twins = rng.choice(k, size=k // 10, replace=False)
                X = np.vstack([X, X[twins[::2]], -X[twins[1::2]]])
            E = mvee(X, tolerance=tolerance)
            reach = np.einsum("ij,jk,ik->i", X, E.shape_matrix / E.scale, X)
            assert 1.0 - tolerance <= reach.max() <= 1.0 + tolerance, f"seed {seed}"

    def test_ill_conditioned_input_stays_enclosed(self):
        # cond(X) = 1.7e5.  Rank-one updates that are never recomputed from
        # the weights drift so far here that the stale gap never closes and
        # the ascent hits its iteration cap.  The 1e-5 slack covers the
        # worst-case rounding of the quadratic form at this conditioning.
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 4)) * 10.0 ** rng.uniform(-2.5, 2.5, 4)
        X = X @ rng.standard_normal((4, 4))
        E = mvee(X)
        reach = np.einsum("ij,jk,ik->i", X, E.shape_matrix / E.scale, X)
        assert 1.0 - 1e-5 <= reach.max() <= 1.0 + 1e-5

    def test_non_unique_optimal_weights_converge(self):
        # seven projected points carry weight at the optimum, one more than
        # the n(n+1)/2 = 6 a generic optimum in R^3 needs; coordinate steps
        # alone keep the gap near 1e-6 for 10^5 steps and hit the cap
        pts = np.random.default_rng(102).standard_normal((500, 40))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        P = random_projection(40, 3, np.random.SeedSequence(141540980).spawn(2)[0])
        Y = pts @ P.T
        E = mvee(Y)
        reach = np.einsum("ij,jk,ik->i", Y, E.shape_matrix / E.scale, Y)
        assert 1.0 - 1e-7 <= reach.max() <= 1.0 + 1e-7

    def test_degenerate_input_raises(self):
        with pytest.raises(DegeneracyError):
            mvee(np.array([[1.0, 0.0], [-1.0, 0.0]]))

    def test_ellipsoid_validation(self):
        with pytest.raises(InputError):
            Ellipsoid(np.array([[1.0, 0.0], [0.0, -1.0]]), 1.0)
        with pytest.raises(InputError):
            Ellipsoid(np.eye(2), 0.0)

    def test_support_and_enorm_consistency(self):
        E = Ellipsoid(np.diag([4.0, 1.0]), 1.0)
        # the support along e1 is the semi-axis 1/2
        assert E.support([1.0, 0.0]) == pytest.approx(0.5)


def _kkt_residual(K, d):
    """|(K*K) d + mu 1 - diag K| with mu fitted, over the scale of diag K."""
    r = np.diag(K) - (K * K) @ d
    return np.abs(r - r.mean()).max() / np.abs(np.diag(K)).max()


class TestNewtonDirection:
    @pytest.mark.parametrize("seed", range(4))
    def test_singular_system_from_duplicates_and_negations(self, seed):
        # five points in general position in R^3 (K*K of rank 5 <= 6), each
        # repeated exactly and negated: K*K is singular, the rows of a twin
        # or a +- pair being equal
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((5, 3))
        Y = np.vstack([Y, Y[:3], -Y[1:4], -Y[:1]])
        M = np.linalg.inv(Y.T @ Y / len(Y))
        K = Y @ M @ Y.T
        assert np.linalg.matrix_rank(K * K) == 5
        d = _newton_direction(K)
        assert _kkt_residual(K, d) <= 1e-9
        assert abs(d.sum()) <= 1e-9 * np.abs(d).max()

    @pytest.mark.parametrize("seed", range(4))
    def test_nonsingular_system_matches_lstsq(self, seed):
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((6, 3))
        M = np.linalg.inv(Y.T @ (rng.dirichlet(np.ones(6))[:, None] * Y))
        K = Y @ M @ Y.T
        kkt = np.block([[K * K, np.ones((6, 1))], [np.ones((1, 6)), np.zeros((1, 1))]])
        want = np.linalg.lstsq(kkt, np.append(np.diag(K), 0.0), rcond=None)[0][:-1]
        d = _newton_direction(K)
        assert np.abs(d - want).max() <= 1e-9 * np.abs(want).max()
        assert _kkt_residual(K, d) <= 1e-9

    def test_seven_weighted_points_in_r3_keep_the_long_step(self):
        # seven points of S nearly on one ellipsoid in R^3, one more than
        # n(n+1)/2 = 6: the bordered Newton system has an eigenvalue 1.6e-13
        # of its largest, and its long step is what zeroes the seventh weight.
        # Cut at 1e-12 instead, the Newton steps raise log det V by about
        # 1e-11 each, the gap stays near 7e-7 and the ascent hits its cap.
        pts = np.random.default_rng(710).standard_normal((500, 40))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        P = random_projection(40, 3, np.random.SeedSequence(782684304).spawn(2)[0])
        Y = pts @ P.T
        E = mvee(Y)
        reach = np.einsum("ij,jk,ik->i", Y, E.shape_matrix / E.scale, Y)
        assert 1.0 - 1e-7 <= reach.max() <= 1.0 + 1e-7


class TestGaugeMax:
    def test_lp_ball_nonconvexity_found(self):
        body = lp_ball_body(3, 0.5)
        value, point = max_gauge_over_polytope(
            body, body.generators.with_negations(), seed=0)
        assert value == pytest.approx(3.0 ** (1.0 / 0.5 - 1.0), rel=1e-3)

    def test_monotone_under_vertex_addition(self):
        body = lp_ball_body(2, 0.5)
        small = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        big = np.vstack([small, [[0.9, 0.9], [-0.9, -0.9]]])
        v1, _ = max_gauge_over_polytope(body, small, seed=1)
        v2, _ = max_gauge_over_polytope(body, big, seed=1)
        assert v2 >= v1 - 1e-9
