import math

import numpy as np
import pytest
import scipy.optimize

from geomhull import balance, bodies
from geomhull.bodies import (GeneratingSet, PBody, delta_nonconvexity,
                             envelope_gauge, fmt17, generating_set_to_json,
                             load_generating_set_json, lp_ball_body)
from geomhull.cube import _decompose_vertex, vector_of_mask
from geomhull.errors import InputError, NumericalError, PhaseError
from geomhull.optim import solve_lp


class TestGeneratingSet:
    def test_rank_check(self):
        with pytest.raises(InputError):
            GeneratingSet(2, np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_with_negations_doubles(self):
        S = GeneratingSet(2, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert S.with_negations().shape == (4, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            GeneratingSet(3, np.eye(2))


class TestGauges:
    def test_lp_batch_gauge_closed_form(self):
        body = lp_ball_body(3, 0.5)
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(50, 3))
        want = (np.abs(X) ** 0.5).sum(axis=1) ** 2.0
        assert np.abs(body.batch_gauge(X) - want).max() < 1e-12

    def test_p_gauge_search_matches_analytic(self):
        # the minimum over bases runs even where the closed form exists
        rng = np.random.default_rng(1)
        for n in (2, 3):
            body = lp_ball_body(n, 0.5)
            for _ in range(10):
                x = rng.uniform(-1, 1, size=n)
                exact = float((np.abs(x) ** 0.5).sum() ** 2.0)
                got = float(body._exact_gauge(x[None, :])[0])
                assert got == pytest.approx(exact, rel=1e-12)

    def test_lp_ball_kind_is_detected(self):
        rng = np.random.default_rng(4)
        signed = np.vstack([np.eye(3), -np.eye(3)])
        shuffled = GeneratingSet(3, signed[rng.permutation(6)])
        assert PBody(shuffled, 0.5).analytic_kind == "lp_ball"
        assert PBody(GeneratingSet(2, np.eye(2)), 0.5).analytic_kind == "generic"
        doubled = GeneratingSet(2, np.array([[1.0, 0.0], [1.0, 0.0],
                                             [0.0, 1.0], [0.0, -1.0]]))
        assert PBody(doubled, 0.5).analytic_kind == "generic"

    def test_envelope_gauge_known_values(self):
        S = GeneratingSet(2, np.eye(2))
        cert = envelope_gauge(S, np.array([1.0, 1.0]))
        assert cert.value == pytest.approx(2.0, abs=1e-9)
        # certificate reconstructs the point
        assert np.abs(S.points.T @ cert.coefficients
                      - np.array([1.0, 1.0])).max() < 1e-9

    def test_envelope_gauge_homogeneous(self):
        rng = np.random.default_rng(2)
        S = GeneratingSet(3, rng.standard_normal((6, 3)))
        x = rng.standard_normal(3)
        v1 = envelope_gauge(S, x).value
        v2 = envelope_gauge(S, 2.5 * x).value
        assert v2 == pytest.approx(2.5 * v1, rel=1e-9)

    def test_gauge_one_on_generators(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((8, 3))
        # normalize so no generator dominates another along its own ray
        S = GeneratingSet(3, pts)
        for row in S.points:
            assert envelope_gauge(S, row).value <= 1.0 + 1e-9


def _generic_bodies(p):
    """20 seeded generic bodies, n = 2..4 and k = n+1..n+6 points."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(n + 1, n + 7))
        yield PBody(GeneratingSet(n, rng.standard_normal((k, n))), p), rng


class TestExactGauge:
    def test_p1_matches_the_envelope_lp(self):
        # the reference LP is built here: envelope_gauge reads the same basis
        # table as batch_gauge
        for body, rng in _generic_bodies(1.0):
            assert body.analytic_kind == "generic"
            P = body.generators.points
            k = len(P)
            X = rng.standard_normal((5, body.generators.dimension))
            got = body.batch_gauge(X)
            for x, g in zip(X, got):
                sol = solve_lp(np.ones(2 * k), np.hstack([P.T, -P.T]), x,
                               np.zeros(2 * k), np.full(2 * k, np.inf))
                assert sol.status == "optimal"
                assert abs(g - sol.value) <= 1e-9

    @pytest.mark.parametrize("p", [0.5, 0.75])
    def test_no_representation_beats_the_gauge(self, p):
        # every x = S^T lambda is lambda* + Z w, Z spanning the null space
        for body, rng in _generic_bodies(p):
            S = body.generators.points
            x = rng.standard_normal(S.shape[1])
            gauge = float(body.batch_gauge(x)[0])
            lam = np.linalg.lstsq(S.T, x, rcond=None)[0]
            Z = np.linalg.svd(S.T)[2][S.shape[1]:].T
            for scale in (0.1, 1.0, 10.0):
                W = scale * rng.standard_normal((200, Z.shape[1]))
                reps = lam + W @ Z.T
                assert np.abs(reps @ S - x).max() < 1e-9
                norms = (np.abs(reps) ** p).sum(axis=1) ** (1.0 / p)
                assert norms.min() >= gauge * (1 - 1e-12)

    def test_over_the_cap_is_an_input_error_before_any_work(self, monkeypatch):
        rng = np.random.default_rng(8)
        k = next(k for k in range(3, 100) if math.comb(k, 3) > bodies.MAX_BASES)
        many = rng.standard_normal((k, 3))
        # 61 bases of 60 x 60 hold more entries than MAX_BASES of 6 x 6
        wide = rng.standard_normal((61, 60))

        def enumerate_bases(*args):
            raise AssertionError("the bases were enumerated")

        with monkeypatch.context() as patch:
            patch.setattr(bodies.itertools, "combinations", enumerate_bases)
            for points in (many, wide):
                body = PBody(GeneratingSet(points.shape[1], points), 0.5)
                with pytest.raises(InputError, match="bases"):
                    body.batch_gauge(np.ones(points.shape[1]))
        # one point fewer is within the cap
        assert PBody(GeneratingSet(3, many[1:]), 0.5).batch_gauge(
            np.ones(3)).shape == (1,)

    def test_a_gauge_that_is_not_finite_is_a_numerical_error(self):
        S = GeneratingSet(2, np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.7]]))
        with pytest.raises(NumericalError):
            PBody(S, 0.5).batch_gauge([np.inf, 0.0])
        with pytest.raises(NumericalError):  # (about 2)^2000 overflows
            PBody(S, 0.0005).batch_gauge([1.0, 1.0])


def _circle(k):
    angles = np.linspace(0.0, 2.0 * math.pi, k + 1)[:-1]
    return GeneratingSet(2, np.column_stack([np.cos(angles), np.sin(angles)]))


def _highs_envelope(S, x):
    """The envelope gauge LP over [S^T, -S^T], solved by HiGHS for x / ||x||
    and scaled back: HiGHS's tolerances are absolute."""
    P = S.points
    norm = np.linalg.norm(x)
    if norm == 0:
        return 0.0
    ref = scipy.optimize.linprog(np.ones(2 * len(P)), A_eq=np.hstack([P.T, -P.T]),
                                 b_eq=x / norm, bounds=(0, None), method="highs")
    assert ref.status == 0
    return norm * ref.fun


@pytest.fixture
def lp_calls(monkeypatch):
    """The envelope LPs solved from here on, one argument tuple each."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(bodies, "solve_lp", counting)
    return calls


def _fails_the_dual_check(S, x):
    """The first basis at the table's minimum gives no dual certificate."""
    subsets, inverses, columns = S._basis_table
    coefficients = (x @ columns).reshape(len(subsets), -1)
    first = np.argmin(np.abs(coefficients).sum(axis=1))
    y = inverses[first] @ np.sign(coefficients[first])
    return np.abs(S.points @ y).max() > 1 + 1e-9


class TestEnvelopeTable:
    """envelope_gauge from the basis table, and the LP where the table
    cannot certify its answer, both against HiGHS."""

    def test_type1_points_match_highs(self, lp_calls):
        # the type1 benchmark's 300 request points at seed 101, and every
        # point whose envelope gauge the first 40 of them ask for
        S = _circle(64)
        points = []
        for i in range(300):
            rng = np.random.default_rng([101, i])
            w = rng.dirichlet(np.ones(64)) * rng.uniform(0.1, 1.0)
            points.append((rng.choice([-1.0, 1.0], size=64) * w) @ S.points)
        asked = []

        def recording(S, x):
            asked.append(np.array(x))
            return envelope_gauge(S, x)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(balance, "envelope_gauge", recording)
            for x in points[:40]:
                balance.type1_represent(S, 0.5, 4, x)
        assert len(asked) > 40 * 10
        lp_calls.clear()
        for x in points + asked:
            cert = envelope_gauge(S, x)
            ref = _highs_envelope(S, x)
            assert abs(cert.value - ref) <= 1e-9 * ref
            assert np.abs(cert.coefficients @ S.points - x).max() <= 1e-9
        # the table answers nearly all of them
        assert len(lp_calls) <= (len(points) + len(asked)) // 10

    def test_a_point_on_a_generator_ray_reaches_the_lp(self, lp_calls):
        # x is tied over the bases {i, 30}: the first at the minimum has a
        # coefficient of about 1e-19 on s_i, whose sign gives a y that is no
        # facet normal of the 64-gon
        S = _circle(64)
        x = -0.106 * S.points[30]
        assert _fails_the_dual_check(S, x)
        cert = envelope_gauge(S, x)
        assert len(lp_calls) == 1
        assert cert.value == pytest.approx(_highs_envelope(S, x), rel=1e-9)
        assert np.abs(cert.coefficients @ S.points - x).max() <= 1e-12

    def test_a_basis_the_condition_filter_drops_reaches_the_lp(self, lp_calls):
        # s0 and s1 are nearly parallel: {s0, s1} (condition about 2e12) is
        # optimal for x = s0 + s1 and missing from the table, whose best
        # basis {s0, s2} is worse by 1e-8 and fails the dual check
        P = np.array([[1.0, 0.0], [1.0, 1e-12], [0.0, 1e-4]])
        S = GeneratingSet(2, P)
        x = P[0] + P[1]
        assert [0, 1] not in S._basis_table[0].tolist()
        assert _fails_the_dual_check(S, x)
        cert = envelope_gauge(S, x)
        assert len(lp_calls) == 1
        # solve_lp's basis holds s2 at -1e-8, within tolerance of its bound
        # of 0, so the answer is clipped there (not 2 + 1e-8); HiGHS reports
        # 2 - 1e-8
        assert abs(cert.value - 2) <= 1e-12
        assert cert.value == pytest.approx(_highs_envelope(S, x), rel=1e-7)
        assert np.abs(cert.coefficients @ P - x).max() <= 1e-12
        # with no other generator the table keeps no basis at all
        pair = GeneratingSet(2, P[:2])
        assert pair._basis_table[0].size == 0
        assert envelope_gauge(pair, x).value == pytest.approx(2.0, rel=1e-9)
        assert len(lp_calls) == 2

    def test_a_set_over_max_bases_takes_the_lp(self, lp_calls, monkeypatch):
        rng = np.random.default_rng(11)
        P = rng.standard_normal((40, 3))  # C(40, 3) = 9,880 bases
        assert math.comb(40, 3) > bodies.MAX_BASES

        def enumerate_bases(*args):
            raise AssertionError("the bases were enumerated")

        monkeypatch.setattr(bodies.itertools, "combinations", enumerate_bases)
        S = GeneratingSet(3, P)
        for x in rng.standard_normal((3, 3)):
            cert = envelope_gauge(S, x)
            assert cert.value == pytest.approx(_highs_envelope(S, x), rel=1e-9)
            assert np.abs(cert.coefficients @ P - x).max() <= 1e-9
        assert len(lp_calls) == 3
        assert S._basis_table is None


class TestDelta:
    @pytest.mark.parametrize("p", [0.5, 0.75])
    @pytest.mark.parametrize("n", [2, 3])
    def test_analytic_value(self, p, n):
        body = lp_ball_body(n, p)
        assert delta_nonconvexity(body) == float(n) ** (1.0 / p - 1.0)

    def test_search_matches_analytic_small(self):
        body = lp_ball_body(2, 0.5)
        got = delta_nonconvexity(body, method="search", seed=0)
        assert got == pytest.approx(2.0, rel=1e-3)

    def test_p1_is_convex(self):
        body = lp_ball_body(4, 1.0)
        assert delta_nonconvexity(body) == 1.0

    def test_method_validation(self):
        body = PBody(GeneratingSet(2, np.eye(2)), 0.5)
        with pytest.raises(InputError):
            delta_nonconvexity(body, method="analytic")
        with pytest.raises(InputError):
            delta_nonconvexity(body, method="banana")


class TestCubeSandwich:
    """The cube sandwich B_infty <= envelope ball <= d B_infty, as the quotient
    pipeline checks it: each cube vertex must decompose inside the envelope
    ball, and d is the largest generator coordinate."""

    @staticmethod
    def _sandwich_scale(S, m=16):
        n = S.dimension
        for mask in range(1 << (n - 1)):  # a vertex and its negation agree
            a = vector_of_mask(n, mask)
            *_, shrink_error = _decompose_vertex(S, a, m, {})
            assert shrink_error ** 2 <= n * np.abs(S.points).max() ** 2 / m
            assert envelope_gauge(S, a).value == pytest.approx(1.0, abs=1e-9)
        return float(np.abs(S.points).max())

    def test_cube_vertices_give_one(self):
        import itertools
        pts = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
        assert self._sandwich_scale(GeneratingSet(3, pts)) == 1.0

    def test_scaled_basis_gives_n(self):
        n = 3
        S = GeneratingSet(n, float(n) * np.eye(n))
        assert self._sandwich_scale(S) == pytest.approx(float(n))

    def test_cross_polytope_fails(self):
        S = GeneratingSet(2, np.eye(2))
        with pytest.raises(PhaseError) as err:
            self._sandwich_scale(S)
        assert err.value.phase == "sandwich"


class TestIO:
    def test_json_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        S = GeneratingSet(3, rng.standard_normal((5, 3)), label="cloud")
        path = tmp_path / "s.json"
        path.write_text(generating_set_to_json(S, p=0.5))
        T, p = load_generating_set_json(path)
        assert p == 0.5
        assert T.label == "cloud"
        assert np.array_equal(T.points, S.points)

    def test_json_bytes_deterministic(self):
        S = GeneratingSet(2, np.array([[0.1, 0.2], [-0.3, 0.7]]))
        assert generating_set_to_json(S, p=0.5) == generating_set_to_json(S, p=0.5)

    def test_fmt17_roundtrips(self):
        for x in (0.1, 1 / 3, math.pi, -2.0 ** -40):
            assert float(fmt17(x)) == x
