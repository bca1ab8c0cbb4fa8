import math

import numpy as np
import pytest

from geomhull.bodies import (GeneratingSet, PBody, delta_nonconvexity,
                             envelope_gauge, fmt17, generating_set_to_json,
                             load_generating_set_json, lp_ball_body,
                             p_gauge_upper)
from geomhull.cube import _decompose_vertex, vector_of_mask
from geomhull.errors import InputError, PhaseError


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
        # p_gauge_upper searches even where the closed form exists
        rng = np.random.default_rng(1)
        for n in (2, 3):
            body = lp_ball_body(n, 0.5)
            for _ in range(10):
                x = rng.uniform(-1, 1, size=n)
                exact = float((np.abs(x) ** 0.5).sum() ** 2.0)
                cert = p_gauge_upper(body, x)
                assert cert.value == pytest.approx(exact, rel=1e-5, abs=1e-9)

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
            _, shrink_error = _decompose_vertex(S, a, m, {})
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
