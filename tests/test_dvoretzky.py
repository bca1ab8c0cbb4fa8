import itertools
import json
import math

import numpy as np
import pytest

from geomhull import cli, dvoretzky
from geomhull.bodies import GeneratingSet
from geomhull.dvoretzky import (ProjectionResult, dvoretzky_search,
                                ellipsoid_gamma_represent, random_projection)
from geomhull.errors import ContractionError, InputError
from geomhull.optim import Ellipsoid


class TestRandomProjection:
    def test_rows_orthonormal(self):
        for k, n in ((1, 3), (3, 7), (5, 5)):
            P = random_projection(n, k, seed=0)
            assert P.shape == (k, n)
            assert np.abs(P @ P.T - np.eye(k)).max() < 1e-12

    def test_deterministic_in_seed(self):
        assert np.array_equal(random_projection(6, 2, 42),
                              random_projection(6, 2, 42))
        assert not np.array_equal(random_projection(6, 2, 42),
                                  random_projection(6, 2, 43))

    def test_direction_isotropy(self):
        # k = 1 rows are uniform on the sphere: mean near 0, covariance near I/n
        rows = np.array([random_projection(3, 1, s)[0] for s in range(4000)])
        assert np.abs(rows.mean(axis=0)).max() < 0.03
        cov = rows.T @ rows / len(rows)
        assert np.abs(cov - np.eye(3) / 3).max() < 0.02

    def test_rank_validation(self):
        with pytest.raises(InputError):
            random_projection(3, 0, 0)
        with pytest.raises(InputError):
            random_projection(3, 4, 0)


def _sphere_sample(n, count, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, n))
    return GeneratingSet(n, pts / np.linalg.norm(pts, axis=1, keepdims=True))


class TestDvoretzkySearch:
    def test_cube_full_rank_gives_sqrt_n(self):
        for n in (3, 4):
            pts = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
            S = GeneratingSet(n, pts)
            res = dvoretzky_search(S, k=n, eta=0.01, trials=2, seed=5)
            assert res.ellipticity == pytest.approx(math.sqrt(n), abs=1e-6)
            assert not res.success   # sqrt(n) > 1.01

    def test_sphere_sample_improves_with_trials(self):
        S = _sphere_sample(12, 100, 1)
        one = dvoretzky_search(S, k=2, eta=0.3, trials=1, seed=9)
        many = dvoretzky_search(S, k=2, eta=0.3, trials=12, seed=9)
        assert many.ellipticity <= one.ellipticity + 1e-12
        assert many.ellipticity >= 1.0

    def test_deterministic_in_seed(self):
        S = _sphere_sample(8, 40, 2)
        a = dvoretzky_search(S, k=2, eta=0.3, trials=3, seed=4)
        b = dvoretzky_search(S, k=2, eta=0.3, trials=3, seed=4)
        assert a.ellipticity == b.ellipticity
        assert np.array_equal(a.projection_matrix, b.projection_matrix)

    def test_hull_inside_reported_ellipsoid(self):
        S = _sphere_sample(10, 60, 3)
        res = dvoretzky_search(S, k=3, eta=0.3, trials=4, seed=6)
        projected = S.points @ res.projection_matrix.T
        E = res.ellipsoid
        for y in projected:
            assert y @ E.shape_matrix @ y <= E.scale * (1 + 1e-6)

    @pytest.mark.parametrize("n,count,k,seed", [(40, 500, 3, 11), (12, 150, 2, 12),
                                                (20, 300, 4, 13)])
    def test_ellipticity_equals_a_per_direction_loop(self, n, count, k, seed):
        # the winning trial's directions, rebuilt from the same SeedSequence
        # children, then one solve and one hull maximum per direction
        S = _sphere_sample(n, count, seed)
        res = dvoretzky_search(S, k=k, eta=0.2, trials=3, seed=seed)
        children = np.random.SeedSequence(seed).spawn(6)
        P = random_projection(n, k, children[2 * res.trial])
        assert np.array_equal(P, res.projection_matrix)
        dirs = np.random.default_rng(children[2 * res.trial + 1]).standard_normal((200, k))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        M, scale = res.ellipsoid.shape_matrix, res.ellipsoid.scale
        axes = [col for col in P.T if np.linalg.norm(col) > 1e-8]
        Y = S.points @ P.T
        worst = 1.0
        for u in [*dirs, *np.eye(k), *np.linalg.eigh(M)[1].T, *axes]:
            support = math.sqrt(scale * (u @ np.linalg.solve(M, u)))
            worst = max(worst, support / np.abs(Y @ u).max())
        assert abs(res.ellipticity - worst) <= 4 * np.spacing(worst)

    def test_ratios_tied_within_tolerance_keep_the_earliest_trial(self, monkeypatch):
        # at k = n every trial solves one MVEE up to rotation, and the ratios
        # tie up to rounding; a later trial wins only 1e-9 below the best
        ratios = iter([1.5 + 1e-12, 1.5, 1.5 - 1e-12, 1.5 * (1 - 5e-10), 1.5 + 2e-12])
        monkeypatch.setattr(dvoretzky, "_sandwich_ratio", lambda *args: next(ratios))
        res = dvoretzky_search(_sphere_sample(3, 20, 5), k=3, eta=0.3, trials=5,
                               seed=1)
        assert res.trial == 0

    def test_ratio_below_the_tolerance_wins(self, monkeypatch):
        ratios = iter([1.5, 1.5 * (1 - 2e-9), 1.5 * (1 - 2.5e-9)])
        monkeypatch.setattr(dvoretzky, "_sandwich_ratio", lambda *args: next(ratios))
        res = dvoretzky_search(_sphere_sample(3, 20, 5), k=3, eta=0.3, trials=3,
                               seed=1)
        assert res.trial == 1

    def test_json_and_validation(self):
        S = _sphere_sample(8, 40, 7)
        res = dvoretzky_search(S, k=2, eta=0.3, trials=2, seed=8)
        text = cli._json_text(res)
        assert text == cli._json_text(res)
        payload = json.loads(text)
        assert payload["rank"] == 2
        assert payload["seed"] == 8
        with pytest.raises(InputError):
            ProjectionResult(2, np.ones((2, 4)), res.ellipsoid, 1.0)

    def test_parameter_validation(self):
        S = _sphere_sample(6, 30, 0)
        with pytest.raises(InputError):
            dvoretzky_search(S, k=0, eta=0.1, trials=1, seed=0)
        with pytest.raises(InputError):
            dvoretzky_search(S, k=2, eta=0.5, trials=1, seed=0)
        with pytest.raises(InputError):
            dvoretzky_search(S, k=2, eta=0.1, trials=0, seed=0)


class TestEllipsoidRepresent:
    def _ball_setup(self, count=64, seed=0):
        # generators on the unit circle: the unit ball is an exact sandwich
        rng = np.random.default_rng(seed)
        angles = rng.uniform(0, 2 * math.pi, size=count)
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        return GeneratingSet(2, pts), Ellipsoid(np.eye(2), 1.0)

    def test_reconstructs_shrunk_ball_points(self):
        S, E = self._ball_setup()
        theta = 0.5
        rng = np.random.default_rng(1)
        for _ in range(20):
            phi = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(0, 1) * (1 - theta)
            y = r * np.array([math.cos(phi), math.sin(phi)])
            rep = ellipsoid_gamma_represent(S, E, theta, y, tolerance=1e-9)
            assert rep.residual_norm <= 1e-9
            assert np.linalg.norm(rep.evaluate(S) - y) < 1e-8

    def test_zero_point_is_empty(self):
        S, E = self._ball_setup()
        rep = ellipsoid_gamma_represent(S, E, 0.5, np.zeros(2))
        assert rep.terms == []

    def test_outside_shrunk_ball_rejected(self):
        S, E = self._ball_setup()
        with pytest.raises(InputError):
            ellipsoid_gamma_represent(S, E, 0.5, np.array([0.9, 0.0]))

    def test_contraction_violation_names_the_step(self):
        # two axis generators only: a diagonal residual cannot contract fast
        S = GeneratingSet(2, np.eye(2))
        E = Ellipsoid(np.eye(2), 1.0)
        y = 0.45 * np.array([1.0, 1.0]) / math.sqrt(2)
        with pytest.raises(ContractionError) as err:
            ellipsoid_gamma_represent(S, E, 0.5, y, eta=0.05)
        assert err.value.step == 0

    def test_eta_check_passes_on_rich_sets(self):
        S, E = self._ball_setup(count=128, seed=2)
        y = np.array([0.3, 0.2])
        rep = ellipsoid_gamma_represent(S, E, 0.5, y, eta=0.05)
        assert np.linalg.norm(rep.evaluate(S) - y) < 1e-8

    def test_generators_must_fit_ellipsoid(self):
        S = GeneratingSet(2, 2.0 * np.eye(2))
        with pytest.raises(InputError):
            ellipsoid_gamma_represent(S, Ellipsoid(np.eye(2), 1.0), 0.5,
                                      np.array([0.1, 0.0]))
