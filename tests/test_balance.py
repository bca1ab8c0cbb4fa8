import math

import numpy as np
import pytest

from geomhull.balance import greedy_signs, halving_step, type1_represent
from geomhull.bodies import GeneratingSet, envelope_gauge
from geomhull.errors import InputError


def _circle(k):
    angles = np.linspace(0.0, 2.0 * math.pi, k + 1)[:-1]
    return GeneratingSet(2, np.column_stack([np.cos(angles), np.sin(angles)]))


def _exhaustive_sum_norm(X):
    """Brute-force oracle: min ||sum eps_k x_k|| over all signs, eps_0 = +1."""
    N = X.shape[0]
    bits = (np.arange(1 << (N - 1))[:, None] >> np.arange(N - 1)) & 1
    E = np.hstack([np.ones((bits.shape[0], 1)), 1.0 - 2.0 * bits])
    return float(np.linalg.norm(E @ X, axis=1).min())


class TestGreedySigns:
    def test_sqrt_n_bound(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 9):
            X = rng.standard_normal((20, n))
            signs = greedy_signs(X)
            bound = math.sqrt(20) * np.linalg.norm(X, axis=1).max()
            assert np.linalg.norm(signs @ X) <= bound * (1 + 1e-9)

    def test_exhaustive_never_worse(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            X = rng.standard_normal((8, 3))
            signs = greedy_signs(X)
            assert _exhaustive_sum_norm(X) <= np.linalg.norm(signs @ X) + 1e-12

    def test_signs_follow_the_greedy_rule(self):
        # each sign opposes the partial sum before it, + on a tie
        rng = np.random.default_rng(2)
        X = rng.standard_normal((12, 4))
        signs = greedy_signs(X)
        partial = np.zeros(4)
        for sign, x in zip(signs, X):
            assert sign == (-1.0 if partial @ x > 0 else 1.0)
            partial = partial + sign * x

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            greedy_signs(np.zeros((0, 2)))


class TestHalving:
    def test_halves_and_identity(self):
        S = _circle(8)
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 8, size=16)
        scal = rng.uniform(-1, 1, size=16)
        cert, defect = halving_step(S, idx, scal)
        assert cert.m == 8
        # defect == distance between the 16-term and 8-term averages
        u = sum(s * S.points[i] for i, s in zip(idx, scal)) / 16.0
        assert np.linalg.norm(u - cert.evaluate(S)) == pytest.approx(defect)
        assert defect <= math.sqrt(16) / 16 + 1e-12

    def test_odd_count_rejected(self):
        S = _circle(4)
        with pytest.raises(InputError):
            halving_step(S, [0, 1, 2], [1.0, 0.5, -0.5])

    def test_scalar_cap_enforced(self):
        S = _circle(4)
        with pytest.raises(InputError):
            halving_step(S, [0, 1], [2.0, 0.5])

    def test_length_mismatch_rejected(self):
        S = _circle(4)
        with pytest.raises(InputError):
            halving_step(S, [0, 1, 2, 3], [1.0, 0.5])


class TestType1Represent:
    def test_reconstructs_envelope_points(self):
        S = _circle(16)
        rng = np.random.default_rng(4)
        theta = 0.5
        for _ in range(5):
            w = rng.dirichlet(np.ones(16)) * 0.9
            signs = rng.choice([-1.0, 1.0], size=16)
            x = (signs * w) @ S.points
            assert envelope_gauge(S, x).value <= 1.0 + 1e-9
            rep, scale = type1_represent(S, theta, 4, x)
            err = np.linalg.norm(scale * rep.evaluate(S) - x)
            assert err < 1e-6
            assert scale <= 2 * theta / ((3 * theta - 1) * (1 - theta)) + 1e-9

    def test_slots_over_capacity_shrink_the_weights(self):
        # m = 4 in the plane gives M = 32 slots; the weights 15.1 and 16.5 on
        # adjacent vertices need 16 + 17 = 33 slots, so the level-0 weights
        # shrink until they fit and the shed mass joins the defect
        S = _circle(32)
        x = (15.1 / 32) * S.points[0] + (16.5 / 32) * S.points[1]
        start = envelope_gauge(S, x).coefficients
        assert np.ceil(np.abs(start * 32) - 1e-12).sum() == 33
        trace = []
        rep, scale = type1_represent(S, 0.75, 4, x, trace=trace)
        assert trace[0]["input_terms"] == 32
        assert np.linalg.norm(scale * rep.evaluate(S) - x) < 1e-6
        assert scale * rep.residual_norm < 1e-6

    def test_trace_records_halvings(self):
        S = _circle(8)
        rng = np.random.default_rng(5)
        x = 0.5 * S.points[rng.integers(0, 8)]
        trace = []
        rep, scale = type1_represent(S, 0.5, 2, x, trace=trace)
        assert trace, "no halving steps recorded"
        for rec in trace:
            assert rec["defect"] <= 1.0 / math.sqrt(rec["input_terms"]) + 1e-12

    def test_theta_domain(self):
        S = _circle(8)
        with pytest.raises(InputError):
            type1_represent(S, 1.0 / 3.0, 2, np.zeros(2))

    def test_outside_envelope_rejected(self):
        S = _circle(8)
        with pytest.raises(InputError):
            type1_represent(S, 0.5, 2, np.array([2.0, 0.0]))
