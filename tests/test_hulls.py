import itertools
import math

import numpy as np
import pytest
from geomhull.bodies import GeneratingSet, lp_ball_body
from geomhull.errors import InputError, NumericalError
from geomhull.hulls import (DeltaMCertificate, GammaRepresentation,
                            approx2_transform, delta_m_membership,
                            flatten_scale,
                            pconv_contraction_bound, rows_average,
                            verify_pconv_contraction)


def _square():
    return GeneratingSet(2, np.array([[1.0, 0.0], [0.0, 1.0],
                                      [0.7, 0.7], [-0.7, 0.7]]))


class TestGammaRepresentation:
    def test_level_monotonicity_enforced(self):
        with pytest.raises(InputError):
            GammaRepresentation(0.5, [1, 1], [0.5, 0.5], [0, 1])
        with pytest.raises(InputError):
            GammaRepresentation(0.5, [0], [1.5], [0])

    def test_nan_lambda_rejected(self):
        with pytest.raises(InputError, match="exceeds 1"):
            GammaRepresentation(0.5, [0, 1], [0.5, math.nan], [0, 1])

    def test_evaluate_matches_series(self):
        S = _square()
        rep = GammaRepresentation(0.5, [0, 2], [1.0, -0.5], [0, 1])
        want = 0.5 * (S.points[0] - 0.5 * 0.25 * S.points[1])
        assert np.abs(rep.evaluate(S) - want).max() < 1e-15

    @pytest.mark.parametrize("theta,gap", [(0.9137, 1), (0.9137, 3),
                                           (0.6180339887, 1), (0.77, 5000)])
    def test_evaluate_equals_term_loop_bitwise(self, theta, gap):
        # dense levels read the cached power table, gap 5000 the per-term path
        rng = np.random.default_rng(gap)
        S = GeneratingSet(3, rng.standard_normal((7, 3)))
        count = 200
        levels = np.cumsum(rng.integers(1, gap + 1, size=count)) - 1
        lams = rng.uniform(-1.0, 1.0, size=count)
        idx = rng.integers(0, S.count, size=count)
        for n in (count // 2, count):  # a short table first, then its growth
            rep = GammaRepresentation(theta, levels[:n], lams[:n], idx[:n])
            acc = None
            for level, lam, i in rep.terms:
                term = (1.0 - theta) * theta ** level * lam * S.points[i]
                acc = term if acc is None else acc + term
            assert rep.evaluate(S).tobytes() == acc.tobytes()

    def test_terms_setter_round_trips_and_checks(self):
        rep = GammaRepresentation(0.5, [0, 3, 4], [1.0, -0.25, 0.5], [2, 0, 1])
        terms = rep.terms
        assert terms == [(0, 1.0, 2), (3, -0.25, 0), (4, 0.5, 1)]
        rep.terms = terms[:1] + [(3, 0.25, 0)] + terms[2:]
        assert rep.lambdas.tolist() == [1.0, 0.25, 0.5]
        assert rep.levels.tolist() == [0, 3, 4]
        assert rep.indices.tolist() == [2, 0, 1]
        rep.terms = []
        assert rep.terms == [] and rep.levels.size == 0
        rep.terms = terms
        assert rep.terms == terms
        for bad in ([(3, 0.5, 0), (3, 0.5, 1)], [(4, 0.5, 0), (3, 0.5, 1)],
                    [(0, 1.0 + 1e-9, 0)]):
            with pytest.raises(InputError):
                rep.terms = bad
        assert rep.terms == terms


class TestPconv:
    def test_bound_values(self):
        assert pconv_contraction_bound(1.0, 0.5) == 1.0
        assert pconv_contraction_bound(0.5, 0.75) == pytest.approx(16.0)
        assert pconv_contraction_bound(0.5, 0.5) == pytest.approx(8.0)

    def test_domain_errors(self):
        with pytest.raises(InputError):
            pconv_contraction_bound(0.0, 0.5)
        with pytest.raises(InputError):
            pconv_contraction_bound(0.5, 1.0)

    @pytest.mark.parametrize("p", [0.001, 0.007])
    def test_overflow_is_a_numerical_error(self, p):
        # at 0.001 a power overflows; at 0.007 both powers are finite and
        # their product is inf, which would pass every sample
        with pytest.raises(NumericalError, match="contraction bound"):
            pconv_contraction_bound(p, 0.75)

    def test_monte_carlo_passes(self):
        body = lp_ball_body(3, 0.5)
        result = verify_pconv_contraction(body, 0.5, samples=500, seed=0)
        assert result["pass"]
        assert result["max_ratio"] <= 1.0 + 1e-9

    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_samples_is_no_pass(self, samples):
        with pytest.raises(InputError):
            verify_pconv_contraction(lp_ball_body(3, 0.5), 0.5, samples=samples)


class TestApprox2:
    def _random_outer(self, S, m, depth, rng):
        """lambdas and level-tagged rows, one entry per slot."""
        lams, levels, gens, alphas = [], [], [], []
        for level in range(depth):
            idx = rng.integers(0, S.count, size=m)
            levels += [level] * m
            gens += idx.tolist()
            alphas += [rng.uniform(-1, 1) for _ in idx]
            lams.append(float(rng.uniform(-1, 1)))
        return lams, (levels, gens, [1] * len(gens), alphas)

    @staticmethod
    def _series_value(S, theta, m, lams, rows):
        """(1-theta) sum_k theta^k lams[k] (1/m) sum alpha s_g, slot by slot."""
        levels, gens, _, alphas = rows
        x = np.zeros(S.dimension)
        for level, gen, alpha in zip(levels, gens, alphas):
            x += (1.0 - theta) * theta ** level * lams[level] * alpha / m \
                * S.points[gen]
        return x

    @staticmethod
    def _same(a, b):
        return (a.theta == b.theta and np.array_equal(a.levels, b.levels)
                and np.array_equal(a.lambdas, b.lambdas)
                and np.array_equal(a.indices, b.indices))

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_exact_reconstruction_and_scale(self, m):
        S = _square()
        rng = np.random.default_rng(m)
        theta = 0.75
        phi = theta ** (1.0 / m)
        want_scale = (1 - theta) * phi ** (1 - m) / (m * (1 - phi))
        for _ in range(10):
            lams, rows = self._random_outer(S, m, depth=5, rng=rng)
            rep, scale = approx2_transform(theta, m, lams, rows)
            assert scale == pytest.approx(want_scale, rel=1e-12)
            assert scale <= 1.2 + 1e-12
            assert rep.theta == pytest.approx(phi)
            err = np.linalg.norm(scale * rep.evaluate(S)
                                 - self._series_value(S, theta, m, lams, rows))
            assert err < 1e-10

    def test_theta_domain(self):
        with pytest.raises(InputError):
            approx2_transform(0.25, 2, [], ([], [], [], []))

    def test_nan_alpha_and_lambda_rejected(self):
        # NaN compares false with everything, so each check is written to
        # pass only what lies within its bound
        with pytest.raises(InputError, match="alpha exceeds"):
            approx2_transform(0.75, 2, [1.0], ([0], [0], [1], [math.nan]))
        with pytest.raises(InputError, match="outer lambdas"):
            approx2_transform(0.75, 2, [math.nan], ([0], [0], [1], [0.5]))

    def test_rows_must_match_the_levels(self):
        rows = [0, 1], [0, 1], [1, 1], [0.5, -0.5]
        with pytest.raises(InputError):
            approx2_transform(0.75, 2, [1.0], rows)
        with pytest.raises(InputError):
            approx2_transform(0.75, 2, [1.0, 1.0], (*rows[:3], [0.5]))
        rep, _ = approx2_transform(0.75, 2, [1.0, 1.0], rows)
        assert rep.levels.tolist() == [0, 2]
        assert rep.indices.tolist() == [0, 1]

    def test_shared_entries_sum_in_input_order(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = int(rng.integers(20, 60))  # long runs of shared entries
            lams, rows = self._random_outer(_square(), m, depth=4, rng=rng)
            levels, gens, _, alphas = rows
            # one summed entry per (level, generator), summed as (0 + a1) + a2
            merged = {}
            for key, alpha in zip(zip(levels, gens), alphas):
                total = merged.setdefault(key, [0, 0.0])
                total[0] += 1
                total[1] += alpha
            keys = sorted(merged)
            summed = ([k[0] for k in keys], [k[1] for k in keys],
                      [merged[k][0] for k in keys], [merged[k][1] for k in keys])
            want, scale = approx2_transform(0.75, m, lams, summed)
            got, same_scale = approx2_transform(0.75, m, lams, rows)
            assert self._same(got, want) and scale == same_scale

    def test_shuffled_distinct_entries_give_the_same_series(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            depth, k = 5, 9
            m = int(rng.integers(k, k + 4))  # any cells fit in a level
            cells = [(level, g) for level in range(depth) for g in range(k)
                     if rng.uniform() < 0.3]
            mults = rng.integers(0, 2, size=len(cells))
            alphas = rng.uniform(-1, 1, size=len(cells)) * mults
            lams = rng.uniform(-1, 1, size=depth)
            rows = ([c[0] for c in cells], [c[1] for c in cells], mults, alphas)
            want, _ = approx2_transform(0.75, m, lams, rows)
            order = rng.permutation(len(cells))
            shuffled = tuple(np.asarray(a)[order] for a in rows)
            got, _ = approx2_transform(0.75, m, lams, shuffled)
            assert self._same(got, want)

    @pytest.mark.parametrize("rows", [
        ([2], [0], [1], [0.5]),                 # level past the lambdas
        ([-1], [0], [1], [0.5]),                # negative level
        ([0], [-1], [1], [0.5]),                # negative generator
        ([0], [0], [-1], [0.0]),                # negative multiplicity
        ([0, 0, 1], [0, 1, 0], [2, 1, 1], [0.5, 0.5, 0.5]),  # 3 slots of m = 2
        ([0, 0], [1, 1], [1, 0], [0.75, 0.5]),  # |alpha| 1.25 over merged 1
    ], ids=["level-past-lambdas", "negative-level", "negative-generator",
            "negative-multiplicity", "level-over-m", "alpha-over-multiplicity"])
    def test_bad_rows_raise(self, rows):
        with pytest.raises(InputError):
            approx2_transform(0.75, 2, [1.0, -1.0], rows)

    def test_alpha_is_checked_against_the_merged_multiplicity(self):
        # the first entry alone exceeds its multiplicity, the sum does not
        rep, _ = approx2_transform(0.75, 2, [1.0], ([0, 0], [1, 1], [1, 1],
                                                   [1.5, 0.0]))
        assert rep.indices.tolist() == [1, 1]
        assert rep.lambdas.tolist() == pytest.approx([0.75 * 0.75 ** 0.5,
                                                      0.75])

    @pytest.mark.parametrize("lams", [[], [1.0, 0.5]])
    def test_empty_rows_give_an_empty_series(self, lams):
        rep, scale = approx2_transform(0.75, 3, lams, ([], [], [], []))
        phi, want = flatten_scale(0.75, 3)
        assert rep.levels.size == rep.lambdas.size == rep.indices.size == 0
        assert rep.theta == phi and scale == want
        assert np.array_equal(rep.evaluate(_square()), np.zeros(2))


class TestDeltaMCertificate:
    def test_nan_alpha_rejected(self):
        with pytest.raises(InputError, match="alpha exceeds"):
            DeltaMCertificate(2, np.array([1, 0]), np.array([math.nan, 0.0]))

    def test_validation(self):
        with pytest.raises(InputError):
            DeltaMCertificate(2, np.array([3, 0]), np.array([0.0, 0.0]))
        with pytest.raises(InputError):
            DeltaMCertificate(2, np.array([1, 1]), np.array([1.5, 0.0]))

    def test_slots_expand_exactly_m(self):
        cert = DeltaMCertificate(5, np.array([2, 1]), np.array([1.5, -0.25]))
        idx, coef = cert.slots()
        # slot coefficients recombine to the alphas
        assert np.bincount(idx, weights=coef) == pytest.approx([1.5, -0.25])
        # generator by generator, then zero slots up to m
        assert idx.tolist() == [0, 0, 1, 0, 0]
        assert coef.tolist() == [0.75, 0.75, -0.25, 0.0, 0.0]

    def test_rows_average_has_the_dense_bits(self):
        rng = np.random.default_rng(5)
        S = GeneratingSet(7, rng.standard_normal((300, 7)))
        for size in (0, 1, 2, 40):
            gens = np.sort(rng.choice(300, size=size, replace=False))
            mult = np.zeros(300, dtype=int)
            mult[gens] = rng.integers(1, 4, size=size)
            alpha = np.zeros(300)
            alpha[gens] = rng.uniform(-1, 1, size=size) * mult[gens]
            cert = DeltaMCertificate(97, mult, alpha)
            rows = gens.tolist(), mult[gens].tolist(), alpha[gens].tolist()
            assert np.array_equal(rows_average(S, rows, 97), cert.evaluate(S))


def _zonogon_member(S, mult, m, x, tol=1e-9):
    """2D oracle: x in (1/m) sum mult_i [-1,1] s_i, by facet normals."""
    x = np.asarray(x, dtype=float)
    for sx, sy in S.points:
        u = np.array([-sy, sx])
        if abs(u @ x) > (mult / m * np.abs(S.points @ u)).sum() + tol:
            return False
    return True


class TestDeltaMMembership:
    def test_matches_zonogon_oracle(self):
        S = GeneratingSet(2, np.array([[1.0, 0.0], [0.5, 1.0], [-0.25, 0.75]]))
        m = 3
        vectors = [np.array(v) for v in itertools.product(range(m + 1), repeat=3)
                   if sum(v) <= m]
        rng = np.random.default_rng(4)
        for _ in range(30):
            x = rng.uniform(-1.5, 1.5, size=2)
            want = any(_zonogon_member(S, v, m, x) for v in vectors)
            verdict = delta_m_membership(S, m, x)
            assert verdict.status in ("member", "non-member")
            assert (verdict.status == "member") == want
            if verdict.status == "member":
                got = verdict.certificate.evaluate(S)
                assert np.abs(got - x).max() < 1e-7

    def test_certificate_on_known_point(self):
        S = GeneratingSet(2, np.eye(2))
        verdict = delta_m_membership(S, 2, np.array([0.5, 0.5]))
        assert verdict.status == "member"

    def test_far_point_rejected(self):
        S = GeneratingSet(2, np.eye(2))
        verdict = delta_m_membership(S, 2, np.array([3.0, 0.0]))
        assert verdict.status == "non-member"
