import collections
import dataclasses
import itertools
import json
import math
import pathlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from geomhull import cli
from geomhull.bodies import (GeneratingSet, PBody, envelope_gauge,
                             load_generating_set_json)
from geomhull.cube import (Calibration, ShatterChain, VertexSet,
                           _decompose_vertex,
                           _lift_chain, _max_shattered, alesker_chain,
                           chain_constants, chain_cube_certificate,
                           counting_select, cube_quotient,
                           cubic_quotient_from_nonconvexity,
                           l1_to_cube_operator, mask_of_vector,
                           pnormed_quotient, represent_cube_point,
                           subsample_vertex_fit, vector_of_mask,
                           vertex_generating_set, vertex_set_from_generating_set)
from geomhull import cube
from geomhull.errors import InputError, NumericalError, PhaseError
from geomhull.hulls import DeltaMCertificate
from test_balance import dense_certificate


def _cube_points(n):
    return np.array(list(itertools.product([-1.0, 1.0], repeat=n)))


def _hamming_ball(n, t):
    """Vertices with at most t minus coordinates."""
    members = frozenset(m for m in range(2 ** n) if bin(m).count("1") <= t)
    return VertexSet(n, members)


class TestVertexSet:
    def test_mask_roundtrip(self):
        for n in (1, 3, 5):
            for mask in range(2 ** n):
                v = vector_of_mask(n, mask)
                assert mask_of_vector(v) == mask

    def test_from_points_requires_exact_signs(self):
        with pytest.raises(InputError):
            VertexSet.from_points(np.array([[1.0, 0.5]]))

    def test_full_and_count(self):
        V = VertexSet.full(3)
        assert V.count == 8

    def test_generating_set_roundtrip(self):
        V = VertexSet(3, frozenset([0, 5, 6]))
        S = vertex_generating_set(V)
        assert vertex_set_from_generating_set(S) == V


class TestFindShattered:
    def test_three_points_shatter_one_not_two(self):
        V = VertexSet.from_points(np.array([[1.0, 1.0], [1.0, -1.0],
                                            [-1.0, 1.0]]))
        assert _max_shattered(V) == (0,)

    def test_full_cube_shatters_everything(self):
        V = VertexSet.full(3)
        assert _max_shattered(V) == (0, 1, 2)

    def test_lexicographically_first_witness(self):
        # shatters {1,2} but not any pair containing 0
        pts = np.array([[1.0, s1, s2] for s1 in (-1.0, 1.0)
                        for s2 in (-1.0, 1.0)])
        V = VertexSet.from_points(pts)
        assert _max_shattered(V) == (1, 2)

    def test_sauer_shelah_guarantee(self):
        # |V| > C(n,0) + C(n,1) forces a shattered pair
        rng = np.random.default_rng(0)
        n = 6
        for _ in range(10):
            masks = rng.choice(2 ** n, size=n + 2, replace=False)
            V = VertexSet(n, frozenset(int(m) for m in masks))
            assert len(_max_shattered(V)) >= 2

    def test_target_validation(self):
        # a single vertex shatters no coordinate; the search never passes n
        assert _max_shattered(VertexSet(2, frozenset([1]))) == ()
        assert _max_shattered(VertexSet.full(2)) == (0, 1)


class TestChainConstants:
    def test_closed_forms(self):
        assert chain_constants(0) == (1, 1)
        assert chain_constants(1) == (3, 6)
        assert chain_constants(2) == (7, 28)
        assert chain_constants(3) == (15, 120)

    def test_recursions(self):
        for j in range(1, 8):
            a_prev, b_prev = chain_constants(j - 1)
            a, b = chain_constants(j)
            assert a == 2 * a_prev + 1
            assert b == 4 * b_prev + 2 ** j


class TestAleskerChain:
    def test_full_cube_is_level_zero(self):
        V = VertexSet.full(4)
        chain = alesker_chain(V, 0.5, density_c=1.0)
        assert len(chain.sigma) == 1
        assert chain.sigma[0] == (0, 1, 2, 3)
        assert chain_constants(chain.levels) == (1, 1)
        chain.verify(V)

    def test_hamming_ball_grows_three_levels(self):
        V = _hamming_ball(10, 3)
        chain = alesker_chain(V, 0.125, density_c=1.0, enforce_density=False)
        assert len(chain.sigma) - 1 == 3
        assert chain.sigma[-1] == tuple(range(10))
        assert chain_constants(chain.levels) == (15, 120)
        chain.verify(V)   # exact rational identity at all 1024 patterns

    def test_rep_table_is_dyadic_rational(self):
        V = _hamming_ball(5, 2)
        chain = alesker_chain(V, 0.25, density_c=1.0, enforce_density=False)
        s = len(chain.sigma) - 1
        for combo in chain.rep_table.values():
            for coef in combo.values():
                assert isinstance(coef, Fraction)
                assert (2 ** s) % coef.denominator == 0

    def test_verify_rejects_a_non_dyadic_coefficient(self):
        # each pattern over sigma = (0, 1) as 2/3 and 1/3 of its two members
        # on the 3-cube: the projections and the slot count (3 <= 6) hold,
        # but 2/3 times 2^levels is not an integer
        V = VertexSet.full(3)
        table = {}
        for mask in range(4):
            pattern = tuple(1 - 2 * ((mask >> i) & 1) for i in range(2))
            table[pattern] = {mask: Fraction(2, 3), mask | 4: Fraction(1, 3)}
        chain = ShatterChain(levels=1, sigma=[(0,), (0, 1)], tau=[(1,)],
                             rep_table=table, epsilon=0.5)
        with pytest.raises(NumericalError, match="non-dyadic"):
            chain.verify(V)
        for combo in table.values():
            for member in combo:
                combo[member] = Fraction(1, 2)
        chain.verify(V)

    def test_parity_set_cannot_grow(self):
        members = frozenset(m for m in range(16) if bin(m).count("1") % 2 == 0)
        V = VertexSet(4, members)
        with pytest.raises(PhaseError) as err:
            alesker_chain(V, 0.5, density_c=1.0)
        assert err.value.phase == "chain"

    def test_density_gate(self):
        members = frozenset(m for m in range(16) if bin(m).count("1") % 2 == 0)
        with pytest.raises(InputError):  # 8 < 2^(4 (1 - 0.2 * 0.5)) = 2^3.6
            alesker_chain(VertexSet(4, members), 0.5, density_c=0.2)

    def test_epsilon_domain(self):
        with pytest.raises(InputError):
            alesker_chain(VertexSet.full(2), 0.0, density_c=1.0)


class TestChainCertificates:
    def test_level_one_constants(self):
        V = _hamming_ball(4, 1)
        chain = alesker_chain(V, 0.5, density_c=1.0, enforce_density=False)
        assert len(chain.sigma) - 1 == 1
        S = vertex_generating_set(V)
        certs = chain_cube_certificate(chain, S)
        assert certs.scale == 3 and certs.m == 6
        assert len(certs.certificates) == 2 ** len(chain.sigma[-1])
        # every certificate's rows hit its vertex exactly on sigma
        sig = list(chain.sigma[-1])
        for pattern, (gens, mults, alphas) in certs.certificates.items():
            assert sum(mults) <= certs.m
            got = certs.scale * (S.points[gens].T @ alphas) / certs.m
            want = np.array(pattern, dtype=float)
            assert np.abs(got[sig] - want).max() < 1e-12

    def test_non_vertex_generators_rejected(self):
        chain = alesker_chain(VertexSet.full(2), 0.5, density_c=1.0)
        with pytest.raises(InputError):
            chain_cube_certificate(chain, GeneratingSet(2, 0.5 * np.eye(2)))

    @staticmethod
    def _unit_parts(chain, S, rows):
        """Each chain member's part: rows(generator) and no displacement."""
        index = {mask_of_vector(row): i for i, row in enumerate(S.points)}
        return {member: (rows(index[member]), np.zeros(S.dimension))
                for combo in chain.rep_table.values() for member in combo}

    def test_lift_rejects_alpha_above_its_multiplicity(self):
        V = _hamming_ball(4, 1)
        chain = alesker_chain(V, 0.5, density_c=1.0, enforce_density=False)
        S = vertex_generating_set(V)
        parts = self._unit_parts(chain, S, lambda i: ([i], [1], [1.0]))
        member = next(iter(chain.rep_table[min(chain.rep_table)]))
        (gens, _, _), zero = parts[member]
        parts[member] = ((gens, [1], [1.5]), zero)
        sigma_idx = np.array(chain.sigma[-1])
        with pytest.raises(InputError, match="alpha exceeds"):
            _lift_chain(chain, parts, S, sigma_idx, 1)

    def test_lift_rejects_rows_over_the_slot_budget(self):
        V = _hamming_ball(4, 1)
        chain = alesker_chain(V, 0.5, density_c=1.0, enforce_density=False)
        S = vertex_generating_set(V)
        sigma_idx = np.array(chain.sigma[-1])
        # chain_N = 6 slots a pattern at m = 1: unit parts fit, but seven
        # slots a member cannot
        _lift_chain(chain, self._unit_parts(
            chain, S, lambda i: ([i], [1], [1.0])), S, sigma_idx, 1)
        parts = self._unit_parts(chain, S, lambda i: ([i], [7], [1.0]))
        with pytest.raises(PhaseError, match="budget") as err:
            _lift_chain(chain, parts, S, sigma_idx, 1)
        assert err.value.phase == "certify"

    def test_tampered_table_fails_certify(self):
        V = _hamming_ball(4, 1)
        chain = alesker_chain(V, 0.5, density_c=1.0, enforce_density=False)
        pattern = min(chain.rep_table)
        chain.rep_table[pattern] = {member: -coef for member, coef
                                    in chain.rep_table[pattern].items()}
        with pytest.raises(PhaseError) as err:
            chain_cube_certificate(chain, vertex_generating_set(V))
        assert err.value.phase == "certify"


class TestCountingSelect:
    def test_bound_on_full_cover(self):
        n, k = 6, 4
        rng = np.random.default_rng(1)
        candidates = {m: frozenset(int(c) for c in
                                   rng.choice(n, size=k, replace=False))
                      for m in range(2 ** n)}
        tau, T, _ = counting_select(candidates, k)
        bound = 2 ** n / (2 ** (n - k) * math.comb(n, k))
        assert len(tau) == k
        assert T.count >= bound - 1e-9
        assert T.n == k

    def test_oversized_agreements_trimmed(self):
        candidates = {0: frozenset({0, 1, 2}), 7: frozenset({0, 1, 2})}
        tau, T, _ = counting_select(candidates, 2)
        assert len(tau) == 2
        assert T.n == 2

    def test_small_agreement_rejected(self):
        with pytest.raises(InputError):
            counting_select({0: frozenset({0})}, 2)


def _rotated_cube(n, scale):
    """scale {+-1}^n Q^T, Q the QR factor of default_rng(n)'s Gaussian n x n,
    rows in itertools.product order: no cube vertex is in the set."""
    Q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    return GeneratingSet(n, scale * _cube_points(n) @ Q.T, label="rotated")


def _nonzero_slots(S, rows, N):
    idx, coef = dense_certificate(S, rows, N).slots()
    return collections.Counter((i, round(c, 12)) for i, c
                               in zip(idx.tolist(), coef.tolist()) if c)


class TestSubsample:
    @pytest.fixture(scope="class")
    def decomposition(self):
        S = _rotated_cube(3, math.sqrt(3.0))
        a = vector_of_mask(3, 5)
        rows, N, shrink = _decompose_vertex(S, a, 5, {})
        return S, a, rows, N, shrink

    def test_whole_decomposition_is_returned(self):
        S = GeneratingSet(3, _cube_points(3))
        a = vector_of_mask(3, 2)
        row = int(np.flatnonzero((S.points == a).all(axis=1))[0])
        rows = [row], [6], [6.0]
        assert _decompose_vertex(S, a, 6, {2: (row, 1.0)}) == (rows, 6, 0.0)
        fit = subsample_vertex_fit(S, rows, 6, a, delta=0.01, m=6)
        assert fit.rows is rows
        assert np.array_equal(fit.x, a)
        assert fit.agreement_set == (0, 1, 2)
        assert fit.defect == fit.bound == 0.0

    def test_halved_slots_come_from_the_input(self, decomposition):
        S, a, rows, N, _ = decomposition
        assert N == 8 * 5   # three halvings
        fit = subsample_vertex_fit(S, rows, N, a, delta=0.1, m=5)
        assert sum(fit.rows[1]) <= 5
        assert _nonzero_slots(S, fit.rows, 5)
        assert not _nonzero_slots(S, fit.rows, 5) - _nonzero_slots(S, rows, N)

    def test_fit_error_is_within_the_halving_defects(self, decomposition):
        S, a, rows, N, shrink = decomposition
        fit = subsample_vertex_fit(S, rows, N, a, delta=0.1, m=5)
        x = dense_certificate(S, fit.rows, 5).evaluate(S)
        assert np.array_equal(fit.x, x)
        assert 0.0 < fit.defect <= fit.bound
        assert np.linalg.norm(x - a) <= shrink + fit.defect + 1e-12
        assert fit.agreement_set == tuple(
            j for j in range(3) if abs(x[j] - a[j]) <= 0.1 + 1e-12)

    @pytest.mark.parametrize("m", [3, 6, 7])
    def test_slot_count_must_be_m_times_a_power_of_two(self, decomposition, m):
        S, a, rows, N, _ = decomposition   # N = 40
        with pytest.raises(InputError):
            subsample_vertex_fit(S, rows, N, a, delta=0.1, m=m)


class TestOperator:
    @pytest.mark.parametrize("k", [1, 2])
    def test_image_is_exactly_the_cube(self, k):
        m = 2 ** (2 * k - 1)
        T = l1_to_cube_operator(m, k)
        assert T.shape == (2 * k, m)
        cols = GeneratingSet(2 * k, T.T, label="columns")
        for vertex in _cube_points(2 * k):
            cert = envelope_gauge(cols, vertex)
            assert cert.value == pytest.approx(1.0, abs=1e-9)

    def test_antipodal_pairs_present(self):
        k = 2
        T = l1_to_cube_operator(2 ** (2 * k - 1), k)
        colset = {tuple(c) for c in T.T}
        for c in T.T:
            assert tuple(-c) in colset or tuple(c) in colset

    def test_insufficient_columns_rejected(self):
        with pytest.raises(InputError):
            l1_to_cube_operator(4, 2)   # needs 2^3 = 8


class TestCubeQuotient:
    def test_cube_vertices_trivial_instance(self):
        S = GeneratingSet(4, _cube_points(4), label="cube")
        report = cube_quotient(S, 0.5, seed=0, queries=8)
        assert report.sigma == (0, 1, 2, 3)
        assert report.verified_fraction == 1.0
        assert report.chain_levels == 0
        assert report.C_over_eps == pytest.approx(4.6110, abs=1e-3)
        # every vertex is in S: nothing is shrunk or halved
        assert report.vertex_fit == {"error_max": 0.0, "bound_max": 0.0}
        assert report.vertex_residual_max == 0.0

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_rotated_cubes_keep_every_coordinate(self, n):
        # no vertex is in S, so every vertex is halved from its LP
        # decomposition, and every coordinate must survive the snap
        S = _rotated_cube(n, math.sqrt(n))
        for seed in range(5):
            report = cube_quotient(S, 0.5, seed=seed, queries=2)
            assert report.sigma == tuple(range(n))
            assert report.verified_fraction == 1.0
            fit = report.vertex_fit
            used = report.constants_used
            assert 0.0 < fit["error_max"] <= fit["bound_max"]
            # the proved bound is tighter than Maurey's 4 n d^2 / m
            assert fit["bound_max"] ** 2 < 4 * n * used["d"] ** 2 / used["m"]

    @pytest.mark.parametrize("corrupt, message", [
        # defects reach 0.074 of their bounds here: a bound at half the
        # defect is caught by the halving check
        (lambda defect, bound: (defect, defect / 2), "exceeds its bound"),
        # with every defect claimed as 0, the fit error exceeds the shrink
        (lambda defect, bound: (0.0, bound), "plus the halving defects")],
        ids=["bound-below-defect", "defects-claimed-zero"])
    def test_misreported_halving_fails_decompose(self, monkeypatch, corrupt,
                                                 message):
        # no vertex of the rotated 5-cube is in S: every one is halved
        real = cube.halving_step

        def misreported(*args):
            rows, defect, bound = real(*args)
            return (rows, *corrupt(defect, bound))

        monkeypatch.setattr(cube, "halving_step", misreported)
        with pytest.raises(PhaseError, match=message) as err:
            cube_quotient(_rotated_cube(5, math.sqrt(5)), 0.5, queries=2)
        assert err.value.phase == "decompose"

    def test_generic_lp_decomposition_path(self):
        rng = np.random.default_rng(20)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        S = GeneratingSet(3, 2.0 * _cube_points(3) @ Q.T, label="rotated")
        report = cube_quotient(S, 0.75, seed=3, queries=8)
        assert len(report.sigma) >= 1
        assert report.verified_fraction == 1.0
        assert 0.0 < report.vertex_residual_max <= \
            report.constants_used["chain_scale"] * report.constants_used["delta"]

    def test_select_gate_fails_honestly(self):
        S = GeneratingSet(3, 3.0 * np.eye(3), label="scaled-basis")
        with pytest.raises(PhaseError) as err:
            cube_quotient(S, 0.5, seed=0, queries=4)
        assert err.value.phase == "select"

    def test_sandwich_gate(self):
        S = GeneratingSet(2, np.eye(2))
        with pytest.raises(PhaseError) as err:
            cube_quotient(S, 0.5, seed=0)
        assert err.value.phase == "sandwich"

    @pytest.mark.parametrize("queries", [0, -1])
    def test_no_queries_is_no_pass(self, queries):
        with pytest.raises(InputError, match="queries"):
            cube_quotient(GeneratingSet(3, _cube_points(3)), 0.5,
                          queries=queries)

    def test_dimension_cap(self):
        with pytest.raises(InputError):
            cube_quotient(GeneratingSet(15, np.eye(15) * 15), 0.5)

    def test_vertex_phase_cap(self):
        # d = 17 at eps = 0.5 gives m = 3,915: inside MAX_SUBSAMPLE, but
        # 2^9 m = 2,004,480 vertex-phase slots exceed MAX_VERTEX_SLOTS
        with pytest.raises(InputError, match="vertex phase"):
            cube_quotient(GeneratingSet(10, np.eye(10) * 17), 0.5)

    def test_lift_holds_rows_not_dense_arrays(self):
        # 2^(n-1) antipodal vertices and e_1: a dense multiplicity and alpha
        # array over S for each of the 2^n lifted patterns alone would take
        # 2^n |S| 16 bytes, 33.6 MB at n = 11
        n = 11
        S = GeneratingSet(n, np.vstack(
            [[vector_of_mask(n, mask) for mask in range(1 << (n - 1))],
             np.eye(n)[:1]]))
        tracemalloc.start()
        try:
            report = cube_quotient(S, 0.5, seed=0, queries=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.sigma) == n and report.verified_fraction == 1.0
        assert peak < (1 << n) * S.count * 16

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
    def test_query_tolerance_must_be_positive(self, tol):
        with pytest.raises(InputError, match="tolerance"):
            cube_quotient(GeneratingSet(3, _cube_points(3)), 0.5,
                          query_tolerance=tol)

    def test_reports_are_byte_identical(self):
        S = GeneratingSet(4, _cube_points(4))
        r1 = cube_quotient(S, 0.5, seed=7, queries=6)
        r2 = cube_quotient(S, 0.5, seed=7, queries=6)
        assert cli._json_text(r1) == cli._json_text(r2)

    def test_calibration_recorded_in_report(self):
        S = GeneratingSet(4, _cube_points(4))
        cal = Calibration.from_mapping({"c2": 2.0})
        report = cube_quotient(S, 0.5, calibration=cal, seed=0, queries=4)
        assert report.calibration["c2"] == 2.0
        assert json_has_seed(report)


def json_has_seed(report):
    return json.loads(cli._json_text(report))["seed"] == report.seed


@pytest.fixture(scope="module")
def report_and_set():
    S = GeneratingSet(4, _cube_points(4), label="cube")
    return cube_quotient(S, 0.5, seed=0, queries=4), S


@pytest.fixture(scope="module")
def rotated_report():
    S, _ = load_generating_set_json(
        pathlib.Path(__file__).with_name("rotated_cube6.json"))
    return cube_quotient(S, 0.5, seed=2, queries=4), S


def _assert_bits_match_per_level_certificates(report, S, points):
    """represent_cube_point against a reference built from report._rows:
    one DeltaMCertificate per level, flattened slot by slot through
    DeltaMCertificate.slots() and evaluated term by term."""
    theta, M2 = report.assembly_theta, report.flat_m

    def vertex(a):
        """(multiplicities, alphas, snap displacement) of a stored vertex."""
        gens, mults, alphas, snap = report._rows[mask_of_vector(a)]
        mult, alpha = np.zeros(S.count, dtype=int), np.zeros(S.count)
        mult[gens], alpha[gens] = mults, alphas
        return mult, alpha, np.array(snap)

    for x in points:
        r, terms = x.copy(), []
        depth = max(1, math.ceil(math.log(0.25 * report.query_tolerance
                                          / math.sqrt(len(report.sigma)))
                                 / math.log(theta)))
        for level in range(depth):
            if theta ** level * math.sqrt(float((r * r).sum())) \
                    <= 0.25 * report.query_tolerance:
                break
            a1 = np.where(r >= 0.5, 1.0, -1.0)
            a2 = np.where(r >= -0.5, 1.0, -1.0)
            (n1, al1, r1), (n2, al2, r2) = vertex(a1), vertex(a2)
            terms.append((level, 1.0, DeltaMCertificate(M2, n1 + n2,
                                                        al1 + al2)))
            r = (r - 0.5 * (a1 + a2) + 0.5 * (r1 + r2)) / theta
        outer = np.zeros(S.dimension)  # the series over averages
        for level, lam, cert in terms:
            outer += (1.0 - theta) * theta ** level * lam \
                * (S.points.T @ cert.alphas / M2)
        phi = theta ** (1.0 / M2)
        flat = []
        for level, lam, cert in terms:
            idx, coef = cert.slots()
            for j in range(M2):
                mu = lam * coef[j] * phi ** (M2 - 1 - j)
                if mu != 0.0:
                    flat.append((level * M2 + j, mu, int(idx[j])))
        w = np.array([(1.0 - phi) * phi ** lv * mu for lv, mu, _ in flat])
        value = (w[:, None] * S.points[[i for *_, i in flat]]).sum(axis=0)
        residual = float(np.linalg.norm(
            x - report.C_over_eps * value[list(report.sigma)])
            / report.C_over_eps)
        rep = represent_cube_point(report, S, x)
        assert rep.terms == flat
        assert rep.residual_norm == residual
        assert np.abs(outer - value * report.C_over_eps
                      * (1.0 - theta) / report.constants_used["chain_scale"]
                      ).max() < 1e-9


class TestRepresentCubePoint:
    def test_interior_point(self, report_and_set):
        report, S = report_and_set
        x = np.array([0.6, -0.7, 0.0, 0.25])
        rep = represent_cube_point(report, S, x)
        sig = list(report.sigma)
        got = report.C_over_eps * rep.evaluate(S)[sig]
        assert np.abs(got - x).max() < 1e-6
        assert rep.residual_norm < 1e-6

    def test_vertex_point(self, report_and_set):
        report, S = report_and_set
        x = np.array([1.0, 1.0, -1.0, 1.0])
        rep = represent_cube_point(report, S, x)
        got = report.C_over_eps * rep.evaluate(S)[list(report.sigma)]
        assert np.abs(got - x).max() < 1e-9

    def test_bits_match_per_level_certificates(self, report_and_set):
        report, S = report_and_set
        rng = np.random.default_rng(11)
        _assert_bits_match_per_level_certificates(report, S, [
            np.array([0.6, -0.7, 0.0, 0.25]), np.ones(4),
            *rng.uniform(-1.0, 1.0, size=(6, 4))])

    def test_bits_match_on_multi_entry_certificates(self, rotated_report):
        # every vertex certificate has several generators, and the two
        # certificates of a level share some of them
        report, S = rotated_report
        assert all(len(c["entries"]) > 1
                   for c in report.vertex_certificates.values())
        k = len(report.sigma)
        assert k == 6
        rng = np.random.default_rng(12)
        _assert_bits_match_per_level_certificates(report, S, [
            np.resize([0.6, -0.7, 0.0], k), np.ones(k),
            *rng.uniform(-1.0, 1.0, size=(4, k))])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_rejected(self, report_and_set, value):
        report, S = report_and_set
        with pytest.raises(InputError):
            represent_cube_point(report, S, np.array([value, 0.0, 0.0, 0.0]))

    def test_outside_ball_rejected(self, report_and_set):
        report, S = report_and_set
        with pytest.raises(InputError):
            represent_cube_point(report, S, np.array([1.5, 0.0, 0.0, 0.0]))

    def test_requires_in_memory_tables(self, report_and_set):
        report, S = report_and_set
        stripped = dataclasses.replace(report, _rows={})
        with pytest.raises(InputError):
            represent_cube_point(stripped, S, np.zeros(4))


class TestPNormedQuotient:
    def test_p1_reduces_to_cube_scale(self):
        body = PBody(GeneratingSet(4, _cube_points(4)), 1.0)
        report, distance = pnormed_quotient(body, 0.5, seed=0, queries=4)
        assert distance["p"] == 1.0
        assert distance["contraction"] == 1.0
        assert distance["realized"] == pytest.approx(
            report.C_over_eps * distance["d"])

    def test_contraction_formula_for_small_p(self):
        body = PBody(GeneratingSet(3, _cube_points(3)), 0.5)
        report, distance = pnormed_quotient(body, 0.5, seed=1, queries=4)
        theta = report.theta
        want = 0.5 ** -2.0 * (1 - theta) ** (1 - 2.0)
        assert distance["contraction"] == pytest.approx(want, rel=1e-9)


class TestCubicFromDelta:
    def test_coordinate_subspace_instance(self):
        from geomhull.bodies import lp_ball_body
        body = lp_ball_body(4, 0.5)
        report, summary = cubic_quotient_from_nonconvexity(
            body, [0, 1, 2, 3], seed=2, queries=4)
        assert summary["operator_k"] == 1
        assert summary["m"] == 4
        assert summary["delta"] == pytest.approx(4.0)
        assert summary["A"] == pytest.approx(0.25)
        # desk-scale A never clears e^e, so the dimension bound stays empty
        assert summary["target_dim"] is None
        assert summary["realized_distance"] > 0

    def test_matrix_subspace_rejected(self):
        from geomhull.bodies import lp_ball_body
        body = lp_ball_body(4, 0.5)
        with pytest.raises(InputError):
            cubic_quotient_from_nonconvexity(body, np.eye(4)[:2], seed=0)

    def test_duplicate_coords_rejected(self):
        from geomhull.bodies import lp_ball_body
        body = lp_ball_body(4, 0.5)
        with pytest.raises(InputError):
            cubic_quotient_from_nonconvexity(body, [0, 0, 1, 2], seed=0)


class TestCalibration:
    def test_defaults(self):
        cal = Calibration()
        assert cal.as_dict() == {"c": 0.1, "C": 8.0, "c1": 0.03125,
                                 "c2": 1.0}

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError):
            Calibration.from_mapping({"c3": 1.0})

    @pytest.mark.parametrize("value", [0.0, -0.1, math.nan, math.inf])
    def test_constants_must_be_finite_and_positive(self, value):
        with pytest.raises(InputError, match="finite and positive"):
            Calibration.from_mapping({"c": value})

    def test_passthrough_and_none(self):
        cal = Calibration.from_mapping(None)
        assert cal == Calibration()
        assert Calibration.from_mapping(cal) is cal
