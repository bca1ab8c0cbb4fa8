import itertools
import math
import pathlib

import numpy as np
import pytest

from geomhull import balance, cube
from geomhull.balance import greedy_signs, halving_step, type1_represent
from geomhull.bodies import (GeneratingSet, envelope_gauge,
                             load_generating_set_json)
from geomhull.errors import InputError, NumericalError, PhaseError
from geomhull.hulls import (DeltaMCertificate, approx2_transform, check_rows,
                            rows_average)


def _circle(k):
    angles = np.linspace(0.0, 2.0 * math.pi, k + 1)[:-1]
    return GeneratingSet(2, np.column_stack([np.cos(angles), np.sin(angles)]))


def _reference_greedy_signs(vectors, dot=np.dot):
    """The numpy loop greedy_signs replaced: one dot, one update and one
    square per vector, each a numpy call."""
    X = np.atleast_2d(np.asarray(vectors, dtype=float))
    N = X.shape[0]
    if N < 1:
        raise InputError("need at least one vector")
    signs = np.ones(N)
    partial = np.zeros(X.shape[1])
    budget = 0.0
    for k in range(N):
        if dot(partial, X[k]) > 0:
            signs[k] = -1.0
        partial = partial + signs[k] * X[k]
        budget += X[k] @ X[k]
        if partial @ partial > budget * (1 + 1e-9) + 1e-12:
            raise NumericalError("greedy square growth invariant violated")
    sum_norm = float(np.linalg.norm(partial))
    bound = math.sqrt(N) * float(np.linalg.norm(X, axis=1).max())
    if sum_norm > bound * (1 + 1e-9) + 1e-12:
        raise NumericalError("greedy final bound violated")
    return signs


def _slot_signs(X):
    """greedy_signs on one run per row."""
    return greedy_signs(X, [1] * len(X))


def _reference_halving(S, rows, N):
    """The slot-by-slot halving that halving_step replaced: the rows expanded
    into N slots, the numpy greedy loop, the minority class summed slot by
    slot, and the defect, identity and bound on the N x n slot array."""
    gens, mults, alphas = map(list, rows)
    DeltaMCertificate(N, mults, alphas)
    idx, coefs = [], []
    for g, count, alpha in zip(gens, mults, alphas):
        if count:
            idx += [g] * count
            coefs += [alpha / count] * count
    pad = N - len(idx)
    idx, coefs = idx + [0] * pad, coefs + [0.0] * pad
    X = np.array(coefs)[:, None] * S.points[idx]
    signs = _reference_greedy_signs(X)
    sign_list = signs.tolist()
    minority_sign = 1.0 if sign_list.count(1.0) <= N // 2 else -1.0
    mult, alpha = {}, {}
    for g, c, sign in zip(idx, coefs, sign_list):
        if sign == minority_sign:
            mult[g] = mult.get(g, 0) + 1
            alpha[g] = alpha.get(g, 0.0) + c
    out = sorted(mult)
    rows = out, [mult[g] for g in out], [alpha[g] for g in out]
    u = X.sum(axis=0) / N
    gap = u - dense_certificate(S, rows, N // 2).evaluate(S)
    eps = -minority_sign * signs
    identity = (eps[:, None] * X).sum(axis=0) / N
    scale = max(1.0, np.linalg.norm(u))
    assert np.linalg.norm(gap - identity) <= 1e-10 * scale
    bound = math.sqrt((X * X).sum(axis=1).max() / N)
    return rows, float(np.linalg.norm(gap)), bound


def _reference_type1(S, theta, m, x):
    """type1_represent's loop with the envelope gauge taken at every level,
    also where the halvings keep no slot and w = r.  Returns (rep, scale,
    trace)."""
    start = envelope_gauge(S, x)
    halvings = max(1, math.ceil(math.log2(max(2.0, 16.0 * S.dimension / m))))
    M = 2 ** halvings * m
    r, coefficients = np.array(x, dtype=float), start.coefficients
    series, trace = ([], [], [], []), []
    for level in itertools.count():
        norm_r = np.linalg.norm(r)
        if norm_r <= 1e-15 or theta ** level * norm_r <= 1e-9:
            break
        lam = coefficients * M
        counts = np.ceil(np.abs(lam) - 1e-12).astype(int)
        while counts.sum() > M:
            lam = lam * 0.95
            counts = np.ceil(np.abs(lam) - 1e-12).astype(int)
        gens = np.flatnonzero(counts)
        rows = gens.tolist(), counts[gens].tolist(), lam[gens].tolist()
        for h in range(halvings):
            rows, d, bound = halving_step(S, rows, M >> h)
            trace.append({"level": level, "halving": h, "input_terms": M >> h,
                          "defect": d, "bound": bound})
        w = r - rows_average(S, rows, m)
        defect = envelope_gauge(S, w)
        assert defect.value <= theta * (1 + 1e-9)
        for column, row in zip(series, ([level] * len(rows[0]), *rows)):
            column.extend(row)
        r = w / theta
        coefficients = defect.coefficients / theta
    rep, flatten_scale = approx2_transform(theta, m, np.ones(level), series)
    scale = flatten_scale / (1.0 - theta)
    rep.residual_norm = float(theta ** level * np.linalg.norm(r) / scale)
    return rep, scale, trace


def _level_rows(monkeypatch, S, theta, m, x):
    """Run type1_represent; return each level's rows after its last halving
    (of 2m slots), the representation, the scale and the points whose
    envelope gauge it asked for."""
    levels, asked = [], []
    real_halving, real_gauge = balance.halving_step, balance.envelope_gauge

    def halving(S_, rows, N):
        out = real_halving(S_, rows, N)
        if N == 2 * m:
            levels.append(out[0])
        return out

    def gauge(S_, y):
        asked.append(y)
        return real_gauge(S_, y)

    with monkeypatch.context() as patch:
        patch.setattr(balance, "halving_step", halving)
        patch.setattr(balance, "envelope_gauge", gauge)
        rep, scale = type1_represent(S, theta, m, x)
    return levels, rep, scale, asked


def _type1_requests(S, count, seed):
    """Signed convex combinations of S, drawn as the type1 benchmark draws
    them."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        w = rng.dirichlet(np.ones(S.count)) * rng.uniform(0.1, 1.0)
        points.append((rng.choice([-1.0, 1.0], size=S.count) * w) @ S.points)
    return points


class _SkewedDot(np.ndarray):
    """An array whose dot with a vector is the Python-float dot moved
    2 n unit roundoffs of sum |p_i x_i| toward the other sign: as far as
    another kernel's rounding (fused, reordered) may take it."""

    def __matmul__(self, other):
        products = [p * x for p, x in zip(self.tolist(), np.asarray(other).tolist())]
        dot = sum(products)
        shift = 2 * len(products) * 2.0 ** -53 * sum(map(abs, products))
        return dot - math.copysign(shift, dot)


def _skewed_dot(partial, x):
    return partial.view(_SkewedDot) @ x


class _CountingNumpy:
    """numpy with the objects passed to np.array recorded; with skew=True,
    np.array gives a _SkewedDot."""

    def __init__(self, skew=False):
        self.arrays = []
        self.skew = skew

    def __getattr__(self, name):
        return getattr(np, name)

    def array(self, obj, *args, **kwargs):
        self.arrays.append(obj)
        out = np.array(obj, *args, **kwargs)
        return out.view(_SkewedDot) if self.skew else out


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
            signs = _slot_signs(X)
            bound = math.sqrt(20) * np.linalg.norm(X, axis=1).max()
            assert np.linalg.norm(signs @ X) <= bound * (1 + 1e-9)

    def test_exhaustive_never_worse(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            X = rng.standard_normal((8, 3))
            signs = _slot_signs(X)
            assert _exhaustive_sum_norm(X) <= np.linalg.norm(signs @ X) + 1e-12

    def test_signs_follow_the_greedy_rule(self):
        # each sign opposes the partial sum before it, + on a tie
        rng = np.random.default_rng(2)
        X = rng.standard_normal((12, 4))
        signs = _slot_signs(X)
        partial = np.zeros(4)
        for sign, x in zip(signs, X):
            assert sign == (-1.0 if partial @ x > 0 else 1.0)
            partial = partial + sign * x

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            greedy_signs(np.zeros((0, 2)), [])

    def test_signs_equal_the_numpy_loop_on_type1_halvings(self, monkeypatch):
        S = _circle(64)
        calls = []

        def both(vectors, counts):
            signs = greedy_signs(vectors, counts)
            slots = np.repeat(np.asarray(vectors), counts, axis=0)
            assert np.array_equal(signs, _reference_greedy_signs(slots))
            calls.append(len(signs))
            return signs

        monkeypatch.setattr(balance, "greedy_signs", both)
        for x in _type1_requests(S, 40, seed=7):
            type1_represent(S, 0.5, 4, x)
        assert len(calls) > 40 * 3 and set(calls) == {8, 16, 32}

    @pytest.mark.parametrize("rows", [
        # s0 against s16 of the 64-gon: cos(pi/2) ~ 6e-17, a dot far inside
        # ||partial|| ||x|| that only its own products decide
        [0, 0, 0, 16, 16, 16, 0, 0, 48, 48, 32, 16],
        [16, 0, 16, 0, 32, 48, 48, 16, 0],
        # s8 against s24 and s40: orthogonal pairs at 45 degrees
        [8, 8, 24, 24, 24, 40, 40, 8, 56, 56],
    ])
    def test_near_orthogonal_runs_equal_the_numpy_loop(self, rows):
        X = _circle(64).points[rows] * 0.75
        assert np.array_equal(_slot_signs(X), _reference_greedy_signs(X))

    def test_exactly_cancelling_dot_takes_numpy_dot(self, monkeypatch):
        # 0.6 * 0.8 and 0.8 * -0.6 are one product with opposite signs, so
        # the second dot is exactly 0 with nonzero products
        X = np.array([[0.6, 0.8], [0.8, -0.6], [0.8, -0.6], [-0.6, -0.8],
                      [0.0, 0.0], [0.6, 0.8]])
        counting = _CountingNumpy()
        monkeypatch.setattr(balance, "np", counting)
        signs = _slot_signs(X)
        assert len(counting.arrays) - 1 >= 1
        assert np.array_equal(signs, _reference_greedy_signs(X))

    @pytest.mark.parametrize("rows", [
        [[1.0, 1.0], [1.0, -1.0 + 2.0 ** -52], [1.0, -1.0 + 2.0 ** -52]],
        # a dot of 1.5 n unit roundoffs of sum |p_i x_i|
        [[1.0, 1.0], [1.0, -1.0 + 3 * 2.0 ** -52]],
        [[0.6, 0.8], [0.8, -0.6 + 2.0 ** -53], [0.3, 0.4], [0.4, -0.3]],
        [[3.0, -1.0, 2.0], [1.0, 1.0, -1.0 - 2.0 ** -52], [0.5, 0.5, 0.5]],
    ])
    def test_signs_follow_any_dot_kernel_within_rounding(self, rows, monkeypatch):
        # numpy's dot may round otherwise than Python's sum of products
        # (fused multiply-adds, another order); each sign must still be the
        # one that dot decides
        X = np.array(rows)
        skewed = _CountingNumpy(skew=True)
        monkeypatch.setattr(balance, "np", skewed)
        signs = _slot_signs(X)
        assert np.array_equal(signs, _reference_greedy_signs(X, _skewed_dot))
        assert not np.array_equal(signs, _reference_greedy_signs(X))
        assert len(skewed.arrays) - 1 >= 1

    def test_random_rows_equal_the_numpy_loop(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 6):
            for _ in range(20):
                # runs of repeated rows, some zero, as halving inputs have
                base = rng.standard_normal((6, n)) * rng.uniform(0, 2, (6, 1))
                base[rng.integers(0, 6)] = 0.0
                X = base[np.sort(rng.integers(0, 6, size=24))]
                assert np.array_equal(_slot_signs(X),
                                      _reference_greedy_signs(X))


    @pytest.mark.parametrize("counts", [
        # a run from a zero sum repeats its sum two steps back at step 3,
        # leaving odd and even remainders
        [5], [6], [3], [2],
        # from the partial sum a run of s1 leaves, whose steps alternate
        # only once rounding settles
        [1, 7], [1, 8], [3, 9], [2, 1, 4, 11],
    ])
    def test_runs_equal_the_numpy_loop_on_the_slots(self, counts):
        points = _circle(64).points
        V = np.array([0.75 * points[1], 0.5 * points[17], -0.3 * points[40],
                      points[8]])[:len(counts)]
        signs = greedy_signs(V, counts)
        assert np.array_equal(signs, _reference_greedy_signs(
            np.repeat(V, counts, axis=0)))

    @pytest.mark.parametrize("rows,counts", [
        # equal neighbours merge, and a zero count does not part them
        ([[0.6, 0.8], [0.6, 0.8], [1.0, 0.0], [0.6, 0.8]], [2, 3, 0, 4]),
        # -0.0 compares equal to 0.0: the padding after a zero-alpha row
        ([[0.3, -0.4], [-0.0, 0.0], [0.0, -0.0], [0.0, 0.0]], [3, 2, 0, 5]),
        ([[0.0, 0.0], [0.2, 0.1], [0.2, 0.1], [0.0, -0.0]], [4, 1, 6, 3]),
    ])
    def test_merged_runs_equal_the_numpy_loop(self, rows, counts):
        V = np.array(rows)
        signs = greedy_signs(V, counts)
        assert np.array_equal(signs, _reference_greedy_signs(
            np.repeat(V, counts, axis=0)))

    def test_random_runs_equal_the_numpy_loop(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 6):
            for _ in range(20):
                V = rng.standard_normal((5, n)) * rng.uniform(0, 2, (5, 1))
                V[rng.integers(0, 5)] = 0.0
                V = V[rng.integers(0, 5, size=7)]  # some neighbours equal
                counts = rng.integers(0, 12, size=7)
                if counts.sum():
                    assert np.array_equal(greedy_signs(V, counts),
                                          _reference_greedy_signs(
                                              np.repeat(V, counts, axis=0)))

    @pytest.mark.parametrize("vectors,counts", [
        (np.ones((2, 2)), [1]), (np.ones((2, 2)), [1, -1]),
        (np.ones(2), [1, 1])])
    def test_counts_must_match_the_vectors(self, vectors, counts):
        with pytest.raises(InputError, match="one count"):
            greedy_signs(vectors, counts)


def dense_certificate(S, rows, N):
    """Nonzero (generators, multiplicities, alphas) rows as a DeltaMCertificate
    over all of S; test_cube uses it too."""
    gens, mults, alphas = rows
    mult, alpha = np.zeros(S.count, dtype=int), np.zeros(S.count)
    mult[gens], alpha[gens] = mults, alphas
    return DeltaMCertificate(m=N, multiplicities=mult, alphas=alpha)


class TestHalving:
    def test_halves_and_identity(self):
        S = _circle(8)
        rng = np.random.default_rng(3)
        gens = [0, 2, 3, 5, 7]
        mults = [4, 1, 3, 2, 4]
        alphas = (rng.uniform(-1, 1, size=5) * mults).tolist()
        rows, defect, bound = halving_step(S, (gens, mults, alphas), 16)
        assert sum(rows[1]) <= 8 and set(rows[0]) <= set(gens) | {0}
        assert all(m >= 1 for m in rows[1])
        # defect == distance between the 16-term and 8-term averages
        u = dense_certificate(S, (gens, mults, alphas), 16).evaluate(S)
        v = dense_certificate(S, rows, 8).evaluate(S)
        assert np.linalg.norm(u - v) == pytest.approx(defect)
        widest = max(abs(a) / k for a, k in zip(alphas, mults))
        assert bound == pytest.approx(widest / 4.0)
        assert defect <= bound * (1 + 1e-9) + 1e-12

    def test_padding_halves_with_generator_zero(self):
        # three slots of generator 5 in eight: the five padding slots are
        # (0, 0.0), and whichever class is smaller keeps its share
        S = _circle(8)
        rows, defect, bound = halving_step(S, ([5], [3], [1.5]), 8)
        assert sum(rows[1]) <= 4
        assert set(rows[0]) <= {0, 5}
        assert bound == pytest.approx(0.5 / math.sqrt(8))

    def test_odd_count_rejected(self):
        S = _circle(4)
        for N in (3, 7, 0):
            with pytest.raises(InputError, match="even N"):
                halving_step(S, ([0], [1], [0.5]), N)

    def test_scalar_cap_enforced(self):
        # an alpha above its multiplicity puts a slot scalar above 1
        S = _circle(4)
        with pytest.raises(InputError, match="alpha exceeds"):
            halving_step(S, ([0, 1], [1, 2], [0.5, 2.5]), 4)

    def test_length_mismatch_rejected(self):
        S = _circle(4)
        for rows in (([0, 1], [1, 1], [0.5]), ([0, 1], [1], [0.5, 0.5])):
            with pytest.raises(InputError, match="equal-length"):
                halving_step(S, rows, 4)

    @pytest.mark.parametrize("gens", [[1, 0], [1, 1], [0, 4], [-1]])
    def test_generators_must_increase_within_s(self, gens):
        S = _circle(4)
        with pytest.raises(InputError, match="increasing"):
            halving_step(S, (gens, [1] * len(gens), [0.5] * len(gens)), 4)

    def test_zero_multiplicity_fills_no_slot(self):
        S = _circle(4)
        assert (halving_step(S, ([0, 1], [0, 3], [0.0, 1.5]), 4)
                == halving_step(S, ([1], [3], [1.5]), 4))
        with pytest.raises(InputError, match="alpha exceeds"):
            halving_step(S, ([0], [0], [0.5]), 4)

    def test_multiplicities_over_the_slot_count_rejected(self):
        S = _circle(4)
        with pytest.raises(InputError, match="exceed the budget"):
            halving_step(S, ([0, 1], [2, 3], [1.0, 1.0]), 4)

    @pytest.mark.parametrize("mults,alphas", [
        ([-1, 3], [0.0, 1.5]), ([1, -2], [math.nan, 0.0]),
        ([-1, 9], [5.0, 1.5]), ([2, 3], [9.0, 1.0]), ([0, 2], [0.5, 1.0]),
        ([1, 1], [math.nan, 0.5]), ([1, 3], [0.5, -3.1])])
    def test_rows_rejected_as_check_rows_rejects_them(self, mults, alphas):
        # the same three rules, in the same order, with the same messages
        with pytest.raises(InputError) as want:
            check_rows(4, sum(mults), np.array(mults), np.array(alphas))
        with pytest.raises(InputError) as got:
            halving_step(_circle(4), ([0, 1], mults, alphas), 4)
        assert str(got.value) == str(want.value)

    def test_nan_alpha_rejected(self):
        S = _circle(4)
        with pytest.raises(InputError, match="alpha exceeds"):
            halving_step(S, ([1], [2], [math.nan]), 4)

    @staticmethod
    def _assert_equals_reference(S, rows, N):
        out, defect, bound = halving_step(S, rows, N)
        want = _reference_halving(S, rows, N)
        assert out == want[0]
        assert [type(a) for a in out[2]] == [float] * len(out[2])
        assert (defect, bound) == want[1:]

    @pytest.mark.parametrize("S,rows,N", [
        # a zero-multiplicity row fills no slot
        (_circle(8), ([0, 3, 5], [0, 3, 2], [0.0, -1.2, 0.5]), 8),
        # a zero-alpha row is a run of zero vectors, like the padding after it
        (_circle(8), ([2, 6], [3, 2], [0.9, 0.0]), 8),
        (_circle(8), ([1, 7], [2, 3], [0.0, 0.0]), 8),
        # generator 0 takes slots of its own row and of the padding
        (_circle(8), ([0, 4], [3, 2], [-1.4, 0.25]), 16),
        (_circle(8), ([0], [5], [2.5]), 8),
        (_circle(8), ([0], [1], [0.5]), 2),
        (_circle(8), ([], [], []), 8),
        # a full row, no padding; and rows far from their slot count
        (_circle(8), ([1, 2, 5], [3, 1, 4], [1.5, -0.5, 3.0]), 8),
        (GeneratingSet(3, np.vstack([np.eye(3), [[0.3, -0.2, 0.9]]])),
         ([0, 1, 3], [7, 1, 20], [-6.5, 1.0, 13.0]), 64),
        # numpy sums one column, and rows of 8 or more, pairwise
        (GeneratingSet(1, [[0.7], [-1.3], [0.1]]),
         ([0, 1, 2], [5, 9, 3], [2.9, -8.1, 0.3]), 32),
        (GeneratingSet(9, np.random.default_rng(0).standard_normal((12, 9))),
         ([2, 5, 11], [6, 3, 10], [-5.3, 2.2, 9.1]), 32),
        # rows that fill no slot, like the empty rows above
        (_circle(8), ([0, 3], [0, 0], [0.0, 0.0]), 8),
    ])
    def test_bits_equal_the_slot_reference(self, S, rows, N):
        self._assert_equals_reference(S, rows, N)

    def test_bits_equal_the_slot_reference_on_type1_halvings(self,
                                                              monkeypatch):
        S = _circle(64)
        seen = []

        def checked(S_, rows, N):
            self._assert_equals_reference(S_, rows, N)
            seen.append(N)
            return halving_step(S_, rows, N)

        monkeypatch.setattr(balance, "halving_step", checked)
        for x in _type1_requests(S, 40, seed=10):
            type1_represent(S, 0.5, 4, x)
        assert len(seen) > 40 * 3 and set(seen) == {8, 16, 32}

    def test_bits_equal_the_slot_reference_on_vertex_fits(self, monkeypatch):
        # no vertex of the rotated 6-cube is in S: each is halved from its
        # LP decomposition, 688 slots to 344
        S, _ = load_generating_set_json(
            pathlib.Path(__file__).with_name("rotated_cube6.json"))
        seen = []

        def checked(S_, rows, N):
            self._assert_equals_reference(S_, rows, N)
            seen.append(N)
            return halving_step(S_, rows, N)

        monkeypatch.setattr(cube, "halving_step", checked)
        cube.cube_quotient(S, 0.5, seed=2, queries=1)
        assert len(seen) >= 32

    def test_certificate_and_slots_equal_the_numpy_path(self, monkeypatch):
        # on every halving of seeded type1 requests: the slots are the input
        # certificate's DeltaMCertificate.slots(), and np.bincount over the
        # minority class of the numpy greedy loop gives the output rows
        S = _circle(64)
        seen = []

        def checked(S_, rows, N):
            out, defect, bound = halving_step(S_, rows, N)
            idx, scal = dense_certificate(S_, rows, N).slots()
            X = scal[:, None] * S_.points[idx]
            signs = _reference_greedy_signs(X)
            minority = 1.0 if (signs > 0).sum() <= N // 2 else -1.0
            mask = signs == minority
            mult = np.bincount(idx[mask], minlength=S_.count)
            alpha = np.bincount(idx[mask], weights=scal[mask],
                                minlength=S_.count)
            gens = np.flatnonzero(mult)
            assert out[0] == gens.tolist()
            assert out[1] == mult[gens].tolist()
            assert out[2] == alpha[gens].tolist()
            v = S_.points.T @ alpha / (N // 2)
            assert defect == float(np.linalg.norm(X.sum(axis=0) / N - v))
            assert bound == pytest.approx(
                np.linalg.norm(X, axis=1).max() / math.sqrt(N), rel=1e-14)
            seen.append(N)
            return out, defect, bound

        monkeypatch.setattr(balance, "halving_step", checked)
        for x in _type1_requests(S, 10, seed=8):
            type1_represent(S, 0.5, 4, x)
        assert set(seen) == {8, 16, 32}


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
            # unit generators: the greedy bound is at most 1 / sqrt(N)
            assert rec["defect"] <= rec["bound"] * (1 + 1e-9) + 1e-12
            assert rec["bound"] <= 1.0 / math.sqrt(rec["input_terms"]) + 1e-12

    def test_misreported_halving_fails(self, monkeypatch):
        # a halving that reports a bound below its defect is caught at once,
        # before the level's defect gauge is taken
        real = balance.halving_step

        def misreported(*args):
            rows, defect, bound = real(*args)
            return rows, defect, defect / 2

        monkeypatch.setattr(balance, "halving_step", misreported)
        S = _circle(16)
        with pytest.raises(PhaseError, match="exceeds its bound") as err:
            type1_represent(S, 0.5, 4, 0.6 * S.points[0] + 0.3 * S.points[5])
        assert err.value.phase == "halving-convergence"
        assert err.value.diagnostics["level"] == 0
        assert err.value.diagnostics["halving"] == 0

    def test_bits_equal_with_the_numpy_greedy_loop(self, monkeypatch):
        S = _circle(64)
        points = _type1_requests(S, 8, seed=9)

        def outputs():
            result = []
            for x in points:
                trace = []
                rep, scale = type1_represent(S, 0.5, 4, x, trace=trace)
                result.append((rep.levels, rep.lambdas, rep.indices, scale,
                               [rec["defect"] for rec in trace]))
            return result

        fast = outputs()
        monkeypatch.setattr(
            balance, "greedy_signs", lambda vectors, counts:
            _reference_greedy_signs(np.repeat(vectors, counts, axis=0)))
        for new, old in zip(fast, outputs()):
            for a, b in zip(new[:3], old[:3]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert new[3] == old[3] and new[4] == old[4]

    def test_levels_that_keep_no_slot_equal_the_gauge_at_every_level(self):
        # at theta = 1/2, r = w / theta and its scaled answer are exact, so
        # reusing r's answer gives the bits of taking the gauge again
        S = _circle(64)
        for x in _type1_requests(S, 40, seed=13):
            trace = []
            rep, scale = type1_represent(S, 0.5, 4, x, trace=trace)
            ref, ref_scale, ref_trace = _reference_type1(S, 0.5, 4, x)
            for a, b in [(rep.levels, ref.levels), (rep.lambdas, ref.lambdas),
                         (rep.indices, ref.indices)]:
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert scale == ref_scale and trace == ref_trace
            assert rep.residual_norm == ref.residual_norm

    def test_gauges_asked_are_one_per_level_that_keeps_slots(self,
                                                             monkeypatch):
        S = _circle(64)
        empty = 0
        for x in _type1_requests(S, 40, seed=14):
            levels, _, _, asked = _level_rows(monkeypatch, S, 0.5, 4, x)
            assert len(asked) == 1 + sum(1 for rows in levels if rows[0])
            empty += sum(1 for rows in levels if not rows[0])
        assert empty > 40  # the reuse is exercised

    def test_every_level_gauge_within_theta_at_three_quarters(self,
                                                              monkeypatch):
        # 1/theta is not exact here: replay the levels and take each
        # defect's gauge afresh, also where the level kept no slot
        S = _circle(64)
        theta, empty = 0.75, 0
        for x in _type1_requests(S, 20, seed=15):
            levels, rep, scale, _ = _level_rows(monkeypatch, S, theta, 4, x)
            r = x
            for rows in levels:
                w = r - rows_average(S, rows, 4) if rows[0] else r
                assert envelope_gauge(S, w).value <= theta * (1 + 1e-9)
                r = w / theta
                empty += not rows[0]
            tail = scale * rep.residual_norm
            assert tail <= 1e-9
            assert np.linalg.norm(scale * rep.evaluate(S) - x) <= tail + 1e-12
        assert empty > 0

    def test_a_level_that_keeps_no_slot_checks_the_gauge_in_hand(self,
                                                                  monkeypatch):
        # halvings that keep no slot make x level 0's defect and x / theta
        # level 1's; the gauges the loop holds for them must meet theta
        calls = []

        def keeps_none(S_, rows, N):
            calls.append(N)
            assert len(calls) < 20
            return ([], [], []), 0.0, 0.0

        monkeypatch.setattr(balance, "halving_step", keeps_none)
        S = _circle(16)
        for x, level in [(0.9 * S.points[0] + 0.05 * S.points[3], 0),
                         (0.3 * S.points[0] + 0.1 * S.points[5], 1)]:
            with pytest.raises(PhaseError, match="defect gauge") as err:
                type1_represent(S, 0.5, 4, x)
            assert err.value.diagnostics["level"] == level
            assert err.value.diagnostics["defect_gauge"] == pytest.approx(
                envelope_gauge(S, x / 0.5 ** level).value, rel=1e-12)

    def test_theta_domain(self):
        S = _circle(8)
        with pytest.raises(InputError):
            type1_represent(S, 1.0 / 3.0, 2, np.zeros(2))

    def test_outside_envelope_rejected(self):
        S = _circle(8)
        with pytest.raises(InputError):
            type1_represent(S, 0.5, 2, np.array([2.0, 0.0]))
