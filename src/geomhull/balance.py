"""Sign balancing and the balanced representation pipeline.

Sequential sign choices for vector tuples, the halving step
that turns a 2N-term average into an N-term average plus a small defect, and
the end-to-end pipeline that converts envelope-ball membership into a
geometric-series representation.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .bodies import GeneratingSet, envelope_gauge
from .errors import InputError, NumericalError, PhaseError
from .hulls import approx2_transform, check_rows, rows_average


def greedy_signs(vectors, counts):
    """Pick signs sequentially, each minimizing the norm of the partial sum.

    The N slots come as runs, counts[r] copies of vectors[r] in order.  The
    choice is sign = -sign(<partial, x>), the square never grows faster than
    sum ||x_k||^2, and the final sum obeys ||sum eps x|| <= sqrt(N) max||x||
    (both asserted).  Returns the signs, one +-1 per slot.

    The loop runs on Python floats, and each partial-sum update is the IEEE
    operation of the array expression partial + sign * x.  A dot product
    within the rounding band of sum |partial_i x_i| is retaken as numpy's
    partial @ x, so every sign is the one numpy's dot decides, whether or
    not its kernel fuses multiply-adds.  Neighbouring runs of vectors that
    compare equal merge.  Along a run, once a partial sum repeats the one two
    steps back, the run's remaining signs repeat the last two, in bulk.
    """
    X = np.asarray(vectors, dtype=float)
    counts = list(map(operator.index, counts))
    if (X.ndim != 2 or len(counts) != len(X) or min(counts, default=0) < 0
            or sum(counts) < 1):
        raise InputError("need 2-d vectors, one count >= 0 each, not all 0")
    N, n = sum(counts), X.shape[1]
    runs = []  # [vector, count, row of X], equal neighbours merged
    for r, (x, count) in enumerate(zip(X.tolist(), counts)):
        if runs and x == runs[-1][0]:
            runs[-1][1] += count
        elif count:
            runs.append([x, count, r])
    # two float dots of n products differ by at most 2 n unit roundoffs of
    # sum |p_i x_i|; the band doubles that.  That sum is at most
    # ||partial|| ||x||, which screens out all but near-orthogonal steps.
    band = 4.0 * (n + 1) * 2.0 ** -53
    signs = []
    partial = [0.0] * n
    budget = square_sum = widest = 0.0
    for x, count, r in runs:
        if not any(x):  # a zero dot takes +, and the sum stays as it is
            signs += [1.0] * count
            continue
        square = sum(map(operator.mul, x, x))
        widest = max(widest, square)
        run = [partial]  # the partial sums along this run
        for step in range(count):
            if len(run) > 2 and run[-1] == run[-3]:
                # each further step repeats the one two back, whose square
                # passed the check below against a smaller budget; the sum
                # ends where an even or odd number of steps takes it
                rest = count - step
                signs += signs[-2:] * (rest // 2) + signs[-2:-1] * (rest % 2)
                budget += rest * square
                run.append(run[-1 - rest % 2])
                break
            budget += square
            dot = sum(map(operator.mul, partial, x))
            if dot * dot <= band * band * square_sum * square:
                spread = sum(map(abs, map(operator.mul, partial, x)))
                if spread and abs(dot) <= band * spread:
                    dot = float(np.array(partial) @ X[r])
            if dot > 0:
                signs.append(-1.0)
                partial = list(map(operator.sub, partial, x))
            else:
                signs.append(1.0)
                partial = list(map(operator.add, partial, x))
            run.append(partial)
            square_sum = sum(map(operator.mul, partial, partial))
            if square_sum > budget * (1 + 1e-9) + 1e-12:
                raise NumericalError("greedy square growth invariant violated")
        partial = run[-1]
        square_sum = sum(map(operator.mul, partial, partial))
    sum_norm = math.sqrt(square_sum)
    bound = math.sqrt(N * widest)
    if sum_norm > bound * (1 + 1e-9) + 1e-12:
        raise NumericalError("greedy final bound violated")
    return np.array(signs)


# ---------------------------------------------------------------------------
# halving
# ---------------------------------------------------------------------------

def halving_step(S: GeneratingSet, rows, N):
    """Halve an N-slot star-hull average: nonzero rows in, rows for N/2 out.

    rows are (generators, multiplicities, alphas) lists, generators
    increasing, that pass hulls.check_rows.  They fill N slots in
    hulls._slot_layout's order as runs: mult slots (alpha / mult) s_g per
    generator g, then (0, 0.0) slots up to N.  Greedy signs split the slots;
    the minority class (at most N/2 slots) is summed per generator in slot
    order, as np.bincount sums it.  The defect ||u - v|| = ||(1/N) sum eps_k
    x_k|| is checked as an identity, and bound = max ||x_k|| / sqrt(N) is
    what greedy_signs asserts of it; u and bound take numpy's sums over the
    runs, repeated into slots for u, with the slot array's bits; rows that
    fill no slot return those bits at once.  Returns (rows, defect, bound).
    """
    gens, mults, alphas = map(list, rows)
    if N < 2 or N % 2 or not len(gens) == len(mults) == len(alphas):
        raise InputError("need an even N >= 2 and equal-length rows")
    if any(map(operator.ge, [-1] + gens, gens + [S.count])):
        raise InputError("generators must be increasing indices into S")
    filled = sum(mults)
    check_rows(N, filled, np.array(mults), np.array(alphas))
    if not filled:
        return ([], [], []), 0.0, 0.0
    runs = [(g, count, alpha / count)
            for g, count, alpha in zip(gens, mults, alphas) if count]
    if filled < N:
        runs.append((0, N - filled, 0.0))
    vectors = [[c * p for p in S._point_lists[g]] for g, _, c in runs]
    counts = [count for _, count, _ in runs]
    X = np.array(vectors)
    signs = greedy_signs(X, counts).tolist()
    minority_sign = 1.0 if signs.count(1.0) <= N // 2 else -1.0
    mult, alpha, eps, end = {}, {}, [], 0
    for g, count, c in runs:
        end += count
        minority = signs[end - count:end].count(minority_sign)
        eps.append(count - 2 * minority)  # -1 per minority slot, +1 elsewhere
        if minority:
            mult[g] = mult.get(g, 0) + minority
            alpha[g] = functools.reduce(operator.add,
                                        itertools.repeat(c, minority),
                                        alpha.get(g, 0.0))
    out = sorted(mult)
    rows = out, [mult[g] for g in out], [alpha[g] for g in out]
    u = np.add.reduce(X.repeat(counts, axis=0)) / N
    gap = u - rows_average(S, rows, N // 2)
    defect = float(np.linalg.norm(gap))
    identity = [sum(map(operator.mul, eps, xs)) / N for xs in zip(*vectors)]
    scale = max(1.0, math.hypot(*u.tolist()))
    if math.dist(gap.tolist(), identity) > 1e-10 * scale:
        raise NumericalError("halving defect identity violated")
    bound = math.sqrt(max(np.add.reduce(X * X, axis=1).tolist()) / N)
    return rows, defect, bound


def type1_represent(S: GeneratingSet, theta, m, x, trace=None):
    """Represent an envelope-ball point as a scaled geometric series over S.

    Pipeline per series level: LP-decompose the current residual into
    weights lambda, write it as an average over M = 2^halvings * m slots,
    with halvings = max(1, ceil(log2(16 n / m))), halve down to m terms,
    emit the m-term certificate at coefficient 1, and pass the accumulated
    defect divided by theta to the next level.  The halvings pass nonzero
    rows; the first are (ceil(|lambda_i M|), lambda_i M) for each weight
    above 1e-12, so generator i fills that many adjacent equal slots, which
    cancel in pairs under greedy signs.  If the slots exceed M, lambda
    shrinks by 0.95 until they fit and the shed mass joins the defect.  The
    level defect must have envelope gauge <= theta or the pipeline fails
    with diagnostics.  The series stops at the first level whose remaining tail
    theta^level * ||residual|| is at most 1e-9; since every residual stays
    in the envelope ball, that level always comes.  Finally the certificate
    rows, tagged with their levels, go to approx2_transform, which flattens
    them into a representation with ratio theta^(1/m).

    Returns (representation, scale) with scale * eval(rep) = x up to the
    representation's residual_norm * scale; the scale never exceeds
    2 theta / ((3 theta - 1)(1 - theta)).  Pass a list as `trace` to collect
    one record per halving step (level, halving, input_terms, defect and
    the bound greedy_signs proves on it).
    """
    if not 1.0 / 3.0 < theta < 1:
        raise InputError("theta must lie in (1/3, 1)")
    if m < 1:
        raise InputError("m must be at least 1")
    x = np.asarray(x, dtype=float)
    start = envelope_gauge(S, x)
    if start.value > 1 + 1e-9:
        raise InputError(f"envelope gauge {start.value:.6g} exceeds 1")
    halvings = max(1, math.ceil(math.log2(max(2.0, 16.0 * S.dimension / m))))
    M = 2 ** halvings * m
    r = x.copy()
    # the LP optimum for r: the start check's at level 0; after that the
    # defect LP's for w, scaled by 1/theta (the envelope LP is homogeneous)
    coefficients = start.coefficients
    series = [], [], [], []  # levels, generators, multiplicities, alphas
    defect_log = []
    # Every accepted level leaves r = w / theta with envelope gauge <= 1, so
    # ||r|| <= max ||s_i|| and the test below fires by level
    # ceil(log(1e-9 / max ||s_i||) / log theta): the loop always ends, with
    # level the number of accepted levels.
    for level in itertools.count():
        norm_r = np.linalg.norm(r)
        if norm_r <= 1e-15 or theta ** level * norm_r <= 1e-9:
            break
        lam = coefficients * M
        counts = np.ceil(np.abs(lam) - 1e-12).astype(int)
        while counts.sum() > M:  # mass does not fit; shed a little to the defect
            lam = lam * 0.95
            counts = np.ceil(np.abs(lam) - 1e-12).astype(int)
        gens = np.flatnonzero(counts)
        rows = gens.tolist(), counts[gens].tolist(), lam[gens].tolist()
        for h in range(halvings):
            rows, d, bound = halving_step(S, rows, M >> h)
            if d > bound * (1 + 1e-9) + 1e-12:
                raise PhaseError("halving-convergence",
                                 "halving defect exceeds its bound",
                                 level=level, halving=h, defect=d, bound=bound)
            defect_log.append(d)
            if trace is not None:
                trace.append({"level": level, "halving": h,
                              "input_terms": M >> h, "defect": d,
                              "bound": bound})
        w = r - rows_average(S, rows, m)
        defect = envelope_gauge(S, w)
        gauge_w = defect.value
        if gauge_w > theta * (1 + 1e-9):
            raise PhaseError(
                "halving-convergence",
                f"level {level} defect gauge {gauge_w:.6g} exceeds theta {theta}",
                level=level, defect_gauge=gauge_w, theta=theta,
                defects=defect_log, m=m, halvings=halvings)
        for column, row in zip(series, ([level] * len(rows[0]), *rows)):
            column.extend(row)
        r = w / theta
        coefficients = defect.coefficients / theta
    rep, flatten_scale = approx2_transform(theta, m, np.ones(level), series)
    total_scale = flatten_scale / (1.0 - theta)
    tail = theta ** level * np.linalg.norm(r)
    rep.residual_norm = float(tail / total_scale)
    return rep, total_scale

