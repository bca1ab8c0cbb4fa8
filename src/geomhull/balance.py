"""Sign balancing and the balanced representation pipeline.

Sequential sign choices for vector tuples, the halving step
that turns a 2N-term average into an N-term average plus a small defect, and
the end-to-end pipeline that converts envelope-ball membership into a
geometric-series representation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .bodies import GeneratingSet, envelope_gauge
from .errors import InputError, NumericalError, PhaseError
from .hulls import DeltaMCertificate, approx2_transform


def greedy_signs(vectors):
    """Pick signs sequentially, each minimizing the norm of the partial sum.

    The choice is sign = -sign(<partial, x>), the square never grows faster
    than sum ||x_k||^2, and the final sum obeys
    ||sum eps x|| <= sqrt(N) max||x|| (both asserted).  Returns the signs,
    one +-1 per vector.
    """
    X = np.atleast_2d(np.asarray(vectors, dtype=float))
    N = X.shape[0]
    if N < 1:
        raise InputError("need at least one vector")
    signs = np.ones(N)
    partial = np.zeros(X.shape[1])
    budget = 0.0
    for k in range(N):
        dot = partial @ X[k]
        if dot > 0:
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


# ---------------------------------------------------------------------------
# halving
# ---------------------------------------------------------------------------

def halving_step(S: GeneratingSet, idx, scal):
    """Split a 2N-term star-hull average into an N-term average plus a defect.

    The terms are scal[k] * s_idx[k], given as equal-length index and
    coefficient arrays with |scal| <= 1.  Signs come from greedy_signs on the
    term vectors; the minority sign class (at most N terms) averages to v in
    the N-term hull, and the defect ||u - v|| = ||(1/2N) sum eps_k x_k|| is
    checked as an identity.
    """
    idx = np.asarray(idx, dtype=int)
    scal = np.asarray(scal, dtype=float)
    if idx.ndim != 1 or idx.shape != scal.shape or idx.size < 2 or idx.size % 2:
        raise InputError("need equal-length index and coefficient arrays "
                         "of even length, at least 2")
    N = idx.size // 2
    k = S.count
    if idx.min() < 0 or idx.max() >= k:
        raise InputError("generator index out of range")
    if (np.abs(scal) > 1 + 1e-12).any():
        raise InputError("term scalar exceeds 1: not a star-hull element")
    X = scal[:, None] * S.points[idx]
    signs = greedy_signs(X)
    plus = int((signs > 0).sum())
    minority_sign = 1.0 if plus <= N else -1.0
    mask = signs == minority_sign
    mult = np.bincount(idx[mask], minlength=k)
    alphas = np.bincount(idx[mask], weights=scal[mask], minlength=k)
    cert = DeltaMCertificate(m=N, multiplicities=mult, alphas=alphas)
    u = X.sum(axis=0) / (2 * N)
    v = cert.evaluate(S)
    defect = float(np.linalg.norm(u - v))
    eps = np.where(mask, -1.0, 1.0)
    identity = (eps[:, None] * X).sum(axis=0) / (2 * N)
    if np.linalg.norm((u - v) - identity) > 1e-10 * max(1.0, np.linalg.norm(u)):
        raise NumericalError("halving defect identity violated")
    return cert, defect


def type1_represent(S: GeneratingSet, theta, m, x, trace=None):
    """Represent an envelope-ball point as a scaled geometric series over S.

    Pipeline per series level: LP-decompose the current residual into
    weights lambda, write it as an average over M = 2^halvings * m slots,
    with halvings = max(1, ceil(log2(16 n / m))), halve down to m terms,
    emit the m-term certificate at coefficient 1, and pass the accumulated
    defect divided by theta to the next level.  The M slots are
    DeltaMCertificate(M, ceil(|lambda M|), lambda M).slots(), the layout
    every halving returns: generator i fills ceil(|lambda_i M|) adjacent
    equal slots (none for weights at or below 1e-12), so equal slots cancel
    in pairs under greedy signs.  If the slots exceed M, lambda shrinks by
    0.95 until they fit and the shed mass joins the defect.  The level
    defect must have envelope gauge <= theta or the pipeline fails with
    diagnostics.  The series stops at the first level whose remaining tail
    theta^level * ||residual|| is at most 1e-9; since every residual stays
    in the envelope ball, that level always comes.  Finally the level
    certificates, one row per level, go to approx2_transform, which
    flattens them into a representation with ratio theta^(1/m).

    Returns (representation, scale) with scale * eval(rep) = x up to the
    representation's residual_norm * scale; the scale never exceeds
    2 theta / ((3 theta - 1)(1 - theta)).  Pass a list as `trace` to collect
    one record per halving step (level, halving, input_terms, defect).
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
    mults, alphas = [], []  # one row per level, each an m-slot certificate
    defect_log = []
    # Every accepted level leaves r = w / theta with envelope gauge <= 1, so
    # ||r|| <= max ||s_i|| and the test below fires by level
    # ceil(log(1e-9 / max ||s_i||) / log theta): the loop always ends.
    for level in itertools.count():
        norm_r = np.linalg.norm(r)
        if norm_r <= 1e-15 or theta ** level * norm_r <= 1e-9:
            break
        lam = coefficients * M
        counts = np.ceil(np.abs(lam) - 1e-12).astype(int)
        while counts.sum() > M:  # mass does not fit; shed a little to the defect
            lam = lam * 0.95
            counts = np.ceil(np.abs(lam) - 1e-12).astype(int)
        slots = DeltaMCertificate(m=M, multiplicities=counts, alphas=lam).slots()
        for h in range(halvings):
            n_in = len(slots[0])
            vcert, d = halving_step(S, *slots)
            defect_log.append(d)
            if trace is not None:
                trace.append({"level": level, "halving": h,
                              "input_terms": n_in, "defect": d})
            slots = vcert.slots()
        y = vcert.evaluate(S)
        w = r - y
        defect = envelope_gauge(S, w)
        gauge_w = defect.value
        if gauge_w > theta * (1 + 1e-9):
            raise PhaseError(
                "halving-convergence",
                f"level {level} defect gauge {gauge_w:.6g} exceeds theta {theta}",
                level=level, defect_gauge=gauge_w, theta=theta,
                defects=defect_log, m=m, halvings=halvings)
        mults.append(vcert.multiplicities)
        alphas.append(vcert.alphas)
        r = w / theta
        coefficients = defect.coefficients / theta
    rep, flatten_scale = approx2_transform(theta, m, np.ones(len(mults)),
                                           mults, alphas)
    total_scale = flatten_scale / (1.0 - theta)
    tail = theta ** len(mults) * np.linalg.norm(r) if mults else np.linalg.norm(r)
    rep.residual_norm = float(tail / total_scale)
    return rep, total_scale

