"""Random-projection search for nearly ellipsoidal image hulls.

The search half is Monte-Carlo: project the generators onto random
low-dimensional subspaces, enclose the image hull in its minimum-volume
ellipsoid, and measure how far the hull sits inside it.  The representation
half is deterministic: once the sandwich ratio is small, points of the shrunk
ellipsoid acquire geometric-series representations by repeatedly subtracting
the generator with the largest ellipsoid inner product, each step contracting
by a factor the sandwich ratio controls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import GeneratingSet
from .errors import ContractionError, InputError, NumericalError
from .hulls import GammaRepresentation
from .optim import Ellipsoid, mvee


@dataclass
class ProjectionResult:
    """One random projection, its ellipsoid and a lower bound on its sandwich ratio."""

    rank: int
    projection_matrix: np.ndarray
    ellipsoid: Ellipsoid
    ellipticity: float
    seed: int = 0
    trial: int = 0
    success: bool = False

    def __post_init__(self):
        P = np.asarray(self.projection_matrix, dtype=float)
        gram = P @ P.T
        if np.abs(gram - np.eye(self.rank)).max() > 1e-10:
            raise InputError("projection rows are not orthonormal")
        if self.ellipticity < 1.0 - 1e-9:
            raise InputError("ellipticity below 1 is impossible for a sandwich")
        self.projection_matrix = P


def random_projection(n, k, seed):
    """Orthonormal rows spanning a uniformly random k-dimensional subspace."""
    if not 1 <= k <= n:
        raise InputError("need 1 <= k <= n")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, k))
    Q, R = np.linalg.qr(G)
    # fix the sign convention so the matrix is a function of the seed alone
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return (Q * signs).T


def _sandwich_ratio(projected_points, E: Ellipsoid, directions):
    """Largest ellipsoid-to-hull support ratio over the rows of `directions`."""
    # hull maxima 32 directions at a time, so no points-by-directions
    # product is held in full
    blocks = np.split(directions, range(32, len(directions), 32))
    hull = np.concatenate([np.abs(projected_points @ b.T).max(axis=0) for b in blocks])
    if hull.min() <= 1e-15:
        raise NumericalError("projected hull is degenerate in a direction")
    return max(1.0, float((E.support(directions) / hull).max()))


def dvoretzky_search(S: GeneratingSet, k, eta, trials, seed) -> ProjectionResult:
    """Best-of-`trials` random projection by sampled ellipsoid sandwich ratio.

    Each trial projects the generators, computes the minimum-volume ellipsoid
    of the symmetrized image, and compares supports in 200 random directions
    plus the coordinate and ellipsoid axes; the worst ratio sampled is a lower
    bound on the true one, not a certified inner radius.  Returns the
    projection with the smallest ratio; a later trial wins only below best
    (1 - 1e-9), so the earliest of tied trials is kept.  The success flag
    records whether it met 1 + eta; missing it is not an error.
    """
    if not 1 <= k <= S.dimension:
        raise InputError("projection rank out of range")
    if not 0 < eta < 1.0 / 3.0:
        raise InputError("eta must lie in (0, 1/3)")
    if trials < 1:
        raise InputError("at least one trial required")
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(2 * trials)
    best = None
    for t in range(trials):
        P = random_projection(S.dimension, k, children[2 * t])
        projected = S.points @ P.T
        E = mvee(projected)
        rng = np.random.default_rng(children[2 * t + 1])
        dirs = rng.standard_normal((200, k))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        eigvecs = np.linalg.eigh(E.shape_matrix)[1]
        # images of the original coordinate axes; for axis-aligned generators
        # these are where the ellipsoid-to-hull ratio peaks
        axes = P.T[np.linalg.norm(P.T, axis=1) > 1e-8]
        directions = np.vstack([dirs, np.eye(k), eigvecs.T, axes])
        ratio = _sandwich_ratio(projected, E, directions)
        if best is None or ratio < best.ellipticity * (1.0 - 1e-9):
            best = ProjectionResult(rank=k, projection_matrix=P, ellipsoid=E,
                                    ellipticity=ratio, seed=int(seed), trial=t)
    best.success = best.ellipticity <= 1.0 + eta
    return best


def ellipsoid_gamma_represent(projected: GeneratingSet, E: Ellipsoid, theta, y,
                              tolerance=1e-9, eta=None) -> GammaRepresentation:
    """Geometric-series representation of a point of the shrunk ellipsoid.

    Whitens everything by the Cholesky factor of the ellipsoid, then greedily
    subtracts the signed generator with the largest inner product against the
    normalized residual.  When `eta` (the sampled sandwich defect) is given,
    every accepted step must contract the unit residual by at most
    sqrt(2 eta + eta^2); a violation raises ContractionError naming the step.
    The returned residual_norm is measured in the ellipsoid norm.
    """
    if not 0 < theta < 1:
        raise InputError("theta must lie in (0, 1)")
    y = np.asarray(y, dtype=float)
    if y.shape != (projected.dimension,):
        raise InputError("point dimension mismatch")
    M = E.shape_matrix / E.scale
    L = np.linalg.cholesky(M)
    W = projected.points @ L          # rows: whitened generators
    wnorms = np.linalg.norm(W, axis=1)
    if wnorms.max() > 1.0 + 1e-6:
        raise InputError("generators escape the ellipsoid: not a sandwich")
    z = L.T @ y
    budget0 = (1.0 - theta)
    znorm = float(np.linalg.norm(z))
    if znorm > budget0 * (1.0 + 1e-9):
        raise InputError("point lies outside (1-theta) times the ellipsoid")
    kappa = math.sqrt(2.0 * eta + eta * eta) if eta is not None else None
    lams, indices = [], []
    level = 0
    max_levels = 100000
    while znorm > tolerance:
        if level >= max_levels:
            raise NumericalError("representation failed to converge")
        zhat = z / znorm
        scores = W @ zhat
        i = int(np.argmax(np.abs(scores)))
        sign = 1.0 if scores[i] >= 0 else -1.0
        contraction = float(np.linalg.norm(zhat - sign * W[i]))
        if kappa is not None and contraction > kappa + 1e-9:
            raise ContractionError(
                level, f"residual contracted by {contraction:.6f} > {kappa:.6f}")
        lam = sign * znorm / (budget0 * theta ** level)
        if abs(lam) > 1.0 + 1e-12:
            raise ContractionError(
                level, "budget exhausted: residual decays slower than theta")
        lams.append(float(lam))
        indices.append(i)
        z = z - znorm * sign * W[i]
        znorm = float(np.linalg.norm(z))
        level += 1
    return GammaRepresentation(theta=theta, levels=np.arange(level),
                               lambdas=lams, indices=indices,
                               residual_norm=znorm)
