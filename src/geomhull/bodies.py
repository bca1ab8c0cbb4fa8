"""Generating sets and the bodies they span.

A GeneratingSet is a finite spanning family of points, always treated as
closed under negation.  Its absolutely convex hull is the envelope ball;
for 0 < p <= 1 the p-convex hull is the unit ball of a quasi-normed body.
Both gauges are minima over the bases of the generators, read from one
table per set: the p-gauge exactly, and the envelope gauge (p = 1) with a
dual certificate, or from an LP where the table cannot certify its answer
or the set has more than MAX_BASES bases.  The largest p-gauge over the
envelope ball is the non-convexity measure computed by delta_nonconvexity.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegeneracyError, InputError, NumericalError
from .optim import FEAS_TOL, max_gauge_over_polytope, solve_lp


# Cap on the C(k, n) bases of a generating set's basis table, which the exact
# p-gauge and the envelope gauge read.  At the cap the table's first use,
# which inverts them all, took 3-10 ms for n = 2..6 (2 cores,
# numpy 2.4), where the former null-space descent took 10-92 ms a point.
# Above n = 6 the inverses may hold as many entries as MAX_BASES 6 x 6 ones.
MAX_BASES = 5000


def fmt17(x):
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


@dataclass
class GeneratingSet:
    """k points spanning an n-dimensional space, one per row."""

    dimension: int
    points: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.dimension < 1:
            raise InputError("the dimension must be at least 1")
        if self.points.ndim != 2:
            raise InputError("points must form a 2-d array, one point per row")
        if self.points.shape[0] < 1:
            raise InputError("a generating set needs at least one point")
        if self.points.shape[1] != self.dimension:
            raise InputError("point width does not match the declared dimension")
        if not np.isfinite(self.points).all():
            raise InputError("generating points must be finite")
        if np.linalg.matrix_rank(self.points) < self.dimension:
            raise DegeneracyError("generating points do not span the space")

    @property
    def count(self):
        return self.points.shape[0]

    def with_negations(self):
        """Rows stacked with their negations (the implicit symmetrization)."""
        return np.vstack([self.points, -self.points])

    @cached_property
    def _point_lists(self):  # the rows as Python lists, for the halvings
        return self.points.tolist()

    @cached_property
    def _basis_table(self):
        """The bases both gauges minimise over, or None over the MAX_BASES
        cap, before any work.

        (subsets, inverses, columns): each n-subset B of the generator rows P,
        in itertools.combinations order, whose P_B has a condition number
        (Frobenius) below 1e12; inv(P_B) for each, so x @ inv(P_B) is x
        over B; and the same inverses side by side as one n x (bases * n)
        matrix, whose one product with x gives every basis's coefficients
        (x @ inverses makes a small product per basis, about 30 times as
        slow at the 1,984 bases of the 64-gon).
        """
        P = self.points
        k, n = P.shape
        count = math.comb(k, n)
        if count > MAX_BASES or count * n * n > MAX_BASES * 36:
            return None
        flat = itertools.chain.from_iterable(itertools.combinations(range(k), n))
        subsets = np.fromiter(flat, dtype=np.intp, count=count * n).reshape(count, n)
        subsets = subsets[np.linalg.slogdet(P[subsets])[0] != 0]  # no zero pivot in LU
        bases = P[subsets]
        with np.errstate(over="ignore", invalid="ignore"):
            inverses = np.linalg.inv(bases)
            cond = (np.linalg.norm(bases, axis=(1, 2))
                    * np.linalg.norm(inverses, axis=(1, 2)))
        kept = cond < 1e12
        inverses = inverses[kept]
        columns = np.ascontiguousarray(inverses.transpose(1, 0, 2)).reshape(n, -1)
        return subsets[kept], inverses, columns


@dataclass
class PBody:
    """Unit ball of the p-convex hull of a generating set, 0 < p <= 1.

    analytic_kind is "lp_ball" when the generators are exactly the 2n signed
    basis vectors, in any order, so the gauge has a closed form; otherwise
    it is "generic".
    """

    generators: GeneratingSet
    p: float
    analytic_kind: str = field(init=False)

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise InputError("p must lie in (0, 1]")
        pts = self.generators.points
        basis = np.vstack([np.eye(pts.shape[1]), -np.eye(pts.shape[1])])
        signed_basis = (len(pts) == len(basis)
                        and set(map(tuple, pts)) == set(map(tuple, basis)))
        self.analytic_kind = "lp_ball" if signed_basis else "generic"

    def batch_gauge(self, X):
        """Exact p-gauge of each row of X: closed form for lp_ball."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.analytic_kind == "lp_ball":
            return (np.abs(X) ** self.p).sum(axis=1) ** (1.0 / self.p)
        return self._exact_gauge(X)

    def _exact_gauge(self, X):
        """min over nonsingular n-subsets B of the generators of ||B^-1 x||_p.

        sum |lambda_i|^p is concave on each orthant, so its least value over
        the representations x = sum lambda_i s_i is at a basic one
        (Rockafellar, Convex Analysis, s. 32).  Not finite: NumericalError.
        """
        table = self.generators._basis_table
        if table is None:
            k, n = self.generators.points.shape
            raise InputError(f"the exact p-gauge takes C({k}, {n}) = "
                             f"{math.comb(k, n)} bases of {n} x {n}, over "
                             f"MAX_BASES = {MAX_BASES}")
        inverses = table[1]
        m, n = X.shape
        best = np.full(m, np.inf)
        chunk = max(1, (1 << 20) // max(1, m * n))  # coefficients per block
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(inverses), chunk):
                coefficients = X @ inverses[start:start + chunk]
                powers = (np.abs(coefficients) ** self.p).sum(axis=2)
                np.minimum(best, powers.min(axis=0), out=best)
            gauges = best ** (1.0 / self.p)
        if not np.isfinite(gauges).all():
            raise NumericalError(f"the exact p-gauge at p={self.p} is not finite")
        return gauges


def lp_ball_body(n, p):
    """The unit ball of l_p^n as a PBody over the signed basis vectors."""
    pts = np.vstack([np.eye(n), -np.eye(n)])
    gs = GeneratingSet(dimension=n, points=pts, label=f"lp_ball(n={n}, p={p})")
    return PBody(generators=gs, p=p)


@dataclass
class GaugeCertificate:
    """A representation x = sum coefficients[i] * s_i witnessing a gauge value."""

    value: float
    coefficients: np.ndarray


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------

def envelope_gauge(S: GeneratingSet, x) -> GaugeCertificate:
    """Gauge of x in the envelope ball (absolutely convex hull) of S.

    A basic optimum of the LP below uses n independent generators, so the
    gauge is the least ||x over B||_1 over the bases B of S: the p = 1 case
    of PBody's exact gauge, read from the same basis table.  The first basis
    at the minimum, in itertools.combinations order, answers if its
    coefficients lambda pass two checks: the primal residual of
    sum lambda_i s_i - x, and a dual certificate y = inv(P_B) sign(lambda_B)
    with max_i |y . s_i| <= 1 + 1e-9, so y . x = sum |lambda_i| and weak
    duality proves the value least.

    Otherwise (a set over the MAX_BASES cap, a zero coefficient whose sign
    gives no dual, an optimal basis the table's condition filter dropped),
    the exact LP through solve_lp answers: minimize sum (a_i + b_i) subject
    to sum (a_i - b_i) s_i = x with a, b >= 0, and lambda = a - b.  Both
    are homogeneous: the optimum for t x (t > 0) is t times the one for x.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (S.dimension,):
        raise InputError("point dimension mismatch")
    P = S.points
    k = S.count
    table = S._basis_table
    if table is not None and table[0].size:  # within the cap, some basis kept
        subsets, inverses, columns = table
        with np.errstate(over="ignore", invalid="ignore"):
            coefficients = (x @ columns).reshape(len(subsets), -1)
            # l1 norms by a product: .sum(axis=1) over n = 2 is ten times slower
            best = int(np.argmin(np.abs(coefficients) @ np.ones(S.dimension)))
            lam = coefficients[best]
            weights = np.zeros(k)
            weights[subsets[best]] = lam
            residual = np.abs(weights @ P - x).max()
            dual = np.abs(P @ (inverses[best] @ np.sign(lam))).max()
        tolerance = FEAS_TOL * max(1.0, np.abs(x).max()) * 10  # as in solve_lp
        if residual <= tolerance and dual <= 1 + 1e-9:
            return GaugeCertificate(value=float(np.abs(lam).sum()),
                                    coefficients=weights)
    A = np.hstack([P.T, -P.T])
    sol = solve_lp(np.ones(2 * k), A, x, np.zeros(2 * k),
                   np.full(2 * k, np.inf))
    if sol.status != "optimal":
        raise NumericalError(f"envelope gauge LP returned {sol.status}")
    z = sol.x
    return GaugeCertificate(value=float(np.abs(z).sum()),
                            coefficients=z[:k] - z[k:])


def delta_nonconvexity(body: PBody, seed=0, method="auto"):
    """Largest p-gauge over the envelope ball: how non-convex the body is.

    n^(1/p-1) for lp_ball (NumericalError if that overflows).  Otherwise, or
    for method="search", a certified lower bound: the exact gauge at a point
    LP-checked in the envelope ball.  n^(1/p-1) caps delta from above.
    """
    if method not in ("auto", "analytic", "search"):
        raise InputError(f"unknown method {method!r}")
    if method == "analytic" and body.analytic_kind != "lp_ball":
        raise InputError("analytic delta only available for lp_ball bodies")
    if body.analytic_kind == "lp_ball" and method != "search":
        n = body.generators.dimension
        try:
            return float(n) ** (1.0 / body.p - 1.0)
        except OverflowError:
            raise NumericalError(f"delta = n^(1/p-1) overflows a float at "
                                 f"n={n}, p={body.p}") from None
    value, _ = max_gauge_over_polytope(body, body.generators.with_negations(),
                                       seed=seed)
    return max(value, 1.0)  # the p-hull ball itself sits inside the envelope


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def generating_set_to_json(S: GeneratingSet, p=None):
    """Serialize to the interchange object; floats carry 17 significant digits."""
    lines = ["{"]
    lines.append(f'  "dimension": {S.dimension},')
    point_rows = ",\n".join(
        "    [" + ", ".join(fmt17(v) for v in row) + "]" for row in S.points)
    lines.append('  "points": [\n' + point_rows + "\n  ]" + ("," if p is not None or S.label else ""))
    if p is not None:
        lines.append(f'  "p": {fmt17(p)}' + ("," if S.label else ""))
    if S.label:
        lines.append(f'  "label": {json.dumps(S.label)}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_generating_set_json(path):
    """Read a generating set; returns (GeneratingSet, p-or-None).

    Every malformed file raises InputError: text that is not JSON, a top
    level that is not an object, a missing field, a dimension that is not an
    integer, points that are not a rectangular numeric array, or a p that is
    not a number.
    """
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise InputError(f"{path}: the top level must be a JSON object")
    try:
        dimension, points = obj["dimension"], obj["points"]
    except KeyError as exc:
        raise InputError(f"{path}: missing field {exc}") from None
    if isinstance(dimension, bool) or not isinstance(dimension, int):
        raise InputError(f"{path}: dimension must be an integer, got {dimension!r}")
    try:
        pts = np.asarray(points, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{path}: points must be a rectangular array of floats") from None
    p = obj.get("p")
    if p is not None:
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise InputError(f"{path}: p must be a number, got {p!r}")
        try:
            p = float(p)
        except OverflowError:
            raise InputError(f"{path}: p does not fit in a float") from None
    gs = GeneratingSet(dimension=dimension, points=pts,
                       label=obj.get("label", ""))
    return gs, p
