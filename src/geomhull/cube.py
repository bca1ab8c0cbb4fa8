"""Exact cube-vertex combinatorics and the cube-quotient pipeline.

Everything that touches vertex patterns runs in exact integer or rational
arithmetic: the shattered-subset search, the anchored chain construction with
its dyadic representation tables, and the pattern-counting selection.
Floating point enters only through the LP decomposition and halving phases
of the quotient pipeline, and every float result is re-checked against the
exact combinatorial certificate it came from.  The pipeline draws only its
query points at random.

Vertices are bitmasks: bit j set means coordinate j equals -1, so mask 0 is
the all-plus vertex.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .balance import halving_step
from .bodies import GeneratingSet, PBody, delta_nonconvexity, envelope_gauge
from .errors import InputError, NumericalError, PhaseError
from .hulls import (GammaRepresentation, approx2_transform, check_rows,
                    flatten_scale, pconv_contraction_bound, rows_average)


# ---------------------------------------------------------------------------
# calibration record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Calibration:
    """Named constants of the quotient constructions, with fitted defaults.

    The underlying results prove that absolute constants exist without
    supplying values.  These defaults were fitted on random instances; reports
    always show them next to the realized quantities and never claim them as
    proven.

      c   final-ratio and density constant: a k-dimensional vertex set is
          dense when it has at least 2^(k(1 - c eps)) members
      C   chain scale target (scale <= C/eps, slot count <= C/eps^2)
      c1  snapping factor, delta = c1 * eps  (chosen so C * c1 = 1/4)
      c2  subsample budget factor, m = smallest integer > c2 d^2 eps^-3 (1 - ln eps)
    """

    c: float = 0.1
    C: float = 8.0
    c1: float = 0.03125
    c2: float = 1.0

    def as_dict(self):
        return asdict(self)

    @classmethod
    def from_mapping(cls, mapping):
        if mapping is None:
            return cls()
        if isinstance(mapping, cls):
            return mapping
        values = cls().as_dict()
        for key, value in dict(mapping).items():
            if key not in values:
                raise InputError(f"unknown calibration constant {key!r}")
            values[key] = float(value)
            if not 0 < values[key] < math.inf:
                raise InputError(f"constant {key!r} must be finite and positive")
        return cls(**values)


# ---------------------------------------------------------------------------
# vertex sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexSet:
    """A set of cube vertices, each encoded as a bitmask (set bit = -1)."""

    n: int
    members: frozenset

    def __post_init__(self):
        if not 1 <= self.n <= 20:
            raise InputError("vertex dimension must lie in 1..20")
        members = frozenset(int(m) for m in self.members)
        for m in members:
            if not 0 <= m < 1 << self.n:
                raise InputError(f"mask {m} out of range for dimension {self.n}")
        object.__setattr__(self, "members", members)

    @property
    def count(self):
        return len(self.members)

    @classmethod
    def full(cls, n):
        return cls(n=n, members=frozenset(range(1 << n)))

    @classmethod
    def from_points(cls, points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise InputError("expected a 2-d array of vertices")
        if not np.all(np.abs(points) == 1.0):
            raise InputError("vertex coordinates must be exactly +-1")
        n = points.shape[1]
        masks = frozenset(mask_of_vector(row) for row in points)
        return cls(n=n, members=masks)

    def vector(self, mask):
        return vector_of_mask(self.n, mask)

    def to_points(self):
        return np.array([self.vector(m) for m in sorted(self.members)], dtype=float)


def mask_of_vector(row):
    mask = 0
    for j, value in enumerate(row):
        if value < 0:
            mask |= 1 << j
    return mask


def vector_of_mask(n, mask):
    return np.array([1.0 - 2.0 * ((mask >> j) & 1) for j in range(n)])


def vertex_set_from_generating_set(S: GeneratingSet) -> VertexSet:
    return VertexSet.from_points(S.points)


def vertex_generating_set(V: VertexSet, label="") -> GeneratingSet:
    return GeneratingSet(dimension=V.n, points=V.to_points(), label=label)


# ---------------------------------------------------------------------------
# shattered subsets
# ---------------------------------------------------------------------------

def _split_classes(classes, j):
    """Refine a pattern partition by coordinate j; None when a class misses a sign."""
    out = []
    for cls in classes:
        plus = [m for m in cls if not (m >> j) & 1]
        minus = [m for m in cls if (m >> j) & 1]
        if not plus or not minus:
            return None
        out.append(plus)
        out.append(minus)
    return out


def _max_shattered(V: VertexSet):
    """Largest shattered subset, lexicographically first among the largest.

    Depth-first over subsets in lexicographic order, pruning prefixes that
    already fail -- shattering is closed under taking subsets, so a failed
    prefix kills the whole branch -- and branches too short to beat the best.
    At most n nodes per extend call, one call per increasing tuple: n 2^n.
    """
    best = ()
    root = [list(V.members)]

    def extend(coords, classes, start):
        nonlocal best
        if len(coords) > len(best):
            best = coords
        for j in range(start, V.n):
            if len(coords) + (V.n - j) <= len(best):
                break
            refined = _split_classes(classes, j)
            if refined is not None:
                extend(coords + (j,), refined, j + 1)

    extend((), root, 0)
    return best


# ---------------------------------------------------------------------------
# anchored chain
# ---------------------------------------------------------------------------

def chain_constants(k):
    """Closed-form scale and slot count at chain level k."""
    return 2 ** (k + 1) - 1, 2 * 4 ** k - 2 ** k


def density_threshold(n, c, epsilon):
    """Member count 2^(n(1 - c eps)) that makes an n-dim vertex set dense."""
    return 2.0 ** (n * (1.0 - c * epsilon))


@dataclass
class ShatterChain:
    """Anchored increasing chain of coordinate subsets with exact dyadic tables.

    sigma[0] is shattered outright; each later sigma[k] adds tau[k-1], a set
    on which the anchored fiber (the members agreeing on sigma[k-1] with the
    most common pattern, chosen one level at a time) still realizes every
    pattern.  rep_table maps each pattern over sigma[-1] to a dyadic
    combination of members whose projection equals the pattern exactly, within
    the level budget: sum of ceil(|coef| * 2^levels) is at most the slot count.
    """

    levels: int
    sigma: list
    tau: list
    rep_table: dict
    epsilon: float

    def __post_init__(self):
        if self.levels < 0 or len(self.sigma) != self.levels + 1:
            raise InputError("sigma must hold one subset per level")
        if len(self.tau) != self.levels:
            raise InputError("tau must cover every growth level")
        for k in range(self.levels):
            grown = tuple(sorted(set(self.sigma[k]) | set(self.tau[k])))
            if grown != tuple(sorted(self.sigma[k + 1])):
                raise InputError("sigma must grow by exactly tau at each level")
            if set(self.sigma[k]) & set(self.tau[k]):
                raise InputError("tau overlaps the previous sigma")
            if not self.tau[k]:
                raise InputError("empty tau level")

    def verify(self, V: VertexSet):
        """Re-check every representation entry exactly, in integers: the
        coefficients scaled by 2^levels, whose projections must be the
        pattern scaled alike."""
        sigma = self.sigma[-1]
        if len(self.rep_table) != 1 << len(sigma):
            raise NumericalError("representation table does not cover the cube")
        b_s = chain_constants(self.levels)[1]
        weight = 1 << self.levels
        for pattern, combo in self.rep_table.items():
            if not combo.keys() <= V.members:
                raise NumericalError("representation uses a non-member")
            scaled = {member: coef * weight for member, coef in combo.items()}
            if any(c.denominator != 1 for c in scaled.values()):
                raise NumericalError("non-dyadic chain coefficient")
            scaled = {member: c.numerator for member, c in scaled.items()}
            slots = sum(map(abs, scaled.values()))
            if slots > b_s:
                raise NumericalError(f"slot budget {slots} exceeds {b_s}")
            for value, coord in zip(pattern, sigma):
                if sum(-c if (member >> coord) & 1 else c
                       for member, c in scaled.items()) != value * weight:
                    raise NumericalError("projection mismatch in the chain table")
        return True


def _group_by_projection(members, coords):
    groups = {}
    for m in members:
        key = tuple(1 - 2 * ((m >> c) & 1) for c in coords)
        groups.setdefault(key, []).append(m)
    return groups


def _grow_tau(fiber, taken, n):
    """Greedy coordinate additions keeping the fiber's projection full."""
    tau = []
    classes = [sorted(fiber)]
    for j in range(n):
        if j in taken:
            continue
        refined = _split_classes(classes, j)
        if refined is not None:
            tau.append(j)
            classes = refined
    return tuple(tau)


def alesker_chain(V: VertexSet, epsilon, density_c,
                  enforce_density=True) -> ShatterChain:
    """Build the anchored chain: shattered core, then anchored fiber growth.

    The core sigma[0] is the largest shattered subset, and its table maps
    each core pattern to its least member with coefficient 1.  The fiber
    starts as every member.  Each growth level pins the coordinates the last
    level added (sigma[0] at level 1) on their most common pattern in the
    fiber, ties to the lexicographically least, and keeps the members
    showing it: the fiber then agrees on all of sigma and keeps at least a
    2^-|added| share of its members (pigeonhole).  Tau grows greedily over
    the other coordinates in index order while the fiber still realizes
    every pattern on tau, and w(t) is the least fiber member with
    tau-pattern t.  A pattern over the grown sigma then gets the previous
    table's entry for its sigma part; for each member u of that entry, with
    coefficient c and tau-pattern t, c/2 (w(-t) - w(t)), which cancels u's
    tau part; and (w(p) - w(-p))/2 for its own tau part p.  Both members of
    each difference lie in the fiber, so the additions leave sigma alone,
    and every coefficient is dyadic.

    Runs for ceil(log2(1/epsilon)) levels, stopping early once sigma is
    everything.  Fails with the level reached when the fiber grows no tau.
    """
    if not 0 < epsilon <= 1:
        raise InputError("epsilon must lie in (0, 1]")
    if V.n > 14:
        raise InputError("chain construction is limited to dimension 14")
    if V.count == 0:
        raise InputError("empty vertex set")
    threshold = density_threshold(V.n, density_c, epsilon)
    if enforce_density and V.count < threshold:
        raise InputError(
            f"vertex set too sparse: {V.count} < 2^(n(1-c eps)) = {threshold:.1f}")
    levels_wanted = max(0, math.ceil(math.log2(1.0 / epsilon)))
    sigma0 = _max_shattered(V)
    if not sigma0:
        raise PhaseError("chain", "no shattered coordinate found", level=0)

    members = sorted(V.members)
    sigma_list, tau_list = [tuple(sigma0)], []
    table = {pattern: {min(group): Fraction(1)} for pattern, group
             in _group_by_projection(members, sigma0).items()}
    half = Fraction(1, 2)
    fiber, free = members, sigma0  # the anchor's fiber; its unpinned coords
    for level in range(1, levels_wanted + 1):
        sigma = sigma_list[-1]
        if len(sigma) == V.n:
            break
        _, fiber = min(_group_by_projection(fiber, free).items(),
                       key=lambda group: (-len(group[1]), group[0]))
        tau = _grow_tau(fiber, set(sigma), V.n)
        if not tau:
            raise PhaseError("chain", "no anchor extension grows the chain",
                             level=level, sigma0=sigma0)
        witness = {pattern: min(group) for pattern, group
                   in _group_by_projection(fiber, tau).items()}
        new_sigma = tuple(sorted(set(sigma) | set(tau)))
        prev_pos = [new_sigma.index(c) for c in sigma]
        tau_pos = [new_sigma.index(c) for c in tau]
        grown = {}
        for pattern in _all_patterns(len(new_sigma)):
            prev = table[tuple(pattern[i] for i in prev_pos)]
            tau_pat = tuple(pattern[i] for i in tau_pos)
            additions = []
            for member, coef in prev.items():
                t = tuple(1 - 2 * ((member >> c) & 1) for c in tau)
                additions += [(witness[t], -coef * half),
                              (witness[tuple(-v for v in t)], coef * half)]
            additions += [(witness[tau_pat], half),
                          (witness[tuple(-v for v in tau_pat)], -half)]
            combo = dict(prev)
            for member, coef in additions:
                combo[member] = combo.get(member, Fraction(0)) + coef
            grown[pattern] = {m: c for m, c in combo.items() if c != 0}
        table = grown
        sigma_list.append(new_sigma)
        tau_list.append(tau)
        free = tau

    chain = ShatterChain(levels=len(tau_list), sigma=sigma_list, tau=tau_list,
                         rep_table=table, epsilon=float(epsilon))
    chain.verify(V)
    return chain


def _all_patterns(k):
    for mask in range(1 << k):
        yield tuple(1 - 2 * ((mask >> i) & 1) for i in range(k))


# ---------------------------------------------------------------------------
# chain certificates over a generating set
# ---------------------------------------------------------------------------

@dataclass
class ChainCertificates:
    """Average-hull certificate rows for every pattern the chain reaches."""

    scale: int
    m: int
    certificates: dict
    calibration_ok: bool
    scale_target: float
    m_target: float


def _lift_chain(chain: ShatterChain, parts, S: GeneratingSet, sigma_idx, m):
    """Lift the chain's dyadic tables to certificate rows over S, checked on sigma.

    parts maps each chain member to (rows, displacement): an m-slot average
    over S as nonzero (generators, multiplicities, alphas) lists, and the
    offset that carries it onto the member.  A table entry sum_j c_j member_j
    lifts to sum_j c_j 2^levels rows_j over chain_N * m slots, summed per
    generator in member order, and to the displacement sum_j c_j disp_j.
    The rows must fit the slot budget and pass hulls.check_rows, and the
    chain scale times their average plus the displacement must hit the
    pattern on sigma to 1e-9.  Returns {pattern: (rows, displacement)}.
    """
    a_s, b_s = chain_constants(chain.levels)
    weight = 1 << chain.levels
    budget = b_s * m
    lifted = {}
    for pattern, combo in sorted(chain.rep_table.items()):
        mult, alpha = {}, {}
        rvec = np.zeros(S.dimension)
        for member, coef in combo.items():
            scaled = coef * weight
            if scaled.denominator != 1:
                raise NumericalError("non-dyadic chain coefficient")
            (gens, mults, alphas), displacement = parts[member]
            for g, k, a in zip(gens, mults, alphas):
                mult[g] = mult.get(g, 0) + abs(scaled.numerator) * k
                alpha[g] = alpha.get(g, 0.0) + scaled.numerator * a
            rvec += float(coef) * displacement
        gens = sorted(mult)
        rows = gens, [mult[g] for g in gens], [alpha[g] for g in gens]
        if sum(rows[1]) > budget:
            raise PhaseError("certify", "lifted certificate exceeds its budget",
                             pattern=pattern)
        alphas = np.array(rows[2], dtype=float)
        check_rows(budget, sum(rows[1]), np.array(rows[1]), alphas)
        achieved = (a_s * (S.points[np.ix_(gens, sigma_idx)].T @ alphas)
                    / budget + rvec[sigma_idx])
        if np.abs(achieved - np.array(pattern, dtype=float)).max() > 1e-9:
            raise PhaseError("certify", "vertex certificate mismatch",
                             pattern=pattern)
        lifted[pattern] = (rows, rvec)
    return lifted


def chain_cube_certificate(chain: ShatterChain, S: GeneratingSet,
                           C=Calibration.C) -> ChainCertificates:
    """Lift the chain tables to average-hull certificates over S.

    Each chain member is a row of S, a one-slot certificate with no
    displacement, so every pattern gets certificate rows with the chain's
    slot count b and scale a.  The lift re-evaluates each against its
    pattern on sigma in floats (a mismatch is PhaseError "certify"), a check
    independent of the exact integer one alesker_chain runs on the table.
    Scales beyond the calibrated targets are flagged, not fatal -- the
    calibration is a fitted record, not a guarantee.
    """
    zero = np.zeros(S.dimension)
    parts = {}
    for i, row in enumerate(S.points):
        if not np.all(np.abs(row) == 1.0):
            raise InputError("generating set must consist of cube vertices")
        parts[mask_of_vector(row)] = (([i], [1], [1.0]), zero)
    members = {member for combo in chain.rep_table.values() for member in combo}
    if not members <= parts.keys():
        raise InputError("chain member missing from the generating set")
    a_s, b_s = chain_constants(chain.levels)
    lifted = _lift_chain(chain, parts, S, np.array(chain.sigma[-1]), 1)
    certificates = {pattern: rows for pattern, (rows, _) in lifted.items()}
    eps = chain.epsilon
    calibration_ok = a_s <= C / eps + 1e-9 and b_s <= C / eps ** 2 + 1e-9
    return ChainCertificates(scale=a_s, m=b_s, certificates=certificates,
                             calibration_ok=calibration_ok,
                             scale_target=C / eps, m_target=C / eps ** 2)


# ---------------------------------------------------------------------------
# counting selection
# ---------------------------------------------------------------------------

def counting_select(candidates, k):
    """Pick the k-subset carrying the most distinct agreement patterns.

    Each vertex's agreement set is trimmed to its k lowest coordinates; the
    vertices are grouped by trimmed set and the group realizing the most
    distinct patterns wins, ties to the lexicographically smallest subset.
    When the candidates cover the whole vertex set, a pigeonhole count over
    the C(n,k) possible subsets gives |T| >= 2^n / (2^(n-k) C(n,k)).
    Returns (tau, T, witnesses), witnesses mapping each pattern of T to the
    smallest candidate mask that realizes it on tau.
    """
    if not candidates:
        raise InputError("no candidates")
    if k < 1:
        raise InputError("k must be positive")
    groups = {}
    for mask, agreement in candidates.items():
        coords = tuple(sorted(set(int(c) for c in agreement)))
        if len(coords) < k:
            raise InputError(f"agreement set smaller than {k}")
        tau = coords[:k]
        pattern = 0
        for pos, c in enumerate(tau):
            if (int(mask) >> c) & 1:
                pattern |= 1 << pos
        witnesses = groups.setdefault(tau, {})
        witnesses[pattern] = min(witnesses.get(pattern, mask), mask)
    tau = min(groups, key=lambda t: (-len(groups[t]), t))
    return tau, VertexSet(n=k, members=frozenset(groups[tau])), groups[tau]


# ---------------------------------------------------------------------------
# vertex fit
# ---------------------------------------------------------------------------

@dataclass
class SubsampleFit:
    """m-slot vertex fit: rows, x, agreement set, summed defects and bounds."""

    rows: tuple
    x: np.ndarray
    agreement_set: tuple
    defect: float
    bound: float


def subsample_vertex_fit(S: GeneratingSet, rows, N, vertex, delta,
                         m) -> SubsampleFit:
    """Halve a vertex's N-slot average, as nonzero rows, to m slots, N = 2^h m.

    Each of the h halving_steps keeps the minority class of greedy signs
    over the current slots, so the fit's slots are a sub-multiset of the
    input's and N = m returns the input rows.  A defect past its bound,
    beyond greedy_signs' slack, fails decompose.  x is the rows_average of
    the m-slot rows, and the agreement set is the coordinates where x is
    within delta of the vertex.
    """
    vertex = np.asarray(vertex, dtype=float)
    if vertex.shape != (S.dimension,):
        raise InputError("decomposition and vertex dimensions differ")
    if m < 1 or N % m or (N // m) & (N // m - 1):
        raise InputError(f"slot count {N} is not m 2^h for m = {m}")
    defects = bounds = 0.0
    for h in range((N // m).bit_length() - 1):
        rows, defect, bound = halving_step(S, rows, N >> h)
        if defect > bound * (1 + 1e-9) + 1e-12:
            raise PhaseError("decompose", "halving defect exceeds its bound",
                             vertex=vertex.tolist(), defect=defect, bound=bound)
        defects, bounds = defects + defect, bounds + bound
    x = rows_average(S, rows, m)
    agreement = tuple(np.flatnonzero(np.abs(x - vertex) <= delta + 1e-12)
                      .tolist())
    return SubsampleFit(rows=rows, x=x, agreement_set=agreement,
                        defect=defects, bound=bounds)


# ---------------------------------------------------------------------------
# quotient pipeline
# ---------------------------------------------------------------------------

# Time budgets on the work that grows with m = c2 d^2 eps^-3 (1 - ln eps),
# both checked before any work, with `run cube-quotient` at default flags on
# a 2-core host (points the 2^(n-1) antipodal cube vertices and [d, 0, ...]):
# - MAX_SUBSAMPLE bounds the queries, whose series have 2 chain_N m slots per
#   level (chain_N was 1 in every run timed).  At n = 2, m = 5,419 took 2.0 s
#   and m = 12,191 3.8 s; at n = 3, m = 9,875 took 3.5 s (250 MB peak RSS),
#   21,673 10.3 s (462 MB) and 44,009 22.7 s (769 MB).  A ~20 s budget alone
#   would allow m near 40,000, but the slot arrays then need ~0.75 GB.
# - MAX_VERTEX_SLOTS bounds the vertex phase, m slots for each of the
#   2^(n-1) vertex pairs.  At the cap, halving each pair once from 2m slots
#   (d = 16.9 at n = 10: 1.98M slots, the scaled basis or a rotated cube;
#   d = 12 at n = 11: 2.0M) took 5.4-5.9 s of 5.2-6.3 s runs (72-103 MB,
#   one BLAS thread).  At m = 14, n = 14 took 2.4-3.5 s (108 MB).
MAX_SUBSAMPLE = 10 ** 4
MAX_VERTEX_SLOTS = 2 * 10 ** 6


@dataclass
class QuotientReport:
    """Outcome of the cube-quotient pipeline, re-queryable; the CLI writes
    its public fields."""

    sigma: tuple
    epsilon: float
    theta: float
    C_over_eps: float
    constants_used: dict
    certificates: list
    verified_fraction: float
    tau: tuple
    theta_formula: float
    chain_levels: int
    density_ok: bool
    vertex_fit: dict
    vertex_residual_max: float
    seed: int
    query_tolerance: float
    calibration: dict
    vertex_certificates: dict
    assembly_theta: float
    flat_m: int
    # vertex mask -> its lifted rows and snap displacement on sigma, as
    # lists; in memory only: underscore fields are never written
    _rows: dict = field(repr=False)


def _decompose_vertex(S, a, m, singleton_index):
    """Equal-weight star decomposition of a vertex, as nonzero average rows.

    Returns (rows, N, shrink_error): the vertex, slightly shrunk, as an
    N-slot average over S.  Members of S (up to sign) take all N = m slots;
    otherwise N is the first m 2^h at least max(2m, 8 nz), nz the LP's
    nonzero coefficients, shrunk so that each generator's weight rounds up
    to a slot count within N.
    """
    key = mask_of_vector(a)
    if key in singleton_index:
        idx, sign = singleton_index[key]
        return ([idx], [m], [sign * m]), m, 0.0
    cert = envelope_gauge(S, a)
    gauge = cert.value
    if gauge > 1.0 + 1e-6:
        raise PhaseError("sandwich", "a cube vertex escapes the envelope",
                         vertex=a.tolist(), gauge=gauge)
    lam = cert.coefficients
    live = np.abs(lam) > 1e-12
    nz = int(live.sum())
    N = 2 * m
    while N < 8 * nz:
        N *= 2
    rho = min(1.0, (N - nz) / (N * max(gauge, 1e-12)))
    weight = np.where(live, rho * np.abs(lam) * N, 0.0)
    mult = np.where(live, np.maximum(1, np.ceil(weight - 1e-12)), 0).astype(int)
    if mult.sum() > N:
        raise NumericalError("slot split exceeded its budget")
    alphas, gens = np.sign(lam) * weight, np.flatnonzero(live)
    rows = gens.tolist(), mult[gens].tolist(), alphas[gens].tolist()
    return rows, N, float(np.linalg.norm(a - S.points.T @ alphas / N))


def cube_quotient(S: GeneratingSet, epsilon, calibration=None, seed=0,
                  queries=32, query_tolerance=1e-6) -> QuotientReport:
    """Full pipeline from a cube-sandwiched set to a cube quotient.

    Phases: per-vertex decomposition (doubling as the sandwich check),
    halving to m-slot averages, snapping at delta = c1 * eps, counting
    selection of the agreement coordinates, the anchored chain over the
    selected patterns, lifting of the chain tables to certificates, and
    the splitting iteration that turns them into geometric representations.
    Each vertex keeps its m-slot average x as nonzero (generators,
    multiplicities, alphas) rows, the certificate format through to the
    report, and its snap displacement y - x; its mirror negates both.
    ||x - vertex|| must be within the shrink error plus the halvings'
    defects, and vertex_fit reports the largest error and the largest
    proved bound, shrink + the greedy bounds.  Only the queries depend on
    the seed.  _lift_chain re-checks every lifted certificate on sigma, and
    each lifted displacement is bounded by chain_scale * delta.  The
    selected patterns count as dense against the calibration's c.  An
    instance whose m exceeds MAX_SUBSAMPLE, or whose 2^(n-1) m vertex-phase
    slots exceed MAX_VERTEX_SLOTS, or a query count or tolerance not above
    0, is rejected before any work.  Fails loudly with the phase name.
    """
    cal = Calibration.from_mapping(calibration)
    n = S.dimension
    if n > 14:
        raise InputError("the combinatorial phase is limited to dimension 14")
    if not 0 < epsilon <= 1:
        raise InputError("epsilon must lie in (0, 1]")
    d = float(np.abs(S.points).max())
    m = int(math.floor(cal.c2 * d * d * epsilon ** -3
                       * (1.0 - math.log(epsilon)))) + 1
    if m > MAX_SUBSAMPLE:
        raise InputError(f"subsample size m = {m} exceeds {MAX_SUBSAMPLE} "
                         f"(d = {d:.6g}, eps = {epsilon:.6g})")
    half = 1 << (n - 1)
    if half * m > MAX_VERTEX_SLOTS:
        raise InputError(f"vertex phase 2^(n-1) m = {half * m} slots exceeds "
                         f"{MAX_VERTEX_SLOTS} (n = {n}, m = {m})")
    delta = cal.c1 * epsilon
    quota = math.ceil(n * (1.0 - epsilon))
    if queries < 1 or not 0 < query_tolerance < math.inf:
        raise InputError("queries must be >= 1 and the tolerance in (0, inf)")

    singleton_index = {}
    for i, row in enumerate(S.points):
        if np.all(np.abs(row) == 1.0):
            singleton_index.setdefault(mask_of_vector(row), (i, 1.0))
            singleton_index.setdefault(mask_of_vector(-row), (i, -1.0))

    full_mask = (1 << n) - 1

    parts, candidates = {}, {}
    allowance = n * d * d / m
    error_max = bound_max = 0.0
    for mask in range(half):
        a = vector_of_mask(n, mask)
        rows, N, shrink_error = _decompose_vertex(S, a, m, singleton_index)
        if shrink_error ** 2 > allowance + 1e-9:
            raise PhaseError("decompose", "rounding error exceeds the allowance",
                             vertex=a.tolist(), error=shrink_error,
                             allowance=allowance)
        fit = subsample_vertex_fit(S, rows, N, a, delta, m)
        # the triangle inequality through the average after each halving
        error = float(np.linalg.norm(fit.x - a))
        if error > (shrink_error + fit.defect) * (1 + 1e-9) + 1e-12:
            raise PhaseError("decompose", "fit error exceeds the shrink error "
                             "plus the halving defects", vertex=a.tolist())
        error_max = max(error_max, error)
        bound_max = max(bound_max, shrink_error + fit.bound)
        # snapping moves the agreement coordinates of x onto the vertex
        agree = list(fit.agreement_set)
        displacement = np.zeros(n)
        displacement[agree] = a[agree] - fit.x[agree]
        parts[mask] = (fit.rows, displacement)
        parts[full_mask ^ mask] = ((*fit.rows[:2], [-v for v in fit.rows[2]]),
                                   -displacement)
        candidates[mask] = candidates[full_mask ^ mask] = fit.agreement_set

    k_agree = min(len(c) for c in candidates.values())
    if k_agree < quota:
        raise PhaseError("select", "agreement floor below the coordinate quota",
                         agreement=k_agree, quota=quota, delta=delta)
    tau, T, witnesses = counting_select(candidates, k_agree)
    density_ok = T.count >= density_threshold(k_agree, cal.c, epsilon)

    chain = alesker_chain(T, epsilon, density_c=cal.c, enforce_density=False)
    sigma_rel = chain.sigma[-1]
    sigma = tuple(tau[i] for i in sigma_rel)
    if len(sigma) < quota:
        raise PhaseError("chain", "selected coordinate set is below the quota",
                         sigma=sigma, quota=quota, chain_levels=chain.levels)
    a_s, b_s = chain_constants(chain.levels)
    if a_s * delta > 0.25 + 1e-12:
        raise PhaseError("certify", "snap budget exceeds the splitting margin",
                         scale=a_s, delta=delta)

    M = b_s * m
    sigma_idx = np.array(sigma, dtype=int)
    lifted = _lift_chain(chain, {p: parts[w] for p, w in witnesses.items()},
                         S, sigma_idx, m)
    vertex_rows, vertex_certificates, vertex_residual_max = {}, {}, 0.0
    for pattern, (rows, rvec) in lifted.items():
        snap_norm = float(np.abs(rvec).max())
        if snap_norm > a_s * delta + 1e-9:
            raise PhaseError("certify", "snap residual exceeds its budget",
                             pattern=pattern, residual=snap_norm)
        vertex_residual_max = max(vertex_residual_max, snap_norm)
        vertex_rows[mask_of_vector(pattern)] = (*rows, rvec[sigma_idx].tolist())
        key = "".join("-" if v < 0 else "+" for v in pattern)
        vertex_certificates[key] = {"m": M, "scale": a_s,
                                    "entries": [list(e) for e in zip(*rows)],
                                    "snap_residual": snap_norm}

    theta_asm = 0.75
    flat_m = 2 * M
    phi, flat_scale = flatten_scale(theta_asm, flat_m)
    C_over_eps = a_s * flat_scale / (1.0 - theta_asm)
    theta_formula = 1.0 - cal.c * d ** -2 * epsilon ** 5 \
        / (1.0 - math.log(epsilon))

    report = QuotientReport(
        sigma=sigma, epsilon=float(epsilon), theta=float(phi),
        C_over_eps=float(C_over_eps),
        constants_used={"n": n, "d": d, "m": m, "N": M, "chain_N": b_s,
                        "chain_scale": a_s, "delta": delta,
                        "k_agreement": k_agree},
        certificates=[], verified_fraction=0.0, tau=tau,
        theta_formula=float(theta_formula), chain_levels=chain.levels,
        density_ok=bool(density_ok),
        vertex_fit={"error_max": error_max, "bound_max": bound_max},
        vertex_residual_max=vertex_residual_max, seed=int(seed),
        query_tolerance=float(query_tolerance), calibration=cal.as_dict(),
        vertex_certificates=vertex_certificates, assembly_theta=theta_asm,
        flat_m=flat_m, _rows=vertex_rows)

    # child `half` of SeedSequence(seed), as spawn(half + 1)[half] gives it
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(half,)))
    points = rng.uniform(-1.0, 1.0, size=(queries, len(sigma)))
    verified = 0
    records = []
    for q in range(queries):
        x = points[q]
        rep = represent_cube_point(report, S, x)
        residual = rep.residual_norm * C_over_eps
        ok = residual <= query_tolerance
        verified += ok
        records.append({"query": [float(v) for v in x],
                        "residual": residual, "verified": bool(ok),
                        "terms": rep.levels.size})
    report.certificates = records
    report.verified_fraction = verified / queries
    return report


def represent_cube_point(report: QuotientReport, S: GeneratingSet,
                         x) -> GammaRepresentation:
    """Geometric representation of a sup-ball point over the quotient coords.

    Each level splits the running point between the two nearest stored
    vertices -- a1 takes +1 where the coordinate is at least 1/2, a2 where it
    is at least -1/2 -- so the midpoint is within 1/2 in sup norm.  The two
    vertex certificates merge into one average term, the snap residuals are
    folded back into the running point, and the level budget contracts by
    3/4.  The walk runs in Python floats, with the same operations in the
    same order as the array expression, and appends each vertex's nonzero
    rows from the report, tagged with the level, so a query costs depth x
    |sigma| float steps plus one approx2_transform over the rows it
    gathered.  The flattened representation evaluates to x / C_over_eps on
    sigma.
    """
    x = np.asarray(x, dtype=float)
    k = len(report.sigma)
    if x.shape != (k,):
        raise InputError("query dimension must match sigma")
    if not np.abs(x).max() <= 1.0 + 1e-12:
        raise InputError("query point is not finite or lies outside the "
                         "sup-norm ball")
    if not report._rows:
        raise InputError("report carries no in-memory vertex tables")
    theta = report.assembly_theta
    M2 = report.flat_m
    tol = report.query_tolerance
    depth = max(1, math.ceil(math.log(0.25 * tol / math.sqrt(k))
                             / math.log(theta)))
    r = x.tolist()
    walked, levels, gens, mults, alphas = 0, [], [], [], []
    for level in range(depth):
        # any float sum of the k squares is within k ulps of numpy's pairwise
        # sum, so the two decide alike unless the sum is near the bound
        if theta ** level * math.sqrt(sum(v * v for v in r)) <= 0.5 * tol:
            rr = np.array(r)
            if theta ** level * math.sqrt(float((rr * rr).sum())) <= 0.25 * tol:
                break
        m1 = m2 = 0
        mid = []  # (a1 + a2) / 2, exactly
        for j, v in enumerate(r):
            low, lower = v < 0.5, v < -0.5
            m1 |= low << j
            m2 |= lower << j
            mid.append(1.0 - low - lower)
        try:
            e1, e2 = report._rows[m1], report._rows[m2]
        except KeyError:
            missing = m1 if m1 not in report._rows else m2
            raise PhaseError("assemble", "vertex certificate missing",
                             vertex=format(missing, "b")) from None
        for g, mult, alpha, _ in (e1, e2):
            levels += [level] * len(g)
            gens += g
            mults += mult
            alphas += alpha
        walked = level + 1
        r = [(v - c + 0.5 * (q1 + q2)) / theta
             for v, c, q1, q2 in zip(r, mid, e1[3], e2[3])]
        worst = max(map(abs, r))
        if worst > 1.0 + 1e-9:
            raise PhaseError("assemble", "splitting residual left the ball",
                             level=level, residual=worst)
    # c1's rows before c2's, so a shared generator sums (0 + a1) + a2
    rep, flat_scale = approx2_transform(theta, M2, np.ones(walked),
                                        (levels, gens, mults, alphas))
    total = report.constants_used["chain_scale"] * flat_scale / (1.0 - theta)
    if abs(total - report.C_over_eps) > 1e-9 * report.C_over_eps:
        raise NumericalError("assembled scale drifted from the report")
    sigma_idx = np.array(report.sigma, dtype=int)
    achieved = report.C_over_eps * rep.evaluate(S)[sigma_idx]
    rep.residual_norm = float(np.linalg.norm(x - achieved) / report.C_over_eps)
    return rep


# ---------------------------------------------------------------------------
# quasi-normed wrappers
# ---------------------------------------------------------------------------

def _pconv_distance(report, p):
    """(contraction at the report's theta, C_over_eps * contraction * d)."""
    contraction = pconv_contraction_bound(p, report.theta)
    return contraction, report.C_over_eps * contraction * report.constants_used["d"]


def pnormed_quotient(body: PBody, epsilon, calibration=None, seed=0, **kwargs):
    """Cube quotient of a p-body plus the two-sided distance estimate.

    The convex pipeline runs on the generators; the contraction bound at the
    realized ratio turns the geometric certificates into a sandwich for the
    projected p-ball, giving distance <= C_over_eps * contraction * d.  The
    closed-form target C p^(-1/p) eps^(4-5/p) (1-ln eps)^(1/p-1) d^(2/p-1)
    is evaluated with the calibrated C and reported alongside, never merged.
    """
    cal = Calibration.from_mapping(calibration)
    report = cube_quotient(body.generators, epsilon, calibration=cal,
                           seed=seed, **kwargs)
    p = body.p
    contraction, realized = _pconv_distance(report, p)
    d = report.constants_used["d"]
    formula = (cal.C * p ** (-1.0 / p) * epsilon ** (4.0 - 5.0 / p)
               * (1.0 - math.log(epsilon)) ** (1.0 / p - 1.0)
               * d ** (2.0 / p - 1.0))
    distance = {"p": p, "d": d, "theta": report.theta,
                "contraction": contraction, "realized": realized,
                "formula_target": formula}
    return report, distance


def l1_to_cube_operator(m, k):
    """Sign matrix whose columns run through one vertex per antipodal pair.

    The image of the coordinate cross-polytope (the l1 ball) under the matrix
    is then exactly the 2k-dimensional sup-norm ball: every cube vertex or its
    negation appears as a column.  Columns repeat cyclically beyond the
    2^(2k-1) distinct representatives.
    """
    if k < 1:
        raise InputError("k must be positive")
    reps = 1 << (2 * k - 1)
    if reps > m:
        raise InputError(f"need 2^(2k-1) = {reps} <= m = {m}")
    columns = np.empty((2 * k, m))
    for i in range(m):
        r = i % reps
        columns[0, i] = 1.0
        for j in range(1, 2 * k):
            columns[j, i] = -1.0 if (r >> (j - 1)) & 1 else 1.0
    return columns


def cubic_quotient_from_nonconvexity(body: PBody, l1_subspace,
                                     calibration=None, seed=0, **kwargs):
    """Cube quotient of a p-body through a coordinate subspace close to l1.

    The caller supplies the subspace (coordinate indices only -- hunting for
    well-isomorphic l1 subspaces is out of scope); the sign operator pushes
    the generators onto a 2k-cube and the pipeline runs at eps = 1/2.  The
    summary reports the dimension against the fitted target c ln A / ln ln A
    (no source cited), A = (p^(1/p) delta / 4)^(p/(1-p)), n/a for small A.
    """
    cal = Calibration.from_mapping(calibration)
    try:
        coords = [int(c) for c in l1_subspace]
    except (TypeError, ValueError):
        raise InputError("l1 subspace must be a sequence of coordinate indices")
    if len(set(coords)) != len(coords) or not coords:
        raise InputError("subspace coordinates must be distinct and nonempty")
    if min(coords) < 0 or max(coords) >= body.generators.dimension:
        raise InputError("subspace coordinate out of range")
    m_dim = len(coords)
    k = 0
    while 1 << (2 * (k + 1) - 1) <= m_dim:
        k += 1
    if k < 1:
        raise InputError("subspace too small: need 2^(2k-1) <= dim for k >= 1")
    delta = delta_nonconvexity(body)  # a set over MAX_BASES fails before the quotient
    T = l1_to_cube_operator(m_dim, k)
    pushed = GeneratingSet(dimension=2 * k,
                           points=body.generators.points[:, coords] @ T.T,
                           label=f"{body.generators.label}/cube{2 * k}")
    report = cube_quotient(pushed, 0.5, calibration=cal, seed=seed, **kwargs)
    p = body.p
    _, realized = _pconv_distance(report, p)
    A = (p ** (1.0 / p) * delta / 4.0) ** (p / (1.0 - p)) if p < 1 else None
    target = None
    if A is not None and A > math.e ** math.e:
        target = cal.c * math.log(A) / math.log(math.log(A))
    summary = {"operator_k": k, "m": m_dim, "sigma_size": len(report.sigma),
               "p": p, "delta": delta, "A": A, "target_dim": target,
               "realized_distance": realized,
               "distance_formula_target": None if p == 1
               else (cal.c * p) ** (-1.0 / p)}
    return report, summary
