"""Computable upper bounds on the eigenvector amplitude.

Four routes are provided:

* the path bound: for paths gamma from an exit state y to any state x, the
  weight P(gamma) multiplies jump-rate / (exit-rate - lambda0) factors along
  the edges, and max phi / min phi <= 1 / min P over the chosen paths;
* the rough bound max Q(gamma) over the same paths, where Q multiplies
  exit-rate / jump-rate factors and needs no eigenvalue;
* the degree-diameter bound (R d / r)^D for walks with rates in [r, R];
* the spectral bound ((1 - lambda0/lambda0') prod_k (1 - lambda0/lambda_k))^-1
  for reversible chains, and its exact birth-death sharpening, where the
  product over the state-1 minor spectrum equals the amplitude.

Path selection maximizes P per (y, x) pair, a shortest-path search on
edge costs -log(factor).  Costs within 1e-14 (1 + max |cost|) of each other
tie, and ties prefer fewer edges, then the smaller predecessor state.
Where a cost is negative, the search follows Johnson (JACM 1977) with
log phi as its potential: at or below the Dirichlet eigenvalue,
rate(u, v) phi(v) <= (exit-rate(u) - lambda0) phi(u), so the reduced costs
c + log phi(u) - log phi(v) are nonnegative, and one Dijkstra call on them
searches from every exit state.  phi is the pair the generator keeps
(AbsorbingGenerator._ground); a lambda0 above its certified bracket raises
InvalidParameter, and chains whose costs are all nonnegative never solve it.
Fewest-edge (geodesic) paths come instead from a breadth-first search,
whose predecessor of each state is the first in queue order to reach it.
Either way the result is one predecessor array per exit state; each
certificate is built from it on demand, and a pointer-doubling sum of log
factors over every path locates the extreme ones that the bound needs.

The oriented diameter of the degree-diameter bound comes from eccentricity
bounds (Takes & Kosters, CIKM 2011): a breadth-first search from one state,
forward and on the transposed support, fixes that state's eccentricity and
bounds every other state's, and searches continue only from states whose
upper bound still exceeds the largest lower one.  A 100 x 100 grid walk
settles after a few searches where all pairs would take ten thousand.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from . import tridiag
from .errors import (
    DegenerateGap,
    InvalidParameter,
    NoConvergence,
    NotBirthDeath,
    NotConverged,
    NotReversible,
    SingularFactor,
)
from .generators import AbsorbingGenerator, Path, _finite_real, _generator, _integer, _real_array
from .spectral import SpectrumReport, _sum_to_root, dirichlet_eigenpair

SINGULAR_RTOL = 1e-14
#: digits of exact_bd_amplitude's last pass: a float amplitude has at most
#: 309 digits, and the determinant ratio needs 60 more than the amplitude
_MAX_ORACLE_DPS = 309 + 60
#: digits of its first pass where the float answer needs no more: two
#: 19-digit words of libmpdec
_FIRST_DPS = 38
#: the relative width it accepts, per unit of R: 2 omega / R <= 1e-20
_RATIO_RTOL = Decimal("5e-21")


@dataclass(frozen=True)
class PathCertificate:
    path: tuple
    weight: float        # P(gamma)
    rough_weight: float  # Q(gamma)


class PathCertificates(Mapping):
    """Read-only (exit state y, state x) -> PathCertificate, each built on
    demand by walking the predecessors from x back to y.

    The arrays are flat over the pairs: the pair of the b-th exit state
    (b = 0, 1, ...) and state x sits at b n + x - 1.  parent holds each pair's
    predecessor in that numbering (negative at the exit state itself), and
    factor[0] and factor[1] the factors rate / (exit-rate - lambda0) and
    exit-rate / rate of its incoming path edge.  P and Q multiply them from
    y onwards, the same left-to-right products that path_weight and
    rough_weight form.  Keys run over the exit states in order, and over
    x = 1..n for each.
    """

    def __init__(self, exits, n_states, parent, factor):
        self._row = {int(y): b for b, y in enumerate(exits)}
        self._n = n_states
        self._parent, self._factor = parent, factor

    def __getitem__(self, key):
        try:
            y, x = key
            b = self._row[y]
        except (TypeError, ValueError, KeyError):
            raise KeyError(key) from None
        if x not in range(1, self._n + 1):
            raise KeyError(key)
        return self._build(b * self._n + int(x) - 1)

    def _build(self, i: int) -> PathCertificate:
        """The certificate of the pair at flat index i."""
        parent, p_factor, q_factor = self._lists
        base = i - i % self._n - 1  # a flat index minus base is a state label
        path = []
        while i >= 0:
            path.append(i)
            i = parent[i]
        path.reverse()
        p = q = 1.0
        for j in path[1:]:
            p *= p_factor[j]
            q *= q_factor[j]
        return PathCertificate(tuple([j - base for j in path]), p, q)

    @cached_property
    def _lists(self) -> tuple:
        return self._parent.tolist(), *self._factor.tolist()

    def __iter__(self):
        return ((y, x) for y in self._row for x in range(1, self._n + 1))

    def __len__(self):
        return len(self._parent)


@dataclass(frozen=True)
class PathBoundReport:
    """Per-pair chosen paths plus the resulting amplitude bounds."""

    pairs: PathCertificates
    bound: float
    rough_bound: float
    method: str

    def certificate(self, y: int, x: int) -> PathCertificate:
        """The chosen path from exit state y to state x with its P and Q;
        InvalidParameter unless y is an exit state and x a state."""
        try:
            return self.pairs[(y, x)]
        except KeyError:
            raise InvalidParameter(
                f"no certificate for ({y}, {x}): y must be an exit state and x a state"
            ) from None


@dataclass(frozen=True)
class SpectralBoundReport:
    bound: float
    factors: tuple


def _edge_factors(gen: AbsorbingGenerator, lambda0: float):
    """denom = |L(x,x)| - lambda0 per state x (0-based array).

    Raises InvalidParameter for a gen or a lambda0 that is malformed and
    SingularFactor where a denom is not safely positive.
    """
    _generator(gen, "a path bound")
    exit_rates = -gen.diagonal
    denom = exit_rates - _finite_real(lambda0, "lambda0")
    bad = denom <= SINGULAR_RTOL * exit_rates
    if np.any(bad):
        x = int(np.nonzero(bad)[0][0]) + 1
        raise SingularFactor(
            f"|L({x},{x})| - lambda0 = {denom[x - 1]:.3e} is not safely positive"
        )
    return denom


def _edges(gen: AbsorbingGenerator, path) -> list:
    """Consecutive pairs of path, a Path or a sequence of state labels;
    InvalidParameter unless each is a positive-rate edge of gen."""
    if not isinstance(path, Path):
        path = Path(tuple(path) if np.iterable(path) else path)
    path.validate(gen)
    return list(zip(path.vertices, path.vertices[1:]))


def path_weight(gen: AbsorbingGenerator, lambda0: float, path) -> float:
    """P(gamma): product of rate / (exit-rate - lambda0) along the path;
    the empty path (a single vertex) has weight 1."""
    edges = _edges(gen, path)
    denom = _edge_factors(gen, lambda0)
    return math.prod((gen.rate(u, v) / denom[u - 1] for u, v in edges), start=1.0)


def rough_weight(gen: AbsorbingGenerator, path) -> float:
    """Q(gamma): product of exit-rate / rate along the path; empty path -> 1."""
    edges = _edges(gen, path)
    exit_rates = -gen.diagonal
    return math.prod((exit_rates[u - 1] / gen.rate(u, v) for u, v in edges), start=1.0)


def _best_parents(gen: AbsorbingGenerator, denom, exits, lambda0) -> np.ndarray:
    """Predecessors of the paths maximizing P, flat over the (exit, state)
    pairs as in PathCertificates.

    Costs are -log(factor).  Where one is negative, h = log phi of the
    generator's ground pair is a potential, and the reduced costs
    max(c + h(u) - h(v), 0) are nonnegative; one Dijkstra call then searches
    from every exit state.  There a lambda0 more than 4 ulps above the
    pair's bracket raises InvalidParameter.  An edge is tight when
    d(u) + c(u, v) <= d(v) + 1e-14 (1 + max |c|); a state's predecessor is
    the smallest tight u whose fewest-tight-edge depth is one less than its
    own.  Only where some state has two tight edges in are those depths
    needed, and then one unweighted search of every exit state's tight
    edges, stacked block-diagonally, gives them all.
    """
    n, m = gen.n_states, len(exits) * gen.n_states
    rows, cols, vals = gen._coo
    costs = -(np.log(vals) - np.log(denom[rows]))
    scale = 1.0 + float(np.abs(costs).max()) if len(costs) else 1.0
    if len(costs) and costs.min() < 0:
        hi = gen._ground.bracket[1]
        if lambda0 > hi * (1 + tridiag._FOUR_EPS):
            raise InvalidParameter(f"lambda0 = {float(lambda0)!r} is above the Dirichlet "
                                   f"eigenvalue, which is at most {hi!r}")
        h = np.log(gen._ground.phi)
        costs = np.maximum(costs + h[rows] - h[cols], 0.0)
    csr = gen._csr
    dist = dijkstra(csr_matrix((costs, csr.indices, csr.indptr), shape=(n, n)), indices=exits)
    sources = np.arange(len(exits)) * n + exits
    block, edge = np.nonzero(dist[:, rows] + costs <= dist[:, cols] + 1e-14 * scale)
    u, v = block * n + rows[edge], block * n + cols[edge]
    count = np.bincount(v, minlength=m)
    count[sources] = 0
    if count.max() > 1:
        tight = csr_matrix((np.ones(len(u)), (u, v)), shape=(m, m))
        depth = dijkstra(tight, indices=sources, unweighted=True, min_only=True)
        keep = depth[u] == depth[v] - 1
        u, v = u[keep], v[keep]
    parent = np.full(m, m, dtype=np.int64)
    np.minimum.at(parent, v, u)
    parent[sources] = -1
    return parent


def path_bound(gen: AbsorbingGenerator, lambda0: float | None = None,
               paths: str = "best") -> PathBoundReport:
    """Amplitude bound from one path per (exit state y, state x) pair.

    paths="best" maximizes P(gamma) per pair; paths="geodesic" uses
    fewest-edge paths instead, which reproduces the degree-diameter bound on
    unit-rate walks.  The report carries every chosen path, the bound
    (min P)^-1 and the rough bound max Q over the same paths.  Where some
    edge cost of the best-path search is negative, the search reads the
    generator's ground pair (which raises that pair's QsampError if it cannot
    be solved), and a lambda0 above the pair's bracket raises
    InvalidParameter.  The bound is math.inf where min P underflows: it then
    exceeds the largest double, which it still bounds.

    One pointer-doubling pass sums the log factors of every path, P and Q
    side by side.  The pairs whose sums lie within rounding of the extreme
    are candidates, and their products are then formed exactly, left to
    right.  A sum of logs and a product formed left to right differ by at
    most a few n ulps of (1 + n max |log factor|) in the log, so the pair
    with the extreme exact product is always among the candidates.
    """
    if paths not in ("best", "geodesic"):
        raise InvalidParameter("paths must be 'best' or 'geodesic'")
    if lambda0 is None:
        lambda0 = dirichlet_eigenpair(gen).lambda0
    denom = _edge_factors(gen, lambda0)
    n = gen.n_states
    exits = np.array(gen.absorbing_set) - 1
    if paths == "geodesic":
        trees = [breadth_first_order(gen._csr, y, return_predecessors=True)[1] for y in exits]
        parent = np.concatenate([np.where(t >= 0, t + b * n, -1) for b, t in enumerate(trees)])
    else:
        parent = _best_parents(gen, denom, exits, lambda0)
    # AbsorbingGenerator rejects reducible chains, so every pair has a path
    child = np.flatnonzero(parent >= 0)
    u, v = parent[child] % n, child % n
    rows, cols, vals = gen._coo
    rate = vals[np.searchsorted(rows * n + cols, u * n + v)]
    factor = np.ones((2, len(parent)))
    factor[0, child] = rate / denom[u]
    factor[1, child] = -gen.diagonal[u] / rate
    certs = PathCertificates(exits + 1, n, parent, factor)
    # -log P and log Q of every path side by side, so the largest of each
    # marks the extreme product
    logs = np.log(factor)
    logs[0] *= -1.0
    m = len(parent)
    total = _sum_to_root(np.concatenate([parent, np.where(parent >= 0, parent + m, -1)]),
                         logs.ravel()).reshape(2, m)
    tol = 1e-15 * n * (1.0 + n * float(np.abs(logs).max()))
    low_p, high_q = (np.flatnonzero(t >= t.max() - tol).tolist() for t in total)
    built = {i: certs._build(i) for i in {*low_p, *high_q}}
    worst = min(built[i].weight for i in low_p)
    rough = max(built[i].rough_weight for i in high_q)
    return PathBoundReport(pairs=certs, bound=math.inf if worst == 0 else 1.0 / worst,
                           rough_bound=rough, method=paths)


def graph_bound(d: float, diameter: int, r: float, big_r: float) -> float:
    """Degree-diameter bound (R d / r)^D for rate-perturbed unit walks;
    math.inf where it exceeds the largest double, which it still bounds."""
    d = _finite_real(d, "d")
    if d < 1:
        raise InvalidParameter("max out-degree must be >= 1")
    diameter = _integer(diameter, "diameter", 0)
    r, big_r = _finite_real(r, "r"), _finite_real(big_r, "R")
    if not 0 < r <= big_r:
        raise InvalidParameter("need 0 < r <= R")
    try:
        return (big_r * d / r) ** diameter
    except OverflowError:
        return math.inf


def graph_parameters(gen: AbsorbingGenerator):
    """(d, D, r, R) read off a generator: max out-degree of the full graph
    (absorption edges included), oriented diameter of the internal graph, and
    min/max positive rates (absorption included)."""
    _generator(gen, "graph_parameters")
    csr = gen._csr
    degree = np.diff(csr.indptr) + (gen.absorption_rates > 0)
    rates = np.concatenate([csr.data, gen.absorption_rates[gen.absorption_rates > 0]])
    return int(degree.max()), _diameter(csr), float(rates.min()), float(rates.max())


def _diameter(csr) -> int:
    """Oriented diameter max_w ecc(w), ecc(w) = max_u d(w, u), of a strongly
    connected support, from eccentricity bounds.

    A search from v gives d(v, .) forward and d(., v) on the transposed
    support, so ecc(v) exactly and, for every state w,
    max(ecc(v) - d(v, w), d(w, v)) <= ecc(w) <= d(w, v) + ecc(v).
    Sources alternate between the largest upper and the smallest lower
    bound among the states whose upper bound is still above the largest
    lower bound, and the search stops when none is; each source closes
    at least itself.
    """
    n = csr.shape[0]
    back = csr.T.tocsr()
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, n, dtype=np.int64)
    best, turn = 0, 0
    while True:
        open_ = np.flatnonzero(hi > best)
        if not len(open_):
            return best
        pick = np.argmax(hi[open_]) if turn % 2 == 0 else np.argmin(lo[open_])
        v, turn = int(open_[pick]), turn + 1
        fwd, bwd = _hops(csr, v), _hops(back, v)
        ecc = int(fwd.max())
        lo = np.maximum(lo, np.maximum(ecc - fwd, bwd))
        hi = np.minimum(hi, bwd + ecc)
        best = int(lo.max())


def _hops(csr, src) -> np.ndarray:
    """Hop counts from src along the support (every state reachable): the
    depths of a breadth-first tree."""
    pred = breadth_first_order(csr, src, return_predecessors=True)[1]
    return _sum_to_root(pred, np.ones(len(pred))).astype(np.int64)


def spectral_bound(report: SpectrumReport) -> SpectralBoundReport:
    """Reversible amplitude bound from the full spectrum and lambda0'.

    bound = ((1 - lambda0/lambda0') prod_{k>=1} (1 - lambda0/lambda_k))^-1,
    math.inf where the product underflows: the bound then exceeds the
    largest double, which it still bounds.  A lambda0 at or below zero, or
    at or above lambda0' or a higher eigenvalue, raises DegenerateGap.
    """
    if not isinstance(report, SpectrumReport):
        raise InvalidParameter("spectral_bound needs a SpectrumReport")
    if report.reversible_measure is None:
        raise NotReversible("spectral bound requires a reversible generator")
    lam = _real_array(report.eigenvalues, "eigenvalues must be finite numbers", (None,))
    if not len(lam):
        raise InvalidParameter("spectral_bound needs at least one eigenvalue")
    lam0 = float(lam[0])
    lam0p = report.lambda0_prime  # +inf for a one-state chain
    if not isinstance(lam0p, numbers.Real):
        raise InvalidParameter(f"lambda0' {lam0p!r} is not a real number")
    if math.isnan(lam0p):
        raise NotConverged("lambda0' is nan, not a converged eigenvalue")
    lam0p = float(lam0p)
    if lam0 <= 0:
        raise DegenerateGap(f"lambda0 = {lam0!r} <= 0; eigensolver failure")
    if lam0p <= lam0 * (1 + 1e-12):
        raise DegenerateGap(
            f"lambda0' = {lam0p!r} <= lambda0 = {lam0!r}; eigensolver failure"
        )
    low = lam[1:][lam[1:] <= lam0 * (1 + 1e-12)]
    if len(low):
        raise DegenerateGap(f"eigenvalue {float(low[0])!r} <= lambda0 = {lam0!r}")
    factors = [1.0 - lam0 / lam0p, *(1.0 - lam0 / lam[1:]).tolist()]
    prod = float(np.prod(factors))
    return SpectralBoundReport(bound=math.inf if prod == 0 else 1.0 / prod, factors=tuple(factors))


def exact_bd_amplitude(gen: AbsorbingGenerator, dps: int | None = None) -> float:
    """Exact amplitude of a birth-death chain absorbed from state 1.

    Uses the hitting-time factorization: the amplitude equals
    prod_l (1 - lambda0/lam~_l)^-1 over the spectrum lam~ of the minor that
    removes state 1, which is 1/R for the determinant ratio
    R = det(T~ - lambda0)/det(T~), here in dps-digit decimal arithmetic with
    an exponent range no chain can leave.  One bottom-up pass
    (tridiag._bracket_pass) counts the eigenvalues below lo = lambda (1 - omega)
    and hi = lambda (1 + omega), which certifies lambda0 in [lo, hi], and
    forms R(lo) from the same pivots; lambda comes from decimal Newton steps
    from the double-precision start (tridiag._certified, the loop of
    tridiag.mp_lambda).  The width follows the float answer: after a step of
    relative size s, omega = max(10^4 s^2, n 10^(5 - dps)), and since
    sum_l lambda0 / (lam~_l - lambda0) <= amplitude - 1, R(lo) is within
    2 omega amplitude of R(lambda0), relatively; so a pass is accepted once
    its counts bracket lambda0 and 2 omega / R <= 1e-20.  R's condition
    number is the amplitude, so it is also accepted only when R > 0 and
    log10(1/R) + 30 <= dps.  The first pass runs at 38 digits when that rule
    holds there for the double-precision R at the start, else at 60; a pass
    that fails repeats at ceil(log10(1/R)) + 60 digits (60 more when R <= 0
    or when only the width failed), its Newton steps starting from the
    lambda0 it has; an explicit dps runs one precision.  NoConvergence is
    raised when an explicit dps fails, or when the amplitude needs more
    digits than a float holds.  Nothing here uses the double-precision
    eigenpair, so the result is an independent check of it.
    """
    _generator(gen, "exact_bd_amplitude")
    if not gen.is_birth_death:
        raise NotBirthDeath("exact amplitude needs birth-death absorbed from state 1")
    if dps is not None:
        dps = tridiag._oracle_digits(dps)
    b, d = gen.birth_death_rates()
    if len(d) == 1:
        return 1.0
    lam, estimate = tridiag._double_start(b, d, 0)
    digits = dps or (_FIRST_DPS if _resolves(estimate, _FIRST_DPS) else 60)
    rates = tridiag._mp_rates(b, d)
    while True:
        lam, omega, ratio = tridiag._certified(rates, lam, 0, digits, _RATIO_RTOL, estimate)
        if _resolves(ratio, digits) and omega <= _RATIO_RTOL * ratio:
            return float(tridiag.oracle_context(digits).divide(1, ratio))
        # -adjusted() is ceil(log10(1/R)) for R > 0
        more = 60 - ratio.adjusted() if ratio > 0 else digits + 60
        if more <= digits:  # R resolved, but not at a width 2 omega / R <= 1e-20
            more = digits + 60
        if dps is not None or more > _MAX_ORACLE_DPS:
            raise NoConvergence(
                f"amplitude not resolved at {digits} digits: determinant ratio {ratio:.6g}"
            )
        digits, estimate = more, ratio


def _resolves(ratio, digits) -> bool:
    """exact_bd_amplitude's digits rule: R > 0 and log10(1/R) + 30 <= digits."""
    return ratio > 0 and 30 - ratio.adjusted() <= digits
