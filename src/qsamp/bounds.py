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
tie, and ties prefer fewer edges, then the smaller predecessor state.  At
or below the Dirichlet eigenvalue, cycle products never exceed one (each
factor is at most the corresponding eigenvector ratio), so a negative cycle
means the caller's lambda0 is above it, and raises InvalidParameter.
Costs can be negative, so the search follows Johnson (JACM 1977): where
one is, a Bellman-Ford relaxation from the first exit state gives that
state's paths and a potential h, and one scipy.sparse.csgraph Dijkstra
call on the reduced costs c(u, v) + h(u) - h(v) >= 0 serves every other
exit state; with no negative cost it serves them all.  The ties come from
the tight edges of each search, whose fewest-edge depths one unweighted
search of all of them finds at once.
Fewest-edge (geodesic) paths come instead from a breadth-first search of
the generator's CSR rates, which gives each state the first state in queue
order that reaches it as its predecessor.  Either way the result is one
predecessor array per exit state.  Certificates are built from it on
demand, so P and Q are the same left-to-right products that path_weight
and rough_weight form; the bound needs only the extreme ones, which a
pointer-doubling sum of log factors over every path locates.

The oriented diameter of the degree-diameter bound comes from eccentricity
bounds (Takes & Kosters, CIKM 2011): a breadth-first search from one state,
forward and on the transposed support, fixes that state's eccentricity and
bounds every other state's, and searches continue only from states whose
upper bound still exceeds the largest lower one.  A 100 x 100 grid walk
settles after a few searches where all pairs would take ten thousand.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
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
    NotReversible,
    SingularFactor,
)
from .generators import AbsorbingGenerator, Path, _finite_real, _integer
from .spectral import SpectrumReport, _sum_to_root, dirichlet_eigenpair

SINGULAR_RTOL = 1e-14
CYCLE_EPS = 1e-9
#: digits of exact_bd_amplitude's last pass: a float amplitude has at most
#: 309 digits, and the determinant ratio needs 60 more than the amplitude
_MAX_ORACLE_DPS = 309 + 60


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

    Raises InvalidParameter for a lambda0 that is not a finite number and
    SingularFactor where a denom is not safely positive.
    """
    exit_rates = -gen.diagonal
    denom = exit_rates - _finite_real(lambda0, "lambda0")
    bad = denom <= SINGULAR_RTOL * exit_rates
    if np.any(bad):
        x = int(np.nonzero(bad)[0][0]) + 1
        raise SingularFactor(
            f"|L({x},{x})| - lambda0 = {denom[x - 1]:.3e} is not safely positive"
        )
    return denom


def path_weight(gen: AbsorbingGenerator, lambda0: float, path) -> float:
    """P(gamma): product of rate / (exit-rate - lambda0) along the path.

    The empty path (a single vertex) has weight 1.
    """
    vertices = path.vertices if isinstance(path, Path) else tuple(path)
    Path(vertices).validate(gen)
    denom = _edge_factors(gen, lambda0)
    out = 1.0
    for u, v in zip(vertices, vertices[1:]):
        out *= gen.rate(u, v) / denom[u - 1]
    return out


def rough_weight(gen: AbsorbingGenerator, path) -> float:
    """Q(gamma): product of exit-rate / rate along the path; empty path -> 1."""
    vertices = path.vertices if isinstance(path, Path) else tuple(path)
    Path(vertices).validate(gen)
    exit_rates = -gen.diagonal
    out = 1.0
    for u, v in zip(vertices, vertices[1:]):
        out *= exit_rates[u - 1] / gen.rate(u, v)
    return out


def _bellman_ford(n, rows, cols, costs, src):
    """Shortest walks from src with deterministic tie-breaking.

    rows, cols and costs are plain lists in (from, to) order.  Ties on cost
    prefer fewer edges, then the lexicographically smaller predecessor
    state.  Returns (parent, negative_cycle_flag).

    path_bound runs this once, from the first exit state, and only when
    some cost is negative; its tree gives the potential that makes every
    other search a Dijkstra.  scipy's own routes fail on exactly these
    costs: csgraph.johnson did not return on a two-state chain whose cycle
    product is 1 at lambda0, and csgraph.bellman_ford, with no tolerance in
    its negative-cycle test, raises at a chain's own lambda0.
    """
    inf = math.inf
    dist = [inf] * n
    nedge = [0] * n
    parent = [-1] * n
    dist[src] = 0.0
    scale = 1.0 + max(map(abs, costs)) if costs else 1.0
    eps = 1e-14 * scale
    edges = list(zip(rows, cols, costs))
    for _ in range(max(n - 1, 1)):
        changed = False
        for u, v, c in edges:
            du = dist[u]
            if du == inf:
                continue
            cand = du + c
            dv = dist[v]
            if cand < dv - eps:
                dist[v], nedge[v], parent[v] = cand, nedge[u] + 1, u
                changed = True
            elif cand <= dv + eps:
                ne = nedge[u] + 1
                if ne < nedge[v] or (ne == nedge[v] and parent[v] != -1 and u < parent[v]):
                    dist[v], nedge[v], parent[v] = cand, ne, u
                    changed = True
        if not changed:
            break
    for u, v, c in edges:
        if dist[u] != inf and dist[u] + c < dist[v] - CYCLE_EPS * scale:
            return parent, True
    return parent, False


def _edge_index(gen: AbsorbingGenerator, u, v):
    """Position in gen._coo of each edge (u, v), by one sorted-key lookup."""
    rows, cols, _ = gen._coo
    n = gen.n_states
    return np.searchsorted(rows * n + cols, u * n + v)


def _best_parents(gen: AbsorbingGenerator, denom, exits, lambda0) -> np.ndarray:
    """Predecessors of the paths maximizing P, flat over the (exit, state)
    pairs as in PathCertificates.

    Costs are -log(factor).  Where one is negative, a Bellman-Ford search
    from the first exit state gives its paths and, summed down its tree, a
    potential h; the reduced costs max(c + h(u) - h(v), 0) then serve one
    Dijkstra from the other exit states, and with no negative cost (h = 0)
    that Dijkstra covers every exit state.  An edge is tight when
    d(u) + c(u, v) <= d(v) + 1e-14 (1 + max |c|); a state's predecessor is
    the smallest tight u whose fewest-tight-edge depth is one less than its
    own.  Only where some state has two tight edges in are those depths
    needed, and then one unweighted search of every exit state's tight
    edges, stacked block-diagonally, gives them all.
    """
    n, m = gen.n_states, len(exits) * gen.n_states
    rows, cols, vals = gen._coo
    costs = -(np.log(vals) - np.log(denom[rows]))
    eps = 1e-14 * (1.0 + np.abs(costs).max()) if len(costs) else 0.0
    parent = np.full(m, -1, dtype=np.int64)
    first = 0  # exit states before this one are settled
    if len(costs) and costs.min() < 0:
        tree, neg_cycle = _bellman_ford(n, rows.tolist(), cols.tolist(), costs.tolist(), exits[0])
        if neg_cycle:
            raise InvalidParameter(
                f"lambda0 = {float(lambda0)!r} is above the Dirichlet eigenvalue: "
                "a cycle of path factors has product above one"
            )
        # a cycle of factors whose product rounds to just above one may hand
        # the source a predecessor, which it does not keep (a loop of other
        # states would make the pointer doubling of path_bound raise)
        parent[:n] = tree
        parent[exits[0]] = -1
        first = 1
        if len(exits) == 1:
            return parent
        child = np.flatnonzero(parent[:n] >= 0)
        step = np.zeros(n)
        step[child] = costs[_edge_index(gen, parent[child], child)]
        h = _sum_to_root(parent[:n], step)
        costs = np.maximum(costs + h[rows] - h[cols], 0.0)
    csr = gen._csr
    dist = dijkstra(csr_matrix((costs, csr.indices, csr.indptr), shape=(n, n)),
                    indices=exits[first:])
    sources = np.arange(first, len(exits)) * n + exits[first:]
    block, edge = np.nonzero(dist[:, rows] + costs <= dist[:, cols] + eps)
    u, v = (block + first) * n + rows[edge], (block + first) * n + cols[edge]
    count = np.bincount(v, minlength=m)
    count[sources] = 0
    if count.max() > 1:
        tight = csr_matrix((np.ones(len(u)), (u, v)), shape=(m, m))
        depth = dijkstra(tight, indices=sources, unweighted=True, min_only=True)
        keep = depth[u] == depth[v] - 1
        u, v = u[keep], v[keep]
    best = np.full(m, m, dtype=np.int64)
    np.minimum.at(best, v, u)
    best[sources] = -1
    parent[first * n:] = best[first * n:]
    return parent


def path_bound(gen: AbsorbingGenerator, lambda0: float | None = None,
               paths: str = "best") -> PathBoundReport:
    """Amplitude bound from one path per (exit state y, state x) pair.

    paths="best" maximizes P(gamma) per pair; paths="geodesic" uses
    fewest-edge paths instead, which reproduces the degree-diameter bound on
    unit-rate walks.  The report carries every chosen path, the bound
    (min P)^-1 and the rough bound max Q over the same paths.  A lambda0
    that the best-path search finds above the Dirichlet eigenvalue raises
    InvalidParameter.

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
    n = gen.n_states
    denom = _edge_factors(gen, lambda0)
    exits = np.array(gen.absorbing_set) - 1
    if paths == "geodesic":
        trees = [breadth_first_order(gen._csr, y, return_predecessors=True)[1] for y in exits]
        parent = np.concatenate([np.where(t >= 0, t + b * n, -1) for b, t in enumerate(trees)])
    else:
        parent = _best_parents(gen, denom, exits, lambda0)
    # AbsorbingGenerator rejects reducible chains, so every pair has a path
    child = np.flatnonzero(parent >= 0)
    u, v = parent[child] % n, child % n
    rate = gen._coo[2][_edge_index(gen, u, v)]
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
    return PathBoundReport(pairs=certs, bound=1.0 / worst, rough_bound=rough, method=paths)


def graph_bound(d: float, diameter: int, r: float, big_r: float) -> float:
    """Degree-diameter bound (R d / r)^D for rate-perturbed unit walks."""
    if d < 1:
        raise InvalidParameter("max out-degree must be >= 1")
    _integer(diameter, "diameter", 0)
    if not 0 < r <= big_r:
        raise InvalidParameter("need 0 < r <= R")
    return float((big_r * d / r) ** diameter)


def graph_parameters(gen: AbsorbingGenerator):
    """(d, D, r, R) read off a generator: max out-degree of the full graph
    (absorption edges included), oriented diameter of the internal graph, and
    min/max positive rates (absorption included)."""
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

    bound = ((1 - lambda0/lambda0') prod_{k>=1} (1 - lambda0/lambda_k))^-1.
    """
    if not isinstance(report, SpectrumReport):
        raise InvalidParameter("spectral_bound needs a SpectrumReport")
    if report.reversible_measure is None:
        raise NotReversible("spectral bound requires a reversible generator")
    lam = np.asarray(report.eigenvalues, dtype=float)
    lam0 = float(lam[0])
    lam0p = float(report.lambda0_prime)
    if not math.isinf(lam0p) and lam0p <= lam0 * (1 + 1e-12):
        raise DegenerateGap(
            f"lambda0' = {lam0p!r} <= lambda0 = {lam0!r}; eigensolver failure"
        )
    factors = [1.0 - lam0 / lam0p] if not math.isinf(lam0p) else [1.0]
    for lk in lam[1:]:
        if lk <= lam0 * (1 + 1e-12):
            raise DegenerateGap(f"eigenvalue {float(lk)!r} <= lambda0 = {lam0!r}")
        factors.append(1.0 - lam0 / lk)
    prod = float(np.prod(factors))
    return SpectralBoundReport(bound=1.0 / prod, factors=tuple(factors))


def exact_bd_amplitude(gen: AbsorbingGenerator, dps: int | None = None) -> float:
    """Exact amplitude of a birth-death chain absorbed from state 1.

    Uses the hitting-time factorization: the amplitude equals
    prod_l (1 - lambda0/lam~_l)^-1 over the spectrum lam~ of the minor that
    removes state 1.  The product is evaluated as the determinant ratio
    R = det(T~ - lambda0)/det(T~) in dps-digit decimal arithmetic (the
    standard library's decimal module, with an exponent range no chain can
    leave), so the result stays accurate even when the amplitude spans
    hundreds of orders of magnitude.  lambda0 comes from tridiag.mp_lambda:
    a double-precision start certified by the differential Sturm count
    (float Newton steps from 0 and a walk of a few ulps, or bisection), a
    few decimal Newton steps on det(T - lambda), and a certificate of two
    decimal Sturm counts just below and above the result.  The double-
    precision start runs on the rates scaled by a power of two, which is
    exact, so no double product of rates overflows at any rate scale.
    The ratio's condition number is the amplitude itself, so R is accepted
    only when R > 0 and log10(1/R) + 30 <= dps.  The default precision starts at 60
    digits and otherwise repeats at ceil(log10(1/R)) + 60 digits, or at 60
    more when R <= 0; an explicit dps runs one pass.  NoConvergence is
    raised when an explicit dps fails the check, or when the amplitude
    needs more digits than a float holds.  Nothing here uses the
    double-precision eigenpair, so the result is an independent check of it.
    """
    if not gen.is_birth_death:
        raise NotBirthDeath("exact amplitude needs birth-death absorbed from state 1")
    digits = 60 if dps is None else _integer(dps, "dps", 1)
    b, d = gen.birth_death_rates()
    if len(d) == 1:
        return 1.0
    while True:
        lam = tridiag.mp_lambda(b, d, 0, dps=digits)
        ratio = tridiag.mp_detratio_minor(b, d, lam, dps=digits)
        # -adjusted() is ceil(log10(1/R)) for R > 0
        if ratio > 0 and 30 - ratio.adjusted() <= digits:
            return float(tridiag.oracle_context(digits).divide(1, ratio))
        more = 60 - ratio.adjusted() if ratio > 0 else digits + 60
        if dps is not None or more > _MAX_ORACLE_DPS:
            raise NoConvergence(
                f"amplitude not resolved at {digits} digits: determinant ratio {ratio:.6g}"
            )
        digits = more
