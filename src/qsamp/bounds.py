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

Path selection maximizes P per (y, x) pair with a Bellman-Ford relaxation on
edge costs -log(factor).  Costs within 1e-14 (1 + max |cost|) of each other
tie, and ties prefer fewer edges, then the smaller predecessor state.  At
or below the Dirichlet eigenvalue, cycle products never exceed one (each
factor is at most the corresponding eigenvector ratio), so a negative cycle
means the caller's lambda0 is above it, and raises InvalidParameter.
Fewest-edge (geodesic) paths come instead from a breadth-first search of
the generator's CSR rates (scipy.sparse.csgraph), which gives each state
the first state in queue order that reaches it as its predecessor.
Certificates are then propagated down the shortest-path tree of each exit
state: a state takes its predecessor's path, P and Q and extends them by one
edge, so P and Q are the same left-to-right products that path_weight and
rough_weight form, and each exit state costs one pass over the edges on top
of the search.

The oriented diameter of the degree-diameter bound comes from eccentricity
bounds (Takes & Kosters, CIKM 2011): a breadth-first search from one state,
forward and on the transposed support, fixes that state's eccentricity and
bounds every other state's, and searches continue only from states whose
upper bound still exceeds the largest lower one.  A 100 x 100 grid walk
settles after a few searches where all pairs would take ten thousand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import breadth_first_order

from . import tridiag
from .errors import (
    DegenerateGap,
    InvalidParameter,
    NoConvergence,
    NotBirthDeath,
    NotReversible,
    SingularFactor,
)
from .generators import AbsorbingGenerator, Path
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


@dataclass(frozen=True)
class PathBoundReport:
    """Per-pair chosen paths plus the resulting amplitude bounds."""

    pairs: dict
    bound: float
    rough_bound: float
    method: str

    def certificate(self, y: int, x: int) -> PathCertificate:
        return self.pairs[(y, x)]


@dataclass(frozen=True)
class SpectralBoundReport:
    bound: float
    factors: tuple


def _edge_factors(gen: AbsorbingGenerator, lambda0: float):
    """(u, v, rate, denom) per internal edge; denom = |L(u,u)| - lambda0."""
    exit_rates = -gen.diagonal
    denom = exit_rates - lambda0
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


def _tree_certificates(gen, parent, src, denom, exit_rates):
    """(path, P, Q) per state, propagated down the predecessor tree of src.

    parent holds each state's predecessor (0-based), negative where there
    is none.  A child extends its parent's path by one edge and multiplies
    in that edge's factor, so P and Q are the same left-to-right products
    that path_weight and rough_weight form.  States the tree does not reach
    from src get None.
    """
    n = gen.n_states
    parent = np.asarray(parent, dtype=np.int64)
    child = np.flatnonzero(parent >= 0)
    child = child[child != src]
    # the rate of every tree edge (parent, child), by one sorted-key lookup
    rows, cols, vals = gen._coo
    rate_in = np.zeros(n)
    rate_in[child] = vals[np.searchsorted(rows * n + cols, parent[child] * n + child)]
    rate_in = rate_in.tolist()
    children = [[] for _ in range(n)]
    for v, u in zip(child.tolist(), parent[child].tolist()):
        children[u].append(v)
    certs = [None] * n
    certs[src] = ((src + 1,), 1.0, 1.0)
    stack = [src]
    while stack:
        u = stack.pop()
        path, p, q = certs[u]
        for v in children[u]:
            r = rate_in[v]
            certs[v] = (path + (v + 1,), p * (r / denom[u]), q * (exit_rates[u] / r))
            stack.append(v)
    return certs


def path_bound(gen: AbsorbingGenerator, lambda0: float | None = None,
               paths: str = "best") -> PathBoundReport:
    """Amplitude bound from one path per (exit state y, state x) pair.

    paths="best" maximizes P(gamma) per pair; paths="geodesic" uses
    fewest-edge paths instead, which reproduces the degree-diameter bound on
    unit-rate walks.  The report carries every chosen path, the bound
    (min P)^-1 and the rough bound max Q over the same paths.  A lambda0
    that the best-path search finds above the Dirichlet eigenvalue raises
    InvalidParameter.
    """
    if paths not in ("best", "geodesic"):
        raise InvalidParameter("paths must be 'best' or 'geodesic'")
    if lambda0 is None:
        lambda0 = dirichlet_eigenpair(gen).lambda0
    n = gen.n_states
    denom = _edge_factors(gen, lambda0)
    rows, cols, vals = gen._coo
    costs = -(np.log(vals) - np.log(denom[rows]))
    rows, cols, costs = rows.tolist(), cols.tolist(), costs.tolist()
    denom, exit_rates = denom.tolist(), (-gen.diagonal).tolist()
    pairs = {}
    for y in gen.absorbing_set:
        src = y - 1
        if paths == "geodesic":
            parent = breadth_first_order(gen._csr, src, return_predecessors=True)[1]
        else:
            parent, neg_cycle = _bellman_ford(n, rows, cols, costs, src)
            if neg_cycle:
                raise InvalidParameter(
                    f"lambda0 = {lambda0!r} is above the Dirichlet eigenvalue: "
                    "a cycle of path factors has product above one"
                )
        certs = _tree_certificates(gen, parent, src, denom, exit_rates)
        for x, cert in enumerate(certs, 1):
            if cert is None:
                raise InvalidParameter(f"no path from {y} to {x}; generator not irreducible?")
            pairs[(y, x)] = PathCertificate(*cert)
    worst = min(c.weight for c in pairs.values())
    rough = max(c.rough_weight for c in pairs.values())
    return PathBoundReport(pairs=pairs, bound=1.0 / worst, rough_bound=rough, method=paths)


def graph_bound(d: float, diameter: int, r: float, big_r: float) -> float:
    """Degree-diameter bound (R d / r)^D for rate-perturbed unit walks."""
    if d < 1:
        raise InvalidParameter("max out-degree must be >= 1")
    if diameter < 0:
        raise InvalidParameter("diameter must be >= 0")
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
            raise DegenerateGap(f"eigenvalue {lk!r} <= lambda0 = {lam0!r}")
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
    b, d = gen.birth_death_rates()
    if len(d) == 1:
        return 1.0
    digits = 60 if dps is None else dps
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
