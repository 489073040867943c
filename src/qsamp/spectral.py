"""Dirichlet eigen-analysis of the killed generator.

The killed generator K (surviving-states minor of an absorbing generator) is
an irreducible sub-Markovian matrix, so -K has a simple smallest eigenvalue
lambda0 with a positive eigenvector phi.  This module computes that pair, the
full spectrum in the reversible case, the quasi-stationary distribution (the
matching left eigenvector), single-state minor eigenvalues, and the amplitude
max(phi)/min(phi).

Solver routing follows the structure of the input: birth-death chains go to
the Green-operator routine tridiag.ground_pair and are accepted on its
certified lambda0 bracket, other reversible generators are symmetrized and
handed to a dense symmetric solver, and the general case uses inverse
iteration on an LU factorization of -K (the inverse of an irreducible
M-matrix is entrywise positive, so plain power steps on it converge to the
Perron direction from the all-ones start).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigvalsh_tridiagonal, lu_factor, lu_solve

from . import tridiag
from .errors import (
    InvalidParameter,
    NoConvergence,
    NonPositiveInput,
    NotDiagonalizableDetected,
)
from .generators import AbsorbingGenerator, minor as generator_minor

#: target for the iterative residual ||K phi + lambda0 phi||_inf
RESIDUAL_TARGET = 1e-12
#: invariant bound actually asserted on outputs
RESIDUAL_RTOL = 1e-10
MAX_ITERATIONS = 100_000

NORMALIZATIONS = ("first", "qsd", "max")


@dataclass(frozen=True)
class DirichletEigenpair:
    """First Dirichlet eigenvalue of -K and its positive eigenvector."""

    lambda0: float
    phi: np.ndarray
    normalization: str
    residual: float

    def residual_bound(self, max_rate: float) -> float:
        """Tolerated residual: the relative bound plus a machine floor.

        The floor 64 eps * max_rate * ||phi|| is unavoidable in double
        arithmetic; it matters only when lambda0 is many orders of magnitude
        below the largest exit rate.
        """
        scale = float(np.abs(self.phi).max())
        return RESIDUAL_RTOL * self.lambda0 * scale + 64 * np.finfo(float).eps * max_rate * scale


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted eigenvalues of -K plus reversibility data and minor information."""

    eigenvalues: np.ndarray
    reversible_measure: np.ndarray | None
    lambda0_prime: float
    minor_spectra: dict | None

    @property
    def lambda0(self) -> float:
        return float(self.eigenvalues[0])


def _as_k_matrix(obj) -> np.ndarray:
    if isinstance(obj, AbsorbingGenerator):
        return obj.k_matrix()
    k = np.asarray(obj, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise InvalidParameter("killed generator must be a square matrix")
    return k


def _is_tridiagonal(k: np.ndarray) -> bool:
    n = k.shape[0]
    if n <= 2:
        return True
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > 1
    return not np.any(k[mask])


def _bd_structure(k: np.ndarray):
    """(b, d) arrays if k is a birth-death matrix killed only from state 1.

    Requires positive first off-diagonals and diagonals carrying no exit mass
    beyond the neighbour rates except at state 1 (whose surplus is the
    absorption rate d_1).  Returns None when the structure does not match,
    e.g. killing at interior states.
    """
    n = k.shape[0]
    if not _is_tridiagonal(k):
        return None
    b = np.diag(k, 1).copy()
    sub = np.diag(k, -1)
    if np.any(b <= 0) or np.any(sub <= 0):
        return None
    d = np.empty(n)
    d[1:] = sub
    d[0] = -k[0, 0] - b[0]
    if d[0] <= 0:
        return None
    expected = d + np.append(b, 0.0)
    if not np.allclose(-np.diag(k), expected, rtol=1e-12, atol=0.0):
        return None
    return b, d


def reversible_measure(gen_or_k):
    """Probability eta with eta(x) K(x,y) = eta(y) K(y,x), or a witness.

    Returns (eta, None) when the killed chain is reversible and
    (None, cycle) otherwise, where cycle is a closed state sequence
    (1-based, first == last) violating the Kolmogorov cycle criterion.
    """
    if isinstance(gen_or_k, AbsorbingGenerator) and gen_or_k.is_birth_death:
        b, d = gen_or_k.birth_death_rates()
        return _bd_eta(b, d), None
    k = _as_k_matrix(gen_or_k)
    n = k.shape[0]
    if n == 1:
        return np.ones(1), None
    off = k - np.diag(np.diag(k))

    # one-way edges break reversibility outright
    bad = np.argwhere((off > 0) & (off.T == 0))
    if bad.size:
        i, j = (int(v) for v in bad[0])
        cycle = _directed_path(off, j, i)
        if cycle is None:
            return None, [i + 1, j + 1]
        return None, [i + 1, j + 1] + [v + 1 for v in cycle[1:]]

    # spanning forest over the (symmetric) support fixes log eta; minors of
    # irreducible chains may be disconnected, hence one root per component
    log_eta = np.full(n, np.nan)
    parent = np.full(n, -1, dtype=int)
    for root in range(n):
        if not np.isnan(log_eta[root]):
            continue
        log_eta[root] = 0.0
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in np.nonzero(off[u] > 0)[0]:
                if np.isnan(log_eta[v]):
                    log_eta[v] = log_eta[u] + math.log(off[u, v]) - math.log(off[v, u])
                    parent[v] = u
                    queue.append(int(v))

    # every non-tree edge must close consistently
    for u in range(n):
        for v in np.nonzero(off[u] > 0)[0]:
            if parent[v] == u or parent[u] == v:
                continue
            resid = log_eta[u] + math.log(off[u, v]) - log_eta[v] - math.log(off[v, u])
            if abs(resid) > 1e-9:
                return None, _tree_cycle(parent, int(u), int(v))
    eta = np.exp(log_eta - log_eta.max())
    return eta / eta.sum(), None


def _directed_path(off, src, dst):
    """Directed positive-rate path src -> dst (0-based), or None."""
    n = off.shape[0]
    prev = np.full(n, -1, dtype=int)
    prev[src] = src
    queue = [src]
    while queue:
        u = queue.pop(0)
        if u == dst:
            break
        for v in np.nonzero(off[u] > 0)[0]:
            if prev[v] == -1:
                prev[v] = u
                queue.append(int(v))
    if prev[dst] == -1 and dst != src:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(int(prev[path[-1]]))
    return path[::-1]


def _bd_eta(b, d) -> np.ndarray:
    """Normalized product weights of a birth-death chain, log-space safe."""
    lp = tridiag.log_pi(b, d)
    eta = np.exp(lp - lp.max())
    return eta / eta.sum()


def _tree_cycle(parent, u, v):
    """Closed cycle through non-tree edge (u,v) and tree paths (1-based)."""
    anc_u = [u]
    while parent[anc_u[-1]] != -1:
        anc_u.append(int(parent[anc_u[-1]]))
    anc_v = [v]
    while parent[anc_v[-1]] != -1:
        anc_v.append(int(parent[anc_v[-1]]))
    common = next(x for x in anc_v if x in set(anc_u))
    up = anc_v[: anc_v.index(common) + 1]          # v .. common
    down = anc_u[: anc_u.index(common) + 1][::-1]  # common .. u
    cycle = [u, v] + up[1:] + down[1:]
    return [x + 1 for x in cycle]


def _sym_neg_k(k: np.ndarray) -> np.ndarray:
    """Symmetric similarity transform of -K for a reversible killed generator.

    Detailed balance gives sqrt(eta_i/eta_j) K_ij = sqrt(K_ij K_ji), so the
    transform has off-diagonal -sqrt(K_ij K_ji) and diagonal -K_ii; entries
    are local and never touch the possibly huge weight ratios.
    """
    s = -np.sqrt(np.maximum(k * k.T, 0.0))
    np.fill_diagonal(s, -np.diag(k))
    return s


def _inverse_iteration(k: np.ndarray):
    """(lam0, phi, residual) by power steps on (-K)^{-1} from the ones vector."""
    n = k.shape[0]
    a = -k
    lu = lu_factor(a)
    v = np.ones(n) / n
    max_rate = float(np.abs(np.diag(k)).max())
    floor = 64 * np.finfo(float).eps * max_rate
    lam = np.nan
    prev_res = np.inf
    for _ in range(MAX_ITERATIONS):
        w = lu_solve(lu, v)
        w /= np.abs(w).max()
        if w[np.argmax(np.abs(w))] < 0:
            w = -w
        av = a @ w
        lam = float(np.dot(w, av) / np.dot(w, w))
        res = float(np.abs(av - lam * w).max())
        v = w
        tol = max(RESIDUAL_TARGET * lam, floor) * float(np.abs(v).max())
        if res <= tol:
            return lam, v, res
        if res >= prev_res * 0.999999 and res <= 100 * floor * float(np.abs(v).max()):
            # stagnated at the machine floor
            return lam, v, res
        prev_res = res
    if res <= RESIDUAL_RTOL * lam * float(np.abs(v).max()) + floor:
        return lam, v, res
    raise NoConvergence(f"inverse iteration exhausted budget; residual {res:.3e}")


def dirichlet_eigenpair(gen_or_k, normalization: str = "first") -> DirichletEigenpair:
    """First Dirichlet eigenpair (lambda0, phi) of the killed generator.

    phi is strictly positive and normalized per `normalization`:
    "first" sets phi(1) = 1, "max" sets max phi = 1, and "qsd" scales so the
    quasi-stationary expectation of phi equals 1.  Deterministic for fixed
    input.
    """
    if normalization not in NORMALIZATIONS:
        raise InvalidParameter(f"normalization must be one of {NORMALIZATIONS}")
    if isinstance(gen_or_k, AbsorbingGenerator) and gen_or_k.is_birth_death:
        bd = gen_or_k.birth_death_rates()
    else:
        k = _as_k_matrix(gen_or_k)
        bd = _bd_structure(k) if k.shape[0] > 1 else None
    if bd is not None:
        # accepted on the certified bracket: a correct pair far below the
        # rates can still exceed the absolute residual floor
        lam0, phi, (lo, hi) = tridiag.ground_pair(*bd)
        res = tridiag.residual_inf(*bd, lam0, phi)
        if hi - lo > RESIDUAL_RTOL * lam0:
            raise NoConvergence(
                f"lambda0 bracket [{lo:.6e}, {hi:.6e}] wider than {RESIDUAL_RTOL:g} relative"
            )
    else:
        max_rate = float(np.abs(np.diag(k)).max())
        if k.shape[0] == 1:
            lam0, phi, res = float(-k[0, 0]), np.ones(1), 0.0
        else:
            eta, _ = reversible_measure(k)
            if eta is not None:
                lam0, phi, res = _reversible_eigenpair(k, eta)
            else:
                lam0, phi, res = _inverse_iteration(k)
        if np.any(phi <= 0):
            raise NoConvergence("eigenvector failed positivity; residual too large")
        pair = DirichletEigenpair(lambda0=lam0, phi=phi, normalization="first", residual=res)
        if res > pair.residual_bound(max_rate):
            raise NoConvergence(
                f"residual {res:.3e} exceeds bound {pair.residual_bound(max_rate):.3e}"
            )
    phi = phi / phi[0]
    if normalization == "max":
        phi = phi / phi.max()
    elif normalization == "qsd":
        nu = quasi_stationary_dist(gen_or_k)
        phi = phi / float(nu @ phi)
    return DirichletEigenpair(lam0, phi, normalization, res)


def _reversible_eigenpair(k: np.ndarray, eta: np.ndarray):
    s = _sym_neg_k(k)
    vals, vecs = eigh(s, subset_by_index=(0, 0))
    u = vecs[:, 0]
    if u[np.argmax(np.abs(u))] < 0:
        u = -u
    phi = u / np.sqrt(eta)
    phi /= np.abs(phi).max()
    lam0 = float(vals[0])
    res = float(np.abs(k @ phi + lam0 * phi).max())
    return lam0, phi, res


def quasi_stationary_dist(gen_or_k) -> np.ndarray:
    """Quasi-stationary distribution: the positive left eigenvector of K.

    Normalized to sum 1.  Reversible inputs use nu = eta * phi; otherwise
    the transpose is solved directly.
    """
    if isinstance(gen_or_k, AbsorbingGenerator) and gen_or_k.is_birth_death:
        b, d = gen_or_k.birth_death_rates()
        eta = _bd_eta(b, d)
        pair = dirichlet_eigenpair(gen_or_k)
        nu = eta * pair.phi
        return nu / nu.sum()
    k = _as_k_matrix(gen_or_k)
    if k.shape[0] == 1:
        return np.ones(1)
    eta, _ = reversible_measure(k)
    if eta is not None:
        pair = dirichlet_eigenpair(k)
        nu = eta * pair.phi
    else:
        _, nu, _ = _inverse_iteration(k.T)
    return nu / nu.sum()


def amplitude(phi) -> float:
    """max(phi) / min(phi) for a positive vector (or eigenpair)."""
    if isinstance(phi, DirichletEigenpair):
        phi = phi.phi
    phi = np.asarray(phi, dtype=float)
    if phi.size == 0 or np.any(phi <= 0) or not np.all(np.isfinite(phi)):
        raise NonPositiveInput("amplitude needs a strictly positive finite vector")
    return float(phi.max() / phi.min())


def lambda0_minor(gen_or_k, x: int) -> float:
    """First Dirichlet eigenvalue after removing state x; +inf if nothing is left.

    The minor of an irreducible chain may be reducible; the first eigenvalue
    is then the smallest over its diagonal blocks, which the dense solver
    (or per-block tridiagonal solve) delivers directly.
    """
    if isinstance(gen_or_k, AbsorbingGenerator) and gen_or_k.is_birth_death:
        b, d = gen_or_k.birth_death_rates()
        return _bd_minor_lambda0(b, d, x)
    k = _as_k_matrix(gen_or_k)
    n = k.shape[0]
    if not 1 <= x <= n:
        raise InvalidParameter(f"state {x} out of range")
    if n == 1:
        return math.inf
    idx = [i for i in range(n) if i != x - 1]
    sub = k[np.ix_(idx, idx)]
    return float(-np.max(np.linalg.eigvals(sub).real))


def _bd_minor_lambda0(b, d, x: int) -> float:
    n = len(d)
    if n == 1:
        return math.inf
    main, off = tridiag.sym_tridiag(b, d)
    vals = []
    if x > 1:  # lower block 1..x-1, upper boundary mass acts as killing
        vals.append(_tridiag_lambda0(main[: x - 1], off[: x - 2]))
    if x < n:  # upper block x+1..n
        vals.append(_tridiag_lambda0(main[x:], off[x:]))
    return min(vals)


def _tridiag_lambda0(main, off) -> float:
    if len(main) == 1:
        return float(main[0])
    return float(eigvalsh_tridiagonal(main, off, select="i", select_range=(0, 0))[0])


def full_spectrum(gen: AbsorbingGenerator, compute_minors: bool = False) -> SpectrumReport:
    """All eigenvalues of -K plus lambda0' and optional single-state minor spectra.

    Reversible generators are symmetrized, so every eigenvalue is real and
    sorted ascending.  A non-reversible generator whose numerically computed
    spectrum is real is reported without eta; complex eigenvalues raise
    NotDiagonalizableDetected.
    """
    if not isinstance(gen, AbsorbingGenerator):
        raise InvalidParameter("full_spectrum needs an AbsorbingGenerator")
    eta, _ = reversible_measure(gen)
    n = gen.n_states
    if gen.is_birth_death:
        b, d = gen.birth_death_rates()
        eigenvalues = np.sort(tridiag.eigenvalues(b, d))
    elif eta is not None:
        eigenvalues = eigh(_sym_neg_k(gen.k_matrix()), eigvals_only=True)
    else:
        vals = np.linalg.eigvals(-gen.k_matrix())
        scale = gen.max_rate
        if np.max(np.abs(vals.imag)) > 1e-9 * scale:
            raise NotDiagonalizableDetected(
                "complex eigenvalues on non-reversible input; "
                "spectral results are restricted to lambda0/phi/nu"
            )
        eigenvalues = np.sort(vals.real)
    lambda0_prime = min(lambda0_minor(gen, x) for x in gen.absorbing_set)
    minor_spectra = None
    if compute_minors:
        minor_spectra = {x: _minor_eigenvalues(gen, x) for x in range(1, n + 1)}
    return SpectrumReport(
        eigenvalues=np.asarray(eigenvalues, dtype=float),
        reversible_measure=eta,
        lambda0_prime=float(lambda0_prime),
        minor_spectra=minor_spectra,
    )


def _minor_eigenvalues(gen: AbsorbingGenerator, x: int) -> np.ndarray:
    if gen.n_states == 1:
        return np.array([])
    sub = generator_minor(gen, {x})
    eta, _ = reversible_measure(sub) if sub.shape[0] > 1 else (np.ones(1), None)
    if eta is not None:
        return np.sort(eigh(_sym_neg_k(sub), eigvals_only=True))
    return np.sort(np.linalg.eigvals(-sub).real)
