"""Dirichlet eigen-analysis of the killed generator.

The killed generator K (surviving-states minor of an absorbing generator) is
an irreducible sub-Markovian matrix, so -K has a simple smallest eigenvalue
lambda0 with a positive eigenvector phi.  This module computes that pair, the
full spectrum in the reversible case, the quasi-stationary distribution (the
matching left eigenvector), single-state minor eigenvalues, and the amplitude
max(phi)/min(phi).

Every entry point takes an AbsorbingGenerator; anything else raises
InvalidParameter.  Every ground pair is accepted on a certified lambda0
bracket, by tridiag's one stop and accept rule: a birth-death chain's
(AbsorbingGenerator.is_birth_death) from the Green-operator routine
tridiag.ground_pair, every other chain's from power steps on an LU
factorization of -K (_perron_pair).  A birth-death chain's QSD is pi * phi;
every other chain's, reversible or not, comes from the same steps on the
transposed solve, on the pair's own factorization when one is in hand.
Only the spectra test reversibility (reversible_measure), where eta is
reported or used: a reversible chain is symmetrized,
S = diag(sqrt eta) (-K) diag(1/sqrt eta), for the dense symmetric solver,
and its single-state minors are submatrices of the same S.  Only full
spectra use the dense non-symmetric solver, minors included unless the
parent's CSR rates, sliced to a minor, show it to be reversible.  Minor
spectra are for display only: lambda0' has one route (_minor_lambda0), and
where it comes from LAPACK, whose error is absolute, it stands only above
its error bound (tridiag.lapack_lambda0).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, eigh, lu_factor
from scipy.linalg.lapack import dgetrs
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from . import tridiag
from .errors import (
    InvalidParameter,
    NoConvergence,
    NonPositiveInput,
    NotDiagonalizableDetected,
)
from .generators import AbsorbingGenerator, _generator, _real_array, _state

NORMALIZATIONS = ("first", "qsd", "max")


@dataclass(frozen=True)
class DirichletEigenpair:
    """First Dirichlet eigenvalue of -K and its positive eigenvector."""

    lambda0: float
    phi: np.ndarray
    normalization: str
    residual: float


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


def reversible_measure(gen: AbsorbingGenerator):
    """Probability eta with eta(x) K(x,y) = eta(y) K(y,x), or a witness.

    Returns (eta, None) when the killed chain is reversible and
    (None, cycle) otherwise, where cycle is a closed state sequence
    (1-based, first == last) violating the Kolmogorov cycle criterion.

    Works on the generator's CSR rates: each edge finds its reverse by a
    sorted-key lookup, log eta is summed down a breadth-first spanning
    forest, and one vectorized test checks detailed balance on every edge.
    """
    _generator(gen, "reversible_measure")
    if gen.is_birth_death:
        return _bd_eta(*gen.birth_death_rates()), None
    return _csr_measure(gen._csr)


def _csr_measure(rates: csr_matrix):
    """reversible_measure on positive off-diagonal rates in canonical CSR
    form (sorted, summed); the support may be disconnected."""
    n = rates.shape[0]
    rows, cols, keys, rev, two_way = _reverse_edges(rates)

    # one-way edges break reversibility outright
    if not two_way.all():
        e = int(np.argmin(two_way))
        i, j = int(rows[e]), int(cols[e])
        path = _directed_path(rates, j, i)
        if path is None:
            return None, [i + 1, j + 1]
        return None, [i + 1, j + 1] + [v + 1 for v in path[1:]]

    # log r_uv - log r_vu on every edge (u, v)
    log_rate = np.log(rates.data)
    log_ratio = log_rate - log_rate[rev]
    parent = _spanning_forest(rates)
    step = np.zeros(n)
    child = np.flatnonzero(parent >= 0)
    step[child] = log_ratio[np.searchsorted(keys, parent[child] * n + child)]
    log_eta = _sum_to_root(parent, step)

    # every edge must close consistently
    resid = log_eta[rows] + log_ratio - log_eta[cols]
    bad = np.abs(resid) > 1e-9
    if bad.any():
        e = int(np.argmax(bad))
        return None, _tree_cycle(parent, int(rows[e]), int(cols[e]))
    eta = np.exp(log_eta - log_eta.max())
    return eta / eta.sum(), None


def _reverse_edges(rates: csr_matrix):
    """(rows, cols, keys, rev, two_way) per edge of canonical CSR rates:
    its row, column and sorted key row * n + col, the index of its reverse
    edge by a sorted-key lookup, and whether that reverse edge exists (rev
    is meaningless where it does not)."""
    n = rates.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(rates.indptr))
    cols = rates.indices.astype(np.int64)
    keys = rows * n + cols  # ascending: a canonical CSR matrix is row-major
    rev_keys = cols * n + rows
    rev = np.minimum(np.searchsorted(keys, rev_keys), len(keys) - 1)
    return rows, cols, keys, rev, keys[rev] == rev_keys


def _spanning_forest(rates: csr_matrix) -> np.ndarray:
    """Parents in a breadth-first spanning forest of the support (-1 at roots).

    Each component is rooted at its lowest state; minors of irreducible
    chains may be disconnected.  An extra vertex adjacent to every root turns
    the forest into one tree, searched by a single call.
    """
    n = rates.shape[0]
    n_comp, labels = connected_components(rates, directed=False)
    roots = np.unique(labels, return_index=True)[1]
    graph = rates.tocoo()
    rows = np.concatenate([graph.row, np.full(n_comp, n)])
    cols = np.concatenate([graph.col, roots])
    tree = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n + 1, n + 1))
    _, pred = breadth_first_order(tree, n, directed=True, return_predecessors=True)
    parent = pred[:n].astype(np.int64)
    parent[parent == n] = -1
    return parent


def _sum_to_root(parent: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Sum of step over each state's path up to its root, by pointer doubling.

    After round r every state holds the sum over its next 2^r ancestors, so
    the loop runs log2 of the forest height times.  Predecessors that loop
    never reach a root and raise NoConvergence.
    """
    n = len(parent)
    root = parent < 0
    anc = np.where(root, np.arange(n), parent)
    acc = np.where(root, 0.0, step)
    for _ in range(n.bit_length() + 1):
        up = anc[anc]
        if (up == anc).all():
            break
        acc, anc = acc + acc[anc], up
    if not root[anc].all():
        raise NoConvergence("predecessor pointers form a loop that reaches no root")
    return acc


def _directed_path(rates: csr_matrix, src, dst):
    """Directed positive-rate path src -> dst (0-based), or None."""
    _, pred = breadth_first_order(rates, src, directed=True, return_predecessors=True)
    if dst != src and pred[dst] < 0:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(int(pred[path[-1]]))
    return path[::-1]


def _bd_eta(b, d) -> np.ndarray:
    """Normalized product weights of a birth-death chain, log-space safe."""
    eta = tridiag.scaled_pi(b, d)
    return eta / eta.sum()


def _tree_cycle(parent, u, v):
    """Closed cycle through non-tree edge (u,v) and tree paths (1-based)."""
    anc_u = [u]
    while parent[anc_u[-1]] != -1:
        anc_u.append(int(parent[anc_u[-1]]))
    anc_v = [v]
    while parent[anc_v[-1]] != -1:
        anc_v.append(int(parent[anc_v[-1]]))
    on_u = set(anc_u)
    common = next(x for x in anc_v if x in on_u)
    up = anc_v[: anc_v.index(common) + 1]          # v .. common
    down = anc_u[: anc_u.index(common) + 1][::-1]  # common .. u
    cycle = [u, v] + up[1:] + down[1:]
    return [x + 1 for x in cycle]


def _sym_neg_k(rates: csr_matrix, exit_rates: np.ndarray) -> np.ndarray:
    """Symmetric similarity transform of -K for a reversible killed generator,
    from its CSR rates (every edge two-way) and its exit rates.

    Detailed balance gives sqrt(eta_i/eta_j) K_ij = sqrt(K_ij K_ji), so the
    transform has off-diagonal -sqrt(K_ij K_ji) (tridiag.neg_sqrt_product),
    one value per edge and its reverse, scattered over the support, and the
    exit rates on the diagonal; entries never touch the possibly huge weight
    ratios.  Every other entry is -0.0, the value -sqrt(0 * 0) takes:
    LAPACK's Householder reflections take their signs from these entries, so
    +0.0 would move eigenvalues by rounding.
    """
    rows, cols, _, rev, _ = _reverse_edges(rates)
    s = np.full(rates.shape, -0.0)
    s[rows, cols] = tridiag.neg_sqrt_product(rates.data, rates.data[rev])
    np.fill_diagonal(s, exit_rates)
    return s


def _sym_eigenvalues(s: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetrized -K by eigh, run on s scaled by
    2^-unit_exponent of its diagonal (the exit rates, which bound every
    entry), so every power-of-two rate scale gives the same bits, scaled."""
    e = tridiag.unit_exponent(np.diagonal(s))
    return np.ldexp(eigh(np.ldexp(s, -e), eigvals_only=True), e)


@np.errstate(divide="ignore", invalid="ignore")  # f / g of a singular LU fails below
def _perron_pair(a: np.ndarray, trans: int = 0, start=None):
    """(lambda0, f, factor) of a = -K, K an irreducible killed generator, by
    power steps on (a - s I)^-1 from the ones vector ((a - s I)^-T with
    trans=1, for the left vector).

    For a shift s below lambda0, (a - s I)^-1 is entrywise positive, so each
    step f -> g gives the Collatz-Wielandt bracket
    s + min f/g <= lambda0 <= s + max f/g.  The steps start at s = 0, or on
    start, the factor = (LU, s) returned by an earlier call on the same a.  A
    step that narrows the bracket slowly (tridiag.narrowing_slowly) moves s
    to one bracket width below its lower end, where the steps narrow by
    (lambda0 - s)/|lambda1 - s| however close lambda1 is.
    Each shift's steps stop by tridiag.bracket_settled, all of them after
    tridiag.MAX_POWER_STEPS, and the pair (the midpoint, the last step scaled
    to max 1) is accepted on the bracket by tridiag._check_bracket, as
    tridiag.ground_pair's pairs are.  These steps give the ground pair and the
    QSD of every chain that is not birth-death, reversible or not: the
    bracket vouches for each pair it accepts, where a symmetric solver's
    lambda0 carries an error of order eps times the largest rate.  A step
    that is not positive and finite, as from a singular LU, raises
    NoConvergence.
    """
    lu, shift = start or (None, 0.0)
    f, width = np.ones(len(a)), math.inf
    for _ in range(tridiag.MAX_POWER_STEPS):
        if lu is None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LinAlgWarning)  # a singular LU fails below
                lu = lu_factor(a - shift * np.eye(len(a)) if shift else a)
        # LAPACK's solve directly: lu_solve's checks cost more than the solve
        g = dgetrs(*lu, f, trans=trans)[0]
        ratio = f / g
        lo, hi = float(ratio.min()), float(ratio.max())
        if not 0 < lo <= hi < math.inf:
            raise NoConvergence("power step not positive and finite: -K is numerically singular")
        lo, hi = shift + lo, shift + hi
        f = g / g.max()
        step_width = (hi - lo) / lo
        if tridiag.bracket_settled(step_width, width):
            break
        if tridiag.narrowing_slowly(step_width, width) and 2 * lo - hi > shift:
            lu, shift, step_width = None, 2 * lo - hi, math.inf
        width = step_width
    lam0 = (lo + hi) / 2
    tridiag._check_bracket(lo, hi, lam0)
    return lam0, f, (lu, shift)


def dirichlet_eigenpair(gen: AbsorbingGenerator, normalization: str = "first") -> DirichletEigenpair:
    """First Dirichlet eigenpair (lambda0, phi) of the killed generator.

    phi is strictly positive and normalized per `normalization`:
    "first" sets phi(1) = 1, "max" sets max phi = 1, and "qsd" scales so the
    quasi-stationary expectation of phi equals 1.  The residual is
    max |K phi + lambda0 phi| with phi(1) = 1, whatever the normalization,
    from the CSR rates and the diagonal.  Deterministic for fixed input.
    """
    if normalization not in NORMALIZATIONS:
        raise InvalidParameter(f"normalization must be one of {NORMALIZATIONS}")
    _generator(gen, "dirichlet_eigenpair")
    factor = None
    if gen.is_birth_death:
        lam0, phi, _ = tridiag.ground_pair(*gen.birth_death_rates())
    else:
        lam0, phi, factor = _perron_pair(-gen.k_matrix())
    phi = phi / phi[0]
    res = float(np.abs(gen._csr @ phi + gen.diagonal * phi + lam0 * phi).max())
    if normalization == "max":
        phi = phi / phi.max()
    elif normalization == "qsd":
        phi = phi / float(_qsd(gen, phi, factor) @ phi)
    return DirichletEigenpair(lam0, phi, normalization, res)


def quasi_stationary_dist(gen: AbsorbingGenerator) -> np.ndarray:
    """Quasi-stationary distribution: the positive left eigenvector of K.

    Normalized to sum 1.  A birth-death chain's is pi * phi; every other
    chain's comes from the transposed solve, with no right pair.
    """
    _generator(gen, "quasi_stationary_dist")
    phi = tridiag.ground_pair(*gen.birth_death_rates())[1] if gen.is_birth_death else None
    return _qsd(gen, phi)


def _qsd(gen: AbsorbingGenerator, phi, factor=None) -> np.ndarray:
    """Quasi-stationary distribution of gen: pi * phi normalized for a
    birth-death chain; otherwise phi is unused and the power steps run on
    the transposed solve, on the pair's last LU factor when one is passed."""
    if gen.is_birth_death:
        # phi scaled as dirichlet_eigenpair reports it
        nu = _bd_eta(*gen.birth_death_rates()) * (phi / phi[0])
    else:
        nu = _perron_pair(-gen.k_matrix(), 1, factor)[1]
    return nu / nu.sum()


def amplitude(phi) -> float:
    """max(phi) / min(phi) for a positive vector (or eigenpair)."""
    if isinstance(phi, DirichletEigenpair):
        phi = phi.phi
    phi = _real_array(phi, "amplitude needs a vector of finite numbers")
    if phi.size == 0 or np.any(phi <= 0):
        raise NonPositiveInput("amplitude needs a strictly positive finite vector")
    return float(phi.max() / phi.min())


def _drop_state(a: np.ndarray, x: int) -> np.ndarray:
    """a without row and column x (1-based)."""
    keep = np.delete(np.arange(a.shape[0]), x - 1)
    return a[np.ix_(keep, keep)]


def _minor_rates(gen: AbsorbingGenerator, x: int):
    """The generator's CSR rates without row and column x (1-based), a
    canonical CSR slice with the states after x numbered down by one."""
    keep = np.delete(np.arange(gen.n_states), x - 1)
    return gen._csr[keep][:, keep]


def _minor_lambda0(gen: AbsorbingGenerator, k: np.ndarray | None, x: int,
                   s: np.ndarray | None) -> float:
    """First eigenvalue of -K with state x removed, the one route to lambda0'.

    A birth-death chain goes to _bd_minor_lambda0.  With the symmetrization
    s of a reversible K, the minor is the submatrix of s (reversible for eta
    restricted to it) and goes to tridiag.lapack_lambda0.  Without s, the
    minor is block-triangular over its strongly connected blocks, each one
    irreducible, so its lambda0 is the least of the blocks' power steps.
    """
    if gen.is_birth_death:
        return _bd_minor_lambda0(*gen.birth_death_rates(), x)
    if s is not None:
        return tridiag.lapack_lambda0(_drop_state(s, x))
    a = -_drop_state(k, x)
    n_blocks, labels = connected_components(_minor_rates(gen, x), directed=True,
                                            connection="strong")
    blocks = (np.flatnonzero(labels == c) for c in range(n_blocks))
    return min(_perron_pair(a[np.ix_(idx, idx)])[0] for idx in blocks)


def lambda0_minor(gen: AbsorbingGenerator, x: int) -> float:
    """First Dirichlet eigenvalue after removing state x; +inf if nothing is left.

    The minor of an irreducible chain may be reducible; the first eigenvalue
    is then the smallest over its diagonal blocks.  full_spectrum's lambda0'
    takes the same route (_minor_lambda0); a LAPACK value not above its
    error bound raises NoConvergence.
    """
    _generator(gen, "lambda0_minor")
    x = _state(gen, x)
    _, k, s = _reversible_form(gen)
    return _minor_lambda0(gen, k, x, s)


def _reversible_form(gen: AbsorbingGenerator):
    """(eta, k, s): the measure eta and, unless birth-death, symmetrization s
    of a reversible chain, or the dense k of any other; the rest are None."""
    eta, _ = reversible_measure(gen)
    if eta is None:
        return None, gen.k_matrix(), None
    return eta, None, None if gen.is_birth_death else _sym_neg_k(gen._csr, -gen.diagonal)


def _bd_minor_lambda0(b, d, x: int) -> float:
    """lambda0 of a birth-death chain without state x, the least over its blocks.

    The upper block x+1..n is a birth-death chain killed from its first
    state, so tridiag.ground_pair gives its lambda0 with relative accuracy.
    The lower block 1..x-1, killed at both ends, and an upper block whose
    pair raises NoConvergence (phi outside the double range, or a bracket
    that does not settle) go to tridiag.lapack_lambda0.
    """
    vals = [math.inf]  # nothing is left of a one-state chain
    if x > 1:  # lower block 1..x-1, the up-rate to x acts as killing
        main, off = tridiag.sym_tridiag(b[: x - 1], d[:x])
        vals.append(tridiag.lapack_lambda0(main[: x - 1], off[: x - 2]))
    if x < len(d):  # upper block x+1..n
        try:
            vals.append(tridiag.ground_pair(b[x:], d[x:])[0])
        except NoConvergence:
            vals.append(tridiag.lapack_lambda0(*tridiag.sym_tridiag(b[x:], d[x:])))
    return min(vals)


def full_spectrum(gen: AbsorbingGenerator, compute_minors: bool = False) -> SpectrumReport:
    """All eigenvalues of -K plus lambda0' and optional single-state minor spectra.

    Reversible generators are symmetrized once, so every eigenvalue is real
    and sorted ascending, and every minor is a submatrix of the same
    symmetric matrix.  A non-reversible generator whose numerically computed
    spectrum is real is reported without eta; complex eigenvalues raise
    NotDiagonalizableDetected.  lambda0' is the least lambda0_minor over the
    absorbing states, by the same route with or without compute_minors,
    which only adds the minor spectra to the report for display.
    """
    _generator(gen, "full_spectrum")
    eta, k, s = _reversible_form(gen)
    if gen.is_birth_death:
        eigenvalues = np.sort(tridiag.eigenvalues(*gen.birth_death_rates()))
    elif s is not None:
        eigenvalues = _sym_eigenvalues(s)
    else:
        vals = np.linalg.eigvals(-k)
        if np.max(np.abs(vals.imag)) > 1e-9 * gen.max_rate:
            raise NotDiagonalizableDetected(
                "complex eigenvalues on non-reversible input; "
                "spectral results are restricted to lambda0/phi/nu"
            )
        eigenvalues = np.sort(vals.real)
    lambda0_prime = min(_minor_lambda0(gen, k, x, s) for x in gen.absorbing_set)
    minor_spectra = None
    if compute_minors:
        if gen.is_birth_death:  # S is needed only here
            s = _sym_neg_k(gen._csr, -gen.diagonal)
        minor_spectra = {x: _minor_eigenvalues(gen, k, x, s) for x in range(1, gen.n_states + 1)}
    return SpectrumReport(eigenvalues, eta, float(lambda0_prime), minor_spectra)


def _minor_eigenvalues(gen: AbsorbingGenerator, k: np.ndarray | None, x: int,
                       s: np.ndarray | None) -> np.ndarray:
    """Ascending spectrum of -K with state x removed.

    A reversible K passes its symmetrization s; otherwise the minor itself
    is tested for reversibility on the parent's CSR rates without row and
    column x, since removing a state can leave a reversible chain, and only
    a minor that is not reversible reads the dense k.
    """
    if gen.n_states == 1:
        return np.array([])
    if s is not None:
        return _sym_eigenvalues(_drop_state(s, x))
    rates = _minor_rates(gen, x)
    if _csr_measure(rates)[0] is None:
        return np.sort(np.linalg.eigvals(-_drop_state(k, x)).real)
    return _sym_eigenvalues(_sym_neg_k(rates, np.delete(-gen.diagonal, x - 1)))
