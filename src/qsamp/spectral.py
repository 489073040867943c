"""Dirichlet eigen-analysis of the killed generator.

The killed generator K (surviving-states minor of an absorbing generator) is
an irreducible sub-Markovian matrix, so -K has a simple smallest eigenvalue
lambda0 with a positive eigenvector phi.  This module computes that pair, the
full spectrum in the reversible case, the quasi-stationary distribution (the
matching left eigenvector), single-state minor eigenvalues, and the amplitude
max(phi)/min(phi).

Every entry point takes an AbsorbingGenerator; anything else raises
InvalidParameter.  Every ground pair comes with a certified lambda0
bracket from tridiag.perron_steps: a birth-death chain's
(AbsorbingGenerator.is_birth_death) on the Green operator
(tridiag.ground_pair), every other chain's on LAPACK's banded LU
(_perron_pair).  The band holds -K, transposed, in the reverse
Cuthill-McKee order that the generator computes once
(AbsorbingGenerator._band_order), scattered straight from the CSR rates
and the exit rates (_band); no Perron route forms a dense -K.  A shift is
taken off the band's diagonal row.  The band is narrow on grid walks,
conductance graphs and cycles with chords; on a complete graph it is
full, where the pair costs about twice what a dense LU would, and the order
as much again.  A birth-death chain's QSD is pi * phi; every other
chain's, reversible or not, comes from the same steps on the transposed
solve, on the pair's own factorization when one is in hand.
Only full_spectrum tests reversibility (reversible_measure).  Full spectra
are for reversible chains only, as the paper's spectral route is: a
birth-death chain's comes from its rates by dqds (tridiag.spectrum), with
relative accuracy, and any other reversible chain is symmetrized,
S = diag(sqrt eta) (-K) diag(1/sqrt eta), for the dense symmetric solver;
single-state minor spectra, for display only, are submatrices of S.
lambda0' has one route (_minor_lambda0), for any chain: a birth-death
minor's blocks go to tridiag, and every other minor gets _perron_pair on
each strongly connected block, banded in the chain's own order without the
removed state.  With several exits, full_spectrum runs those steps only
on the exits that the secular equation on one eigendecomposition of S
cannot rule out, and reports that decomposition's eigenvalues
(_exit_candidates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from . import tridiag
from .errors import InvalidParameter, NoConvergence, NonPositiveInput, NotReversible
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
    reversible_measure: np.ndarray
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
    tree, and one vectorized test checks detailed balance on every edge.
    """
    _generator(gen, "reversible_measure")
    if gen.is_birth_death:
        return _bd_eta(*gen.birth_death_rates()), None
    return _csr_measure(gen._csr)


def _csr_measure(rates: csr_matrix):
    """reversible_measure on positive off-diagonal rates in canonical CSR
    form (sorted, summed) whose support is connected, as an irreducible
    chain's is."""
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
    # parents in a breadth-first spanning tree rooted at state 0
    _, pred = breadth_first_order(rates, 0, directed=True, return_predecessors=True)
    parent = pred.astype(np.int64)
    parent[0] = -1
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


def _sum_to_root(parent: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Sum of step over each state's path up to its root, by pointer doubling.

    After round r every state holds the sum over its next 2^r ancestors, so
    the loop runs log2 of the tree height times.  Predecessors that loop
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


def _band(gen: AbsorbingGenerator, states: np.ndarray):
    """(ab, kl, ku): the transpose of -K restricted to states (0-based, in
    the order given), in LAPACK's band storage for dgbtrf.

    A(i, j) sits at ab[kl + ku + i - j, j], with kl subdiagonals and ku
    superdiagonals and kl more rows for the fill of row pivoting.  The
    entries are scattered straight from the CSR rates: -rate at (j, i) for
    each edge i -> j inside states, and the exit rates on the diagonal row.
    A rate to a state outside states counts as killing, as it does in a
    minor.  Why the transpose: a state's exit rate is at least the sum of
    its rates out, so each column's diagonal entry dominates the column,
    and every Schur complement keeps that.  Partial pivoting then keeps to
    the diagonal (short of ties, or a shift above some killing rate), and
    the LU is Gaussian elimination without pivoting on the M-matrix -K.
    Row swaps on -K itself, whose columns need not be dominated by their
    diagonal, lost 1e-7 relative of a lambda0' 18 orders below the rates.
    """
    rows, cols, rates = gen._coo
    pos = np.full(gen.n_states, -1)
    pos[states] = np.arange(len(states))
    i, j = pos[cols], pos[rows]
    inside = (i >= 0) & (j >= 0)
    i, j, rates = i[inside], j[inside], rates[inside]
    d = i - j
    kl, ku = int(d.max(initial=0)), -int(d.min(initial=0))
    ab = np.zeros((2 * kl + ku + 1, len(states)), order="F")
    ab[kl + ku + d, j] = -rates
    ab[kl + ku] = -gen.diagonal[states]
    return ab, kl, ku


def _perron_pair(band, trans: int = 0, start=None):
    """(lambda0, f, factor) of a = -K, K an irreducible killed generator
    whose transpose is given as a band (_band), by tridiag.perron_steps on
    (a - s I)^-1 from the ones vector ((a - s I)^-T with trans=1, for the
    left vector); f is the last step scaled to max 1, in the band's order.

    (a - s I)^T gets LAPACK's banded LU (dgbtrf), and each step one banded
    solve (dgbtrs), at O(n b^2) and O(n b) for a band of width b where a
    dense LU costs O(n^3).  In the reverse Cuthill-McKee order of
    AbsorbingGenerator._band_order, the benchmark's grid walks have b of 6
    to 24, its conductance graphs 7 to 33 and its cycles with chords 9 to
    62.  On a complete graph the band is full, and the pair costs about
    twice what a dense LU would (1.5 against 0.8 ms at n = 200), plus the
    order, once per generator (1.3 ms there).
    The steps start at s = 0, or on start, the factor = (LU, s) returned by
    an earlier call on the same a.  A slow step moves s to one bracket width
    below the bracket's lower end, 2 lo - hi, where the steps narrow by
    (lambda0 - s)/|lambda1 - s| however close lambda1 is, and refactors;
    s is taken off the band's diagonal row.  These steps give the ground
    pair, the QSD and lambda0' of every chain that is not birth-death,
    reversible or not: the bracket vouches for each pair it accepts, where
    a symmetric solver's lambda0 carries an error of order eps times the
    largest rate.  An exactly singular pivot raises NoConvergence.
    """
    ab, kl, ku = band

    def factored(shift):
        shifted = ab.copy(order="F")
        shifted[kl + ku] -= shift
        *lu, info = dgbtrf(shifted, kl, ku, overwrite_ab=1)
        if info > 0:
            raise NoConvergence(f"-K is numerically singular: pivot {info} of its LU is zero")
        return lu, shift

    factor = start or factored(0.0)

    def solve(f):
        (lu, piv), _ = factor
        # the factor is of a^T: the right vector takes the transposed solve
        return dgbtrs(lu, kl, ku, f, piv, trans=1 - trans)[0]

    def reshift(lo, hi, g):
        nonlocal factor
        if 2 * lo - hi <= factor[1]:
            return None
        factor = factored(2 * lo - hi)
        return solve, factor[1], g

    lam0, f, _ = tridiag.perron_steps(solve, np.ones(ab.shape[1]), reshift, factor[1])
    return lam0, f / f.max(), factor


def _ground_vector(gen: AbsorbingGenerator, trans: int = 0, start=None):
    """(lambda0, v, factor) of a chain that is not birth-death by
    _perron_pair on its band in gen._band_order: v is the right ground
    vector, or the left one with trans=1, in state order."""
    order = gen._band_order
    lam0, f, factor = _perron_pair(_band(gen, order), trans, start)
    v = np.empty_like(f)
    v[order] = f
    return lam0, v, factor


def dirichlet_eigenpair(gen: AbsorbingGenerator, normalization: str = "first") -> DirichletEigenpair:
    """First Dirichlet eigenpair (lambda0, phi) of the killed generator.

    phi is strictly positive and normalized per `normalization`:
    "first" sets phi(1) = 1, "max" sets max phi = 1, and "qsd" scales so the
    quasi-stationary expectation of phi equals 1.  The residual is
    max |K phi + lambda0 phi| with phi(1) = 1, whatever the normalization,
    from the CSR rates and the diagonal, formed on phi scaled by a power of
    two so that it is finite at every rate scale.  Deterministic for fixed
    input.
    """
    if normalization not in NORMALIZATIONS:
        raise InvalidParameter(f"normalization must be one of {NORMALIZATIONS}")
    _generator(gen, "dirichlet_eigenpair")
    factor = None
    if gen.is_birth_death:
        lam0, phi, _ = tridiag.ground_pair(*gen.birth_death_rates())
    else:
        lam0, phi, factor = _ground_vector(gen)
    phi = phi / phi[0]
    # scaled by 2^-e, no term overflows, and the scaling back is exact
    e = tridiag.unit_exponent(phi) + tridiag.unit_exponent(gen.diagonal)
    unit = np.ldexp(phi, -e)
    res = math.ldexp(float(np.abs(gen._csr @ unit + gen.diagonal * unit + lam0 * unit).max()), e)
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
        nu = _ground_vector(gen, 1, factor)[1]
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


def _minor_lambda0(gen: AbsorbingGenerator, x: int) -> float:
    """First eigenvalue of -K with state x removed, the one route to lambda0'.

    A birth-death chain goes to _bd_minor_lambda0.  Any other minor,
    reversible or not, is block-triangular over its strongly connected
    blocks (found on _minor_rates), each one irreducible, so its lambda0 is
    the least of the blocks' certified power steps (_perron_pair).  Each
    block's band is the chain's reverse Cuthill-McKee order with x dropped
    and the other blocks' states left out, scattered from the chain's CSR
    rates (_band), with the rates to x and to other blocks as killing.
    Dropping states from an order never widens its band, so a block's
    banded LU costs at most what the chain's does; shifts come off the
    band's diagonal row, and on a complete graph the band is full.
    """
    if gen.is_birth_death:
        return _bd_minor_lambda0(*gen.birth_death_rates(), x)
    n_blocks, labels = connected_components(_minor_rates(gen, x), directed=True, connection="strong")
    order = gen._band_order[gen._band_order != x - 1]
    block = labels[order - (order >= x)]  # labels are indexed by the minor's states
    return min(_perron_pair(_band(gen, order[block == c]))[0] for c in range(n_blocks))


def _minor_rates(gen: AbsorbingGenerator, x: int) -> csr_matrix:
    """The CSR rates without state x (1-based), built from the sorted edges
    of gen._coo: the arrays gen._csr[keep][:, keep] gives, without scipy's
    two fancy-indexing passes."""
    rows, cols, vals = gen._coo
    keep = (rows != x - 1) & (cols != x - 1)
    rows, cols = rows[keep], cols[keep]
    rows, cols = rows - (rows >= x), cols - (cols >= x)
    n = gen.n_states - 1
    return csr_matrix((vals[keep], cols, np.searchsorted(rows, np.arange(n + 1))), shape=(n, n))


def lambda0_minor(gen: AbsorbingGenerator, x: int) -> float:
    """First Dirichlet eigenvalue after removing state x; +inf if nothing is left.

    Any chain, reversible or not, by one route (_minor_lambda0), which
    full_spectrum's lambda0' takes too.  The minor of an irreducible chain
    may be reducible; the first eigenvalue is then the smallest over its
    diagonal blocks.
    """
    _generator(gen, "lambda0_minor")
    return _minor_lambda0(gen, _state(gen, x))


def _bd_minor_lambda0(b, d, x: int) -> float:
    """lambda0 of a birth-death chain without state x, the least over its blocks.

    The lower block 1..x-1 is killed at both ends, by d_1 and by the up-rate
    b_{x-1} to x, and the upper block x+1..n from its first state.  Each
    block's lambda0 is the lower end of the adjacent doubles that the Sturm
    count of its subtraction-free factorization certifies
    (tridiag.bisected_lambda0), relatively accurate however far below its
    rates it sits; one below the double range raises NoConvergence.
    """
    blocks = [(b[: x - 1], d[: x - 1]), (b[x:], d[x:])]
    # nothing is left of a one-state chain
    return min((tridiag.bisected_lambda0(*block) for block in blocks if len(block[1])),
               default=math.inf)


def _exit_candidates(s: np.ndarray, exits: tuple):
    """(eigenvalues, candidates): the ascending eigenvalues of the
    symmetrized -K s, and the exits whose minor may attain lambda0', both
    from one eigendecomposition.

    With s = U diag(lam) U^T, the (x, x) entry of (s - mu)^-1 is
    det(s_x - mu) / det(s - mu) = sum_k U(x,k)^2 / (lam_k - mu) (the secular
    equation; Golub, SIAM Review 1973; Bunch, Nielsen & Sorensen, Numer.
    Math. 1978), increasing in mu between its poles.  So the least
    eigenvalue of the minor s_x is its root in [lam_0, lam_1] (Cauchy
    interlacing), bisected for every exit at once on eigh(s 2^-e) with
    vectors.  That decomposition is exact for s plus a perturbation within
    the Weyl margin w = n eps times the largest absolute row sum, so each
    root lies within w of its minor's lambda0, and the certified value of
    _minor_lambda0 lies within RESIDUAL_RTOL of the same lambda0,
    relatively.  An exit stays a candidate while the lower end of its
    root's bracket is within 2 (w + RESIDUAL_RTOL |lower end|) of the least
    upper end.  The others drop out as the brackets narrow, until one exit
    is left or every bracket is at most w wide.  Each error in this rule
    only adds candidates, so the least certified value over the candidates
    is the least over all exits.  One exit is its own candidate, with the
    eigenvalues alone (_sym_eigenvalues); with several, the eigenvalues are
    those of the decomposition with vectors, scaled back.
    """
    if len(exits) == 1:
        return _sym_eigenvalues(s), list(exits)
    e = tridiag.unit_exponent(np.diagonal(s))
    a = np.ldexp(s, -e)
    lam, u = eigh(a, driver="evd")
    w = len(a) * np.finfo(float).eps * float(np.abs(a).sum(axis=1).max())
    idx = np.asarray(exits) - 1
    weights = u[idx] ** 2
    lo, hi = np.full(len(idx), lam[0]), np.full(len(idx), lam[1])
    while True:
        least = hi.min()
        alive = lo - least <= 2 * (w + tridiag.RESIDUAL_RTOL * np.abs(lo))
        idx, weights, lo, hi = idx[alive], weights[alive], lo[alive], hi[alive]
        if len(idx) == 1 or (hi - lo).max() <= w:
            return np.ldexp(lam, e), (idx + 1).tolist()
        mid = (lo + hi) / 2  # strictly inside: a width above w spans many ulps
        below = (weights / (lam - mid[:, None])).sum(axis=1) < 0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)


def full_spectrum(gen: AbsorbingGenerator, compute_minors: bool = False) -> SpectrumReport:
    """All eigenvalues of a reversible -K plus lambda0' and optional
    single-state minor spectra.

    A chain that is not reversible raises NotReversible before any matrix is
    built.  Every eigenvalue is real and sorted ascending.  A birth-death
    chain's come from dqds on the bidiagonal factor of its rates
    (tridiag.spectrum), each with relative accuracy however far below the
    rates it sits; any other reversible chain is symmetrized once and solved
    by one eigh, with vectors where it has several exits, whose error is of
    order eps times the largest rate.  Every
    minor is a submatrix of the same symmetric matrix.  lambda0' is the
    least certified lambda0_minor over the absorbing states (_minor_lambda0).
    For a chain that is not birth-death it runs only on the exits the
    secular equation cannot rule out (_exit_candidates), and gives the same
    value bit for bit.  It does not depend on compute_minors, which only
    adds the minor spectra (eigh of each submatrix) to the report for
    display.
    """
    _generator(gen, "full_spectrum")
    eta, witness = reversible_measure(gen)
    if eta is None:
        raise NotReversible(f"full spectra need a reversible chain; the cycle {witness} "
                            "breaks detailed balance (lambda0_minor gives lambda0' of any chain)")
    exits = gen.absorbing_set
    if gen.is_birth_death:
        eigenvalues, s = tridiag.spectrum(*gen.birth_death_rates()), None
    else:
        s = _sym_neg_k(gen._csr, -gen.diagonal)
        eigenvalues, exits = _exit_candidates(s, exits)
    lambda0_prime = min(_minor_lambda0(gen, x) for x in exits)
    minor_spectra = None
    if compute_minors:
        if s is None:  # a birth-death chain's S is needed only here
            s = _sym_neg_k(gen._csr, -gen.diagonal)
        minor_spectra = {x: _sym_eigenvalues(_drop_state(s, x)) if gen.n_states > 1 else np.array([])
                         for x in range(1, gen.n_states + 1)}
    return SpectrumReport(eigenvalues, eta, float(lambda0_prime), minor_spectra)
