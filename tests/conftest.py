import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from qsamp import build_general, build_graph_walk, build_rho_chain, tridiag
from qsamp.bd_infinite import RateFamily


@pytest.fixture
def golden():
    """Two-state chain with unit rates everywhere; its eigenvector ratio is
    the golden ratio (root of the 2x2 characteristic polynomial)."""
    return build_general(2, [(1, 2, 1.0), (2, 1, 1.0)], {1: 1.0})


@pytest.fixture
def rho1_chain10():
    return build_rho_chain(10, 1.0)


def pivot_digits_lost(b, d) -> int:
    """Decimal digits that cancellation costs the standard LDL' pivots
    q_x = b_x + d_x - lam - b_{x-1} d_x / q_{x-1} of the killed generator.

    At lam = 0 the pivots are q_x = b_x + s_x (q_n = s_n) with the
    subtraction-free s_x = 1 / (pi_x sum_{z<=x} (pi_z d_z)^-1), and s_x is
    the part that carries lambda0.  The recursion forms each pivot as a
    difference of terms of size b_x + d_x, so s_x keeps about dps minus
    log10((b_x + d_x) / s_x) digits, and so does a Sturm count near lambda0.
    """
    lp = tridiag.log_pi(b, d)
    log_s = -lp - np.logaddexp.accumulate(-lp - np.log(d))
    lost = np.log(d + np.append(b, 0.0)) - log_s
    return max(0, int(np.ceil(lost.max() / np.log(10))))


def count_bisections(monkeypatch):
    """Spy on tridiag.bisected_eigenvalues (bisection on the Sturm count);
    returns the list of argument tuples its calls append to."""
    calls = []
    bisect = tridiag.bisected_eigenvalues
    monkeypatch.setattr(tridiag, "bisected_eigenvalues", lambda *a: calls.append(a) or bisect(*a))
    return calls


def sym_tridiag(b, d):
    """Main and off diagonals of the symmetric tridiagonal matrix similar to
    the killed generator's -K: b_x + d_x (b_n = 0) and -sqrt(b_x d_{x+1})."""
    return d + np.append(b, 0.0), -np.sqrt(b * d[1:])


def lapack_eigenvalues(b, d, lo=0, hi=None):
    """Eigenvalues lo..hi (inclusive; all by default) of -K, ascending, by
    LAPACK on the symmetrized tridiagonal: a reference independent of
    tridiag's own routes, accurate to about n eps times the largest rate."""
    main, off = sym_tridiag(b, d)
    if len(d) == 1:
        return main
    subset = {} if hi is None else {"select": "i", "select_range": (lo, hi)}
    return eigvalsh_tridiagonal(main, off, **subset)


def cold_higher_eigenvalues(b, d, k):
    """lambda_1..lambda_k by the cold route alone, as a reference for the
    warm ones: LAPACK's bisection, then three solves from the ones vector at
    each estimate and the Rayleigh quotient, with no guesses, re-shifts,
    carried vectors or half-size ladder."""
    if k == 0:
        return np.zeros(0)
    w, diag = tridiag.pi_weights(tridiag.log_pi(b, d)), d + np.append(b, 0.0)
    return np.array([
        tridiag.rayleigh_quotient(b, d, tridiag._shifted_solves(b, d, diag, lam * (1 - 1e-8), None), w)
        for lam in lapack_eigenvalues(b, d, 1, k)
    ])


def log_accelerated_family(q):
    """b_x = ln^q(e+x), d_x = x ln^q(e-1+x): Poisson(1) weights, and an
    entrance boundary at infinity for every q > 1."""
    return RateFamily(lambda x: np.log(np.e + np.asarray(x, dtype=float)) ** q,
                      lambda x: np.asarray(x, dtype=float) * np.log(np.e - 1.0 + np.asarray(x, dtype=float)) ** q,
                      name=f"log-accelerated q={q}")


def grid_walk(rows, cols):
    """Unit-rate nearest-neighbour walk on a rows x cols grid, absorbed from state 1."""
    edges = []
    for s in range(1, rows * cols + 1):
        if s % cols:
            edges += [(s, s + 1), (s + 1, s)]
        if s + cols <= rows * cols:
            edges += [(s, s + cols), (s + cols, s)]
    return build_graph_walk(edges, [1])


def random_reversible_generator(rng, n_max=12):
    """Random reversible absorbing generator: a connected conductance graph
    gives detailed balance by construction, plus a random absorption set."""
    n = int(rng.integers(2, n_max + 1))
    eta = np.exp(rng.uniform(-1.5, 1.5, n))
    edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]  # random tree
    extra = rng.integers(0, n, size=(n, 2))
    edges += [(int(a), int(b)) for a, b in extra if a != b]
    transitions = []
    seen = set()
    for a, b in edges:
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        c = np.exp(rng.uniform(-1.0, 1.0))
        transitions.append((a + 1, b + 1, c / eta[a]))
        transitions.append((b + 1, a + 1, c / eta[b]))
    n_abs = int(rng.integers(1, n + 1))
    states = rng.choice(n, size=n_abs, replace=False)
    absorption = {int(s) + 1: float(np.exp(rng.uniform(-1.0, 1.0))) for s in states}
    return build_general(n, transitions, absorption)


def random_drifted_reversible_generator(rng):
    """Reversible chain drifting away from its only absorbing state.

    Weights eta = exp(cumsum(uniform(0, 1, n))) for n in 20..79; path edges
    i <-> i+1, then n//4 chord draws, each kept when it skips a state and
    is new.  Every edge has its own conductance c = exp(uniform(-1, 1)) and
    the rates c/eta[i] and c/eta[j], so detailed balance holds for eta.
    State 1 is absorbed at 1/eta[0], and lambda0 sits many orders of
    magnitude below the rates.
    """
    n = int(rng.integers(20, 80))
    eta = np.exp(np.cumsum(rng.uniform(0, 1, n)))
    edges = {(i, i + 1): np.exp(rng.uniform(-1, 1)) for i in range(n - 1)}
    for _ in range(n // 4):
        a, b = sorted(int(v) for v in rng.integers(0, n, 2))
        if b - a > 1 and (a, b) not in edges:
            edges[(a, b)] = np.exp(rng.uniform(-1, 1))
    transitions = [t for (a, b), c in edges.items()
                   for t in ((a + 1, b + 1, c / eta[a]), (b + 1, a + 1, c / eta[b]))]
    return build_general(n, transitions, {1: 1 / eta[0]})


def random_cycle_with_chords(rng, n_max=40, absorption_range=(0.1, 1.0)):
    """Non-reversible chain: a directed n-cycle plus about n/2 random chords,
    rates log-uniform in [0.5, 2], absorption at one to three states with
    rates log-uniform in absorption_range."""
    n = int(rng.integers(2, n_max + 1))
    rates = {(i, i % n + 1): float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
             for i in range(1, n + 1)}
    for _ in range(n // 2):
        a, b = (int(v) for v in rng.integers(1, n + 1, 2))
        if a != b:
            rates[(a, b)] = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
    states = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, min(n, 3) + 1)), replace=False)
    low, high = np.log(absorption_range)
    absorption = {int(s): float(np.exp(rng.uniform(low, high))) for s in states}
    return build_general(n, [(a, b, r) for (a, b), r in rates.items()], absorption)


def random_birth_death(rng, n_max=200, low=0.1, high=10.0):
    n = int(rng.integers(2, n_max + 1))
    b = np.exp(rng.uniform(np.log(low), np.log(high), n - 1))
    d = np.exp(rng.uniform(np.log(low), np.log(high), n))
    return b, d
