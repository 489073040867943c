"""Reference computations and predicates for the benchmark's output checks.

Nothing here calls qsamp.  Every reference is computed from rate data the
benchmark generated itself: dense numpy/scipy solves on a matrix built from
the benchmark's own edge list, closed forms, or subtraction-free sums whose
correctness the method guarantees.  Nothing is compared with a stored copy of
an earlier output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
from scipy.linalg import expm

#: a bound holds when amplitude <= bound * (1 + BOUND_RTOL)
BOUND_RTOL = 1e-9
#: relative tolerance of lambda0 against the dense oracle
LAMBDA_RTOL = 1e-9
#: componentwise relative tolerance of phi and nu against the dense oracle
VECTOR_RTOL = 1e-7
#: componentwise backward error allowed in the birth-death eigen-equation
RESIDUAL_RTOL = 1e-9
#: slack on a Collatz-Wielandt bracket, covering rounding in its sums
BRACKET_RTOL = 1e-9
#: two-sided tail probability of one 4-standard-error deviation
P_FOUR_SIGMA = 2.0 * (1.0 - NormalDist().cdf(4.0))


# -- generic predicates --------------------------------------------------------


def rel_close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def vector_close(vec, ref, rtol: float = VECTOR_RTOL) -> bool:
    """Componentwise relative agreement of two positive vectors."""
    vec = np.asarray(vec, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return vec.shape == ref.shape and bool(np.all(np.abs(vec - ref) <= rtol * ref))


def bound_holds(bound: float, amp: float) -> bool:
    return amp <= bound * (1.0 + BOUND_RTOL)


def z_critical(n_tests: int) -> float:
    """Per-test z threshold whose family-wise false-alarm rate over n_tests
    Gaussian statistics equals that of a single 4-standard-error test.

    A run makes dozens of Monte Carlo checks; testing each at 4 standard
    errors would flag a correct program in a few percent of runs.
    """
    return NormalDist().inv_cdf(1.0 - P_FOUR_SIGMA / (2.0 * max(n_tests, 1)))


# -- dense oracle for general chains ------------------------------------------


def dense_k(n: int, transitions, absorption) -> np.ndarray:
    """Killed generator from 1-based (i, j, rate) triplets and {state: rate}."""
    k = np.zeros((n, n))
    for i, j, r in transitions:
        k[i - 1, j - 1] += r
    exit_rates = k.sum(axis=1)
    for i, r in absorption.items():
        exit_rates[i - 1] += r
    k[np.diag_indices(n)] = -exit_rates
    return k


def _perron(vec) -> np.ndarray:
    vec = np.real(vec)
    return vec if vec.sum() > 0 else -vec


@dataclass(frozen=True)
class Reference:
    """Ground pair of -K from numpy.linalg.eig: phi(1) = 1, nu sums to 1."""

    lambda0: float
    phi: np.ndarray
    nu: np.ndarray

    @property
    def amplitude(self) -> float:
        return float(self.phi.max() / self.phi.min())


def eig_reference(k: np.ndarray) -> Reference:
    w, v = np.linalg.eig(k)
    i = int(np.argmax(w.real))
    phi = _perron(v[:, i])
    wt, vt = np.linalg.eig(k.T)
    nu = _perron(vt[:, int(np.argmax(wt.real))])
    return Reference(float(-w[i].real), phi / phi[0], nu / nu.sum())


def minor_lambda0(k: np.ndarray, y: int) -> float:
    """First Dirichlet eigenvalue after removing state y (1-based)."""
    keep = np.arange(k.shape[0]) != y - 1
    return float(-np.max(np.linalg.eigvals(k[np.ix_(keep, keep)]).real))


def hitting_moment(k: np.ndarray, y: int, theta: float) -> np.ndarray:
    """u(x) = E_x[exp(theta tau_y); tau_y < absorption], with u(y) = 1.

    Solves (K + theta) u = 0 off y.  theta = lambda0 gives phi / phi(y);
    theta = 2 lambda0 gives the second moment of the ratio estimator.
    """
    n = k.shape[0]
    keep = np.arange(n) != y - 1
    a = k[np.ix_(keep, keep)] + theta * np.eye(n - 1)
    u = np.ones(n)
    u[keep] = np.linalg.solve(a, -k[keep, y - 1])
    return u


def expected_jumps(k: np.ndarray, target: int | None = None) -> np.ndarray:
    """Expected jumps of the embedded jump chain until absorption, or until
    the target state (1-based) is hit; zero at the target."""
    n = k.shape[0]
    exit_rates = -np.diag(k)
    p = (k + np.diag(exit_rates)) / exit_rates[:, None]
    keep = np.ones(n, dtype=bool) if target is None else np.arange(n) != target - 1
    out = np.zeros(n)
    out[keep] = np.linalg.solve(np.eye(keep.sum()) - p[np.ix_(keep, keep)], np.ones(keep.sum()))
    return out


def total_variation(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def sandwich_reference(k: np.ndarray, ref: Reference, mu0, t: float):
    """(d_conditioned, d_doob) at time t from scipy.linalg.expm."""
    phi = ref.phi
    raw = mu0 @ expm(t * k)
    d_cond = total_variation(raw / raw.sum(), ref.nu)
    tilde = k * phi[None, :] / phi[:, None]
    tilde[np.diag_indices_from(tilde)] = np.diag(k) + ref.lambda0
    start = mu0 * phi / float(mu0 @ phi)
    stationary = ref.nu * phi / float(ref.nu @ phi)
    d_doob = total_variation(start @ expm(t * tilde), stationary)
    return d_cond, d_doob


# -- birth-death chains ---------------------------------------------------------


def bd_residual(b, d, lam: float, phi) -> float:
    """Largest componentwise backward error of (-K) phi = lam phi.

    Each row's residual is divided by the sum of the magnitudes of its
    terms, so the test is meaningful when lambda0 sits far below the rates.
    """
    phi = np.asarray(phi, dtype=float)
    up = np.append(b, 0.0)
    below = np.concatenate([[0.0], phi[:-1]])
    above = np.append(phi[1:], 0.0)
    terms = [(up + d) * phi, -up * above, -d * below, -lam * phi]
    resid = np.abs(sum(terms))
    scale = sum(np.abs(t) for t in terms)
    return float(np.max(resid / scale))


def green_bracket(b, d, f):
    """Collatz-Wielandt bracket (min f/Gf, max f/Gf) around lambda0.

    G = (-K)^-1 of the birth-death chain killed below state 1 is entrywise
    positive: G f(x) = sum_{z<=x} (pi_z d_z)^-1 sum_{y>=z} pi_y f(y).  Every
    term is positive and is summed in log space, so the bracket keeps
    relative accuracy when lambda0 is many orders below the rates.  It
    contains lambda0 for every positive f, and is tight when f is the
    ground eigenvector.
    """
    b = np.asarray(b, dtype=float)
    d = np.asarray(d, dtype=float)
    f = np.asarray(f, dtype=float)
    log_pi = np.concatenate([[0.0], np.cumsum(np.log(b) - np.log(d[1:]))])
    weighted = log_pi + np.log(f)
    tail = np.logaddexp.accumulate(weighted[::-1])[::-1]
    log_gf = np.logaddexp.accumulate(tail - log_pi - np.log(d))
    ratio = np.log(f) - log_gf
    return math.exp(ratio.min()), math.exp(ratio.max())


def in_bracket(lam: float, bracket) -> bool:
    lo, hi = bracket
    return lo * (1.0 - BRACKET_RTOL) <= lam <= hi * (1.0 + BRACKET_RTOL)


def rho1_amplitude(n: int) -> float:
    """Amplitude of build_rho_chain(n, 1): 1 / sin(pi / 2n)."""
    return 1.0 / math.sin(math.pi / (2 * n))


def rho1_lambda0(n: int) -> float:
    """Ground eigenvalue of build_rho_chain(n, 1): 4 sin^2(pi / 4n)."""
    return 4.0 * math.sin(math.pi / (4 * n)) ** 2


def non_increasing(col, slack: float = 1e-12) -> bool:
    """Finite entries never rise by more than slack (relative, floor 1)."""
    col = np.asarray(col, dtype=float)
    c = col[np.isfinite(col)]
    return bool(np.all(np.diff(c) <= slack * np.maximum(c[:-1], 1.0)))
