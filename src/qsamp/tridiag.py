"""Tridiagonal numerics for birth-death chains.

The killed generator of a birth-death chain absorbed from state 1 is
tridiagonal and reversible with respect to the product weights

    pi_1 = 1,   pi_x = (b_1 ... b_{x-1}) / (d_2 ... d_x),

so -K is similar to the symmetric tridiagonal matrix with main diagonal
b_x + d_x (b_n absent at the reflecting top) and off-diagonal
-sqrt(b_x d_{x+1}).  Everything here works with the rate arrays directly;
the symmetrized entries are local, so no product weight is ever formed in
a way that can overflow.

The lowest eigenpair comes from ground_pair: power steps on the Green
operator G = (-K)^-1 carried out on log f.  G has the closed form

    G f(x) = sum_{z<=x} (pi_z d_z)^-1 sum_{y>=z} pi_y f(y),

whose terms are all positive, so each component keeps relative accuracy
however far lambda0 sits below the rates, and each step gives the
Collatz-Wielandt bracket min f/Gf <= lambda0 <= max f/Gf as a certificate.
Higher eigenvalues come from bisection refined through the Dirichlet-form
Rayleigh quotient of a banded inverse-iterated vector.

The mpmath functions (Sturm-count bisection and the LDL' pivot determinant
ratio) serve bounds.exact_bd_amplitude only, the independent oracle for the
amplitude identity.
"""

from __future__ import annotations

import numpy as np
import mpmath as mp
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal, solve_banded

from .errors import NoConvergence


def sym_tridiag(b: np.ndarray, d: np.ndarray):
    """Main and off diagonals of the symmetrized -K."""
    main = d + np.append(b, 0.0)
    off = -np.sqrt(b * d[1:]) if len(d) > 1 else np.zeros(0)
    return main, off


def log_pi(b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """log pi_x for x = 1..n (natural log)."""
    if len(d) == 1:
        return np.zeros(1)
    return np.concatenate([[0.0], np.cumsum(np.log(b) - np.log(d[1:]))])


def scaled_pi(b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """pi rescaled by its maximum; positive where representable, else 0."""
    lp = log_pi(b, d)
    return np.exp(lp - lp.max())


def eigenvalues(b, d, n_lo=0, n_hi=None):
    """Eigenvalues of -K with indices n_lo..n_hi (inclusive), ascending."""
    main, off = sym_tridiag(b, d)
    if len(d) == 1:
        return main[n_lo : (n_hi or 0) + 1]
    if n_hi is None:
        return eigvalsh_tridiagonal(main, off)
    return eigvalsh_tridiagonal(main, off, select="i", select_range=(n_lo, n_hi))


def rayleigh_quotient(b, d, v) -> float:
    """Rayleigh quotient of -K at v through the Dirichlet form.

    All terms are nonnegative, so the quotient keeps full relative accuracy
    even when it is many orders of magnitude below the matrix norm.  Both
    sums are shifted by max(log pi + 2 log|v|) in log space, so neither
    underflows when pi and v grow in opposite directions (spreads past 1e154).
    """
    lp = log_pi(b, d)
    with np.errstate(divide="ignore"):
        log_mass = lp + 2 * np.log(np.abs(v))
        shift = log_mass.max()
        energy = d[0] * np.exp(log_mass[0] - shift)
        if len(d) > 1:
            log_jump = lp[:-1] + 2 * np.log(np.abs(np.diff(v)))
            energy += np.sum(b * np.exp(log_jump - shift))
    return float(energy / np.sum(np.exp(log_mass - shift)))


def _banded(b, d, shift):
    n = len(d)
    ab = np.zeros((3, n))
    ab[1, :] = d + np.append(b, 0.0) - shift
    ab[0, 1:] = -b
    ab[2, : n - 1] = -d[1:]
    return ab


def ground_state(b, d, eig_index=0, iters=3):
    """Double-precision eigenpair (lam, v) of -K for the given eigenvalue index.

    lam is the Dirichlet-form Rayleigh quotient of the inverse-iterated
    vector.  The lowest pair has its own routine, ground_pair, which starts
    from this vector.
    """
    if len(d) == 1:
        return float(d[0]), np.ones(1)
    v = _inverse_iteration(b, d, eig_index, iters)
    # the Dirichlet-form quotient is valid for signed vectors too (summation
    # by parts against the reflecting top), and every summand is nonnegative
    return rayleigh_quotient(b, d, v), v


def _inverse_iteration(b, d, eig_index, iters=3):
    """Eigenvector estimate of -K for the given index, max |v| = 1.

    Inverse iteration on the unsymmetrized banded matrix, started from the
    ones vector with a shift just below the bisection eigenvalue.  Shifts
    that make the solve singular fall back to small negative shifts, which
    still isolate the target direction whenever the eigenvalue is far below
    the matrix norm (the regime where the singular shift occurs).
    """
    n = len(d)
    lam_hat = float(eigenvalues(b, d, eig_index, eig_index)[0])
    scale = float((d + np.append(b, 0.0)).max())
    shifts = [lam_hat * (1 - 1e-8), lam_hat - 1e-14 * scale]
    if eig_index == 0:
        shifts += [-1e-13 * scale, -1e-10 * scale]
    v = None
    for s in shifts:
        try:
            ab = _banded(b, d, s)
            w = np.ones(n)
            for _ in range(iters):
                w = solve_banded((1, 1), ab, w)
                nrm = np.abs(w).max()
                if not np.isfinite(nrm) or nrm == 0:
                    raise np.linalg.LinAlgError
                w = w / nrm
            if eig_index == 0 and np.any(w <= 0):
                if np.all(w >= 0) or np.all(w <= 0):
                    w = np.abs(w)
                else:
                    continue
            v = w
            break
        except np.linalg.LinAlgError:
            continue
    if v is None:
        # last resort: dense tridiagonal solve with vectors
        main, off = sym_tridiag(b, d)
        lam, vec = eigh_tridiagonal(main, off, select="i", select_range=(eig_index, eig_index))
        lp = log_pi(b, d)
        v = vec[:, 0] * np.exp(-(lp - lp.max()) / 2.0)
        v = v / np.abs(v).max()
        if v[np.abs(v).argmax()] < 0:
            v = -v
    return v


def ground_pair(b, d):
    """Lowest eigenpair (lambda0, phi, (lo, hi)) of -K with phi(1) = 1.

    Power steps on the Green operator G = (-K)^-1, applied to log f by two
    cumulative log-sum-exp passes over log pi.  Each step gives the
    Collatz-Wielandt bracket lo = min f/Gf <= lambda0 <= max f/Gf, and the
    steps stop once it has closed to a few ulps or no longer narrows, which
    happens at rounding level.  lambda0 is the bracket's geometric midpoint
    and phi the last iterate Gf; the bracket's relative width bounds the
    componentwise backward error of phi.  The start is the inverse-iterated
    vector of ground_state, which usually leaves one or two steps to take
    (cold starts need tens).  Raises NoConvergence when the bracket is still
    narrowing after the step cap, or when phi or lambda0 leaves the double
    range.
    """
    b = np.asarray(b, dtype=float)
    d = np.asarray(d, dtype=float)
    n = len(d)
    if n == 1:
        return float(d[0]), np.ones(1), (float(d[0]), float(d[0]))
    lp = log_pi(b, d)
    log_w = -lp - np.log(d)
    v = _inverse_iteration(b, d, 0)
    f = np.log(v) if np.all(v > 0) and np.all(np.isfinite(v)) else np.zeros(n)
    width = np.inf
    for _ in range(1000):
        tail = np.logaddexp.accumulate((lp + f)[::-1])[::-1]
        g = np.logaddexp.accumulate(tail + log_w)
        ratio = f - g
        lo, hi = float(ratio.min()), float(ratio.max())
        f = g - g[0]
        if hi - lo <= 4 * np.finfo(float).eps or hi - lo >= width:
            break
        width = hi - lo
    else:
        raise NoConvergence(
            f"Green power steps still narrowing after 1000 steps: relative "
            f"bracket width {hi - lo:.2e}, log max phi {f.max():.1f}"
        )
    mid = (lo + hi) / 2
    if f.max() >= np.log(np.finfo(float).max) or mid <= np.log(np.finfo(float).tiny):
        raise NoConvergence(
            f"ground eigenpair outside the double range: log lambda0 = {mid:.1f}, "
            f"log max phi = {f.max():.1f}"
        )
    return float(np.exp(mid)), np.exp(f), (float(np.exp(lo)), float(np.exp(hi)))


def apply_neg_k(b, d, v):
    """(-K) v for the birth-death killed generator."""
    n = len(d)
    out = (d + np.append(b, 0.0)) * v
    if n > 1:
        out[:-1] -= b * v[1:]
        out[1:] -= d[1:] * v[:-1]
    return out


def residual_inf(b, d, lam, v) -> float:
    return float(np.abs(apply_neg_k(b, d, v) - lam * v).max())


# -- mpmath oracle ----------------------------------------------------------


def _mp_rates(b, d):
    return [mp.mpf(float(x)) for x in b], [mp.mpf(float(x)) for x in d]


def _ldl_pivots(bm, dm, lam):
    """Pivots of the LDL' factorization of (symmetrized -K) - lam.

    The number of negative pivots equals the number of eigenvalues below
    lam (Sturm count).  Exact zero pivots are perturbed by the caller.
    """
    n = len(dm)
    pivots = []
    q = (bm[0] if n > 1 else mp.mpf(0)) + dm[0] - lam
    pivots.append(q)
    for x in range(1, n):
        off2 = bm[x - 1] * dm[x]
        main = (bm[x] if x < n - 1 else mp.mpf(0)) + dm[x]
        q = main - lam - off2 / q
        pivots.append(q)
    return pivots


def pivot_digits_lost(b, d) -> int:
    """Decimal digits that cancellation costs the pivots of _ldl_pivots.

    At lam = 0 the pivots are q_x = b_x + s_x (q_n = s_n) with the
    subtraction-free s_x = 1 / (pi_x sum_{z<=x} (pi_z d_z)^-1), and s_x is
    the part that carries lambda0.  The recursion forms each pivot as a
    difference of terms of size b_x + d_x, so s_x keeps about dps minus
    log10((b_x + d_x) / s_x) digits, and so does a Sturm count near lambda0.
    """
    lp = log_pi(b, d)
    log_s = -lp - np.logaddexp.accumulate(-lp - np.log(d))
    lost = np.log(d + np.append(b, 0.0)) - log_s
    return max(0, int(np.ceil(lost.max() / np.log(10))))


def _sturm_below(bm, dm, lam):
    try:
        return sum(1 for q in _ldl_pivots(bm, dm, lam) if q < 0)
    except ZeroDivisionError:
        bump = lam * mp.mpf(10) ** (-mp.mp.dps + 3) or mp.mpf(10) ** (-mp.mp.dps)
        return sum(1 for q in _ldl_pivots(bm, dm, lam + bump) if q < 0)


def mp_lambda(b, d, eig_index=0, dps=60):
    """Eigenvalue of -K by Sturm-count bisection at dps decimal digits.

    Bisection runs from [0, 2 max_x (b_x + d_x)] until the bracket is
    relatively resolved (width below 10^(3-dps) of the eigenvalue) or hits
    an absolute floor 10^(-dps-8) of the matrix scale, so eigenvalues many
    orders below the norm still come out with full relative precision,
    provided dps covers pivot_digits_lost.  It shares no computation with
    ground_pair, which is what lets bounds.exact_bd_amplitude check it.
    """
    with mp.workdps(dps):
        bm, dm = _mp_rates(b, d)
        n = len(dm)
        lo = mp.mpf(0)
        hi = max((bm[i] if i < n - 1 else mp.mpf(0)) + dm[i] for i in range(n)) * 2
        floor_width = hi * mp.mpf(10) ** (-dps - 8)
        rel_stop = mp.mpf(10) ** (-dps + 3)
        for _ in range(12 * dps + 80):
            mid = (lo + hi) / 2
            if _sturm_below(bm, dm, mid) >= eig_index + 1:
                hi = mid
            else:
                lo = mid
            width = hi - lo
            if width <= floor_width or (lo > 0 and width <= lo * rel_stop):
                break
        return (lo + hi) / 2


def mp_detratio_minor(b, d, lam_mp, dps=60):
    """prod_l (1 - lam/lam~_l) over the minor that removes state 1.

    Computed as det(T~ - lam) / det(T~) through LDL pivots of the minor's
    symmetrized matrix; O(n) and needs no individual eigenvalues.
    """
    with mp.workdps(dps):
        bm, dm = _mp_rates(b[1:], d[1:])
        num = _ldl_pivots(bm, dm, mp.mpf(lam_mp))
        den = _ldl_pivots(bm, dm, mp.mpf(0))
        out = mp.mpf(1)
        for qa, qb in zip(num, den):
            out *= qa / qb
        return out
