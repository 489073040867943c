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
operator G = (-K)^-1.  G has the closed form

    G f(x) = sum_{z<=x} (pi_z d_z)^-1 sum_{y>=z} pi_y f(y),

which factors into two bidiagonal sweeps with positive coefficients and no
pi (the subtraction-free elimination of Grassmann, Taksar and Heyman,
1985): y_z = f(z)/d_z + (b_z/d_z) y_{z+1} from the top down, then the
running sum of y.  Every term is positive, so each component keeps relative
accuracy however far lambda0 sits below the rates, and each step gives the
Collatz-Wielandt bracket min f/Gf <= lambda0 <= max f/Gf as a certificate.
Where a value would leave the double range, the step runs on log f over
log pi instead.  The steps start from a vector that inverse iteration has
settled on, shifted at each new Rayleigh quotient from G1 (the expected
absorption times) or from a given start, so one or two steps certify it,
or from that starting vector itself when the iteration cannot vouch for
one; a LAPACK bisection eigenvalue seeds the start only when those steps
narrow slowly.
higher_eigenvalues gives lambda_1..lambda_k (higher_eigenpairs with their
vectors), each the Dirichlet-form Rayleigh quotient of an inverse-iterated
vector, through the same re-shifted iteration from guesses and start
vectors, accepted only when every vector has as many sign changes as its
index.  Each quotient is two plain sums over the chain's pi weights,
formed once per chain (pi_weights), with a log-space form as the fallback
where they would underflow (rayleigh_quotient); the solves and quotients
run on the rates scaled by a power of two into (0, 1), so every rate scale
gives the same bits.  The guesses and vectors are a smaller truncation's
eigenpairs padded with their last entries (padded): the truncation before
in a schedule of nested truncations (bd_infinite.eigen_convergence), or else
the chain's own reflecting truncation at half its size, solved the same
way down a ladder of halvings to fewer than 2 LADDER_BASE states.  One
bisection call gives the first shifts at the foot of the ladder, re-shifted
the same way, and the Sturm count gives the value where no quotient
vouches for one; where a rung's warm solves fail, the climb stops and the
chain itself bisects.  So a schedule bisects only for the higher
eigenvalues of its first truncation, and a single chain, when every rung
holds, only on a prefix of fewer than 2 LADDER_BASE states.
The diagonal of the Green operator's closed form gives green_trace, the sum
of every 1/lambda_k in O(n) and without subtraction:

    trace G = sum_x pi_x sum_{z<=x} (pi_z d_z)^-1.

The oracle, bounds.exact_bd_amplitude's independent check of the amplitude
identity, runs on one pivot recursion: the differential (stationary qd)
form of the LDL' factorization of T - sigma, whose only subtraction is the
shift, so its pivots are exact for rates perturbed by a few units in the
last place (_pivots).  It is written once over plain Python numbers and
serves the double-precision Sturm count sturm_count, the decimal Sturm
certificate, the decimal Newton steps and the determinant ratio of the
state-1 minor.  The double passes run on the rates scaled exactly by a
power of two, so no product of rates overflows; the decimal passes run on
the standard library's decimal module (libmpdec, C code) at dps digits, in
a thread-local context with the widest exponent range (oracle_context).
mp_lambda starts from adjacent floats around the eigenvalue that the
double count certifies (float Newton steps from 0 and a walk of a few ulps
for lambda0, bisection otherwise), refines with a few decimal Newton steps
on det(T - lam), and certifies the result by two decimal counts just below
and just above it, as soon as a step is small enough for that to hold.
"""

from __future__ import annotations

import decimal
import math
from decimal import Decimal

import numpy as np
from scipy.linalg import eigh, eigvalsh_tridiagonal
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgtsv

from .errors import InvalidParameter, NoConvergence
from .generators import _real_array

_TINY = float(np.finfo(float).tiny)
_EPS = float(np.finfo(float).eps)
_LOG_TINY = math.log(_TINY)


def unit_exponent(x) -> int:
    """e with max |x| in [2^(e-1), 2^e).  Scaled by 2^-e, which is exact for
    normal entries, x is the same at every power-of-two rate scale, and
    LAPACK never rescales it by a factor that is not a power of two."""
    return math.frexp(float(np.max(np.abs(x), initial=0.0)))[1]


def _rate_exponent(b: np.ndarray, d: np.ndarray) -> int:
    """k with the largest rate in [2^(k-1), 2^k): the rates scaled by 2^-k,
    which is exact for normal rates, lie in (0, 1) and are the same at
    every power-of-two rate scale."""
    return math.frexp(max(d.max(), b.max()) if len(b) else d[0])[1]


def _unit_arrays(b, d):
    """(b 2^-k, d 2^-k, k) with k = _rate_exponent(b, d)."""
    k = _rate_exponent(b, d)
    return np.ldexp(b, -k), np.ldexp(d, -k), k


def neg_sqrt_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """-sqrt(x y) elementwise for nonnegative arrays, formed on x and y scaled
    by 2^-unit_exponent, so no product overflows and every rate scale gives
    the same bits; a product below the smallest normal is -sqrt(x) sqrt(y)."""
    e = unit_exponent([np.max(x, initial=0.0), np.max(y, initial=0.0)])
    x, y = np.ldexp(x, -e), np.ldexp(y, -e)
    prod = x * y
    return np.ldexp(-np.where(prod >= _TINY, np.sqrt(prod), np.sqrt(x) * np.sqrt(y)), e)


def sym_tridiag(b: np.ndarray, d: np.ndarray):
    """Main and off diagonals of the symmetrized -K; the off-diagonal is
    neg_sqrt_product(b_x, d_{x+1})."""
    return d + np.append(b, 0.0), neg_sqrt_product(b, d[1:])


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
    """Eigenvalues of -K with indices n_lo..n_hi (inclusive), ascending, by
    LAPACK's bisection on sym_tridiag scaled by 2^-unit_exponent."""
    main, off = sym_tridiag(b, d)
    if len(d) == 1:
        return main[n_lo : (n_hi or 0) + 1]
    e = unit_exponent(main)
    subset = {} if n_hi is None else {"select": "i", "select_range": (n_lo, n_hi)}
    return np.ldexp(eigvalsh_tridiagonal(np.ldexp(main, -e), np.ldexp(off, -e), **subset), e)


def lapack_lambda0(a: np.ndarray, off: np.ndarray | None = None) -> float:
    """Smallest eigenvalue by LAPACK of the symmetric matrix a (eigh), or of
    the tridiagonal one with main diagonal a and off-diagonal off (bisection),
    scaled by 2^-unit_exponent.  LAPACK's error is absolute, up to m eps times
    the largest absolute row sum for m states, which swamps a lambda0 far
    below the rates; a value not above that bound raises NoConvergence."""
    if off is None:
        rows = np.abs(a).sum(axis=1)
        e = unit_exponent(rows)
        lam = eigh(np.ldexp(a, -e), subset_by_index=(0, 0), eigvals_only=True)[0]
    else:
        rows = np.abs(a) + np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off))
        e = unit_exponent(rows)
        lam = eigvalsh_tridiagonal(np.ldexp(a, -e), np.ldexp(off, -e),
                                   select="i", select_range=(0, 0))[0]
    lam, bound = math.ldexp(lam, e), len(a) * _EPS * float(rows.max())
    if not lam > bound:
        raise NoConvergence(f"LAPACK's lambda0 {lam:.3e} is not above its error bound {bound:.3e}")
    return lam


def pi_weights(lp: np.ndarray) -> np.ndarray:
    """The weights of rayleigh_quotient from lp = log_pi(b, d): pi over its
    maximum, 0 where that is below the smallest normal double, and without
    the run of such zeros at the top (where the pi of an entrance chain
    decays, that is most of them).  Formed once per chain; the first m of
    them serve its truncation at m states too, as a constant multiple of
    that truncation's own weights."""
    x = lp - lp.max()
    return _exp_normal(x[: len(x) - int(np.argmax(x[::-1] >= _LOG_TINY))])


#: the linear sums of rayleigh_quotient stand when both are at least this:
#: every term they lose to underflow is then below 2^-120 of its sum
_LINEAR_FLOOR = 2.0 ** -900


def rayleigh_quotient(b, d, v, w=None) -> float:
    """Rayleigh quotient of -K at v through the Dirichlet form.

    Two plain sums of nonnegative terms, with v scaled to max |v| = 1 and
    the rates by 2^-k, k = _rate_exponent(b, d), so that the largest lies
    in [1/2, 1) as in _unit_rates:

        mass = sum_x w_x v_x^2,
        energy = d_1 w_1 v_1^2 + sum_{x<n} b_x w_x (v_{x+1} - v_x)^2,

    and the quotient is 2^k energy / mass, scaled back exactly.  The
    quotient is valid for signed vectors too (summation by parts against the
    reflecting top), and since no term is negative it keeps full relative
    accuracy even when it sits many orders of magnitude below the matrix
    norm.  w is pi_weights(log_pi(b, d)), formed here when None, or a prefix
    of it: weights past its end count as 0.  No transcendental function
    runs per call.

    Guard: a term that the weights' zeros or the products lose to underflow
    is below 4 * 2^-1022 (a weight below 2^-1022 times at most 4), so when
    both sums are at least 2^-900 (_LINEAR_FLOOR) each lost term is below
    2^-120 of its sum, at any rate scale.  Otherwise the quotient comes from
    the fallback _log_quotient, the same sums shifted in log space: when pi
    and v grow in opposite directions, so that pi v^2 is far below the
    smallest normal double wherever v or pi is near its maximum (on
    rho_family(0.5) at 1100 states, for one).
    """
    if w is None:
        w = pi_weights(log_pi(b, d))
    k = _rate_exponent(b, d)
    m = min(len(w), len(b))
    u = v[: len(w) + 1] / np.abs(v).max()  # the part of v that meets a weight
    mass = np.dot(w * u[: len(w)], u[: len(w)])
    jump = u[1 : m + 1] - u[:m]
    jump *= jump
    energy = math.ldexp(d[0], -k) * w[0] * u[0] ** 2 + np.dot(np.ldexp(b[:m], -k) * w[:m], jump)
    if not (mass >= _LINEAR_FLOOR and energy >= _LINEAR_FLOOR):
        bu, du, _ = _unit_arrays(b, d)
        return math.ldexp(_log_quotient(bu, du, v, log_pi(b, d)), k)
    return math.ldexp(energy / mass, k)


def _log_quotient(b, d, v, lp) -> float:
    """rayleigh_quotient with both sums shifted by max(log pi + 2 log |v|)
    in log space, so neither underflows when pi and v grow in opposite
    directions (spreads past 1e154); lp is log_pi(b, d).  The rates are
    those scaled by 2^-_rate_exponent, so that no energy term is lost at a
    small rate scale."""
    with np.errstate(divide="ignore"):
        log_mass = lp + 2 * np.log(np.abs(v))
        shift = log_mass.max()
        energy = d[0] * np.exp(log_mass[0] - shift)
        if len(d) > 1:
            log_jump = lp[:-1] + 2 * np.log(np.abs(v[1:] - v[:-1]))
            energy += (b * _exp_normal(log_jump - shift)).sum()
    return float(energy / _exp_normal(log_mass - shift).sum())


def _exp_normal(x):
    """exp(x) where it is at least the smallest normal double, else 0.

    numpy's exp takes a slow path for results that underflow (about 15
    times slower per entry), and on long entrance chains most entries of
    pi do.  The terms dropped are below 2.2e-308 and carried no full digits
    anyway.
    """
    return np.exp(x, out=np.zeros_like(x), where=x >= _LOG_TINY)


def green_trace(b, d) -> float:
    """trace (-K)^-1 = sum_x pi_x sum_{z<=x} (pi_z d_z)^-1, the sum of 1/lambda_k.

    The diagonal of the Green operator's closed form; one cumulative and one
    full log-sum-exp over log pi, with every term positive, so the trace keeps
    relative accuracy.  inf when it leaves the double range.
    """
    lp = log_pi(b, d)
    with np.errstate(over="ignore"):
        return float(np.exp(np.logaddexp.reduce(lp + np.logaddexp.accumulate(-lp - np.log(d)))))


def higher_eigenvalues(b, d, k, guesses=None):
    """lambda_1..lambda_k of -K, ascending, with relative accuracy.

    Each value is the Dirichlet-form Rayleigh quotient of a vector
    inverse-iterated from an estimate of it.  The quotient is valid for
    signed vectors too (summation by parts against the reflecting top), and
    every summand is nonnegative.  The estimates are guesses (such as
    lambda_1..lambda_k of a smaller truncation) when each of them leads to
    its eigenvalue through _shifted_quotient; if any does not, or is
    missing or not finite, they come from the half-size ladder of
    higher_eigenpairs, and from one bisection call where that fails too.
    A bisection estimate that no quotient vouches for gives way to the
    eigenvalue the Sturm count certifies (_bisected_pairs).
    """
    return higher_eigenpairs(b, d, k, guesses)[0]


#: smallest rung of the half-size ladder: a chain has a rung below it only
#: when its half has at least this many states
LADDER_BASE = 64


def higher_eigenpairs(b, d, k, guesses=None, starts=None):
    """(lambda_1..lambda_k, their vectors) of -K, from warm starts where
    they can be vouched for; a vector is None where only the Sturm count
    vouches for its value (_bisected_pairs).

    First from guesses and their start vectors (length n each, such as a
    smaller truncation's vectors extended by padded, or None for three
    solves from the ones vector), as higher_eigenvalues says.
    Failing that, up the half-size ladder: the prefixes (b[:m-1], d[:m])
    of sizes m = n // 2, n // 4, ..., each the chain's own reflecting
    truncation at m, while m is at least LADDER_BASE and above k.  The
    smallest one bisects (_bisected_pairs), and each larger one starts from
    the pairs of the one below, vectors padded with their last entries.  A
    rung whose warm solves fail ends the climb, and the chain itself
    bisects, as it does when it is too small for a ladder.  Every step runs
    on the rates scaled by 2^-_rate_exponent, where no shifted solve over-
    or underflows at any rate scale, with the chain's pi_weights formed
    once; a rung's weights are their first m entries.
    """
    if k == 0:
        return np.zeros(0), []
    b, d, e = _unit_arrays(b, d)
    if guesses is not None:
        guesses = np.ldexp(guesses, -e)
    w = pi_weights(log_pi(b, d))
    found = _warm_pairs(b, d, k, guesses, starts, w)
    sizes = [len(d)]
    while sizes[-1] // 2 >= LADDER_BASE and sizes[-1] // 2 > k:
        sizes.append(sizes[-1] // 2)
    if found is None and len(sizes) > 1:
        m = sizes.pop()
        found = _bisected_pairs(b[: m - 1], d[:m], k, w[:m])
        for m in reversed(sizes):
            vectors = [padded(v, m) for v in found[1]]
            found = _warm_pairs(b[: m - 1], d[:m], k, found[0], vectors, w[:m])
            if found is None:
                break
    lams, vectors = _bisected_pairs(b, d, k, w) if found is None else found
    return np.ldexp(lams, e), vectors


def padded(v, n):
    """v extended to length n by its last entry; None stays None.  A
    smaller truncation's eigenvector padded this way starts the warm solves
    of ground_pair and higher_eigenpairs on the larger one."""
    return None if v is None else np.concatenate([v, np.full(n - len(v), v[-1])])


def _bisected_pairs(b, d, k, w):
    """(lambda_1..lambda_k, vectors) from one bisection call: each pair by
    _shifted_quotient from its eigenvalue estimate.  Where that cannot vouch
    for one, the eigenvalue is the lower end of the adjacent doubles around
    it that the differential Sturm count certifies (_bisected_start), with
    the vector of _shifted_quotient started there, or None if that cannot
    vouch either.  b and d are scaled to unit rates, so only an eigenvalue
    below the double range (a start of 0) raises NoConvergence."""
    pairs = []
    for idx, lam_hat in enumerate(eigenvalues(b, d, 1, k), start=1):
        pair = _shifted_quotient(b, d, idx, lam_hat, w)
        if pair is None:
            lam = _bisected_start(b.tolist(), d.tolist(), idx)
            if lam == 0:
                raise NoConvergence(f"eigenvalue {idx} is below the double range")
            found = _shifted_quotient(b, d, idx, lam, w)
            pair = lam, None if found is None else found[1]
        pairs.append(pair)
    lams, vectors = zip(*pairs)
    return np.array(lams), list(vectors)


def _warm_pairs(b, d, k, guesses, starts, w):
    """(lambda_1..lambda_k, vectors) by _shifted_quotient from k finite
    guesses, or None when there are fewer or any of them fails."""
    if guesses is None or len(guesses) < k or not np.all(np.isfinite(guesses[:k])):
        return None
    pairs = []
    for idx, guess, start in zip(range(1, k + 1), guesses, starts or [None] * k):
        pair = _shifted_quotient(b, d, idx, guess, w, start)
        if pair is None:
            return None
        pairs.append(pair)
    lams, vectors = zip(*pairs)
    return np.array(lams), list(vectors)


#: Rayleigh-quotient re-shifts allowed from a guess before the ladder or
#: bisection takes over
MAX_RESHIFTS = 6


def _shifted_quotient(b, d, eig_index, guess, w, start=None):
    """(lambda_{eig_index}, its vector) from a guess at it, or None when it
    cannot be vouched for.

    Inverse iteration shifted just below the guess, then below each new
    Rayleigh quotient from the last vector, until the quotients settle by
    bracket_settled's rule: two agree to about 4 ulps, or they stop getting
    closer at a relative distance below RESIDUAL_RTOL (rounding in the
    quotient); quotients that stop getting closer further apart give None.
    The first shift solves from start, or three times from the ones
    vector.  Every vector must have exactly eig_index sign changes:
    the eigenvector of index j of an irreducible Jacobi matrix has j nodes
    (Sturm oscillation), and the diagonal similarity to the symmetrized
    matrix keeps signs, so a guess nearer another eigenvalue is caught.
    """
    lam, width, v = guess, np.inf, start
    for _ in range(MAX_RESHIFTS):
        try:
            v = _shifted_solves(b, d, lam * (1 - 1e-8), v)
        except np.linalg.LinAlgError:
            return None
        signs = np.sign(v[v != 0])
        if np.count_nonzero(signs[1:] != signs[:-1]) != eig_index:
            return None
        lam, previous = rayleigh_quotient(b, d, v, w), lam
        step = abs(lam - previous) / lam
        if bracket_settled(step, width):
            return lam, np.abs(v) if eig_index == 0 else v
        if step >= width:
            return None
        width = step
    return None


def _shifted_solves(b, d, shift, start):
    """(-K - shift)^-1 applied to start, or three times to the ones vector,
    each result scaled to max |v| = 1 (LAPACK dgtsv).  Raises LinAlgError
    for a singular shift or a result that is not finite."""
    main = d + np.append(b, 0.0) - shift
    v = np.ones(len(d)) if start is None else start
    for _ in range(3 if start is None else 1):
        *_, v, info = dgtsv(-d[1:], main, -b, v, overwrite_dl=1, overwrite_du=1)
        nrm = np.abs(v).max() if info == 0 else np.nan
        if not 0 < nrm < np.inf:
            raise np.linalg.LinAlgError("singular shift")
        v = v / nrm
    return v


MAX_POWER_STEPS = 1000

#: widest relative lambda0 bracket a pair is accepted on, which bounds the
#: pair's componentwise relative residual; slow narrowing below it runs out
RESIDUAL_RTOL = 1e-10


def bracket_settled(width: float, previous: float) -> bool:
    """Stop rule of every power iteration: the Collatz-Wielandt bracket's
    relative width has closed to about 4 ulps, or no longer narrows and is
    at most RESIDUAL_RTOL.  A wider bracket that stops narrowing is a
    plateau, not an answer."""
    return width <= 4 * np.finfo(float).eps or RESIDUAL_RTOL >= width >= previous


def narrowing_slowly(width: float, previous: float) -> bool:
    """A power step narrowed a bracket still wider than RESIDUAL_RTOL by
    less than half: the cue for a better start or shift."""
    return width > RESIDUAL_RTOL and 2 * width > previous


def _check_bracket(lo: float, hi: float, lam0: float) -> None:
    """Accept a pair on its lambda0 bracket: at most RESIDUAL_RTOL wide,
    relatively, or raise NoConvergence."""
    if hi - lo > RESIDUAL_RTOL * lam0:
        raise NoConvergence(
            f"lambda0 bracket [{lo:.6e}, {hi:.6e}] wider than {RESIDUAL_RTOL:g} relative"
        )


def ground_pair(b, d, start=None):
    """Lowest eigenpair (lambda0, phi, (lo, hi)) of -K with phi(1) = 1.

    Power steps on the Green operator G = (-K)^-1, each of which gives the
    Collatz-Wielandt bracket lo = min f/Gf <= lambda0 <= max f/Gf; the
    steps stop by bracket_settled, and the pair is accepted on the final
    bracket (_check_bracket).  lambda0 is the bracket's geometric
    midpoint and phi the last iterate Gf; the bracket's relative width
    bounds the componentwise backward error of phi.  A step is one
    back-substitution and one running sum over positive terms
    (_ratio_step), or, where a value would leave the double range, two
    cumulative log-sum-exp passes over log pi (_log_step).

    The steps run from one of two starts, the second only when the first
    one's steps narrow the bracket slowly (narrowing_slowly):
      1. the vector that inverse iteration settles on when shifted at each
         new Rayleigh quotient (_shifted_quotient), which usually leaves
         one or two steps to take.  The iteration starts from start, a
         positive vector of length n such as the ground vector of a smaller
         truncation padded with its last entry, or else from the first
         Green step G1 (the expected absorption times); when it cannot
         vouch for a vector, as when lambda0 sits so far below lambda1
         that shifted solves drown in rounding, the steps run from that
         starting vector itself, and steps on G then converge fast;
      2. the vector inverse-iterated from the bisection eigenvalue, which
         runs to the end.
    Both starts are solved for on the rates scaled by 2^-_rate_exponent, so
    that a chain whose phi spans far (rho_family(0.5) at 1100 states) gets
    the same start vectors at every rate scale; the Green steps run on the
    rates as given.
    Raises NoConvergence when the bracket has not settled after the step
    cap or is wider than RESIDUAL_RTOL, or when phi or lambda0 leaves the
    double range, or when no shift gives the second start;
    InvalidParameter for a start that is not n positive finite numbers.
    """
    b = np.asarray(b, dtype=float)
    d = np.asarray(d, dtype=float)
    n = len(d)
    if n == 1:
        return float(d[0]), np.ones(1), (float(d[0]), float(d[0]))
    if start is not None:
        start = _real_array(start, f"start must be {n} finite numbers", (n,))
        if np.any(start <= 0):
            raise InvalidParameter(f"start must be {n} positive finite numbers")
    lp = log_pi(b, d)
    w = pi_weights(lp)
    bu, du, _ = _unit_arrays(b, d)  # the start vectors' solves, at any rate scale
    ratio_step = _ratio_step(b, d)
    steps = None
    try:
        f = ratio_step(np.ones(n))[3] if start is None else start
    except _LeavesRange:
        f = None
    if f is not None:
        found = _shifted_quotient(bu, du, 0, rayleigh_quotient(bu, du, f, w), w, start=f)
        steps = _green_steps(ratio_step, d, lp, f if found is None else found[1], restart=True)
    if steps is None:
        lam, scale = eigenvalues(bu, du, 0, 0)[0], float((du + np.append(bu, 0.0)).max())
        # shifts below zero still isolate phi where lambda0 is far below the rates
        for shift in (lam * (1 - 1e-8), lam - 1e-14 * scale, -1e-13 * scale, -1e-10 * scale):
            try:
                v = _shifted_solves(bu, du, shift, None)
            except np.linalg.LinAlgError:
                continue
            if np.all(v >= 0) or np.all(v <= 0):
                break
        else:
            raise NoConvergence("no shifted solve gives a one-signed start vector")
        steps = _green_steps(ratio_step, d, lp, np.abs(v), restart=False)
    lam0, _, (lo, hi) = steps
    _check_bracket(lo, hi, lam0)
    return steps


class _LeavesRange(Exception):
    """A ratio-form Green step would leave the normal double range."""


def _ratio_step(b, d):
    """The Green step of the chain in ratio form: f -> (lo, hi, width, Gf),
    with f scaled to max 1 first.

    With y_z = sum_{y>=z} pi_y f(y) / (pi_z d_z), the closed form reads

        y_z = f(z)/d_z + (b_z/d_z) y_{z+1},   Gf(x) = sum_{z<=x} y_z,

    one back-substitution (BLAS dtbsv) and one running sum with positive
    terms and no pi.  Each y_z is at most Gf(z), so no value exceeds
    max Gf, about 1/lambda0 once f is near phi.  Raises _LeavesRange when a
    right-hand side f(z)/d_z, the bracket's lower end or Gf(1)/max Gf is
    below the smallest normal double, or Gf overflows.
    """
    with np.errstate(over="ignore"):
        inv_d = 1.0 / d
        band = np.zeros((2, len(d)), order="F")
        band[0, 1:] = -(b * inv_d[:-1])

    def step(f):
        f = f / f.max()
        rhs = f * inv_d
        if not rhs.min() >= _TINY:
            raise _LeavesRange
        g = np.cumsum(dtbsv(1, band, rhs, diag=1, overwrite_x=1))
        if not g[-1] < np.inf:
            raise _LeavesRange
        ratio = f / g
        lo, hi = float(ratio.min()), float(ratio.max())
        if not min(lo, g[0] / g[-1]) >= _TINY:
            raise _LeavesRange
        return lo, hi, (hi - lo) / lo, g

    return step


def _log_step(lp, log_w):
    """The Green step on log f: log f -> (log lo, log hi, width, log Gf - log Gf(1))."""

    def step(f):
        tail = np.logaddexp.accumulate((lp + f)[::-1])[::-1]
        g = np.logaddexp.accumulate(tail + log_w)
        ratio = f - g
        lo, hi = float(ratio.min()), float(ratio.max())
        return lo, hi, hi - lo, g - g[0]

    return step


def _green_steps(ratio_step, d, lp, v, restart):
    """The pair from Green steps started at the positive vector v.

    Steps in ratio form, or in log form from the start again when a ratio
    step leaves the double range.  With restart, a step that is
    narrowing_slowly returns None instead, so that the caller can try a
    better start.
    """
    try:
        steps = _power_steps(ratio_step, v, restart)
    except _LeavesRange:
        pass
    else:
        if steps is None:
            return None
        lo, hi, f = steps
        return math.sqrt(lo) * math.sqrt(hi), f / f[0], (lo, hi)
    log_v = np.log(v / v.max()) if np.all(v > 0) and np.all(np.isfinite(v)) else np.zeros(len(d))
    steps = _power_steps(_log_step(lp, -lp - np.log(d)), log_v, restart)
    if steps is None:
        return None
    lo, hi, f = steps
    mid = (lo + hi) / 2
    if f.max() >= np.log(np.finfo(float).max) or mid <= np.log(np.finfo(float).tiny):
        raise NoConvergence(
            f"ground eigenpair outside the double range: log lambda0 = {mid:.1f}, "
            f"log max phi = {f.max():.1f}"
        )
    return float(np.exp(mid)), np.exp(f), (float(np.exp(lo)), float(np.exp(hi)))


def _power_steps(step, f, restart):
    """f -> step(f) until bracket_settled: (lo, hi, f) of the last step.

    With restart, a step that is narrowing_slowly (a plateau wider than
    RESIDUAL_RTOL among them) returns None instead; without it, the steps
    run on to the cap.
    """
    width = np.inf
    for _ in range(MAX_POWER_STEPS):
        lo, hi, step_width, f = step(f)
        if bracket_settled(step_width, width):
            return lo, hi, f
        if restart and narrowing_slowly(step_width, width):
            return None
        width = step_width
    raise NoConvergence(
        f"Green power steps not settled after {MAX_POWER_STEPS} steps: relative "
        f"bracket width {step_width:.2e}"
    )


# -- multi-precision oracle --------------------------------------------------

#: Newton steps from a relatively accurate start take a handful; from 0 (an
#: eigenvalue below the double range) they climb monotonically to it
_NEWTON_STEPS = 100


def oracle_context(dps: int) -> decimal.Context:
    """Decimal context of the oracle: dps digits, the widest exponent range.

    The traps are decimal's defaults, so a zero pivot raises a subclass of
    ZeroDivisionError (DivisionByZero, or DivisionUndefined for 0/0).
    """
    return decimal.Context(prec=dps, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _mp_rates(b, d):
    # Decimal(float) is exact; the context rounds from the first operation on
    return [Decimal(float(x)) for x in b], [Decimal(float(x)) for x in d]


def _pivots(b, d, sigma):
    """Pivots q_x of the LDL' factorization of (symmetrized -K) - sigma.

    Differential (stationary qd) form on the rates, over plain Python
    numbers (lists of floats, or of Decimals in an oracle context):

        t_1 = d_1 - sigma,  q_x = b_x + t_x,
        t_{x+1} = d_{x+1} t_x / q_x - sigma,  q_n = t_n.

    The only subtraction is the shift, so the pivots are exact for rates
    perturbed by a few units in the last place each (Parlett & Dhillon
    2000).  A zero pivot before the last raises a ZeroDivisionError
    (decimal's DivisionByZero and DivisionUndefined are subclasses of it).
    """
    pivots = []
    t = d[0] - sigma
    for bx, dx in zip(b, d[1:]):
        q = bx + t
        pivots.append(q)
        t = dx * t / q - sigma
    pivots.append(t)
    return pivots


def _count(b, d, sigma):
    """Number of negative pivots at sigma: the eigenvalues of -K below it."""
    try:
        return len([q for q in _pivots(b, d, sigma) if q < 0])
    except ZeroDivisionError:
        # sigma is an eigenvalue of a leading block: count just above it
        up = sigma.next_plus() if isinstance(sigma, Decimal) else math.nextafter(sigma, math.inf)
        return _count(b, d, up)


def sturm_count(b, d, sigma: float) -> int:
    """Number of eigenvalues of -K below sigma, in double precision.

    Counts the negative pivots of the differential recursion _pivots, so
    the count is exact for rates perturbed by a few ulps each, and
    eigenvalues bracketed by it keep relative accuracy however far below
    the rates they sit, at any rate scale (_unit_rates).
    """
    b, d, k = _unit_rates(b, d)
    if math.frexp(sigma)[1] > k + 2:  # |sigma| >= 4 * 2^k, past every eigenvalue
        return len(d) if sigma > 0 else 0
    return _count(b, d, math.ldexp(sigma, -k))


def _unit_rates(b, d):
    """(b 2^-k, d 2^-k, k) as lists of Python floats (a zero pivot raises),
    with k = _rate_exponent(b, d) and so every eigenvalue below 4.  The
    float pivots are those of the unscaled rates scaled, wherever these
    stay normal, and no product of scaled rates overflows."""
    b, d, k = _unit_arrays(np.asarray(b, dtype=float), np.asarray(d, dtype=float))
    return b.tolist(), d.tolist(), k


def _double_start(b, d, eig_index):
    """Lower end lo of a bracket of adjacent doubles around the eigenvalue.

    b and d are lists of floats.  lo is the double with
    count(lo) <= eig_index < count(nextafter(lo)), or 0 when the eigenvalue
    is below the smallest normal double: from _newton_start for lambda0,
    and from _bisected_start for higher indices or where _newton_start
    gives up.
    """
    if eig_index == 0:
        lo = _newton_start(b, d)
        if lo is not None:
            return lo
    return _bisected_start(b, d, eig_index)


#: float Newton steps of _newton_start: each costs about two count passes,
#: so steps that give up (clustered eigenvalues above lambda0 make them
#: creep) have cost about what the bisection taking over does
_START_STEPS = 30

#: ulps the walk after the float Newton steps of _newton_start covers in
#: either direction before bisection takes over
_WALK_ULPS = 8


def _newton_start(b, d):
    """_double_start for lambda0 by float Newton steps, or None.

    Newton steps on det(T - lam) from 0 (_newton_step over Python floats)
    rise monotonically toward the smallest root, because every root lies
    above them.  They stop after a step of at most 4 ulps, before one that
    does not shrink (rounding, or steps that stall), or at an exact zero
    pivot, and a walk of at most _WALK_ULPS ulps down or up from there
    finds the lo that the count certifies.  None where _START_STEPS steps
    have not stopped, where they stop below the smallest normal double, or
    where the walk runs out.
    """
    lam, last = 0.0, math.inf
    for _ in range(_START_STEPS):
        step = _newton_step(b, d, lam)
        if step is None or not abs(step) < last:
            break
        lam, last = lam + step, abs(step)
        if last <= 4 * _EPS * lam:
            break
    else:
        return None
    if not lam >= _TINY:
        return None
    if _count(b, d, lam) == 0:
        for _ in range(_WALK_ULPS):
            up = math.nextafter(lam, math.inf)
            if _count(b, d, up) > 0:
                return lam
            lam = up
    else:
        for _ in range(_WALK_ULPS):
            lam = math.nextafter(lam, -math.inf)
            if _count(b, d, lam) == 0:
                return lam
    return None


def _bisected_start(b, d, eig_index):
    """_double_start by bisection on the pivot count, for any index.

    Keeps count(lo) <= eig_index < count(hi), with hi starting at
    2 max_x (b_x + d_x), the row-sum norm of -K.  Midpoints are geometric
    while hi/lo > 4, so an eigenvalue hundreds of orders below the rates
    costs a dozen passes, then arithmetic down to adjacent floats (about 60
    passes in all).  lo is 0 when the eigenvalue is below the smallest
    normal double.
    """
    hi = 2 * max(bx + dx for bx, dx in zip(b + [0.0], d))
    lo = _TINY
    if _count(b, d, lo) > eig_index:
        return 0.0
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 4 * lo else lo + (hi - lo) / 2
        if not lo < mid < hi:
            return lo
        if _count(b, d, mid) > eig_index:
            hi = mid
        else:
            lo = mid


def _newton_step(b, d, lam):
    """Newton step -p/p' for p(lam) = det(T - lam) = prod_x q_x.

    Differentiating the pivot recursion in lam gives t'_1 = -1 and
    t'_{x+1} = b_x d_{x+1} t'_x / q_x^2 - 1, and p'/p = sum_x t'_x / q_x.
    Returns None at an exact zero pivot, which makes lam an eigenvalue at
    working precision.
    """
    try:
        pivots = _pivots(b, d, lam)
        dt, log_deriv = -1, 0
        for q, bx, dx in zip(pivots, b, d[1:]):
            log_deriv += dt / q
            dt = bx * dx * dt / (q * q) - 1
        log_deriv += dt / pivots[-1]
        return -1 / log_deriv
    except ZeroDivisionError:
        return None


def mp_lambda(b, d, eig_index=0, dps=60):
    """Certified eigenvalue of -K with the given index, at dps decimal digits.

    Three steps on the pivot recursion _pivots, none shared with
    ground_pair, which is what lets bounds.exact_bd_amplitude check it:
      1. the lower end of adjacent doubles around the eigenvalue, certified
         by the double-precision count (_double_start): float Newton steps
         from 0 and a walk of a few ulps for lambda0, which usually take
         a handful of passes, or else bisection, about 60, on the rates
         scaled by a power of two (_unit_rates) and scaled back exactly;
      2. Newton steps on det(T - lam) in dps-digit decimal arithmetic from
         that lower end, until a step falls below the relative width
         w = n 10^(5 - dps), stops shrinking, or lands on an exact zero
         pivot.  Convergence is quadratic, so after a step whose square is
         below w lam^2 the next one would be below w lam: each such step
         tries the certificate of step 3 and returns on success;
      3. a certificate: the decimal counts at lam (1 - w) and lam (1 + w)
         must put the eigenvalue between them.
    The decimal pivots are exact for rates perturbed by a few units in the
    last digit each, and such a perturbation moves every eigenvalue of a
    birth-death chain relatively by at most about 2n times as much (-K is
    similar to B B' with B bidiagonal in the square roots of the rates), so
    w covers the rounding however far the eigenvalue sits below the rates.
    Returns the eigenvalue as a Decimal of dps digits, relatively accurate
    to w.  Raises InvalidParameter for an index outside 0..n-1 or a dps too
    small to give w < 1, and NoConvergence when the certificate fails.
    """
    n = len(d)
    if not 0 <= eig_index < n:
        raise InvalidParameter(f"eigenvalue index {eig_index} outside 0..{n - 1}")
    with decimal.localcontext(oracle_context(dps)):
        w = n * Decimal(10) ** (5 - dps)
        if w >= 1:
            raise InvalidParameter(f"dps = {dps} cannot resolve a chain of {n} states")
        bs, ds, k = _unit_rates(b, d)
        with decimal.localcontext(oracle_context(2000)):  # exact: at most 1520 digits
            lam = Decimal(_double_start(bs, ds, eig_index)) * Decimal(2) ** k
        bm, dm = _mp_rates(b, d)
        last = Decimal("Infinity")
        for _ in range(_NEWTON_STEPS):
            step = _newton_step(bm, dm, lam)
            if step is None or abs(step) >= last:
                break
            lam += step
            last = abs(step)
            if last <= w * lam:
                break
            if last * last <= w * lam * lam:
                below, above = _bracket_counts(bm, dm, lam, w)
                if below <= eig_index < above:
                    return lam
        below, above = _bracket_counts(bm, dm, lam, w)
        if below > eig_index or above <= eig_index:
            raise NoConvergence(
                f"eigenvalue {eig_index} not certified at {lam:.20g}: "
                f"Sturm counts {below} and {above} at relative width {w:.3g}"
            )
        return lam


def _bracket_counts(b, d, lam, w):
    """The decimal counts at lam (1 - w) and lam (1 + w)."""
    return _count(b, d, lam * (1 - w)), _count(b, d, lam * (1 + w))


def mp_detratio_minor(b, d, lam_mp, dps=60):
    """prod_l (1 - lam/lam~_l) over the minor that removes state 1.

    Computed as det(T~ - lam) / det(T~), the product of the ratios of the
    minor's pivots at lam and at 0, in dps-digit decimal arithmetic; O(n)
    and needs no individual eigenvalues.  lam_mp is a Decimal (as mp_lambda
    returns) or a float; returns a Decimal.
    """
    with decimal.localcontext(oracle_context(dps)):
        bm, dm = _mp_rates(b[1:], d[1:])
        out = Decimal(1)
        for qa, qb in zip(_pivots(bm, dm, Decimal(lam_mp)), _pivots(bm, dm, Decimal(0))):
            out *= qa / qb
        return out
