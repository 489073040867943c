"""Tridiagonal numerics for birth-death chains.

The killed generator of a birth-death chain absorbed from state 1 is
tridiagonal and reversible with respect to the product weights

    pi_1 = 1,   pi_x = (b_1 ... b_{x-1}) / (d_2 ... d_x),

so -K is similar to the symmetric tridiagonal matrix with main diagonal
b_x + d_x (b_n absent at the reflecting top) and off-diagonal
-sqrt(b_x d_{x+1}).  Everything here works with the rate arrays directly;
the symmetrized entries are local, so no product weight is ever formed in
a way that can overflow.

Every ground pair, of a birth-death chain here and of any other chain in
spectral, comes from one loop, perron_steps, which holds the whole rule:
the Collatz-Wielandt bracket on lambda0, the stop test, the response to a
slow step, the step cap and the midpoint.  ground_pair runs it on the Green
operator G = (-K)^-1, which has the closed form

    G f(x) = sum_{z<=x} (pi_z d_z)^-1 sum_{y>=z} pi_y f(y)

and factors into two bidiagonal sweeps with positive coefficients and no
pi (the subtraction-free elimination of Grassmann, Taksar and Heyman,
1985): y_z = f(z)/d_z + (b_z/d_z) y_{z+1} from the top down, then the
running sum of y.  Every term is positive, so each component keeps relative
accuracy however far lambda0 sits below the rates.  The steps run on the
rates scaled by a power of two into (0, 1), so they leave the double range
only where phi or lambda0 itself does, and every rate scale gives the same
bits.
higher_eigenvalues gives lambda_1..lambda_k (higher_eigenpairs with their
vectors), each the Dirichlet-form Rayleigh quotient of an inverse-iterated
vector, through the same re-shifted iteration from guesses and start
vectors, accepted only when every vector has as many sign changes as its
index, or else bisected on the Sturm count.  Each quotient is two plain
sums over the chain's pi weights, formed once per chain (pi_weights), with
a log-space form as the fallback where they would underflow
(rayleigh_quotient); the solves and quotients run on the rates scaled by a
power of two into (0, 1), so every rate scale gives the same bits.  The
guesses and vectors are a smaller truncation's eigenpairs padded with their
last entries (padded): the truncation before in a schedule of nested
truncations (bd_infinite.eigen_convergence), or else the chain's own
reflecting truncation at half its size, solved the same way down a ladder
of halvings to fewer than 2 LADDER_BASE states.  One bisection call gives
the values at the foot of the ladder, and the re-shifted iteration from
them their vectors; where a rung's warm solves fail, the climb stops and
the chain itself bisects.  So a schedule bisects only for the higher
eigenvalues of its first truncation, and a single chain, when every rung
holds, only on a prefix of fewer than 2 LADDER_BASE states.
The diagonal of the Green operator's closed form gives green_trace, the sum
of every 1/lambda_k in O(n) and without subtraction:

    trace G = sum_x pi_x sum_{z<=x} (pi_z d_z)^-1.

Its inner sums, and the running sums over pi of bd_infinite, are log_cumsum:
np.logaddexp.accumulate to rounding, but summed linearly in blocks shifted
by their own maxima, so that numpy's exp does not take its slow path for
results that underflow at nearly every step, as it would where pi decays.

-K is also similar to B B', B upper bidiagonal with sqrt(d) on its diagonal
and sqrt(b) above it, so spectrum takes every eigenvalue from B's singular
values by dqds, with relative accuracy (Demmel & Kahan 1990).  sturm_count
is LAPACK's stationary qd count on the same factor (_ldl), exact for rates
perturbed by a few ulps each, and bisection on it (bisected_eigenvalues)
brackets any one eigenvalue by adjacent doubles.  Both run in C (_lapack),
on the rates scaled exactly by a power of two.

The oracle, bounds.exact_bd_amplitude's independent check of the amplitude
identity, runs on the differential (stationary qd) recursions of the LDL'
and UDU' factorizations of T - sigma, whose only subtraction is the shift,
so their pivots are exact for rates perturbed by a few units in the last
place (Parlett & Dhillon 2000).  The top-down one gives the decimal
Newton steps (_newton_step) and the fallback count (_count); its
bottom-up twin (_bracket_pass) gives, in one loop, the decimal Sturm counts
at both ends of a certificate and the determinant ratio of the state-1
minor, whose pivots are the trailing ones of the chain's.  Each decimal
pass walks the chain once, in the standard library's decimal module
(libmpdec, C code) at dps digits, in a thread-local context with the widest
exponent range (oracle_context), on rates converted to Decimal once per
chain (_mp_rates).  mp_lambda and exact_bd_amplitude share one loop
(_certified): decimal Newton steps on det(T - lam) from the lower end of the
adjacent doubles around the eigenvalue that the double-precision count
certifies (_double_start), or from the value of an earlier pass at fewer
digits, each followed by a certificate pass once its width is small enough
for the caller.
"""

from __future__ import annotations

import decimal
import math
from decimal import Decimal

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgtsv

from . import _lapack
from .errors import InvalidParameter, NoConvergence
from .generators import _integer, _real_array

_TINY = float(np.finfo(float).tiny)
_LOG_TINY = math.log(_TINY)
#: about 4 ulps: the narrowest relative width bracket_settled waits for
_FOUR_EPS = 4 * float(np.finfo(float).eps)


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
    """(b 2^-k, d 2^-k, k) as float arrays, with k = _rate_exponent(b, d)."""
    b, d = np.asarray(b, dtype=float), np.asarray(d, dtype=float)
    k = _rate_exponent(b, d)
    return np.ldexp(b, -k), np.ldexp(d, -k), k


def _resolvable_unit_arrays(b, d):
    """_unit_arrays, or NoConvergence where a rate underflows to 0 there:
    the rates then span past the double range, and no ground pair or
    spectrum in doubles resolves the chain (mp_lambda's decimal steps do,
    from a start that _unit_arrays gives as it is)."""
    b, d, k = _unit_arrays(b, d)
    if not (b.all() and d.all()):
        raise NoConvergence(f"a rate underflows to 0 when the rates are scaled by 2^{-k}: "
                            "they span past the double range")
    return b, d, k


def neg_sqrt_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """-sqrt(x y) elementwise for nonnegative arrays, formed on x and y scaled
    by 2^-unit_exponent, so no product overflows and every rate scale gives
    the same bits; a product below the smallest normal is -sqrt(x) sqrt(y)."""
    e = unit_exponent([np.max(x, initial=0.0), np.max(y, initial=0.0)])
    x, y = np.ldexp(x, -e), np.ldexp(y, -e)
    prod = x * y
    return np.ldexp(-np.where(prod >= _TINY, np.sqrt(prod), np.sqrt(x) * np.sqrt(y)), e)


def log_pi(b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """log pi_x for x = 1..n (natural log)."""
    if len(d) == 1:
        return np.zeros(1)
    return np.concatenate([[0.0], np.cumsum(np.log(b) - np.log(d[1:]))])


def scaled_pi(b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """pi rescaled by its maximum; positive where representable, else 0."""
    lp = log_pi(b, d)
    return np.exp(lp - lp.max())


def spectrum(b, d) -> np.ndarray:
    """Every eigenvalue of -K, ascending, with relative accuracy: -K is
    similar to B B' with B upper bidiagonal, sqrt(d) on its diagonal and
    sqrt(b) above it, so the eigenvalues are the squared singular values of
    B (dqds, _lapack.singular_values).  B is formed from the rates scaled by
    2^-_rate_exponent, so every power-of-two rate scale gives the same bits,
    scaled; NoConvergence where a rate underflows to 0 there
    (_resolvable_unit_arrays)."""
    b, d, k = _resolvable_unit_arrays(b, d)
    return np.ldexp(_lapack.singular_values(np.sqrt(d), np.sqrt(b))[::-1] ** 2, k)


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
    in [1/2, 1) as in _unit_arrays:

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
    b, d, k = _unit_arrays(b, d)
    return math.ldexp(_unit_quotient(b, d, v / np.abs(v).max(), w), k)


def _unit_quotient(b, d, u, w) -> float:
    """rayleigh_quotient on unit rates (_unit_arrays) and a vector u with
    max |u| = 1: the linear sums over the prefix that w weights, or the log
    form where they underflow."""
    m = min(len(w), len(b))
    head = u[: len(w)]
    mass = np.dot(w * head, head)
    jump = u[1 : m + 1] - u[:m]
    jump *= jump
    energy = d[0] * w[0] * u[0] ** 2 + np.dot(b[:m] * w[:m], jump)
    if not (mass >= _LINEAR_FLOOR and energy >= _LINEAR_FLOOR):
        return _log_quotient(b, d, u, log_pi(b, d))
    return energy / mass


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

    The diagonal of the Green operator's closed form; one running log-sum
    (log_cumsum) and one full sum (_sum_exp) over log pi, with every term
    positive, so the trace keeps relative accuracy.  inf when it leaves the
    double range.
    """
    lp = log_pi(b, d)
    return _sum_exp(lp + log_cumsum(-lp - np.log(d)))


def _sum_exp(x) -> float:
    """sum exp(x) over finite x, as exp(max x) times the sum of
    _exp_normal(x - max x): that sum is at least 1, and each term it drops
    is below 2^-1022.  inf when it leaves the double range."""
    top = x.max()
    with np.errstate(over="ignore"):
        return float(np.exp(top) * _exp_normal(x - top).sum())


#: entries per block of log_cumsum
_LOG_BLOCK = 32

#: log_cumsum takes a position from its block's linear sum when that is at
#: least this: its log then lies above -512, so it rounds to within 2^-44
_BLOCK_FLOOR = 2.0 ** -700


def log_cumsum(a) -> np.ndarray:
    """np.logaddexp.accumulate(a), to rounding, off numpy's slow path.

    numpy's exp is about 15 times slower on results that underflow, and
    logaddexp takes that path at every step whose two terms lie more than
    about 745 apart: on an entrance chain, whose pi falls below the double
    range after a few hundred states, nearly every step of a running sum
    over log pi does.  Here each block of _LOG_BLOCK entries is shifted by
    its own maximum and summed linearly (np.cumsum of _exp_normal), the
    block totals are chained in log space, and each entry is its shift plus
    the log of

        exp(carry - shift) + the block's shifted terms up to it,

    with carry the log-sum of every block before and shift the larger of
    carry and the block's maximum, so that linear sum is at most
    _LOG_BLOCK + 1.  Where it falls below _BLOCK_FLOOR, the terms that
    _exp_normal dropped could matter and its log would lose digits: those
    positions, and every one before them, are np.logaddexp.accumulate of
    their prefix, and so are positions whose linear sum is not a number:
    from a NaN or +inf entry on, and before the first entry above -inf.
    """
    a = np.asarray(a, dtype=float)
    n = len(a)
    blocks = np.concatenate([a, np.full(-n % _LOG_BLOCK, -np.inf)]).reshape(-1, _LOG_BLOCK)
    with np.errstate(divide="ignore", invalid="ignore"):
        top = np.maximum.reduceat(blocks.ravel(), np.arange(0, blocks.size, _LOG_BLOCK))[:, None]
        partial = np.cumsum(_exp_normal(blocks - top), axis=1)
        carry = np.logaddexp.accumulate(top[:, 0] + np.log(partial[:, -1]))
        before = np.concatenate([[-np.inf], carry[:-1]])[:, None]
        shift = np.maximum(before, top)
        linear = _exp_normal(before - shift) + _exp_normal(top - shift) * partial
        out = (shift + np.log(linear)).ravel()[:n]
        low = np.flatnonzero(~(linear.ravel()[:n] >= _BLOCK_FLOOR))
        if low.size:
            out[: low[-1] + 1] = np.logaddexp.accumulate(a[: low[-1] + 1])
    return out


def higher_eigenvalues(b, d, k, guesses=None):
    """lambda_1..lambda_k of -K, ascending, with relative accuracy.

    Each value is the Dirichlet-form Rayleigh quotient of a vector
    inverse-iterated from an estimate of it.  The quotient is valid for
    signed vectors too (summation by parts against the reflecting top), and
    every summand is nonnegative.  The estimates are guesses (such as
    lambda_1..lambda_k of a smaller truncation) when each of them leads to
    its eigenvalue through _shifted_quotient; if any does not, or is
    missing or not finite, they come from the half-size ladder of
    higher_eigenpairs, whose foot bisects on the Sturm count, and from one
    bisection call on the chain where that fails too (_bisected_pairs).
    """
    return higher_eigenpairs(b, d, k, guesses)[0]


#: smallest rung of the half-size ladder: a chain has a rung below it only
#: when its half has at least this many states
LADDER_BASE = 64


def higher_eigenpairs(b, d, k, guesses=None, starts=None):
    """(lambda_1..lambda_k, their vectors) of -K, from warm starts where
    they can be vouched for; a vector is None where a bisected value has
    none that the re-shifted iteration vouches for (_bisected_pairs).

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
    InvalidParameter for a k outside 0..n-1.
    """
    if not 0 <= k < len(d):
        raise InvalidParameter(f"eigenvalue count {k} outside 0..{len(d) - 1}")
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
    """(lambda_1..lambda_k, vectors) from one bisection call
    (bisected_eigenvalues): each eigenvalue is the lower end of the adjacent
    doubles around it that the Sturm count certifies, and its vector that of
    _shifted_quotient started there, or None where that cannot vouch for
    one.  b and d are scaled to unit rates, so only an eigenvalue below the
    double range (a lower end of 0) raises NoConvergence."""
    pairs = []
    for idx, lam in enumerate(bisected_eigenvalues(b, d, 1, k), start=1):
        if lam == 0:
            raise NoConvergence(f"eigenvalue {idx} is below the double range")
        found = _shifted_quotient(b, d, idx, lam, w)
        pairs.append((lam, None if found is None else found[1]))
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
    b and d are unit rates (_unit_arrays), and each quotient is that of the
    unit-max solve (_unit_quotient), over the prefix that w weights.
    """
    lam, width, v = guess, np.inf, start
    diag = d + np.append(b, 0.0)
    for _ in range(MAX_RESHIFTS):
        try:
            v = _shifted_solves(b, d, diag, lam * (1 - 1e-8), v)
        except np.linalg.LinAlgError:
            return None
        if _sign_changes(v) != eig_index:
            return None
        lam, previous = _unit_quotient(b, d, v, w), lam
        step = abs(lam - previous) / lam
        if bracket_settled(step, width):
            return lam, np.abs(v) if eig_index == 0 else v
        if step >= width:
            return None
        width = step
    return None


def _sign_changes(v) -> int:
    """Sign changes of v over its nonzero entries, from their sign bits."""
    negative = np.signbit(v[v != 0])
    return int(np.count_nonzero(negative[1:] != negative[:-1]))


def _shifted_solves(b, d, diag, shift, start):
    """(-K - shift)^-1 applied to start, or three times to the ones vector,
    each result scaled to max |v| = 1 (LAPACK dgtsv); diag is d + b, the
    diagonal of -K.  Raises LinAlgError for a singular shift or a result
    that is not finite."""
    main = diag - shift
    v = np.ones(len(d)) if start is None else start
    for _ in range(3 if start is None else 1):
        *_, v, info = dgtsv(-d[1:], main, -b, v, overwrite_dl=1, overwrite_du=1)
        nrm = np.abs(v).max() if info == 0 else np.nan
        if not 0 < nrm < np.inf:
            raise np.linalg.LinAlgError("singular shift")
        v = v / nrm
    return v


#: steps of one perron_steps call, over every start and shift
MAX_POWER_STEPS = 1000

#: widest relative lambda0 bracket a pair is accepted on, which bounds the
#: pair's componentwise relative residual; slow narrowing below it runs out
RESIDUAL_RTOL = 1e-10


def bracket_settled(width: float, previous: float) -> bool:
    """Stop rule of every power iteration: the Collatz-Wielandt bracket's
    relative width has closed to about 4 ulps, or no longer narrows and is
    at most RESIDUAL_RTOL.  A wider bracket that stops narrowing is a
    plateau, not an answer."""
    return width <= _FOUR_EPS or RESIDUAL_RTOL >= width >= previous


@np.errstate(divide="ignore", invalid="ignore")  # f / g of a near-singular solve fails below
def perron_steps(solve, f, reshift, shift=0.0):
    """(lambda0, g, (lo, hi)): the ground pair of a = -K, K an irreducible
    killed generator, by power steps on solve = (a - shift I)^-1 from f.

    The one rule of every ground pair.  For a shift below lambda0 the solve
    is entrywise positive, so each step, which scales f to max 1 and takes
    g = solve(f), gives the Collatz-Wielandt bracket

        lo = shift + min f/g <= lambda0 <= shift + max f/g,

    and the next step starts from g.  A step whose ratios f/g are not all
    positive and finite raises NoConvergence.  The steps stop when
    bracket_settled holds for the relative width (hi - lo)/lo and the width
    of the step before, so an accepted bracket is at most RESIDUAL_RTOL
    wide, relatively, which bounds the pair's componentwise residual.
    lambda0 is the arithmetic midpoint (lo + hi)/2, which commutes exactly
    with a power-of-two rate scale, and g the last iterate.  A step that
    narrows a bracket still wider than RESIDUAL_RTOL by less than half is
    slow: reshift(lo, hi, g) then returns a new (solve, shift, f) to step
    on, from a fresh width, or None to keep stepping.  One cap of
    MAX_POWER_STEPS covers every step of every shift, and reaching it
    raises NoConvergence.
    """
    previous = math.inf
    for _ in range(MAX_POWER_STEPS):
        f = f / f.max()
        g = solve(f)
        ratio = f / g
        lo, hi = float(ratio.min()), float(ratio.max())
        if not 0 < lo <= hi < math.inf:
            raise NoConvergence("power step not positive and finite: -K is numerically singular")
        lo, hi = shift + lo, shift + hi
        width, f = (hi - lo) / lo, g
        if bracket_settled(width, previous):
            return (lo + hi) / 2, g, (lo, hi)
        if width > RESIDUAL_RTOL and 2 * width > previous:
            new = reshift(lo, hi, g)
            if new is not None:
                (solve, shift, f), width = new, math.inf
        previous = width
    raise NoConvergence(f"power steps not settled after {MAX_POWER_STEPS} steps: "
                        f"relative bracket width {width:.2e}")


def ground_pair(b, d, start=None):
    """Lowest eigenpair (lambda0, phi, (lo, hi)) of -K with phi(1) = 1: the
    pair and bracket of perron_steps on the Green operator G = (-K)^-1
    (_green_solve), phi the last iterate Gf.

    The steps run from the vector that inverse iteration settles on when
    shifted at each new Rayleigh quotient (_shifted_quotient), which usually
    leaves one or two steps to take.  The iteration starts from start, a
    positive vector of length n such as the ground vector of a smaller
    truncation padded with its last entry, or else from the first Green
    step G1 (the expected absorption times); when it cannot vouch for a
    vector, as when lambda0 sits so far below lambda1 that shifted solves
    drown in rounding, the steps run from that starting vector itself, and
    steps on G then converge fast.  The first slow step, and only the first,
    moves them to the vector inverse-iterated from lambda0 bisected on the
    Sturm count (_bisected_start), which is also the start when G1 leaves
    the double range.
    Everything runs on the rates scaled by 2^-_rate_exponent (_unit_arrays),
    and lambda0 and its bracket are scaled back exactly at the end, so every
    power-of-two rate scale gives the same bits: lambda0 times the scale
    and the same phi.
    Raises NoConvergence as perron_steps does, for a Green step that leaves
    the double range, for rates that span past it (_resolvable_unit_arrays),
    for a lambda0 below the smallest normal double, on the unit rates or
    scaled back, and when no shift gives the bisected start;
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
    b, d, k = _resolvable_unit_arrays(b, d)
    w = pi_weights(log_pi(b, d))
    solve = _green_solve(b, d)
    try:
        f = solve(np.ones(n)) if start is None else start
    except NoConvergence:
        f, later = _bisected_start(b, d), iter(())
    else:
        found = _shifted_quotient(b, d, 0, _unit_quotient(b, d, f / f.max(), w), w, start=f)
        f = f if found is None else found[1]
        # the bisected start, formed at the first slow step and only then
        later = ((solve, 0.0, _bisected_start(b, d)) for _ in range(1))
    lam0, f, (lo, hi) = perron_steps(solve, f, lambda *_: next(later, None))
    if not min(lo, math.ldexp(lo, k)) >= _TINY:
        raise NoConvergence(f"lambda0 {math.ldexp(lam0, k):.3e} is below the double range")
    return math.ldexp(lam0, k), f / f[0], (math.ldexp(lo, k), math.ldexp(hi, k))


def _bisected_start(b, d):
    """|v| for the first one-signed v inverse-iterated from the unit rates'
    lambda0 bisected on the Sturm count (bisected_eigenvalues), or from
    shifts below it; raises NoConvergence when no shift gives one."""
    diag = d + np.append(b, 0.0)
    lam, scale = bisected_eigenvalues(b, d, 0, 0)[0], float(diag.max())
    # shifts below zero still isolate phi where lambda0 is far below the rates
    for shift in (lam * (1 - 1e-8), lam - 1e-14 * scale, -1e-13 * scale, -1e-10 * scale):
        try:
            v = _shifted_solves(b, d, diag, shift, None)
        except np.linalg.LinAlgError:
            continue
        if np.all(v >= 0) or np.all(v <= 0):
            return np.abs(v)
    raise NoConvergence("no shifted solve gives a one-signed start vector")


def _green_solve(b, d):
    """The Green operator of the chain, f -> Gf for f with max 1.

    With y_z = sum_{y>=z} pi_y f(y) / (pi_z d_z), the closed form reads

        y_z = f(z)/d_z + (b_z/d_z) y_{z+1},   Gf(x) = sum_{z<=x} y_z,

    one back-substitution (BLAS dtbsv) and one running sum with positive
    terms and no pi.  Each y_z is at most Gf(z), so no value exceeds
    max Gf, about 1/lambda0 once f is near phi.  On unit rates (the largest
    in [1/2, 1)) a step leaves the double range only when the chain itself
    does: when phi spans past about 2^1022 (an f(x)/d_x or Gf(1)/max Gf
    below the smallest normal double), or when lambda0 lies so far below
    the largest rate that Gf overflows.  Such a step raises NoConvergence.
    """
    with np.errstate(over="ignore"):
        inv_d = 1.0 / d
        band = np.zeros((2, len(d)), order="F")
        band[0, 1:] = -(b * inv_d[:-1])

    def solve(f):
        rhs = f * inv_d
        if rhs.min() >= _TINY:
            g = np.cumsum(dtbsv(1, band, rhs, diag=1, overwrite_x=1))
            if g[-1] < np.inf and g[0] / g[-1] >= _TINY:
                return g
        raise NoConvergence("a Green step leaves the double range: phi spans past about "
                            "2^1022, or lambda0 lies below about 2^-1022 of the largest rate")

    return solve


# -- multi-precision oracle --------------------------------------------------

#: Newton steps from a relatively accurate start take a handful; from 0 (an
#: eigenvalue below the double range) they climb monotonically to it
_NEWTON_STEPS = 100
#: after a Newton step of relative size s the certificate is tried at the
#: relative width _NEWTON_MARGIN s^2: quadratic convergence, with room
_NEWTON_MARGIN = 10 ** 4


def oracle_context(dps: int) -> decimal.Context:
    """Decimal context of the oracle: dps digits, the widest exponent range.

    The traps are decimal's defaults, so a zero pivot raises a subclass of
    ZeroDivisionError (DivisionByZero, or DivisionUndefined for 0/0).
    """
    return decimal.Context(prec=dps, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _mp_rates(b, d):
    """The rates as lists of Decimals.  Decimal(float) is exact and reads no
    context, so one conversion serves every dps; the context rounds from the
    first operation on."""
    return ([*map(Decimal, np.asarray(b, dtype=float).tolist())],
            [*map(Decimal, np.asarray(d, dtype=float).tolist())])


def _top(b, d):
    """b_n, the last up-rate where it kills (len(b) = len(d)), else 0."""
    return b[len(d) - 1] if len(b) == len(d) else 0


def _oracle_digits(dps) -> int:
    """dps as the oracle's digits: InvalidParameter unless an integer from 1
    to decimal.MAX_PREC, the most a decimal context takes."""
    dps = _integer(dps, "dps", 1)
    if dps > decimal.MAX_PREC:
        raise InvalidParameter(f"dps must be at most {decimal.MAX_PREC}, got {dps}")
    return dps


def _count(b, d, sigma):
    """Number of eigenvalues of -K below sigma: the negative pivots q_x of
    the LDL' factorization of (symmetrized -K) - sigma, in the differential
    (stationary qd) form on the rates, over Decimals in an oracle context:

        t_1 = d_1 - sigma,  q_x = b_x + t_x,
        t_{x+1} = d_{x+1} t_x / q_x - sigma,  q_n = t_n + b_n,

    with b_n = _top(b, d).  The only subtraction is the shift, so the pivots
    are exact for rates perturbed by a few units in the last place each
    (Parlett & Dhillon 2000).
    """
    try:
        t, count = d[0] - sigma, 0
        for bx, dx in zip(b, d[1:]):
            q = bx + t
            count += q < 0
            t = dx * t / q - sigma
        return count + (t + _top(b, d) < 0)
    except ZeroDivisionError:
        # sigma is an eigenvalue of a leading block: count just above it
        return _count(b, d, sigma.next_plus())


def sturm_count(b, d, sigma: float) -> int:
    """Number of eigenvalues of -K at or below sigma: the stationary qd
    count of dlarrc on the factor _ldl of the rates scaled by
    2^-_rate_exponent, so the same at every power-of-two rate scale, and
    exact for rates perturbed by a few ulps each."""
    b, d, k = _unit_arrays(b, d)
    if math.frexp(sigma)[1] > k + 2:  # |sigma| >= 4 * 2^k, past every eigenvalue
        return len(d) if sigma > 0 else 0
    return _lapack.negcount(*_ldl(b, d))(math.ldexp(sigma, -k))


@np.errstate(divide="ignore")  # a d_x of 0: unit rates that span past the double range
def _ldl(b, d):
    """(D, L), reversed as dlarrc's L D L' takes them, with -K similar to
    U diag(D) U', U unit upper bidiagonal with L above its diagonal; no entry
    is a difference.  With a reflecting top (len(b) = len(d) - 1), D = d and
    L_x = sqrt(b_x / d_{x+1}), since B = U diag(sqrt(d)).  Where the last
    up-rate kills too (len(b) = len(d), a block below a removed state), the
    pivots are sums from the top down: D_m = d_m + b_m, e_m = b_m, and
    e_x = b_x e_{x+1} / D_{x+1}, D_x = d_x + e_x, L_x = sqrt(b_x d_{x+1}) / D_{x+1}.
    """
    if len(b) < len(d):
        return d[::-1], np.sqrt(b / d[1:])[::-1]
    e, pivots = b[-1], [d[-1] + b[-1]]
    for bx, dx in zip(b[-2::-1].tolist(), d[-2::-1].tolist()):
        e = bx * e / pivots[-1]
        pivots.append(dx + e)
    pivots = np.array(pivots)
    return pivots, np.sqrt(b[:-1] * d[1:])[::-1] / pivots[:-1]


def bisected_eigenvalues(b, d, first, last) -> np.ndarray:
    """Lower ends lo of the adjacent doubles around lambda_first..lambda_last
    of -K, by bisection on sturm_count's count (_ldl also takes a block
    killed at its top).  b and d are unit rates (_unit_arrays), so each lo
    keeps count(lo) <= index < count(hi) from hi = 4 and lo = the smallest
    normal double, which gives lo = 0 for an eigenvalue below it.  Midpoints
    are geometric while hi/lo > 4, so an eigenvalue hundreds of orders below
    the rates costs a dozen counts, then arithmetic (about 60 in all)."""
    count = _lapack.negcount(*_ldl(b, d))

    def bisect(index):
        lo, hi = _TINY, 4.0
        if count(lo) > index:
            return 0.0
        while True:
            mid = math.sqrt(lo) * math.sqrt(hi) if hi > 4 * lo else lo + (hi - lo) / 2
            if not lo < mid < hi:
                return lo
            if count(mid) > index:
                hi = mid
            else:
                lo = mid

    return np.array([bisect(index) for index in range(first, last + 1)])


def bisected_lambda0(b, d) -> float:
    """lambda0 of -K by bisected_eigenvalues on the rates scaled by
    2^-_rate_exponent, scaled back: the lower end of the adjacent doubles
    around it.  len(b) = len(d) when the last up-rate kills as well.
    Raises NoConvergence when lambda0 is below the double range."""
    b, d, k = _unit_arrays(b, d)
    lam = math.ldexp(bisected_eigenvalues(b, d, 0, 0)[0], k)
    if not lam >= _TINY:
        raise NoConvergence(f"lambda0 {lam:.3e} is below the double range")
    return lam


def _newton_step(b, bd, d, lam):
    """Newton step -p/p' for p(lam) = det(T - lam) = prod_x q_x, in one pass.

    Differentiating the recursion of _count in lam gives t'_1 = -1 and
    t'_{x+1} = b_x d_{x+1} t'_x / q_x^2 - 1, and p'/p = sum_x t'_x / q_x.  One
    loop carries t, t' and the sum, with one division per state (1/q_x); bd
    holds the products b_x d_{x+1}, formed once per precision.  Returns None
    at an exact zero pivot, which makes lam an eigenvalue at working
    precision.
    """
    try:
        t, dt, log_deriv = d[0] - lam, -1, 0
        for bx, bdx, dx in zip(b, bd, d[1:]):
            r = 1 / (bx + t)
            u = dt * r
            log_deriv += u
            dt = bdx * u * r - 1
            t = dx * t * r - lam
        return -1 / (log_deriv + dt / (t + _top(b, d)))
    except ZeroDivisionError:
        return None


def _bracket_pass(b, d, lo, hi):
    """(count at lo, count at hi, R(lo)), in one bottom-up pass.

    The twin of _count's recursion, run from state n down to state 1:

        s_n = b_n - sigma,  p_x = d_x + s_x,  s_{x-1} = b_{x-1} s_x / p_x - sigma,

    again subtracting only the shift.  It runs at lo and hi side by side and
    counts the negative pivots of each.  p_2..p_n are the pivots of the minor
    T~ without state 1, and at sigma = 0 every s_x is 0, so at a reflecting
    top R = prod_{x>=2} p_x(lo) / d_x is det(T~ - lo) / det(T~).  Runs over
    Decimals in an oracle context or over floats; a zero pivot raises a
    ZeroDivisionError.
    """
    top = _top(b, d)
    s_lo, s_hi = top - lo, top - hi
    below = above = 0
    ratio = 1
    for bx, dx in zip(reversed(b[:len(d) - 1]), reversed(d[1:])):
        p_lo, p_hi = dx + s_lo, dx + s_hi
        below += p_lo < 0
        above += p_hi < 0
        ratio *= p_lo / dx
        s_lo, s_hi = bx * s_lo / p_lo - lo, bx * s_hi / p_hi - hi
    return below + (d[0] + s_lo < 0), above + (d[0] + s_hi < 0), ratio


def _double_start(b, d, eig_index):
    """(lam, R), Decimals: lam the lower end of the adjacent doubles around
    the eigenvalue that the double-precision count certifies
    (bisected_eigenvalues on the rates scaled by 2^-k, scaled back exactly),
    and R of _bracket_pass at it in double precision on the scaled rates,
    or 0 where that R is not finite or meets a zero pivot."""
    bu, du, k = _unit_arrays(b, d)
    lam = float(bisected_eigenvalues(bu, du, eig_index, eig_index)[0])
    try:
        ratio = _bracket_pass(bu.tolist(), du.tolist(), lam, lam)[2]
    except ZeroDivisionError:
        ratio = 0.0
    with decimal.localcontext(oracle_context(2000)):  # exact: at most 1520 digits
        return Decimal(lam) * Decimal(2) ** k, Decimal(ratio) if math.isfinite(ratio) else 0


def _certified(rates, lam, eig_index, dps, rtol=0, ratio=0):
    """(lam, omega, R): the eigenvalue at dps digits from lam, certified in
    [lam (1 - omega), lam (1 + omega)], and R of that certificate pass.

    Newton steps (_newton_step); after a step of relative size s the width
    is omega = max(_NEWTON_MARGIN s^2, w), w = n 10^(5 - dps) being what
    rounding allows.  Once omega <= max(w, rtol R), R from the pass before
    (at first the ratio given), a certificate pass (_bracket_pass) runs and
    returns when its counts bracket the eigenvalue and omega <= max(w, rtol R)
    for its own R.  The steps stop at an exact zero pivot, at a step that
    does not shrink, or at one below w, and the last certificate must hold
    then.  A zero pivot of the certificate takes the counts from _count and
    R = 0.  Raises InvalidParameter for a dps too small to give w < 1 and
    NoConvergence when the certificate fails.
    """
    bm, dm = rates
    with decimal.localcontext(oracle_context(dps)):
        w = len(dm) * Decimal(10) ** (5 - dps)
        if w >= 1:
            raise InvalidParameter(f"dps = {dps} cannot resolve a chain of {len(dm)} states")

        def certificate():
            lo, hi = lam * (1 - omega), lam * (1 + omega)
            try:
                return _bracket_pass(bm, dm, lo, hi)
            except ZeroDivisionError:
                return _count(bm, dm, lo), _count(bm, dm, hi), 0

        bd = [bx * dx for bx, dx in zip(bm, dm[1:])]
        last, omega, counts = Decimal("Infinity"), w, None
        for _ in range(_NEWTON_STEPS):
            step = _newton_step(bm, bd, dm, lam)
            if step is None or abs(step) >= last:
                break
            lam += step
            last = abs(step)
            omega, counts = max(_NEWTON_MARGIN * (last / lam) ** 2, w), None
            if omega <= max(w, rtol * ratio):
                counts = certificate()
                ratio = counts[2]
                if counts[0] <= eig_index < counts[1] and omega <= max(w, rtol * ratio):
                    return lam, omega, ratio
            if last <= w * lam:
                break
        below, above, ratio = counts or certificate()
        if not below <= eig_index < above:
            raise NoConvergence(
                f"eigenvalue {eig_index} not certified at {lam:.20g}: "
                f"Sturm counts {below} and {above} at relative width {omega:.3g}"
            )
        return lam, omega, ratio


def mp_lambda(b, d, eig_index=0, dps=60):
    """Certified eigenvalue of -K with the given index, at dps decimal digits.

    Its certificate shares nothing with ground_pair, which is what lets
    bounds.exact_bd_amplitude check it.  The start is the lower end of the
    adjacent doubles around the eigenvalue, bisected on the double-precision
    Sturm count (about 60 counts) on the rates scaled by a power of two
    (_double_start).  From there the loop _certified takes decimal Newton
    steps and certifies with two decimal Sturm counts, in one bottom-up pass,
    at lam (1 - w) and lam (1 + w), w = n 10^(5 - dps): tried once 10^4 times
    a step's square is at most w lam^2, and after the last step.  The
    decimal pivots are exact for rates perturbed by a few units in the last
    digit each, and such a perturbation moves every eigenvalue of a
    birth-death chain relatively by at most about 2n times as much (-K is
    similar to B B' with B bidiagonal in the square roots of the rates), so
    w covers the rounding however far the eigenvalue sits below the rates.
    len(b) = len(d) when the last up-rate kills as well, as for a block
    below a removed state.
    Returns the eigenvalue as a Decimal of dps digits, relatively accurate
    to w.  Raises InvalidParameter for an index outside 0..n-1 or a dps
    outside 1..decimal.MAX_PREC or too small to give w < 1, and
    NoConvergence when the certificate fails.
    """
    n = len(d)
    dps = _oracle_digits(dps)
    if not 0 <= eig_index < n:
        raise InvalidParameter(f"eigenvalue index {eig_index} outside 0..{n - 1}")
    return _certified(_mp_rates(b, d), _double_start(b, d, eig_index)[0], eig_index, dps)[0]
