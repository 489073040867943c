"""Denumerable birth-death chains absorbed at 0, via reflecting truncations.

A rate family gives positive birth rates b_x and death rates d_x for every
x >= 1 (state 0 is absorbing, so b_0 = 0).  The boundary at infinity is an
entrance boundary when

    sum_x (pi_x b_x)^-1 sum_{y<=x} pi_y  diverges   (no explosion)       (R)
    sum_x (pi_x b_x)^-1 sum_{y>x}  pi_y  converges  (returns from infinity) (S)

with the product weights pi_1 = 1, pi_x = (b_1..b_{x-1})/(d_2..d_x).  Under
those conditions the spectrum of the killed operator is discrete, truncated
eigenvalues decrease monotonically to it as the reflecting cut grows, and the
eigenvector amplitude obeys a spectral-product bound whose infinite tail is
controlled through sum_n 1/lambda_n.

No finite computation decides series convergence in general; the entrance
check runs comparison diagnostics (geometric ratio, then a Raabe/Bertrand
exponent) on tail windows of the partial sums and reports `inconclusive`
whenever the statistics are unstable or sit in the boundary zone.

Each truncation's two Green pairs are solved once: a RateFamily keeps the
TruncationSeries of the latest eigen_convergence call on it, and
gap_identity_check reads the pairs of a truncation that series solved
instead of solving them again.  Its residual then differs from a cold
solve's only by rounding; at any other truncation, or on a family object
that no eigen_convergence call has returned for, it solves them cold.
"""

from __future__ import annotations

import ast
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import tridiag
from .errors import GapViolation, InvalidParameter, NoConvergence, NotConverged
from .generators import (AbsorbingGenerator, _finite_real, _integer, _read_json, _real_array,
                         build_birth_death)

INCONCLUSIVE = "inconclusive"
YES = "yes"
NO = "no"

#: Bertrand-exponent thresholds: |beta - 1| must clear this margin
BETA_MARGIN = 0.5
#: increments above this count as non-vanishing terms
FLAT_DLOG = -1e-9


@dataclass(frozen=True)
class RateFamily:
    """Callbacks x -> b_x, d_x for x >= 1; must be positive and deterministic.

    b_x and d_x depend on x alone, so the arrays of one truncation are exact
    prefixes of a larger one's: eigen_convergence realizes a schedule once,
    at its largest n, and slices every truncation from it.

    The object also keeps the TruncationSeries that the latest
    eigen_convergence call on it returned, in a private field outside the
    constructor, ==, hash and repr; gap_identity_check reads the pairs of
    the truncations it solved.  A new object, equal
    or not (dataclasses.replace included), starts with none.
    """

    b: Callable
    d: Callable
    name: str = "custom"
    _solved: TruncationSeries | None = field(default=None, init=False, compare=False,
                                              repr=False)

    @np.errstate(all="ignore")  # a NaN, infinite or zero rate is named below
    def realize(self, n: int):
        """Rate arrays (b_1..b_{n-1}, d_1..d_n) for the n-state truncation.

        InvalidParameter, naming the family, for rates that are not
        positive finite numbers, and for callbacks that fail on their
        arithmetic (ZeroDivisionError, OverflowError).
        """
        if _integer(n, "n") < 1:
            raise InvalidParameter("need n >= 1")
        xs = np.arange(1, n + 1, dtype=float)
        try:
            try:
                b = np.broadcast_to(np.asarray(self.b(xs[:-1]), dtype=float), (n - 1,)).copy()
                d = np.broadcast_to(np.asarray(self.d(xs), dtype=float), (n,)).copy()
            except (TypeError, ValueError):
                try:  # callbacks of one int x at a time
                    b = np.array([float(self.b(int(x))) for x in xs[:-1]])
                    d = np.array([float(self.d(int(x))) for x in xs])
                except (TypeError, ValueError) as exc:
                    raise InvalidParameter(
                        f"family {self.name!r} did not produce real rates: {exc}") from None
        except ArithmeticError as exc:
            raise InvalidParameter(
                f"family {self.name!r} failed on its rate arithmetic: {exc}") from None
        if np.any(b <= 0) or np.any(d <= 0):
            raise InvalidParameter(f"family {self.name!r} produced a non-positive rate")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(d))):
            raise InvalidParameter(f"family {self.name!r} produced a NaN or infinite rate")
        return b, d


def poisson_family() -> RateFamily:
    """b = 1, d_n = n; the weights pi are Poisson(1) restricted to n >= 1."""
    return RateFamily(lambda n: np.ones_like(np.asarray(n, dtype=float)),
                      lambda n: np.asarray(n, dtype=float), name="poisson")


def accelerated_poisson_family() -> RateFamily:
    """b_n = ln^2(e+n), d_n = n ln^2(e-1+n); same pi, sped up near infinity."""
    return RateFamily(
        lambda n: np.log(np.e + np.asarray(n, dtype=float)) ** 2,
        lambda n: np.asarray(n, dtype=float) * np.log(np.e - 1.0 + np.asarray(n, dtype=float)) ** 2,
        name="poisson-accelerated",
    )


def rho_family(rho: float) -> RateFamily:
    """Constant drift: b = rho, d = 1 on all of the state space."""
    if _finite_real(rho, "rho") <= 0:
        raise InvalidParameter("rho must be positive")
    return RateFamily(
        lambda n, r=float(rho): np.full_like(np.asarray(n, dtype=float), r),
        lambda n: np.ones_like(np.asarray(n, dtype=float)),
        name=f"rho:{rho}",
    )


#: what a rate expression may use besides numbers, n, + - * / ** and unary minus
_RATE_FUNCTIONS = {
    "log": np.log, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs,
    "minimum": np.minimum, "maximum": np.maximum,
}
_RATE_CONSTANTS = {"e": np.e, "pi": np.pi}
_RATE_OPERATORS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
}


def _rate_expression(expr) -> Callable:
    """Compile a rate expression in n into a function of n, without eval.

    The syntax tree is checked against a whitelist before anything runs:
    numbers, n, e, pi, + - * / **, unary minus and calls to the functions in
    _RATE_FUNCTIONS.  Anything else (attributes, subscripts, other names,
    keyword arguments, ...) raises InvalidParameter.
    """
    if not isinstance(expr, str):
        raise InvalidParameter(f"rate expression must be a string, got {expr!r}")
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise InvalidParameter(f"rate expression {expr!r}: {exc.msg}") from None

    def build(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            value = float(node.value)
            return lambda n: value
        if isinstance(node, ast.Name) and node.id == "n":
            return lambda n: n
        if isinstance(node, ast.Name) and node.id in _RATE_CONSTANTS:
            value = _RATE_CONSTANTS[node.id]
            return lambda n: value
        if isinstance(node, ast.BinOp) and type(node.op) in _RATE_OPERATORS:
            op, left, right = _RATE_OPERATORS[type(node.op)], build(node.left), build(node.right)
            return lambda n: op(left(n), right(n))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            operand = build(node.operand)
            return lambda n: -operand(n)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _RATE_FUNCTIONS and not node.keywords):
            fn, args = _RATE_FUNCTIONS[node.func.id], [build(a) for a in node.args]
            return lambda n: fn(*(a(n) for a in args))
        raise InvalidParameter(
            f"rate expression {expr!r}: {ast.unparse(node)!r} is not allowed"
        )

    body = build(tree.body)

    def rate(n):
        # a NaN or inf from numpy reaches RateFamily.realize, which names it
        try:
            with np.errstate(all="ignore"):
                return body(np.asarray(n, dtype=float))
        except ArithmeticError as exc:
            raise InvalidParameter(f"rate expression {expr!r}: {exc}") from None

    return rate


def parse_rate_family(spec: str) -> RateFamily:
    """Named family ('poisson', 'poisson-accelerated', 'rho:R') or an
    expression file: JSON with keys 'b' and 'd' holding expressions in n
    (see _rate_expression for what they may contain)."""
    if spec == "poisson":
        return poisson_family()
    if spec == "poisson-accelerated":
        return accelerated_poisson_family()
    if isinstance(spec, str) and spec.startswith("rho:"):
        try:
            return rho_family(float(spec[4:]))
        except ValueError:
            raise InvalidParameter(f"rate family {spec!r}: rho is not a number") from None
    obj = _read_json(spec, "rate family")
    if not isinstance(obj, dict) or not {"b", "d"} <= obj.keys():
        raise InvalidParameter(f"{spec}: need a JSON object with keys 'b' and 'd'")
    return RateFamily(_rate_expression(obj["b"]), _rate_expression(obj["d"]), name=spec)


def _realize(rates: RateFamily, n: int):
    """rates.realize(n), or InvalidParameter unless rates is a RateFamily."""
    if not isinstance(rates, RateFamily):
        raise InvalidParameter(f"rates must be a RateFamily, not {type(rates).__name__}")
    return rates.realize(n)


# -- pi measure and entrance diagnostics -------------------------------------


def log_pi_measure(rates: RateFamily, n: int) -> np.ndarray:
    b, d = _realize(rates, n)
    return tridiag.log_pi(b, d)


def pi_measure(rates: RateFamily, n: int) -> np.ndarray:
    """pi_1..pi_n computed in log-space and exponentiated at the end.

    Raises InvalidParameter where some pi_x is not a finite double; the log
    weights of log_pi_measure stay in range much longer.
    """
    lp = log_pi_measure(rates, n)
    with np.errstate(over="ignore"):
        pi = np.exp(lp)
    if not np.all(np.isfinite(pi)):
        raise InvalidParameter(f"pi_x for x <= {n} leaves the double range; use log_pi_measure")
    return pi


@dataclass(frozen=True)
class EntranceVerdict:
    r_series_diverges: str
    s_series_converges: str
    r_partial_sums: np.ndarray
    s_partial_sums: np.ndarray
    z_partial: float
    diagnostics: dict

    @property
    def is_entrance_boundary(self) -> bool | None:
        if self.r_series_diverges == YES and self.s_series_converges == YES:
            return True
        if NO in (self.r_series_diverges, self.s_series_converges):
            return False
        return None


def _log_suffix_excl(a):
    """log of sum over strictly later indices; last entry is -inf."""
    rev = tridiag.log_cumsum(a[::-1])[::-1]
    out = np.full_like(a, -np.inf)
    out[:-1] = rev[1:]
    return out


def _series_stats(logt, lo, hi):
    """Bertrand exponents beta_x = ln(x) (x (t_x/t_{x+1} - 1) - 1) over a window.

    For t_x ~ x^-p the exponent drifts to sign(p-1) * infinity, for
    t_x ~ 1/(x ln^q x) it settles at q, and for geometric decay it blows up
    positively, so thresholding beta around 1 decides all three scales at
    once.  Returns (10th percentile, 90th percentile, median log increment).
    """
    xs = np.arange(lo, hi, dtype=float)
    dl = logt[lo - 1 : hi - 1] - logt[lo:hi]
    rho = xs * np.expm1(dl)
    beta = np.log(xs) * (rho - 1.0)
    beta_10, beta_90 = np.percentile(beta, [10, 90])
    return float(beta_10), float(beta_90), float(np.median(-dl))


def _classify(logt, lo, hi):
    """'converges' / 'diverges' / inconclusive for sum of exp(logt)."""
    if hi - lo < 8:
        return INCONCLUSIVE
    beta_10, beta_90, med_dlog = _series_stats(logt, lo, hi)
    if med_dlog >= FLAT_DLOG:
        return "diverges"
    if beta_10 > 1.0 + BETA_MARGIN:
        return "converges"
    if beta_90 < 1.0 - BETA_MARGIN:
        return "diverges"
    return INCONCLUSIVE


def entrance_check(rates: RateFamily, cutoff: int) -> EntranceVerdict:
    """Diagnose conditions (R) and (S) from the first `cutoff` states.

    The (R) terms use exact prefix sums; the (S) terms need the tail of pi,
    so they are computed from the truncated tail and accepted only when the
    verdict is stable under halving the cutoff (otherwise inconclusive).
    A non-summable pi forces (S) to fail outright: every true term is
    infinite.
    """
    m = _integer(cutoff, "cutoff", 10)
    b, d = _realize(rates, m)
    lp = tridiag.log_pi(b, d)
    log_z = tridiag.log_cumsum(lp)

    log_r = -lp[:-1] - np.log(b) + log_z[:-1]
    log_s = -lp[:-1] - np.log(b) + _log_suffix_excl(lp)[:-1]

    # the partial sums are reported in the linear domain, so they are summed there
    with np.errstate(over="ignore"):
        r_partial = np.cumsum(np.exp(log_r))
        s_partial = np.cumsum(np.exp(log_s))
        z_partial = float(np.exp(log_z[-1]))

    diagnostics = {}

    # (R): exact terms, analyse the latest window
    r_class = _classify(log_r, max(10, m // 2), m - 1)
    diagnostics["r_class"] = r_class
    r_verdict = {"diverges": YES, "converges": NO}.get(r_class, INCONCLUSIVE)

    # (S): pi must be summable for the truncated tails to mean anything
    pi_class = _classify(lp, max(10, m // 2), m)
    diagnostics["pi_class"] = pi_class
    if pi_class == "diverges":
        s_verdict = NO
    elif pi_class == INCONCLUSIVE:
        s_verdict = INCONCLUSIVE
    else:
        s_class = _classify(log_s, max(10, m // 4), m // 2)
        lp_half = lp[: m // 2]
        log_s_half = -lp_half[:-1] - np.log(b[: m // 2 - 1]) + _log_suffix_excl(lp_half)[:-1]
        s_class_half = _classify(log_s_half, max(10, m // 8), m // 4)
        diagnostics["s_class"] = s_class
        diagnostics["s_class_half_cutoff"] = s_class_half
        if s_class == s_class_half and s_class != INCONCLUSIVE:
            s_verdict = YES if s_class == "converges" else NO
        else:
            s_verdict = INCONCLUSIVE

    return EntranceVerdict(
        r_series_diverges=r_verdict,
        s_series_converges=s_verdict,
        r_partial_sums=r_partial,
        s_partial_sums=s_partial,
        z_partial=z_partial,
        diagnostics=diagnostics,
    )


# -- truncation pipeline ------------------------------------------------------


def truncate_neumann(rates: RateFamily, n: int) -> AbsorbingGenerator:
    """Reflecting truncation at n: interior rates from the family, absorption
    d_1 out of state 1, and a top row that only jumps down at rate d_n."""
    b, d = _realize(rates, _integer(n, "n", 2))
    return build_birth_death(b, d)


@dataclass(frozen=True)
class TruncationSeries:
    """Eigenvalue tables over a truncation schedule, plus declared limits.

    phi_list and phi_prime_list hold each truncation's ground vector and
    its minor's (without state 1), both with first entry 1.  eigen_convergence
    returns every array read-only, and the vector lists as tuples: the
    family keeps the same series (RateFamily), so a change to it would
    change what a later gap_identity_check reads.
    """

    ns: tuple
    lambda_table: np.ndarray        # shape (len(ns), n_max+1), +inf where n >= N
    lambda0_prime_table: np.ndarray
    phi_list: tuple
    phi_prime_list: tuple
    limits: np.ndarray              # NaN where undeclared
    lambda0_prime_limit: float
    lambda_monotone: bool
    lambda0_prime_monotone: bool
    phi_nondecreasing: bool
    tol: float

    @property
    def lambda0_limit(self) -> float:
        return float(self.limits[0])

    def amplitudes(self) -> np.ndarray:
        return np.array([float(p.max() / p.min()) for p in self.phi_list])


MONOTONE_SLACK = 1e-12


def eigen_convergence(rates: RateFamily, n_max: int, schedule, tol: float) -> TruncationSeries:
    """lambda_{N,n} for n <= n_max over an increasing truncation schedule.

    The family is realized once, at the schedule's largest n, and each
    truncation takes its rates as prefixes of those (RateFamily).  The
    ground column, phi and lambda0' come from the Green-operator routine
    tridiag.ground_pair; the higher columns come from the Dirichlet-form
    Rayleigh quotients of inverse-iterated vectors (tridiag.higher_eigenpairs).
    Both keep full relative accuracy.  The first truncation's ground pairs
    start from the first Green step G1, and its lambda_1..lambda_k from the
    half-size ladder, which, when every rung holds, bisects only on a prefix
    of fewer than 2 tridiag.LADDER_BASE states.  Each later truncation
    starts from the one before it: phi and the minor's phi', padded with
    their last entries (tridiag.padded), as ground_pair's starts, and
    lambda_1..lambda_k as guesses, with their eigenvectors padded the same
    way as the start of one shifted solve each; where they do not lead to
    their eigenvalues, the ladder and then bisection take over.  Each column
    must be non-increasing in N (checked with slack 1e-12).  A column's
    limit is declared once the relative change between consecutive
    truncations drops below tol.  Failure to resolve the ground column
    raises NotConverged.

    The series returned is also kept on the family object, in place of the
    one an earlier call kept there (RateFamily); a call that raises keeps
    nothing.  gap_identity_check then reads the pairs of the schedule's
    truncations from it rather than solve them again.
    """
    # entries of 2 or more, as truncate_neumann requires
    schedule = [_integer(n, "schedule entry", 2) for n in schedule] if np.iterable(schedule) else []
    if len(schedule) < 2 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise InvalidParameter("schedule must be increasing with >= 2 entries")
    if _finite_real(tol, "tol") <= 0:
        raise InvalidParameter("tol must be positive")
    n_max = _integer(n_max, "n_max", 0)
    rows = []
    rows_prime = []
    phi_list = []
    phi_prime_list = []
    phi = phi_prime = guesses = None  # the truncation before, to start from
    vectors = []
    b_all, d_all = _realize(rates, schedule[-1])
    for n in schedule:
        b, d = b_all[: n - 1], d_all[:n]
        lam_row = np.full(n_max + 1, np.inf)
        lam_row[0], phi, _ = tridiag.ground_pair(b, d, tridiag.padded(phi, n))
        k = min(n_max, n - 1)
        lam_row[1 : k + 1], vectors = tridiag.higher_eigenpairs(
            b, d, k, guesses, [tridiag.padded(v, n) for v in vectors])
        lam0p, phi_prime, _ = tridiag.ground_pair(b[1:], d[1:],
                                                  tridiag.padded(phi_prime, n - 1))
        rows.append(lam_row)
        rows_prime.append(lam0p)
        phi_list.append(phi)
        phi_prime_list.append(phi_prime)
        guesses = lam_row[1:]
    table = np.array(rows)
    prime = np.array(rows_prime)

    def non_increasing(col):
        # +inf marks indices a truncation does not have; NaN is a failed solve
        if np.isnan(col).any():
            return False
        c = col[np.isfinite(col)]
        return bool(np.all(np.diff(c) <= MONOTONE_SLACK * np.maximum(c[:-1], 1.0)))

    lambda_monotone = all(non_increasing(table[:, j]) for j in range(n_max + 1))
    prime_monotone = non_increasing(prime)
    phi_ok = all(
        np.all(np.diff(p) >= -MONOTONE_SLACK * p.max()) for p in phi_list
    )

    limits = np.full(n_max + 1, np.nan)
    for j in range(n_max + 1):
        a, bb = table[-2, j], table[-1, j]
        if np.isfinite(bb) and abs(bb - a) <= tol * abs(bb):
            limits[j] = bb
    prime_limit = float("nan")
    if abs(prime[-1] - prime[-2]) <= tol * abs(prime[-1]):
        prime_limit = float(prime[-1])
    if np.isnan(limits[0]):
        deltas = np.abs(np.diff(table[:, 0])) / table[1:, 0]
        raise NotConverged(
            f"ground eigenvalue not resolved at tol {tol}; last relative deltas "
            f"{deltas[-3:].tolist()}"
        )
    for a in (table, prime, limits, *phi_list, *phi_prime_list):
        a.flags.writeable = False
    series = TruncationSeries(
        ns=tuple(schedule),
        lambda_table=table,
        lambda0_prime_table=prime,
        phi_list=tuple(phi_list),
        phi_prime_list=tuple(phi_prime_list),
        limits=limits,
        lambda0_prime_limit=prime_limit,
        lambda_monotone=lambda_monotone,
        lambda0_prime_monotone=prime_monotone,
        phi_nondecreasing=phi_ok,
        tol=tol,
    )
    object.__setattr__(rates, "_solved", series)  # the family is frozen to its callers
    return series


@dataclass(frozen=True)
class TheoremBoundReport:
    """Amplitude bound with the infinite tail itemized."""

    bound: float
    lambda0: float
    lambda0_prime: float
    base_factors: tuple
    tail_factor: float
    tail_bound: float
    log_concavity_c: float
    tail_certified: bool

    def __float__(self):
        return self.bound


def theorem_bound(limits, n_used: int | None = None, tail_bound: float = 0.0,
                  tail_certified: bool = False) -> TheoremBoundReport:
    """Spectral amplitude bound for the denumerable chain.

    `limits` is either a TruncationSeries or a mapping with keys 'lambda0',
    'lambda0_prime' and 'lambdas' (the higher eigenvalue limits, ascending).
    The first n_used higher eigenvalues (all of them when n_used is None)
    contribute exact factors (1 - lambda0/lambda_n); each must be declared,
    and a NaN among them raises NotConverged.  The remaining tail is
    controlled by a certified (or estimated) bound T on
    sum_{n > n_used} 1/lambda_n through

        prod_tail (1 - lambda0/lambda_n) >= exp(-c lambda0 T),

    with c chosen so -log(1-u) <= c u on the realized range u <= u_max.
    tail_bound = 0 reduces exactly to the finite spectral bound.  The bound
    is math.inf where the factors' product underflows: it then exceeds the
    largest double, which it still bounds.  A lambda0 that is not finite and
    positive raises InvalidParameter.
    """
    if isinstance(limits, TruncationSeries):
        lam0 = float(limits.limits[0])
        lambdas = limits.limits[1:]
        lam0p = float(limits.lambda0_prime_limit)
    elif isinstance(limits, Mapping) and all(isinstance(limits.get(k), numbers.Real)
                                             for k in ("lambda0", "lambda0_prime")):
        lam0 = float(limits["lambda0"])
        lam0p = float(limits["lambda0_prime"])
        lambdas = _real_array(limits.get("lambdas"), "lambdas must be finite numbers", (None,))
    else:
        raise InvalidParameter("limits must be a TruncationSeries or a mapping of real limits")
    if math.isnan(lam0) or math.isnan(lam0p):
        raise NotConverged(f"undeclared limit: lambda0 = {lam0}, lambda0' = {lam0p}")
    if not 0 < lam0 < math.inf:
        raise InvalidParameter(f"lambda0 {lam0} is not finite and positive")
    if n_used is not None:
        if not 0 <= _integer(n_used, "n_used") <= len(lambdas):
            raise InvalidParameter(f"n_used = {n_used} outside 0..{len(lambdas)}")
        lambdas = lambdas[:n_used]
    # an undeclared limit cannot be skipped: its factor would drop out
    undeclared = np.flatnonzero(np.isnan(lambdas))
    if undeclared.size:
        raise NotConverged(f"undeclared limit lambda_{int(undeclared[0]) + 1}")
    # a NaN fails every comparison, and an inf tail makes the bound 1/0
    if _finite_real(tail_bound, "tail_bound") < 0:
        raise InvalidParameter(f"tail_bound must be finite and nonnegative, got {tail_bound}")
    if not math.isinf(lam0p) and lam0p <= lam0:
        raise GapViolation(f"lambda0' = {lam0p} <= lambda0 = {lam0}")
    factors = [1.0 - lam0 / lam0p if not math.isinf(lam0p) else 1.0]
    factors += [1.0 - lam0 / float(l) for l in lambdas]
    if min(factors) <= 0:
        raise GapViolation("an eigenvalue limit at or below lambda0")
    c = 1.0
    tail_factor = 1.0
    if tail_bound > 0:
        u_max = lam0 / float(lambdas[-1]) if len(lambdas) else lam0 / lam0p
        # -log(1-u)/u increases from its u -> 0 limit 1
        c = -math.log1p(-u_max) / u_max if u_max > 0 else 1.0
        tail_factor = math.exp(-c * lam0 * tail_bound)
    prod = float(np.prod(factors)) * tail_factor
    bound = math.inf if prod == 0 else 1.0 / prod
    return TheoremBoundReport(
        bound=bound,
        lambda0=lam0,
        lambda0_prime=lam0p,
        base_factors=tuple(factors),
        tail_factor=tail_factor,
        tail_bound=tail_bound,
        log_concavity_c=c,
        tail_certified=tail_certified,
    )


#: the trace identity for the tail loses log10(trace / tail) digits to the
#: subtraction; beyond four of them the O(n^2) spectrum sum is used instead.
#: Entrance chains lose one or two, chains drifting to infinity all of them.
TRACE_CANCELLATION_LIMIT = 1e4


def tail_sum_estimate(rates: RateFamily, n: int, n_used: int) -> float:
    """sum_{k > n_used} 1/lambda_{N,k} for the truncation at n.

    Computed in O(n) from the Green trace, which sums every 1/lambda_k:

        tail = green_trace - 1/lambda0 - sum_{k=1..n_used} 1/lambda_k,

    with lambda0 from tridiag.ground_pair and the rest from
    tridiag.higher_eigenvalues, all relatively accurate; those start from
    the chain's own half-size truncation, down a ladder of halvings that
    bisects only on a prefix of fewer than 2 tridiag.LADDER_BASE states
    (and on the chain itself where a rung's warm solves fail).  It solves
    truncation n itself even where the family's latest eigen_convergence
    solved it, so the value does not depend on what ran before.  When the
    subtraction would cancel more than TRACE_CANCELLATION_LIMIT allows, or
    the ground pair raises NoConvergence, the tail is summed over the
    full spectrum instead, which dqds gives with relative accuracy
    (tridiag.spectrum).  Exact for the truncated operator; as an
    estimate of the limiting tail it is uncertified (truncated eigenvalues
    only bound their limits from above, and the truncation carries finitely
    many modes).
    """
    n_used = _integer(n_used, "n_used", 0)
    b, d = _realize(rates, n)
    if n_used >= n - 1:
        return 0.0
    trace = tridiag.green_trace(b, d)
    try:
        lam0 = tridiag.ground_pair(b, d)[0]
    except NoConvergence:
        # phi or lambda0 outside the double range, or a bracket that does
        # not settle: no certified lambda0, so the NaN tail selects the
        # spectrum sum
        lam0 = math.nan
    head = 1.0 / lam0 + float(np.sum(1.0 / tridiag.higher_eigenvalues(b, d, n_used)))
    tail = trace - head
    if np.isfinite(trace) and trace <= TRACE_CANCELLATION_LIMIT * tail:
        return tail
    return float(np.sum(1.0 / tridiag.spectrum(b, d)[n_used + 1 :]))


def gap_identity_check(rates: RateFamily, n: int) -> float:
    """Relative residual of the gap identity at truncation n.

    The identity reads lambda0' - lambda0 = pi(1) b_1 phi'(2) phi(1) / pi[phi' phi]
    with phi' the minor eigenvector extended by phi'(1) = 0; it holds exactly
    for the truncated operators.  lambda0, phi, lambda0' and phi' come from
    the latest eigen_convergence on this family object when it solved
    truncation n, and from tridiag.ground_pair otherwise.
    """
    n = _integer(n, "n", 2)
    b, d = _realize(rates, n)
    series = rates._solved
    if series is not None and n in series.ns:
        row = series.ns.index(n)
        lam0, phi = float(series.lambda_table[row, 0]), series.phi_list[row]
        lam0p, phip = float(series.lambda0_prime_table[row]), series.phi_prime_list[row]
    else:
        lam0, phi, _ = tridiag.ground_pair(b, d)
        lam0p, phip, _ = tridiag.ground_pair(b[1:], d[1:])
    lp = tridiag.log_pi(b, d)
    pis = tridiag._exp_normal(lp - lp.max())
    phip_ext = np.concatenate([[0.0], phip])
    rhs = pis[0] * b[0] * phip_ext[1] * phi[0] / float(np.sum(pis * phip_ext * phi))
    gap = lam0p - lam0
    if gap <= 0:
        raise GapViolation(f"lambda0' - lambda0 = {gap} <= 0 at truncation {n}")
    return abs(gap - rhs) / gap


def hitting_time_from(rates: RateFamily, x: int) -> float:
    """Expected time to reach state 1 from x:
    sum_{y=1}^{x-1} (pi_y b_y)^-1 sum_{z=y+1}^{x} pi_z; zero for x = 1, and
    inf when it leaves the double range."""
    x = _integer(x, "x", 1)
    if x == 1:
        return 0.0
    b, d = _realize(rates, x)
    lp = tridiag.log_pi(b, d)
    log_tail = _log_suffix_excl(lp)  # log sum_{z > y} pi_z, z <= x
    return tridiag._sum_exp(log_tail[:-1] - lp[:-1] - np.log(b))


def lyapunov_check(rates: RateFamily, phi, lam: float, n: int, tol: float = 1e-12):
    """Check K[phi](x) <= -lam phi(x) + tol on the interior x = 1..n-1.

    phi is given on 1..n with phi(0) = 0 implied; the row at n touches
    b_n and is excluded (one-sided boundary handling).  Returns
    (ok, worst_slack) with slack(x) = -lam phi(x) - K[phi](x).  Raises
    InvalidParameter for a phi that is not positive and finite on 1..n, or
    a lam or tol that is not finite.
    """
    _integer(n, "n", 2)
    phi = _real_array(phi, f"phi must be {n} finite numbers", (n,))
    if np.any(phi <= 0):
        raise InvalidParameter("phi must be positive and finite on 1..n")
    lam, tol = _finite_real(lam, "lam"), _finite_real(tol, "tol")
    b, d = _realize(rates, n)
    x = np.arange(0, n - 1)
    phi_prev = np.concatenate([[0.0], phi[:-2]]) if n > 2 else np.array([0.0])
    k_phi = d[x] * phi_prev - (b[x] + d[x]) * phi[x] + b[x] * phi[x + 1]
    slack = -lam * phi[x] - k_phi
    worst = float(slack.min())
    return worst >= -tol, worst


def dirichlet_form(rates: RateFamily, f, n: int) -> float:
    """Rayleigh quotient E(f)/eta(f^2) of the reflecting truncation at n.

    E(f) = eta(1) d_1 f(1)^2 + sum_{x<n} eta(x) b_x (f(x+1)-f(x))^2, with the
    Neumann convention f(n+1) = f(n).  The quotient is at least the ground
    eigenvalue, with equality on its eigenvector.  Raises InvalidParameter
    for an f that is not n finite numbers, not all zero.
    """
    message = f"f must be {n} finite numbers, not all zero"
    f = _real_array(f, message, (n,))
    if not np.any(f):
        raise InvalidParameter(message)
    b, d = _realize(rates, n)
    return tridiag.rayleigh_quotient(b, d, f)
