"""Trajectory-level Monte Carlo and conditioned-evolution experiments.

Trajectories follow the minimal-process construction: hold at x for an
exponential time with the exit rate |L(x,x)|, then jump with probabilities
L(x,y)/|L(x,x)| over surviving states and the absorbing point.  Estimators
verify the stochastic representation of eigenvector ratios
(phi(x)/phi(y) = E[exp(lambda0 tau_y) 1{tau_y < tau_oo}]), the exponential
absorption law from the quasi-stationary start, and the two-sided transfer
inequality between conditioned evolution and the Doob-transformed chain.

Jumps are drawn from a sparse table built once per call from the
generator's CSR rates, never from the dense generator.  Each state lists
the columns with a positive rate, in column order with absorption last,
padded to the largest out-degree, beside the cumulative jump probabilities
summed in that order.
The next state is the column whose slot equals the number of thresholds
below a uniform; the last threshold of every row is +inf, so the uniform
always lands on a column with a positive rate, whatever its rounding.

The batch kernel draws in chunks.  At each chunk start, with a
trajectories running, it draws a CHUNK x a array of exponentials and then
one of uniforms; column i belongs to the i-th running trajectory in index
order, which takes its j-th step of the chunk with row j.  A trajectory
that ends mid-chunk discards the draws it has left, and the running set is
compacted only at chunk ends, so two generator calls and one compaction
serve CHUNK steps.  While more than TAIL trajectories run, a chunk is
stepped as arrays on flat tables indexed by state * w, with rows for the
two terminal codes (absorbed, target) that lead to themselves with holding
scale 0: an ended trajectory stays put and adds exactly 0.0 to its time
until the chunk ends.  The last TAIL trajectories of a block, often the
slowest few, would pay a step's fixed cost of numpy calls for a handful of
jumps, so their chunks are stepped column by column with Python scalars on
the list form of the table (as is sample_path, a block of one path).  Both
phases read the same draws, add the holds in the same order with the same
double-precision operations, and pick the same slot (the number of
thresholds below u, counted by comparison or by bisection of the ascending
row), so samples do not depend on where the phases meet.  EVENT_BUDGET
counts jumps, not draws: the array phase checks it once per chunk, the
scalar phase at every jump.

Sampling is reproducible: a base seed is split into one child stream per
fixed-size block, and block results are merged in block order.  The n_jobs
keyword of the estimators is accepted and has no effect: the kernel holds
the GIL for most of a step, so threads cannot overlap its blocks.

sandwich_experiment reads the conditioned and the Doob law off one
propagation mu0 exp(tK) per time, and nu as spectral's QSD route forms it:
pi * phi from the pair in hand for a birth-death chain, the transposed power
steps otherwise.  doob_transform's dense generator serves demos and checks.
expm_action sums the uniformized series at t / 2^s, where
Theta t / 2^s <= 1/2, and squares the result s times: every step adds
nonnegative terms, and the cost grows with log t rather than t.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import EventBudgetExceeded, HeavyTailWarning, InvalidParameter, UnderflowWarning
from .generators import AbsorbingGenerator, _finite_real, _generator, _integer, _real_array, _state
from .spectral import DirichletEigenpair, _qsd, dirichlet_eigenpair

EVENT_BUDGET = 100_000_000
BLOCK_SIZE = 16_384
#: a block's last TAIL running trajectories are stepped with Python scalars
TAIL = 16
#: steps drawn at once for each running trajectory
CHUNK = 16


@dataclass(frozen=True)
class TrajectoryOutcome:
    hit_target: bool
    elapsed: float
    absorbed: bool
    events: int


@dataclass(frozen=True)
class EstimateWithCI:
    """Monte Carlo estimate with its standard error and replay data."""

    mean: float
    std_error: float
    n_samples: int
    seed: int


def _jump_table(gen: AbsorbingGenerator):
    """Sparse jump table (scale, cols, thresh), built from the generator's CSR.

    cols[s] lists the columns with a positive rate out of state s, in column
    order with absorption last (encoded as n_states), padded to the maximum
    out-degree w.  thresh[k, s] is the cumulative jump probability of the
    first k + 1 of them, summed slot by slot in the same order, so it equals
    the dense cumulative table's entry bit for bit; the last real slot and
    the padding hold +inf, so a uniform always lands on a real column.
    thresh is slot-major, (w, n_states).  scale is the mean holding time
    1 / |L(s,s)|.
    """
    n = gen.n_states
    rows, cols, vals = gen._coo
    rates = -gen.diagonal
    a = gen.absorption_rates
    indptr = gen._csr.indptr
    internal = np.diff(indptr)
    slot = np.arange(rows.size) - indptr[rows]
    exits = np.flatnonzero(a > 0)
    deg = internal + (a > 0)
    w = int(deg.max())
    table_cols = np.full((n, w), n, dtype=np.int64)
    table_cols[rows, slot] = cols
    probs = np.zeros((w, n))
    probs[slot, rows] = vals / rates[rows]
    probs[internal[exits], exits] = a[exits] / rates[exits]
    thresh = np.cumsum(probs, axis=0)
    thresh[np.arange(w)[:, None] >= deg - 1] = np.inf
    return 1.0 / rates, table_cols, thresh


def sample_path(gen: AbsorbingGenerator, start: int, target: int | None,
                rng: np.random.Generator) -> TrajectoryOutcome:
    """Simulate one trajectory until the target is hit or the path is absorbed.

    start == target reports an immediate hit at elapsed time zero.  rng is
    a numpy Generator or RandomState, or anything with their
    standard_exponential and random methods.  The path is a block of one,
    so it draws whole chunks of CHUNK exponentials and CHUNK uniforms and
    discards what it leaves unused: consecutive calls on one rng consume
    whole chunks.
    """
    _generator(gen, "sampling")
    if not all(callable(getattr(rng, m, None)) for m in ("standard_exponential", "random")):
        raise InvalidParameter(f"rng must be a numpy Generator or RandomState, not {type(rng).__name__}")
    start = _state(gen, start, "start state")
    target0 = None if target is None else _state(gen, target, "target state") - 1
    elapsed, hit, events = _simulate_block(_jump_table(gen), np.array([start - 1]), target0, rng)
    return TrajectoryOutcome(bool(hit[0]), float(elapsed[0]), not hit[0], events)


def _simulate_block(table, starts, target0, rng):
    """Batch of trajectories; returns the (elapsed, hit) arrays and the
    number of jumps taken.

    target0 is a 0-based state index or None (run to absorption).  Each
    chunk draws CHUNK x a exponentials and then CHUNK x a uniforms for the a
    running trajectories; column i serves the i-th of them, in index order,
    one row per step.  The chunks are stepped as arrays while more than TAIL
    run, then column by column with Python scalars.
    """
    scale, cols, thresh = table
    n, w = cols.shape
    m = len(starts)
    elapsed = np.zeros(m)
    hit = np.zeros(m, dtype=bool)
    idx = np.arange(m)
    state = starts
    if target0 is not None:
        immediate = starts == target0
        hit[immediate] = True
        idx, state = idx[~immediate], starts[~immediate]
        # the target's column becomes a second terminal code, n + 1
        cols = np.where(cols == target0, n + 1, cols)
    t = np.zeros(idx.size)
    total_events = 0
    if idx.size > TAIL:
        # flat tables indexed by state * w, with rows for the terminal codes:
        # each leads to itself and holds for 0, so an ended path stays put
        # and adds 0.0 to its time until the chunk ends
        nw = n * w
        codes = np.concatenate([cols.ravel(), np.repeat([n, n + 1], w)]) * w
        holds = np.repeat(np.append(scale, [0.0, 0.0]), w)
        flat = np.concatenate([thresh.T.ravel(), np.full(2 * w, np.inf)])
        # slot j's thresholds, read at state * w
        slots = [flat[j:] for j in range(w - 1)]
    while idx.size > TAIL:
        a = idx.size
        e = rng.standard_exponential((CHUNK, a))
        u = rng.random((CHUNK, a))
        path = np.empty((CHUNK + 1, a), dtype=np.int64)
        np.multiply(state, w, out=path[0])
        for s, s_next, uj in zip(path[:-1], path[1:], u):
            k = s
            for thr in slots:
                k = k + (uj > thr.take(s))
            codes.take(k, out=s_next)
        total_events += np.count_nonzero(path[:-1] < nw)
        if total_events > EVENT_BUDGET:
            raise EventBudgetExceeded(f"block exceeded {EVENT_BUDGET} jump events")
        # each step's hold, added in step order as the scalar phase adds it
        e *= holds.take(path[:-1])
        for h in e:
            t += h
        done = path[-1] >= nw
        ended = idx[done]
        elapsed[ended] = t[done]
        hit[ended] = path[-1][done] > nw
        keep = ~done
        idx, state, t = idx[keep], path[-1][keep] // w, t[keep]
    # lists: a one-element numpy operation costs more than the jump it computes
    scale, cols, rows = scale.tolist(), cols.tolist(), thresh.T.tolist()
    running = list(zip(idx.tolist(), state.tolist(), t.tolist()))
    while running:
        a = len(running)
        es = rng.standard_exponential((CHUNK, a)).T.tolist()
        us = rng.random((CHUNK, a)).T.tolist()
        still = []
        for (i, s, ti), e_col, u_col in zip(running, es, us):
            for e, u in zip(e_col, u_col):
                total_events += 1
                if total_events > EVENT_BUDGET:
                    raise EventBudgetExceeded(f"block exceeded {EVENT_BUDGET} jump events")
                ti += e * scale[s]
                s = cols[s][bisect_left(rows[s], u)]
                if s >= n:
                    elapsed[i] = ti
                    hit[i] = s > n
                    break
            else:
                still.append((i, s, ti))
        running = still
    return elapsed, hit, total_events


def _run_blocks(gen, starts, target, n, seed):
    table = _jump_table(gen)
    los = range(0, n, BLOCK_SIZE)
    streams = np.random.SeedSequence(seed).spawn(len(los))
    target0 = None if target is None else target - 1
    results = [
        _simulate_block(table, starts[lo:lo + BLOCK_SIZE], target0, np.random.default_rng(stream))
        for lo, stream in zip(los, streams)
    ]
    elapsed, hit, _ = zip(*results)
    return np.concatenate(elapsed), np.concatenate(hit)


def _probability_vector(p, n_states, name):
    """p as a float array, or InvalidParameter unless it has one finite,
    nonnegative entry per state and sums to 1 within 1e-9."""
    message = f"{name} must be a probability vector on the {n_states} states"
    p = _real_array(p, message, (n_states,))
    if np.any(p < 0) or abs(p.sum() - 1) > 1e-9:
        raise InvalidParameter(message)
    return p


def _starts_array(gen, start, n, seed):
    """n start states (0-based): start itself, or draws from a start law."""
    _generator(gen, "sampling")
    n, seed = _integer(n, "n", 1), _integer(seed, "seed", 0)
    if np.isscalar(start):
        return np.full(n, _state(gen, start, "start state") - 1, dtype=np.int64)
    dist = _probability_vector(start, gen.n_states, "start distribution")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5747]))
    return rng.choice(gen.n_states, size=n, p=dist / dist.sum())


def _log_weight_stats(logw, n, seed):
    """EstimateWithCI from per-trajectory log weights (misses excluded)."""
    if logw.size == 0:
        return EstimateWithCI(0.0, 0.0, n, seed)
    top = logw.max()  # the log-sum-exps of logw and 2 logw, scaled by their largest terms
    mean = float(np.exp(top + np.log(np.sum(np.exp(logw - top))) - np.log(n)))
    m2 = float(np.exp(2.0 * top + np.log(np.sum(np.exp(2.0 * (logw - top)))) - np.log(n)))
    var = max(m2 - mean * mean, 0.0) * n / max(n - 1, 1)
    return EstimateWithCI(mean, float(np.sqrt(var / n)), n, seed)


def estimate_ratio(gen: AbsorbingGenerator, lambda0: float, x: int, y: int,
                   n: int, seed: int, n_jobs: int = 1) -> EstimateWithCI:
    """Monte Carlo estimate of E[exp(lambda0 tau_y) 1{hit y before absorption}]
    starting from x; its expectation is phi(x)/phi(y).  n_jobs has no effect."""
    lambda0 = _finite_real(lambda0, "lambda0")
    starts = _starts_array(gen, x, n, seed)
    x, y = _state(gen, x, "start state"), _state(gen, y, "target state")
    if x == y:
        return EstimateWithCI(1.0, 0.0, n, seed)
    elapsed, hit = _run_blocks(gen, starts, y, n, seed)
    return _log_weight_stats(lambda0 * elapsed[hit], n, seed)


def estimate_psi(gen: AbsorbingGenerator, lam: float, start, n: int, seed: int,
                 n_jobs: int = 1) -> EstimateWithCI:
    """Monte Carlo estimate of E[exp(lam * absorption time)] from `start`.

    start may be a state label or a probability vector over states.  The
    moment is finite only for lam below lambda0; estimates near or past that
    threshold trigger warnings and are useful only as divergence
    demonstrations.  n_jobs has no effect.
    """
    lam = _finite_real(lam, "lam")
    if lam < 0:
        raise InvalidParameter("lam must be nonnegative")
    lam0 = dirichlet_eigenpair(gen).lambda0
    if lam >= lam0:
        warnings.warn(
            f"lam = {lam} >= lambda0 = {lam0:.6g}: moment is infinite, "
            "estimate will not stabilise",
            HeavyTailWarning,
        )
    elif lam > 0.9 * lam0:
        warnings.warn(
            f"lam/lambda0 = {lam / lam0:.3f} > 0.9: heavy-tailed weights, "
            "variance may be unreliable",
            HeavyTailWarning,
        )
    starts = _starts_array(gen, start, n, seed)
    elapsed, _ = _run_blocks(gen, starts, None, n, seed)
    return _log_weight_stats(lam * elapsed, n, seed)


def absorption_times(gen: AbsorbingGenerator, start, n: int, seed: int,
                     n_jobs: int = 1) -> np.ndarray:
    """Raw absorption-time samples (for law checks and demos); n_jobs has no effect."""
    starts = _starts_array(gen, start, n, seed)
    elapsed, _ = _run_blocks(gen, starts, None, n, seed)
    return elapsed


def doob_transform(gen: AbsorbingGenerator, eigenpair: DirichletEigenpair) -> np.ndarray:
    """Ergodic generator of the chain conditioned to survive forever.

    Rates are phi(y) L(x,y) / phi(x) off the diagonal and L(x,x) + lambda0 on
    it; rows sum to zero and the stationary law is proportional to nu * phi.
    """
    _check_pair(gen, eigenpair)
    k = gen.k_matrix()
    phi = eigenpair.phi
    tilde = k * phi[None, :] / phi[:, None]
    np.fill_diagonal(tilde, np.diag(k) + eigenpair.lambda0)
    return tilde


def doob_stationary(gen: AbsorbingGenerator, eigenpair: DirichletEigenpair) -> np.ndarray:
    """Stationary law of the Doob transform: nu * phi normalized."""
    _check_pair(gen, eigenpair)
    phi = eigenpair.phi
    out = _qsd(gen) * phi
    return out / out.sum()


def _check_pair(gen, eigenpair) -> None:
    """InvalidParameter unless eigenpair is a DirichletEigenpair of gen's size."""
    _generator(gen, "the Doob transform")
    if not (isinstance(eigenpair, DirichletEigenpair) and len(eigenpair.phi) == gen.n_states):
        raise InvalidParameter("eigenpair must be a DirichletEigenpair of the generator")


#: Poisson weight at which expm_action's series stops.  The mass it leaves
#: out is below this; s squarings multiply it by 2^s, as they multiply each
#: rounding of 2^-53, so it stays 128 times below their rounding at any s.
SERIES_STOP = 2.0 ** -60


def expm_action(q: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """v exp(t Q) for a (sub-)Markovian generator Q, by squaring the
    uniformized step.

    P = I + Q/Theta, Theta = max |Q(x,x)|, is entrywise nonnegative.  For
    Theta t = f 2^e with 1/2 <= f < 1, s = max(0, e + 1) brings
    x = Theta t / 2^s to at most 1/2.  E = sum_m e^-x x^m/m! P^m, which is
    exp(t Q / 2^s), is summed until a weight falls below SERIES_STOP (about
    16 terms) and squared s times.  Every sum and product adds nonnegative
    terms (Xue & Ye, Numer. Math. 2008), at a cost of O(n^3 log(Theta t)),
    and Q 2^k with t 2^-k gives the same bits.
    """
    square = "q must be a nonempty square matrix of finite rates"
    q = _real_array(q, square, (None, None))
    if not 0 < len(q) == q.shape[1]:
        raise InvalidParameter(square)
    t, theta = _finite_real(t, "time"), float(np.abs(np.diag(q)).max())
    if not (t >= 0 and theta * t < math.inf):
        raise InvalidParameter(f"time {t} must be nonnegative with Theta t finite")
    v = _real_array(v, f"v must be a vector of {len(q)} entries, one per state", (len(q),))
    if t == 0 or theta == 0:
        return v.copy()
    s = max(0, math.frexp(theta * t)[1] + 1)
    x = math.ldexp(theta * t, -s)
    p = q / theta + np.eye(len(q))
    term, weight, m = np.eye(len(q)), math.exp(-x), 0
    e = weight * term
    while weight >= SERIES_STOP:
        m += 1
        term = term @ p
        weight *= x / m
        e += weight * term
    for _ in range(s):
        e = e @ e
    return v @ e


@dataclass(frozen=True)
class SandwichRow:
    t: float
    dist_conditioned: float
    dist_doob: float
    lower: float
    upper: float


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    p = _real_array(p, "p must be finite numbers")
    q = _real_array(q, "q must be finite numbers of the shape of p", p.shape)
    return 0.5 * float(np.abs(p - q).sum())


def sandwich_experiment(gen: AbsorbingGenerator, mu0, times,
                        eigenpair: DirichletEigenpair | None = None) -> list:
    """Two-sided comparison of conditioned evolution with the Doob chain.

    For each t, computes the total-variation distance of the surviving-
    conditioned law from the quasi-stationary law, the distance of the Doob
    chain (started from the phi-reweighted initial law) from its stationary
    law, and the transfer flanks

        (min phi / 2 max phi) * d_doob <= d_cond <= (2 max phi / min phi) * d_doob.

    The Doob generator is Phi^-1 K Phi + lambda0 I, so the Doob law at t is
    the surviving law mu0 exp(tK) reweighted by phi and normalized.  A
    survival mass below 1e-250 warns (UnderflowWarning); one that underflows
    to 0 leaves no law to condition and raises InvalidParameter.
    """
    if eigenpair is None:
        eigenpair = dirichlet_eigenpair(gen)
    _check_pair(gen, eigenpair)
    mu0 = _probability_vector(mu0, gen.n_states, "mu0")
    times = _real_array(times, "times must be a vector of finite numbers", (None,))
    phi = eigenpair.phi
    k = gen.k_matrix()
    nu = _qsd(gen)
    # doob_stationary's law, from the nu in hand
    eta_tilde = nu * phi
    eta_tilde /= eta_tilde.sum()
    phi_w = phi / phi.max()
    lo_c = phi.min() / (2.0 * phi.max())
    up_c = 2.0 * phi.max() / phi.min()
    rows = []
    for t in times:
        raw = expm_action(k, mu0, float(t))
        mass = raw.sum()
        if mass == 0:
            raise InvalidParameter(f"survival mass underflows to 0 at t={t}")
        if mass < 1e-250:
            warnings.warn(f"survival mass {mass:.3e} at t={t}; conditioned law unreliable",
                          UnderflowWarning)
        w = raw * phi_w
        d_cond = total_variation(raw / mass, nu)
        d_doob = total_variation(w / w.sum(), eta_tilde)
        rows.append(SandwichRow(float(t), float(d_cond), float(d_doob),
                                float(lo_c * d_doob), float(up_c * d_doob)))
    return rows
