"""The birth-death ground pair: accuracy far below the rates, large chains,
wide eigenvector spreads, and agreement with the multi-precision oracle."""

import decimal
import math
import warnings
from collections import Counter
from decimal import Decimal
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from qsamp import (
    InvalidParameter,
    NoConvergence,
    QsampError,
    accelerated_poisson_family,
    amplitude,
    build_birth_death,
    build_rho_chain,
    dirichlet_eigenpair,
    dirichlet_form,
    exact_bd_amplitude,
    full_spectrum,
    lambda0_minor,
    poisson_family,
    rho_family,
)
from qsamp import tridiag
from qsamp.bd_infinite import RateFamily, _log_suffix_excl
from qsamp.spectral import _bd_minor_lambda0
from conftest import (
    cold_higher_eigenvalues, count_bisections, lapack_eigenvalues, log_accelerated_family,
    pivot_digits_lost, random_birth_death, sym_tridiag,
)


@st.composite
def log_terms(draw):
    """Up to 300 log terms: a walk from anywhere in [-1000, 1000] with steps
    of up to 30, a drawn share of them up to 800, so that a run inside one
    block of log_cumsum can rise past 745 and underflow its linear sum, and
    up to five entries -inf."""
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.uniform(-30, 30, n)
    big = rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    steps[big] = rng.uniform(-800, 800, np.count_nonzero(big))
    a = draw(st.floats(-1000, 1000)) + np.cumsum(steps)
    a[sorted(draw(st.sets(st.integers(0, n - 1), max_size=5))) if n else []] = -np.inf
    return a


def suffix_reference(a):
    """log of the sum over strictly later entries, by numpy alone."""
    out = np.full_like(a, -np.inf)
    out[:-1] = np.logaddexp.accumulate(a[::-1])[::-1][1:]
    return out


@pytest.mark.parametrize("form", ["prefix", "suffix"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(a=log_terms())
@example(a=np.array([0.0, 800.0, -np.inf, 1.0]))
@example(a=np.array([0.5714791305089757, -2.7597624786604484, 578.3570600169738]))
def test_log_cumsum_matches_logaddexp_accumulate(form, a):
    # log_cumsum, and its reversed use for the tails of pi, against numpy's
    # running log-sum: the same non-finite entries, and finite ones within
    # 1e-13 (relative, absolute below 1).  In the second example the first
    # two sums lie near 0 and 578 below their block's maximum: the log of a
    # linear sum that small rounds by up to 1.1e-13, so it is recomputed
    if form == "prefix":
        new, ref = tridiag.log_cumsum(a), np.logaddexp.accumulate(a)
    else:
        new, ref = _log_suffix_excl(a), suffix_reference(a)
    finite = np.isfinite(ref)
    np.testing.assert_array_equal(new[~finite], ref[~finite])
    assert np.all(np.abs(new[finite] - ref[finite]) <= 1e-13 * np.maximum(1.0, np.abs(ref[finite])))


def test_log_cumsum_recomputes_where_a_block_underflows():
    # 0 lies 800 below its block's maximum, so its linear sum underflows and
    # the position is numpy's own running sum; so is one after a NaN
    a = np.array([0.0, 800.0, 1.0])
    np.testing.assert_array_equal(tridiag.log_cumsum(a), np.logaddexp.accumulate(a))
    a = np.array([1.0, np.nan, 2.0, 3.0])
    with np.errstate(invalid="ignore"):
        np.testing.assert_array_equal(tridiag.log_cumsum(a), np.logaddexp.accumulate(a))


def log_uniform_chain(rng, n, low, high):
    b = np.exp(rng.uniform(np.log(low), np.log(high), n - 1))
    d = np.exp(rng.uniform(np.log(low), np.log(high), n))
    return b, d


def componentwise_backward_error(b, d, lam, phi):
    """max_x |((-K) phi - lam phi)(x)| / ((|-K| phi)(x) + lam phi(x))."""
    out = (d + np.append(b, 0.0)) * phi
    out[:-1] -= b * phi[1:]
    out[1:] -= d[1:] * phi[:-1]
    scale = (d + np.append(b, 0.0) + lam) * phi
    scale[:-1] += b * phi[1:]
    scale[1:] += d[1:] * phi[:-1]
    return float(np.max(np.abs(out - lam * phi) / scale))


def test_lambda0_far_below_the_rates_keeps_relative_accuracy():
    # chain 8344 of the criterion-05 recipe on seed 123: lambda0 sits 37
    # orders below the rates and the eigenvector is nearly flat
    rng = np.random.default_rng(123)
    for _ in range(8345):
        n = int(rng.integers(2, 201))
        b, d = log_uniform_chain(rng, n, 0.1, 10.0)
    assert n == 117
    lam = dirichlet_eigenpair(build_birth_death(b, d)).lambda0
    ref = float(tridiag.mp_lambda(b, d, 0, dps=60))
    assert ref == pytest.approx(1.2298637614560e-37, rel=1e-12, abs=0)
    assert abs(lam - ref) <= 1e-10 * ref
    # at 2^-1000 the rates are still normal doubles, but lambda0 is not
    with pytest.raises(NoConvergence, match="below the double range"):
        tridiag.ground_pair(np.ldexp(b, -1000), np.ldexp(d, -1000))


def test_large_random_chains_have_small_backward_error():
    rng = np.random.default_rng(7)
    for n in (2500, 5000):
        b, d = log_uniform_chain(rng, n, 0.1, 10.0)
        pair = dirichlet_eigenpair(build_birth_death(b, d))
        assert np.all(pair.phi > 0)
        assert componentwise_backward_error(b, d, pair.lambda0, pair.phi) <= 1e-12


@pytest.mark.parametrize("n", [1100, 1500])
def test_ground_pair_beyond_half_the_exponent_range(n):
    # phi spans more than 1e154, so pi phi^2 underflows in double precision;
    # lambda0 is of the order of the rates, where LAPACK is relatively accurate
    b, d = rho_family(0.5).realize(n)
    lam, phi, _ = tridiag.ground_pair(b, d)
    main, off = sym_tridiag(b, d)
    ref = eigvalsh_tridiagonal(main, off, select="i", select_range=(0, 0))[0]
    assert np.isfinite(lam)
    assert abs(lam - ref) <= 1e-12 * ref
    assert phi.max() > 1e154


def test_higher_eigenvalue_beyond_half_the_exponent_range():
    # the index-3 eigenvector spans past 1e154 at n = 1100, so pi v^2
    # underflows everywhere unless the quotient's sums are shifted
    b, d = rho_family(0.5).realize(1100)
    ref = lapack_eigenvalues(b, d, 3, 3)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = tridiag.higher_eigenvalues(b, d, 3)[2]
        v = tridiag._shifted_solves(b, d, d + np.append(b, 0.0), ref * (1 - 1e-8), None)
    assert np.abs(v).min() < 1e-154
    assert abs(lam - ref) <= 1e-8 * ref


def test_ground_pair_from_a_nearby_start():
    # the ground vector of a smaller truncation, padded with its last entry
    fam = accelerated_poisson_family()
    phi_small = tridiag.ground_pair(*fam.realize(300))[1]
    b, d = fam.realize(600)
    lam, phi, (lo, hi) = tridiag.ground_pair(b, d)
    warm = tridiag.ground_pair(b, d, np.pad(phi_small, (0, 300), mode="edge"))
    assert warm[0] == pytest.approx(lam, rel=1e-14, abs=0)
    np.testing.assert_allclose(warm[1], phi, rtol=1e-13)
    assert warm[2][0] <= warm[0] <= warm[2][1]


@pytest.mark.parametrize("start", [np.ones, lambda n: np.arange(1.0, n + 1) ** 3],
                         ids=["flat", "cubic"])
def test_ground_pair_restarts_from_a_poor_start(start, monkeypatch):
    # the steps narrow at lambda0/lambda1 ~ 1 from these starts on a rho chain,
    # so the first slow step sends them back to the bisection start
    b, d = rho_family(0.5).realize(512)
    cold = tridiag.ground_pair(b, d)
    calls = count_bisections(monkeypatch)
    lam, phi, bracket = tridiag.ground_pair(b, d, start(512))
    assert len(calls) == 1
    assert (lam, bracket) == (cold[0], cold[2])
    np.testing.assert_array_equal(phi, cold[1])


def test_ground_pair_falls_back_to_bisection_on_a_close_gap(monkeypatch):
    # lambda0/lambda1 = 0.92: the quotient of G1 lies nearer higher
    # eigenvalues and Green steps from G1 narrow slowly, so the steps start
    # from the vector inverse-iterated at the bisection eigenvalue
    b, d = rho_family(0.8).realize(150)
    calls = count_bisections(monkeypatch)
    lam, phi, (lo, hi) = tridiag.ground_pair(b, d)
    assert len(calls) == 1
    ref = float(tridiag.mp_lambda(b, d, 0))
    assert abs(lam - ref) <= 4 * np.spacing(ref)
    assert lo <= lam <= hi
    # phi of the Green steps from that start
    np.testing.assert_allclose(phi[[75, 149]], [217916.0436101404, 154730867.70629027], rtol=1e-12)


def test_wide_spread_ground_pair_is_the_same_at_1024_times_the_rates():
    # phi spans 8.5e305, so at d_1 = 1024 phi(1)/d_1 / max phi would be below
    # the smallest normal double; on the unit rates no step leaves the
    # range, and the pair is the unscaled one times the scale, bit for bit
    b, d = rho_family(0.5).realize(2030)
    lam, phi, (lo, hi) = tridiag.ground_pair(b, d)
    scaled = tridiag.ground_pair(1024 * b, 1024 * d)
    assert (scaled[0], scaled[2]) == (1024 * lam, (1024 * lo, 1024 * hi))
    np.testing.assert_array_equal(scaled[1], phi)
    ref = float(tridiag.mp_lambda(b, d, 0, dps=80))
    assert abs(lam - ref) <= 1e-14 * ref
    np.testing.assert_allclose(phi[[1015, 2029]], [3.835294266886757e155, 8.47650869680498e305],
                               rtol=1e-12)
    # phi by the three-term recursion from phi(1) = 1 at a 600-digit lambda0:
    # the pair's bracket bounds phi's backward error, not its forward error
    np.testing.assert_allclose(phi[[1015, 2029]], [3.8352942669770644e155, 8.476508697151224e305],
                               rtol=tridiag.RESIDUAL_RTOL)


@pytest.mark.parametrize("k", [0, 600, 1000])
def test_every_route_raises_where_lambda0_is_below_the_double_range(k):
    # lambda0 of rho_family(2.0) at 1100 states lies about e^-763 below the
    # rates: no birth-death route gives it at any scale, although at 2^600
    # and 2^1000 it is a normal double; the decimal oracle still gives the
    # amplitude
    b, d = rho_family(2.0).realize(1100)
    b, d = np.ldexp(b, k), np.ldexp(d, k)
    gen = build_birth_death(b, d)
    for route in (lambda: tridiag.ground_pair(b, d), lambda: dirichlet_eigenpair(gen),
                  lambda: full_spectrum(gen), lambda: lambda0_minor(gen, 1)):
        with pytest.raises(NoConvergence):
            route()
    assert exact_bd_amplitude(gen) == 2.0


def test_ground_pair_names_the_double_range_where_phi_leaves_it():
    # phi of rho_family(0.5) spans past 1e308 at 4096 states: the first
    # Green step past the range ends the steps, with no run to the step cap
    with pytest.raises(NoConvergence, match="double range"):
        tridiag.ground_pair(*rho_family(0.5).realize(4096))


@pytest.mark.parametrize("start", [np.ones(5), np.r_[1.0, 0.0, np.ones(4)], np.full(6, np.inf),
                                   ["1"] * 6], ids=["short", "zero", "inf", "strings"])
def test_ground_pair_rejects_a_bad_start(start):
    with pytest.raises(InvalidParameter):
        tridiag.ground_pair(*accelerated_poisson_family().realize(6), start)


def test_higher_eigenvalues_from_good_guesses_skip_bisection(monkeypatch):
    fam = accelerated_poisson_family()
    guesses = tridiag.higher_eigenvalues(*fam.realize(300), 5)
    b, d = fam.realize(600)
    cold = cold_higher_eigenvalues(b, d, 5)
    calls = count_bisections(monkeypatch)
    warm = tridiag.higher_eigenvalues(b, d, 5, guesses)
    assert calls == []
    np.testing.assert_allclose(warm, cold, rtol=1e-13)


@pytest.mark.parametrize("wrong", [
    lambda lam: lam[[2, 1, 3, 4]],                  # lambda_2 offered for lambda_1
    lambda lam: np.r_[lam[1:3], np.nan, lam[4]],
    lambda lam: np.r_[lam[1], lam[3], lam[3:5]],    # lambda_2's guess on lambda_3
    lambda lam: np.r_[lam[1:4], lam[4] + 0.99 * (lam[5] - lam[4])],
    lambda lam: np.r_[lam[1] - 0.3 * (lam[1] - lam[0]), lam[2:5]],
    lambda lam: lam[1:4],                           # one guess missing
], ids=["swapped", "nan", "neighbour", "nearer-the-next", "stalls-short", "missing"])
def test_higher_eigenvalues_from_wrong_guesses_fall_back(wrong, monkeypatch):
    # "stalls-short": the quotients stop closing in while still far apart
    # the fallback is the same route as no guesses at all, and it matches
    # the cold route
    b, d = accelerated_poisson_family().realize(400)
    unguessed = tridiag.higher_eigenvalues(b, d, 4)
    lam = lapack_eigenvalues(b, d, 0, 5)
    cold = cold_higher_eigenvalues(b, d, 4)
    calls = count_bisections(monkeypatch)
    fallback = tridiag.higher_eigenvalues(b, d, 4, wrong(lam))
    np.testing.assert_array_equal(fallback, unguessed)
    assert len(calls) == 1
    np.testing.assert_allclose(fallback, cold, rtol=1e-13)


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("n", [300, 1000])
def test_higher_eigenvalues_down_the_ladder_match_the_oracle(n, q, monkeypatch):
    # without guesses the values come from the halvings of the chain, and
    # only the foot of the ladder bisects
    b, d = log_accelerated_family(q).realize(n)
    calls = count_bisections(monkeypatch)
    lam = tridiag.higher_eigenvalues(b, d, 6)
    assert len(calls) == 1
    assert len(calls[0][1]) < 2 * tridiag.LADDER_BASE
    dps = max(60, 30 + pivot_digits_lost(b, d))
    ref = np.array([float(tridiag.mp_lambda(b, d, k, dps=dps)) for k in range(1, 7)])
    np.testing.assert_allclose(lam, ref, rtol=1e-13)


def test_higher_eigenvalues_where_the_half_size_guesses_fail(monkeypatch):
    # b = 1.5, d = 1 drifts to the top, so the truncation at 75 states says
    # little about the one at 150: the climb stops there, and the full chain
    # bisects instead of each rung above the foot
    b, d = rho_family(1.5).realize(300)
    calls = count_bisections(monkeypatch)
    lam = tridiag.higher_eigenvalues(b, d, 3)
    assert [len(a[1]) for a in calls] == [75, 300]
    np.testing.assert_allclose(lam, lapack_eigenvalues(b, d, 1, 3), rtol=1e-13)


@pytest.mark.parametrize("n", [200, 300])
def test_bisected_higher_eigenvalues_match_the_oracle(n):
    # b = 2, d = 1 drifts to the top: every rung of the ladder fails and the
    # chain bisects, where three solves and one quotient per estimate were
    # 9.0e-12 (n = 200) and 5.0e-12 (n = 300) relative from the oracle
    b, d = rho_family(2.0).realize(n)
    lam = tridiag.higher_eigenvalues(b, d, 6)
    dps = max(60, 30 + pivot_digits_lost(b, d))
    ref = np.array([float(tridiag.mp_lambda(b, d, k, dps=dps)) for k in range(1, 7)])
    np.testing.assert_allclose(lam, ref, rtol=1e-13)


def test_higher_eigenvalues_from_rough_guesses_re_shift(monkeypatch):
    # a fifth of the way to the next eigenvalue: the first quotient is off,
    # and the re-shifted ones settle on the cold values
    b, d = poisson_family().realize(600)
    lam = lapack_eigenvalues(b, d, 1, 6)
    cold = cold_higher_eigenvalues(b, d, 5)
    calls = count_bisections(monkeypatch)
    warm = tridiag.higher_eigenvalues(b, d, 5, lam[:5] + 0.2 * np.diff(lam))
    assert calls == []
    np.testing.assert_allclose(warm, cold, rtol=1e-13)


def mp_green_trace(b, d):
    """trace (-K)^-1 by an mpmath matrix inverse of the killed generator."""
    n = len(d)
    with mp.workdps(50):
        m = mp.zeros(n, n)
        for x in range(n):
            m[x, x] = mp.mpf(d[x]) + (mp.mpf(b[x]) if x < n - 1 else 0)
            if x < n - 1:
                m[x, x + 1] = -b[x]
                m[x + 1, x] = -d[x + 1]
        inv = mp.inverse(m)
        return float(mp.fsum(inv[x, x] for x in range(n)))


def test_green_trace_matches_the_matrix_inverse():
    rng = np.random.default_rng(11)
    for _ in range(12):
        n = int(rng.integers(1, 26))
        b, d = log_uniform_chain(rng, n, 1e-2, 1e2)
        ref = mp_green_trace(b, d)
        assert tridiag.green_trace(b, d) == pytest.approx(ref, rel=1e-13, abs=0)


def test_singleton():
    lam, phi, bracket = tridiag.ground_pair(np.zeros(0), np.array([2.5]))
    assert (lam, bracket) == (2.5, (2.5, 2.5))
    assert phi.tolist() == [1.0]


@st.composite
def birth_death_rates(draw, n_max=60, spread=1e2):
    n = draw(st.integers(1, n_max))
    log_rate = st.floats(np.log(1 / spread), np.log(spread))
    b = np.exp(draw(st.lists(log_rate, min_size=n - 1, max_size=n - 1)))
    d = np.exp(draw(st.lists(log_rate, min_size=n, max_size=n)))
    return b, d


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(birth_death_rates())
def test_ground_pair_agrees_with_the_exact_identity(rates):
    b, d = rates
    _, _, (lo, hi) = tridiag.ground_pair(b, d)
    dps = max(60, 30 + pivot_digits_lost(b, d))
    lam = float(tridiag.mp_lambda(b, d, 0, dps=dps))
    # the bracket's own sums round at about 1e-13 relative
    assert lo * (1 - 1e-12) <= lam <= hi * (1 + 1e-12)
    gen = build_birth_death(b, d)
    via_phi = amplitude(dirichlet_eigenpair(gen))
    via_product = exact_bd_amplitude(gen)
    assert abs(via_phi - via_product) <= 1e-8 * via_product


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(birth_death_rates(n_max=300, spread=1e3))
def test_ground_pair_checks_its_own_bracket(rates):
    # callers that drop the bracket rely on it: a pair is never returned on a
    # bracket wider than RESIDUAL_RTOL, nor on one that misses lambda0
    b, d = rates
    try:
        _, _, (lo, hi) = tridiag.ground_pair(b, d)
    except NoConvergence:
        return
    assert hi - lo <= 1e-10 * hi
    lam = float(tridiag.mp_lambda(b, d, 0, dps=oracle_dps(b, d)))
    assert lo * (1 - 1e-12) <= lam <= hi * (1 + 1e-12)


def test_green_steps_do_not_settle_on_a_plateau():
    # chains 19 (n = 254) and 21 (n = 284) of this draw: from the bisection
    # start, the bracket stops narrowing at a relative width of 19 and 2.7e8
    # for many steps before rounding seeds the ground direction; a minor's
    # pair accepted on that plateau was 4.4x and 16400x too large
    rng = np.random.default_rng(7)
    chains = [random_birth_death(rng, n_max=299, low=1e-3, high=1e3) for _ in range(22)]
    for b, d in (chains[19], chains[21]):
        gen = build_birth_death(b, d)
        lam = float(tridiag.mp_lambda(b, d, 0, dps=oracle_dps(b, d)))
        minor_lam = float(tridiag.mp_lambda(b[1:], d[1:], 0, dps=oracle_dps(b[1:], d[1:])))
        assert dirichlet_eigenpair(gen).lambda0 == pytest.approx(lam, rel=1e-13, abs=0)
        assert lambda0_minor(gen, 1) == pytest.approx(minor_lam, rel=1e-13, abs=0)


# -- the Dirichlet-form Rayleigh quotient and power-of-two rate scales ------

#: the power-of-two rate scales 2^k of the scale properties
SCALES = (-600, 512, 900)


def is_normal(x) -> bool:
    return np.finfo(float).tiny <= abs(x) < math.inf


def array_family(b, d):
    """The chain (b, d) as a RateFamily, for the bd_infinite entry points."""
    return RateFamily(lambda x: b[np.asarray(x, dtype=int) - 1],
                      lambda x: d[np.asarray(x, dtype=int) - 1])


@st.composite
def quotient_inputs(draw):
    """Rates log-uniform in [1e-3, 1e3] with n <= 300, and a vector whose
    magnitudes are log-uniform in [1e-5, 1e5], positive or with drawn signs."""
    b, d = draw(birth_death_rates(n_max=300, spread=1e3))
    n = len(d)
    v = np.exp(draw(st.lists(st.floats(np.log(1e-5), np.log(1e5)), min_size=n, max_size=n)))
    if draw(st.booleans()):
        v *= np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    return b, d, v


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(quotient_inputs())
def test_linear_quotient_matches_the_log_form_at_any_scale(inputs):
    b, d, v = inputs
    with mock.patch.object(tridiag, "_log_quotient", wraps=tridiag._log_quotient) as log_form:
        q = tridiag.rayleigh_quotient(b, d, v)
    for k in SCALES:
        if is_normal(math.ldexp(q, k)):
            scaled = tridiag.rayleigh_quotient(np.ldexp(b, k), np.ldexp(d, k), v)
            assert math.ldexp(scaled, -k) == pytest.approx(q, rel=1e-12, abs=0)
    assume(log_form.call_count == 0)  # the linear sums stood
    log_q = tridiag._log_quotient(b, d, v, tridiag.log_pi(b, d))
    assert q == pytest.approx(log_q, rel=1e-12, abs=0)


def test_quotient_takes_the_log_form_only_where_the_sums_underflow(monkeypatch):
    # the index-3 vector of rho_family(0.5) at 1100 states grows where pi
    # falls, so pi v^2 is below the smallest normal double everywhere; the
    # ground vector of a log-accelerated chain keeps the linear sums even
    # at 16,384 states, where pi underflows on all but 170 of them
    b, d = log_accelerated_family(3).realize(16384)
    lam, phi, _ = tridiag.ground_pair(b, d)
    calls = []
    log_form = tridiag._log_quotient
    monkeypatch.setattr(tridiag, "_log_quotient", lambda *a: calls.append(1) or log_form(*a))
    assert tridiag.rayleigh_quotient(b, d, phi) == pytest.approx(lam, rel=1e-12, abs=0)
    assert calls == []
    b, d = rho_family(0.5).realize(1100)
    ref = lapack_eigenvalues(b, d, 3, 3)[0]
    v = tridiag._shifted_solves(b, d, d + np.append(b, 0.0), ref * (1 - 1e-8), None)
    assert abs(tridiag.rayleigh_quotient(b, d, v) - ref) <= 1e-8 * ref
    assert len(calls) == 1


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(quotient_inputs())
def test_truncation_values_at_any_power_of_two_scale(inputs):
    # the ground and higher eigenpairs run on the rates scaled into (0, 1),
    # so their bits are the same at every scale; lambda0 of a chain whose
    # ground pair raises is not compared
    b, d, v = inputs
    n, k_high = len(d), min(3, len(d) - 1)
    try:
        lam = tridiag.ground_pair(b, d)[0]
    except QsampError:
        lam = math.nan
    higher = tridiag.higher_eigenvalues(b, d, k_high)
    form = dirichlet_form(array_family(b, d), v, n)
    for k in SCALES:
        bk, dk = np.ldexp(b, k), np.ldexp(d, k)
        if is_normal(math.ldexp(lam, k)):
            assert tridiag.ground_pair(bk, dk)[0] == math.ldexp(lam, k)
        if all(is_normal(x) for x in np.ldexp(higher, k)):
            np.testing.assert_array_equal(tridiag.higher_eigenvalues(bk, dk, k_high),
                                          np.ldexp(higher, k))
        if is_normal(math.ldexp(form, k)):
            scaled = dirichlet_form(array_family(bk, dk), v, n)
            assert math.ldexp(scaled, -k) == pytest.approx(form, rel=1e-12, abs=0)


@pytest.mark.parametrize("k", SCALES)
def test_wide_spread_chain_at_any_power_of_two_scale(k):
    # rho_family(0.5) at 1100 states: phi spans past 1e154, and at 2^-600 and
    # 2^900 shifted solves on unscaled rates overflow or underflow (the
    # higher eigenvalues once came out as 1.5 and 0.49999, not 0.0858); on
    # the unit rates every scale gives the same bits
    b, d = rho_family(0.5).realize(1100)
    lam, phi, _ = tridiag.ground_pair(b, d)
    higher = tridiag.higher_eigenvalues(b, d, 6)
    bk, dk = np.ldexp(b, k), np.ldexp(d, k)
    scaled = tridiag.ground_pair(bk, dk)
    assert scaled[0] == math.ldexp(lam, k)
    np.testing.assert_array_equal(scaled[1], phi)
    np.testing.assert_array_equal(tridiag.higher_eigenvalues(bk, dk, 6), np.ldexp(higher, k))
    np.testing.assert_allclose(higher, lapack_eigenvalues(b, d, 1, 6), rtol=1e-12)


# -- the multi-precision oracle: double start, mp Newton, Sturm certificate --


def criterion05_chain(index):
    """Rates of the index-th chain drawn by acceptance criterion 05."""
    rng = np.random.default_rng(20240817)
    for _ in range(index + 1):
        n = int(rng.integers(2, 201))
        b, d = log_uniform_chain(rng, n, 0.1, 10.0)
    return b, d


def oracle_dps(b, d):
    return max(60, 30 + pivot_digits_lost(b, d))


@pytest.mark.parametrize("k", [-600, 512, 1000])
def test_oracle_at_any_power_of_two_scale(k):
    # from k = 512 on, double pivot products of the scaled rates overflowed:
    # the count at 1.5 lambda0 2^k was 0 and mp_lambda raised NoConvergence
    b, d = criterion05_chain(0)
    lam = tridiag.mp_lambda(b, d)
    top = 4 * max(b.max(), d.max())
    for sigma in (0.5 * float(lam), 1.5 * float(lam), 0.1 * top, top):
        scaled = tridiag.sturm_count(b * 2.0 ** k, d * 2.0 ** k, sigma * 2.0 ** k)
        assert scaled == tridiag.sturm_count(b, d, sigma)
    assert tridiag.sturm_count(b * 2.0 ** k, d * 2.0 ** k, 1.5 * float(lam) * 2.0 ** k) == 1
    assert tridiag.sturm_count(b * 2.0 ** k, d * 2.0 ** k, 1e308) == len(d)
    assert tridiag.sturm_count(b * 2.0 ** k, d * 2.0 ** k, -1e308) == 0
    scaled = tridiag.mp_lambda(b * 2.0 ** k, d * 2.0 ** k)
    with decimal.localcontext(tridiag.oracle_context(60)):
        assert abs(scaled / (lam * Decimal(2) ** k) - 1) <= Decimal(10) ** -50


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(birth_death_rates())
def test_differential_count_matches_lapack(rates):
    # LAPACK's eigenvalues are accurate to eps * ||T|| only, so the shifts
    # are midpoints between them (and one past each end) that clear that by
    # a wide margin; the decimal count runs the same recursion at 60 digits
    b, d = rates
    main, off = sym_tridiag(b, d)
    w = eigvalsh_tridiagonal(main, off) if len(d) > 1 else main
    sigmas = np.concatenate([[w[0] / 2], (w[:-1] + w[1:]) / 2, [2 * w[-1]]])
    with decimal.localcontext(tridiag.oracle_context(60)):
        bm, dm = tridiag._mp_rates(b, d)
        for sigma in sigmas:
            if np.abs(w - sigma).min() > 1e-8 * w[-1]:
                in_decimal = tridiag._count(bm, dm, Decimal(float(sigma)))
                assert tridiag.sturm_count(b, d, sigma) == in_decimal == np.count_nonzero(w < sigma)


def test_differential_count_steps_past_a_zero_pivot():
    # at sigma = 2 the first pivot q_1 = b_1 + d_1 - sigma is exactly 0, so
    # the count is taken just above sigma; -K = [[2, -1], [-1, 1]] has one
    # eigenvalue, (3 - sqrt 5) / 2, below 2
    with decimal.localcontext(tridiag.oracle_context(30)):
        bm, dm = tridiag._mp_rates([1.0], [1.0, 1.0])
        assert tridiag._count(bm, dm, Decimal(2)) == 1
    assert tridiag.sturm_count(np.array([1.0]), np.array([1.0, 1.0]), 2.0) == 1


# -- the LAPACK kernels: dqds spectrum and dlarrc count -------------------------

#: the rates of a fixed 5-state chain
PIN_B, PIN_D = np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.5, 1.5, 2.5, 3.5, 4.5])


def test_lapack_kernels_pinned_on_a_five_state_chain():
    # a scipy whose entry points take other int widths or argument lists
    # fails here, not with wrong eigenvalues elsewhere
    from qsamp import _lapack
    main, off = sym_tridiag(PIN_B, PIN_D)
    ref = np.linalg.eigvalsh(np.diag(main) + np.diag(off, 1) + np.diag(off, -1))
    np.testing.assert_allclose(tridiag.spectrum(PIN_B, PIN_D), ref, rtol=1e-14)
    np.testing.assert_allclose(_lapack.singular_values(np.sqrt(PIN_D), np.sqrt(PIN_B)),
                               np.sqrt(ref[::-1]), rtol=1e-14)
    count = _lapack.negcount(PIN_D[::-1], np.sqrt(PIN_B / PIN_D[1:])[::-1])
    sigmas = np.concatenate([[ref[0] / 2], (ref[:-1] + ref[1:]) / 2, [2 * ref[-1]]])
    assert [count(s) for s in sigmas] == [0, 1, 2, 3, 4, 5]


def test_missing_lapack_entry_point_fails_at_import(monkeypatch):
    import importlib.util
    from scipy.linalg import cython_lapack
    from qsamp import _lapack
    monkeypatch.delitem(cython_lapack.__pyx_capi__, "dlarrc")
    spec = importlib.util.spec_from_file_location("qsamp._lapack_probe", _lapack.__file__)
    with pytest.raises(ImportError, match="exports no dlarrc"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_spectrum_of_the_lambda0_far_below_the_rates_chain():
    # LAPACK's bisection on the symmetrized matrix gave lambda0 = -3.1e-16
    # here, an absolute error of n eps times the rates; dqds keeps every
    # eigenvalue relatively accurate
    rng = np.random.default_rng(1)
    b, d = np.exp(rng.uniform(-2, 2, 199)), np.exp(rng.uniform(-2, 2, 200))
    lam = tridiag.spectrum(b, d)
    assert lam[0] > 0
    assert lam[0] == pytest.approx(tridiag.ground_pair(b, d)[0], rel=1e-13, abs=0)
    ref = [float(tridiag.mp_lambda(b, d, k)) for k in (0, 1, 2, 3)]
    np.testing.assert_allclose(lam[:4], ref, rtol=1e-13)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(birth_death_rates(n_max=40), st.integers(-900, 900), st.floats(0.0, 1.0))
def test_spectrum_and_count_at_any_power_of_two_scale(rates, k, t):
    # the square roots of dqds's bidiagonal are taken on the rates scaled by
    # 2^-_rate_exponent: the square root of rates times an odd power of two
    # is not a scaled square root
    b, d = rates
    lam = full_spectrum(build_birth_death(b, d)).eigenvalues
    assume(all(is_normal(x) for x in np.ldexp(np.r_[b, d, lam], k)))
    scaled = full_spectrum(build_birth_death(np.ldexp(b, k), np.ldexp(d, k))).eigenvalues
    np.testing.assert_array_equal(scaled, np.ldexp(lam, k))
    sigma = lam[0] ** (1 - t) * (2 * lam[-1]) ** t  # geometric, over the whole spectrum
    assert tridiag.sturm_count(np.ldexp(b, k), np.ldexp(d, k), math.ldexp(sigma, k)) \
        == tridiag.sturm_count(b, d, sigma)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(birth_death_rates(), st.integers(-900, 900))
def test_ground_pair_at_any_power_of_two_scale(rates, k):
    # the Green steps run on the rates scaled by 2^-_rate_exponent, so rates
    # times 2^k give lambda0 and the residual times 2^k and the same phi
    b, d = rates
    pair = dirichlet_eigenpair(build_birth_death(b, d))
    assume(all(is_normal(x) for x in np.ldexp(np.r_[b, d, pair.lambda0], k)))
    assume(pair.residual == 0 or is_normal(math.ldexp(pair.residual, k)))
    scaled = dirichlet_eigenpair(build_birth_death(np.ldexp(b, k), np.ldexp(d, k)))
    assert scaled.lambda0 == math.ldexp(pair.lambda0, k)
    assert scaled.residual == math.ldexp(pair.residual, k)
    np.testing.assert_array_equal(scaled.phi, pair.phi)


def test_sign_changes_skip_zero_entries():
    # zeros of either sign are skipped, as np.sign's 0 would be
    v = np.array([0.0, 1.0, 0.0, -2.0, -0.0, -1.0, 0.0, 0.0, 3.0, -0.0, 4.0, -1e-300, 0.0])
    assert tridiag._sign_changes(v) == 3
    assert tridiag._sign_changes(np.array([-0.0, 0.0, -0.0])) == 0
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = rng.standard_normal(int(rng.integers(1, 40)))
        v[rng.random(len(v)) < 0.3] = rng.choice([0.0, -0.0])
        signs = np.sign(v[v != 0])
        assert tridiag._sign_changes(v) == np.count_nonzero(signs[1:] != signs[:-1])


@pytest.mark.parametrize("n", [400, 1000])
def test_mp_lambda_matches_the_closed_form(n):
    b, d = build_rho_chain(n, 1.0).birth_death_rates()
    lam = tridiag.mp_lambda(b, d, 0, dps=60)
    with mp.workdps(60):
        ref = 4 * mp.sin(mp.pi / (4 * n)) ** 2
        assert abs(mp.mpf(str(lam)) - ref) <= mp.mpf(10) ** -40 * ref


def test_mp_lambda_inside_the_green_bracket_on_a_wide_spread():
    b, d = rho_family(0.5).realize(512)
    _, _, (lo, hi) = tridiag.ground_pair(b, d)
    assert lo <= tridiag.mp_lambda(b, d, 0, dps=oracle_dps(b, d)) <= hi


@pytest.mark.parametrize(
    "rates",
    [
        criterion05_chain(16),
        criterion05_chain(22),
        (np.full(29, 100.0), np.full(30, 0.01)),
    ],
    ids=["criterion05-16", "criterion05-22", "cancellation"],
)
def test_newton_landing_on_lambda0_is_certified(rates):
    # Newton steps can land exactly on lambda0, where the last pivot is 0
    b, d = rates
    _, _, (lo, hi) = tridiag.ground_pair(b, d)
    lam = float(tridiag.mp_lambda(b, d, 0, dps=oracle_dps(b, d)))
    assert lo * (1 - 1e-12) <= lam <= hi * (1 + 1e-12)


def test_exact_eigenvalue_is_returned():
    assert tridiag.mp_lambda(np.zeros(0), np.array([2.5])) == 2.5


def test_lambda0_below_the_double_range():
    # lambda0 ~ 1e-798: the double start is 0 and Newton climbs from there
    b, d = np.full(199, 100.0), np.full(200, 0.01)
    lam = mp.mpf(str(tridiag.mp_lambda(b, d, 0, dps=oracle_dps(b, d))))
    assert mp.mpf("1e-799") < lam < mp.mpf("1e-797")


@pytest.mark.parametrize("k", [1, 50, 99])
def test_higher_indices_are_certified_too(k):
    b, d = build_rho_chain(100, 1.0).birth_death_rates()
    main, off = sym_tridiag(b, d)
    ref = eigvalsh_tridiagonal(main, off)[k]
    assert float(tridiag.mp_lambda(b, d, k)) == pytest.approx(ref, rel=1e-11, abs=0)


def random_oracle_chains():
    """Chains 0-59 of default_rng(7): n from integers(2, 300), rates
    log-uniform in [1e-3, 1e3]."""
    rng = np.random.default_rng(7)
    return [random_birth_death(rng, n_max=299, low=1e-3, high=1e3) for _ in range(60)]


@pytest.mark.parametrize("index", [0, 1])
def test_higher_eigenvalues_the_quotient_cannot_vouch_for_match_the_oracle(index):
    # no quotient vouches for the bisection estimates of these chains: on
    # chain 0 (283 states) an inverse-iterated vector's quotient is 2.407e-26
    # for all three, against 7.3e-27, 6.0e-21 and 1.9e-17
    b, d = random_oracle_chains()[index]
    lam = tridiag.higher_eigenvalues(b, d, 3)
    dps = 30 + pivot_digits_lost(b, d)
    ref = np.array([float(tridiag.mp_lambda(b, d, k, dps=dps)) for k in range(1, 4)])
    np.testing.assert_allclose(lam, ref, rtol=1e-12)


def test_bisected_higher_eigenvalues_keep_relative_accuracy():
    # chain 37 (104 states, too few for a ladder) bisects: the re-shifted
    # quotient from LAPACK's estimate vouched for a lambda_2 1.86e-11 off the
    # oracle, where the bisected value is the eigenvalue to a few ulps
    b, d = random_oracle_chains()[37]
    lam = tridiag.higher_eigenvalues(b, d, 3)
    dps = 30 + pivot_digits_lost(b, d)
    ref = np.array([float(tridiag.mp_lambda(b, d, k, dps=dps)) for k in range(1, 4)])
    np.testing.assert_allclose(lam, ref, rtol=1e-13)


@pytest.mark.parametrize(
    "chains",
    [lambda: [criterion05_chain(i) for i in range(50)], random_oracle_chains,
     lambda: [(np.full(119, 1e-3), np.full(120, 1e3))]],
    ids=["criterion05", "rng7", "clustered"],
)
def test_bisected_start_is_relatively_accurate(chains):
    # the count is exact for rates perturbed by a few ulps, which moves
    # lambda0 by a few n ulps at most; "clustered" has 120 eigenvalues in
    # [998, 1002].  The worst start was 0.4 n eps from the oracle
    for b, d in chains():
        bu, du, k = tridiag._unit_arrays(b, d)
        lo = math.ldexp(tridiag.bisected_eigenvalues(bu, du, 0, 0)[0], k)
        ref = float(tridiag.mp_lambda(b, d, 0))
        assert abs(lo - ref) <= len(d) * np.finfo(float).eps * ref


def test_a_killing_top_joins_the_last_pivot():
    # b_3 kills as well; the oracle once read the top as reflecting and
    # certified 0.14896567642740546
    b, d = np.array([1.0, 2.0, 0.5]), np.array([1.0, 1.5, 0.7])
    ref = eigvalsh_tridiagonal(d + b, -np.sqrt(b[:-1] * d[1:]))[0]
    assert ref == pytest.approx(0.5, rel=1e-14)
    assert float(tridiag.mp_lambda(b, d)) == pytest.approx(ref, rel=1e-12, abs=0)
    assert tridiag.bisected_lambda0(b, d) == pytest.approx(ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("x", [2, 3, 72, 142, 143])
def test_minor_blocks_match_the_oracle(x):
    # the block 1..x-1 below state x is killed at both ends, by d_1 and by
    # b_{x-1}; the block above it only from its first state
    b, d = criterion05_chain(0)
    lower = float(tridiag.mp_lambda(b[:x - 1], d[:x - 1]))
    assert tridiag.bisected_lambda0(b[:x - 1], d[:x - 1]) == pytest.approx(lower, rel=1e-12, abs=0)
    upper = float(tridiag.mp_lambda(b[x:], d[x:])) if x < len(d) else math.inf
    assert _bd_minor_lambda0(b, d, x) == pytest.approx(min(lower, upper), rel=1e-12, abs=0)


def test_stalled_newton_is_not_certified(monkeypatch):
    monkeypatch.setattr(tridiag, "_newton_step", lambda b, bd, d, lam: 0 * lam)
    b, d = criterion05_chain(0)
    with pytest.raises(NoConvergence):
        tridiag.mp_lambda(b, d, 0, dps=oracle_dps(b, d))


def cancellation_lambda0(n, b, d, dps):
    """Lowest eigenvalue of the constant-rate chain, in closed form.

    With s = sqrt(b d), v_x = sinh(x k) solves every row of the symmetrized
    matrix at lam = b + d - 2 s cosh k but the last, which asks
    s sinh((n + 1) k) = b sinh(n k)."""
    with mp.workdps(dps):
        b, d = mp.mpf(b), mp.mpf(d)
        s = mp.sqrt(b * d)
        k = mp.findroot(lambda k: s * mp.sinh((n + 1) * k) - b * mp.sinh(n * k), mp.log(b / s))
        return b + d - 2 * s * mp.cosh(k)


@pytest.mark.parametrize("b, d, k", [([1.0], [1.0, 1.0], 5), ([1.0], [1.0, 1.0], 2),
                                     ([1.0], [1.0, 1.0], -1)], ids=["5-of-2", "2-of-2", "negative"])
def test_higher_eigenpairs_reject_a_count_outside_0_to_n_minus_1(b, d, k):
    # a chain of n states has n - 1 higher eigenvalues: k = 5 of 2 states
    # returned [2.618, 8, 8, 8, 8], and k = -1 raised a raw ValueError
    with pytest.raises(InvalidParameter, match=rf"^eigenvalue count {k} outside 0\.\.1$"):
        tridiag.higher_eigenpairs(b, d, k)
    with pytest.raises(InvalidParameter):
        tridiag.higher_eigenvalues(b, d, k)


def test_mp_lambda_rejects_what_it_cannot_certify():
    b, d = build_rho_chain(10, 1.0).birth_death_rates()
    with pytest.raises(InvalidParameter):
        tridiag.mp_lambda(b, d, eig_index=10)
    with pytest.raises(InvalidParameter):
        tridiag.mp_lambda(b, d, 0, dps=6)
    # the differential recursion resolves the 120-digit cancellation at 60 digits
    lam = tridiag.mp_lambda(np.full(29, 100.0), np.full(30, 0.01), 0, dps=60)
    ref = cancellation_lambda0(30, 100, 0.01, 300)
    with mp.workdps(300):
        assert abs(mp.mpf(str(lam)) - ref) <= mp.mpf(10) ** -40 * ref


def mpmath_minor_pivots(b, d, shift):
    """The standard LDL' pivots of the state-1 minor at shift, in binary
    arithmetic at mpmath's working precision."""
    bm, dm = [mp.mpf(float(x)) for x in b[1:]], [mp.mpf(float(x)) for x in d[1:]]
    n = len(dm)
    q = (bm[0] if n > 1 else mp.mpf(0)) + dm[0] - shift
    out = [q]
    for x in range(1, n):
        main = (bm[x] if x < n - 1 else mp.mpf(0)) + dm[x]
        q = main - shift - bm[x - 1] * dm[x] / q
        out.append(q)
    return out


def mpmath_detratio_minor(b, d, lam, dps):
    """mpmath reference for the determinant ratio of tridiag._bracket_pass:
    the standard LDL' pivot recursion of the state-1 minor at lam and at 0,
    in binary arithmetic."""
    with mp.workdps(dps):
        ratio = mp.mpf(1)
        pivots = zip(mpmath_minor_pivots(b, d, mp.mpf(str(lam))), mpmath_minor_pivots(b, d, mp.mpf(0)))
        for qa, qb in pivots:
            ratio *= qa / qb
        return ratio


def lambda0_pass(b, d, dps, hi_frac=0.0):
    """(lo, hi, the bracket pass at dps digits): lo just below the oracle's
    lambda0, hi a share hi_frac of the way from just above it to past the
    spectrum."""
    lam = tridiag.mp_lambda(b, d, 0, dps=dps)
    with decimal.localcontext(tridiag.oracle_context(dps)):
        bm, dm = tridiag._mp_rates(b, d)
        lo, hi = lam * (1 - Decimal("1e-30")), lam * (1 + Decimal("1e-30"))
        hi += Decimal(hi_frac) * 4 * max(dm + bm)
        return lo, hi, tridiag._bracket_pass(bm, dm, lo, hi)


@pytest.mark.parametrize(
    "rates",
    [criterion05_chain(i) for i in range(10)] + [(np.full(199, 100.0), np.full(200, 0.01))],
    ids=[f"criterion05-{i}" for i in range(10)] + ["cancellation"],
)
def test_decimal_detratio_matches_mpmath(rates):
    # decimal and binary rounding differ, so the two agree only to the
    # recursion's conditioning (about 28 digits on chain 0 at oracle_dps);
    # 20 more digits put that well below the 1e-40 asked for
    b, d = rates
    dps = oracle_dps(b, d) + 20
    lo, _, (_, _, ours) = lambda0_pass(b, d, dps)
    ref = mpmath_detratio_minor(b, d, lo, dps)
    with mp.workdps(dps):
        assert abs(mp.mpf(str(ours)) - ref) <= mp.mpf(10) ** -40 * abs(ref)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(birth_death_rates(n_max=200, spread=1e3), st.floats(0, 1), st.booleans())
def test_one_pass_detratio_matches_the_two_pass_reference(rates, hi_frac, killed_top):
    # the bottom-up pass counts as the top-down _count does, at lo just below
    # lambda0 and at hi anywhere above it, also where the last up-rate kills.
    # Its ratio takes det(T~) = d_2 ... d_n: at a reflecting top the minor
    # is killed only at its first state, so its pivots at 0 multiply to its
    # death rates.  The ratio's condition number is the amplitude, so the
    # digits grow by the amplitude's as in exact_bd_amplitude
    b, d = rates
    if killed_top:
        b = np.append(b, d[-1])
    dps = oracle_dps(b[:len(d) - 1], d) + 20
    lo, hi, (below, above, ours) = lambda0_pass(b, d, dps, hi_frac)
    with decimal.localcontext(tridiag.oracle_context(dps)):
        bm, dm = tridiag._mp_rates(b, d)
        assert (below, above) == (tridiag._count(bm, dm, lo), tridiag._count(bm, dm, hi))
    assert below == 0 < above
    if killed_top or len(d) == 1:
        return
    if ours.adjusted() < 0:
        dps -= ours.adjusted()
        lo, _, (_, _, ours) = lambda0_pass(b, d, dps)
    ref = mpmath_detratio_minor(b, d, lo, dps)
    with mp.workdps(dps):
        assert abs(mp.mpf(str(ours)) - ref) <= mp.mpf(10) ** -40 * abs(ref)
        at_zero = mp.fprod(mpmath_minor_pivots(b, d, mp.mpf(0)))
        deaths = mp.fprod(mp.mpf(float(x)) for x in d[1:])
        assert abs(at_zero - deaths) <= mp.mpf(10) ** -40 * deaths


def oracle_passes(monkeypatch):
    """Spy on the oracle's passes: a list that gets ("_mp_rates",) and
    ("bisected_eigenvalues",) for each call, (name, digits) for each decimal
    Newton step, certificate and count pass, and (name, "float") for each
    such pass in double precision."""
    calls = []

    def spy(name, shift_arg=None):
        real = getattr(tridiag, name)

        def wrapper(*args, **kwargs):
            if shift_arg is None:
                calls.append((name,))
            elif isinstance(args[shift_arg], Decimal):
                calls.append((name, decimal.getcontext().prec))
            else:
                calls.append((name, "float"))
            return real(*args, **kwargs)

        monkeypatch.setattr(tridiag, name, wrapper)

    spy("_mp_rates")
    spy("bisected_eigenvalues")
    spy("_newton_step", 3)
    for name in ("_bracket_pass", "_count"):
        spy(name, 2)
    return calls


def test_oracle_runs_one_pass_per_step(monkeypatch):
    # chain 0's amplitude (1.6e3) needs no more than 38 digits, which the
    # float ratio at the double start tells: from that start one Newton step
    # makes the width small enough, and one bottom-up pass certifies lambda0
    # and forms the ratio
    calls = oracle_passes(monkeypatch)
    exact_bd_amplitude(build_birth_death(*criterion05_chain(0)))
    assert Counter(calls) == {("_mp_rates",): 1, ("bisected_eigenvalues",): 1,
                              ("_bracket_pass", "float"): 1,
                              ("_newton_step", 38): 1, ("_bracket_pass", 38): 1}


def test_oracle_escalation_restarts_from_lambda(monkeypatch):
    # chain 27 (amplitude 1.1e37) starts at 60 digits and repeats at 98: its
    # Newton steps there start from the 60-digit lambda0, so one step reaches
    # the certificate, and the double start and the rate conversion run once
    calls = oracle_passes(monkeypatch)
    exact_bd_amplitude(build_birth_death(*criterion05_chain(27)))
    count = Counter(calls)
    assert sorted({call[-1] for call in calls if len(call) == 2} - {"float"}) == [60, 98]
    assert count[("_mp_rates",)] == count[("bisected_eigenvalues",)] == 1
    assert count[("_newton_step", 98)] == count[("_bracket_pass", 98)] == 1
    assert not any(call[0] == "_count" for call in calls)
