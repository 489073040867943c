"""The birth-death ground pair: accuracy far below the rates, large chains,
wide eigenvector spreads, and agreement with the multi-precision oracle."""

import decimal
import math
import warnings
from decimal import Decimal
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
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
    lambda0_minor,
    poisson_family,
    rho_family,
)
from qsamp import tridiag
from qsamp.bd_infinite import RateFamily
from conftest import (
    cold_higher_eigenvalues, count_bisections, log_accelerated_family, pivot_digits_lost,
    random_birth_death,
)


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
    main, off = tridiag.sym_tridiag(b, d)
    ref = eigvalsh_tridiagonal(main, off, select="i", select_range=(0, 0))[0]
    assert np.isfinite(lam)
    assert abs(lam - ref) <= 1e-12 * ref
    assert phi.max() > 1e154


def test_higher_eigenvalue_beyond_half_the_exponent_range():
    # the index-3 eigenvector spans past 1e154 at n = 1100, so pi v^2
    # underflows everywhere unless the quotient's sums are shifted
    b, d = rho_family(0.5).realize(1100)
    ref = tridiag.eigenvalues(b, d, 3, 3)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = tridiag.higher_eigenvalues(b, d, 3)[2]
        v = tridiag._shifted_solves(b, d, ref * (1 - 1e-8), None)
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
    # phi of the log-space Green steps on the same chain
    np.testing.assert_allclose(phi[[75, 149]], [217916.0436101404, 154730867.70629027], rtol=1e-12)


def test_ground_pair_in_log_form_beyond_the_ratio_form_range(monkeypatch):
    # phi spans 8.5e305 and d_1 = 1024, so phi(1)/d_1 / max phi is below the
    # smallest normal double: the ratio-form steps hand over to log-space
    # steps, while lambda0 and phi stay inside the double range
    b, d = rho_family(0.5).realize(2030)
    log_steps = []
    log_step = tridiag._log_step
    monkeypatch.setattr(tridiag, "_log_step", lambda *a: log_steps.append(1) or log_step(*a))
    lam, phi, _ = tridiag.ground_pair(1024 * b, 1024 * d)
    assert log_steps
    assert abs(lam - 87.8470404848027) <= 4 * np.spacing(lam)
    np.testing.assert_allclose(phi[[1015, 2029]], [3.8352942669342224e155, 8.476508696932695e305],
                               rtol=1e-12)


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
    lam = tridiag.eigenvalues(b, d, 0, 5)
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
    np.testing.assert_allclose(lam, tridiag.eigenvalues(b, d, 1, 3), rtol=1e-13)


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
    lam = tridiag.eigenvalues(b, d, 1, 6)
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
    ref = tridiag.eigenvalues(b, d, 3, 3)[0]
    v = tridiag._shifted_solves(b, d, ref * (1 - 1e-8), None)
    assert abs(tridiag.rayleigh_quotient(b, d, v) - ref) <= 1e-8 * ref
    assert len(calls) == 1


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(quotient_inputs())
def test_truncation_values_at_any_power_of_two_scale(inputs):
    # the higher eigenpairs run on the rates scaled into (0, 1), so their
    # bits are the same at every scale; lambda0 of a chain whose ground pair
    # raises is not compared
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
            scaled = tridiag.ground_pair(bk, dk)[0]
            assert math.ldexp(scaled, -k) == pytest.approx(lam, rel=1e-12, abs=0)
        if all(is_normal(x) for x in np.ldexp(higher, k)):
            np.testing.assert_array_equal(tridiag.higher_eigenvalues(bk, dk, k_high),
                                          np.ldexp(higher, k))
        if is_normal(math.ldexp(form, k)):
            scaled = dirichlet_form(array_family(bk, dk), v, n)
            assert math.ldexp(scaled, -k) == pytest.approx(form, rel=1e-12, abs=0)


@pytest.mark.parametrize("k", SCALES)
def test_wide_spread_chain_at_any_power_of_two_scale(k):
    # rho_family(0.5) at 1100 states: phi spans past 1e154, and at 2^-600 and
    # 2^900 the shifted solves on the rates as given overflowed or
    # underflowed, so the higher eigenvalues came out as 1.5 and 0.49999 (not
    # 0.0858) and the ground pair's steps ran out from a poor start
    b, d = rho_family(0.5).realize(1100)
    lam = tridiag.ground_pair(b, d)[0]
    higher = tridiag.higher_eigenvalues(b, d, 6)
    bk, dk = np.ldexp(b, k), np.ldexp(d, k)
    assert math.ldexp(tridiag.ground_pair(bk, dk)[0], -k) == pytest.approx(lam, rel=1e-12, abs=0)
    np.testing.assert_array_equal(tridiag.higher_eigenvalues(bk, dk, 6), np.ldexp(higher, k))
    np.testing.assert_allclose(higher, tridiag.eigenvalues(b, d, 1, 6), rtol=1e-12)


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
    main, off = tridiag.sym_tridiag(b, d)
    w = eigvalsh_tridiagonal(main, off) if len(d) > 1 else main
    sigmas = np.concatenate([[w[0] / 2], (w[:-1] + w[1:]) / 2, [2 * w[-1]]])
    with decimal.localcontext(tridiag.oracle_context(60)):
        bm, dm = tridiag._mp_rates(b, d)
        for sigma in sigmas:
            if np.abs(w - sigma).min() > 1e-8 * w[-1]:
                in_decimal = tridiag._count(bm, dm, Decimal(float(sigma)))
                assert tridiag.sturm_count(b, d, sigma) == in_decimal == np.count_nonzero(w < sigma)


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
    main, off = tridiag.sym_tridiag(b, d)
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


@pytest.mark.parametrize(
    "chains",
    [lambda: [criterion05_chain(i) for i in range(50)], random_oracle_chains,
     lambda: [(np.full(119, 1e-3), np.full(120, 1e3))]],
    ids=["criterion05", "rng7", "clustered"],
)
def test_newton_start_is_the_bisection_start(chains):
    # "clustered": 120 eigenvalues in [998, 1002], so float Newton from 0
    # creeps and the start falls back to bisection
    for b, d in chains():
        b, d = b.tolist(), d.tolist()
        assert tridiag._double_start(b, d, 0) == tridiag._bisected_start(b, d, 0)


def test_newton_start_takes_few_counts(monkeypatch):
    # bisection down to adjacent floats took 63.1 count passes per chain
    counts = []
    count = tridiag._count
    monkeypatch.setattr(tridiag, "_count", lambda *a: counts.append(1) or count(*a))
    for i in range(50):
        b, d = criterion05_chain(i)
        tridiag._double_start(b.tolist(), d.tolist(), 0)
    assert len(counts) / 50 <= 15


def test_stalled_float_newton_falls_back_to_bisection(monkeypatch):
    b, d = (x.tolist() for x in criterion05_chain(0))
    bisected = tridiag._bisected_start(b, d, 0)
    monkeypatch.setattr(tridiag, "_newton_step", lambda b, d, lam: 0 * lam)
    assert tridiag._newton_start(b, d) is None
    assert tridiag._double_start(b, d, 0) == bisected


def test_stalled_newton_is_not_certified(monkeypatch):
    monkeypatch.setattr(tridiag, "_newton_step", lambda main, off2, lam: 0 * lam)
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


def mpmath_detratio_minor(b, d, lam, dps):
    """mpmath reference for tridiag.mp_detratio_minor: the same LDL' pivot
    recursion of the state-1 minor at lam and at 0, in binary arithmetic."""
    with mp.workdps(dps):
        bm, dm = [mp.mpf(float(x)) for x in b[1:]], [mp.mpf(float(x)) for x in d[1:]]

        def pivots(shift):
            n = len(dm)
            q = (bm[0] if n > 1 else mp.mpf(0)) + dm[0] - shift
            out = [q]
            for x in range(1, n):
                main = (bm[x] if x < n - 1 else mp.mpf(0)) + dm[x]
                q = main - shift - bm[x - 1] * dm[x] / q
                out.append(q)
            return out

        ratio = mp.mpf(1)
        for qa, qb in zip(pivots(mp.mpf(str(lam))), pivots(mp.mpf(0))):
            ratio *= qa / qb
        return ratio


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
    lam = tridiag.mp_lambda(b, d, 0, dps=dps)
    ours = tridiag.mp_detratio_minor(b, d, lam, dps=dps)
    ref = mpmath_detratio_minor(b, d, lam, dps)
    with mp.workdps(dps):
        assert abs(mp.mpf(str(ours)) - ref) <= mp.mpf(10) ** -40 * abs(ref)
