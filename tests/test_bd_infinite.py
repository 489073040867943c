import json
import math
import operator
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsamp import (
    GapViolation,
    InvalidParameter,
    NoConvergence,
    NotConverged,
    accelerated_poisson_family,
    amplitude,
    build_general,
    dirichlet_eigenpair,
    dirichlet_form,
    eigen_convergence,
    entrance_check,
    exact_bd_amplitude,
    full_spectrum,
    gap_identity_check,
    hitting_time_from,
    lyapunov_check,
    pi_measure,
    poisson_family,
    rho_family,
    sample_path,
    spectral_bound,
    tail_sum_estimate,
    theorem_bound,
    truncate_neumann,
)
from qsamp import tridiag
from qsamp.bd_infinite import RateFamily, _rate_expression, parse_rate_family
from conftest import (
    cold_higher_eigenvalues, count_bisections, lapack_eigenvalues, log_accelerated_family,
    pivot_digits_lost,
)


class TestPiMeasure:
    def test_poisson_factorials(self):
        pi = pi_measure(poisson_family(), 8)
        expect = np.array([1.0 / math.factorial(n) for n in range(1, 9)])
        np.testing.assert_allclose(pi, expect, rtol=1e-13)

    def test_single_state(self):
        np.testing.assert_allclose(pi_measure(poisson_family(), 1), [1.0])

    def test_constant_rates_telescope(self):
        fam = RateFamily(lambda n: 3.0 * np.ones_like(np.asarray(n, float)),
                         lambda n: 3.0 * np.ones_like(np.asarray(n, float)))
        np.testing.assert_allclose(pi_measure(fam, 10), np.ones(10), rtol=1e-14)

    def test_accelerated_same_weights_as_poisson(self):
        # the acceleration multiplies b and d by matched factors, so pi is untouched
        a = pi_measure(accelerated_poisson_family(), 12)
        p = pi_measure(poisson_family(), 12)
        np.testing.assert_allclose(a, p, rtol=1e-12)


class TestEntranceCheck:
    def test_poisson_fails_s(self):
        v = entrance_check(poisson_family(), 10_000)
        assert v.r_series_diverges == "yes"
        assert v.s_series_converges == "no"
        assert v.is_entrance_boundary is False

    def test_accelerated_satisfies_both(self):
        v = entrance_check(accelerated_poisson_family(), 10_000)
        assert v.r_series_diverges == "yes"
        assert v.s_series_converges == "yes"
        assert v.is_entrance_boundary is True

    def test_subcritical_drift_fails_s(self):
        # constant rates with rho < 1: the return series has constant terms
        v = entrance_check(rho_family(0.5), 5_000)
        assert v.s_series_converges == "no"
        assert v.r_series_diverges == "yes"

    def test_supercritical_drift_fails_s(self):
        # pi is not summable, so every return term is infinite
        v = entrance_check(rho_family(2.0), 5_000)
        assert v.s_series_converges == "no"

    def test_verdicts_stable_under_cutoff_extension(self):
        for fam in (poisson_family(), accelerated_poisson_family(), rho_family(0.5)):
            a = entrance_check(fam, 2_000)
            b = entrance_check(fam, 10_000)
            for field in ("r_series_diverges", "s_series_converges"):
                va, vb = getattr(a, field), getattr(b, field)
                if va != "inconclusive":
                    assert va == vb

    def test_partial_sums_shapes(self):
        v = entrance_check(poisson_family(), 500)
        assert len(v.r_partial_sums) == 499
        assert len(v.s_partial_sums) == 499
        assert v.z_partial == pytest.approx(math.e - 1.0, rel=1e-10, abs=0)

    def test_small_cutoff_rejected(self):
        with pytest.raises(InvalidParameter):
            entrance_check(poisson_family(), 5)


class TestTruncateNeumann:
    def test_poisson_n3_rows(self):
        gen = truncate_neumann(poisson_family(), 3)
        k = gen.k_matrix()
        np.testing.assert_allclose(
            k, [[-2.0, 1.0, 0.0], [2.0, -3.0, 1.0], [0.0, 3.0, -3.0]]
        )
        assert gen.absorption_rates[0] == 1.0

    def test_n2_is_valid_two_state(self):
        gen = truncate_neumann(poisson_family(), 2)
        assert gen.n_states == 2
        np.testing.assert_allclose(gen.k_matrix(), [[-2.0, 1.0], [2.0, -2.0]])

    def test_ground_eigenvalue_decreases_with_size(self):
        vals = [
            dirichlet_eigenpair(truncate_neumann(poisson_family(), n)).lambda0
            for n in (5, 10, 20, 40)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_too_small(self):
        with pytest.raises(InvalidParameter):
            truncate_neumann(poisson_family(), 1)


class TestEigenConvergence:
    def test_accelerated_pipeline(self):
        series = eigen_convergence(
            accelerated_poisson_family(), 4, [2 ** k for k in range(6, 11)], 1e-8
        )
        assert series.lambda_monotone
        assert series.lambda0_prime_monotone
        assert series.phi_nondecreasing
        assert np.isfinite(series.lambda0_limit)
        assert np.isfinite(series.lambda0_prime_limit)
        assert series.lambda0_prime_limit > series.lambda0_limit
        # tables are wide enough and padded with +inf where n >= N
        assert series.lambda_table.shape == (5, 5)
        amps = series.amplitudes()
        assert np.all(np.diff(amps) >= -1e-12)

    def test_null_drift_never_converges(self):
        # b = d = 1 drifts nowhere; the ground eigenvalue decays like 1/N^2
        with pytest.raises(NotConverged):
            eigen_convergence(rho_family(1.0), 2, [64, 128, 256], 1e-12)

    def test_ground_column_past_half_the_exponent_range(self):
        # phi spans 1e165 and 1e225; lambda0 tends to (1 - sqrt(rho))^2
        series = eigen_convergence(rho_family(0.5), 0, [1100, 1500], 1e-4)
        assert np.all(np.isfinite(series.lambda_table[:, 0]))
        assert series.lambda0_limit == pytest.approx((1 - math.sqrt(0.5)) ** 2, rel=1e-4, abs=0)

    def test_higher_columns_past_half_the_exponent_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = eigen_convergence(rho_family(0.5), 3, [1100, 1500], 1e-4)
        assert np.all(np.isfinite(series.lambda_table))
        assert series.lambda_monotone

    def test_failed_solve_is_not_monotone(self, monkeypatch):
        monkeypatch.setattr(tridiag, "higher_eigenpairs",
                            lambda b, d, k, guesses=None, starts=None: (np.full(k, math.nan), []))
        series = eigen_convergence(poisson_family(), 2, [16, 32], 1e-2)
        assert np.isnan(series.lambda_table[:, 1:]).all()
        assert not series.lambda_monotone

    def test_one_bisection_call_per_kind_per_schedule(self, monkeypatch):
        # only lambda_1..lambda_6 of the first truncation bisect: the ground
        # pairs start from G1 or the truncation before, and every later
        # truncation's higher values from the one before
        calls = count_bisections(monkeypatch)
        eigen_convergence(accelerated_poisson_family(), 6, [2 ** k for k in range(4, 13)], 1e-8)
        assert [(len(a[1]), a[2:]) for a in calls] == [(16, (1, 6))]

    def test_later_truncations_start_every_solve_warm(self, monkeypatch):
        # the eigenvectors of the truncation before, padded, start each
        # shifted solve; only the first truncation solves from the ones vector
        cold = []
        solves = tridiag._shifted_solves

        def spy(b, d, shift, start):
            if start is None:
                cold.append(len(d))
            return solves(b, d, shift, start)

        monkeypatch.setattr(tridiag, "_shifted_solves", spy)
        eigen_convergence(accelerated_poisson_family(), 6, [2 ** k for k in range(4, 13)], 1e-8)
        assert cold == [16] * 6

    def test_spread_beyond_double_range_raises(self):
        # at N = 2048 phi spans more than 1e308: the pair itself fails, not
        # the convergence test on a wrong eigenvalue
        with pytest.raises(NoConvergence):
            eigen_convergence(rho_family(0.5), 0, [512, 1024, 2048], 0.1)

    def test_bad_schedule(self):
        with pytest.raises(InvalidParameter):
            eigen_convergence(poisson_family(), 2, [64], 1e-6)
        with pytest.raises(InvalidParameter):
            eigen_convergence(poisson_family(), 2, [64, 32], 1e-6)

    def test_one_state_truncation_rejected(self):
        # a 1-state truncation has an empty minor, as truncate_neumann says
        with pytest.raises(InvalidParameter):
            eigen_convergence(poisson_family(), 2, (1, 2), 1e-6)

    def test_negative_n_max_rejected(self):
        with pytest.raises(InvalidParameter):
            eigen_convergence(poisson_family(), -1, [64, 128], 1e-6)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(st.floats(1.5, 4.0).map(log_accelerated_family),
              st.sampled_from([poisson_family(), accelerated_poisson_family()])),
    st.lists(st.integers(3, 2048), min_size=3, max_size=5, unique=True).map(sorted),
    st.integers(0, 6),
)
def test_warm_started_truncations_match_cold_solves(fam, schedule, n_max):
    series = eigen_convergence(fam, n_max, schedule, 10.0)
    for n, row, lam0p, phi in zip(schedule, series.lambda_table, series.lambda0_prime_table,
                                  series.phi_list):
        b, d = fam.realize(n)
        lam0, phi_cold, _ = tridiag.ground_pair(b, d)
        k = min(n_max, n - 1)
        cold = np.r_[lam0, cold_higher_eigenvalues(b, d, k), np.full(n_max - k, np.inf)]
        np.testing.assert_allclose(row, cold, rtol=1e-13)
        np.testing.assert_allclose(phi, phi_cold, rtol=1e-13)
        assert lam0p == pytest.approx(tridiag.ground_pair(b[1:], d[1:])[0], rel=1e-13, abs=0)


class TestTheoremBound:
    def test_bound_above_the_double_range_is_inf(self):
        # the tail factor exp(-1.5e6) underflows to zero
        limits = {"lambda0": 1, "lambda0_prime": 2, "lambdas": [3]}
        assert theorem_bound(limits, tail_bound=1e6).bound == math.inf

    def test_tail_zero_reduces_to_finite_spectral_bound(self):
        gen = truncate_neumann(accelerated_poisson_family(), 12)
        rep = full_spectrum(gen)
        finite = spectral_bound(rep)
        limits = {
            "lambda0": rep.eigenvalues[0],
            "lambda0_prime": rep.lambda0_prime,
            "lambdas": rep.eigenvalues[1:],
        }
        mine = theorem_bound(limits, tail_bound=0.0)
        assert mine.bound == pytest.approx(finite.bound, rel=1e-12, abs=0)

    def test_golden_route(self, golden):
        rep = full_spectrum(golden)
        limits = {
            "lambda0": rep.eigenvalues[0],
            "lambda0_prime": rep.lambda0_prime,
            "lambdas": rep.eigenvalues[1:],
        }
        out = theorem_bound(limits, tail_bound=0.0)
        assert out.bound == pytest.approx(1 + 2 / math.sqrt(5), abs=1e-9)
        assert float(out) == out.bound

    def test_tail_inflates_bound_validly(self):
        series = eigen_convergence(
            accelerated_poisson_family(), 4, [64, 128, 256, 512], 1e-8
        )
        base = theorem_bound(series, tail_bound=0.0)
        tail = tail_sum_estimate(accelerated_poisson_family(), 512, 4)
        assert tail > 0
        padded = theorem_bound(series, tail_bound=tail)
        assert padded.bound > base.bound
        assert padded.tail_factor < 1
        # the padded bound dominates every truncation amplitude
        assert np.all(series.amplitudes() <= padded.bound)

    def test_gap_violation(self):
        with pytest.raises(GapViolation):
            theorem_bound({"lambda0": 1.0, "lambda0_prime": 0.9, "lambdas": [2.0]})

    def test_tail_sum_decreases_in_n_used(self):
        fam = accelerated_poisson_family()
        sums = [tail_sum_estimate(fam, 256, j) for j in (0, 3, 8)]
        assert sums[0] > sums[1] > sums[2] > 0

    def test_tail_without_higher_limits_uses_the_small_u_limit(self):
        # lambda0' = inf and no higher limits leave u_max = 0, where
        # -log(1-u)/u tends to 1
        out = theorem_bound({"lambda0": 1.0, "lambda0_prime": math.inf, "lambdas": []},
                            tail_bound=0.5)
        assert out.log_concavity_c == 1.0
        assert out.bound == pytest.approx(math.exp(0.5), rel=1e-15, abs=0)

    @pytest.mark.parametrize("key", ["lambda0", "lambda0_prime"])
    def test_undeclared_limit_raises(self, key):
        limits = {"lambda0": 1.0, "lambda0_prime": 2.0, "lambdas": [3.0]}
        limits[key] = math.nan
        with pytest.raises(NotConverged):
            theorem_bound(limits, tail_bound=0.1)

    @pytest.mark.parametrize("tail", [-0.5, math.nan, math.inf])
    def test_tail_bound_must_be_finite_and_nonnegative(self, tail):
        # a NaN tail would fail both tail < 0 and tail > 0 and drop out,
        # and an inf one would make the bound 1/0
        with pytest.raises(InvalidParameter):
            theorem_bound({"lambda0": 1.0, "lambda0_prime": 2.0, "lambdas": [3.0]},
                          tail_bound=tail)

    def test_negative_n_used_rejected(self):
        with pytest.raises(InvalidParameter):
            theorem_bound({"lambda0": 1.0, "lambda0_prime": 2.0, "lambdas": [3.0, 4.0]},
                          n_used=-1)

    def test_undeclared_higher_limit_in_a_series_raises(self):
        # dropping the factor of an undeclared lambda_1 would lower the bound
        # from 1.824 to 1.559
        series = eigen_convergence(
            accelerated_poisson_family(), 4, [64, 128, 256, 512], 1e-8
        )
        assert theorem_bound(series).bound == pytest.approx(1.824, abs=1e-3)
        limits = series.limits.copy()
        limits[1] = math.nan
        gapped = replace(series, limits=limits)
        with pytest.raises(NotConverged, match="lambda_1"):
            theorem_bound(gapped)
        with pytest.raises(NotConverged, match="lambda_1"):
            theorem_bound(gapped, n_used=2)
        # n_used counts from limits[1], so stopping before the gap is fine
        assert theorem_bound(gapped, n_used=0).bound == theorem_bound(series, n_used=0).bound

    def test_undeclared_lambda0_prime_in_a_series_raises(self):
        series = eigen_convergence(accelerated_poisson_family(), 2, [64, 128], 1e-4)
        with pytest.raises(NotConverged):
            theorem_bound(replace(series, lambda0_prime_limit=math.nan), tail_bound=0.1)


def spectrum_tail(rates, n, n_used):
    b, d = rates.realize(n)
    return float(np.sum(1.0 / lapack_eigenvalues(b, d)[n_used + 1 :]))


class TestTailSum:
    @pytest.mark.parametrize("q", [2, 4])
    @pytest.mark.parametrize("n", [40, 120])
    def test_matches_the_multi_precision_spectrum(self, q, n):
        # the oracle sums certified eigenvalues one by one and never
        # touches the trace identity
        b, d = log_accelerated_family(q).realize(n)
        dps = max(60, 30 + pivot_digits_lost(b, d))
        ref = float(mp.fsum(1 / tridiag.mp_lambda(b, d, k, dps=dps) for k in range(7, n)))
        assert tail_sum_estimate(log_accelerated_family(q), n, 6) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_drifting_chain_falls_back_to_the_spectrum(self):
        # b = 2, d = 1 pushes mass to the top: the trace is about 1e47 and
        # the tail about 162, far past the cancellation limit
        b, d = rho_family(2.0).realize(200)
        ref = spectrum_tail(rho_family(2.0), 200, 6)
        assert tridiag.green_trace(b, d) > 1e40 * ref
        assert ref == pytest.approx(162.08, rel=1e-4, abs=0)
        assert tail_sum_estimate(rho_family(2.0), 200, 6) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_ground_pair_out_of_range_falls_back_to_the_spectrum(self):
        # phi spans more than 1e308 at N = 2048, so ground_pair gives no lambda0
        with pytest.raises(NoConvergence):
            tridiag.ground_pair(*rho_family(0.5).realize(2048))
        ref = spectrum_tail(rho_family(0.5), 2048, 6)
        assert tail_sum_estimate(rho_family(0.5), 2048, 6) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_all_modes_used_leaves_no_tail(self):
        assert tail_sum_estimate(accelerated_poisson_family(), 8, 7) == 0.0
        assert tail_sum_estimate(accelerated_poisson_family(), 1, 0) == 0.0

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidParameter):
            tail_sum_estimate(accelerated_poisson_family(), 64, -3)

    def test_bisects_only_at_the_foot_of_the_ladder(self, monkeypatch):
        # lambda_1..lambda_6 of the 4096-state chain come from its halvings
        # down to 64 states, the only one that bisects
        calls = count_bisections(monkeypatch)
        tail_sum_estimate(log_accelerated_family(3), 4096, 6)
        assert len(calls) == 1
        assert len(calls[0][1]) < 2 * tridiag.LADDER_BASE


class TestGapIdentity:
    def test_two_state_closed_form(self):
        # b = d = 1 truncated at 2 is the golden-ratio instance where the
        # identity can be checked by hand
        assert gap_identity_check(rho_family(1.0), 2) <= 1e-12

    def test_accelerated_small_residual(self):
        for n in (64, 256, 1024):
            assert gap_identity_check(accelerated_poisson_family(), n) <= 1e-8

    def test_poisson_small_residual(self):
        assert gap_identity_check(poisson_family(), 128) <= 1e-8

    def test_cold_pairs_do_not_bisect(self, monkeypatch):
        # both Green pairs start from G1 and settle by Rayleigh-quotient shifts
        calls = count_bisections(monkeypatch)
        assert gap_identity_check(log_accelerated_family(3), 4096) <= 1e-8
        assert calls == []


class TestHittingTime:
    def test_from_one_is_zero(self):
        assert hitting_time_from(poisson_family(), 1) == 0.0

    def test_unit_rates_quadratic(self):
        for x in (2, 5, 9):
            assert hitting_time_from(rho_family(1.0), x) == pytest.approx(x * (x - 1) / 2)

    def test_limit_matches_s_series(self):
        # for the accelerated family the x -> infinity limit is the (S) value
        fam = accelerated_poisson_family()
        v = entrance_check(fam, 4000)
        late = hitting_time_from(fam, 4000)
        assert late == pytest.approx(float(v.s_partial_sums[-1]), rel=1e-6, abs=0)

    def test_monte_carlo_cross_check(self):
        # the formula value is the reflected-truncation hitting time, so
        # simulate exactly that chain from its top state
        x = 5
        gen = truncate_neumann(rho_family(1.0), x)
        rng = np.random.default_rng(33)
        times = [sample_path(gen, x, 1, rng).elapsed for _ in range(4000)]
        mean = float(np.mean(times))
        se = float(np.std(times) / math.sqrt(len(times)))
        assert abs(mean - hitting_time_from(rho_family(1.0), x)) <= 3 * se


class TestLyapunov:
    def test_eigenvector_is_tight(self):
        fam = accelerated_poisson_family()
        n = 64
        gen = truncate_neumann(fam, n)
        pair = dirichlet_eigenpair(gen)
        ok, worst = lyapunov_check(fam, pair.phi, pair.lambda0, n, tol=1e-10)
        assert ok
        assert abs(worst) <= 1e-10

    def test_larger_rate_fails(self):
        fam = accelerated_poisson_family()
        n = 64
        gen = truncate_neumann(fam, n)
        pair = dirichlet_eigenpair(gen)
        ok, worst = lyapunov_check(fam, pair.phi, 1.5 * pair.lambda0, n)
        assert not ok
        assert worst < 0

    def test_shrunk_rate_holds(self):
        fam = accelerated_poisson_family()
        series = eigen_convergence(fam, 2, [64, 128, 256], 1e-8)
        n = 256
        phi = series.phi_list[-1]
        ok, worst = lyapunov_check(fam, phi, 0.9 * series.lambda0_limit, n)
        assert ok
        assert worst > 0

    def test_one_state_rejected(self):
        # the check has no interior row at n = 1
        with pytest.raises(InvalidParameter):
            lyapunov_check(accelerated_poisson_family(), [1.0], 0.5, 1)

    @pytest.mark.parametrize("phi, lam", [
        ([1.0, np.nan, 1.0, 1.0, 1.0], 0.5),
        ([1.0, np.inf, 1.0, 1.0, 1.0], 0.5),
        ([1.0, 1.0, 1.0, 1.0, 1.0], np.nan),
        ([1.0, 1.0, 1.0, 1.0, 1.0], np.inf),
    ], ids=["nan-phi", "inf-phi", "nan-lam", "inf-lam"])
    def test_non_finite_input_rejected(self, phi, lam):
        # a NaN gave (False, nan) and an infinite phi a raw RuntimeWarning;
        # an infinite lam is no rate either
        with pytest.raises(InvalidParameter):
            lyapunov_check(poisson_family(), phi, lam, 5)


class TestDirichletForm:
    def test_eigenvector_attains_ground_value(self):
        fam = poisson_family()
        n = 40
        gen = truncate_neumann(fam, n)
        pair = dirichlet_eigenpair(gen)
        q = dirichlet_form(fam, pair.phi, n)
        assert q == pytest.approx(pair.lambda0, rel=1e-10, abs=0)

    def test_indicator_of_state_one(self):
        fam = accelerated_poisson_family()
        n = 30
        f = np.zeros(n)
        f[0] = 1.0
        b, d = fam.realize(n)
        assert dirichlet_form(fam, f, n) == pytest.approx(d[0] + b[0], rel=1e-12, abs=0)

    @pytest.mark.parametrize("f", [[1.0, np.nan, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0],
                                   [1.0, np.inf, 1.0, 1.0]], ids=["nan", "zero", "inf"])
    def test_bad_vector_rejected(self, f):
        # a NaN gave nan, and a zero or infinite f a raw RuntimeWarning
        with pytest.raises(InvalidParameter):
            dirichlet_form(poisson_family(), f, 4)

    def test_random_vectors_dominate_ground_value(self):
        fam = poisson_family()
        n = 25
        lam0 = dirichlet_eigenpair(truncate_neumann(fam, n)).lambda0
        rng = np.random.default_rng(35)
        for _ in range(25):
            f = rng.normal(size=n)
            assert dirichlet_form(fam, f, n) >= lam0 * (1 - 1e-10)


class TestQualitativeAbsorption:
    def test_escape_probability_tracks_series(self):
        # sum 1/(pi_x b_x) diverging means sure absorption: from state 5 the
        # poisson walk almost never reaches a high cut before state 1, while
        # the supercritical walk usually does
        rng = np.random.default_rng(37)
        top = 40
        gen_p = truncate_neumann(poisson_family(), top)
        hits_p = sum(sample_path(gen_p, 5, top, rng).hit_target for _ in range(300))
        gen_r = truncate_neumann(rho_family(2.0), top)
        hits_r = sum(sample_path(gen_r, 5, top, rng).hit_target for _ in range(300))
        assert hits_p == 0
        assert hits_r > 250


def test_wallis_sanity():
    # prod over odd k >= 3 of (1 - 1/k^2) converges to pi/4
    k = np.arange(3, 200_001, 2, dtype=float)
    partial = np.exp(np.log1p(-1.0 / k ** 2).sum())
    assert partial == pytest.approx(math.pi / 4, rel=1e-5, abs=0)


def test_parse_rate_family(tmp_path):
    assert parse_rate_family("poisson").name == "poisson"
    assert parse_rate_family("poisson-accelerated").name == "poisson-accelerated"
    fam = parse_rate_family("rho:2.5")
    b, d = fam.realize(4)
    np.testing.assert_allclose(b, [2.5, 2.5, 2.5])
    spec = tmp_path / "rates.json"
    spec.write_text(json.dumps({"b": "log(e + n)**2", "d": "n * log(e - 1 + n)**2"}))
    custom = parse_rate_family(str(spec))
    cb, cd = custom.realize(10)
    ab, ad = accelerated_poisson_family().realize(10)
    np.testing.assert_allclose(cb, ab)
    np.testing.assert_allclose(cd, ad)


@pytest.mark.parametrize("expr", [
    "n.__class__",
    "().__class__.__subclasses__()",
    "__import__('os').getcwd()",
    "log(n, base=2)",
    "n[0]",
    "n if n else 1",
])
def test_rate_expression_outside_the_whitelist_rejected(tmp_path, expr):
    spec = tmp_path / "rates.json"
    spec.write_text(json.dumps({"b": "1 + 0 * n", "d": expr}))
    with pytest.raises(InvalidParameter):
        parse_rate_family(str(spec))


def test_rate_file_faults_raise_invalid_parameter(tmp_path):
    spec = tmp_path / "rates.json"
    spec.write_text(json.dumps({"b": "1 + 0 * n"}))
    with pytest.raises(InvalidParameter):
        parse_rate_family(str(spec))
    spec.write_text(json.dumps({"b": "9 ** 9 ** 9 + 0 * n", "d": "n"}))
    family = parse_rate_family(str(spec))
    with pytest.raises(InvalidParameter):
        family.realize(3)


def test_rate_family_positivity_enforced():
    bad = RateFamily(lambda n: np.asarray(n, float) - 2.0, lambda n: np.ones_like(np.asarray(n, float)))
    with pytest.raises(InvalidParameter):
        bad.realize(5)


LIMITS = {"lambda0": 1.0, "lambda0_prime": 2.0, "lambdas": [3.0]}


@pytest.mark.parametrize("call, message", [
    (lambda: poisson_family().realize(0), "^need n >= 1$"),
    (lambda: rho_family(0), "^rho must be positive$"),
    (lambda: _rate_expression(2.0), "^rate expression must be a string, got 2.0$"),
    (lambda: _rate_expression("n +"), r"^rate expression 'n \+': invalid syntax$"),
    (lambda: eigen_convergence(poisson_family(), 1, [4, 8], tol=0), "^tol must be positive$"),
    (lambda: RateFamily(_rate_expression("1 / (n - 1)"), _rate_expression("n")).realize(5),
     "^family 'custom' produced a NaN or infinite rate$"),
    (lambda: RateFamily(_rate_expression("(n - 1) / (n - 1)"), _rate_expression("n")).realize(5),
     "NaN or infinite rate$"),
    (lambda: RateFamily(_rate_expression("1"), _rate_expression("exp(1000 * n)")).realize(3),
     "NaN or infinite rate$"),
    (lambda: pi_measure(rho_family(2.0), 1100), "leaves the double range; use log_pi_measure$"),
    (lambda: entrance_check(poisson_family(), 20.5), r"^cutoff 20\.5 is not an integer$"),
    (lambda: truncate_neumann(poisson_family(), 2.5), r"^n 2\.5 is not an integer$"),
    (lambda: gap_identity_check(poisson_family(), 8.0), r"^n 8\.0 is not an integer$"),
    (lambda: eigen_convergence(poisson_family(), 0.5, [4, 8], 1e-6),
     r"^n_max 0\.5 is not an integer$"),
    (lambda: tail_sum_estimate(poisson_family(), 8, 1.5), r"^n_used 1\.5 is not an integer$"),
    (lambda: hitting_time_from(poisson_family(), 2.5), r"^x 2\.5 is not an integer$"),
    (lambda: lyapunov_check(poisson_family(), np.ones(5), "0.5", 5),
     "^lam '0.5' is not a finite number$"),
    (lambda: poisson_family().realize("3"), "^n '3' is not an integer$"),
    (lambda: poisson_family().realize(2.5), r"^n 2\.5 is not an integer$"),
    (lambda: lyapunov_check(poisson_family(), np.ones(5), 0.1, "5"), "^n '5' is not an integer$"),
    (lambda: lyapunov_check(poisson_family(), ["a"] * 5, 0.1, 5), "^phi must be 5 finite numbers$"),
    (lambda: lyapunov_check(poisson_family(), np.ones(5), 0.1, 5, tol=math.nan),
     "^tol nan is not a finite number$"),
    (lambda: dirichlet_form(poisson_family(), ["a"] * 5, 5),
     "^f must be 5 finite numbers, not all zero$"),
    (lambda: rho_family("1"), "^rho '1' is not a finite number$"),
    (lambda: rho_family(math.nan), "^rho nan is not a finite number$"),
    (lambda: eigen_convergence(poisson_family(), 1, ["a", 8], 1e-6),
     "^schedule entry 'a' is not an integer$"),
    (lambda: eigen_convergence(poisson_family(), 1, [4.5, 8], 1e-6),
     r"^schedule entry 4\.5 is not an integer$"),
    (lambda: eigen_convergence(poisson_family(), 1, None, 1e-6),
     "^schedule must be increasing with >= 2 entries$"),
    (lambda: eigen_convergence(poisson_family(), 1, [4, 8], math.nan),
     "^tol nan is not a finite number$"),
    (lambda: eigen_convergence(poisson_family(), 1, [4, 8], "a"), "^tol 'a' is not a finite number$"),
    (lambda: theorem_bound(LIMITS, tail_bound="a"), "^tail_bound 'a' is not a finite number$"),
    (lambda: theorem_bound(LIMITS, n_used="1"), "^n_used '1' is not an integer$"),
    (lambda: theorem_bound(None), "^limits must be a TruncationSeries or a mapping of real limits$"),
    (lambda: theorem_bound({"lambda0": 1.0}),
     "^limits must be a TruncationSeries or a mapping of real limits$"),
    (lambda: theorem_bound({**LIMITS, "lambdas": ["a"]}), "^lambdas must be finite numbers$"),
    (lambda: theorem_bound({"lambda0": -1.0, "lambda0_prime": 2.0, "lambdas": []}),
     r"^lambda0 -1\.0 is not finite and positive$"),
    (lambda: theorem_bound({"lambda0": math.inf, "lambda0_prime": math.inf, "lambdas": []}),
     "^lambda0 inf is not finite and positive$"),
    (lambda: parse_rate_family("no/such/rates.json"),
     r"^rate family file is unreadable or not valid JSON: \[Errno 2\]"),
    (lambda: parse_rate_family("rho:abc"), "^rate family 'rho:abc': rho is not a number$"),
    (lambda: RateFamily(None, None).realize(3),
     "^family 'custom' did not produce real rates: 'NoneType' object is not callable$"),
    (lambda: RateFamily(lambda x: "a", lambda x: "a").realize(3),
     "^family 'custom' did not produce real rates: could not convert string to float: 'a'$"),
], ids=["realize-0", "rho-0", "expression-not-a-string", "expression-syntax-error",
        "tol-0", "inf-rate", "nan-rate", "overflowing-rate", "pi-overflow", "float-cutoff",
        "float-truncation", "float-gap-identity-size", "float-n-max", "float-n-used",
        "float-hitting-state", "string-lyapunov-lam", "realize-string", "realize-float",
        "string-lyapunov-size", "string-lyapunov-phi", "nan-lyapunov-tol", "string-form-vector",
        "rho-string", "rho-nan", "string-schedule-entry", "float-schedule-entry", "no-schedule",
        "nan-tol", "string-tol", "string-tail-bound", "string-n-used", "no-limits",
        "limits-without-lambda0-prime", "string-limit", "negative-lambda0", "infinite-lambda0",
        "missing-rate-file", "rho-not-a-number", "callbacks-not-callable",
        "callbacks-return-strings"])
def test_public_input_checks(call, message):
    # the pytest ini turns RuntimeWarning into an error: none may escape
    with pytest.raises(InvalidParameter, match=message):
        call()


def test_rate_expression_unary_minus():
    rate = _rate_expression("-(1 - n) + -(-1)")
    np.testing.assert_array_equal(rate(np.arange(1.0, 4.0)), [1.0, 2.0, 3.0])


def test_realize_falls_back_to_integers_for_callbacks_that_reject_arrays():
    # operator.index rejects an array, so both callbacks take the per-integer route
    family = RateFamily(lambda x: float(operator.index(x) ** 0), lambda x: float(operator.index(x)))
    b, d = family.realize(7)
    want_b, want_d = poisson_family().realize(7)
    assert b.tobytes() == want_b.tobytes() and d.tobytes() == want_d.tobytes()
