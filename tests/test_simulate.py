import math

import numpy as np
import pytest
from scipy.linalg import expm

from qsamp import (
    EventBudgetExceeded,
    HeavyTailWarning,
    InvalidParameter,
    QsampError,
    UnderflowWarning,
    absorption_times,
    amplitude,
    build_general,
    build_rho_chain,
    dirichlet_eigenpair,
    doob_stationary,
    doob_transform,
    estimate_psi,
    estimate_ratio,
    expm_action,
    quasi_stationary_dist,
    sample_path,
    sandwich_experiment,
    total_variation,
)
from qsamp import simulate, spectral
from conftest import grid_walk, random_cycle_with_chords, random_reversible_generator

GOLDEN_LAM0 = (3 - math.sqrt(5)) / 2
GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


class TestSamplePath:
    def test_singleton_exponential_law(self):
        a = 2.0
        gen = build_general(1, [], {1: a})
        rng = np.random.default_rng(0)
        times = [sample_path(gen, 1, None, rng).elapsed for _ in range(20000)]
        mean = np.mean(times)
        se = np.std(times) / math.sqrt(len(times))
        assert abs(mean - 1.0 / a) <= 3 * se

    def test_start_equals_target(self, golden):
        rng = np.random.default_rng(1)
        out = sample_path(golden, 2, 2, rng)
        assert out.hit_target and out.elapsed == 0.0 and out.events == 0

    def test_absorption_only_via_exit_state(self, golden):
        # absorption leaves from state 1 only, so 1 is always hit first
        rng = np.random.default_rng(2)
        for _ in range(200):
            out = sample_path(golden, 2, 1, rng)
            assert out.hit_target and not out.absorbed

    def test_seeded_outcomes_are_pinned(self, rho1_chain10):
        # every draw and threshold comparison of a seeded sequence of paths
        rng = np.random.default_rng(2024)
        outs = [sample_path(rho1_chain10, 5, 8, rng) for _ in range(4)]
        outs += [sample_path(rho1_chain10, 5, None, rng) for _ in range(2)]
        assert [(o.hit_target, o.elapsed, o.absorbed, o.events) for o in outs] == [
            (False, 6.642624220328236, True, 13),
            (False, 9.246139816667185, True, 35),
            (False, 5.3320381532586385, True, 7),
            (True, 0.7437744755177833, False, 3),
            (False, 7.280060474962589, True, 17),
            (False, 53.70798173209346, True, 105),
        ]

    def test_outcome_exclusive(self, rho1_chain10):
        rng = np.random.default_rng(3)
        for _ in range(100):
            out = sample_path(rho1_chain10, 5, 8, rng)
            assert out.hit_target != out.absorbed
            assert out.elapsed > 0 and out.events >= 1


def dense_jump_tables(gen):
    """Reference: exit rates and the dense n x (n+1) cumulative table."""
    k = gen.k_matrix()
    rates = -np.diag(k).copy()
    probs = np.where(np.eye(gen.n_states, dtype=bool), 0.0, k)
    probs = np.concatenate([probs, gen.absorption_rates[:, None]], axis=1)
    probs /= rates[:, None]
    return rates, np.cumsum(probs, axis=1)


def dense_simulate_block(rates, cum, starts, target0, rng):
    """Reference kernel: full-length arrays and an O(n) threshold count per
    jump, drawing the same exponentials and uniforms as the sparse kernel."""
    n = rates.shape[0]
    m = len(starts)
    state = starts.copy()
    elapsed = np.zeros(m)
    hit = np.zeros(m, dtype=bool)
    active = np.arange(m)
    if target0 is not None:
        immediate = state == target0
        hit[immediate] = True
        active = active[~immediate]
    while active.size:
        s = state[active]
        elapsed[active] += rng.exponential(1.0 / rates[s])
        u = rng.random(active.size)
        nxt = (u[:, None] > cum[s]).sum(axis=1)
        absorbed = nxt >= n
        done = absorbed
        if target0 is not None:
            got = nxt == target0
            hit[active[got]] = True
            done = done | got
        state[active] = np.where(absorbed, -1, nxt)
        active = active[~done]
    return elapsed, hit


def dense_run_blocks(gen, start, target, n, seed):
    """Reference for simulate._run_blocks: same blocks, streams and merge."""
    rates, cum = dense_jump_tables(gen)
    starts = simulate._starts_array(gen, start, n, seed)
    los = range(0, n, simulate.BLOCK_SIZE)
    streams = np.random.SeedSequence(seed).spawn(len(los))
    target0 = None if target is None else target - 1
    results = [dense_simulate_block(rates, cum, starts[lo:lo + simulate.BLOCK_SIZE], target0,
                                    np.random.default_rng(stream))
               for lo, stream in zip(los, streams)]
    return (np.concatenate([r[0] for r in results]),
            np.concatenate([r[1] for r in results]))


def cycle_with_chords():
    """Non-reversible directed 8-cycle with three chords, absorbed at 4 and 8."""
    transitions = [(i, i % 8 + 1, 1.0 + 0.1 * i) for i in range(1, 9)]
    transitions += [(1, 5, 0.7), (6, 2, 1.3), (3, 7, 0.4)]
    return build_general(8, transitions, {4: 0.3, 8: 0.5})


#: chain, and the start and target of its ratio run (some paths are absorbed first)
KERNEL_CHAINS = {
    "rho30": (lambda: build_rho_chain(30, 1.0), 2, 3),
    "grid6x6": (lambda: grid_walk(6, 6), 2, 3),
    "cycle-chords": (cycle_with_chords, 5, 3),
}


class TestJumpKernel:
    @pytest.mark.parametrize("chain", sorted(KERNEL_CHAINS))
    def test_samples_equal_dense_kernel(self, chain):
        # two blocks: the second seeds its own stream and is merged after the
        # first; and one block small enough to run in scalar steps throughout
        make, x, y = KERNEL_CHAINS[chain]
        gen = make()
        lam0 = dirichlet_eigenpair(gen).lambda0
        for n in (simulate.BLOCK_SIZE + 700, simulate.TAIL):
            times = absorption_times(gen, 1, n, seed=3)
            ref_times, _ = dense_run_blocks(gen, 1, None, n, seed=3)
            assert np.array_equal(times, ref_times)
            elapsed, hit = simulate._run_blocks(gen, simulate._starts_array(gen, x, n, 3), y, n, 3)
            ref_elapsed, ref_hit = dense_run_blocks(gen, x, y, n, seed=3)
            assert np.array_equal(elapsed, ref_elapsed) and np.array_equal(hit, ref_hit)
            assert 0 < hit.sum() < n
            est = estimate_ratio(gen, lam0, x, y, n, seed=3)
            assert est == simulate._log_weight_stats(lam0 * ref_elapsed[ref_hit], n, 3)

    def test_table_is_built_without_dense_matrix(self, monkeypatch):
        gen = grid_walk(4, 5)
        n = gen.n_states
        ref_rates, ref_cum = dense_jump_tables(gen)
        k = gen.k_matrix()
        positive = [[j for j in range(n) if j != s and k[s, j] > 0]
                    + ([n] if gen.absorption_rates[s] > 0 else []) for s in range(n)]

        def forbidden(self):
            raise AssertionError("k_matrix called")

        monkeypatch.setattr(type(gen), "k_matrix", forbidden)
        scale, cols, thresh = simulate._jump_table(gen)
        w = max(len(p) for p in positive)
        assert cols.shape == (n, w) and thresh.shape == (w, n)
        assert np.array_equal(scale, 1.0 / ref_rates)
        for s, p in enumerate(positive):
            assert cols[s, :len(p)].tolist() == p
            assert np.array_equal(thresh[:len(p) - 1, s], ref_cum[s, p[:-1]])
            assert np.all(thresh[len(p) - 1:, s] == np.inf)


class StubRng:
    """Stand-in generator: unit exponentials and the same uniform u every draw."""

    def __init__(self, u):
        self.u = u

    def standard_exponential(self, size=None):
        return 1.0 if size is None else np.ones(size)

    def exponential(self, scale):
        return scale

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


class CountingRng:
    """Wraps a generator for the dense kernel and counts its uniforms, one per jump."""

    def __init__(self, rng):
        self.rng = rng
        self.uniforms = 0

    def exponential(self, scale):
        return self.rng.exponential(scale)

    def random(self, size):
        self.uniforms += size
        return self.rng.random(size)


def first_jumps(gen, x, ends_at):
    """Every y (0 for absorption) where a path from x can end with its first jump.

    ends_at(x, y) runs one path from x with target y (0: run to absorption)
    under a one-jump budget and reports whether it ended on y.
    """
    return [y for y in range(gen.n_states + 1) if y != x and ends_at(x, y)]


def absorbing_row_rounds_low():
    """State 1 has no absorption, and its cumulative jump probabilities
    0.3/1.6 + 0.7/1.6 + 0.6/1.6 round to 1 - 2**-52."""
    return build_general(4, [(1, 2, 0.3), (1, 3, 0.7), (1, 4, 0.6),
                             (2, 1, 1.0), (3, 1, 1.0), (4, 1, 1.0)], {2: 1.0})


class TestTransitions:
    CHAINS = {
        "rho10": lambda: build_rho_chain(10, 1.0),
        "rounds-low": absorbing_row_rounds_low,
        "cycle-chords": cycle_with_chords,
    }

    @staticmethod
    def block_ends_at(gen, size):
        """A block of `size` paths from x; under the stub they all move alike."""
        def ends_at(x, y):
            try:
                if y == 0:
                    absorption_times(gen, x, size, seed=0)
                    return True
                return estimate_ratio(gen, 0.0, x, y, size, seed=0).mean == 1.0
            except EventBudgetExceeded:
                return False
        return ends_at

    @staticmethod
    def path_ends_at(gen, rng):
        def ends_at(x, y):
            try:
                out = sample_path(gen, x, y or None, rng)
            except EventBudgetExceeded:
                return False
            return out.absorbed if y == 0 else out.hit_target
        return ends_at

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0 ** -53])
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_every_jump_follows_a_positive_rate(self, chain, u, monkeypatch):
        gen = self.CHAINS[chain]()
        rng = StubRng(u)
        monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: rng)
        # a budget of one step: a one-path block jumps in scalar steps, and
        # TAIL + 1 paths take their first jump in array steps
        wide = simulate.TAIL + 1
        for ends_at, budget in ((self.block_ends_at(gen, 1), 1),
                                (self.block_ends_at(gen, wide), wide),
                                (self.path_ends_at(gen, rng), 1)):
            monkeypatch.setattr(simulate, "EVENT_BUDGET", budget)
            for x in range(1, gen.n_states + 1):
                jumps = first_jumps(gen, x, ends_at)
                assert len(jumps) == 1, f"first jump from {x}: {jumps}"
                y = jumps[0]
                if y == 0:
                    assert gen.absorption_rates[x - 1] > 0, f"absorbed from {x}"
                else:
                    assert gen.rate(x, y) > 0, f"jump {x} -> {y}"

    def test_rounds_low_fixture(self):
        _, cum = dense_jump_tables(absorbing_row_rounds_low())
        assert cum[0, -1] < 1.0 - 2.0 ** -53

    def test_event_budget_guard(self, monkeypatch):
        gen = build_rho_chain(30, 1.0)
        monkeypatch.setattr(simulate, "EVENT_BUDGET", 10)
        with pytest.raises(EventBudgetExceeded) as err:
            absorption_times(gen, 30, 100, seed=1)
        assert isinstance(err.value, QsampError)
        with pytest.raises(EventBudgetExceeded) as err:
            sample_path(gen, 30, None, np.random.default_rng(1))
        assert isinstance(err.value, QsampError)
        # the last jump of a block is a scalar step: a budget one short of
        # the block's jump count runs out there, and the exact count does not
        rates, cum = dense_jump_tables(gen)
        rng = CountingRng(np.random.default_rng(np.random.SeedSequence(1).spawn(1)[0]))
        ref_times, _ = dense_simulate_block(rates, cum, np.full(100, 29), None, rng)
        monkeypatch.setattr(simulate, "EVENT_BUDGET", rng.uniforms - 1)
        with pytest.raises(EventBudgetExceeded):
            absorption_times(gen, 30, 100, seed=1)
        monkeypatch.setattr(simulate, "EVENT_BUDGET", rng.uniforms)
        assert np.array_equal(absorption_times(gen, 30, 100, seed=1), ref_times)


class TestEstimateRatio:
    def test_same_state_exact(self, golden):
        est = estimate_ratio(golden, GOLDEN_LAM0, 2, 2, 1000, seed=5)
        assert est.mean == 1.0 and est.std_error == 0.0

    @pytest.mark.parametrize("x, y", [(2, 5), (2, 0), (0, 1), (3, 3)])
    def test_states_out_of_range_rejected(self, golden, x, y):
        # a target outside 1..n is never hit, which read as a mean of 0
        with pytest.raises(InvalidParameter, match="out of range"):
            estimate_ratio(golden, GOLDEN_LAM0, x, y, 100, seed=1)

    def test_golden_within_three_sigma(self, golden):
        pair = dirichlet_eigenpair(golden)
        est = estimate_ratio(golden, pair.lambda0, 2, 1, 100_000, seed=42)
        expect = pair.phi[1] / pair.phi[0]
        assert abs(est.mean - expect) <= 3 * est.std_error

    def test_reproducible_and_thread_invariant(self, golden):
        a = estimate_ratio(golden, GOLDEN_LAM0, 2, 1, 40_000, seed=7)
        b = estimate_ratio(golden, GOLDEN_LAM0, 2, 1, 40_000, seed=7)
        c = estimate_ratio(golden, GOLDEN_LAM0, 2, 1, 40_000, seed=7, n_jobs=4)
        assert a == b == c
        d = estimate_ratio(golden, GOLDEN_LAM0, 2, 1, 40_000, seed=8)
        assert d.mean != a.mean

    def test_reciprocal_consistency(self, rho1_chain10):
        # interior targets keep both weight distributions square-integrable
        pair = dirichlet_eigenpair(rho1_chain10)
        fw = estimate_ratio(rho1_chain10, pair.lambda0, 8, 5, 60_000, seed=11)
        bw = estimate_ratio(rho1_chain10, pair.lambda0, 5, 8, 60_000, seed=12)
        prod = fw.mean * bw.mean
        sigma = prod * math.sqrt(
            (fw.std_error / fw.mean) ** 2 + (bw.std_error / bw.mean) ** 2
        )
        assert abs(prod - 1.0) <= 3 * sigma


class TestEstimatePsi:
    def test_lambda_zero_exact(self, golden):
        est = estimate_psi(golden, 0.0, 2, 5000, seed=3)
        assert est.mean == 1.0 and est.std_error == 0.0

    @pytest.mark.parametrize("start", [math.nan, math.inf, 1.5, np.float64(2.0)])
    def test_scalar_start_must_be_a_state_label(self, golden, start):
        # int() raised on NaN and inf, and truncated 1.5 to state 1
        with pytest.raises(InvalidParameter, match="not an integer"):
            absorption_times(golden, start, 10, seed=1)
        with pytest.raises(InvalidParameter, match="not an integer"):
            estimate_psi(golden, 0.1, start, 10, seed=1)

    def test_nan_in_the_start_law(self, golden):
        # NaN fails neither a sign nor a sum test
        with pytest.raises(InvalidParameter):
            estimate_psi(golden, 0.1, [math.nan, 1.0], 100, seed=3)
        with pytest.raises(InvalidParameter):
            absorption_times(golden, [math.nan, 1.0], 100, seed=3)

    def test_qsd_start_geometric_moment(self, golden):
        # from the quasi-stationary start the absorption time is exponential,
        # so the moment is lam0/(lam0 - lam)
        lam = GOLDEN_LAM0 / 2.0
        nu = quasi_stationary_dist(golden)
        est = estimate_psi(golden, lam, nu, 100_000, seed=17)
        expect = GOLDEN_LAM0 / (GOLDEN_LAM0 - lam)
        assert abs(est.mean - expect) <= 3 * est.std_error

    def test_ratio_matches_linear_solve_oracle(self, golden):
        # oracle: (K + lam I) psi = -absorption column, solved densely
        lam = GOLDEN_LAM0 / 2.0
        k = golden.k_matrix()
        psi = np.linalg.solve(k + lam * np.eye(2), -golden.absorption_rates)
        e2 = estimate_psi(golden, lam, 2, 150_000, seed=19)
        e1 = estimate_psi(golden, lam, 1, 150_000, seed=20)
        ratio = e2.mean / e1.mean
        sigma = ratio * math.sqrt(
            (e2.std_error / e2.mean) ** 2 + (e1.std_error / e1.mean) ** 2
        )
        assert abs(ratio - psi[1] / psi[0]) <= 3 * sigma

    def test_heavy_tail_warning(self, golden):
        with pytest.warns(HeavyTailWarning):
            estimate_psi(golden, 0.95 * GOLDEN_LAM0, 2, 200, seed=1)
        with pytest.warns(HeavyTailWarning):
            estimate_psi(golden, GOLDEN_LAM0 * 1.1, 2, 200, seed=1)

    def test_exponential_law_of_qsd_absorption(self, golden):
        nu = quasi_stationary_dist(golden)
        taus = absorption_times(golden, nu, 100_000, seed=23)
        n = len(taus)
        assert abs(taus.mean() * GOLDEN_LAM0 - 1.0) <= 3.0 / math.sqrt(n)
        assert abs(taus.var() * GOLDEN_LAM0 ** 2 - 1.0) <= 10.0 / math.sqrt(n)


class TestDoobTransform:
    def test_golden_values(self, golden):
        pair = dirichlet_eigenpair(golden)
        tilde = doob_transform(golden, pair)
        assert tilde[0, 1] == pytest.approx(GOLDEN_RATIO, abs=1e-12)
        assert tilde[1, 0] == pytest.approx(1.0 / GOLDEN_RATIO, abs=1e-12)
        assert np.abs(tilde.sum(axis=1)).max() <= 1e-12

    def test_constant_eigenvector_case(self):
        # symmetric chain absorbed everywhere at the same rate has a flat
        # eigenvector, so the transform is K + lam0 I
        a = 0.7
        gen = build_general(2, [(1, 2, 1.0), (2, 1, 1.0)], {1: a, 2: a})
        pair = dirichlet_eigenpair(gen)
        assert amplitude(pair) == pytest.approx(1.0, abs=1e-12)
        assert pair.lambda0 == pytest.approx(a, abs=1e-12)
        tilde = doob_transform(gen, pair)
        np.testing.assert_allclose(tilde, gen.k_matrix() + a * np.eye(2), atol=1e-12)

    def test_stationarity_residual(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            gen = random_reversible_generator(rng)
            pair = dirichlet_eigenpair(gen)
            tilde = doob_transform(gen, pair)
            eta_tilde = doob_stationary(gen, pair)
            assert np.abs(tilde.sum(axis=1)).max() <= 1e-12 * gen.max_rate
            assert np.abs(eta_tilde @ tilde).max() <= 1e-10 * gen.max_rate


class TestUniformization:
    def test_against_dense_expm_oracle(self, golden, rho1_chain10):
        # nonnegative, and within 1e-12 of the mass; the reference rounds
        # too, so t = 300 (6.0e-13 apart) would test little
        rng, draws = np.random.default_rng(31), np.random.default_rng(5)
        chains = [golden, rho1_chain10]
        chains += [random_reversible_generator(draws) for _ in range(10)]
        chains += [random_cycle_with_chords(draws) for _ in range(10)]
        for gen in chains:
            k = gen.k_matrix()
            v = rng.dirichlet(np.ones(gen.n_states))
            for t in (0.0, 0.3, 2.0, 30.0):
                mine = expm_action(k, v, t)
                oracle = v @ expm(k * t)
                assert np.all(mine >= 0)
                assert np.abs(mine - oracle).max() <= 1e-12 * oracle.sum()

    @pytest.mark.parametrize("k", [-600, 512, 900])
    def test_power_of_two_scale_gives_the_same_bits(self, k, golden):
        rng = np.random.default_rng(5)
        for gen in (golden, random_reversible_generator(rng), random_cycle_with_chords(rng)):
            q = gen.k_matrix()
            v = rng.dirichlet(np.ones(gen.n_states))
            for t in (0.3, 2.0, 30.0):
                assert np.array_equal(expm_action(np.ldexp(q, k), v, math.ldexp(t, -k)),
                                      expm_action(q, v, t))

    def test_negative_time_rejected(self, golden):
        with pytest.raises(InvalidParameter):
            expm_action(golden.k_matrix(), np.array([1.0, 0.0]), -1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nan_and_infinite_times_rejected(self, t, golden):
        with pytest.raises(InvalidParameter):
            expm_action(golden.k_matrix(), np.array([1.0, 0.0]), t)


class TestSandwich:
    def test_stationary_start(self, golden):
        nu = quasi_stationary_dist(golden)
        rows = sandwich_experiment(golden, nu, [0.0, 1.0])
        # mu0 = nu makes the transformed start equal the Doob stationary law
        for r in rows:
            assert r.dist_conditioned <= 1e-12
            assert r.dist_doob <= 1e-12

    def test_golden_flanks(self, golden):
        rows = sandwich_experiment(golden, np.array([0.0, 1.0]), [0.1, 1.0, 5.0])
        for r in rows:
            assert r.dist_conditioned >= r.lower - 1e-9
            assert r.dist_conditioned <= r.upper + 1e-9
            assert r.dist_doob > 0

    def test_decay_for_large_times(self, rho1_chain10):
        mu0 = np.zeros(10)
        mu0[-1] = 1.0
        rows = sandwich_experiment(rho1_chain10, mu0, [1.0, 10.0, 40.0])
        dists = [r.dist_conditioned for r in rows]
        assert dists[0] > dists[1] > dists[2]

    def test_invalid_mu0(self, golden):
        with pytest.raises(InvalidParameter):
            sandwich_experiment(golden, np.array([0.5, 0.4]), [1.0])

    def test_nan_in_mu0(self, golden):
        # NaN fails neither a sign nor a sum test
        with pytest.raises(InvalidParameter):
            sandwich_experiment(golden, [math.nan, 1.0], [1.0])

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nan_and_infinite_times_rejected(self, golden, t):
        with pytest.raises(InvalidParameter):
            sandwich_experiment(golden, [0.0, 1.0], [1.0, t])

    def test_survival_mass_that_underflows(self, golden):
        # lambda0 = 0.382: the mass is about 4e-266 at t = 1600 and 0 at 2000
        with pytest.warns(UnderflowWarning, match="t=1600"):
            (row,) = sandwich_experiment(golden, [0.0, 1.0], [1600.0])
        assert math.isfinite(row.dist_conditioned) and math.isfinite(row.dist_doob)
        with pytest.raises(InvalidParameter, match="t=2000"):
            sandwich_experiment(golden, [0.0, 1.0], [1.0, 2000.0])

    @pytest.mark.parametrize("chain", ["golden", "reversible", "cycle-chords"])
    def test_one_series_per_time_and_nu_from_the_pair(self, chain, golden, monkeypatch):
        gen = {"golden": lambda: golden,
               "reversible": lambda: random_reversible_generator(np.random.default_rng(33)),
               "cycle-chords": cycle_with_chords}[chain]()
        pair = dirichlet_eigenpair(gen)
        mu0 = np.full(gen.n_states, 1.0 / gen.n_states)
        times = [0.0, 0.5, 3.0]
        expected = (sandwich_experiment(gen, mu0, times, pair), doob_stationary(gen, pair))
        series = []
        real = simulate.expm_action

        def spy(*args):
            series.append(args[2])
            return real(*args)

        def forbidden(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(simulate, "expm_action", spy)
        monkeypatch.setattr(simulate, "doob_transform", forbidden)
        monkeypatch.setattr(spectral, "quasi_stationary_dist", forbidden)
        monkeypatch.setattr(simulate, "quasi_stationary_dist", forbidden, raising=False)
        assert sandwich_experiment(gen, mu0, times, pair) == expected[0]
        assert series == times
        assert np.array_equal(doob_stationary(gen, pair), expected[1])
        assert series == times

    def test_rows_match_the_doob_stationary_formula(self):
        # the Doob law at t is the surviving law reweighted by phi; the
        # dense Doob series agrees with it to rounding
        gen = random_reversible_generator(np.random.default_rng(33))
        mu0 = np.full(gen.n_states, 1.0 / gen.n_states)
        pair = dirichlet_eigenpair(gen)
        times = [0.0, 0.5, 3.0]
        rows = sandwich_experiment(gen, mu0, times, pair)
        nu, phi = quasi_stationary_dist(gen), pair.phi
        mu0_tilde = mu0 * phi / (mu0 * phi).sum()
        tilde, eta_tilde = doob_transform(gen, pair), doob_stationary(gen, pair)
        for t, row in zip(times, rows):
            raw = expm_action(gen.k_matrix(), mu0, t)
            assert row.dist_conditioned == total_variation(raw / raw.sum(), nu)
            w = raw * (phi / phi.max())
            d_doob = total_variation(w / w.sum(), eta_tilde)
            assert row.dist_doob == d_doob
            two_series = total_variation(expm_action(tilde, mu0_tilde, t), eta_tilde)
            assert abs(d_doob - two_series) <= 1e-12
            assert (row.lower, row.upper) == (phi.min() / (2.0 * phi.max()) * d_doob,
                                              2.0 * phi.max() / phi.min() * d_doob)


def test_total_variation():
    assert total_variation([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)
    assert total_variation([0.2, 0.8], [0.2, 0.8]) == 0.0


def test_estimate_psi_rejects_negative_lam(golden):
    with pytest.raises(InvalidParameter, match="^lam must be nonnegative$"):
        estimate_psi(golden, -0.1, 1, 10, seed=0)


@pytest.mark.parametrize("call", [
    lambda g: estimate_ratio(g, GOLDEN_LAM0, 2, 1, 0, seed=1),
    lambda g: estimate_ratio(g, GOLDEN_LAM0, 2, 1, -1, seed=1),
    lambda g: estimate_ratio(g, GOLDEN_LAM0, 2, 1, 2.5, seed=1),
    lambda g: estimate_ratio(g, GOLDEN_LAM0, 2, 2, 0, seed=1),
    lambda g: estimate_ratio(g, GOLDEN_LAM0, 2, 1, 10, seed=-1),
    lambda g: estimate_ratio(g, math.nan, 2, 1, 10, seed=1),
    lambda g: estimate_psi(g, 0.1, 1, 0, seed=1),
    lambda g: estimate_psi(g, 0.1, 1, True, seed=1),
    lambda g: estimate_psi(g, 0.1, 1, 10, seed=-1),
    lambda g: estimate_psi(g, 0.1, 1, 10, seed=1.0),
    lambda g: estimate_psi(g, math.nan, 1, 10, seed=1),
    lambda g: estimate_psi(g, math.inf, 1, 10, seed=1),
    lambda g: absorption_times(g, 1, 0, seed=1),
    lambda g: absorption_times(g, 1, -1, seed=1),
    lambda g: absorption_times(g, 1, 2.5, seed=1),
    lambda g: absorption_times(g, 1, 10, seed=-1),
], ids=["ratio-n-zero", "ratio-n-negative", "ratio-n-float", "ratio-same-state-n-zero",
        "ratio-seed-negative", "ratio-nan-lambda0", "psi-n-zero", "psi-n-bool",
        "psi-seed-negative", "psi-seed-float", "psi-nan-lam", "psi-inf-lam", "times-n-zero",
        "times-n-negative", "times-n-float", "times-seed-negative"])
def test_monte_carlo_inputs_rejected(golden, call):
    with pytest.raises(InvalidParameter, match="^(n|seed|lambda0|lam) "):
        call(golden)


SQUARE = "^q must be a nonempty square matrix of finite rates$"
TIMES = "^times must be a vector of finite numbers$"


@pytest.mark.parametrize("call, message", [
    (lambda g, p: doob_transform(g, None), "^eigenpair must be a DirichletEigenpair"),
    (lambda g, p: doob_stationary(g, None), "^eigenpair must be a DirichletEigenpair"),
    (lambda g, p: doob_stationary(build_rho_chain(3, 1.0), p),
     "^eigenpair must be a DirichletEigenpair"),
    (lambda g, p: doob_transform(None, p), "^the Doob transform needs an AbsorbingGenerator$"),
    (lambda g, p: sandwich_experiment(g, [0.5, 0.5], [1.0], eigenpair=3),
     "^eigenpair must be a DirichletEigenpair"),
    (lambda g, p: expm_action(g.k_matrix(), np.ones(3) / 3, 1.0),
     "^v must be a vector of 2 entries, one per state$"),
    (lambda g, p: expm_action(g.k_matrix(), np.ones(3) / 3, 0.0),
     "^v must be a vector of 2 entries, one per state$"),
    (lambda g, p: expm_action(g.k_matrix(), ["a", 1], 1.0),
     "^v must be a vector of 2 entries, one per state$"),
    (lambda g, p: expm_action(None, [1.0, 0.0], 1.0), SQUARE),
    (lambda g, p: expm_action("q", [1.0, 0.0], 1.0), SQUARE),
    (lambda g, p: expm_action(np.zeros((0, 0)), [], 1.0), SQUARE),
    (lambda g, p: expm_action(np.ones((2, 3)), [1.0, 0.0], 1.0), SQUARE),
    (lambda g, p: expm_action(np.full((2, 2), np.nan), [1.0, 0.0], 1.0), SQUARE),
    (lambda g, p: expm_action(g.k_matrix(), [1.0, 0.0], "a"), "^time 'a' is not a finite number$"),
    (lambda g, p: sandwich_experiment(g, ["a", 1], [1.0]),
     "^mu0 must be a probability vector on the 2 states$"),
    (lambda g, p: absorption_times(g, ["a", 1], 5, seed=1),
     "^start distribution must be a probability vector on the 2 states$"),
    (lambda g, p: absorption_times(g, [[1.0], [0.0, 1.0]], 5, seed=1),
     "^start distribution must be a probability vector on the 2 states$"),
    (lambda g, p: estimate_psi(g, 0.1, ["a", 1], 5, seed=1),
     "^start distribution must be a probability vector on the 2 states$"),
    (lambda g, p: sandwich_experiment(g, [0.5, 0.5], ["a"]), TIMES),
    (lambda g, p: sandwich_experiment(g, [0.5, 0.5], None), TIMES),
    (lambda g, p: sandwich_experiment(g, [0.5, 0.5], 1.0), TIMES),
    (lambda g, p: total_variation(["a"], [1.0]), "^p must be finite numbers$"),
    (lambda g, p: total_variation([1.0, 0.0], [1.0, 0.0, 0.0]),
     "^q must be finite numbers of the shape of p$"),
], ids=["transform-of-none", "stationary-of-none", "stationary-of-another-size",
        "transform-of-no-generator", "sandwich-pair-3", "expm-v-too-long", "expm-v-at-t-zero",
        "expm-string-v", "expm-none-q", "expm-string-q", "expm-empty-q", "expm-oblong-q",
        "expm-nan-q", "expm-string-t", "sandwich-string-mu0", "times-string-start-law",
        "times-ragged-start-law", "psi-string-start-law", "sandwich-string-times",
        "sandwich-none-times", "sandwich-scalar-times", "variation-string", "variation-shapes"])
def test_doob_and_propagation_inputs_rejected(golden, call, message):
    with pytest.raises(InvalidParameter, match=message):
        call(golden, dirichlet_eigenpair(golden))


@pytest.mark.parametrize("chain", ["golden", "reversible-grid", "cycle-chords"])
def test_qsd_routes_never_decide_reversibility(chain, golden, monkeypatch):
    # only full_spectrum and lambda0_minor, which report or use eta, test it
    gen = {"golden": lambda: golden,
           "reversible-grid": lambda: grid_walk(4, 5),
           "cycle-chords": cycle_with_chords}[chain]()

    def forbidden(*args, **kwargs):
        raise AssertionError("reversible_measure called")

    monkeypatch.setattr(spectral, "reversible_measure", forbidden)
    monkeypatch.setattr(simulate, "reversible_measure", forbidden, raising=False)
    pair = dirichlet_eigenpair(gen)
    nu = quasi_stationary_dist(gen)
    dirichlet_eigenpair(gen, "qsd")
    sandwich_experiment(gen, nu, [0.0, 1.0], pair)
    doob_stationary(gen, pair)
