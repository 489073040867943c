import decimal
import math
import time
from collections import deque
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qsamp import (
    DegenerateGap,
    InvalidParameter,
    NoConvergence,
    NotBirthDeath,
    NotConverged,
    NotReversible,
    SingularFactor,
    SpectrumReport,
    amplitude,
    build_birth_death,
    build_general,
    build_graph_walk,
    build_rho_chain,
    dirichlet_eigenpair,
    exact_bd_amplitude,
    full_spectrum,
    graph_bound,
    graph_parameters,
    path_bound,
    path_weight,
    rough_weight,
    spectral_bound,
    tridiag,
)
from qsamp import bounds
from qsamp.spectral import _sum_to_root
from conftest import (
    grid_walk,
    random_cycle_with_chords,
    random_drifted_reversible_generator,
    random_reversible_generator,
)


def brute_force_graph_parameters(gen):
    """(d, D, r, R) with one list-based BFS per source."""
    succ = {x: [j for i, j, _ in gen.transitions if i == x] for x in range(1, gen.n_states + 1)}
    absorbing = dict(gen.absorption)
    diameter = 0
    for src in succ:
        depth = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in succ[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    queue.append(v)
        assert len(depth) == gen.n_states
        diameter = max(diameter, max(depth.values()))
    degree = max(len(succ[x]) + (x in absorbing) for x in succ)
    rates = [r for _, _, r in gen.transitions] + list(absorbing.values())
    return degree, diameter, min(rates), max(rates)

GOLDEN_LAM0 = (3 - math.sqrt(5)) / 2
GOLDEN_RATIO = (1 + math.sqrt(5)) / 2
# ((1 - lam0/1)(1 - lam0/lam1))^-1 simplifies to 1 + 2/sqrt(5), by hand
GOLDEN_SPECTRAL_BOUND = 1 + 2 / math.sqrt(5)


class TestPathWeight:
    def test_golden_edge(self, golden):
        w = path_weight(golden, GOLDEN_LAM0, (1, 2))
        assert w == pytest.approx(1.0 / (2.0 - GOLDEN_LAM0), abs=1e-12)
        assert w == pytest.approx(1.0 / GOLDEN_RATIO, abs=1e-12)

    def test_empty_path(self, golden):
        assert path_weight(golden, GOLDEN_LAM0, (1,)) == 1.0
        assert path_weight(golden, GOLDEN_LAM0, (2,)) == 1.0

    def test_zero_eigenvalue_reduces_to_jump_probability(self, golden):
        w = path_weight(golden, 0.0, (1, 2))
        q = rough_weight(golden, (1, 2))
        assert w == pytest.approx(0.5)
        assert w == pytest.approx(1.0 / q)

    def test_singular_factor(self, golden):
        # lambda at the smallest exit rate makes a denominator vanish
        with pytest.raises(SingularFactor):
            path_weight(golden, 1.0, (2, 1))

    def test_monotone_in_edge_rate_with_fixed_denominators(self):
        # raise the 1->2 rate while shrinking absorption to keep the exit
        # rate (hence the denominator) fixed
        lam = 0.25
        weights = []
        for r in (0.5, 0.8, 1.2):
            gen = build_general(2, [(1, 2, r), (2, 1, 1.0)], {1: 2.0 - r})
            weights.append(path_weight(gen, lam, (1, 2)))
        assert weights[0] < weights[1] < weights[2]

    def test_p_at_least_inverse_q(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            gen = random_reversible_generator(rng)
            lam0 = dirichlet_eigenpair(gen).lambda0
            rep = path_bound(gen, lam0)
            for cert in rep.pairs.values():
                assert cert.weight >= 1.0 / cert.rough_weight - 1e-12


class TestPathBound:
    def test_golden_is_tight(self, golden):
        lam0 = dirichlet_eigenpair(golden).lambda0
        rep = path_bound(golden, lam0)
        assert rep.bound == pytest.approx(GOLDEN_RATIO, abs=1e-12)
        assert rep.rough_bound == pytest.approx(2.0, abs=1e-12)
        assert rep.pairs[(1, 2)].path == (1, 2)
        assert rep.pairs[(1, 1)].path == (1,)

    def test_dominates_amplitude(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            gen = random_reversible_generator(rng)
            pair = dirichlet_eigenpair(gen)
            rep = path_bound(gen, pair.lambda0)
            assert amplitude(pair) <= rep.bound * (1 + 1e-9)
            assert rep.bound <= rep.rough_bound * (1 + 1e-9)

    def test_geodesic_unit_walk_degree_diameter(self):
        # directed 4-cycle with a chord; unit rates
        edges = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]
        gen = build_graph_walk(edges, [1])
        lam0 = dirichlet_eigenpair(gen).lambda0
        rep = path_bound(gen, lam0, paths="geodesic")
        d, diam, r, big_r = graph_parameters(gen)
        assert rep.rough_bound <= d ** diam + 1e-12
        assert amplitude(dirichlet_eigenpair(gen)) <= rep.bound * (1 + 1e-9)

    def test_best_at_least_as_good_as_geodesic(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            gen = random_reversible_generator(rng)
            lam0 = dirichlet_eigenpair(gen).lambda0
            best = path_bound(gen, lam0, paths="best")
            geo = path_bound(gen, lam0, paths="geodesic")
            assert best.bound <= geo.bound * (1 + 1e-9)

    def test_lambda0_computed_when_omitted(self, golden):
        assert path_bound(golden).bound == pytest.approx(GOLDEN_RATIO, abs=1e-10)

    def test_lambda0_above_the_eigenvalue_rejected(self):
        # bidirectional unit 4-cycle absorbed at state 1: lambda0 = 0.002492
        # and amplitude 1.00501.  At 1.5 every edge factor is 1 / 0.5 = 2, so
        # each cycle of factors has product above one; a bound from such
        # factors (1.0 here) need not dominate the amplitude.
        ring = [(1, 2), (2, 3), (3, 4), (4, 1)]
        transitions = [(i, j, 1.0) for a, b in ring for i, j in ((a, b), (b, a))]
        gen = build_general(4, sorted(transitions), {1: 0.01})
        pair = dirichlet_eigenpair(gen)
        assert pair.lambda0 == pytest.approx(0.002492, rel=1e-3, abs=0)
        assert amplitude(pair) == pytest.approx(1.00501, rel=1e-5, abs=0)
        assert path_bound(gen, pair.lambda0).bound >= amplitude(pair)
        with pytest.raises(InvalidParameter, match="above the Dirichlet eigenvalue"):
            path_bound(gen, 1.5)

    @pytest.mark.parametrize("n, multiple", [(4, 3), (10, 6)])
    def test_lambda0_above_the_bracket_rejected_without_a_cycle_above_one(self, n, multiple):
        # no cycle of factors exceeds one here, yet above lambda0 the factors
        # need not stay below the eigenvector ratios, so the bounds they give
        # (3.676 and 256.6) prove nothing.  The top state's factor
        # 2 / (2 - lambda) is above one, so the search reads the ground pair,
        # and lambda is above its bracket
        gen = build_rho_chain(n, 1.0)
        lam0 = dirichlet_eigenpair(gen).lambda0
        with pytest.raises(InvalidParameter, match="above the Dirichlet eigenvalue"):
            path_bound(gen, multiple * lam0)

    def test_lambda0_of_the_pair_is_never_rejected(self):
        # the pair's lambda0 is its bracket's midpoint; these chains all have
        # a negative cost, so each search checks lambda0 against the bracket
        rng = np.random.default_rng(20240817)
        gens = [build_rho_chain(n, rho) for n in (2, 3, 10, 100, 400) for rho in (0.05, 0.5, 1, 2)]
        for _ in range(50):
            n = int(rng.integers(2, 201))
            gens.append(build_birth_death(np.exp(rng.uniform(np.log(0.1), np.log(10), n - 1)),
                                          np.exp(rng.uniform(np.log(0.1), np.log(10), n))))
        rng = np.random.default_rng(0)
        gens += [random_reversible_generator(rng, 40) for _ in range(25)]
        gens += [random_cycle_with_chords(rng, 40) for _ in range(25)]
        for gen in gens:
            path_bound(gen, dirichlet_eigenpair(gen).lambda0)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_certificates_rescore_exactly_and_bound_the_amplitude(seed, reversible):
    rng = np.random.default_rng(seed)
    gen = random_reversible_generator(rng, 40) if reversible else random_cycle_with_chords(rng)
    pair = dirichlet_eigenpair(gen)
    for mode in ("best", "geodesic"):
        rep = path_bound(gen, pair.lambda0, paths=mode)
        assert len(rep.pairs) == gen.n_states * len(gen.absorbing_set)
        for (y, x), cert in rep.pairs.items():
            assert cert.path[0] == y and cert.path[-1] == x
            assert cert.weight == path_weight(gen, pair.lambda0, cert.path)
            assert cert.rough_weight == rough_weight(gen, cert.path)
        assert amplitude(pair) <= rep.bound * (1 + 1e-9)


def simple_path_weights(gen, lambda0, src):
    """{x: [(P(gamma), edges)] over every simple path gamma from src to x},
    with P formed left to right as path_weight forms it."""
    succ = {x: [j for i, j, _ in gen.transitions if i == x] for x in range(1, gen.n_states + 1)}
    denom = -gen.diagonal - lambda0
    found = {x: [] for x in succ}
    stack = [((src,), 1.0)]
    while stack:
        path, p = stack.pop()
        found[path[-1]].append((p, len(path) - 1))
        u = path[-1]
        stack += [(path + (v,), p * (gen.rate(u, v) / denom[u - 1]))
                  for v in succ[u] if v not in path]
    return found


#: a chain whose one exit state reaches state 2 by two paths of equal P: the
#: state has two tight edges in, and the path with fewer edges must win.
#: The costs include a negative one, and no seeded generator below has a tie
BELLMAN_FORD_TIE = (5, [(1, 3, 2.0), (2, 4, 1.0), (3, 1, 2.0), (3, 2, 2.0), (4, 3, 2.0),
                        (4, 5, 2.0), (5, 2, 2.0), (5, 4, 2.0)], {4: 1.0})
#: a seed whose draws include a chain with a negative cost and two or more
#: exit states: the first exit state's paths, like the others', then come
#: from the search on reduced costs
FIRST_EXIT_SEED = 2


@pytest.mark.parametrize("seed", [*range(60), pytest.param(None, id="bellman-ford-tie")])
def test_best_paths_are_optimal_with_fewest_edges_among_ties(seed):
    if seed is None:
        gens = (build_general(*BELLMAN_FORD_TIE),)
    else:
        rng = np.random.default_rng(seed)
        gens = (random_reversible_generator(rng, 7), random_cycle_with_chords(rng, n_max=7))
    lam0s = [dirichlet_eigenpair(gen).lambda0 for gen in gens]
    if seed == FIRST_EXIT_SEED:
        assert any(len(gen.absorbing_set) >= 2
                   and any(r > -gen.diagonal[u - 1] - lam0 for u, _, r in gen.transitions)
                   for gen, lam0 in zip(gens, lam0s))
    for gen, lam0 in zip(gens, lam0s):
        rep = path_bound(gen, lam0)
        for y in gen.absorbing_set:
            for x, weights in simple_path_weights(gen, lam0, y).items():
                cert = rep.certificate(y, x)
                best = max(p for p, _ in weights)
                assert best * (1 - 1e-12) <= cert.weight <= best
                tied = [k for p, k in weights if p >= best * (1 - 1e-12)]
                assert len(cert.path) - 1 == min(tied)


class TestPathCertificates:
    def test_pairs_are_a_read_only_mapping_in_exit_then_state_order(self):
        gen = build_general(3, [(1, 2, 1.0), (2, 1, 1.0), (2, 3, 2.0), (3, 2, 0.5)], {1: 1.0, 3: 0.3})
        rep = path_bound(gen, dirichlet_eigenpair(gen).lambda0)
        assert list(rep.pairs) == [(1, 1), (1, 2), (1, 3), (3, 1), (3, 2), (3, 3)]
        assert len(rep.pairs) == 6
        assert rep.pairs[(3, 1)].path == (3, 2, 1)
        assert (2, 1) not in rep.pairs and (1, 4) not in rep.pairs and 5 not in rep.pairs
        with pytest.raises(TypeError):
            rep.pairs[(1, 2)] = rep.pairs[(1, 1)]

    @pytest.mark.parametrize("key", [(2, 1), (0, 1), (1, 0), (1, 3), (1, 1.5)])
    def test_bad_pair_raises_invalid_parameter(self, golden, key):
        rep = path_bound(golden)
        with pytest.raises(KeyError):
            rep.pairs[key]
        with pytest.raises(InvalidParameter, match="exit state"):
            rep.certificate(*key)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(math.log(1e-3), math.log(1e3)), min_size=3, max_size=3))
def test_two_state_chains_with_unit_cycle_product(log_rates):
    # at lambda0 the cycle 1 -> 2 -> 1 has factor product exactly 1, the
    # zero-cost cycle on which a Johnson reweighting need not terminate
    a, b, c = (math.exp(r) for r in log_rates)
    gen = build_general(2, [(1, 2, a), (2, 1, b)], {1: c})
    pair = dirichlet_eigenpair(gen)
    assert path_bound(gen, pair.lambda0).bound == pytest.approx(amplitude(pair), rel=1e-12, abs=0)


@pytest.mark.parametrize("parent", [[-1, 2, 1], [-1, 2, 3, 1]])
def test_predecessor_loop_that_reaches_no_root_raises(parent):
    # predecessors that loop off the root must raise rather than send the
    # path walks round the loop.  Pointer doubling settles on the loop of
    # two, and never settles on the loop of three.
    with pytest.raises(NoConvergence, match="loop"):
        _sum_to_root(np.array(parent), np.ones(len(parent)))


@pytest.mark.parametrize("mode", ["best", "geodesic"])
def test_path_bound_above_the_double_range_is_inf(mode):
    # P of the path from state 1 up to state 400 underflows; the amplitude,
    # about 4e259, does not
    gen = build_rho_chain(400, 0.05)
    assert path_bound(gen, dirichlet_eigenpair(gen).lambda0, paths=mode).bound == math.inf


def test_large_grid_is_fast_and_beats_geodesic_paths():
    gen = grid_walk(100, 100)
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        best = path_bound(gen, 0.0)
        elapsed.append(time.perf_counter() - t0)
    assert min(elapsed) < 0.05
    assert best.bound <= path_bound(gen, 0.0, paths="geodesic").bound


class TestGraphBound:
    def test_drifted_chain_formula(self):
        for rho, n in ((0.5, 7), (2.0, 5)):
            expect = (2 * max(1, rho) / min(1, rho)) ** n
            assert graph_bound(2, n, min(1.0, rho), max(1.0, rho)) == pytest.approx(expect)

    def test_zero_diameter(self):
        assert graph_bound(3, 0, 0.5, 2.0) == 1.0

    def test_unit_params(self):
        assert graph_bound(1, 3, 1.0, 1.0) == 1.0

    def test_bound_above_the_double_range_is_inf(self):
        # 10^400 overflows a double; a walk of out-degree 10 and oriented
        # diameter 400 has this bound
        assert graph_bound(10, 400, 1.0, 1.0) == math.inf

    def test_invalid(self):
        with pytest.raises(InvalidParameter):
            graph_bound(0, 1, 1.0, 1.0)
        with pytest.raises(InvalidParameter):
            graph_bound(2, -1, 1.0, 1.0)
        with pytest.raises(InvalidParameter):
            graph_bound(2, 1, 2.0, 1.0)

    def test_parameters_match_brute_force_bfs(self, golden):
        rng = np.random.default_rng(26)
        gens = [random_cycle_with_chords(rng) for _ in range(25)]
        gens += [random_reversible_generator(rng, 40) for _ in range(25)]
        gens += [random_drifted_reversible_generator(rng) for _ in range(10)]
        gens += [grid_walk(1, n) for n in (2, 3, 8)]
        gens += [golden, build_general(2, [(1, 2, 0.5), (2, 1, 3.0)], {2: 2.0})]
        for gen in gens:
            assert graph_parameters(gen) == brute_force_graph_parameters(gen)

    def test_large_grid_diameter_from_few_searches(self, monkeypatch):
        # all-pairs hop counts search from all 10^4 states; eccentricity
        # bounds settle the corner-to-corner distance after a handful
        gen = grid_walk(100, 100)
        calls = []
        search = bounds.breadth_first_order
        monkeypatch.setattr(bounds, "breadth_first_order",
                            lambda csr, src, **kw: calls.append(src) or search(csr, src, **kw))
        assert graph_parameters(gen) == (4, 198, 1.0, 1.0)
        assert 1 <= len(set(calls)) < 100

    def test_parameters_dominate_amplitude(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            gen = random_reversible_generator(rng)
            amp = amplitude(dirichlet_eigenpair(gen))
            assert amp <= graph_bound(*graph_parameters(gen)) * (1 + 1e-9)


class TestSpectralBound:
    def test_golden(self, golden):
        rep = spectral_bound(full_spectrum(golden))
        assert rep.bound == pytest.approx(GOLDEN_SPECTRAL_BOUND, abs=1e-12)
        assert rep.bound >= amplitude(dirichlet_eigenpair(golden))
        assert all(0 < f < 1 for f in rep.factors)

    def test_singleton(self):
        gen = build_general(1, [], {1: 4.0})
        rep = spectral_bound(full_spectrum(gen))
        assert rep.bound == 1.0

    def test_drifted_chain_n10(self):
        gen = build_rho_chain(10, 1.0)
        rep = spectral_bound(full_spectrum(gen))
        amp = amplitude(dirichlet_eigenpair(gen))
        assert rep.bound >= amp > 1.0

    def test_not_reversible(self):
        gen = build_general(
            3,
            [(1, 2, 2.0), (2, 3, 2.0), (3, 1, 2.0),
             (2, 1, 1.0), (3, 2, 1.0), (1, 3, 1.0)],
            {1: 0.5},
        )
        with pytest.raises(NotReversible):
            spectral_bound(full_spectrum(gen))

    def test_degenerate_gap_detected(self, golden):
        rep = full_spectrum(golden)
        broken = type(rep)(
            eigenvalues=rep.eigenvalues,
            reversible_measure=rep.reversible_measure,
            lambda0_prime=rep.eigenvalues[0] * 0.5,
            minor_spectra=None,
        )
        with pytest.raises(DegenerateGap):
            spectral_bound(broken)

    def test_negative_lambda0_from_eigh_is_a_degenerate_gap(self):
        # eigh puts lambda0 of this chain at -8.8e-16, where the certified
        # value is 6.5e-19; its factors gave a bound of 0.0015 for an
        # amplitude of 2
        gen = rho_chain_with_a_chord()
        assert full_spectrum(gen).lambda0 <= 0 < dirichlet_eigenpair(gen).lambda0
        with pytest.raises(DegenerateGap, match="<= 0"):
            spectral_bound(full_spectrum(gen))


def rho_chain_with_a_chord():
    """build_rho_chain(60, 2.0) with the reversible chord 20 <-> 22."""
    base = build_rho_chain(60, 2.0)
    return build_general(60, [*base.transitions, (20, 22, 1.0), (22, 20, 0.25)], base.absorption)


@st.composite
def wide_birth_death_rates(draw):
    n = draw(st.integers(2, 300))
    log_rate = st.floats(math.log(1e-3), math.log(1e3))
    b = np.exp(draw(st.lists(log_rate, min_size=n - 1, max_size=n - 1)))
    d = np.exp(draw(st.lists(log_rate, min_size=n, max_size=n)))
    return b, d


class TestExactBirthDeath:
    def test_golden_exact(self, golden):
        assert exact_bd_amplitude(golden) == pytest.approx(GOLDEN_RATIO, abs=1e-12)

    def test_drifted_chain_n100(self):
        gen = build_rho_chain(100, 1.0)
        amp = amplitude(dirichlet_eigenpair(gen))
        assert exact_bd_amplitude(gen) == pytest.approx(amp, rel=1e-8, abs=0)

    def test_rho2_limit(self):
        gen = build_rho_chain(30, 2.0)
        value = exact_bd_amplitude(gen)
        assert value == pytest.approx(amplitude(dirichlet_eigenpair(gen)), rel=1e-8, abs=0)
        assert value == pytest.approx(2.0, abs=1e-6)

    def test_cancellation_beyond_default_digits(self):
        # strong upward drift: lambda0 ~ 1e-118 and the pivot recursion loses
        # about 120 digits; with lambda0 negligible, phi(x) = sum_k<x 1e-4^k
        gen = build_birth_death(np.full(29, 100.0), np.full(30, 0.01))
        value = exact_bd_amplitude(gen)
        assert value == pytest.approx(1.0 / (1.0 - 1e-4), rel=1e-12, abs=0)
        assert value == pytest.approx(amplitude(dirichlet_eigenpair(gen)), rel=1e-8, abs=0)

    def test_not_birth_death(self):
        ring = build_graph_walk([(1, 2), (2, 3), (3, 1), (2, 1), (3, 2), (1, 3)], [2])
        with pytest.raises(NotBirthDeath):
            exact_bd_amplitude(ring)

    @pytest.mark.parametrize("index", [4, 6, 15])
    def test_wide_rate_chains(self, index):
        # amplitudes of 3.4e78, 1.7e46 and 3.6e43: the determinant ratio's
        # condition number is the amplitude, so the digits follow from it
        rng = np.random.default_rng(7)
        for _ in range(index + 1):
            n = int(rng.integers(2, 300))
            b = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n - 1))
            d = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
        gen = build_birth_death(b, d)
        value = exact_bd_amplitude(gen)
        assert value > 0
        assert value == pytest.approx(amplitude(dirichlet_eigenpair(gen)), rel=1e-8, abs=0)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(wide_birth_death_rates())
    @example((np.full(119, 1e-3), np.full(120, 1e3)))  # amplitude about 1e357
    def test_default_digits_match_100_more(self, rates):
        b, d = rates
        gen = build_birth_death(b, d)
        try:
            value = exact_bd_amplitude(gen)
        except NoConvergence:
            # only an amplitude a float cannot hold may go unresolved
            lam = tridiag.mp_lambda(b, d, 0, dps=2000)
            with decimal.localcontext(tridiag.oracle_context(2000)):
                ratio = tridiag._bracket_pass(*tridiag._mp_rates(b, d), lam, lam)[2]
            assert ratio < Decimal("1e-308")
            return
        # 100 digits beyond the 60 + log10(amplitude) that the answer asks for
        assert exact_bd_amplitude(gen, dps=160 + math.ceil(math.log10(value))) == value

    @pytest.mark.parametrize("exponent", [-1000, 512, 700, 1000])
    def test_power_of_two_rescaling_leaves_the_amplitude(self, exponent):
        # from 2^512 up, double pivot products of the unscaled rates overflow
        # and the decimal certificate failed; the amplitude is scale-free
        rng = np.random.default_rng(20240817)
        n = int(rng.integers(2, 201))
        b = np.exp(rng.uniform(np.log(0.1), np.log(10), n - 1))
        d = np.exp(rng.uniform(np.log(0.1), np.log(10), n))
        value = exact_bd_amplitude(build_birth_death(b, d))
        scale = 2.0 ** exponent
        assert exact_bd_amplitude(build_birth_death(b * scale, d * scale)) == value

    def test_random_rates(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            n = int(rng.integers(2, 40))
            b = np.exp(rng.uniform(np.log(0.1), np.log(10), n - 1))
            d = np.exp(rng.uniform(np.log(0.1), np.log(10), n))
            gen = build_birth_death(b, d)
            amp = amplitude(dirichlet_eigenpair(gen))
            assert exact_bd_amplitude(gen) == pytest.approx(amp, rel=1e-8, abs=0)


#: float.hex of exact_bd_amplitude on the 50 criterion-05 chains and on the
#: 100 chains of default_rng(11) (n from integers(2, 201), then
#: b = exp(uniform(-2, 2, n - 1)), d = exp(uniform(-2, 2, n))), as the oracle
#: returned them when it ran at 60 digits or more and certified lambda0 at
#: the width n 10^(5 - dps); digits and width set by the float answer must
#: leave every bit
PINNED_CRITERION05 = (
    '0x1.88a1708cd328cp+10', '0x1.892f62895e9cep+37', '0x1.cd78893b34d63p+23',
    '0x1.4903db4b7016ap+21', '0x1.c1bc6ab933088p+11', '0x1.4ba353a5c566bp+8',
    '0x1.2f38385982357p+0', '0x1.e60f4ad423d59p+4', '0x1.3fe40819a81bcp+3',
    '0x1.aa124f67b5daep+31', '0x1.18ff67f1b2121p+7', '0x1.f184b2e87987dp+1',
    '0x1.709cc640bb604p+15', '0x1.8c8adcc53fe3ep+38', '0x1.3bcd8869a0fe4p+6',
    '0x1.b67e6cd6b337ap+6', '0x1.9d8444eff7571p+2', '0x1.b9704aff53a6ap+40',
    '0x1.03882afc39031p+5', '0x1.174ccd7c0f0aep+0', '0x1.d5625346df127p+0',
    '0x1.f95c0b6dca79cp+6', '0x1.37f9505de489bp+62', '0x1.022fb5b48d6e0p+18',
    '0x1.315f9782cf3e5p+0', '0x1.6d35396610487p+1', '0x1.3249de09e806bp+4',
    '0x1.07a6ec4d6e12dp+123', '0x1.13c5ded68fa3ep+5', '0x1.2d9dfebd3b1acp+21',
    '0x1.1ed439353c8b6p+22', '0x1.6269ba13b858fp+14', '0x1.86542fc469239p+3',
    '0x1.2dfae50fe978fp+31', '0x1.f596d3ca1fc4dp+16', '0x1.74617eeed1a43p+68',
    '0x1.ad3655318f99dp+7', '0x1.1b64b1af6e875p+10', '0x1.d782fdc7e6f5bp+0',
    '0x1.c99bb95c6634ap+1', '0x1.fb4053589b7e7p+8', '0x1.ab2f28c50a312p+11',
    '0x1.571a65675637bp+5', '0x1.7d8e71421dbfcp+6', '0x1.5946c6bc58685p+9',
    '0x1.e40a843cce56cp+11', '0x1.d3297a14858e9p+19', '0x1.1cb1b7d4f3263p+9',
    '0x1.e12c2f9d0ddbdp+17', '0x1.cac01401295d8p+7',
)
PINNED_RNG11 = (
    '0x1.7bbba1b366b96p+5', '0x1.1fa6f807b202cp+11', '0x1.4d7c988f291d5p+17',
    '0x1.17cec41021da8p+4', '0x1.19abc9c82919ap+14', '0x1.ec30b0e3f3a83p+29',
    '0x1.2d1fee29fe51fp+2', '0x1.36e90af48158cp+2', '0x1.2009b7ee73a3fp+32',
    '0x1.20a9054ebb411p+7', '0x1.a34ffe371c962p+12', '0x1.32b36e106ebfbp+6',
    '0x1.c9ca086b02cfep+1', '0x1.a6a95260e2028p+7', '0x1.6b85f37c81b7dp+1',
    '0x1.c5161fef94be5p+21', '0x1.b76afd4dba5dcp+10', '0x1.493dacc63daa4p+9',
    '0x1.9cb6c59fa570cp+9', '0x1.f393a61f51adfp+22', '0x1.104d114d537b7p+24',
    '0x1.3044b2e54c541p+44', '0x1.04e2897a7e64fp+30', '0x1.041f459f6d2eap+38',
    '0x1.3cd875e9130ecp+24', '0x1.8b52472e7184ap+17', '0x1.6850fda70d5a4p+9',
    '0x1.c8cc434fd41adp+3', '0x1.1dad83c3a5100p+16', '0x1.7ac1b30b3e388p+7',
    '0x1.a3f17bea69bafp+18', '0x1.2917d1df3baefp+1', '0x1.17e1b3f836b69p+51',
    '0x1.7fa8ff5c47a12p+78', '0x1.249311ed2835ep+9', '0x1.834b2dbf0687cp+1',
    '0x1.e01fe3b14a36ep+16', '0x1.4382a823368aap+10', '0x1.366b4e87e790ep+30',
    '0x1.4ce1957dc1d92p+4', '0x1.393d5d1a8637fp+5', '0x1.41d91dcb76b5ep+20',
    '0x1.0adf886eb6a6cp+10', '0x1.76d939eec6764p+15', '0x1.2251c378aa25bp+4',
    '0x1.50c58dae0480dp+49', '0x1.029c254b59226p+33', '0x1.1e4143f86cef4p+15',
    '0x1.ffa7e8ec1993ap+25', '0x1.e7284af23b395p+6', '0x1.08d02db9c0623p+64',
    '0x1.b57cf29551116p+1', '0x1.93eb32cdb9acbp+27', '0x1.d22fc22960688p+12',
    '0x1.ab80a3f2edb82p+34', '0x1.b5e14d7f3bf57p+3', '0x1.72b1ed264bf70p+14',
    '0x1.003d889105ef7p+17', '0x1.c3aaf18086a9ep+8', '0x1.06465a09a3d56p+21',
    '0x1.04608bc08b6cfp+22', '0x1.5025376c454dfp+10', '0x1.a0a0fd0a72f93p+27',
    '0x1.1af709431a46fp+1', '0x1.40866463589b8p+26', '0x1.944b8eddbc4d0p+39',
    '0x1.9f7d28ea9cad0p+5', '0x1.4f7d4e4baa2e4p+11', '0x1.faefbd6b29822p+17',
    '0x1.bb4703efe9709p+4', '0x1.5dc4c1d9e362bp+32', '0x1.35194fbcd8362p+20',
    '0x1.8ac2bcd64d414p+16', '0x1.c51cfa6fc06d1p+0', '0x1.6eb76b31d94edp+13',
    '0x1.0e88b4392afcbp+3', '0x1.a889c793c963ap+13', '0x1.18f519f429b99p+7',
    '0x1.28b8f2262c5f1p+44', '0x1.0bfcd4371e3a6p+7', '0x1.08d105f84e3dbp+4',
    '0x1.25b9657bf0999p+35', '0x1.120469f258922p+26', '0x1.6bd554b4a7fcbp+44',
    '0x1.133500cb64815p+49', '0x1.0c6e438b0028fp+18', '0x1.0767a2ce39da8p+6',
    '0x1.68dc5dd1abd1fp+10', '0x1.f0d59c64bd97cp+2', '0x1.29944cf48bd77p+30',
    '0x1.487e524874effp+23', '0x1.799618c3a8684p+3', '0x1.3886c7fcae4f9p+2',
    '0x1.d22a38a1c12c9p+3', '0x1.a9fbc1d671636p+15', '0x1.a647d3fdbfa79p+2',
    '0x1.38f0ef0563a82p+0', '0x1.41c6eb921cdd1p+2', '0x1.b187238af8d21p+8',
    '0x1.6a95135402780p+1',
)


def pinned_chains():
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        n = int(rng.integers(2, 201))
        yield np.exp(rng.uniform(np.log(0.1), np.log(10), n - 1)), \
            np.exp(rng.uniform(np.log(0.1), np.log(10), n))
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 201))
        yield np.exp(rng.uniform(-2, 2, n - 1)), np.exp(rng.uniform(-2, 2, n))


def test_pinned_amplitudes_keep_their_bits():
    got = [float.hex(exact_bd_amplitude(build_birth_death(b, d))) for b, d in pinned_chains()]
    assert got == [*PINNED_CRITERION05, *PINNED_RNG11]


def _report(eigenvalues, measure, lambda0_prime=2.0):
    """A reversible (measure given) or non-reversible report, lambda0' = 2 by default."""
    return SpectrumReport(np.array(eigenvalues), measure, lambda0_prime, None)


def test_spectral_bound_above_the_double_range_is_inf():
    # 399 factors of about 1e-11 multiply to zero in double precision
    assert spectral_bound(_report([1.0] + [1.0 + 1e-11] * 399, np.ones(400))).bound == math.inf


@pytest.mark.parametrize("call, error, message", [
    (lambda: path_bound(build_rho_chain(3, 1.0), paths="shortest"), InvalidParameter,
     "^paths must be 'best' or 'geodesic'$"),
    (lambda: spectral_bound(_report([1.0, 3.0], None)), NotReversible,
     "^spectral bound requires a reversible generator$"),
    (lambda: spectral_bound(_report([1.0, 1.0, 3.0], np.ones(3))), DegenerateGap,
     r"^eigenvalue 1\.0 <= lambda0 = 1\.0$"),
    (lambda: spectral_bound(None), InvalidParameter, "^spectral_bound needs a SpectrumReport$"),
    (lambda: path_bound(build_rho_chain(3, 1.0), math.nan), InvalidParameter,
     "^lambda0 nan is not a finite number$"),
    (lambda: path_bound(build_rho_chain(3, 1.0), -math.inf, paths="geodesic"), InvalidParameter,
     "^lambda0 -inf is not a finite number$"),
    (lambda: path_weight(build_rho_chain(3, 1.0), math.nan, (1, 2)), InvalidParameter,
     "^lambda0 nan is not a finite number$"),
    (lambda: path_weight(build_rho_chain(3, 1.0), "0.1", (1, 2)), InvalidParameter,
     "^lambda0 '0.1' is not a finite number$"),
    (lambda: exact_bd_amplitude(build_rho_chain(3, 1.0), dps=0), InvalidParameter,
     "^dps must be at least 1, got 0$"),
    (lambda: exact_bd_amplitude(build_rho_chain(3, 1.0), dps=-5), InvalidParameter,
     "^dps must be at least 1, got -5$"),
    (lambda: exact_bd_amplitude(build_rho_chain(3, 1.0), dps=1.5), InvalidParameter,
     r"^dps 1\.5 is not an integer$"),
    # past decimal.MAX_PREC: a raw ValueError from the context, and at 10**19 an
    # OverflowError
    (lambda: exact_bd_amplitude(build_rho_chain(3, 1.0), dps=10**18), InvalidParameter,
     "^dps must be at most 999999999999999999, got 1000000000000000000$"),
    (lambda: exact_bd_amplitude(build_rho_chain(3, 1.0), dps=10**19), InvalidParameter,
     "^dps must be at most 999999999999999999, got 10000000000000000000$"),
    (lambda: tridiag.mp_lambda(np.ones(2), np.ones(3), dps=10**19), InvalidParameter,
     "^dps must be at most 999999999999999999, got 10000000000000000000$"),
    (lambda: graph_bound(2, 1.5, 1.0, 1.0), InvalidParameter, r"^diameter 1\.5 is not an integer$"),
    (lambda: graph_bound(math.nan, 2, 1.0, 1.0), InvalidParameter, "^d nan is not a finite number$"),
    (lambda: graph_bound(2, 2, "1", 1.0), InvalidParameter, "^r '1' is not a finite number$"),
    (lambda: graph_bound(2, 2, 1.0, math.inf), InvalidParameter, "^R inf is not a finite number$"),
    (lambda: spectral_bound(_report(["a", "b"], np.ones(2))), InvalidParameter,
     "^eigenvalues must be finite numbers$"),
    (lambda: path_weight(build_rho_chain(3, 1.0), 0.3, 5), InvalidParameter,
     "^a path must be a sequence of state labels$"),
    (lambda: rough_weight(build_rho_chain(3, 1.0), 5), InvalidParameter,
     "^a path must be a sequence of state labels$"),
    (lambda: spectral_bound(_report([], np.ones(0))), InvalidParameter,
     "^spectral_bound needs at least one eigenvalue$"),
    (lambda: spectral_bound(_report([1.0, 3.0], np.ones(2), "2.0")), InvalidParameter,
     "^lambda0' '2.0' is not a real number$"),
    (lambda: spectral_bound(_report([1.0, 3.0], np.ones(2), None)), InvalidParameter,
     "^lambda0' None is not a real number$"),
    (lambda: spectral_bound(_report([1.0, 3.0], np.ones(2), math.nan)), NotConverged,
     "^lambda0' is nan, not a converged eigenvalue$"),
    (lambda: spectral_bound(_report([-1e-16, 3.0], np.ones(2))), DegenerateGap,
     "^lambda0 = -1e-16 <= 0; eigensolver failure$"),
], ids=["unknown-paths", "no-reversible-measure", "higher-eigenvalue-at-lambda0",
        "spectral-bound-of-none", "path-bound-nan-lambda0", "geodesic-bound-inf-lambda0",
        "path-weight-nan-lambda0", "path-weight-string-lambda0", "oracle-dps-zero",
        "oracle-dps-negative", "oracle-dps-float", "oracle-dps-past-max-prec",
        "oracle-dps-past-int64", "mp-lambda-dps-past-int64", "graph-bound-float-diameter",
        "graph-bound-nan-degree", "graph-bound-string-r", "graph-bound-inf-big-r",
        "spectral-bound-string-eigenvalues", "path-weight-integer-path",
        "rough-weight-integer-path", "spectral-bound-no-eigenvalues",
        "spectral-bound-string-lambda0-prime", "spectral-bound-none-lambda0-prime",
        "spectral-bound-nan-lambda0-prime", "spectral-bound-negative-lambda0"])
def test_public_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
