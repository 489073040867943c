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


#: a chain on which bounds._bellman_ford takes its equal-cost update (a tie
#: won by fewer edges); 4 of 1693 valid draws of 5-6 states with rates in
#: {1, 2, 4} do, and no seeded generator below does
BELLMAN_FORD_TIE = (5, [(1, 3, 2.0), (2, 4, 1.0), (3, 1, 2.0), (3, 2, 2.0), (4, 3, 2.0),
                        (4, 5, 2.0), (5, 2, 2.0), (5, 4, 2.0)], {4: 1.0})


@pytest.mark.parametrize("seed", [*range(60), pytest.param(None, id="bellman-ford-tie")])
def test_best_paths_are_optimal_with_fewest_edges_among_ties(seed):
    if seed is None:
        gens = (build_general(*BELLMAN_FORD_TIE),)
    else:
        rng = np.random.default_rng(seed)
        gens = (random_reversible_generator(rng, 7), random_cycle_with_chords(rng, n_max=7))
    for gen in gens:
        lam0 = dirichlet_eigenpair(gen).lambda0
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


@pytest.mark.parametrize("transitions, tree", [
    ([(1, 2), (2, 1), (2, 3), (3, 2)], [-1, 2, 1]),
    ([(1, 2), (2, 1), (2, 4), (3, 2), (4, 3)], [-1, 2, 3, 1]),
])
def test_bellman_ford_tree_that_does_not_span_raises(monkeypatch, transitions, tree):
    # a loop of predecessors off the source could only come from a cycle of
    # factors whose product rounds to just above one; it must raise rather
    # than send the path walks round the loop.  Pointer doubling settles on
    # the loop of two, and never settles on the loop of three.  State 3 has
    # one way out, so its cost is negative and the Bellman-Ford search runs.
    gen = build_general(len(tree), [(i, j, 1.0) for i, j in transitions], {1: 1.0})
    monkeypatch.setattr(bounds, "_bellman_ford", lambda *args: (tree, False))
    with pytest.raises(NoConvergence, match="loop"):
        path_bound(gen, dirichlet_eigenpair(gen).lambda0)


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
        from qsamp import NotDiagonalizableDetected

        gen = build_general(
            3,
            [(1, 2, 2.0), (2, 3, 2.0), (3, 1, 2.0),
             (2, 1, 1.0), (3, 2, 1.0), (1, 3, 1.0)],
            {1: 0.5},
        )
        with pytest.raises((NotReversible, NotDiagonalizableDetected)):
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
            assert tridiag.mp_detratio_minor(b, d, lam, dps=2000) < Decimal("1e-308")
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


def _report(eigenvalues, measure):
    """A reversible (measure given) or non-reversible report with lambda0' = 2."""
    return SpectrumReport(np.array(eigenvalues), measure, 2.0, None)


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
    (lambda: graph_bound(2, 1.5, 1.0, 1.0), InvalidParameter, r"^diameter 1\.5 is not an integer$"),
    (lambda: graph_bound(math.nan, 2, 1.0, 1.0), InvalidParameter, "^d nan is not a finite number$"),
    (lambda: graph_bound(2, 2, "1", 1.0), InvalidParameter, "^r '1' is not a finite number$"),
    (lambda: graph_bound(2, 2, 1.0, math.inf), InvalidParameter, "^R inf is not a finite number$"),
    (lambda: spectral_bound(_report(["a", "b"], np.ones(2))), InvalidParameter,
     "^eigenvalues must be finite numbers$"),
], ids=["unknown-paths", "no-reversible-measure", "higher-eigenvalue-at-lambda0",
        "spectral-bound-of-none", "path-bound-nan-lambda0", "geodesic-bound-inf-lambda0",
        "path-weight-nan-lambda0", "path-weight-string-lambda0", "oracle-dps-zero",
        "oracle-dps-negative", "oracle-dps-float", "graph-bound-float-diameter",
        "graph-bound-nan-degree", "graph-bound-string-r", "graph-bound-inf-big-r",
        "spectral-bound-string-eigenvalues"])
def test_public_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
