import importlib
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import eigh
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from qsamp import (
    InvalidParameter,
    NoConvergence,
    NonPositiveInput,
    NotReversible,
    QsampError,
    amplitude,
    build_birth_death,
    build_general,
    build_graph_walk,
    build_rho_chain,
    dirichlet_eigenpair,
    full_spectrum,
    lambda0_minor,
    minor,
    quasi_stationary_dist,
    reversible_measure,
    spectral_bound,
)
import qsamp
from qsamp import spectral, tridiag
from conftest import (
    grid_walk,
    random_birth_death,
    random_cycle_with_chords,
    random_drifted_reversible_generator,
    random_reversible_generator,
)

# roots of the 2x2 characteristic polynomial lam^2 - 3 lam + 1, by hand
GOLDEN_LAM0 = (3 - math.sqrt(5)) / 2
GOLDEN_LAM1 = (3 + math.sqrt(5)) / 2
GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def dense_bfs_eta(k):
    """Reversible measure by a breadth-first search over a dense matrix's support.

    One root per component, neighbours in ascending order; assumes the
    support is symmetric and the chain reversible.
    """
    n = k.shape[0]
    off = k - np.diag(np.diag(k))
    log_eta = np.full(n, np.nan)
    for root in range(n):
        if not np.isnan(log_eta[root]):
            continue
        log_eta[root] = 0.0
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in np.nonzero(off[u] > 0)[0]:
                if np.isnan(log_eta[v]):
                    log_eta[v] = log_eta[u] + math.log(off[u, v]) - math.log(off[v, u])
                    queue.append(int(v))
    eta = np.exp(log_eta - log_eta.max())
    return eta / eta.sum()


def lattice_edges(rows, cols, first=0):
    """Undirected edges of a rows x cols grid, states row-major from `first`."""
    edges = []
    for i in range(rows):
        for j in range(cols):
            s = first + i * cols + j
            if j + 1 < cols:
                edges.append((s, s + 1))
            if i + 1 < rows:
                edges.append((s, s + cols))
    return edges


def reversible_dumbbell(rng, max_side=4):
    """Two random grids sharing one corner, the cut vertex, with random
    conductances over random weights (so detailed balance holds) and
    absorption at the cut vertex plus a few random states."""
    r1, c1, r2, c2 = (int(v) for v in rng.integers(2, max_side + 1, 4))
    n = r1 * c1 + r2 * c2 - 1
    eta = np.exp(rng.uniform(-1.5, 1.5, n))
    # the first grid's last state is the second grid's first
    edges = lattice_edges(r1, c1) + lattice_edges(r2, c2, first=r1 * c1 - 1)
    transitions = []
    for a, b in edges:
        c = float(np.exp(rng.uniform(-1.0, 1.0)))
        transitions += [(a + 1, b + 1, c / eta[a]), (b + 1, a + 1, c / eta[b])]
    cut = r1 * c1
    extra = rng.choice(n, size=int(rng.integers(0, 3)), replace=False) + 1
    absorption = {int(x): float(np.exp(rng.uniform(-1.0, 1.0))) for x in (cut, *extra)}
    return build_general(n, transitions, absorption)


def assert_kolmogorov_witness(gen, cycle):
    """cycle is closed, follows positive-rate edges, and either uses a
    one-way edge or has unequal rate products around it in both directions."""
    assert cycle[0] == cycle[-1]
    edges = list(zip(cycle, cycle[1:]))
    assert all(gen.rate(u, v) > 0 for u, v in edges)
    if all(gen.rate(v, u) > 0 for u, v in edges):
        forward = sum(math.log(gen.rate(u, v)) for u, v in edges)
        backward = sum(math.log(gen.rate(v, u)) for u, v in edges)
        assert abs(forward - backward) > 1e-9


def closed_form_spectrum(n):
    k = np.arange(n)
    return 2.0 * (1.0 - np.cos((2 * k + 1) * np.pi / (2 * n)))


class TestDirichletEigenpair:
    def test_golden(self, golden):
        pair = dirichlet_eigenpair(golden)
        assert pair.lambda0 == pytest.approx(GOLDEN_LAM0, abs=1e-12)
        assert pair.phi[0] == 1.0
        assert pair.phi[1] == pytest.approx(GOLDEN_RATIO, abs=1e-12)

    def test_singleton(self):
        gen = build_general(1, [], {1: 2.5})
        pair = dirichlet_eigenpair(gen)
        assert pair.lambda0 == 2.5
        assert pair.phi == pytest.approx([1.0])

    def test_drifted_chain_closed_form(self):
        for n in (2, 5, 17):
            pair = dirichlet_eigenpair(build_rho_chain(n, 1.0))
            expect = 2.0 * (1.0 - math.cos(math.pi / (2 * n)))
            assert pair.lambda0 == pytest.approx(expect, abs=1e-12)

    def test_residual_invariant(self, golden, rho1_chain10):
        for gen in (golden, rho1_chain10):
            pair = dirichlet_eigenpair(gen)
            k = gen.k_matrix()
            res = np.abs(k @ pair.phi + pair.lambda0 * pair.phi).max()
            assert res <= 1e-10 * pair.lambda0 * np.abs(pair.phi).max() + 1e-13

    @pytest.mark.parametrize("k", [-1000, 900, 1000])
    def test_residual_at_extreme_rate_scales(self, k):
        # at 2^1000, K phi + lambda0 phi on phi(1) = 1 overflowed to inf - inf:
        # the residual was NaN, with two RuntimeWarnings; the pair runs on
        # the unit rates, so every scale gives the same bits
        b, d = np.full(29, 1.0), np.full(30, 4.0)
        unscaled = dirichlet_eigenpair(build_birth_death(b, d)).residual
        res = dirichlet_eigenpair(build_birth_death(b * 2.0 ** k, d * 2.0 ** k)).residual
        assert res == math.ldexp(unscaled, k)

    def test_lambda0_below_min_exit_rate(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gen = random_reversible_generator(rng)
            pair = dirichlet_eigenpair(gen)
            min_exit = float((-gen.diagonal).min())
            assert pair.lambda0 <= min_exit
            if gen.n_states > 1:
                assert pair.lambda0 < min_exit

    def test_positivity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pair = dirichlet_eigenpair(random_reversible_generator(rng))
            assert np.all(pair.phi > 0)

    def test_normalizations(self, rho1_chain10):
        first = dirichlet_eigenpair(rho1_chain10, "first")
        assert first.phi[0] == 1.0
        mx = dirichlet_eigenpair(rho1_chain10, "max")
        assert mx.phi.max() == pytest.approx(1.0)
        qsd = dirichlet_eigenpair(rho1_chain10, "qsd")
        nu = quasi_stationary_dist(rho1_chain10)
        assert float(nu @ qsd.phi) == pytest.approx(1.0, abs=1e-12)
        for pair in (mx, qsd):
            assert amplitude(pair) == pytest.approx(amplitude(first), rel=1e-12, abs=0)

    def test_deterministic(self, rho1_chain10):
        a = dirichlet_eigenpair(rho1_chain10)
        b = dirichlet_eigenpair(rho1_chain10)
        assert a.lambda0 == b.lambda0
        assert np.array_equal(a.phi, b.phi)

    def test_non_reversible_still_works(self):
        # drifted 3-cycle: clockwise 2, counterclockwise 1
        gen = build_general(
            3,
            [(1, 2, 2.0), (2, 3, 2.0), (3, 1, 2.0),
             (2, 1, 1.0), (3, 2, 1.0), (1, 3, 1.0)],
            {1: 0.5},
        )
        eta, witness = reversible_measure(gen)
        assert eta is None and witness is not None
        pair = dirichlet_eigenpair(gen)
        oracle = np.linalg.eigvals(-gen.k_matrix())
        assert pair.lambda0 == pytest.approx(float(np.min(oracle.real)), rel=1e-10, abs=0)
        assert np.all(pair.phi > 0)


class TestFullSpectrum:
    def test_closed_form(self):
        for n in (2, 5, 20):
            rep = full_spectrum(build_rho_chain(n, 1.0))
            np.testing.assert_allclose(rep.eigenvalues, closed_form_spectrum(n), atol=1e-10)

    def test_golden(self, golden):
        rep = full_spectrum(golden, compute_minors=True)
        np.testing.assert_allclose(rep.eigenvalues, [GOLDEN_LAM0, GOLDEN_LAM1], atol=1e-12)
        assert rep.lambda0_prime == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rep.minor_spectra[1], [1.0], atol=1e-12)
        np.testing.assert_allclose(rep.minor_spectra[2], [2.0], atol=1e-12)

    def test_singleton(self):
        rep = full_spectrum(build_general(1, [], {1: 3.0}))
        np.testing.assert_allclose(rep.eigenvalues, [3.0])
        assert math.isinf(rep.lambda0_prime)

    def test_matches_dense_oracle_on_random_reversible(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            gen = random_reversible_generator(rng)
            rep = full_spectrum(gen)
            oracle = np.sort(np.linalg.eigvals(-gen.k_matrix()).real)
            np.testing.assert_allclose(rep.eigenvalues, oracle, rtol=1e-8, atol=1e-10)

    def test_interlacing_on_random_reversible(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            gen = random_reversible_generator(rng)
            rep = full_spectrum(gen, compute_minors=True)
            lam = rep.eigenvalues
            for x, tilde in rep.minor_spectra.items():
                assert lam[0] < tilde[0] - 1e-12 * lam[0]
                for i, t in enumerate(tilde):
                    assert lam[i] <= t + 1e-9
                    assert t <= lam[i + 1] + 1e-9

    def test_reversible_input_never_reaches_the_nonsymmetric_solver(self, monkeypatch):
        # spectra and minors come from the rates, never from the dense K
        rng = np.random.default_rng(15)
        walk = [(a + 1, b + 1) for a, b in lattice_edges(5, 6)]
        walk += [(b, a) for a, b in walk]
        gens = [reversible_dumbbell(rng), build_graph_walk(walk, [1, 30]), build_rho_chain(6, 1.3)]

        def refuse(self):
            raise AssertionError("k_matrix called on reversible input")

        monkeypatch.setattr(type(gens[0]), "k_matrix", refuse)
        for gen in gens:
            rep = full_spectrum(gen, compute_minors=True)
            assert rep.reversible_measure is not None
            assert len(rep.minor_spectra) == gen.n_states
            for x in gen.absorbing_set:
                lambda0_minor(gen, x)

    def test_complex_spectrum_detected(self, monkeypatch):
        def refuse_k_matrix(self):
            raise AssertionError("k_matrix called")

        # a drift round a 3-cycle breaks detailed balance, whether the
        # spectrum is complex (strong drift) or real (a milder drift under
        # strong killing)
        for forward, backward, kill, complex_spectrum in [(5.0, 0.01, 1.0, True),
                                                          (2.0, 1.0, 5.0, False)]:
            gen = build_general(
                3,
                [(1, 2, forward), (2, 3, forward), (3, 1, forward),
                 (2, 1, backward), (3, 2, backward), (1, 3, backward)],
                {1: kill},
            )
            vals = np.linalg.eigvals(-gen.k_matrix())
            assert (np.abs(vals.imag).max() > 1e-3) == complex_spectrum
            with monkeypatch.context() as patch:  # refused before any matrix is built
                patch.setattr(type(gen), "k_matrix", refuse_k_matrix)
                for minors in (False, True):
                    with pytest.raises(NotReversible, match="lambda0_minor"):
                        full_spectrum(gen, compute_minors=minors)


class TestReversibleMeasure:
    def test_rho_chain_product_weights(self):
        for rho in (0.5, 2.0):
            n = 6
            gen = build_rho_chain(n, rho)
            eta, witness = reversible_measure(gen)
            assert witness is None
            pi = np.array([rho ** x for x in range(n)])
            pi[-1] = rho ** (n - 1) / (1 + rho)
            np.testing.assert_allclose(eta, pi / pi.sum(), rtol=1e-12)

    def test_detailed_balance_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            gen = random_reversible_generator(rng)
            eta, witness = reversible_measure(gen)
            assert witness is None
            k = gen.k_matrix()
            flows = eta[:, None] * k
            off = ~np.eye(gen.n_states, dtype=bool)
            scale = np.abs(flows[off]).max()
            assert np.abs((flows - flows.T)[off]).max() <= 1e-12 * scale

    def test_unbalanced_cycle_witness(self):
        gen = build_general(
            3,
            [(1, 2, 2.0), (2, 3, 2.0), (3, 1, 2.0),
             (2, 1, 1.0), (3, 2, 1.0), (1, 3, 1.0)],
            {1: 1.0},
        )
        eta, witness = reversible_measure(gen)
        assert eta is None
        assert witness[0] == witness[-1]  # closed cycle
        assert len(set(witness[:-1])) >= 3

    def test_one_way_cycle_witness(self):
        gen = build_general(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)], {1: 1.0})
        eta, witness = reversible_measure(gen)
        assert eta is None and witness is not None

    def test_drifted_cycle_witness(self):
        # ring with clockwise rate 2 and counterclockwise 1: the rate products
        # around it are 2^7 one way and 1 the other
        n = 7
        transitions = [(i, i % n + 1, 2.0) for i in range(1, n + 1)]
        transitions += [(i % n + 1, i, 1.0) for i in range(1, n + 1)]
        gen = build_general(n, transitions, {1: 0.5, 4: 0.5})
        eta, witness = reversible_measure(gen)
        assert eta is None
        assert_kolmogorov_witness(gen, witness)

    def test_one_way_cycle_with_chords_witness(self):
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 20:
            gen = random_cycle_with_chords(rng)
            if gen.n_states < 3:  # a 2-cycle is reversible
                continue
            eta, witness = reversible_measure(gen)
            assert eta is None
            assert_kolmogorov_witness(gen, witness)
            checked += 1

    def test_symmetric_two_state(self):
        # hand solve: eta(1) * 1 = eta(2) * 1
        gen = build_general(2, [(1, 2, 1.0), (2, 1, 1.0)], {1: 1.0})
        eta, _ = reversible_measure(gen)
        np.testing.assert_allclose(eta, [0.5, 0.5], rtol=1e-14)


class TestQuasiStationary:
    def test_singleton(self):
        assert quasi_stationary_dist(build_general(1, [], {1: 1.0})) == pytest.approx([1.0])

    def test_golden(self, golden):
        # eta uniform, so nu is proportional to phi itself
        nu = quasi_stationary_dist(golden)
        expect = np.array([1.0, GOLDEN_RATIO])
        np.testing.assert_allclose(nu, expect / expect.sum(), rtol=1e-12)

    def test_left_eigensolve_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            gen = random_reversible_generator(rng)
            nu = quasi_stationary_dist(gen)
            k = gen.k_matrix()
            w, vl = np.linalg.eig(k.T)
            i = int(np.argmax(w.real))
            oracle = np.abs(vl[:, i].real)
            oracle /= oracle.sum()
            np.testing.assert_allclose(nu, oracle, rtol=1e-8, atol=1e-12)
            lam0 = dirichlet_eigenpair(gen).lambda0
            assert np.abs(nu @ k + lam0 * nu).max() <= 1e-10

    def test_eta_phi_relation(self):
        rng = np.random.default_rng(10)
        gen = random_reversible_generator(rng)
        eta, _ = reversible_measure(gen)
        pair = dirichlet_eigenpair(gen)
        expect = eta * pair.phi
        np.testing.assert_allclose(
            quasi_stationary_dist(gen), expect / expect.sum(), rtol=1e-9
        )

    @pytest.mark.parametrize("route", ["birth-death", "reversible", "non-reversible"])
    def test_qsd_normalization_solves_the_ground_problem_once(self, route, monkeypatch):
        gen = _route_chain(route)
        first = dirichlet_eigenpair(gen).phi
        old_path = first / float(quasi_stationary_dist(gen) @ first)
        calls, factors = _count_solves(monkeypatch)
        phi = dirichlet_eigenpair(gen, "qsd").phi
        assert calls.count("ground_pair") + calls.count("_perron_pair") == 1
        # every chain that is not birth-death takes its pair from one banded
        # LU, and its QSD's transposed steps run on that same factorization
        assert calls.count("dgbtrf") == (route != "birth-death")
        assert calls.count("_perron_pair^T") == (route != "birth-death")
        assert route == "birth-death" or factors[1] is factors[0]
        assert "reversible_measure" not in calls
        assert "eigh" not in calls
        np.testing.assert_allclose(phi, old_path, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("route", ["reversible", "non-reversible"])
    def test_qsd_solves_only_the_transposed_problem(self, route, monkeypatch):
        gen = _route_chain(route)
        calls, _ = _count_solves(monkeypatch)
        quasi_stationary_dist(gen)
        assert calls == ["_perron_pair^T", "dgbtrf"]


@pytest.mark.parametrize("route, steps", [("birth-death", 9), ("reversible", 13),
                                          ("non-reversible", 16)])
def test_one_step_cap_covers_every_start_and_shift(route, steps, monkeypatch):
    # the birth-death pair takes 5 Green steps from its first start and 4
    # from the bisected one, the banded pairs 13 and 16 from the ones
    # vector; one step fewer raises, where each start used to get a cap of
    # its own and a banded pair was accepted on an unsettled bracket
    gen = _route_chain(route)
    monkeypatch.setattr(tridiag, "MAX_POWER_STEPS", steps)
    dirichlet_eigenpair(gen)
    monkeypatch.setattr(tridiag, "MAX_POWER_STEPS", steps - 1)
    with pytest.raises(NoConvergence, match=f"^power steps not settled after {steps - 1} steps"):
        dirichlet_eigenpair(gen)


def _route_chain(route):
    """A birth-death chain, a reversible grid walk or a non-reversible cycle
    with chords."""
    edges = [(i + 1, j + 1) for a, b in lattice_edges(4, 5) for i, j in ((a, b), (b, a))]
    return {
        "birth-death": lambda: build_rho_chain(40, 0.8),
        "reversible": lambda: build_graph_walk(edges, [1, 20]),
        "non-reversible": lambda: random_cycle_with_chords(np.random.default_rng(13)),
    }[route]()


def _count_solves(monkeypatch):
    """Spy on the ground solvers, reversible_measure, dgbtrf and eigh.

    Returns the list of names called, with _perron_pair(band, 1, ...), the
    transposed steps, as "_perron_pair^T", and the list of LU factors that
    _perron_pair returned or, transposed, started from.
    """
    calls, factors = [], []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            transposed = name == "_perron_pair" and len(args) > 1 and args[1] == 1
            calls.append(name + "^T" if transposed else name)
            out = real(*args, **kwargs)
            if name == "_perron_pair":
                factors.append(args[2] if transposed else out[2])
            return out
        return wrapper

    for module, name in [(tridiag, "ground_pair"), (spectral, "_perron_pair"),
                         (spectral, "reversible_measure"), (spectral, "dgbtrf"),
                         (spectral, "eigh")]:
        monkeypatch.setattr(module, name, counted(module, name))
    return calls, factors


class TestAmplitude:
    def test_golden(self, golden):
        assert amplitude(dirichlet_eigenpair(golden)) == pytest.approx(GOLDEN_RATIO, abs=1e-12)

    def test_constant(self):
        assert amplitude(np.ones(5)) == 1.0

    def test_drifted_chain_linear_growth(self):
        amp = amplitude(dirichlet_eigenpair(build_rho_chain(100, 1.0)))
        assert abs(amp * math.pi / 200.0 - 1.0) <= 1e-3

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        phi = np.exp(rng.normal(size=9))
        for c in (1e-7, 0.5, 3e8):
            assert amplitude(c * phi) == pytest.approx(amplitude(phi), rel=1e-12, abs=0)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveInput):
            amplitude(np.array([1.0, 0.0]))
        with pytest.raises(NonPositiveInput):
            amplitude(np.array([1.0, -2.0]))


def mp_minor_lambda0(b, d, x, dps=50):
    """lambda0 of the birth-death chain without state x, by mpmath's
    symmetric eigensolver at dps digits on the symmetrized -K built from the
    rates, with the row and column of x removed."""
    n = len(d)
    keep = [i for i in range(n) if i != x - 1]
    with mp.workdps(dps):
        s = mp.zeros(n - 1, n - 1)
        for r, i in enumerate(keep):
            s[r, r] = mp.mpf(d[i]) + (mp.mpf(b[i]) if i < n - 1 else 0)
            if r + 1 < n - 1 and keep[r + 1] == i + 1:
                s[r, r + 1] = s[r + 1, r] = -mp.sqrt(mp.mpf(b[i]) * mp.mpf(d[i + 1]))
        return float(min(mp.eigsy(s, eigvals_only=True)))


class TestLambda0Minor:
    def test_golden_cases(self, golden):
        assert lambda0_minor(golden, 1) == pytest.approx(1.0, abs=1e-12)
        assert lambda0_minor(golden, 2) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("x", [1.5, 2.0, "1", True, None])
    def test_state_that_is_not_an_integer_rejected(self, golden, x):
        with pytest.raises(InvalidParameter, match="^state label .* is not an integer$"):
            lambda0_minor(golden, x)

    def test_singleton_convention(self):
        assert math.isinf(lambda0_minor(build_general(1, [], {1: 1.0}), 1))

    def test_cross_check_with_eigenpair(self):
        gen = build_rho_chain(3, 1.0)
        # states 2 and 3 of the chain; state 2's down-rate now kills
        sub = build_general(2, [(1, 2, 1.0), (2, 1, 2.0)], {1: 1.0})
        np.testing.assert_array_equal(minor(gen, {1}), sub.k_matrix())
        assert lambda0_minor(gen, 1) == pytest.approx(
            dirichlet_eigenpair(sub).lambda0, rel=1e-10, abs=0
        )

    def test_strict_minor_gap(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            gen = random_reversible_generator(rng)
            lam0 = dirichlet_eigenpair(gen).lambda0
            for x in range(1, gen.n_states + 1):
                assert lambda0_minor(gen, x) > lam0 * (1 + 1e-12)

    def test_domain_monotonicity_birth_death(self):
        # nested intervals of a drifted chain: smaller domain, larger eigenvalue
        rho = 1.3
        gen = build_rho_chain(12, rho)
        values = []
        for keep in (12, 9, 6, 3):
            # the leading block: the up-rate across the cut becomes killing
            inside = [t for t in gen.transitions if max(t[:2]) <= keep]
            absorption = {1: 1.0, **({keep: rho} if keep < 12 else {})}
            sub = build_general(keep, inside, absorption)
            np.testing.assert_array_equal(sub.k_matrix(), gen.k_matrix()[:keep, :keep])
            values.append(dirichlet_eigenpair(sub).lambda0)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_birth_death_state_out_of_range(self):
        gen = build_rho_chain(6, 1.0)
        for x in (0, 7, -1):
            with pytest.raises(InvalidParameter):
                lambda0_minor(gen, x)

    def test_birth_death_minor_far_below_the_rates(self):
        # lambda0' ~ 1.7e-24 sits below eps * ||K||, LAPACK's absolute
        # accuracy; the Green pair of the upper block keeps it relatively
        gen = build_rho_chain(200, 1.3)
        b, d = gen.birth_death_rates()
        ref = float(tridiag.mp_lambda(b[1:], d[1:]))
        lam0p = full_spectrum(gen).lambda0_prime
        assert lam0p > 0
        assert lam0p == pytest.approx(ref, rel=1e-10, abs=0)
        assert lambda0_minor(gen, 1) == lam0p

    def test_birth_death_minor_below_the_double_range_raises(self):
        # lambda0' of the upper block is below the double range, so its
        # Green pair raises; LAPACK's value there (-3.9e-16) is below its
        # own error bound and must not be returned
        with pytest.raises(NoConvergence):
            lambda0_minor(build_rho_chain(1100, 2.0), 1)

    def test_birth_death_minor_where_the_green_pair_raises(self):
        # the upper block's Green steps do not settle here, and its lambda0'
        # comes from the bisected Sturm count alone; LAPACK's bisection on
        # the symmetrized block gave 0.2500040734072573, 1 ulp lower
        gen = build_rho_chain(1100, 0.25)
        b, d = gen.birth_death_rates()
        with pytest.raises(NoConvergence):
            tridiag.ground_pair(b[1:], d[1:])
        ref = float(tridiag.mp_lambda(b[1:], d[1:]))
        assert abs(lambda0_minor(gen, 1) - ref) <= np.spacing(ref)
        assert 0.25 < ref < 0.2500041

    @pytest.mark.parametrize("b, d, x", [
        ([1, 1, 1e-18, 1], [1e-18, 1, 1, 1, 1], 4),
        (np.where(np.arange(1, 30) < 12, 8.0, 1.0), np.where(np.arange(1, 31) < 12, 1.0, 8.0), 24),
    ], ids=["killed-at-1e-18", "trapped-in-the-middle"])
    def test_lower_block_far_below_its_rates(self, b, d, x):
        # the block below x is killed at both ends, by d_1 and by b_{x-1}:
        # lambda0' is 6.7e-19 on the first chain, and 4.0e-10 on the second,
        # which drifts to state 12 from both sides.  LAPACK's bisection on
        # the symmetrized block gave -4.4e-17 and 2.4e-6 relatively off
        b, d = np.asarray(b, dtype=float), np.asarray(d, dtype=float)
        ref = mp_minor_lambda0(b, d, x)
        assert ref < 1e-9
        assert lambda0_minor(build_birth_death(b, d), x) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_reducible_minor(self):
        # removing the middle of a 3-chain leaves two singleton blocks
        gen = build_rho_chain(3, 1.0)
        k = gen.k_matrix()
        expect = min(-k[0, 0], -k[2, 2])
        assert lambda0_minor(gen, 2) == pytest.approx(expect, abs=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_reversible_routes_match_dense_references(seed, dumbbell):
    rng = np.random.default_rng(seed)
    gen = reversible_dumbbell(rng) if dumbbell else random_reversible_generator(rng)
    k = gen.k_matrix()
    eta, witness = reversible_measure(gen)
    assert witness is None
    np.testing.assert_allclose(eta, dense_bfs_eta(k), rtol=1e-12, atol=0)
    minors = {}
    for x in range(1, gen.n_states + 1):
        sub = minor(gen, {x})
        if sub.shape[0] > 1:
            expect = -float(np.max(np.linalg.eigvals(sub).real))
            assert lambda0_minor(gen, x) == pytest.approx(expect, rel=1e-10, abs=0)
        minors[x] = lambda0_minor(gen, x)
    rep = full_spectrum(gen)
    assert rep.lambda0_prime == min(minors[x] for x in gen.absorbing_set)


@pytest.mark.parametrize("call", [
    dirichlet_eigenpair,
    quasi_stationary_dist,
    reversible_measure,
    lambda x: lambda0_minor(x, 1),
    full_spectrum,
], ids=["dirichlet_eigenpair", "quasi_stationary_dist", "reversible_measure",
        "lambda0_minor", "full_spectrum"])
def test_matrix_input_rejected(call, golden):
    with pytest.raises(InvalidParameter):
        call(golden.k_matrix())


def dense_sym_neg_k(k):
    """The symmetrized -K of a reversible k by the dense formula
    -sqrt(K_ij K_ji) on every entry off the diagonal."""
    rates = np.maximum(k, 0.0)
    s = tridiag.neg_sqrt_product(rates, rates.T)
    np.fill_diagonal(s, -np.diag(k))
    return s


@pytest.mark.parametrize("label", [(1, 2, 3, 4), (1, 3, 4, 2)])
def test_minor_of_a_non_reversible_chain_on_restricted_rates(label):
    # 1 <-> 2 <-> 3 -> 4 -> 1 is non-reversible; without state 4 it leaves
    # the path 1 <-> 2 <-> 3.  The second labelling puts that state in the
    # middle, so the minor's rates are renumbered.
    edges = [(1, 2, 1), (2, 1, 1), (2, 3, 1), (3, 2, 1), (3, 4, 0.5), (4, 1, 0.5)]
    gen = build_general(4, [(label[i - 1], label[j - 1], r) for i, j, r in edges], {1: 1})
    assert reversible_measure(gen)[0] is None
    for x in range(1, 5):
        expect = float(np.min(np.linalg.eigvals(spectral._drop_state(-gen.k_matrix(), x)).real))
        assert lambda0_minor(gen, x) == pytest.approx(expect, rel=1e-10, abs=0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_non_reversible_power_steps_return_or_raise(seed, mild):
    # absorption log-uniform in [1e-30, 1], or in [1e-3, 1] where the dense
    # solver's absolute accuracy still gives lambda0 to 1e-9 relative
    rng = np.random.default_rng(seed)
    gen = random_cycle_with_chords(rng, absorption_range=(1e-3 if mild else 1e-30, 1.0))
    k = gen.k_matrix()
    results = {}
    for name, call in [("pair", dirichlet_eigenpair), ("nu", quasi_stationary_dist)] + [
        (x, lambda g, x=x: lambda0_minor(g, x)) for x in range(1, gen.n_states + 1)
    ]:
        try:
            results[name] = call(gen)
        except QsampError:
            assert not mild
    if "pair" in results:
        assert np.all(results["pair"].phi > 0)
    if "nu" in results:
        assert np.all(results["nu"] > 0) and results["nu"].sum() == pytest.approx(1.0)
    if mild:
        oracle = float(np.min(np.linalg.eigvals(-k).real))
        assert results["pair"].lambda0 == pytest.approx(oracle, rel=1e-9, abs=0)
        for x in range(1, gen.n_states + 1):  # two states or more
            expect = float(np.min(np.linalg.eigvals(spectral._drop_state(-k, x)).real))
            assert results[x] == pytest.approx(expect, rel=1e-9, abs=0)


def test_absorption_below_rounding_raises_no_convergence():
    # absorption 1e-20 is lost from the diagonal, so -K is singular in
    # double: the unit cycle 1 -> 2 -> 3 -> 1 with the chord 1 -> 3, absorbed
    # at state 3, and the reversible unit triangle absorbed at state 1
    cycle = build_general(3, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (3, 1, 1.0)], {3: 1e-20})
    triangle = build_general(3, [(i, j, 1.0) for i in (1, 2, 3) for j in (1, 2, 3) if i != j],
                             {1: 1e-20})
    assert reversible_measure(triangle)[0] is not None
    for gen in (cycle, triangle):
        for call in (dirichlet_eigenpair, quasi_stationary_dist):
            with pytest.raises(NoConvergence):
                call(gen)


@pytest.mark.parametrize("chain", ["grid", "cycle-with-chords"])
def test_perron_routes_build_no_dense_k(chain, monkeypatch):
    # the pair, the QSD and lambda0' run on the band scattered from the CSR
    gen = {"grid": lambda: grid_walk(12, 12),
           "cycle-with-chords": lambda: random_cycle_with_chords(np.random.default_rng(21))}[chain]()

    def forbidden(self):
        raise AssertionError("k_matrix called")

    monkeypatch.setattr(qsamp.AbsorbingGenerator, "k_matrix", forbidden)
    for normalization in spectral.NORMALIZATIONS:
        dirichlet_eigenpair(gen, normalization)
    quasi_stationary_dist(gen)
    for x in (1, gen.n_states):
        lambda0_minor(gen, x)


def test_grid_walk_on_the_band_matches_the_symmetric_solver():
    # the 24 x 24 unit grid absorbed at a corner: -K is symmetric, eta is
    # uniform, and the far corner's minor is -K without its last state
    gen = grid_walk(24, 24)
    s = dense_sym_neg_k(gen.k_matrix())
    lam, vec = eigh(s, subset_by_index=(0, 0))
    phi = np.abs(vec[:, 0]) / np.abs(vec[:, 0]).max()
    pair = dirichlet_eigenpair(gen, "max")
    assert pair.lambda0 == pytest.approx(lam[0], rel=1e-12, abs=0)
    np.testing.assert_allclose(pair.phi, phi, rtol=0, atol=1e-12)
    eta_phi = reversible_measure(gen)[0] * pair.phi
    np.testing.assert_allclose(quasi_stationary_dist(gen), eta_phi / eta_phi.sum(), rtol=0, atol=1e-12)
    minor_lam = eigh(spectral._drop_state(s, gen.n_states), subset_by_index=(0, 0), eigvals_only=True)
    assert lambda0_minor(gen, gen.n_states) == pytest.approx(minor_lam[0], rel=1e-12, abs=0)


def test_singular_pivot_raises_no_convergence():
    # absorption 1e-20 is lost from the unit triangle's diagonal, and so is
    # the rate 1e-20 from state 3 to state 4, the only killing of the minor
    # without state 4: each LU meets an exactly zero pivot
    triangle = [(i, j, 1.0) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    gen = build_general(3, triangle, {1: 1e-20})
    for call in (dirichlet_eigenpair, quasi_stationary_dist):
        with pytest.raises(NoConvergence, match="pivot 3 of its LU is zero"):
            call(gen)
    gen = build_general(4, triangle + [(3, 4, 1e-20), (4, 3, 1.0)], {4: 1.0})
    assert lambda0_minor(gen, 1) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(NoConvergence, match="pivot 3 of its LU is zero"):
        lambda0_minor(gen, 4)


def mp_reversible_lambda0(gen, dps=50):
    """lambda0 of a reversible chain by mpmath's symmetric eigensolver at dps
    digits, on the symmetrized -K built from the rates (exit rates summed in
    mpmath)."""
    with mp.workdps(dps):
        rates = {(i, j): mp.mpf(r) for i, j, r in gen.transitions}
        s = mp.zeros(gen.n_states, gen.n_states)
        for (i, j), r in rates.items():
            s[i - 1, i - 1] += r
            s[i - 1, j - 1] = -mp.sqrt(r * rates[(j, i)])
        for i, r in gen.absorption:
            s[i - 1, i - 1] += mp.mpf(r)
        return float(min(mp.eigsy(s, eigvals_only=True)))


def test_drifted_reversible_chain_pair_is_relatively_accurate():
    # lambda0 = 8.3e-14 sits far below the unit rates of this 50-state
    # chain, within the symmetric solver's eps-times-the-rates error: eigh's
    # lambda0 was 7e-4 relatively off, where the LU power steps' is exact
    gen = random_drifted_reversible_generator(np.random.default_rng(127))
    assert gen.n_states == 50 and reversible_measure(gen)[0] is not None
    pair = dirichlet_eigenpair(gen)
    assert pair.lambda0 == pytest.approx(mp_reversible_lambda0(gen), rel=1e-12, abs=0)
    assert np.all(pair.phi > 0)


def test_non_reversible_minor_by_strongly_connected_blocks(monkeypatch):
    # without state 1, the chain splits into the one-way 3-cycle 2 -> 3 -> 4
    # (chord 2 -> 4) and the pair 5 <-> 6, joined only by 4 -> 5
    transitions = [(1, 2, 1.0), (2, 3, 1.5), (2, 4, 0.5), (3, 4, 2.0), (4, 2, 1.0),
                   (4, 5, 0.7), (5, 6, 1.0), (6, 1, 0.3), (6, 5, 2.0)]
    gen = build_general(6, transitions, {1: 1.0, 5: 0.2})
    assert reversible_measure(gen)[0] is None
    sub = -minor(gen, {1})
    expect = float(np.min(np.linalg.eigvals(sub).real))
    blocks = [float(np.min(np.linalg.eigvals(sub[np.ix_(b, b)]).real))
              for b in ([0, 1, 2], [3, 4])]
    assert expect == pytest.approx(min(blocks), rel=1e-12, abs=0)
    assert max(blocks) > 1.2 * min(blocks)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called for a minor's lambda0")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    assert lambda0_minor(gen, 1) == pytest.approx(expect, rel=1e-12, abs=0)
    for x in range(2, 7):
        lambda0_minor(gen, x)


def hub_and_pairs(a, delta, kappa, skew):
    """Hub 1, absorbed at rate a, feeds the pairs {2, 3} and {4, 5} through 2
    and 4; they drain back to it one way, from 3 and 5, at kappa and
    kappa * skew, and are joined one way round 2 -> 3 -> 4 -> 5 -> 2 at
    delta (0 for no join).  The chain is not reversible."""
    transitions = [(1, 2, 1.0), (1, 4, 1.0), (2, 3, 1.0), (3, 2, 1.0), (4, 5, 1.0),
                   (5, 4, 1.0), (3, 1, kappa), (5, 1, kappa * skew)]
    if delta:
        transitions += [(3, 4, delta), (5, 2, delta)]
    return build_general(5, transitions, {1: a})


def test_metastable_non_reversible_pair_and_qsd():
    # the pairs are two near-identical traps: lambda0/lambda1 is about 0.99,
    # so unshifted power steps would narrow the bracket to 0.99^1000, about
    # 4e-5, within their step cap
    gen = hub_and_pairs(1000.0, 0.0, 1e-2, 1.01)
    assert reversible_measure(gen)[0] is None
    k = gen.k_matrix()
    vals = np.sort(np.linalg.eigvals(-k).real)
    assert vals[0] / vals[1] > 0.985
    pair = dirichlet_eigenpair(gen)
    assert pair.lambda0 == pytest.approx(vals[0], rel=1e-9, abs=0)
    assert np.abs(k @ pair.phi + pair.lambda0 * pair.phi).max() <= 1e-10 * pair.lambda0 * pair.phi.max()
    nu = quasi_stationary_dist(gen)
    assert np.all(nu > 0) and np.abs(nu @ k + pair.lambda0 * nu).max() <= 1e-10 * pair.lambda0
    phi = dirichlet_eigenpair(gen, "qsd").phi
    assert float(nu @ phi) == pytest.approx(1.0, rel=1e-12, abs=0)
    expect = float(np.min(np.linalg.eigvals(spectral._drop_state(-k, 1)).real))
    lambda0_prime = min(lambda0_minor(gen, x) for x in gen.absorbing_set)
    assert lambda0_prime == pytest.approx(expect, rel=1e-9, abs=0)


def test_minor_block_with_a_bottleneck():
    # without the hub, states 2..5 are one strongly connected block whose two
    # halves are joined at 1e-6, against drains of 1e-2: its lambda0/lambda1
    # is about 0.999
    gen = hub_and_pairs(1.0, 1e-6, 1e-2, 1.001)
    sub = spectral._drop_state(-gen.k_matrix(), 1)
    assert connected_components(csr_matrix(sub), directed=True, connection="strong")[0] == 1
    vals = np.sort(np.linalg.eigvals(sub).real)
    assert vals[0] / vals[1] > 0.998
    assert lambda0_minor(gen, 1) == pytest.approx(vals[0], rel=1e-9, abs=0)
    lambda0_prime = min(lambda0_minor(gen, x) for x in gen.absorbing_set)
    assert lambda0_prime == pytest.approx(vals[0], rel=1e-9, abs=0)


@pytest.mark.parametrize("family", ["reversible", "cycle-with-chords"])
def test_minor_rates_are_the_sliced_csr(family):
    rng = np.random.default_rng(11)
    for _ in range(10):
        gen = SCALE_FAMILIES[family](rng)
        for x in range(1, gen.n_states + 1):
            keep = np.delete(np.arange(gen.n_states), x - 1)
            ref, ours = gen._csr[keep][:, keep], spectral._minor_rates(gen, x)
            assert ours.shape == ref.shape
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(ours, name), getattr(ref, name))
                assert getattr(ours, name).dtype == getattr(ref, name).dtype


@pytest.mark.parametrize("gen", [
    build_rho_chain(12, 0.8),
    build_general(3, [(1, 2, 1.0), (2, 1, 2.0), (2, 3, 1.0), (3, 2, 1.0)], {1: 1.0, 3: 0.5}),
    build_rho_chain(60, 2.0),
], ids=["birth-death", "reversible", "birth-death-far-below"])
def test_lambda0_prime_does_not_depend_on_minor_spectra(gen):
    # minor spectra are for display; lambda0' has one route
    rep = full_spectrum(gen, compute_minors=True)
    assert len(rep.minor_spectra) == gen.n_states
    assert rep.lambda0_prime == full_spectrum(gen).lambda0_prime
    assert rep.lambda0_prime == min(lambda0_minor(gen, x) for x in gen.absorbing_set)


def drifted_with_exits(rng):
    """A drifted chain (random_drifted_reversible_generator) absorbed at 1..n
    states: each new exit's rate is its exit rate times exp(uniform(-6, 0))."""
    gen = random_drifted_reversible_generator(rng)
    absorption = dict(gen.absorption)
    for x in rng.choice(gen.n_states, size=int(rng.integers(1, gen.n_states + 1)), replace=False):
        absorption[int(x) + 1] = float(-gen.diagonal[x] * np.exp(rng.uniform(-6, 0)))
    return build_general(gen.n_states, list(gen.transitions), absorption)


EXIT_FAMILIES = {
    "reversible": lambda rng: random_reversible_generator(rng, n_max=40),
    "drifted": drifted_with_exits,
}


@pytest.mark.parametrize("family", EXIT_FAMILIES)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lambda0_prime_is_the_least_minor_over_all_exits(family, seed):
    # the secular equation only rules exits out: the candidates' least
    # certified lambda0 is the all-exit minimum, bit for bit (dumbbells and
    # smaller graphs: test_reversible_routes_match_dense_references)
    gen = EXIT_FAMILIES[family](np.random.default_rng(seed))
    rep = full_spectrum(gen)
    assert rep.lambda0_prime == min(lambda0_minor(gen, x) for x in gen.absorbing_set)


@pytest.mark.parametrize("n", [3, 12, 64])
def test_tied_exits_are_all_candidates(n):
    # on the unit cycle absorbed everywhere at one rate every minor is the
    # same path, so the secular roots tie up to rounding; the certified
    # values may differ in their last bits, so no tied exit may drop out
    edges = [(i, i % n + 1, 1.0) for i in range(1, n + 1)] + [(i % n + 1, i, 1.0) for i in range(1, n + 1)]
    gen = build_general(n, edges, {x: 0.5 for x in range(1, n + 1)})
    s = spectral._sym_neg_k(gen._csr, -gen.diagonal)
    eigenvalues, candidates = spectral._exit_candidates(s, gen.absorbing_set)
    assert candidates == list(gen.absorbing_set)
    rep = full_spectrum(gen)
    np.testing.assert_array_equal(rep.eigenvalues, eigenvalues)
    assert rep.lambda0_prime == min(lambda0_minor(gen, x) for x in gen.absorbing_set)


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's workload module, which draws its chains."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lambda0_prime_on_the_benchmark_reversible_chains(workloads, seed):
    # the reversible ops of an 18 s general-chains run: 25 rounds
    chains = workloads.GeneralChains()
    ops = [op for op in chains.make_ops(seed, chains.rounds(18)) if op.kind == "reversible"]
    assert len(ops) == 25
    for op in ops:
        gen = workloads.build_from_params(qsamp, op)
        rep = full_spectrum(gen)
        assert rep.lambda0_prime == min(lambda0_minor(gen, x) for x in gen.absorbing_set)


def spy(monkeypatch, name):
    """Wrap spectral.<name> so that each call's (args, kwargs, result) is
    appended to the returned list."""
    calls, real = [], getattr(spectral, name)

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(spectral, name, wrapper)
    return calls


def test_lambda0_prime_from_one_eigendecomposition(workloads, monkeypatch):
    # 64 states, each one an exit: eigh runs once, with vectors for the
    # secular roots, and its eigenvalues are the reported spectrum; it never
    # runs on a minor, and the power steps run only on the minor of the one
    # exit the roots leave (the two least minor eigenvalues are 1.7e-4
    # apart, relatively)
    p = workloads.reversible_params(np.random.default_rng(5), 64, 64)
    gen = build_general(p["n"], p["transitions"], p["absorption"])
    assert gen.absorbing_set == tuple(range(1, 65))
    values = {x: lambda0_minor(gen, x) for x in gen.absorbing_set}
    eighs, candidates, minors, perron = (
        spy(monkeypatch, name) for name in ("eigh", "_exit_candidates", "_minor_lambda0", "_perron_pair"))
    rep = full_spectrum(gen)
    [(args, kw, (lam, _))] = eighs
    assert (len(args[0]), kw.get("eigvals_only", False)) == (64, False)
    [(_, _, (eigenvalues, chosen))] = candidates
    np.testing.assert_array_equal(rep.eigenvalues, eigenvalues)
    np.testing.assert_array_equal(eigenvalues, np.ldexp(lam, tridiag.unit_exponent(-gen.diagonal)))
    assert chosen == [min(values, key=values.get)]
    assert [args[1] for args, _, _ in minors] == chosen
    blocks = connected_components(spectral._drop_state(gen._csr.toarray(), chosen[0]),
                                  directed=True, connection="strong")[0]
    assert len(perron) == blocks
    assert rep.lambda0_prime == min(values.values())


def drifted_probe():
    """The 100 drifted chains of the probe: default_rng(99) after 300 draws of
    random_reversible_generator(rng, n_max=80)."""
    rng = np.random.default_rng(99)
    for _ in range(300):
        random_reversible_generator(rng, n_max=80)
    return [random_drifted_reversible_generator(rng) for _ in range(100)]


def test_drifted_probe_lambda0_prime_is_relatively_accurate():
    # LAPACK's absolute error on the exit-1 minors raised NoConvergence on 39
    # of these chains and left lambda0' 0.25% off on chains 52 and 90, where
    # the certified steps are within 1e-14.  The references are the least mp.eigsy eigenvalue of the
    # minor's symmetrized -K, built from the rates in mpmath as
    # mp_reversible_lambda0 builds it; at 80 and 100 digits they agreed to
    # 1e-63 relative (these chains absorb at state 1 only):
    #   with mp.workdps(80):
    #       rates = {(i, j): mp.mpf(r) for i, j, r in gen.transitions}
    #       s = mp.zeros(n - 1, n - 1)
    #       for (i, j), r in rates.items():
    #           if i > 1:
    #               s[i - 2, i - 2] += r
    #               if j > 1:
    #                   s[i - 2, j - 2] = -mp.sqrt(r * rates[(j, i)])
    #       lambda0_prime = min(mp.eigsy(s, eigvals_only=True))
    refs = {5: "3.237932167231653156167626926042278205122e-18",
            52: "1.340467349708639956738799963941341689808e-14",
            90: "2.522990123808081521980610422877677643281e-14"}
    chains = drifted_probe()
    for i, ref in refs.items():
        assert chains[i].absorbing_set == (1,)
        assert full_spectrum(chains[i]).lambda0_prime == pytest.approx(float(ref), rel=1e-14, abs=0)
    for gen in chains:
        rep = full_spectrum(gen)
        assert spectral_bound(rep).bound >= amplitude(dirichlet_eigenpair(gen))


def test_birth_death_lambda0_prime_with_minor_spectra_is_relatively_accurate():
    # lambda0' = 1.3e-18 sits far below the rates: the minor spectra's eigh
    # value was -1.55e-15, and a report with them used to read lambda0' off it
    gen = build_rho_chain(60, 2.0)
    b, d = gen.birth_death_rates()
    ref = float(tridiag.mp_lambda(b[1:], d[1:]))
    assert ref == pytest.approx(1.3010426069826055e-18, rel=1e-15, abs=0)
    assert full_spectrum(gen, compute_minors=True).lambda0_prime == pytest.approx(ref, rel=1e-13, abs=0)


def rho_chain_with_chord():
    """build_rho_chain(60, 2.0) plus the chord 30 <-> 32 at rates c / pi,
    with c = pi_30 / 2, so the chain stays reversible for pi."""
    gen = build_rho_chain(60, 2.0)
    pi = np.exp(tridiag.log_pi(*gen.birth_death_rates()))
    c = pi[29] / 2
    chord = [(30, 32, c / pi[29]), (32, 30, c / pi[31])]
    return build_general(60, list(gen.transitions) + chord, dict(gen.absorption))


def test_chord_minor_far_below_its_rates_is_relatively_accurate():
    # lambda0' is about 1e-18 against unit rates: the least mp.eigsy
    # eigenvalue of the minor's symmetrized -K, built from the rates in
    # 60-digit arithmetic as test_drifted_probe_lambda0_prime_is_relatively_accurate
    # builds its references, is 1.30104260747829828113e-18.  Eliminated from
    # its killed state first, as in label order, the minor is singular in
    # double; the band order ends at the killed state, and the elimination
    # keeps lambda0' to a few ulps.
    gen = rho_chain_with_chord()
    ref = 1.30104260747829828113e-18
    assert reversible_measure(gen)[0] is not None and gen.absorbing_set == (1,)
    assert lambda0_minor(gen, 1) == pytest.approx(ref, rel=1e-14, abs=0)
    for minors in (False, True):
        assert full_spectrum(gen, minors).lambda0_prime == lambda0_minor(gen, 1)


def scaled_by_power_of_two(gen, k):
    """gen with every rate times 2^k, which is exact in binary."""
    return build_general(gen.n_states,
                         [(i, j, math.ldexp(r, k)) for i, j, r in gen.transitions],
                         {i: math.ldexp(a, k) for i, a in gen.absorption})


SCALE_FAMILIES = {
    "birth-death": lambda rng: build_birth_death(*random_birth_death(rng, 30, 1e-2, 1e2)),
    "reversible": random_reversible_generator,
    "drifted": random_drifted_reversible_generator,
    "cycle-with-chords": random_cycle_with_chords,
}


def is_normal(x) -> bool:
    return np.finfo(float).tiny <= abs(x) < math.inf


def outcome(call, gen):
    try:
        return call(gen)
    except QsampError as exc:
        return exc


def scales_exactly(gen, k, calls):
    """Each call of calls (name -> (call, e)) gives the same outcome on gen
    with every rate times 2^k, scaled by exactly 2^(e k): a float or an
    array, or an error at both scales."""
    rates = [r for *_, r in gen.transitions] + [a for _, a in gen.absorption]
    assume(all(is_normal(math.ldexp(r, k)) for r in rates))
    assume(is_normal(math.ldexp(dirichlet_eigenpair(gen).lambda0, k)))
    base = {name: outcome(call, gen) for name, (call, _) in calls.items()}
    assume(all(v == 0 or is_normal(math.ldexp(v, e * k)) for name, (_, e) in calls.items()
               if isinstance(v := base[name], float)))
    big = scaled_by_power_of_two(gen, k)
    for name, (call, e) in calls.items():
        scaled = outcome(call, big)
        if isinstance(base[name], QsampError):
            assert isinstance(scaled, QsampError), name
        else:
            assert not isinstance(scaled, QsampError), (name, scaled)
            np.testing.assert_array_equal(np.ldexp(scaled, -e * k), base[name], err_msg=name)


@pytest.mark.parametrize("family", SCALE_FAMILIES)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-900, 900))
def test_lambda0_prime_at_any_power_of_two_scale(family, seed, k):
    # every lambda0' route scales by exactly 2^k, or raises at both scales
    gen = SCALE_FAMILIES[family](np.random.default_rng(seed))
    calls = {f"lambda0_minor {x}": (lambda g, x=x: lambda0_minor(g, x), 1)
             for x in gen.absorbing_set}
    calls.update({f"full_spectrum {c}": (lambda g, c=c: full_spectrum(g, c).lambda0_prime, 1)
                  for c in (False, True)})
    scales_exactly(gen, k, calls)


@pytest.mark.parametrize("family", SCALE_FAMILIES)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-900, 900))
def test_ground_pair_and_qsd_at_any_power_of_two_scale(family, seed, k):
    # lambda0 and the residual scale by exactly 2^k, phi and the QSD not at
    # all: the midpoint of the bracket commutes with the scale, where a
    # geometric one did not on the banded route.  A birth-death QSD (two
    # states of a cycle with chords are one too) is pi * phi, with pi summed
    # from log b - log d, which rounds differently at each scale
    gen = SCALE_FAMILIES[family](np.random.default_rng(seed))
    calls = {"lambda0": (lambda g: dirichlet_eigenpair(g).lambda0, 1),
             "phi": (lambda g: dirichlet_eigenpair(g).phi, 0),
             "residual": (lambda g: dirichlet_eigenpair(g).residual, 1)}
    if not gen.is_birth_death:
        calls["qsd"] = (quasi_stationary_dist, 0)
    scales_exactly(gen, k, calls)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300])
def test_birth_death_spectrum_at_any_rate_scale(scale):
    # the symmetrized off-diagonal sqrt(b_x d_{x+1}) overflowed from 1e160 on
    # (a raw scipy ValueError) and lost bits below 1e-154 (DegenerateGap at
    # 1e-200, lambda0 1.4e-3 off at 1e-160)
    b = np.array([1, 2, 0.5, 1, 3])
    d = np.array([1, 1, 2, 0.7, 1, 2])
    ref = full_spectrum(build_birth_death(b, d))
    rep = full_spectrum(build_birth_death(b * scale, d * scale))
    np.testing.assert_allclose(rep.eigenvalues / scale, ref.eigenvalues, rtol=1e-13)
    assert rep.lambda0_prime / scale == pytest.approx(ref.lambda0_prime, rel=1e-13, abs=0)
    assert spectral_bound(rep).bound == pytest.approx(spectral_bound(ref).bound, rel=1e-12, abs=0)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e160, 1e300])
def test_reversible_spectrum_at_any_rate_scale(scale):
    # the unit triangle absorbed at state 1: sqrt(K_ij K_ji) underflowed to
    # 0 below 1e-154 (spectrum [2, 2, 3] * scale, lambda0' = 2 * scale) and
    # overflowed from 1e155 on
    def triangle(s):
        edges = [(1, 2, s), (2, 1, s), (2, 3, s), (3, 2, s), (1, 3, s), (3, 1, s)]
        return build_general(3, edges, {1: s})

    ref, ref_minors = full_spectrum(triangle(1.0)), full_spectrum(triangle(1.0), True)
    np.testing.assert_allclose(ref.eigenvalues, [2 - math.sqrt(3), 3, 2 + math.sqrt(3)],
                               rtol=1e-13)
    assert ref.lambda0_prime == pytest.approx(1.0, rel=1e-13, abs=0)
    for rep, base in ((full_spectrum(triangle(scale)), ref),
                      (full_spectrum(triangle(scale), True), ref_minors)):
        np.testing.assert_allclose(rep.eigenvalues / scale, base.eigenvalues, rtol=1e-13)
        assert rep.lambda0_prime / scale == pytest.approx(base.lambda0_prime, rel=1e-13, abs=0)
    assert lambda0_minor(triangle(scale), 1) / scale == pytest.approx(1.0, rel=1e-13, abs=0)


@pytest.mark.parametrize("family", ["reversible", "drifted"])
def test_symmetrization_from_the_csr_matches_the_dense_formula(family):
    # every entry off the support is -0.0, as -sqrt(0 * 0) gives: +0.0 moves
    # eigh's Householder signs and so the last bits of the spectra
    rng = np.random.default_rng(41)
    for _ in range(20):
        gen = SCALE_FAMILIES[family](rng)
        expect = dense_sym_neg_k(gen.k_matrix())
        s = spectral._sym_neg_k(gen._csr, -gen.diagonal)
        np.testing.assert_array_equal(s, expect)
        np.testing.assert_array_equal(np.signbit(s), np.signbit(expect))


@pytest.mark.parametrize("k", [-600, 512, 900])
@pytest.mark.parametrize("family", ["birth-death", "reversible", "drifted"])
def test_reversible_spectra_scale_by_powers_of_two_exactly(family, k):
    # eigh ran on S as given, and LAPACK rescaled an S outside its safe
    # range by a factor that is not a power of two, which moved the bits
    rng = np.random.default_rng(43)
    for _ in range(4):
        gen = SCALE_FAMILIES[family](rng)
        base = outcome(lambda g: full_spectrum(g, True), gen)
        scaled = outcome(lambda g: full_spectrum(g, True), scaled_by_power_of_two(gen, k))
        if isinstance(base, QsampError):
            assert type(scaled) is type(base)
            continue
        np.testing.assert_array_equal(scaled.eigenvalues, np.ldexp(base.eigenvalues, k))
        for x, vals in base.minor_spectra.items():
            np.testing.assert_array_equal(scaled.minor_spectra[x], np.ldexp(vals, k))


@pytest.mark.parametrize("call, message", [
    (lambda: amplitude(["a"]), "^amplitude needs a vector of finite numbers$"),
    (lambda: amplitude([[1.0], [1.0, 2.0]]), "^amplitude needs a vector of finite numbers$"),
    (lambda: amplitude([1.0, math.nan]), "^amplitude needs a vector of finite numbers$"),
], ids=["amplitude-string", "amplitude-ragged", "amplitude-nan"])
def test_public_input_checks(call, message):
    with pytest.raises(InvalidParameter, match=message):
        call()


def test_unknown_normalization_rejected(golden):
    with pytest.raises(InvalidParameter, match="^normalization must be one of"):
        dirichlet_eigenpair(golden, normalization="sum")


def test_spectrum_report_lambda0_is_its_first_eigenvalue(golden):
    report = full_spectrum(golden)
    assert type(report.lambda0) is float
    assert report.lambda0 == report.eigenvalues[0]
    # -K = [[2, -1], [-1, 1]] has eigenvalues (3 -+ sqrt 5) / 2
    assert report.lambda0 == pytest.approx((3 - math.sqrt(5)) / 2, rel=1e-14, abs=0)
