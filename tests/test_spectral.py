import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import eigh, eigvalsh_tridiagonal
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from qsamp import (
    InvalidParameter,
    NoConvergence,
    NonPositiveInput,
    NotDiagonalizableDetected,
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
from qsamp import spectral, tridiag
from conftest import (
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
        rng = np.random.default_rng(15)
        walk = [(a + 1, b + 1) for a, b in lattice_edges(5, 6)]
        walk += [(b, a) for a, b in walk]
        gens = [reversible_dumbbell(rng), build_graph_walk(walk, [1, 30])]

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigvals called on reversible input")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for gen in gens:
            rep = full_spectrum(gen, compute_minors=True)
            assert rep.reversible_measure is not None
            assert len(rep.minor_spectra) == gen.n_states
            for x in gen.absorbing_set:
                lambda0_minor(gen, x)

    def test_complex_spectrum_detected(self):
        # strong one-directional drift on a 3-cycle has complex eigenvalues
        gen = build_general(
            3,
            [(1, 2, 5.0), (2, 3, 5.0), (3, 1, 5.0),
             (2, 1, 0.01), (3, 2, 0.01), (1, 3, 0.01)],
            {1: 1.0},
        )
        with pytest.raises(NotDiagonalizableDetected):
            full_spectrum(gen)


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
        # every chain that is not birth-death takes its pair from one LU, and
        # its QSD's transposed steps run on that same factorization
        assert calls.count("lu_factor") == (route != "birth-death")
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
        assert calls == ["_perron_pair^T", "lu_factor"]


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
    """Spy on the ground solvers, reversible_measure, lu_factor and eigh.

    Returns the list of names called, with _perron_pair(-k, 1, ...), the
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
                         (spectral, "reversible_measure"), (spectral, "lu_factor"),
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

    def test_birth_death_minor_from_lapack_above_its_error_bound(self):
        # the Green pair raises here too, and LAPACK's value is kept
        gen = build_rho_chain(1100, 0.25)
        b, d = gen.birth_death_rates()
        with pytest.raises(NoConvergence):
            tridiag.ground_pair(b[1:], d[1:])
        main, off = tridiag.sym_tridiag(b[1:], d[1:])
        ref = eigvalsh_tridiagonal(main, off, select="i", select_range=(0, 0))[0]
        assert lambda0_minor(gen, 1) == ref
        assert 0.25 < ref < 0.2500041

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
            # minors may split into components, each with its own root
            sub_eta, _ = spectral._csr_measure(csr_matrix(sub - np.diag(np.diag(sub))))
            np.testing.assert_allclose(sub_eta, dense_bfs_eta(sub), rtol=1e-12, atol=0)
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
def test_minor_reversible_on_restricted_triplets(label, monkeypatch):
    # 1 <-> 2 <-> 3 -> 4 -> 1 is non-reversible with a real spectrum; without
    # state 4 it leaves the reversible path 1 <-> 2 <-> 3.  The second
    # labelling puts that state in the middle, so the minor is renumbered.
    edges = [(1, 2, 1), (2, 1, 1), (2, 3, 1), (3, 2, 1), (3, 4, 0.5), (4, 1, 0.5)]
    gen = build_general(4, [(label[i - 1], label[j - 1], r) for i, j, r in edges], {1: 1})
    k = gen.k_matrix()
    x = label[3]
    sub = spectral._drop_state(k, x)
    seen = []
    real_eigvals = np.linalg.eigvals

    def recording(a):
        seen.append(np.array(a))
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    rep = full_spectrum(gen, compute_minors=True)
    assert rep.reversible_measure is None
    assert not any(a.shape == sub.shape and np.array_equal(a, -sub) for a in seen)
    expect = eigh(dense_sym_neg_k(sub), eigvals_only=True)
    np.testing.assert_array_equal(rep.minor_spectra[x], expect)


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
    assert full_spectrum(gen).lambda0_prime == pytest.approx(expect, rel=1e-9, abs=0)


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
    rep = full_spectrum(gen, compute_minors=True)
    assert rep.lambda0_prime == pytest.approx(vals[0], rel=1e-9, abs=0)


@pytest.mark.parametrize("gen", [
    build_rho_chain(12, 0.8),
    hub_and_pairs(1.0, 1e-3, 1e-2, 1.01),
    build_general(3, [(1, 2, 1.0), (2, 1, 2.0), (2, 3, 1.0), (3, 2, 1.0)], {1: 1.0, 3: 0.5}),
    build_rho_chain(60, 2.0),
], ids=["birth-death", "non-reversible", "reversible", "birth-death-far-below"])
def test_lambda0_prime_does_not_depend_on_minor_spectra(gen):
    # minor spectra are for display; lambda0' has one route
    rep = full_spectrum(gen, compute_minors=True)
    assert len(rep.minor_spectra) == gen.n_states
    assert rep.lambda0_prime == full_spectrum(gen).lambda0_prime
    assert rep.lambda0_prime == min(lambda0_minor(gen, x) for x in gen.absorbing_set)


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


@pytest.mark.parametrize("gen, x", [
    (build_birth_death([1, 1, 1e-18, 1], [1e-18, 1, 1, 1, 1]), 4),
    (rho_chain_with_chord(), 1),
], ids=["birth-death-lower-block", "reversible-chord"])
def test_lapack_lambda0_below_its_error_bound_raises(gen, x):
    # lambda0' is about 1e-18 against unit rates, below LAPACK's absolute
    # error bound: the lower block's bisection gave -4.4e-17, and the chord
    # chain's eigh (1.3e-18 in 60-digit arithmetic) from 8e-18 to 8e-16,
    # depending on the LAPACK build
    assert reversible_measure(gen)[0] is not None
    with pytest.raises(NoConvergence):
        lambda0_minor(gen, x)
    if gen.absorbing_set == (x,):
        for minors in (False, True):
            with pytest.raises(NoConvergence):
                full_spectrum(gen, minors)


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


@pytest.mark.parametrize("family", SCALE_FAMILIES)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-900, 900))
def test_lambda0_prime_at_any_power_of_two_scale(family, seed, k):
    # every lambda0' route scales by 2^k, or raises at both scales
    gen = SCALE_FAMILIES[family](np.random.default_rng(seed))
    rates = [r for *_, r in gen.transitions] + [a for _, a in gen.absorption]
    assume(all(is_normal(math.ldexp(r, k)) for r in rates))
    assume(is_normal(math.ldexp(dirichlet_eigenpair(gen).lambda0, k)))
    calls = {f"lambda0_minor {x}": lambda g, x=x: lambda0_minor(g, x) for x in gen.absorbing_set}
    calls.update({f"full_spectrum {c}": lambda g, c=c: full_spectrum(g, c).lambda0_prime
                  for c in (False, True)})
    base = {name: outcome(call, gen) for name, call in calls.items()}
    assume(all(is_normal(math.ldexp(v, k)) for v in base.values() if isinstance(v, float)))
    big = scaled_by_power_of_two(gen, k)
    for name, call in calls.items():
        scaled = outcome(call, big)
        if isinstance(base[name], QsampError):
            assert isinstance(scaled, QsampError), name
        else:
            assert not isinstance(scaled, QsampError), (name, scaled)
            assert math.ldexp(scaled, -k) == pytest.approx(base[name], rel=1e-12, abs=0), name


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
