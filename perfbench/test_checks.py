"""The benchmark's checks must pass on qsamp's answers and fail on wrong ones.

    python3 -m pytest perfbench/test_checks.py -q

Each test runs one small op through qsamp, confirms that every check passes,
then perturbs one output (a phi component, lambda0 by 1e-6 relative, a bound
scaled below the amplitude, ...) and confirms the matching check fails.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks as ck  # noqa: E402
from tracing import make_api  # noqa: E402
from workloads import (  # noqa: E402
    BDChains, GeneralChains, MCRatio, Op, Outputs, Truncation, criterion05_chain,
    cycle_params, grid_params, log_uniform, rho_params, stratified, stratified_pick,
)

API = make_api()


def analysed(workload, op):
    prep = workload.prepare(op)
    out = workload.run(API, op, prep)
    assert not out.errors
    return prep, out


def altered(out, **stages):
    """A copy of the stage outputs with some of them replaced."""
    new = Outputs()
    new.update(out)
    new.update(stages)
    return new


def assert_all_pass(checks):
    assert checks and all(checks.values()), checks


def perturbed_phi(pair, rel=1e-6):
    phi = pair.phi.copy()
    phi[len(phi) // 2] *= 1.0 + rel
    return replace(pair, phi=phi)


def scaled_lambda0(pair, rel=1e-6):
    return replace(pair, lambda0=pair.lambda0 * (1.0 + rel))


# -- reference computations ------------------------------------------------------


def test_z_critical_single_test_is_four_sigma():
    assert ck.z_critical(1) == pytest.approx(4.0, abs=1e-9)
    assert ck.z_critical(40) > ck.z_critical(2) > 4.0


def test_green_bracket_contains_lambda0_and_is_tight_on_the_eigenvector():
    rng = np.random.default_rng(5)
    b, d = log_uniform(rng, 0.1, 10.0, 29), log_uniform(rng, 0.1, 10.0, 30)
    k = ck.dense_k(30, [(x, x + 1, b[x - 1]) for x in range(1, 30)]
                   + [(x, x - 1, d[x - 1]) for x in range(2, 31)], {1: d[0]})
    ref = ck.eig_reference(k)
    lo, hi = ck.green_bracket(b, d, rng.uniform(0.5, 2.0, 30))
    assert lo <= ref.lambda0 <= hi
    lo, hi = ck.green_bracket(b, d, ref.phi)
    assert hi - lo <= 1e-8 * ref.lambda0


def test_hitting_moment_reproduces_the_eigenvector_ratio():
    p = rho_params(8, 1.1)
    k = ck.dense_k(p["n"], p["transitions"], p["absorption"])
    ref = ck.eig_reference(k)
    u = ck.hitting_moment(k, 6, ref.lambda0)
    assert np.allclose(u, ref.phi / ref.phi[5], rtol=1e-10)


# -- bd-chains ------------------------------------------------------------------------


@pytest.fixture(scope="module", params=["rho", "random", "panel"])
def bd_case(request):
    wl = BDChains()
    if request.param == "rho":
        op = Op("rho", {"n": 24})
    elif request.param == "random":
        rng = np.random.default_rng(11)
        op = Op("random", {"b": log_uniform(rng, 0.1, 10.0, 39), "d": log_uniform(rng, 0.1, 10.0, 40)})
    else:
        b, d = criterion05_chain(47)
        op = Op("panel", {"b": b, "d": d})
    prep = wl.prepare(op)
    out = wl.run(API, op, prep)
    return wl, op, prep, out


def test_bd_checks_pass_except_the_known_fault(bd_case):
    wl, op, prep, out = bd_case
    checks = wl.check(op, prep, out)
    if op.kind == "panel":
        # criterion-05 chain 47 carries the known fault: full_spectrum's
        # lambda0 is only absolutely accurate, and spectral_bound raises
        # DegenerateGap there today
        assert set(out.errors) <= {"spectral_bound"}
        checks.pop("spectral_bound>=amplitude")
    assert_all_pass(checks)


def test_bd_perturbed_phi_fails(bd_case):
    wl, op, prep, out = bd_case
    out = altered(out, dirichlet_eigenpair=perturbed_phi(out["dirichlet_eigenpair"]))
    assert wl.check(op, prep, out)["eigen_residual"] is False


def test_bd_lambda0_off_by_1e6_fails(bd_case):
    wl, op, prep, out = bd_case
    if op.kind == "random":
        pytest.skip("lambda0 of random chains is left unchecked")
    out = altered(out, dirichlet_eigenpair=scaled_lambda0(out["dirichlet_eigenpair"]))
    checks = wl.check(op, prep, out)
    assert checks["lambda0_in_green_bracket"] is False
    if op.kind == "rho":
        assert checks["rho1_lambda0_closed_form"] is False


def test_green_bracket_on_a_nearly_flat_chain_with_tiny_lambda0():
    # chain 8344 drawn like criterion 05 from default_rng(123), n = 117: its
    # ground vector is nearly flat, and mp bisection gives lambda0 =
    # 1.2298640e-37; the double-precision route returned 2.9e-31 here
    rng = np.random.default_rng(123)
    for _ in range(8345):
        n = int(rng.integers(2, 201))
        b, d = log_uniform(rng, 0.1, 10.0, n - 1), log_uniform(rng, 0.1, 10.0, n)
    pair = API.dirichlet_eigenpair(API.build_birth_death(b, d))
    lo, hi = ck.green_bracket(b, d, pair.phi)
    assert lo == pytest.approx(1.2298640e-37, rel=1e-6)
    assert hi == pytest.approx(1.2298640e-37, rel=1e-6)


def test_bd_amplitude_off_exact_identity_fails(bd_case):
    wl, op, prep, out = bd_case
    out = altered(out, amplitude=out["amplitude"] * (1.0 + 1e-6))
    assert wl.check(op, prep, out)["amplitude==exact_bd_amplitude"] is False


def test_bd_bound_below_amplitude_fails(bd_case):
    wl, op, prep, out = bd_case
    out = altered(out, path_bound=replace(out["path_bound"], bound=out["amplitude"] * 0.999))
    assert wl.check(op, prep, out)["path_bound>=amplitude"] is False


# -- general-chains ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=["grid", "cycle"])
def general_case(request):
    wl = GeneralChains()
    if request.param == "grid":
        op = Op("grid", grid_params(5, 6, corner=30))
    else:
        op = Op("cycle", cycle_params(np.random.default_rng(2), 25, 2))
    prep, out = analysed(wl, op)
    return wl, op, prep, out


def test_general_checks_pass(general_case):
    wl, op, prep, out = general_case
    assert_all_pass(wl.check(op, prep, out))


def _nudged(vec, rel):
    vec = vec.copy()
    vec[0] *= 1.0 + rel
    return vec


@pytest.mark.parametrize("change, check", [
    (lambda o: {"dirichlet_eigenpair": perturbed_phi(o["dirichlet_eigenpair"])}, "phi==oracle"),
    (lambda o: {"dirichlet_eigenpair": scaled_lambda0(o["dirichlet_eigenpair"])}, "lambda0==oracle"),
    (lambda o: {"quasi_stationary_dist": _nudged(o["quasi_stationary_dist"], 1e-5)}, "nu==oracle"),
    (lambda o: {"path_bound": replace(o["path_bound"], bound=0.999 * o["amplitude"])},
     "path_bound>=amplitude"),
])
def test_general_wrong_answers_fail(general_case, change, check):
    wl, op, prep, out = general_case
    assert wl.check(op, prep, altered(out, **change(out)))[check] is False


def test_grid_spectral_and_graph_bounds_below_amplitude_fail(general_case):
    wl, op, prep, out = general_case
    if op.kind != "grid":
        pytest.skip("bounds of reversible unit walks only")
    amp = out["amplitude"]
    out = altered(out, spectral_bound=replace(out["spectral_bound"], bound=0.999 * amp),
                  graph_bound=0.999 * amp, graph_parameters=(4, 1, 1.0, 1.0))
    checks = wl.check(op, prep, out)
    assert checks["spectral_bound>=amplitude"] is False
    assert checks["graph_bound>=amplitude"] is False
    assert checks["graph_parameters"] is False


# -- mc-ratio ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mc_case():
    wl = MCRatio()
    op = Op("rho", rho_params(10, 1.05))
    op.params.update(seed=7, z=ck.z_critical(2), n_ratio=4096, n_abs=2048)
    prep, out = analysed(wl, op)
    return wl, op, prep, out


def test_mc_checks_pass(mc_case):
    wl, op, prep, out = mc_case
    assert_all_pass(wl.check(op, prep, out))


def test_mc_ratio_off_by_five_standard_errors_fails(mc_case):
    wl, op, prep, out = mc_case
    shift = (op.params["z"] + 1.0) * prep["ratio_se"]
    out = altered(out, estimate_ratio=replace(out["estimate_ratio"], mean=prep["ratio"] + shift))
    assert wl.check(op, prep, out)["mc_ratio_within_z_se"] is False


def test_mc_absorption_times_of_the_wrong_law_fail(mc_case):
    wl, op, prep, out = mc_case
    out = altered(out, absorption_times=out["absorption_times"] * 1.2)
    assert wl.check(op, prep, out)["qsd_absorption_law"] is False


def test_mc_sandwich_rows_off_expm_fail(mc_case):
    wl, op, prep, out = mc_case
    rows = list(out["sandwich_experiment"])
    rows[1] = replace(rows[1], dist_conditioned=rows[1].dist_conditioned * (1 + 1e-4))
    rows[2] = replace(rows[2], upper=rows[2].dist_conditioned * 0.5)
    out = altered(out, sandwich_experiment=rows)
    checks = wl.check(op, prep, out)
    assert checks["sandwich==expm"] is False
    assert checks["sandwich_flanks"] is False


# -- truncation ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def truncation_case():
    wl = Truncation()
    op = wl.warmup_op()
    prep, out = analysed(wl, op)
    return wl, op, prep, out


def test_truncation_checks_pass(truncation_case):
    wl, op, prep, out = truncation_case
    assert_all_pass(wl.check(op, prep, out))


def test_truncation_lambda0_off_by_1e6_fails(truncation_case):
    wl, op, prep, out = truncation_case
    series = out["eigen_convergence"]
    table = series.lambda_table.copy()
    table[-1, 0] *= 1.0 + 1e-6
    out = altered(out, eigen_convergence=replace(series, lambda_table=table))
    assert wl.check(op, prep, out)["lambda0_in_green_bracket"] is False


def test_truncation_wrong_tables_verdicts_and_bound_fail(truncation_case):
    wl, op, prep, out = truncation_case
    series = out["eigen_convergence"]
    table = series.lambda_table.copy()
    table[-1, 2] = table[0, 2] * 1.01
    out = altered(
        out,
        eigen_convergence=replace(series, lambda_table=table),
        entrance_control=replace(out["entrance_control"], s_series_converges="yes"),
        entrance_check=replace(out["entrance_check"], s_series_converges="inconclusive"),
        gap_identity_check=[1e-6],
        theorem_bound=replace(out["theorem_bound"], bound=0.999 * max(series.amplitudes())),
    )
    checks = wl.check(op, prep, out)
    for name in ("tables_monotone", "poisson_control_fails_s", "entrance_verdict",
                 "gap_identity<=1e-8", "theorem_bound>=amplitudes"):
        assert checks[name] is False, name


def test_missing_stage_output_is_reported_as_skipped(truncation_case):
    wl, op, prep, out = truncation_case
    out = altered({k: v for k, v in out.items() if k != "theorem_bound"})
    assert wl.check(op, prep, out)["theorem_bound>=amplitudes"] is None


# -- input lists ------------------------------------------------------------------------


def test_rounds_have_the_same_make_up_for_every_seed():
    wl = BDChains()
    for seed in (1, 2):
        ops = wl.make_ops(seed, 4)
        assert [op.kind for op in ops] == ["panel", "random", "random", "random", "rho"] * 4
        rho_sizes = [op.params["n"] for op in ops if op.kind == "rho"]
        assert len(set(rho_sizes)) == len(rho_sizes)


def test_stratified_draws_one_value_per_slice():
    rng = np.random.default_rng(0)
    values = np.sort(stratified(rng, 2.0, 4.0, 8))
    assert np.all((values >= 2.0 + 0.25 * np.arange(8)) & (values < 2.25 + 0.25 * np.arange(8)))
    picks = stratified_pick(rng, list(range(100)), 10)
    assert sorted(p // 10 for p in picks) == list(range(10))
