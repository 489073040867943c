"""Command-line interface.

Subcommands: validate, spectrum, bounds, simulate, sandwich, bd
(entrance/converge/bound) and reproduce.  Every run emits a machine-readable
result (JSON or CSV) that echoes the exact configuration, so identical
invocations produce byte-identical output.

Exit codes: 0 success, 1 usage error, 2 invalid input or numerical
failure, 3 reproduction-tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bd_infinite, bounds, simulate, spectral
from .errors import InvalidParameter, QsampError, UnknownCase
from .generators import build_general, build_rho_chain, load_generator

GOLDEN = (1 + math.sqrt(5)) / 2

REPRODUCE_CASES = (
    "rho1-amplitude",
    "rho-gt1-amplitude",
    "rho-gt1-lambda0",
    "golden-ratio",
    "sandwich-demo",
    "bd-poisson",
    "bd-accelerated",
)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _emit(payload, args) -> None:
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_echo(args) -> dict:
    skip = {"func", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


# -- commands -----------------------------------------------------------------


def cmd_validate(args):
    try:
        gen = load_generator(args.input)
    except QsampError as exc:
        sys.stderr.write(f"INVALID: {type(exc).__name__}: {exc}\n")
        return 2, None
    row_sums = np.asarray(gen._csr.sum(axis=1)).ravel() + gen.diagonal + gen.absorption_rates
    report = {
        "config": _config_echo(args),
        "valid": True,
        "n_states": gen.n_states,
        "n_transitions": gen._csr.nnz,
        "absorbing_states": list(gen.absorbing_set),
        "max_abs_row_sum": float(np.abs(row_sums).max()),
        "irreducible": True,
        "birth_death": gen.is_birth_death,
    }
    return 0, report


def cmd_spectrum(args):
    gen = load_generator(args.input)
    pair = spectral.dirichlet_eigenpair(gen)
    nu = spectral.quasi_stationary_dist(gen)
    out = {
        "config": _config_echo(args),
        "lambda0": pair.lambda0,
        "phi": pair.phi,
        "amplitude": spectral.amplitude(pair),
        "nu": nu,
        "residual": pair.residual,
    }
    if args.full or args.minors:
        report = spectral.full_spectrum(gen, compute_minors=args.minors)
        out["eigenvalues"] = report.eigenvalues
        out["lambda0_prime"] = report.lambda0_prime
        out["reversible"] = report.reversible_measure is not None
        if args.minors and report.minor_spectra is not None:
            out["minor_spectra"] = {str(x): v for x, v in report.minor_spectra.items()}
    return 0, out


def cmd_bounds(args):
    gen = load_generator(args.input)
    pair = spectral.dirichlet_eigenpair(gen)
    amp = spectral.amplitude(pair)
    out = {"config": _config_echo(args), "amplitude": amp, "lambda0": pair.lambda0}
    if args.method == "path":
        rep = bounds.path_bound(gen, pair.lambda0, paths=args.paths)
        out["bound"] = rep.bound
        out["rough_bound"] = rep.rough_bound
        out["paths"] = {f"{y}->{x}": list(c.path) for (y, x), c in sorted(rep.pairs.items())}
    elif args.method == "spectral":
        rep = bounds.spectral_bound(spectral.full_spectrum(gen))
        out["bound"] = rep.bound
        out["factors"] = list(rep.factors)
    elif args.method == "graph":
        d, diam, r, big_r = bounds.graph_parameters(gen)
        out["bound"] = bounds.graph_bound(d, diam, r, big_r)
        out["certificate"] = {"d": d, "D": diam, "r": r, "R": big_r}
    else:  # exact-bd
        out["bound"] = bounds.exact_bd_amplitude(gen)
    return 0, out


def cmd_simulate(args):
    gen = load_generator(args.input)
    pair = spectral.dirichlet_eigenpair(gen)
    est = simulate.estimate_ratio(
        gen, pair.lambda0, args.from_state, args.to_state, args.samples, args.seed
    )
    expected = pair.phi[args.from_state - 1] / pair.phi[args.to_state - 1]
    return 0, {
        "config": _config_echo(args),
        "mean": est.mean,
        "std_error": est.std_error,
        "n_samples": est.n_samples,
        "seed": est.seed,
        "phi_ratio": float(expected),
        "deviation_sigmas": float((est.mean - expected) / est.std_error)
        if est.std_error > 0 else 0.0,
    }


def _numbers(spec: str, flag: str) -> list:
    try:
        return [float(v) for v in spec.split(",")]
    except ValueError:
        raise InvalidParameter(f"{flag} {spec}: not a comma-separated list of numbers") from None


def _parse_mu0(spec: str, gen) -> np.ndarray:
    n = gen.n_states
    if spec == "uniform":
        return np.full(n, 1.0 / n)
    if spec == "qsd":
        return spectral.quasi_stationary_dist(gen)
    if spec.startswith("delta:"):
        x = spec[len("delta:"):]
        x = int(x) if x.isdecimal() else 0
        if not 1 <= x <= n:
            raise InvalidParameter(f"--mu0 {spec}: delta takes a state in 1..{n}")
        out = np.zeros(n)
        out[x - 1] = 1.0
        return out
    vals = np.array(_numbers(spec, "--mu0"))
    if not (np.all(vals >= 0) and 0 < vals.sum() < math.inf):
        raise InvalidParameter(f"--mu0 {spec}: weights must be nonnegative with a finite positive sum")
    return vals / vals.sum()


def cmd_sandwich(args):
    gen = load_generator(args.input)
    mu0 = _parse_mu0(args.mu0, gen)
    times = _numbers(args.times, "--times")
    rows = simulate.sandwich_experiment(gen, mu0, times)
    if (args.format or "csv") == "json":
        return 0, {
            "config": _config_echo(args),
            "rows": [vars(r) for r in rows],
        }
    lines = ["t,dist_conditioned,dist_doob,lower,upper"]
    for r in rows:
        lines.append(
            f"{r.t!r},{r.dist_conditioned!r},{r.dist_doob!r},{r.lower!r},{r.upper!r}"
        )
    return 0, "\n".join(lines) + "\n"


def cmd_bd(args):
    family = bd_infinite.parse_rate_family(args.rates)
    if args.bd_command == "entrance":
        verdict = bd_infinite.entrance_check(family, args.cutoff)
        return 0, {
            "config": _config_echo(args),
            "r_series_diverges": verdict.r_series_diverges,
            "s_series_converges": verdict.s_series_converges,
            "entrance_boundary": verdict.is_entrance_boundary,
            "z_partial": verdict.z_partial,
            "r_partial_sums_tail": verdict.r_partial_sums[-5:],
            "s_partial_sums_tail": verdict.s_partial_sums[-5:],
            "diagnostics": verdict.diagnostics,
        }
    schedule = [2 ** k for k in range(6, args.max_log2 + 1)]
    series = bd_infinite.eigen_convergence(family, args.nmax, schedule, args.tol)
    if args.bd_command == "converge":
        return 0, {
            "config": _config_echo(args),
            "ns": list(series.ns),
            "lambda_table": series.lambda_table,
            "lambda0_prime_table": series.lambda0_prime_table,
            "limits": series.limits,
            "lambda0_prime_limit": series.lambda0_prime_limit,
            "monotone": series.lambda_monotone and series.lambda0_prime_monotone,
            "amplitudes": series.amplitudes(),
        }
    # bd bound
    if args.tail_bound is not None:
        tail, certified = args.tail_bound, True
    else:
        tail = bd_infinite.tail_sum_estimate(family, args.tail_estimate_at, args.nmax)
        certified = False
    rep = bd_infinite.theorem_bound(series, tail_bound=tail, tail_certified=certified)
    return 0, {
        "config": _config_echo(args),
        "bound": rep.bound,
        "lambda0": rep.lambda0,
        "lambda0_prime": rep.lambda0_prime,
        "base_factors": list(rep.base_factors),
        "tail_bound": rep.tail_bound,
        "tail_factor": rep.tail_factor,
        "tail_certified": rep.tail_certified,
        "log_concavity_c": rep.log_concavity_c,
        "truncation_amplitudes": series.amplitudes(),
    }


# -- reproduction suite --------------------------------------------------------


def _check(name, computed, expected, tol):
    err = abs(computed - expected)
    return _verdict(name, float(computed), float(expected), err <= tol, float(tol), float(err))


def _verdict(name, computed, expected, passed, tolerance=0, abs_error=0):
    """A check row whose pass is decided by the caller; the fields keep
    their JSON types (a verdict of strings reports tolerance 0, not 0.0)."""
    return {
        "check": name,
        "computed": computed,
        "expected": expected,
        "tolerance": tolerance,
        "abs_error": abs_error,
        "pass": bool(passed),
    }


def _golden_generator():
    return build_general(2, [(1, 2, 1.0), (2, 1, 1.0)], {1: 1.0})


def reproduce(case_id: str) -> dict:
    """Recompute a named example and compare against its expected values."""
    checks = []
    if case_id == "golden-ratio":
        gen = _golden_generator()
        pair = spectral.dirichlet_eigenpair(gen)
        amp = spectral.amplitude(pair)
        checks.append(_check("amplitude", amp, GOLDEN, 1e-12))
        pb = bounds.path_bound(gen, pair.lambda0)
        checks.append(_check("path_bound", pb.bound, GOLDEN, 1e-12))
        sb = bounds.spectral_bound(spectral.full_spectrum(gen))
        checks.append(_check("spectral_bound", sb.bound, 1 + 2 / math.sqrt(5), 1e-9))
    elif case_id == "rho1-amplitude":
        gen = build_rho_chain(100, 1.0)
        amp = spectral.amplitude(spectral.dirichlet_eigenpair(gen))
        checks.append(_check("amplitude*pi/(2N)", amp * math.pi / 200.0, 1.0, 1e-3))
    elif case_id == "rho-gt1-amplitude":
        gen = build_rho_chain(30, 2.0)
        amp = spectral.amplitude(spectral.dirichlet_eigenpair(gen))
        checks.append(_check("amplitude", amp, 2.0, 1e-6))
    elif case_id == "rho-gt1-lambda0":
        ratios = {}
        for n in (30, 60):
            lam0 = spectral.dirichlet_eigenpair(build_rho_chain(n, 2.0)).lambda0
            ratios[n] = lam0 / (0.5 * 3.0 * 2.0 ** (-(n + 1)))
        checks.append(_check("lambda0_ratio_N30", ratios[30], 1.0, 0.1))
        moved, before = abs(ratios[60] - 1.0), abs(ratios[30] - 1.0)
        checks.append(_verdict("ratio_moves_toward_1", float(moved), float(before),
                               moved <= before, 0.0, 0.0))
    elif case_id == "sandwich-demo":
        for label, gen in (("golden", _golden_generator()), ("rho1-N10", build_rho_chain(10, 1.0))):
            mu0 = np.zeros(gen.n_states)
            mu0[-1] = 1.0
            rows = simulate.sandwich_experiment(gen, mu0, [0.1, 1.0, 5.0, 20.0])
            slack = min(
                min(r.dist_conditioned - r.lower, r.upper - r.dist_conditioned)
                for r in rows
            )
            checks.append(_verdict(f"sandwich_slack_{label}", float(slack), 0.0,
                                   slack >= -1e-9, 1e-9, float(max(0.0, -slack))))
    elif case_id == "bd-poisson":
        verdict = bd_infinite.entrance_check(bd_infinite.poisson_family(), 20000)
        checks.append(_verdict("condition_S_fails", verdict.s_series_converges, "no",
                               verdict.s_series_converges == "no"))
        checks.append(_verdict("condition_R_holds", verdict.r_series_diverges, "yes",
                               verdict.r_series_diverges == "yes"))
    elif case_id == "bd-accelerated":
        family = bd_infinite.accelerated_poisson_family()
        verdict = bd_infinite.entrance_check(family, 20000)
        checks.append(_verdict("entrance_boundary", str(verdict.is_entrance_boundary), "True",
                               verdict.is_entrance_boundary is True))
        schedule = [2 ** k for k in range(6, 13)]
        series = bd_infinite.eigen_convergence(family, 6, schedule, 1e-8)
        monotone = series.lambda_monotone and series.lambda0_prime_monotone
        checks.append(_verdict("tables_monotone", str(monotone), "True", monotone))
        resid = bd_infinite.gap_identity_check(family, 1024)
        checks.append(_check("gap_identity_residual", resid, 0.0, 1e-8))
        tail = bd_infinite.tail_sum_estimate(family, 4096, 6)
        rep = bd_infinite.theorem_bound(series, tail_bound=tail)
        amps = series.amplitudes()
        checks.append(_verdict("bound_dominates_amplitudes", float(rep.bound), float(amps.max()),
                               np.isfinite(rep.bound) and np.all(amps <= rep.bound)))
    else:
        raise UnknownCase(f"case {case_id!r}; known: {', '.join(REPRODUCE_CASES)}")
    return {
        "case": case_id,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }


def cmd_reproduce(args):
    result = reproduce(args.case)
    result["config"] = _config_echo(args)
    return (0 if result["all_pass"] else 3), result


# -- parser --------------------------------------------------------------------


def _add_global_flags(parser, top_level: bool) -> None:
    # real defaults live on the top-level parser; the copies on each
    # subcommand use SUPPRESS so they only override when given explicitly
    kw = {} if top_level else {"default": argparse.SUPPRESS}
    parser.add_argument("--seed", type=int, **({"default": 0} if top_level else kw))
    # kept for old command lines and echoed in the config; has no effect
    parser.add_argument("--threads", type=int, **({"default": 1} if top_level else kw))
    parser.add_argument("--format", choices=("json", "csv"),
                        **({"default": None} if top_level else kw))
    parser.add_argument("--out", **({"default": None} if top_level else kw))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsamp",
        description="Dirichlet eigenpairs and amplitude bounds for absorbing Markov chains",
    )
    _add_global_flags(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a generator JSON file")
    p.add_argument("--input", required=True)
    _add_global_flags(p, top_level=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("spectrum", help="eigenpair, amplitude, QSD, spectrum")
    p.add_argument("--input", required=True)
    p.add_argument("--full", action="store_true")
    p.add_argument("--minors", action="store_true")
    _add_global_flags(p, top_level=False)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bounds", help="amplitude bounds")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=("path", "spectral", "graph", "exact-bd"),
                   required=True)
    p.add_argument("--paths", choices=("best", "geodesic"), default="best")
    _add_global_flags(p, top_level=False)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="Monte Carlo eigenvector-ratio estimate")
    p.add_argument("--input", required=True)
    p.add_argument("--from", dest="from_state", type=int, required=True)
    p.add_argument("--to", dest="to_state", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    _add_global_flags(p, top_level=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sandwich", help="conditioned vs Doob-transform distances")
    p.add_argument("--input", required=True)
    p.add_argument("--mu0", required=True,
                   help="'uniform', 'qsd', 'delta:K', or comma-separated weights")
    p.add_argument("--times", required=True, help="comma-separated times")
    _add_global_flags(p, top_level=False)
    p.set_defaults(func=cmd_sandwich)

    p = sub.add_parser("bd", help="denumerable birth-death pipeline")
    bd_sub = p.add_subparsers(dest="bd_command", required=True)
    for name in ("entrance", "converge", "bound"):
        q = bd_sub.add_parser(name)
        q.add_argument("--rates", required=True,
                       help="poisson | poisson-accelerated | rho:R | expression file")
        if name == "entrance":
            q.add_argument("--cutoff", type=int, default=20000)
        else:
            q.add_argument("--nmax", type=int, default=6)
            q.add_argument("--tol", type=float, default=1e-8)
            q.add_argument("--max-log2", type=int, default=12,
                           help="schedule runs over 2^6..2^max_log2")
        if name == "bound":
            q.add_argument("--tail-bound", type=float, default=None,
                           help="certified bound on sum_{n>nmax} 1/lambda_n")
            q.add_argument("--tail-estimate-at", type=int, default=4096,
                           help="truncation used to estimate the tail when no bound is given")
        _add_global_flags(q, top_level=False)
        q.set_defaults(func=cmd_bd)

    p = sub.add_parser("reproduce", help="recompute a named example")
    p.add_argument("case", choices=REPRODUCE_CASES)
    _add_global_flags(p, top_level=False)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        code, payload = args.func(args)
    except UnknownCase as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except QsampError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    if payload is not None:
        _emit(payload, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
