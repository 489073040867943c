"""Chains analysed per second: a closed-loop benchmark of qsamp.

    python3 perfbench/run.py --workload bd-chains --seed 1 --seconds 18 --trace 0

Run from the repository root.  One client in one process analyses a fixed,
seeded list of chains, one op after another, and checks every output
outside the timed span.  The last line of standard output is a JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The line before it
tallies every check and gives the unscaled wall-clock figures.  Results and
span dumps go to perfbench/out/.

Times in setup_s, ops_per_s and op_p50_ms are scaled to the machine's
nominal speed by a fixed reference probe, timed right after set-up and
before and after each op: the shared machine's speed drifts by 10-35%
between runs, and the probe follows it.
"""

import os
import sys
import time

START = time.perf_counter()
# one BLAS thread: OpenBLAS would otherwise start threads competing for the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("bd-chains", "general-chains", "mc-ratio", "truncation")
#: fresh processes that repeat the set-up; setup_s is the median with our own
SETUP_REPEATS = 2
CHILD_TIMEOUT_S = 150
#: nominal seconds of one reference_probe() on the reference machine
PROBE_NOMINAL_S = 0.008

#: per-layer metric -> prefix of the span names it sums (mean ms per op)
SPAN_METRICS = {
    "generators.build_ms": "generators.",
    "spectral.dirichlet_eigenpair_ms": "spectral.dirichlet_eigenpair",
    "spectral.quasi_stationary_dist_ms": "spectral.quasi_stationary_dist",
    "spectral.full_spectrum_ms": "spectral.full_spectrum",
    "bounds.path_bound_ms": "bounds.path_bound",
    "bounds.graph_parameters_ms": "bounds.graph_parameters",
    "bounds.exact_bd_amplitude_ms": "bounds.exact_bd_amplitude",
    "simulate.estimate_ratio_ms": "simulate.estimate_ratio",
    "simulate.absorption_times_ms": "simulate.absorption_times",
    "simulate.sandwich_experiment_ms": "simulate.sandwich_experiment",
    "bd_infinite.entrance_check_ms": "bd_infinite.entrance_check",
    "bd_infinite.eigen_convergence_ms": "bd_infinite.eigen_convergence",
    "bd_infinite.gap_identity_check_ms": "bd_infinite.gap_identity_check",
    "bd_infinite.tail_sum_estimate_ms": "bd_infinite.tail_sum_estimate",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that only sets up, for the median set-up time
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    return args


def setup_in_fresh_process(args) -> float:
    """Scaled set-up time of this script run again with --setup-only."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def reference_probe() -> float:
    """Seconds taken by fixed work that never touches qsamp: an interpreted
    integer loop, big-integer arithmetic and small LAPACK calls, the kinds
    of work qsamp's own time goes to."""
    import numpy as np

    start = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    x = 3 ** 2000
    for i in range(150):
        x = (x * 12345 + i) % (7 ** 1900)
    a = np.arange(1.0, 1601.0).reshape(40, 40) % 17.0 + np.eye(40) * 40.0
    for _ in range(20):
        np.linalg.eigvals(a)
        np.linalg.solve(a, a[:, 0])
    return time.perf_counter() - start


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qsamp" / "__init__.py").is_file():
        print(f"error: no qsamp sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t = time.perf_counter()
    import qsamp  # noqa: F401
    import_s = time.perf_counter() - t
    from tracing import Tracer, make_api, span_cost_s
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    t = time.perf_counter()
    ops = wl.make_ops(args.seed, wl.rounds(args.seconds))
    inputs_s = time.perf_counter() - t

    t = time.perf_counter()
    warm = wl.warmup_op()
    wl.run(make_api(), warm, wl.prepare(warm))
    warmup_s = time.perf_counter() - t
    setup_s = time.perf_counter() - START
    reference_probe()  # the first call pays numpy's lazy set-up
    scaled_setup_s = setup_s * PROBE_NOMINAL_S / statistics.median(reference_probe() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": scaled_setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    api = make_api(tracer)
    op_s, tally, errors = [], {}, {}
    failed, correct = 0, True
    jumps = 0.0
    probe_s = [reference_probe()]
    for i, op in enumerate(ops):
        prep = wl.prepare(op)
        gc.collect()
        if tracer:
            tracer.op_index = i
        t0 = time.perf_counter()
        out = wl.run(api, op, prep)
        t1 = time.perf_counter()
        op_s.append(t1 - t0)
        if tracer:
            tracer.op_span(i, t0, t1)
        probe_s.append(reference_probe())
        jumps += prep.get("jumps", 0.0)

        checks = wl.check(op, prep, out)
        for name, ok in checks.items():
            counts = tally.setdefault(name, {"passed": 0, "failed": 0, "skipped": 0})
            counts["skipped" if ok is None else "passed" if ok else "failed"] += 1
        for stage, exc in out.errors.items():
            key = f"{stage}: {type(exc).__name__}"
            errors[key] = errors.get(key, 0) + 1
        known = any(checks.get(name) is False for name in wl.known_faults)
        failed += bool(out.errors) or known
        correct &= all(ok is not False for name, ok in checks.items() if name not in wl.known_faults)

    # each op's wall time at the machine's nominal speed: scaled by the
    # reference probes run just before and just after it
    scaled_s = [t * 2.0 * PROBE_NOMINAL_S / (a + b) for t, a, b in zip(op_s, probe_s, probe_s[1:])]
    wall = {"setup_s": setup_s, "ops_per_s": len(op_s) / sum(op_s),
            "op_p50_ms": 1e3 * statistics.median(op_s), "probe_ms": 1e3 * statistics.median(probe_s)}
    if tracer:
        n = len(ops)
        metrics = {name: metric(tracer.total_ms(prefix) / n, "ms") for name, prefix in SPAN_METRICS.items()}
        sampling_s = 1e-3 * (tracer.total_ms("simulate.estimate_ratio")
                             + tracer.total_ms("simulate.absorption_times"))
        metrics["simulate.ns_per_jump"] = metric(1e9 * sampling_s / jumps if jumps else 0.0, "ns")
        metrics["setup.import_ms"] = metric(1e3 * import_s, "ms")
        metrics["setup.inputs_ms"] = metric(1e3 * inputs_s, "ms")
        metrics["setup.warmup_ms"] = metric(1e3 * warmup_s, "ms")
        # the wrappers are the only difference between a traced and an untraced op
        layer_spans = sum(1 for name, *_ in tracer.spans if name != "op")
        metrics["trace.overhead_ms"] = metric(1e3 * span_cost_s() * layer_spans / n, "ms")
    else:
        setups = [scaled_setup_s] + [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS)]
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "ops_per_s": metric(len(scaled_s) / sum(scaled_s), "1/s"),
            "op_p50_ms": metric(1e3 * statistics.median(scaled_s), "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    result = {"correct": bool(correct), "attempted": len(ops), "failed": int(failed), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**result, "checks": tally, "errors": errors, "wall": wall, "op_s": op_s, "probe_s": probe_s},
        indent=1) + "\n")
    if tracer:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    print(json.dumps({"checks": tally, "errors": errors, "wall": wall}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
