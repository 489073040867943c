"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --seconds 20 --seeds 1-10 [--workloads bd-chains,mc-ratio]

Runs are made one after another from the repository root.  For every
workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json.  This is how the reference figures in the README were
made; the summary is also written to perfbench/out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        values, shares = {}, set()
        for seed in args.seeds:
            t = time.perf_counter()
            result = run_once(workload, seed, args.seconds, args.trace)
            shares.add((result["failed"], result["attempted"], result["correct"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {time.perf_counter() - t:.1f} s wall, "
                  f"correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)
        stats = {name: summarise(v) for name, v in values.items() if len(v) > 1}
        summary[workload] = {"seeds": args.seeds, "failed/attempted/correct": sorted(shares),
                             "metrics": stats}
        for name, s in stats.items():
            bound = bounds.get(name)
            print(f"  {name:34s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
                  f"spread {s['spread']:.3f}" + (f"  bound {bound}" if bound is not None else ""))
        print(f"  failed/attempted/correct per run: {sorted(shares)}", flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{int(time.time())}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
