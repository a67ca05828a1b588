#!/usr/bin/env python3
"""Run servebench on several seeds and report each metric's spread.

Run from the repository root:

    python3 servebench/spread.py --workload cold_sessions --seeds 1-5 [--trace 0]

For every metric it prints the median of the runs and the distance between
the first and third quartiles as a share of that median (the steadiness
figure the benchmark's bounds are checked against), plus the bound from
BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range (1-10) or list (3,3,3)")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--show", action="store_true", help="print every run's value")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or str(spec["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    if "-" in args.seeds:
        lo, hi = (int(x) for x in args.seeds.split("-"))
        seeds = list(range(lo, hi + 1))
    else:
        seeds = [int(x) for x in args.seeds.split(",")]
    values = {}
    for seed in seeds:
        cmd = [sys.executable, "servebench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", args.trace]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        if done.returncode != 0 or not line.startswith("{"):
            print(f"seed {seed}: failed (exit {done.returncode})")
            return 1
        result = json.loads(line)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':<34}{'median':>14}{'iqr/median':>12}{'bound':>8}")
    for name, xs in values.items():
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:<34}{med:>14.4f}{spread:>12.4f}{bound if bound is not None else '':>8}{flag}")
        if args.show:
            print("    " + " ".join(f"{x:.4g}" for x in xs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
