#!/usr/bin/env python3
"""Steadiness check: runs workloads several times and reports the spread.

    python3 perfbench/steady.py --workload xdb_read --runs 10
    python3 perfbench/steady.py --workload all --runs 10 --fresh-seed

Each run uses its own seed (--seed-base, +1 per run; --fresh-seed draws a
base from the clock, i.e. seeds never used while the benchmark was written,
and prints it so the set can be repeated). For every metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, and the metric's bound from BENCHMARK.json: "ok" when
the spread is within a third of the bound, "wide" when within the bound,
"UNSTEADY" beyond it. setup_s is exempt from the spread rule and only
reported. Exits 1 when any run fails or reports incorrect answers.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of `values`."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def verdict(name, rel_spread, bound):
    if bound is None or name == "setup_s":
        return ""
    if rel_spread <= bound / 3:
        return "ok"
    return "wide" if rel_spread <= bound else "UNSTEADY"


def run_once(workload, seed, seconds, trace, extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--fresh-seed", action="store_true")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--values", action="store_true", help="also print every run's value")
    args = parser.parse_args()

    base = int(time.time()) % 1000000 + 1000 if args.fresh_seed else args.seed_base
    print("seeds %d..%d" % (base, base + args.runs - 1))
    # Arguments BENCHMARK.json's command passes after run.py.
    extra = spec["command"][2:]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    healthy = True
    for workload in names:
        values = {}
        for i in range(args.runs):
            result = run_once(workload, base + i, args.seconds, args.trace, extra)
            if result is None or not result["correct"]:
                print("%s seed %d: %s" % (workload, base + i, "failed" if result is None else "INCORRECT"))
                healthy = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("\n%s (%d runs)" % (workload, len(next(iter(values.values()), []))))
        print("  %-36s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in sorted(values):
            if len(values[name]) < 2:
                continue
            median, q1, q3, rel = spread(values[name])
            bound = bounds.get(name)
            print("  %-36s %12.4f %12.4f %12.4f %8.3f %6s %s" % (
                name, median, q1, q3, rel, "-" if bound is None else bound,
                verdict(name, rel, bound)))
            if args.values:
                print("      " + " ".join("%.4g" % v for v in values[name]))
    sys.exit(0 if healthy else 1)


if __name__ == "__main__":
    main()
