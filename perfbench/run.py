#!/usr/bin/env python3
"""Runs one workload of the NETMARK benchmark.

    python3 perfbench/run.py --workload xdb_read --seed 7 --seconds 10 --trace 0

Builds the harness (perfbench/CMakeLists.txt, Release) from the checkout
this file sits in, runs one workload, and prints the harness's report
followed by one result line of JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics (the traced run). The build goes to
$CARGO_TARGET_DIR when set, else .bench_build; stores and drop folders live
under <build dir>/work and are removed afterwards. Exits non-zero, printing
no result, when the build or the run fails or the output does not match
BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("xdb_read", "ingest", "edit_churn", "federated")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the harness; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench_build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "netmark_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(build_dir, "netmark_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--p99-limit-ms", type=float, default=10.0,
                        help="latency limit of xdb_read's capacity ladder")
    args = parser.parse_args()

    expected = expected_metrics(args.trace)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    workdir = os.path.join(build_dir, "work", "%s-%d" % (args.workload, os.getpid()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--p99-limit-ms", str(args.p99_limit_ms)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("harness exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("harness printed no result line")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics do not match BENCHMARK.json: expected %s, got %s" % (
            sorted(expected.items()), sorted(got.items())))
    print("\n".join(lines))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
