#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root.  Builds perfbench/ (and the library sources it
compiles) into .bench_build/, sizes the thread pool from the usable CPU count,
runs one workload and re-prints the program's output.  The last line of
standard output is the result record.  Before printing it, the metric names
and units are checked against BENCHMARK.json: `--trace 0` must report exactly
the end-to-end metrics and `--trace 1` exactly the per-layer metrics.

`--self-test` builds and runs the check self-test: it corrupts one result of
each kernel and confirms that the mismatch is caught and counted.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def usable_cpus():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build(jobs):
    if not os.path.isfile(os.path.join("src", "essentials.hpp")):
        fail("library sources (src/) not found; run from the repository root")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(jobs)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json not found; run from the repository root")
    nproc = usable_cpus()
    try:
        build(nproc)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    env = dict(os.environ)
    # The kernel phase runs on the default pool plus the calling thread.
    env["ESSENTIALS_NUM_THREADS"] = str(max(1, nproc - 1))

    if args.self_test:
        done = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              env=env, timeout=RUN_TIMEOUT_S)
        sys.exit(done.returncode)

    if not args.workload:
        fail("--workload is required")
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, f"trace-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"benchmark exited with code {done.returncode}")

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong_unit = sorted(n for n in set(want) & set(got)
                            if want[n] != got[n])
        fail(f"metric names differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, unit mismatch {wrong_unit}")

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
