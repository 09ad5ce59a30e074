#!/usr/bin/env python3
"""Builds the perfbench binary from the source tree and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --unit-tests

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); build output goes to stderr, so the last
line on stdout is the benchmark's result object. Each result set is also
appended, with the host fingerprint, to results.jsonl in the build
directory.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "dcc")):
        sys.exit("perfbench: no dcc source tree next to perfbench/")
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--unit-tests", action="store_true")
    a = p.parse_args()

    if a.unit_tests:
        sys.exit(subprocess.run([build("perfbench_arith_test")]).returncode)
    if a.workload is None or a.seed is None or a.seconds is None or \
            a.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")

    exe = build("perfbench")
    run = subprocess.run(
        [exe, "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace)],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)
    with open(os.path.join(build_dir(), "results.jsonl"), "a") as log:
        log.write("".join(line + "\n" for line in run.stdout.splitlines()
                          if line.startswith("{")))


if __name__ == "__main__":
    main()
