#!/usr/bin/env python3
"""Entry point of the pim-serve benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark (a cargo package of its
own that depends on the repository's crates by path), writes the workload's
model artifact if it is not there yet, then runs the workload in a process
of its own. The last line of standard output is the run's JSON result;
build output and progress go to standard error. The exit code is non-zero
when the build fails, a check fails, or the run does not finish in time.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mn1-serve", "stream-zipf-pool", "micro-tiers")
BUILD_TIMEOUT_S = 840
PREPARE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170


def step(cmd, timeout):
    """Runs one child to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return 124


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--doctor", choices=("flip", "drop"),
                        help="self-test: corrupt one response or drop one ticket")
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        code = subprocess.run(build, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    if code != 0:
        return code

    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-artifacts")
    code = step([exe, "prepare", "--workload", args.workload, "--dir", work], PREPARE_TIMEOUT_S)
    if code != 0:
        return code

    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", work]
    if args.doctor:
        cmd += ["--doctor", args.doctor]
    try:
        # The result line goes straight to this process's standard output.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
