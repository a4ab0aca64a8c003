#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 e2ebench/run.py --workload batch-large|cold-start|serve-mixed \
        --seed N --seconds S --trace 0|1

Configures e2ebench/ as a Release CMake build in .bench_build/ (the
repository's libraries, irdl_serve and the e2ebench program, built from
this checkout's sources), then runs the program. Its last line of
stdout is the JSON result; this script passes it through and exits with
the program's exit code. It writes only under .bench_build/.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
JOBS = "4"
# Input generation, oracle checks and set-up before the timed part.
RUN_SLACK_S = 90


def build(root):
    """Configures once, then builds incrementally. Returns the program path."""
    build_dir = os.path.join(root, BUILD_DIR)
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "e2ebench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=log, stderr=subprocess.STDOUT, check=True, timeout=300)
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", JOBS],
            stdout=log, stderr=subprocess.STDOUT, check=True, timeout=1500)
    return os.path.join(build_dir, "e2ebench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["batch-large", "cold-start", "serve-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    # The benchmark measures the repository around it; without its
    # sources there is nothing to build.
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("e2ebench: run from the root of a repository checkout "
              "(no src/CMakeLists.txt here)", file=sys.stderr)
        return 2
    try:
        program = build(root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print("e2ebench: build failed (%s); see %s/build.log"
              % (err, BUILD_DIR), file=sys.stderr)
        return 2
    # A run measures for --seconds after generating and checking its
    # inputs and setting up; twice the measured time plus that slack
    # bounds a healthy run.
    timeout = 2 * args.seconds + RUN_SLACK_S
    try:
        proc = subprocess.run(
            [program, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("e2ebench: the run did not end within %.0f s" % timeout,
              file=sys.stderr)
        return 2
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
