#!/usr/bin/env python3
"""Build and run one gaascache benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig6-ladder --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds the simulator libraries and the
perfbench binary from source into .bench_build/perfbench (build output
goes to stderr); later calls only re-check the build.  The binary then
replaces this process, so its stdout -- human-readable metric lines,
then the result object as the last line -- is the benchmark's output.
Workloads and metrics are described in perfbench/CATALOGUE.md.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configure (once) and build; False if the sources are missing
    or the build fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources not found under "
              f"{ROOT}/src", file=sys.stderr)
        return False
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    # Concurrent runs in one checkout share the build directory.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        return 1
    argv = [BINARY, "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace",
            args.trace, "--out-dir", os.path.join(ROOT, ".bench_out")]
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(ROOT)
    os.execv(BINARY, argv)


if __name__ == "__main__":
    sys.exit(main())
