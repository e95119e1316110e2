#!/usr/bin/env python3
"""Build the benchmark program from source, then run one workload.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

rvp_bench (perfbench/src) links the simulator's libraries in process;
the `service` workload also spawns the rvpsweepd daemon built beside it.
Everything is built into .bench_build/ and every file a run writes goes
under .bench_run/, both at the root of the checkout. The last line on
stdout is rvp_bench's JSON result; the build log goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_DIR = os.path.join(ROOT, ".bench_run")
# A run measures for --seconds and must then finish its checks; the
# program is killed past this bound so a wedged run cannot hang.
RUN_TIMEOUT_S = 175


def build():
    """Configure (once) and build rvp_bench and the daemon; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no simulator sources at src/; nothing to build",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD, "-j", jobs,
            "--target", "rvp_bench", "rvpsweepd"]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid", "service"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: two programs at small budgets "
                             "(the benchmark's own count test)")
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD, "rvp_bench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--size", args.size,
           "--daemon", os.path.join(BUILD, "rvpsweepd"),
           "--run-dir", os.path.relpath(RUN_DIR, os.getcwd())]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: rvp_bench exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
