#!/usr/bin/env python3
"""The benchmark's own test: per-layer counts are exact and repeatable.

    python3 perfbench/test_counts.py [--seed N]

Runs every workload at the tiny size twice untraced and twice traced.
A later claim may rest on a count only if it repeats exactly, so this
asserts that every count of the first round (cycles, committed,
issued, the vp counters, decoded instructions, captures, runs
simulated, distinct outcomes, hits and misses, ...) is identical across
the two runs of each mode and between the traced and untraced runs. It
also asserts that every output check passed and that the traced run's
ledger holds: the per-layer busy seconds plus sim.unattributed_s add
up to the traced wall time, no term is negative (several are
residuals: uarch.busy_s, stream.capture_busy_s, sim.unattributed_s),
and sim.unattributed_s stays within the workload's share of the wall
time. Exits non-zero on the first failure.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counts each workload must report (the ones later claims rest on).
NAMED = {
    "grid": ["uarch.cycles", "uarch.committed", "uarch.issued",
             "vp.eligible", "vp.predictions", "vp.correct",
             "stream.decoded_insts", "stream.captures",
             "sim.runs_simulated", "sim.distinct_outcomes"],
    "service": ["uarch.cycles", "uarch.committed", "uarch.issued",
                "vp.eligible", "vp.predictions", "vp.correct",
                "stream.decoded_insts", "sim.runs_simulated",
                "sim.distinct_outcomes", "service.hits",
                "service.misses"],
}

# The most of trace.wall_s each workload may leave unattributed (the
# same shares rvp_bench checks; see maxUnattributedShare in main.cc).
MAX_UNATTRIBUTED = {"grid": 0.10, "service": 0.50}

# Terms of the traced ledger; they must sum to trace.wall_s.
LEDGER = ["compile.busy_s", "profile.busy_s", "sim.prepare_busy_s",
          "stream.capture_busy_s", "emu.busy_s", "stream.decode_busy_s",
          "vp.busy_s", "uarch.busy_s", "sim.journal_busy_s",
          "service.start_busy_s", "service.store_get_busy_s",
          "service.store_put_busy_s", "sim.unattributed_s"]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit("FAIL %s trace=%d: exit %d\n%s" % (
            workload, trace, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    if not result["correct"] or result["failed"] != 0:
        sys.exit("FAIL %s trace=%d: %d/%d operations failed\n%s" % (
            workload, trace, result["failed"], result["attempted"],
            proc.stderr[-2000:]))
    return result, detail


def expect(ok, message):
    if not ok:
        sys.exit("FAIL " + message)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    for workload, named in NAMED.items():
        plain = [run(workload, seed, 0) for _ in range(2)]
        traced = [run(workload, seed, 1) for _ in range(2)]
        counts = plain[0][1]["counts"]
        for name in named:
            expect(name in counts, "%s: count %s not reported"
                   % (workload, name))
        expect(plain[1][1]["counts"] == counts,
               "%s: untraced counts differ between two runs" % workload)
        expect(traced[1][1]["counts"] == traced[0][1]["counts"],
               "%s: traced counts differ between two runs" % workload)
        for result, _ in traced:
            metrics = result["metrics"]
            for name, value in counts.items():
                expect(metrics[name]["value"] == value,
                       "%s: %s traced %r, untraced %r" % (
                           workload, name, metrics[name]["value"], value))
            wall = metrics["trace.wall_s"]["value"]
            total = sum(metrics[name]["value"] for name in LEDGER)
            expect(wall > 0 and math.isclose(total, wall, rel_tol=1e-9),
                   "%s: ledger sums to %r, traced wall is %r" % (
                       workload, total, wall))
            for name in LEDGER:
                expect(metrics[name]["value"] >= 0,
                       "%s: ledger term %s is %r" % (
                           workload, name, metrics[name]["value"]))
            rest = metrics["sim.unattributed_s"]["value"]
            expect(rest <= MAX_UNATTRIBUTED[workload] * wall,
                   "%s: %.1f%% of the traced wall is unattributed, "
                   "more than %.0f%%" % (workload, 100 * rest / wall,
                                         100 * MAX_UNATTRIBUTED[workload]))
        metrics = traced[0][0]["metrics"]
        print("ok %-8s %d counts repeat exactly; ledger closes at %.3f s, "
              "%.1f%% unattributed"
              % (workload, len(counts), metrics["trace.wall_s"]["value"],
                 100 * metrics["sim.unattributed_s"]["value"]
                 / metrics["trace.wall_s"]["value"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
