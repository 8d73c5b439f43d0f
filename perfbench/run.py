#!/usr/bin/env python3
"""Repair-stack benchmark: builds the runner, runs one workload, prints
its metrics.

    python3 perfbench/run.py --workload store-wave|engine-stream|fleet-sim \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The runner refuses to run (exit 3) when
RPR_GF_FORCE, RPR_VERIFY_PLANS or RPR_VERIFY_ONLINE=0 is set. Each run
configures and builds the repository's libraries and the runner
(perfbench/CMakeLists.txt) under .bench_build/. The runner writes its raw
samples to .bench_build/runs/; this script turns them into metrics
(stats.py), prints a detail report as lines starting with "#", and prints
the result as one JSON object on the last line of standard output. Build
and runner output go to standard error.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("store-wave", "engine-stream", "fleet-sim")
RUNNER_TIMEOUT_S = 170


def build():
    """Configures and builds the runner; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("no src/ next to perfbench/: run from a checkout")
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 2)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench_runner", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench_runner"


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inject-corruption", action="store_true",
                    help="flip one byte of the first checked output; the "
                         "run must then report a failed operation")
    args = ap.parse_args(argv)

    try:
        runner = build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    runs = BUILD / "runs"
    runs.mkdir(exist_ok=True)
    out = runs / ("%s-seed%d-trace%d.json" %
                  (args.workload, args.seed, args.trace))
    cmd = [str(runner), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    if args.inject_corruption:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: runner timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("perfbench: runner exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1

    with open(out) as f:
        raw = json.load(f)
    res = stats.result(raw)
    print("# config: " + json.dumps(raw["config"], sort_keys=True))
    print("# setup_s: " + json.dumps(raw["setup_s"]))
    print("# details: " + json.dumps(stats.details(raw), sort_keys=True))
    attempted, nfailed, failed_share = stats.failures(raw["ops"])
    print("# operations: %d attempted, %d failed (%.4g%%)" %
          (attempted, nfailed, 100.0 * failed_share))
    failed = [o for o in raw["ops"] if not o["ok"]]
    for o in failed[:20]:
        print("# failed: %s: %s" % (o["kind"], o["error"]))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
