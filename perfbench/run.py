#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads (perfbench/README.md).

    python3 perfbench/run.py --workload chstone|progen|serve-mix \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. The first run configures and
builds perfbench/CMakeLists.txt (the Twill tree plus the harness) under
.bench_build/; later runs only confirm the build is current. Everything
the benchmark writes stays under .bench_build/.

The last line of stdout is the result, one JSON object:
    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a separate traced pass (its Chrome trace lands in
.bench_build/perfbench-out/). Every workload reports every metric of
BENCHMARK.json: the traced chstone and progen runs add a short twilld pass
under their own requests for the serve layer, and the traced serve-mix run
replays the programs it served through the in-process layers.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
TWILLD = os.path.join(BUILD_DIR, "twill", "twilld")
WORKLOADS = ("chstone", "progen", "serve-mix")
# A run's wall time beyond its measured seconds: program draw, set-ups,
# checks and the peak-RSS probe.
SETUP_ALLOWANCE_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness and twilld. Tool output
    goes to stderr so stdout stays the result channel."""
    if not os.path.isfile(os.path.join(ROOT, "src", "driver", "driver.h")):
        log(f"no Twill sources under {ROOT}; run from a source checkout")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench_harness",
                    "twilld"], stdout=sys.stderr, check=True)


def run_harness(args, extra, trace_out):
    cmd = [HARNESS, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    if args.trace:
        cmd += ["--trace-out", trace_out]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + SETUP_ALLOWANCE_S)
    except subprocess.TimeoutExpired:
        log(f"harness did not finish within {args.seconds + SETUP_ALLOWANCE_S:g} s")
        sys.exit(1)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        log(f"harness exited with {out.returncode}")
        sys.exit(1)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (perfbench/selftest.py): a smaller program set, a
    # corrupted expected checksum.
    ap.add_argument("--programs", type=int)
    ap.add_argument("--wrong-expected", metavar="KERNEL")
    args = ap.parse_args()

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.path.insert(0, BENCH_DIR)
    import serve_mix
    extra = []
    if args.wrong_expected:
        extra += ["--wrong-expected", args.wrong_expected]
    trace_out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")
    if args.workload == "serve-mix":
        result = serve_mix.run(
            HARNESS, TWILLD, args.seed, args.seconds, args.trace, OUT_DIR, trace_out=trace_out,
            layers_trace_out=os.path.join(OUT_DIR, f"serve-mix-seed{args.seed}.layers.trace.json"),
            plan_extra=extra)
    else:
        if args.programs:
            extra += ["--programs", str(args.programs)]
        result = run_harness(args, extra, trace_out)
        if args.trace:
            # The serve layer, under this workload's own requests.
            correct, attempted, failed, metrics = serve_mix.side_pass(
                HARNESS, TWILLD, args.seed, args.seconds, args.workload, OUT_DIR)
            result["correct"] = result["correct"] and correct
            result["attempted"] += attempted
            result["failed"] += failed
            result["metrics"].update(metrics)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
