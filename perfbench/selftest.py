#!/usr/bin/env python3
"""Self-test of the repo benchmark: every workload at tiny size.

    python3 perfbench/selftest.py

For each workload it asserts that
  * an untraced and a traced run succeed (correct, nothing failed) and
    print exactly the metrics BENCHMARK.json names for that mode (every
    end-to-end metric untraced, every per-layer metric traced), each with
    the unit BENCHMARK.json gives it;
  * a deliberately wrong expected checksum is reported as failed
    operations and correct=false, not as a timing.
Exits 0 when every assertion holds.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

TINY = {
    "chstone": ["--seconds", "1"],
    "progen": ["--seconds", "1", "--programs", "16"],
    "serve-mix": ["--seconds", "1"],
}
WRONG = {"chstone": "mips", "progen": "progen", "serve-mix": "mips"}


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", "7", "--trace", str(trace), *TINY[workload], *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    assert out.returncode == 0, f"{' '.join(cmd)} exited {out.returncode}"
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    modes = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    assert {w["name"] for w in spec["workloads"]} == set(TINY)
    for workload in TINY:
        for trace, names in modes.items():
            res = run(workload, trace)
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (workload, res)
            assert sorted(res["metrics"]) == sorted(names), (workload, trace, sorted(res["metrics"]))
            for name, m in res["metrics"].items():
                assert m["unit"] == units[name], (workload, name, m["unit"], units[name])
                assert isinstance(m["value"], (int, float)), (workload, name)
            print(f"ok   {workload} --trace {trace}: {len(names)} metrics with units")
        bad = run(workload, 0, ["--wrong-expected", WRONG[workload]])
        assert not bad["correct"] and bad["failed"] >= 1, (workload, bad)
        print(f"ok   {workload}: wrong expected checksum -> {bad['failed']} of "
              f"{bad['attempted']} operations failed, correct=false")
    print("selftest passed")


if __name__ == "__main__":
    main()
