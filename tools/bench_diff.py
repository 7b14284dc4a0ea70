#!/usr/bin/env python3
"""Compare two bench_main artifacts (BENCH_dswp.json) for the CI bench gate.

Every report field must match the committed baseline exactly — cycle counts,
retired-instruction counters, bus messages, areas, power, speedups, DSWP
structure counts, sweep points. The simulators are deterministic, so any
drift is a behaviour change and fails the gate; if the change is intentional
(a timing-model or engine change), regenerate the baseline in the same PR:

    ./build/bench_main --repeat 3 --out bench/baseline/BENCH_dswp.json

Wall-clock fields (*_wall_ms) are machine-dependent and never fail the gate;
a >10% regression (configurable) prints a warning so perf erosion is visible
in the job log. The compile stages get their own budget: the per-kernel
stage table always prints, and a >15% regression (configurable) of the
summed stage time (parse/lower/passes/ir_verify/pdg/dswp/verify/schedule)
across all kernels prints a warning — compile cost multiplies under
explorer grids and a caching twilld, so erosion there must be visible even
while sim dominates.

Usage: bench_diff.py BASELINE NEW [--wall-tolerance 0.10] [--stage-tolerance 0.15]
"""

import argparse
import json
import sys


def is_wall_key(key):
    return isinstance(key, str) and key.endswith("_wall_ms")


def compare(base, new, path, drifts, walls):
    """Recursively records exact-value drifts and wall-clock pairs."""
    if isinstance(base, dict) and isinstance(new, dict):
        for key in sorted(set(base) | set(new)):
            sub = f"{path}.{key}" if path else key
            if key not in base:
                drifts.append(f"{sub}: missing from baseline")
            elif key not in new:
                drifts.append(f"{sub}: missing from new run")
            elif is_wall_key(key):
                walls.append((sub, base[key], new[key]))
            else:
                compare(base[key], new[key], sub, drifts, walls)
        return
    if isinstance(base, list) and isinstance(new, list):
        if len(base) != len(new):
            drifts.append(f"{path}: length {len(base)} -> {len(new)}")
            return
        for i, (b, n) in enumerate(zip(base, new)):
            compare(b, n, f"{path}[{i}]", drifts, walls)
        return
    if base != new:
        drifts.append(f"{path}: {base!r} -> {new!r}")


def kernel_wall_table(base, new):
    """One line per kernel: end-to-end report wall time, baseline vs new.

    Printed even when every field matches, so the job log always shows
    where the wall clock went. Returns an error string (instead of raising
    KeyError) when either artifact is structurally short of a kernel list
    with `report.name` / `report.stages` — a truncated or pre-stages
    baseline is a gate failure with an actionable message, not a traceback.
    """
    for label, doc in (("baseline", base), ("new run", new)):
        if not isinstance(doc.get("kernels"), list):
            return None, f"{label}: no 'kernels' list — not a bench_main artifact?"
        for i, k in enumerate(doc["kernels"]):
            report = k.get("report")
            if not isinstance(report, dict) or "name" not in report:
                return None, f"{label}: kernels[{i}] has no report.name"
            if not isinstance(report.get("stages"), dict):
                return None, (f"{label}: kernel '{report.get('name', i)}' has no 'stages' "
                              "object — regenerate it with a current bench_main")
    lines = []
    base_by_name = {k["report"]["name"]: k for k in base["kernels"]}
    for k in new["kernels"]:
        name = k["report"]["name"]
        b = base_by_name.get(name)
        if b is None:
            lines.append(f"  {name:<12} (not in baseline)")
            continue
        bw, nw = b.get("report_wall_ms", 0.0), k.get("report_wall_ms", 0.0)
        delta = f"{(nw / bw - 1.0) * 100.0:+6.1f}%" if bw > 0 else "   n/a"
        lines.append(f"  {name:<12} {bw:9.2f} ms -> {nw:9.2f} ms  {delta}")
    return lines, None


def stage_sum(kernel):
    """Summed compile-stage wall time (ms) of one kernel entry."""
    return sum(v for k, v in kernel["report"]["stages"].items()
               if is_wall_key(k) and isinstance(v, (int, float)))


def compile_stage_table(base, new, tolerance):
    """Per-kernel summed compile-stage wall, baseline vs new, plus totals.

    Returns the number of warnings (0 or 1): only the *summed* total across
    kernels is held to the budget — per-kernel stage times are a few ms and
    too noisy to police individually. Callers have already validated the
    kernels/report/stages structure via kernel_wall_table().
    """
    base_by_name = {k["report"]["name"]: k for k in base["kernels"]}
    lines, base_total, new_total = [], 0.0, 0.0
    for k in new["kernels"]:
        name = k["report"]["name"]
        b = base_by_name.get(name)
        if b is None:
            lines.append(f"  {name:<12} (not in baseline)")
            continue
        bs, ns = stage_sum(b), stage_sum(k)
        base_total += bs
        new_total += ns
        delta = f"{(ns / bs - 1.0) * 100.0:+6.1f}%" if bs > 0 else "   n/a"
        lines.append(f"  {name:<12} {bs:9.3f} ms -> {ns:9.3f} ms  {delta}")
    total_delta = (f"{(new_total / base_total - 1.0) * 100.0:+6.1f}%"
                   if base_total > 0 else "   n/a")
    lines.append(f"  {'TOTAL':<12} {base_total:9.3f} ms -> {new_total:9.3f} ms  {total_delta}")
    print("Compile stages, summed per kernel (baseline -> new; budget-warned, never gates):")
    for line in lines:
        print(line)
    if base_total > 0 and new_total / base_total > 1.0 + tolerance:
        print(f"WARNING: summed compile stages regressed {new_total / base_total:.2f}x "
              f"({base_total:.3f} ms -> {new_total:.3f} ms), over the "
              f"{tolerance * 100.0:.0f}% budget")
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("new")
    ap.add_argument("--wall-tolerance", type=float, default=0.10,
                    help="relative wall-clock regression that triggers a warning")
    ap.add_argument("--stage-tolerance", type=float, default=0.15,
                    help="relative regression of the summed compile stages "
                         "across kernels that triggers a warning")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)

    table, table_error = kernel_wall_table(base, new)
    if table_error:
        print(f"FAIL: {table_error}")
        return 1
    print("Per-kernel wall (baseline -> new; informational, never gates):")
    for line in table:
        print(line)
    stage_warned = compile_stage_table(base, new, args.stage_tolerance)

    drifts, walls = [], []
    compare(base, new, "", drifts, walls)

    warned = 0
    for path, b, n in walls:
        if isinstance(b, (int, float)) and isinstance(n, (int, float)) and b > 0:
            ratio = n / b
            if ratio > 1.0 + args.wall_tolerance:
                warned += 1
                print(f"WARNING: {path}: {b:.2f} ms -> {n:.2f} ms ({ratio:.2f}x)")

    if drifts:
        print(f"FAIL: {len(drifts)} report field(s) drifted from the baseline:")
        for d in drifts[:50]:
            print(f"  {d}")
        if len(drifts) > 50:
            print(f"  ... and {len(drifts) - 50} more")
        print("If intentional, regenerate bench/baseline/BENCH_dswp.json in this PR.")
        return 1

    total = next((f"{b:.0f} -> {n:.0f} ms" for p, b, n in walls if p == "summary.total_wall_ms"),
                 "n/a")
    print(f"OK: all report fields match the baseline "
          f"({warned + stage_warned} wall-clock warning(s); total wall {total})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
