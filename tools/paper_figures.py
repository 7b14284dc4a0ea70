#!/usr/bin/env python3
"""Render the paper's evaluation chapter (Figs 6.1-6.6, Tables 6.1-6.2) from
the artifacts the gated pipeline already produces.

    ./build/bench_main --out BENCH_dswp.json
    ./build/twill-explore --kernel mips --kernel blowfish --partitions 0,2 \\
        --sw-fraction 0.05,0.1,0.25,0.4,0.5,0.65,0.8,0.95 --out SPLITS.json
    python3 tools/paper_figures.py BENCH_dswp.json SPLITS.json

Figs 6.1, 6.2, 6.5, 6.6 and Tables 6.1, 6.2 come from a full (not --quick)
bench_main artifact. Figs 6.3 and 6.4 come from the twill-explore split
document and are skipped when it is not given. Every cycle count, queue
count, area and power value is read from the artifacts; the renderer only
forms the ratios and averages each figure prints.

Usage: paper_figures.py BENCH.json [EXPLORE.json]
"""

import json
import sys

RULE = "=" * 64
SPLIT_KERNELS = ("mips", "blowfish")


def header(title, note):
    print(f"\n{RULE}\n{title}\nPaper reference: {note}\n{RULE}")


def failed(name, error):
    print("%-10s  FAILED: %s" % (name, error))


def ratio(num, den):
    return num / den if den else 0.0


def cycles(report, flow):
    return report["flows"][flow]["cycles"]


def fig_6_1(reports):
    header("Fig 6.1: normalized power (pure SW = 1.00)",
           "shape: pure HW lowest, Twill between HW and SW (Microblaze PLLs dominate)")
    print("%-10s %9s %9s %9s" % ("Benchmark", "SW", "HW", "Twill"))
    hw_sum = twill_sum = 0.0
    count = 0
    for r in reports:
        if not r["ok"]:
            failed(r["name"], r.get("error", ""))
            continue
        p = r["power"]
        flag = "" if p["hw"] < p["twill"] < p["sw"] else "   (!)"
        print("%-10s %9.2f %9.2f %9.2f%s" % (r["name"], p["sw"], p["hw"], p["twill"], flag))
        hw_sum += p["hw"]
        twill_sum += p["twill"]
        count += 1
    if count:
        print("\nAverages: HW %.2f, Twill %.2f (both must sit below SW=1.00; "
              "ordering HW < Twill < SW matches Fig 6.1)" % (hw_sum / count, twill_sum / count))


def fig_6_2(reports):
    header("Fig 6.2: speedup over pure SW (higher is better)",
           "thesis averages: pure HW ~13.6x, Twill ~22.2x over SW; Twill ~1.63x over HW; "
           "Twill only *matches* pure HW on Blowfish (§6.4)")
    print("%-10s %12s %12s %12s %14s" %
          ("Benchmark", "SW cycles", "HW speedup", "Twill speedup", "Twill vs HW"))
    sums = [0.0, 0.0, 0.0]
    count = 0
    for r in reports:
        if not r["ok"]:
            failed(r["name"], r.get("error", ""))
            continue
        sw, hw, tw = cycles(r, "sw"), cycles(r, "hw"), cycles(r, "twill")
        speedups = (ratio(sw, hw), ratio(sw, tw), ratio(hw, tw))
        print("%-10s %12d %11.2fx %12.2fx %13.2fx" % ((r["name"], sw) + speedups))
        sums = [s + v for s, v in zip(sums, speedups)]
        count += 1
    if count:
        print("\nAverages: HW %.2fx, Twill %.2fx over SW; Twill %.2fx vs HW" %
              tuple(s / count for s in sums))
        print("(Thesis: 13.6x / 22.2x / 1.63x — our magnitudes are compressed because the\n"
              " simulated Microblaze has an idealized CPI; orderings are the claim here.)")


def split_row(label_fmt, label, point):
    if not point["ok"]:
        print((label_fmt + "  FAILED: %s") % (label, point.get("error", "")))
        return
    print((label_fmt + " %12d %10d %11.2fx") %
          (label, point["cycles"], point["queues"], ratio(point["hw_cycles"], point["cycles"])))


def split_sweep(points, label_fmt):
    """Rows of the auto-partitioned (K=0) points, one per targeted SW split."""
    for p in points:
        if p["config"]["partitions"] == 0:
            split_row(label_fmt + "%%", p["config"]["sw_fraction"] * 100, p)


def fig_6_3(points):
    header("Fig 6.3: MIPS performance vs targeted SW split point",
           "queue count anti-correlates with performance; even splits perform worst")
    print("%-10s %12s %10s %12s" % ("SW split", "Twill cycles", "#queues", "vs pure HW"))
    split_sweep(points, "%9.0f")
    print("\n(The thesis's Fig 6.3 shows performance degrading toward mid/large splits\n"
          " while the queue count varies with the split point.)")


def fig_6_4(points):
    header("Fig 6.4: Blowfish performance vs targeted SW split point",
           "default heuristic only matches pure HW on Blowfish (§6.4); a modified split "
           "reduces queue count and improves performance")
    print("%-12s %12s %10s %12s" % ("SW split", "Twill cycles", "#queues", "vs pure HW"))
    split_sweep(points, "%11.0f")
    # The §6.4 "modified heuristic" row: fewer, larger partitions cut the
    # master-control ping-pong the thesis diagnosed.
    tuned = [p for p in points
             if p["config"]["partitions"] == 2 and p["config"]["sw_fraction"] == 0.05]
    if not tuned:
        sys.exit("paper_figures: the split document has no blowfish point at K=2, split 0.05")
    split_row("%-12s", "tuned(K=2)", tuned[0])
    print("\n(Thesis: tuning the heuristic for Blowfish gave 1.89x over pure HW and\n"
          " reduced the queue count from 92 to 34.)")


def sweeps(kernels, key, axis):
    """Every swept kernel's bench_main queue sweep: (name, {value: Twill cycles})."""
    return [(k["report"]["name"], {pt[axis]: pt["cycles"] for pt in k[key]})
            for k in kernels if key in k]


def fig_6_5(kernels):
    header("Fig 6.5: speedup vs queue latency (normalized to 2-cycle latency)",
           "thesis: ~27% average slowdown at latency 128 (more than the original DSWP's 10% "
           "at 100, because Twill flushes the pipeline at function boundaries)")
    rows = sweeps(kernels, "queue_latency_sweep", "latency")
    latencies = list(rows[0][1]) if rows else []
    print("%-10s" % "Benchmark" + "".join(" %8s%-3d" % ("lat=", lat) for lat in latencies))
    slowdown_sum = 0.0
    count = 0
    for name, points in rows:
        norms = [ratio(points[2], c) for c in points.values()]
        print("%-10s" % name + "".join(" %10.3f" % n for n in norms))
        if norms[-1] > 0:
            slowdown_sum += (1.0 - norms[-1]) * 100.0
            count += 1
    if count:
        print("\nAverage slowdown at latency 128: %.1f%% (thesis: ~27%%)" % (slowdown_sum / count))


def fig_6_6(kernels):
    header("Fig 6.6: speedup vs queue size (normalized to length-8 queues)",
           "thesis: ~9.7% slowdown shrinking queues from 32 to 8; resilient overall")
    rows = sweeps(kernels, "queue_capacity_sweep", "capacity")
    sizes = list(rows[0][1]) if rows else []
    print("%-10s" % "Benchmark" + "".join(" %7s%-3d" % ("len=", cap) for cap in sizes))
    speedup_sum = 0.0
    for name, points in rows:
        norms = {cap: ratio(points[8], c) for cap, c in points.items()}
        print("%-10s" % name + "".join(" %9.3f" % n for n in norms.values()))
        speedup_sum += (norms[32] - 1.0) * 100.0
    if rows:
        print("\nAverage speedup from len-8 to len-32 queues: %.1f%% (thesis: ~9.7%% the other "
              "way, i.e. 32->8 costs ~9.7%%)" % (speedup_sum / len(rows)))


def table_6_1(reports):
    header("Table 6.1: DSWP results (#queues / #semaphores / #HW threads)",
           "MIPS 12/0/1, ADPCM 328/0/5, AES 100/0/3, Blowfish 104/2/2, GSM 65/0/3, "
           "JPEG 576/3/6, MPEG-2 47/0/4, SHA 82/0/1; ~75%-25% HW/SW split")
    print("%-10s %8s %12s %11s %11s %14s" % ("Benchmark", "#Queues", "#Semaphores",
                                            "#HWThreads", "#SWThreads", "HW-split(est)"))
    share_sum = 0.0
    count = 0
    for r in reports:
        d = r["dswp"]
        if r.get("error") and d["queues"] == 0:
            failed(r["name"], r["error"])
            continue
        # Estimated workload split, approximated via thread domains.
        share = ratio(100.0 * d["hw_threads"], d["hw_threads"] + d["sw_threads"])
        share_sum += share
        count += 1
        print("%-10s %8d %12d %11d %11d %13.0f%%" % (r["name"], d["queues"], d["semaphores"],
                                                   d["hw_threads"], d["sw_threads"], share))
    if count:
        print("\nAverage HW thread share: %.0f%% (thesis reports a ~75%%/25%% split)" %
              (share_sum / count))


def table_6_2(reports):
    header("Table 6.2: LUTs (LegUp | Twill HWThreads | Twill | Twill+Microblaze)",
           "e.g. MIPS 2101|1830|2318|3752 ... JPEG 31084|18443|56101|57535; "
           "HW-thread area ~1.73x smaller than LegUp, total ~1.35x larger")
    print("%-10s %10s %16s %10s %18s" %
          ("Benchmark", "LegUp", "Twill HWThreads", "Twill", "Twill+Microblaze"))
    hw_sum = total_sum = 0.0
    ok = [r for r in reports if r["ok"]]
    for r in reports:
        if not r["ok"]:
            failed(r["name"], r.get("error", ""))
            continue
        a = r["areas"]
        legup, hw = a["legup"]["luts"], a["twill_hw_threads"]["luts"]
        total, with_mb = a["twill_total"]["luts"], a["twill_plus_microblaze"]["luts"]
        print("%-10s %10d %16d %10d %18d" % (r["name"], legup, hw, total, with_mb))
        hw_sum += ratio(legup, hw)
        total_sum += ratio(total, legup)
    if ok:
        print("\nHW-thread area reduction vs LegUp:  %.2fx (thesis: 1.73x)" % (hw_sum / len(ok)))
        print("Twill total area vs LegUp:          %.2fx (thesis: 1.35x)" % (total_sum / len(ok)))
        # The Microblaze's BRAMs are what the processor adds to the Twill total.
        a = ok[0]["areas"]
        print("\nBRAM blocks: Microblaze uses %d; LegUp instantiates per-array memories;\n"
              "Twill keeps HW-thread data in processor memory." %
              (a["twill_plus_microblaze"]["brams"] - a["twill_total"]["brams"]))


def load(path):
    with open(path) as f:
        return json.load(f)


def main(argv):
    if len(argv) not in (2, 3):
        sys.stderr.write(__doc__)
        return 2
    bench = load(argv[1])
    if bench.get("quick"):
        sys.exit("paper_figures: %s is a --quick artifact (no queue sweeps); "
                 "run bench_main without --quick" % argv[1])
    kernels = bench["kernels"]
    reports = [k["report"] for k in kernels]
    fig_6_1(reports)
    fig_6_2(reports)
    if len(argv) == 3:
        splits = {k["name"]: k["points"] for k in load(argv[2])["kernels"]}
        missing = [name for name in SPLIT_KERNELS if name not in splits]
        if missing:
            sys.exit("paper_figures: %s has no %s exploration" % (argv[2], ", ".join(missing)))
        fig_6_3(splits["mips"])
        fig_6_4(splits["blowfish"])
    fig_6_5(kernels)
    fig_6_6(kernels)
    table_6_1(reports)
    table_6_2(reports)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
