// bench_main — the repo's perf-trajectory harness.
//
// Runs the measurements behind the paper's evaluation chapter (full
// three-flow reports per CHStone kernel, plus the Fig. 6.5/6.6 queue
// latency/capacity sweeps) under one CLI and writes a machine-readable
// artifact so future changes can be compared against a baseline:
//
//   $ bench_main --quick --out BENCH_dswp.json
//   $ bench_main --out BENCH_dswp.json            # full run, all 8 kernels
//   $ bench_main --repeat 5 --out BENCH_dswp.json # median-of-5 wall times
//   $ bench_main --jobs 4 --out BENCH_dswp.json   # kernels on 4 workers
//
// The JSON records, per kernel, the driver report (cycles, areas, power,
// speedups, per-stage compile cost) and the wall-clock cost of each
// pipeline stage — the former tracks fidelity to the thesis, the latter
// tracks the toolchain's own speed. `--repeat N` reruns each stage N times
// and reports the median wall time, so perf deltas across PRs are
// measurable above noise; the top-level `engine` field attributes them to
// the simulator generation. tools/paper_figures.py renders the thesis's
// figures and tables from a full (not --quick) artifact.
//
// Kernels are computed first (serially by default; on a worker pool under
// --jobs N) and emitted afterwards in kernel order from the stored results,
// so the artifact is byte-identical for every job count modulo the
// machine-dependent *_wall_ms values the bench gate already ignores.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/chstone/kernels.h"
#include "src/driver/driver.h"
#include "src/explore/pool.h"
#include "src/explore/space.h"
#include "src/obs/trace.h"
#include "src/support/json.h"

using namespace twill;

namespace {

/// Canonical sweep points for Fig. 6.5 (queue latency) and Fig. 6.6 (queue
/// capacity), recorded per kernel in the artifact.
const std::vector<unsigned> kQueueLatencySweep = {2, 8, 32, 128};
const std::vector<unsigned> kQueueCapacitySweep = {2, 4, 8, 16, 32};

///   --quick        trimmed run (first 3 kernels, no parameter sweeps)
///   --out FILE     write the JSON artifact to FILE ("-" = stdout)
///   --kernel NAME  restrict to one kernel (repeatable)
///   --repeat N     run each stage N times, report the median wall time
///   --jobs N       evaluate kernels on N worker threads (the artifact is
///                  byte-identical to the serial run modulo the
///                  machine-dependent *_wall_ms values)
struct BenchCli {
  bool quick = false;
  std::string out = "BENCH_dswp.json";
  std::vector<std::string> kernels;
  unsigned repeat = 1;
  unsigned jobs = 1;
};

BenchCli parseBenchCli(int argc, char** argv) {
  BenchCli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto needValue = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    auto positiveCount = [&](const char* flag) {
      // The explorer's axis parser, held to one value: strict decimal, no
      // trailing text, 1..UINT_MAX.
      const char* text = needValue(flag);
      std::vector<unsigned> n;
      std::string error;
      if (!parseUnsignedAxis(text, /*allowZero=*/false, n, error) || n.size() != 1) {
        std::fprintf(stderr, "%s: %s wants a positive count, got '%s'\n", argv[0], flag, text);
        std::exit(2);
      }
      return n[0];
    };
    if (arg == "--quick") {
      cli.quick = true;
    } else if (arg == "--out") {
      cli.out = needValue("--out");
    } else if (arg == "--kernel") {
      cli.kernels.push_back(needValue("--kernel"));
    } else if (arg == "--repeat") {
      cli.repeat = positiveCount("--repeat");
    } else if (arg == "--jobs") {
      cli.jobs = positiveCount("--jobs");
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s [--quick] [--out FILE] [--kernel NAME ...] [--repeat N] [--jobs N]\n",
                  argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown option '%s' (try --help)\n", argv[0], arg.c_str());
      std::exit(2);
    }
  }
  return cli;
}

/// Kernels selected by the CLI: the explicit `--kernel` list, or the first
/// three kernels under `--quick`, or all eight.
std::vector<KernelInfo> selectKernels(const BenchCli& cli) {
  std::vector<KernelInfo> out;
  for (const auto& name : cli.kernels) {
    const KernelInfo* k = findKernel(name);
    if (!k) {
      std::fprintf(stderr, "unknown kernel '%s'\n", name.c_str());
      std::exit(2);
    }
    out.push_back(*k);
  }
  if (!out.empty()) return out;
  const auto& all = chstoneKernels();
  const size_t n = cli.quick ? std::min<size_t>(3, all.size()) : all.size();
  out.assign(all.begin(), all.begin() + static_cast<long>(n));
  return out;
}

double msSince(uint64_t startUs) { return static_cast<double>(traceNowUs() - startUs) / 1000.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One sweep over `values`: re-simulates the kept artifacts at each point
/// through the shared decode, collecting cycles (0 for a failed or
/// mismatching run) when `out` is given (null = pure timing pass; the
/// `--repeat` reruns must measure exactly the workload the recorded sweep
/// measured).
void runSweep(const BenchmarkReport& rep, SimProgram& prog, const std::vector<unsigned>& values,
              bool isLatency, std::vector<uint64_t>* out) {
  const TwillArtifacts& art = *rep.twillArtifacts;
  for (unsigned v : values) {
    SimConfig sc;
    if (isLatency)
      sc.queueLatency = v;
    else
      sc.queueCapacity = v;
    const BenchmarkReport r = resimulateTwill(rep, art, prog, sc, ResourceLimits{});
    if (!r.ok) std::fprintf(stderr, "%s: %s\n", rep.name.c_str(), r.error.c_str());
    if (out != nullptr) out->push_back(r.ok ? r.twill.cycles : 0);
  }
}

/// Everything one kernel contributes to the artifact, computed up front so
/// emission is a pure serialization pass over stored results.
struct KernelRun {
  BenchmarkReport report;
  double reportMs = 0;
  bool hasSweeps = false;
  std::vector<uint64_t> latencyCycles;   // per kQueueLatencySweep point
  std::vector<uint64_t> capacityCycles;  // per kQueueCapacitySweep point
  double sweepMs = 0;
};

KernelRun computeKernel(const KernelInfo& k, const BenchCli& cli) {
  KernelRun kr;
  std::vector<double> reportTimes;
  for (unsigned rep = 0; rep < cli.repeat; ++rep) {
    const uint64_t t0 = traceNowUs();
    DriverOptions dopts;
    dopts.keepTwillArtifacts = !cli.quick;  // sweeps reuse the extracted module
    BenchmarkReport ri = runBenchmark(k.name, k.source, dopts);
    reportTimes.push_back(msSince(t0));
    if (rep == 0) kr.report = std::move(ri);
  }
  kr.reportMs = median(reportTimes);

  if (!cli.quick && kr.report.ok && kr.report.twillArtifacts) {
    // Fig. 6.5 / 6.6: re-simulate across queue latencies and capacities,
    // reusing the module runBenchmark already extracted and scheduled.
    kr.hasSweeps = true;
    const TwillArtifacts& art = *kr.report.twillArtifacts;
    SimProgram prog(*art.module, art.schedules);  // one decode, all runs
    std::vector<double> sweepTimes;
    uint64_t t0 = traceNowUs();
    runSweep(kr.report, prog, kQueueLatencySweep, /*isLatency=*/true, &kr.latencyCycles);
    runSweep(kr.report, prog, kQueueCapacitySweep, /*isLatency=*/false, &kr.capacityCycles);
    const double recordingPassMs = msSince(t0);
    if (cli.repeat == 1) {
      sweepTimes.push_back(recordingPassMs);
    } else {
      // Median over N uniform samples: the recording pass above fills the
      // result vectors (a different workload), so it is excluded.
      for (unsigned rep = 0; rep < cli.repeat; ++rep) {
        t0 = traceNowUs();
        runSweep(kr.report, prog, kQueueLatencySweep, /*isLatency=*/true, nullptr);
        runSweep(kr.report, prog, kQueueCapacitySweep, /*isLatency=*/false, nullptr);
        sweepTimes.push_back(msSince(t0));
      }
    }
    kr.sweepMs = median(sweepTimes);
  }
  kr.report.twillArtifacts.reset();
  return kr;
}

void emitSweep(JsonWriter& w, const char* key, const std::vector<unsigned>& values,
               bool isLatency, const std::vector<uint64_t>& cycles) {
  w.key(key);
  w.beginArray();
  for (size_t i = 0; i < values.size(); ++i) {
    w.beginObject();
    w.field(isLatency ? "latency" : "capacity", values[i]);
    w.field("cycles", cycles[i]);
    w.endObject();
  }
  w.endArray();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchCli cli = parseBenchCli(argc, argv);
  const std::vector<KernelInfo> kernels = selectKernels(cli);

  const uint64_t runStart = traceNowUs();

  // Compute every kernel's results. The pool claims kernels from a shared
  // counter; each task writes only its own slot, so any job count produces
  // the same stored results (the ROADMAP's kernel fan-out item).
  std::vector<KernelRun> runs(kernels.size());
  runIndexedTasks(cli.jobs, kernels.size(), [&](size_t i) {
    std::fprintf(stderr, "[bench_main] %s...\n", kernels[i].name);
    runs[i] = computeKernel(kernels[i], cli);
  });

  JsonWriter w;
  w.beginObject();
  w.field("bench", "dswp");
  // Which simulator generation produced the wall times (perf attribution
  // across PRs): the superblock trace runner on the pre-decoded records,
  // under the event-driven scheduler.
  w.field("engine", "superblock-event");
  w.field("quick", cli.quick);
  w.field("repeat", cli.repeat);
  w.key("kernels");
  w.beginArray();

  unsigned okCount = 0;
  double speedupTwillSum = 0, powerTwillSum = 0;
  for (const KernelRun& kr : runs) {
    w.beginObject();
    w.key("report");
    emitReport(w, kr.report);
    w.field("report_wall_ms", kr.reportMs);
    if (kr.report.ok) {
      ++okCount;
      speedupTwillSum += kr.report.speedupTwillvsSW();
      powerTwillSum += kr.report.powerTwill;
    }
    if (kr.hasSweeps) {
      emitSweep(w, "queue_latency_sweep", kQueueLatencySweep, /*isLatency=*/true,
                kr.latencyCycles);
      emitSweep(w, "queue_capacity_sweep", kQueueCapacitySweep, /*isLatency=*/false,
                kr.capacityCycles);
      w.field("sweep_wall_ms", kr.sweepMs);
    }
    w.endObject();
  }
  w.endArray();

  w.key("summary");
  w.beginObject();
  w.field("kernels_run", static_cast<uint64_t>(kernels.size()));
  w.field("kernels_ok", okCount);
  w.field("avg_speedup_twill_vs_sw", okCount ? speedupTwillSum / okCount : 0.0);
  w.field("avg_power_twill", okCount ? powerTwillSum / okCount : 0.0);
  w.field("total_wall_ms", msSince(runStart));
  w.endObject();
  w.endObject();

  if (cli.out.empty() || cli.out == "-") {
    std::printf("%s\n", w.str().c_str());
  } else {
    std::FILE* f = std::fopen(cli.out.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_main: cannot write '%s'\n", cli.out.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", w.str().c_str());
    std::fclose(f);
    std::fprintf(stderr, "[bench_main] wrote %s (%u/%zu kernels ok)\n", cli.out.c_str(),
                 okCount, kernels.size());
  }
  return okCount == kernels.size() ? 0 : 1;
}
