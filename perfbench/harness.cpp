// perfbench_harness — the in-process half of the repo benchmark
// (perfbench/README.md has the workloads, metrics and the layer table).
//
//   perfbench_harness chstone --seed N --seconds S --trace 0|1 [options]
//   perfbench_harness progen  --seed N --seconds S --trace 0|1 [options]
//   perfbench_harness serve-plan --seed N --count C --out FILE [--mix M]
//   perfbench_harness layers --seed N --seconds S < "EXPECT REQUEST" lines
//   perfbench_harness reference < requests.jsonl > reports.jsonl
//   perfbench_harness rss-probe chstone | progen SEED...
//
// The two workload commands print one result line (the benchmark's JSON
// contract) as the last line of stdout. Every timed operation is one
// `runBenchmark` call or one `simulateTwill` re-simulation. With --trace 1
// the same operations are additionally replayed layer by layer: the harness
// calls each layer's public entry point in the order runBenchmark uses,
// records a span around every call (Chrome JSON through TraceRecorder, one
// operation id per replay), and checks that the replay reproduces
// runBenchmark's report fields exactly. Per-layer numbers come only from
// that traced pass; end-to-end numbers only from the untraced one.
//
// serve-plan draws a twilld request stream for perfbench/serve_mix.py;
// reference answers requests in-process through runCompileRequest, the
// oracle served reports are compared against; layers is the traced pass
// over the programs a serve-mix run served. rss-probe is the fresh process
// peak_rss_mb is measured in.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/chstone/kernels.h"
#include "src/driver/driver.h"
#include "src/driver/request.h"
#include "src/frontend/lower.h"
#include "src/fuzz/progen.h"
#include "src/hls/schedule.h"
#include "src/ir/interp.h"
#include "src/ir/verifier.h"
#include "src/obs/trace.h"
#include "src/support/json.h"
#include "src/transforms/passes.h"
#include "src/verify/partition_verifier.h"

using namespace twill;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Seeded randomness and summary statistics.
// ---------------------------------------------------------------------------

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(splitmix64(seed ^ 0x7065726662656e63ull)) {}
  uint64_t next() {
    state_ = splitmix64(state_);
    return state_;
  }
  uint64_t below(uint64_t n) { return next() % n; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  uint64_t state_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double logSum = 0;
  for (double x : v) logSum += std::log(x);
  return std::exp(logSum / static_cast<double>(v.size()));
}

/// Worker threads per run: one per CPU, at most 4. Every timed operation
/// runs on one thread; side by side, the workers gather samples at several
/// moments and on several CPUs at once, which the low-quantile summaries
/// below rely on.
unsigned workerCount() { return std::max(1u, std::min(4u, std::thread::hardware_concurrency())); }

/// Runs fn(0..n-1) on workerCount() threads.
template <typename F>
void parallelFor(size_t n, F fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < workerCount(); ++t)
    pool.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  for (std::thread& t : pool) t.join();
}

/// Timed set-ups per run; setup_s is their median. The set-up before the
/// measured window is the same work, untimed: a run's first second or so
/// often finds the host's CPUs in a slower state, which would otherwise
/// decide setup_s on its own. The timed repeats follow the window, on a
/// host the run has kept busy.
constexpr unsigned kSetupReps = 5;

/// Runs `setUp` kSetupReps times and returns each run's seconds.
template <typename F>
std::vector<double> timeSetups(F setUp) {
  std::vector<double> s;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    setUp();
    s.push_back(msBetween(t0, Clock::now()) / 1000.0);
  }
  return s;
}

/// High-water resident set of this process, in MiB.
double peakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f))
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  std::fclose(f);
  return kb / 1024.0;
}

/// Peak RSS, in MiB, of a fresh `perfbench_harness rss-probe <args>`
/// process: it runs the given operations one at a time and reports its
/// high-water RSS, which then depends on neither the workers' overlap nor
/// what the measuring process has allocated before. 0 if the probe fails.
double probePeakRssMb(const std::string& args) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) return 0;
  exe[len] = '\0';
  std::FILE* p = popen(("'" + std::string(exe) + "' rss-probe " + args).c_str(), "r");
  if (!p) return 0;
  double mb = 0;
  if (std::fscanf(p, "%lf", &mb) != 1) mb = 0;
  return pclose(p) == 0 ? mb : 0;
}

// ---------------------------------------------------------------------------
// The result line.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The result line. op() and check() are called from every worker.
struct Result {
  std::mutex mu;  // guards attempted/failed/checksOk
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool checksOk = true;  // non-operation checks (setup, replay equality)
  std::vector<Metric> metrics;

  /// Counts one operation; a failed one is reported on stderr and counted.
  void op(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 5) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
  }
  void check(bool ok, const std::string& what) {
    if (ok) return;
    std::lock_guard<std::mutex> lock(mu);
    checksOk = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED %s\n", what.c_str());
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void print() const {
    char num[64];
    std::string out = "{\"correct\": ";
    out += checksOk && failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::snprintf(num, sizeof(num), "%.17g", metrics[i].value);
      out += (i ? ", " : "") + jsonQuote(metrics[i].name) + ": {\"value\": " + num +
             ", \"unit\": " + jsonQuote(metrics[i].unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }
};

// ---------------------------------------------------------------------------
// Layer-by-layer replay of runBenchmark.
// ---------------------------------------------------------------------------

enum Layer : unsigned {
  kFrontend,   // compileC
  kTransforms, // runDefaultPipeline
  kIrVerify,   // both verifyModule calls
  kGolden,     // Interp + runChecked
  kSimSW,      // simulatePureSW
  kHls,        // both scheduleModule calls
  kSimHW,      // simulatePureHW
  kDswp,       // runDswp
  kVerify,     // verifyPartition
  kDecode,     // SimProgram construction
  kSimTwill,   // simulateTwill
  kNumLayers
};

const char* const kLayerNames[kNumLayers] = {
    "frontend", "transforms", "ir_verify", "golden", "sim_sw",   "hls",
    "sim_hw",   "dswp",       "verify",    "exec.decode", "sim_twill"};

/// Wall time of every layer call in one replay, plus the work counts the
/// layers report back (all deterministic).
struct LayerSample {
  double ms[kNumLayers] = {};
  double parseMs = 0, lowerMs = 0, pdgMs = 0;
  double opMs = 0;  // the whole replay
  uint64_t frontendInsts = 0, transformInsts = 0, dswpInsts = 0;
  uint64_t threads = 0, channels = 0, hlsFunctions = 0, goldenRetired = 0;
  uint64_t swCycles = 0, hwCycles = 0;
  SimOutcome twill;

  double layerSum() const {
    double s = 0;
    for (double x : ms) s += x;
    return s;
  }
};

/// The benchmark's own spans, written into one TraceRecorder shared by all
/// workers: one Chrome row per worker, one span per layer call, and every
/// span of one operation tagged with that operation's id.
class SpanSink {
 public:
  SpanSink(TraceRecorder& rec, uint32_t worker, std::atomic<uint64_t>& opIds,
           Clock::time_point epoch)
      : rec_(rec), worker_(worker), opIds_(opIds), epoch_(epoch) {
    rec_.setProcessName(kPid, "perfbench layers (wall us)");
    rec_.setThreadName(kPid, worker_, "worker " + std::to_string(worker_));
    cat_ = rec_.intern("layer");
  }
  void beginOp(const std::string& what) {
    detail_ = rec_.intern("op " + std::to_string(++opIds_) + " " + what);
  }
  void span(const char* name, Clock::time_point b, Clock::time_point e) {
    rec_.span(kPid, worker_, cat_, rec_.intern(name), us(b), us(e), detail_);
  }

 private:
  static constexpr uint32_t kPid = 9;
  uint64_t us(Clock::time_point t) const {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_).count());
  }
  TraceRecorder& rec_;
  uint32_t worker_;
  std::atomic<uint64_t>& opIds_;
  Clock::time_point epoch_;
  TraceRecorder::StrId cat_ = TraceRecorder::kNoStr;
  TraceRecorder::StrId detail_ = TraceRecorder::kNoStr;
};

/// The area helpers runBenchmark keeps private, restated from its rules.
std::set<const Function*> hwFunctions(const DswpResult& dswp) {
  std::set<const Function*> hw;
  std::vector<Function*> work;
  for (const auto& t : dswp.threads)
    if (t.isHW && hw.insert(t.fn).second) work.push_back(t.fn);
  while (!work.empty()) {
    Function* f = work.back();
    work.pop_back();
    for (auto& bb : f->blocks())
      for (auto& inst : *bb)
        if (inst->op() == Opcode::Call && hw.insert(inst->callee()).second)
          work.push_back(inst->callee());
  }
  return hw;
}

AreaEstimate runtimeArea(const DswpResult& dswp, unsigned hwThreadCount) {
  AreaEstimate a;
  a.luts += static_cast<unsigned>(dswp.channels.size()) * PrimitiveAreas::kQueueLuts;
  a.dsps += static_cast<unsigned>(dswp.channels.size()) * PrimitiveAreas::kQueueDsps;
  a.luts += static_cast<unsigned>(dswp.semaphores.size()) * PrimitiveAreas::kSemaphoreLuts;
  a.luts += hwThreadCount * PrimitiveAreas::kHwInterfaceLuts;
  a.luts += PrimitiveAreas::kProcessorIfaceLuts;
  a.luts += PrimitiveAreas::kSchedulerLuts;
  a.dsps += PrimitiveAreas::kSchedulerDsps;
  a.luts += 2 * PrimitiveAreas::kBusArbiterLuts;
  return a;
}

/// runBenchmark with default DriverOptions, rebuilt from the layers' public
/// entry points, each call timed (and spanned when `sink` is set).
BenchmarkReport replayLayers(const std::string& name, const std::string& source, LayerSample& s,
                             SpanSink* sink) {
  const DriverOptions opts;
  BenchmarkReport rep;
  rep.name = name;
  rep.ranSW = rep.ranHW = rep.ranTwill = true;
  SimConfig sim = opts.sim;
  sim.memoryBytes = opts.limits.memLimitBytes;
  sim.wallBudgetMs = opts.limits.stageTimeoutMs;

  const Clock::time_point opStart = Clock::now();
  if (sink) sink->beginOp(name);
  auto timed = [&](Layer layer, auto&& fn) {
    const Clock::time_point b = Clock::now();
    fn();
    const Clock::time_point e = Clock::now();
    s.ms[layer] += msBetween(b, e);
    if (sink) sink->span(kLayerNames[layer], b, e);
  };
  auto finish = [&]() -> BenchmarkReport& {
    s.opMs = msBetween(opStart, Clock::now());
    return rep;
  };

  auto m = std::make_unique<Module>();
  DiagEngine diag;
  CompileTimes ct;
  bool ok = false;
  timed(kFrontend, [&] { ok = compileC(source, *m, diag, &ct, &opts.limits); });
  s.parseMs = ct.parseMs;
  s.lowerMs = ct.lowerMs;
  if (!ok) {
    rep.error = "compile failed:\n" + diag.str();
    rep.failureKind = diag.hasResourceError() ? FailureKind::Resource : FailureKind::Compile;
    return finish();
  }
  if (!m->findFunction("main")) {
    rep.error = "compile failed:\n<source>:1:1: error: no 'main' function defined";
    rep.failureKind = FailureKind::Compile;
    return finish();
  }
  s.frontendInsts = m->instructionCount();
  timed(kTransforms,
        [&] { runDefaultPipeline(*m, opts.inlineThreshold, opts.limits.maxIrInstructions); });
  s.transformInsts = m->instructionCount();
  {
    DiagEngine vd;
    timed(kIrVerify, [&] { ok = verifyModule(*m, vd); });
    if (!ok) {
      rep.error = "verification failed after optimization:\n" + vd.str();
      rep.failureKind = FailureKind::Verify;
      return finish();
    }
  }
  InterpOutcome golden;
  timed(kGolden, [&] {
    Interp in(*m, opts.limits.memLimitBytes);
    golden = in.runChecked(m->findFunction("main"), {}, opts.limits.maxInterpSteps,
                           opts.limits.stageTimeoutMs);
    s.goldenRetired = in.retired();
  });
  if (!golden.ok) {
    rep.error = "golden execution failed: " + golden.message;
    rep.failureKind = golden.resource ? FailureKind::Resource : FailureKind::Sim;
    return finish();
  }
  rep.expected = golden.result;
  timed(kSimSW, [&] { rep.sw = simulatePureSW(*m, sim); });
  s.swCycles = rep.sw.cycles;
  if (!rep.sw.ok || rep.sw.result != rep.expected) {
    rep.error = "pure-SW flow failed";
    rep.failureKind = FailureKind::Sim;
    return finish();
  }
  ScheduleMap baseSchedules;
  timed(kHls, [&] { baseSchedules = scheduleModule(*m, opts.hls); });
  timed(kSimHW, [&] { rep.hw = simulatePureHW(*m, baseSchedules, sim); });
  s.hwCycles = rep.hw.cycles;
  if (!rep.hw.ok || rep.hw.result != rep.expected) {
    rep.error = "pure-HW flow failed";
    rep.failureKind = FailureKind::Sim;
    return finish();
  }
  for (auto& [fn, sched] : baseSchedules) rep.areas.legup += sched.area;
  rep.areas.legup.brams += bramBlocksForGlobals(*m);

  DswpResult dswp;
  timed(kDswp, [&] { dswp = runDswp(*m, opts.dswp); });
  s.pdgMs = dswp.pdgWallMs;
  s.dswpInsts = m->instructionCount();
  s.threads = dswp.threads.size();
  s.channels = dswp.channels.size();
  {
    DiagEngine vd;
    timed(kIrVerify, [&] { ok = verifyModule(*m, vd); });
    if (!ok) {
      rep.error = "verification failed after DSWP:\n" + vd.str();
      rep.failureKind = FailureKind::Verify;
      return finish();
    }
  }
  {
    DiagEngine vd;
    timed(kVerify, [&] { ok = verifyPartition(*m, dswp, vd); });
    if (!ok) {
      rep.error = "partition verification failed:\n" + vd.str();
      rep.failureKind = FailureKind::Verify;
      for (const auto& d : vd.all()) {
        const char* kind = d.kind == DiagKind::Error     ? "error"
                           : d.kind == DiagKind::Warning ? "warning"
                                                         : "note";
        rep.verifyDiagnostics.push_back(std::string(kind) + ": " + d.message);
      }
      return finish();
    }
  }
  rep.queues = dswp.totalQueues();
  rep.semaphores = dswp.totalSemaphores();
  rep.hwThreads = dswp.hwThreadCount();
  for (const auto& t : dswp.threads)
    if (!t.isHW) ++rep.swThreads;

  ScheduleMap twillSchedules;
  timed(kHls, [&] { twillSchedules = scheduleModule(*m, opts.hls, baseSchedules); });
  s.hlsFunctions = baseSchedules.size() + twillSchedules.size();
  std::unique_ptr<SimProgram> prog;
  timed(kDecode, [&] { prog = std::make_unique<SimProgram>(*m, twillSchedules); });
  timed(kSimTwill, [&] { rep.twill = simulateTwill(*m, dswp, sim, twillSchedules, prog.get()); });
  s.twill = rep.twill;
  if (!acceptTwillOutcome(rep)) return finish();

  for (const Function* f : hwFunctions(dswp)) {
    auto it = twillSchedules.find(f);
    if (it != twillSchedules.end()) rep.areas.twillHwThreads += it->second.area;
  }
  rep.areas.twillTotal = rep.areas.twillHwThreads;
  rep.areas.twillTotal += runtimeArea(dswp, rep.hwThreads);
  rep.areas.twillPlusMicroblaze = rep.areas.twillTotal;
  rep.areas.twillPlusMicroblaze.luts += PrimitiveAreas::kMicroblazeLuts;
  rep.areas.twillPlusMicroblaze.brams += PrimitiveAreas::kMicroblazeBrams;
  computePower(rep);
  rep.ok = true;
  return finish();
}

/// The report document minus its wall-clock stage times: what the replay
/// must reproduce byte for byte.
std::string reportFields(BenchmarkReport r) {
  r.stages = StageTimes{};
  return reportToJson(r);
}

/// Scheduler-row phase totals of one traced Twill simulation (sim cycles,
/// so deterministic): per-inst vs burst cycles and the phase count.
struct PhaseStats {
  uint64_t perInstCycles = 0;
  uint64_t burstCycles = 0;
  uint64_t phases = 0;
};

PhaseStats phaseStats(const std::string& traceJson) {
  PhaseStats ps;
  uint64_t begin = 0;
  size_t pos = 0;
  while (pos < traceJson.size()) {
    size_t eol = traceJson.find('\n', pos);
    if (eol == std::string::npos) eol = traceJson.size();
    const std::string line = traceJson.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.find("\"cat\":\"sched\"") == std::string::npos) continue;
    const bool burst = line.find("\"name\":\"burst\"") != std::string::npos;
    if (!burst && line.find("\"name\":\"per-inst\"") == std::string::npos) continue;
    const size_t ts = line.find("\"ts\":");
    if (ts == std::string::npos) continue;
    const uint64_t t = std::strtoull(line.c_str() + ts + 5, nullptr, 10);
    if (line.find("\"ph\":\"B\"") != std::string::npos) {
      begin = t;
    } else {
      (burst ? ps.burstCycles : ps.perInstCycles) += t - begin;
      ++ps.phases;
    }
  }
  return ps;
}

/// Runs one default-config Twill simulation with a sim recorder attached.
PhaseStats tracedPhases(TwillArtifacts& art, SimProgram& prog) {
  TraceRecorder rec;
  SimConfig sc;
  sc.trace = &rec;
  simulateTwill(*art.module, art.dswp, sc, art.schedules, &prog);
  return phaseStats(rec.toJson());
}

/// Every samples list and count the traced pass gathers for one operation.
struct OpLayers {
  std::vector<double> layer[kNumLayers];
  std::vector<double> parse, lower, pdg, replayMs, unattributed, runBenchmarkMs;
  std::vector<double> resimMs;  // re-simulations on the operation's shared decode
  LayerSample counts;  // from the first replay (all deterministic)
  PhaseStats phases;

  void add(const LayerSample& s, double rbMs) {
    if (replayMs.empty()) counts = s;
    for (unsigned l = 0; l < kNumLayers; ++l) layer[l].push_back(s.ms[l]);
    parse.push_back(s.parseMs);
    lower.push_back(s.lowerMs);
    pdg.push_back(s.pdgMs);
    replayMs.push_back(s.opMs);
    unattributed.push_back(s.opMs - s.layerSum());
    runBenchmarkMs.push_back(rbMs);
  }
};

/// The per-layer metrics over a set of operations: times are the mean over
/// operations of each operation's median; counts are sums over the set.
void addLayerMetrics(Result& r, const std::vector<const OpLayers*>& ops) {
  const double n = static_cast<double>(ops.size());
  auto meanOfMedians = [&](auto pick) {
    double s = 0;
    for (const OpLayers* o : ops) s += median(pick(*o));
    return s / n;
  };
  auto total = [&](auto pick) {
    uint64_t s = 0;
    for (const OpLayers* o : ops) s += pick(*o);
    return static_cast<double>(s);
  };
  auto layerMs = [&](Layer l) { return meanOfMedians([l](const OpLayers& o) { return o.layer[l]; }); };

  r.add("frontend.parse_ms", meanOfMedians([](const OpLayers& o) { return o.parse; }), "ms");
  r.add("frontend.lower_ms", meanOfMedians([](const OpLayers& o) { return o.lower; }), "ms");
  r.add("frontend.ir_insts", total([](const OpLayers& o) { return o.counts.frontendInsts; }), "count");
  r.add("transforms.ms", layerMs(kTransforms), "ms");
  r.add("transforms.ir_insts", total([](const OpLayers& o) { return o.counts.transformInsts; }), "count");
  r.add("ir_verify.ms", layerMs(kIrVerify), "ms");
  r.add("dswp.ms", layerMs(kDswp), "ms");
  r.add("dswp.pdg_ms", meanOfMedians([](const OpLayers& o) { return o.pdg; }), "ms");
  r.add("dswp.threads", total([](const OpLayers& o) { return o.counts.threads; }), "count");
  r.add("dswp.channels", total([](const OpLayers& o) { return o.counts.channels; }), "count");
  r.add("dswp.ir_insts", total([](const OpLayers& o) { return o.counts.dswpInsts; }), "count");
  r.add("verify.ms", layerMs(kVerify), "ms");
  r.add("hls.ms", layerMs(kHls), "ms");
  r.add("hls.functions", total([](const OpLayers& o) { return o.counts.hlsFunctions; }), "count");
  r.add("golden.ms", layerMs(kGolden), "ms");
  r.add("golden.retired", total([](const OpLayers& o) { return o.counts.goldenRetired; }), "count");

  // ns per simulated cycle: median sim time over the op's cycle count.
  auto nsPerCycle = [&](Layer l, auto cycles) {
    double ms = 0, cyc = 0;
    for (const OpLayers* o : ops) {
      ms += median(o->layer[l]);
      cyc += static_cast<double>(cycles(*o));
    }
    return cyc > 0 ? ms * 1e6 / cyc : 0;
  };
  r.add("sim_sw.ms", layerMs(kSimSW), "ms");
  r.add("sim_sw.ns_per_cycle", nsPerCycle(kSimSW, [](const OpLayers& o) { return o.counts.swCycles; }),
        "ns/cycle");
  r.add("sim_hw.ms", layerMs(kSimHW), "ms");
  r.add("sim_hw.ns_per_cycle", nsPerCycle(kSimHW, [](const OpLayers& o) { return o.counts.hwCycles; }),
        "ns/cycle");
  r.add("exec.decode_ms", layerMs(kDecode), "ms");
  r.add("sim_twill.ms", layerMs(kSimTwill), "ms");
  r.add("sim_twill.ns_per_cycle",
        nsPerCycle(kSimTwill, [](const OpLayers& o) { return o.counts.twill.cycles; }), "ns/cycle");
  r.add("sim_twill.cycles", total([](const OpLayers& o) { return o.counts.twill.cycles; }), "count");
  r.add("sim_twill.retired",
        total([](const OpLayers& o) { return o.counts.twill.retiredSW + o.counts.twill.retiredHW; }),
        "count");
  r.add("sim_twill.queue_ops", total([](const OpLayers& o) { return o.counts.twill.queueOps; }),
        "count");
  r.add("sim_twill.context_switches",
        total([](const OpLayers& o) { return o.counts.twill.contextSwitches; }), "count");
  r.add("sim_twill.resim_ms", meanOfMedians([](const OpLayers& o) { return o.resimMs; }), "ms");
  r.add("driver.unattributed_ms", meanOfMedians([](const OpLayers& o) { return o.unattributed; }),
        "ms");

  double layersMs = 0, rbMs = 0, replayMs = 0;
  for (const OpLayers* o : ops) {
    double opLayers = 0;
    for (unsigned l = 0; l < kNumLayers; ++l) opLayers += median(o->layer[l]);
    layersMs += opLayers;
    rbMs += median(o->runBenchmarkMs);
    replayMs += median(o->replayMs);
  }
  r.add("driver.layer_coverage", rbMs > 0 ? layersMs / rbMs : 0, "ratio");
  r.add("trace.overhead_pct", rbMs > 0 ? (replayMs / rbMs - 1) * 100 : 0, "%");

  // Phase metrics: one traced default-config simulation per operation.
  uint64_t perInst = 0, burst = 0, switches = 0;
  for (const OpLayers* o : ops) {
    perInst += o->phases.perInstCycles;
    burst += o->phases.burstCycles;
    if (o->phases.phases > 0) switches += o->phases.phases - 1;
  }
  r.add("sim_twill.per_inst_share",
        perInst + burst ? static_cast<double>(perInst) / static_cast<double>(perInst + burst) : 0,
        "ratio");
  r.add("sim_twill.phase_switches", static_cast<double>(switches), "count");
}

/// Rejects and long runs the workload's program draw replaced (none for
/// the fixed kernel set).
struct DrawStats {
  uint64_t verifyRejects = 0;
  uint64_t longRuns = 0;
  uint64_t other = 0;
};

void addDrawMetrics(Result& r, const DrawStats& drawn) {
  r.add("verify.rejects", static_cast<double>(drawn.verifyRejects), "count");
  r.add("progen.long_runs", static_cast<double>(drawn.longRuns), "count");
}

/// The end-to-end metrics every in-process workload reports. `opMs` holds
/// one time per program of the set; the percentiles are taken over the set.
/// peak_rss_mb is the median over one probe process per `rssProbes` entry.
void addEndToEnd(Result& r, const std::vector<double>& opMs, const std::vector<double>& speedups,
                 const std::vector<double>& powers, const std::vector<double>& setupS,
                 const std::vector<std::string>& rssProbes) {
  r.add("op_ms_p50", percentile(opMs, 0.50), "ms");
  r.add("op_ms_p99", percentile(opMs, 0.99), "ms");
  r.add("twill_speedup", geomean(speedups), "x");
  double powerSum = 0;
  for (double p : powers) powerSum += p;
  r.add("twill_power", powerSum / static_cast<double>(powers.size()), "ratio");
  r.add("setup_s", median(setupS), "s");
  std::vector<double> rss;
  for (const std::string& probe : rssProbes) {
    rss.push_back(probePeakRssMb(probe));
    r.check(rss.back() > 0, "peak-RSS probe " + probe);
  }
  r.add("peak_rss_mb", median(rss), "MiB");
}

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

struct Options {
  std::string command;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string traceOut;       // Chrome JSON of the layer spans (--trace 1)
  // progen: programs per set. p99 leaves 20 beyond; which programs a seed
  // draws for the tail then moves p99 about half as much as with 1000.
  unsigned programs = 2000;
  uint64_t count = 0;         // serve-plan: requests to draw
  std::string out;            // serve-plan: output file
  std::string mix = "serve-mix";  // serve-plan: whose requests (chstone|progen|serve-mix)
  std::string wrongExpected;  // self-test: kernel (or "progen": one program of the set)
                              // whose expected checksum is corrupted
};

/// Hand-written expected `main` results of the eight CHStone kernels: the
/// outputs every flow must reproduce.
const std::map<std::string, uint32_t> kChstoneExpected = {
    {"mips", 531892058u},  {"adpcm", 454751737u}, {"aes", 1703749786u},
    {"blowfish", 2101464826u}, {"gsm", 401153065u}, {"jpeg", 489179844u},
    {"mpeg2", 111004674u}, {"sha", 1847330246u}};

uint32_t expectedChecksum(const Options& opts, const std::string& kernel) {
  auto it = kChstoneExpected.find(kernel);
  const uint32_t v = it == kChstoneExpected.end() ? 0 : it->second;
  return kernel == opts.wrongExpected ? v ^ 1u : v;
}

/// Every flow ran, succeeded and returned `expected`.
bool flowsMatch(const BenchmarkReport& r, uint32_t expected) {
  return r.ok && r.ranSW && r.ranHW && r.ranTwill && r.expected == expected &&
         r.sw.result == expected && r.hw.result == expected && r.twill.result == expected;
}

bool writeTrace(const TraceRecorder& rec, const std::string& path) {
  if (path.empty()) return true;
  std::string error;
  if (!rec.writeFile(path, error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Workload `chstone`: the 8 kernels through runBenchmark; the traced pass
// adds the Fig. 6.5/6.6 queue latency x capacity points re-simulated on one
// decode.
// ---------------------------------------------------------------------------

const unsigned kSweepLatency[] = {2, 8, 32, 128};
const unsigned kSweepCapacity[] = {2, 4, 8, 16, 32};
// Re-simulations per kernel per pass of the traced run: interleaves the two
// operation kinds so both collect many samples in any run length.
constexpr unsigned kResimsPerKernelPass = 4;
// The quantile an operation's repeated samples are summarized by.
constexpr double kLowQuantile = 0.01;

/// One kernel's shared state: its sweep points and the samples every
/// worker appends.
struct KernelRun {
  const KernelInfo* info = nullptr;
  uint32_t expected = 0;
  std::vector<std::pair<unsigned, unsigned>> points;  // (latency, capacity)
  std::mutex mu;  // guards everything below
  std::map<std::pair<unsigned, unsigned>, uint64_t> pointCycles;
  std::vector<double> reportMs;
  OpLayers layers;
};

/// One worker's private copy of a kernel: the kept artifacts and the decode
/// its re-simulations run on (a SimProgram is not safe to share between
/// concurrent simulations).
struct KernelCopy {
  BenchmarkReport anchor;
  std::unique_ptr<SimProgram> prog;
  size_t nextPoint = 0;
};

int runChstone(const Options& opts) {
  Result res;
  Rng rng(opts.seed);
  const unsigned workers = workerCount();
  std::vector<KernelRun> runs(chstoneKernels().size());
  for (size_t i = 0; i < runs.size(); ++i) {
    KernelRun& kr = runs[i];
    kr.info = &chstoneKernels()[i];
    kr.expected = expectedChecksum(opts, kr.info->name);
    for (unsigned lat : kSweepLatency)
      for (unsigned cap : kSweepCapacity) kr.points.push_back({lat, cap});
    rng.shuffle(kr.points);
  }

  // Set-up: every worker's first-call warm-up of every kernel plus the
  // shared decode its re-simulations run on (timed after the run, see
  // kSetupReps).
  std::vector<std::vector<KernelCopy>> copies(workers);
  for (auto& c : copies) c.resize(runs.size());
  auto setUp = [&] {
    parallelFor(workers, [&](size_t w) {
      for (size_t k = 0; k < runs.size(); ++k) {
        KernelCopy& kc = copies[w][k];
        kc.prog.reset();  // references the previous anchor's module
        DriverOptions dopts;
        dopts.keepTwillArtifacts = true;
        kc.anchor = runBenchmark(runs[k].info->name, runs[k].info->source, dopts);
        if (kc.anchor.ok && kc.anchor.twillArtifacts)
          kc.prog = std::make_unique<SimProgram>(*kc.anchor.twillArtifacts->module,
                                                 kc.anchor.twillArtifacts->schedules);
      }
    });
  };
  setUp();
  for (size_t k = 0; k < runs.size(); ++k) {
    KernelRun& kr = runs[k];
    for (unsigned w = 0; w < workers; ++w) {
      res.check(flowsMatch(copies[w][k].anchor, kr.expected) && copies[w][k].prog != nullptr,
                std::string("set-up report of ") + kr.info->name);
      if (!copies[w][k].prog) {
        res.print();
        return 1;
      }
    }
    // The layer-by-layer replay must reproduce runBenchmark's fields.
    LayerSample s;
    const BenchmarkReport replay = replayLayers(kr.info->name, kr.info->source, s, nullptr);
    res.check(reportFields(replay) == reportFields(copies[0][k].anchor),
              std::string("layer replay differs from runBenchmark on ") + kr.info->name);
    if (opts.trace) kr.layers.phases = tracedPhases(*copies[0][k].anchor.twillArtifacts, *copies[0][k].prog);
  }

  TraceRecorder rec;
  std::atomic<uint64_t> opIds{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(opts.seconds));
  std::atomic<unsigned> passes{0};
  parallelFor(workers, [&](size_t w) {
    Rng wrng(opts.seed * 1315423911u + w);
    SpanSink sink(rec, static_cast<uint32_t>(w), opIds, start);
    std::vector<size_t> order(runs.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    do {
      wrng.shuffle(order);
      for (size_t k : order) {
        KernelRun& kr = runs[k];
        KernelCopy& kc = copies[w][k];
        const std::string name = kr.info->name;
        Clock::time_point t0 = Clock::now();
        const BenchmarkReport rep = runBenchmark(name, kr.info->source);
        const double ms = msBetween(t0, Clock::now());
        res.op(flowsMatch(rep, kr.expected), "runBenchmark " + name);
        LayerSample s;
        if (opts.trace) {
          const BenchmarkReport replay = replayLayers(name, kr.info->source, s, &sink);
          res.check(reportFields(replay) == reportFields(rep), "layer replay of " + name);
        }
        {
          std::lock_guard<std::mutex> lock(kr.mu);
          kr.reportMs.push_back(ms);
          if (opts.trace) kr.layers.add(s, ms);
        }
        TwillArtifacts& art = *kc.anchor.twillArtifacts;
        for (unsigned j = 0; opts.trace && j < kResimsPerKernelPass; ++j) {
          const auto point = kr.points[kc.nextPoint++ % kr.points.size()];
          SimConfig sc;
          sc.queueLatency = point.first;
          sc.queueCapacity = point.second;
          if (opts.trace) sink.beginOp(name + " resim");
          t0 = Clock::now();
          const SimOutcome out = simulateTwill(*art.module, art.dswp, sc, art.schedules, kc.prog.get());
          const Clock::time_point t1 = Clock::now();
          if (opts.trace) sink.span("sim_twill", t0, t1);
          bool sameCycles = true;
          {
            std::lock_guard<std::mutex> lock(kr.mu);
            kr.layers.resimMs.push_back(msBetween(t0, t1));
            // Same point, same cycles: the first run of a point pins its count.
            uint64_t& pinned = kr.pointCycles[point];
            if (pinned == 0) pinned = out.cycles;
            sameCycles = out.cycles == pinned;
          }
          res.op(out.ok && out.result == kr.expected && sameCycles,
                 "resim " + name + " latency " + std::to_string(point.first) + " capacity " +
                     std::to_string(point.second));
        }
      }
      ++passes;
    } while (Clock::now() < deadline);
  });

  // Per kernel, the first percentile of its samples: on a shared host a CPU
  // alternates between states up to ~1.6x apart for seconds at a time, and
  // a median flips with whichever state held the larger share of the run,
  // while a low percentile tracks the uncontended speed whenever a few of
  // the samples saw it.
  std::vector<double> reportLow, speedups, powers;
  for (const KernelRun& kr : runs) reportLow.push_back(percentile(kr.reportMs, kLowQuantile));
  for (const KernelCopy& kc : copies[0]) {
    speedups.push_back(kc.anchor.speedupTwillvsSW());
    powers.push_back(kc.anchor.powerTwill);
  }
  std::printf("chstone: %u workers, %u passes, %zu runBenchmark and %zu re-simulation samples per kernel\n",
              workers, passes.load(), runs[0].reportMs.size(), runs[0].layers.resimMs.size());
  if (!opts.trace) {
    addEndToEnd(res, reportLow, speedups, powers, timeSetups(setUp), {"chstone"});
  } else {
    std::vector<const OpLayers*> ops;
    for (const KernelRun& kr : runs) ops.push_back(&kr.layers);
    addLayerMetrics(res, ops);
    addDrawMetrics(res, DrawStats{});
    if (!writeTrace(rec, opts.traceOut)) res.check(false, "trace file");
  }
  res.print();
  return 0;
}

// ---------------------------------------------------------------------------
// Generated programs (progen), screened and checked against an independent
// interpreter. Shared by the `progen` workload and the serve-mix plan.
// ---------------------------------------------------------------------------

struct Program {
  uint64_t seed = 0;
  std::string name;
  std::string source;
  uint32_t expected = 0;  // the reference interpreter's result
};

/// Reference-interpreter step cap. About 3% of default-option programs run
/// longer (a few for seconds, one in the thousands for minutes); such
/// outliers would decide a run's tail on their own, so they are screened
/// out like verifier rejects.
constexpr uint64_t kMaxReferenceSteps = 100000;

enum class Screen : uint8_t { kUnscreened, kAccepted, kVerifyReject, kLongRun, kOther };

/// Screens one candidate: compile, extract and partition-verify it
/// (runBenchmark --verify-only), then take `main`'s result from the
/// tree-walking reference interpreter on the unoptimized module — an
/// expected value independent of the passes, DSWP and every simulator.
Screen screenProgram(Program& p) {
  DriverOptions verifyOnly;
  verifyOnly.verifyOnly = true;
  const BenchmarkReport rep = runBenchmark(p.name, p.source, verifyOnly);
  if (rep.failureKind == FailureKind::Verify) return Screen::kVerifyReject;
  if (!rep.ok) return Screen::kOther;
  Module m;
  DiagEngine diag;
  if (!compileC(p.source, m, diag)) return Screen::kOther;
  Memory mem;
  Layout layout;
  if (!layout.build(m, mem)) return Screen::kOther;
  FunctionalChannels chans;
  RefExecState st(m, layout, mem, chans, m.findFunction("main"));
  StepResult sr{};
  for (uint64_t steps = 0; steps <= kMaxReferenceSteps; ++steps) {
    sr = st.step();
    if (sr.status != StepStatus::Ran) break;
  }
  if (sr.status == StepStatus::Ran) return Screen::kLongRun;
  if (sr.status != StepStatus::Finished) return Screen::kOther;
  p.expected = st.result();
  return Screen::kAccepted;
}

/// Candidate sources drawn per program kept.
constexpr size_t kPoolFactor = 16;

/// Draws `want` generated programs (default ProgenOptions) from `rng`.
/// Program cost spans two orders of magnitude and tracks source length, so
/// a plain draw of a few hundred programs moves its own median by ~15%
/// from seed to seed. Instead the candidate pool holds kPoolFactor sources
/// per program wanted, sorted by length, and the picks are spaced evenly
/// through it: every set spans the same size distribution. A pick that
/// fails screening is replaced by its nearest unused neighbour in the pool
/// and counted, so no timed operation fails on a known gap. The result is
/// in length order.
std::vector<Program> drawPrograms(Rng& rng, size_t want, DrawStats& stats) {
  // Only (length, seed) is kept per candidate: generation is deterministic,
  // so the programs picked are generated again, and the pool never weighs
  // on the harness's peak RSS.
  std::vector<std::pair<size_t, uint64_t>> pool(want * kPoolFactor);
  for (auto& c : pool) c.second = rng.next();
  parallelFor(pool.size(), [&](size_t i) { pool[i].first = generateProgram(pool[i].second).size(); });
  std::sort(pool.begin(), pool.end());
  std::vector<Program> progs(pool.size());
  std::vector<Screen> verdict(pool.size(), Screen::kUnscreened);
  auto screen = [&](size_t i) {
    Program& p = progs[i];
    p.seed = pool[i].second;
    char name[32];
    std::snprintf(name, sizeof(name), "progen-%016" PRIx64, p.seed);
    p.name = name;
    p.source = generateProgram(p.seed);
    verdict[i] = screenProgram(p);
  };
  // Picks spread over the shortest 99% of the pool: the longest 1% are a
  // handful of extreme programs per seed that would decide p99 alone.
  const size_t span = pool.size() - pool.size() / 100;
  std::vector<size_t> picks(want);
  for (size_t i = 0; i < want; ++i) picks[i] = (2 * i + 1) * span / (2 * want);
  parallelFor(want, [&](size_t i) { screen(picks[i]); });

  std::vector<char> taken(pool.size(), 0);
  for (size_t idx : picks) taken[idx] = 1;
  std::vector<Program> out;
  for (size_t idx : picks) {
    size_t cur = idx;
    for (size_t k = 1; verdict[cur] != Screen::kAccepted; ++k) {
      if (k > pool.size()) {
        std::fprintf(stderr, "perfbench: no program in the pool passes screening\n");
        std::exit(1);
      }
      for (size_t cand : {idx + k, idx - k}) {  // unsigned wrap lands out of range
        if (cand >= pool.size() || taken[cand]) continue;
        taken[cand] = 1;
        screen(cand);
        cur = cand;
        if (verdict[cand] == Screen::kAccepted) break;
      }
    }
    out.push_back(std::move(progs[cur]));
  }
  for (Screen v : verdict) {
    if (v == Screen::kVerifyReject) ++stats.verifyRejects;
    if (v == Screen::kLongRun) ++stats.longRuns;
    if (v == Screen::kOther) ++stats.other;
  }
  if (stats.other)
    std::fprintf(stderr, "perfbench: %" PRIu64 " programs failed screening unexpectedly\n", stats.other);
  return out;
}

// ---------------------------------------------------------------------------
// Workload `progen`: generated programs, each through runBenchmark.
// ---------------------------------------------------------------------------

// peak_rss_mb probes this many programs of the set, each in its own process.
constexpr size_t kRssProbePrograms = 16;

struct ProgramRun {
  Program prog;
  double speedup = 0, power = 0;  // from the program's first report
  std::vector<double> ms;
  OpLayers layers;
};

/// Re-simulations per program in the traced run, on the decode of its
/// first sight.
constexpr unsigned kResimsPerProgram = 4;

/// Runs a program set through runBenchmark until the deadline and prints
/// the result line. `drawn` is the draw that made the set (progen); a set
/// read from a file (layers) has none and reports no draw metrics.
int runPrograms(const Options& opts, Rng& rng, std::vector<ProgramRun>& runs, const DrawStats* drawn) {
  Result res;
  const unsigned workers = workerCount();
  const size_t n = runs.size();
  if (n == 0) {
    std::fprintf(stderr, "perfbench: no programs to run\n");
    return 1;
  }

  // Set-up: every worker's first-call warm-up on four dozen programs spread
  // over the set (a drawn set is in length order, so over its size range;
  // with two dozen, which programs a seed drew moved setup_s by ~20%).
  // Timed after the run, see kSetupReps.
  const size_t warm = std::min<size_t>(48, n);
  auto setUp = [&] {
    parallelFor(workers, [&](size_t) {
      for (size_t j = 0; j < warm; ++j) {
        const Program& p = runs[(2 * j + 1) * n / (2 * warm)].prog;
        const BenchmarkReport r = runBenchmark(p.name, p.source);
        res.check(flowsMatch(r, p.expected), "set-up report of " + p.name);
      }
    });
  };
  setUp();

  // The operation stream: pass after pass over the set, each in its own
  // seeded order, claimed one operation at a time by the workers. The
  // first pass always completes, so every program is timed at least once;
  // later passes stop at the deadline.
  constexpr size_t kPassOrders = 16;
  std::vector<std::vector<size_t>> passOrder(kPassOrders, std::vector<size_t>(n));
  for (auto& order : passOrder) {
    for (size_t i = 0; i < n; ++i) order[i] = i;
    rng.shuffle(order);
  }
  std::vector<std::pair<unsigned, unsigned>> points;  // (latency, capacity)
  for (unsigned lat : kSweepLatency)
    for (unsigned cap : kSweepCapacity) points.push_back({lat, cap});
  TraceRecorder rec;
  std::atomic<uint64_t> opIds{0};
  std::atomic<size_t> nextOp{0};
  std::mutex samplesMu;  // guards every ProgramRun's ms/layers/speedup/power
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(opts.seconds));
  parallelFor(workers, [&](size_t w) {
    SpanSink sink(rec, static_cast<uint32_t>(w), opIds, start);
    for (size_t op; (op = nextOp.fetch_add(1)) < n || Clock::now() < deadline;) {
      const size_t index = passOrder[(op / n) % kPassOrders][op % n];
      ProgramRun& pr = runs[index];
      const Clock::time_point t0 = Clock::now();
      const BenchmarkReport rep = runBenchmark(pr.prog.name, pr.prog.source);
      const double ms = msBetween(t0, Clock::now());
      res.op(flowsMatch(rep, pr.prog.expected), "runBenchmark " + pr.prog.name);
      LayerSample s;
      PhaseStats phases;
      std::vector<double> resimMs;
      if (op < n) {
        // First sight of the program (untimed): the replay check, and in
        // the traced run the sim-phase totals and the re-simulations.
        if (!opts.trace) {
          const BenchmarkReport replay = replayLayers(pr.prog.name, pr.prog.source, s, nullptr);
          res.check(reportFields(replay) == reportFields(rep), "layer replay of " + pr.prog.name);
        } else {
          DriverOptions keep;
          keep.keepTwillArtifacts = true;
          BenchmarkReport anchor = runBenchmark(pr.prog.name, pr.prog.source, keep);
          if (anchor.ok && anchor.twillArtifacts) {
            TwillArtifacts& art = *anchor.twillArtifacts;
            SimProgram prog(*art.module, art.schedules);
            phases = tracedPhases(art, prog);
            for (unsigned j = 0; j < kResimsPerProgram; ++j) {
              const auto point = points[(index * kResimsPerProgram + j) % points.size()];
              SimConfig sc;
              sc.queueLatency = point.first;
              sc.queueCapacity = point.second;
              sink.beginOp(pr.prog.name + " resim");
              const Clock::time_point r0 = Clock::now();
              const SimOutcome out = simulateTwill(*art.module, art.dswp, sc, art.schedules, &prog);
              const Clock::time_point r1 = Clock::now();
              sink.span("sim_twill", r0, r1);
              resimMs.push_back(msBetween(r0, r1));
              res.op(out.ok && out.result == pr.prog.expected, "resim " + pr.prog.name);
            }
          }
        }
      }
      if (opts.trace) {
        const BenchmarkReport replay = replayLayers(pr.prog.name, pr.prog.source, s, &sink);
        res.check(reportFields(replay) == reportFields(rep), "layer replay of " + pr.prog.name);
      }
      std::lock_guard<std::mutex> lock(samplesMu);
      pr.ms.push_back(ms);
      if (op < n) {
        pr.speedup = rep.speedupTwillvsSW();
        pr.power = rep.powerTwill;
        pr.layers.phases = phases;
        pr.layers.resimMs = resimMs;
      }
      if (opts.trace) pr.layers.add(s, ms);
    }
  });

  // One time per program, the fastest of its samples (each program is run
  // several times, at different moments and on different workers): the
  // percentiles then describe the program set, not the host's state.
  std::vector<double> best, speedups, powers;
  size_t samples = 0;
  for (const ProgramRun& pr : runs) {
    best.push_back(*std::min_element(pr.ms.begin(), pr.ms.end()));
    samples += pr.ms.size();
    speedups.push_back(pr.speedup);
    powers.push_back(pr.power);
  }
  std::printf("%s: %zu programs (replaced: %" PRIu64 " verifier rejects, %" PRIu64
              " long runs), %u workers, %zu samples\n",
              opts.command.c_str(), n, drawn ? drawn->verifyRejects : 0, drawn ? drawn->longRuns : 0,
              workers, samples);
  if (!opts.trace) {
    // peak_rss_mb: one probe process per program, the programs spread
    // evenly over the set's range. The median of their peaks moves far less
    // with the seed than one process's peak over all of them.
    std::vector<std::string> probes;
    const size_t k = std::min(kRssProbePrograms, n);
    for (size_t j = 0; j < k; ++j)
      probes.push_back("progen " + std::to_string(runs[(2 * j + 1) * n / (2 * k)].prog.seed));
    addEndToEnd(res, best, speedups, powers, timeSetups(setUp), probes);
  } else {
    std::vector<const OpLayers*> ops;
    for (const ProgramRun& pr : runs) ops.push_back(&pr.layers);
    addLayerMetrics(res, ops);
    if (drawn) addDrawMetrics(res, *drawn);
    if (!writeTrace(rec, opts.traceOut)) res.check(false, "trace file");
  }
  res.print();
  return 0;
}

int runProgen(const Options& opts) {
  Rng rng(opts.seed);
  DrawStats drawn;
  std::vector<ProgramRun> runs;
  for (Program& p : drawPrograms(rng, opts.programs, drawn)) {
    runs.emplace_back();
    runs.back().prog = std::move(p);
  }
  if (opts.wrongExpected == "progen") runs[runs.size() / 2].prog.expected ^= 1u;  // self-test
  return runPrograms(opts, rng, runs, &drawn);
}

// ---------------------------------------------------------------------------
// layers: the traced pass over a given program set, one "EXPECT REQUEST"
// line each on stdin (REQUEST a CompileRequest document; its name and
// resolved source are used, its options are not). serve-mix runs it over
// the programs twilld served.
// ---------------------------------------------------------------------------

int runLayers(Options opts) {
  opts.trace = true;
  std::vector<ProgramRun> runs;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    char* rest = nullptr;
    const unsigned long expect = std::strtoul(line.c_str(), &rest, 10);
    CompileRequest req;
    std::string error;
    if (!parseCompileRequest(rest, req, error)) {
      std::fprintf(stderr, "perfbench_harness layers: %s\n", error.c_str());
      return 2;
    }
    runs.emplace_back();
    runs.back().prog = Program{0, req.name, req.source, static_cast<uint32_t>(expect)};
  }
  Rng rng(opts.seed);
  return runPrograms(opts, rng, runs, nullptr);
}

// ---------------------------------------------------------------------------
// serve-plan: a seeded twilld request stream, one JSON object a line.
//   {"kind": "prime"|"full"|"artifact"|"miss", "expect": N, "request": "<doc>"}
// The `prime` lines come first: one default request per primed program,
// submitted during set-up. A `full` line repeats one of them byte for byte;
// an `artifact` line asks for a primed program under Twill sim axes not
// drawn before; a `miss` line asks for something not compiled before. The
// mix decides what is primed and what a miss is:
//   serve-mix  the 8 CHStone kernels; misses are fresh generated programs
//   chstone    the 8 kernels; misses are kernels under a new sim.max_cycles
//              (a compile-cache axis that changes no result)
//   progen     8 generated programs; misses are fresh generated programs
// ---------------------------------------------------------------------------

/// One program a plan asks for: a built-in kernel or a source.
struct PlanProgram {
  std::string name, kernel, source;
  uint32_t expect = 0;

  std::string request(const std::string& sim) const {
    std::string doc = "{\"schema_version\": 1, \"name\": " + jsonQuote(name) +
                      (kernel.empty() ? ", \"source\": " + jsonQuote(source)
                                      : ", \"kernel\": " + jsonQuote(kernel));
    if (!sim.empty()) doc += ", \"sim\": {" + sim + "}";
    return doc + "}";
  }
};

std::string planLine(const char* kind, const PlanProgram& p, const std::string& sim) {
  return std::string("{\"kind\": \"") + kind + "\", \"expect\": " + std::to_string(p.expect) +
         ", \"request\": " + jsonQuote(p.request(sim)) + "}\n";
}

/// Draws `want` screened programs (drawPrograms) and orders them so every
/// prefix spreads evenly over the set's size range.
std::vector<PlanProgram> drawPlanPrograms(Rng& rng, size_t want, DrawStats& drawn) {
  // drawPrograms returns the set in length order, and a run serves only a
  // prefix of the plan. The misses visit the set in bit-reversed index
  // order (van der Corput): every prefix, and every stretch of a run,
  // spreads evenly over the set's size range, however far into the plan a
  // run gets. A seeded shuffle would do the same only on average, and the
  // few costliest misses a stretch happens to get decide its p99.
  std::vector<Program> sorted = drawPrograms(rng, want, drawn);
  std::vector<PlanProgram> out;
  unsigned bits = 0;
  while ((size_t{1} << bits) < sorted.size()) ++bits;
  for (size_t i = 0; i < (size_t{1} << bits); ++i) {
    size_t rev = 0;
    for (unsigned b = 0; b < bits; ++b)
      if ((i >> b) & 1) rev |= size_t{1} << (bits - 1 - b);
    if (rev < sorted.size()) {
      Program& p = sorted[rev];
      out.push_back({p.name, "", std::move(p.source), p.expected});
    }
  }
  return out;
}

int runServePlan(const Options& opts) {
  const bool chstoneMix = opts.mix == "chstone";
  const bool progenMix = opts.mix == "progen";
  if (opts.out.empty() || opts.count == 0 || (!chstoneMix && !progenMix && opts.mix != "serve-mix")) {
    std::fprintf(stderr,
                 "perfbench_harness serve-plan: --out and --count are required, "
                 "--mix is chstone, progen or serve-mix\n");
    return 2;
  }
  Rng rng(opts.seed);
  enum Kind { kFull, kArtifact, kMiss };
  // Kinds are dealt from a shuffled deck of 20 (9 full, 7 artifact, 4 miss),
  // so every stretch of the plan holds the same mix. Full hits are the
  // fastest jobs and artifact hits the next: with half the jobs full hits,
  // the median job would sit on the gap between the two and flip across it
  // with the share a run happened to draw.
  std::vector<Kind> deck, kinds;
  size_t misses = 0;
  for (uint64_t i = 0; i < opts.count; ++i) {
    if (deck.empty()) {
      deck.assign(9, kFull);
      deck.insert(deck.end(), 7, kArtifact);
      deck.insert(deck.end(), 4, kMiss);
      rng.shuffle(deck);
    }
    kinds.push_back(deck.back());
    deck.pop_back();
    if (kinds.back() == kMiss) ++misses;
  }
  DrawStats drawn;
  Rng progRng(rng.next());
  std::vector<PlanProgram> primes, programs;
  if (progenMix) {
    primes = drawPlanPrograms(progRng, chstoneKernels().size(), drawn);
  } else {
    for (const KernelInfo& k : chstoneKernels())
      primes.push_back({k.name, k.name, "", expectedChecksum(opts, k.name)});
  }
  if (!chstoneMix) programs = drawPlanPrograms(progRng, misses, drawn);

  std::string text;
  for (const PlanProgram& p : primes) text += planLine("prime", p, "");
  // Per primed program, every Twill sim axis pair in [2, 65]^2 except the
  // defaults (the primed request), in a seeded order: each artifact line
  // takes the next one, so its compile is cached and its full request is
  // not.
  const SimConfig defaults;
  std::vector<std::vector<std::pair<unsigned, unsigned>>> axes(primes.size());
  for (auto& list : axes) {
    for (unsigned cap = 2; cap <= 65; ++cap)
      for (unsigned lat = 2; lat <= 65; ++lat)
        if (cap != defaults.queueCapacity || lat != defaults.queueLatency) list.push_back({cap, lat});
    rng.shuffle(list);
  }
  // The primed program of each full and artifact line is dealt from a
  // per-kind deck of the 8, reshuffled when empty. Every primed response
  // and compile entry is then touched at least once every 15 lines of that
  // kind (at most ~45 jobs), so twilld's default 64-entry LRU, which gains
  // a new entry on 11 jobs in 20, never evicts one. (With independent draws a
  // primed response goes untouched long enough about once in 1400 full
  // hits, and the served mix no longer matches the plan.)
  struct Deck {
    std::vector<size_t> cards;
    size_t deal(Rng& r, size_t n) {
      if (cards.empty()) {
        for (size_t i = 0; i < n; ++i) cards.push_back(i);
        r.shuffle(cards);
      }
      const size_t k = cards.back();
      cards.pop_back();
      return k;
    }
  } fullDeck, artifactDeck, missDeck;
  std::vector<size_t> nextAxes(primes.size(), 0);
  size_t nextProgram = 0;
  for (Kind kind : kinds) {
    if (kind == kMiss) {
      if (!chstoneMix) {
        text += planLine("miss", programs[nextProgram++], "");
      } else {
        // Counts down from the default cycle limit, far above any kernel's
        // run: a new compile key, the same report.
        const uint64_t maxCycles = defaults.maxCycles - ++nextProgram;
        text += planLine("miss", primes[missDeck.deal(rng, primes.size())],
                         "\"max_cycles\": " + std::to_string(maxCycles));
      }
      continue;
    }
    const size_t k = (kind == kFull ? fullDeck : artifactDeck).deal(rng, primes.size());
    if (kind == kFull) {
      text += planLine("full", primes[k], "");
      continue;
    }
    if (nextAxes[k] == axes[k].size()) {
      std::fprintf(stderr, "perfbench_harness serve-plan: --count too large for the sim axes\n");
      return 2;
    }
    const auto [capacity, latency] = axes[k][nextAxes[k]++];
    text += planLine("artifact", primes[k],
                     "\"queue_capacity\": " + std::to_string(capacity) +
                         ", \"queue_latency\": " + std::to_string(latency));
  }
  std::FILE* f = std::fopen(opts.out.c_str(), "w");
  if (!f || std::fwrite(text.data(), 1, text.size(), f) != text.size() || std::fclose(f) != 0) {
    std::fprintf(stderr, "perfbench_harness: cannot write '%s'\n", opts.out.c_str());
    return 1;
  }
  std::printf("{\"requests\": %" PRIu64 ", \"misses\": %zu, \"verify_rejects\": %" PRIu64
              ", \"long_runs\": %" PRIu64 "}\n",
              opts.count, misses, drawn.verifyRejects, drawn.longRuns);
  return 0;
}

// ---------------------------------------------------------------------------
// reference: one request document a line on stdin; for each, the report
// runCompileRequest produces in-process, as {"report": "<document>"}.
// ---------------------------------------------------------------------------

int runReference() {
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    CompileRequest req;
    std::string error;
    if (!parseCompileRequest(line, req, error)) {
      std::printf("{\"error\": %s}\n", jsonQuote(error).c_str());
      continue;
    }
    // The daemon's response body is the report document plus a newline.
    const std::string doc = reportToJson(runCompileRequest(req)) + "\n";
    std::printf("{\"report\": %s}\n", jsonQuote(doc).c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// rss-probe chstone | rss-probe progen SEED...: runs the 8 kernels, or the
// generated programs of the given seeds, through runBenchmark one at a time
// and prints this process's peak RSS in MiB.
// ---------------------------------------------------------------------------

int runRssProbe(int argc, char** argv) {
  if (argc < 3) return 2;
  const std::string what = argv[2];
  if (what == "chstone") {
    for (const KernelInfo& k : chstoneKernels()) runBenchmark(k.name, k.source);
  } else if (what == "progen") {
    for (int i = 3; i < argc; ++i) runBenchmark("probe", generateProgram(std::strtoull(argv[i], nullptr, 10)));
  } else {
    return 2;
  }
  std::printf("%.6f\n", peakRssMb());
  return 0;
}

[[noreturn]] void usage(int code) {
  std::fprintf(code ? stderr : stdout,
               "usage: perfbench_harness chstone|progen --seed N --seconds S --trace 0|1\n"
               "           [--trace-out FILE] [--programs N]\n"
               "           [--wrong-expected KERNEL]\n"
               "       perfbench_harness serve-plan --seed N --count C --out FILE\n"
               "           [--mix chstone|progen|serve-mix]\n"
               "       perfbench_harness layers --seed N --seconds S [--trace-out FILE]\n"
               "           < \"EXPECT REQUEST\" lines\n"
               "       perfbench_harness reference < requests.jsonl\n"
               "       perfbench_harness rss-probe chstone | progen SEED...\n");
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(2);
  if (std::strcmp(argv[1], "rss-probe") == 0) return runRssProbe(argc, argv);
  Options opts;
  opts.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(0);
    if (i + 1 >= argc) usage(2);
    const char* v = argv[++i];
    if (arg == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--trace-out") {
      opts.traceOut = v;
    } else if (arg == "--programs") {
      opts.programs = std::max(1u, static_cast<unsigned>(std::strtoul(v, nullptr, 10)));
    } else if (arg == "--count") {
      opts.count = std::strtoull(v, nullptr, 10);
    } else if (arg == "--out") {
      opts.out = v;
    } else if (arg == "--mix") {
      opts.mix = v;
    } else if (arg == "--wrong-expected") {
      opts.wrongExpected = v;
    } else {
      usage(2);
    }
  }
  if (opts.command == "chstone") return runChstone(opts);
  if (opts.command == "progen") return runProgen(opts);
  if (opts.command == "serve-plan") return runServePlan(opts);
  if (opts.command == "reference") return runReference();
  if (opts.command == "layers") return runLayers(opts);
  usage(2);
}
