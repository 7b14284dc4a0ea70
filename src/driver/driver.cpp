#include "src/driver/driver.h"

#include <unordered_set>

#include "src/frontend/lower.h"
#include "src/ir/interp.h"
#include "src/ir/verifier.h"
#include "src/obs/trace.h"
#include "src/support/json.h"
#include "src/verify/partition_verifier.h"

namespace twill {

// The driver maps `ResourceLimits::memLimitBytes` straight onto the
// simulators' default memory; the default ceiling must match or default-
// configured runs would silently change size.
static_assert(ResourceLimits{}.memLimitBytes == Memory::kDefaultSize,
              "ResourceLimits default memory ceiling must equal Memory::kDefaultSize");

namespace {

/// True (and fills error/kind) when `ms` breaches the per-stage wall budget.
/// The compile stages are also bounded structurally (token/AST/IR caps), so
/// this is a post-hoc classification, not a mid-stage interrupt.
bool stageBreach(const ResourceLimits& limits, const char* stage, double ms, std::string& error,
                 FailureKind& kind) {
  if (limits.stageTimeoutMs <= 0 || ms <= limits.stageTimeoutMs) return false;
  error = std::string("wall-clock budget exceeded in ") + stage + " (" + std::to_string(ms) +
          " ms, budget " + std::to_string(limits.stageTimeoutMs) + " ms)";
  kind = FailureKind::Resource;
  return true;
}

std::unique_ptr<Module> compileAndOptimize(const std::string& source, unsigned inlineThreshold,
                                           const ResourceLimits& limits, std::string& error,
                                           StageTimes& stages, FailureKind& kind) {
  auto m = std::make_unique<Module>();
  DiagEngine diag;
  CompileTimes ct;
  if (!compileC(source, *m, diag, &ct, &limits)) {
    error = "compile failed:\n" + diag.str();
    kind = diag.hasResourceError() ? FailureKind::Resource : FailureKind::Compile;
    return nullptr;
  }
  stages.parseMs = ct.parseMs;
  stages.lowerMs = ct.lowerMs;
  if (stageBreach(limits, "parse", ct.parseMs, error, kind) ||
      stageBreach(limits, "lower", ct.lowerMs, error, kind))
    return nullptr;
  if (!m->findFunction("main")) {
    // Every downstream stage (golden run, DSWP, the flows) starts from
    // main; a module without one is a source error, not a crash.
    error = "compile failed:\n<source>:1:1: error: no 'main' function defined";
    kind = FailureKind::Compile;
    return nullptr;
  }
  StageSpan passesSpan("passes");
  runDefaultPipeline(*m, inlineThreshold, limits.maxIrInstructions);
  stages.passesMs = passesSpan.closeMs();
  if (stageBreach(limits, "passes", stages.passesMs, error, kind)) return nullptr;
  DiagEngine vd;
  StageSpan irVerifySpan("ir_verify");
  const bool verified = verifyModule(*m, vd);
  stages.irVerifyMs += irVerifySpan.closeMs();
  if (!verified) {
    error = "verification failed after optimization:\n" + vd.str();
    kind = FailureKind::Verify;
    return nullptr;
  }
  return m;
}

/// Functions that execute in the hardware domain: HW thread roots plus
/// everything they can call (callee masters run inside the calling thread).
std::unordered_set<const Function*> hwFunctions(const DswpResult& dswp) {
  std::unordered_set<const Function*> hw;
  // Iterative worklist: a deep call chain must not overflow the native stack.
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

/// Schedules every function of `m` into `out` under the `schedule` span.
/// Returns false (error/kind filled) when the report's schedule time
/// breaches the stage budget.
bool scheduleStage(Module& m, const DriverOptions& opts, BenchmarkReport& rep, ScheduleMap& out) {
  StageSpan span("schedule");
  out = scheduleModule(m, opts.hls);
  rep.stages.scheduleMs += span.closeMs();
  return !stageBreach(opts.limits, "schedule", rep.stages.scheduleMs, rep.error, rep.failureKind);
}

/// Simulators observe the resource ceilings through their config (see the
/// DriverOptions::limits doc).
SimConfig limitedSimConfig(SimConfig sim, const ResourceLimits& limits) {
  sim.memoryBytes = limits.memLimitBytes;
  sim.wallBudgetMs = limits.stageTimeoutMs;
  return sim;
}

}  // namespace

BenchmarkReport runBenchmark(const std::string& name, const std::string& source,
                             const DriverOptions& opts) {
  BenchmarkReport rep;
  rep.name = name;
  // --verify-only stops after extraction + verification; no flow runs.
  const bool verifyOnly = opts.verifyOnly;
  rep.ranSW = opts.runPureSW && !verifyOnly;
  rep.ranHW = opts.runPureHW && !verifyOnly;
  rep.ranTwill = opts.runTwill && !verifyOnly;

  SimConfig sim = limitedSimConfig(opts.sim, opts.limits);
  // When the caller did not plumb a sim recorder explicitly, inherit the
  // thread's installed one (twillc --trace, twilld --trace-dir) so one flag
  // captures compile and sim in a single file.
  if (!sim.trace) sim.trace = currentTrace();

  // --- Baseline module (pure SW, pure HW, golden reference) -----------------
  std::unique_ptr<Module> base = compileAndOptimize(source, opts.inlineThreshold, opts.limits,
                                                    rep.error, rep.stages, rep.failureKind);
  if (!base) return rep;
  if (!verifyOnly) {
    // Golden reference run under the same ceilings as everything else: a
    // program trap (OOB access, call-depth blowup) is a program error
    // (Sim); a breached step/wall budget or oversized layout is Resource.
    Interp in(*base, opts.limits.memLimitBytes);
    InterpOutcome golden = in.runChecked(base->findFunction("main"), {},
                                         opts.limits.maxInterpSteps, opts.limits.stageTimeoutMs);
    if (!golden.ok) {
      if (golden.resource) {
        rep.error = "golden execution exceeded resource limits: " + golden.message;
        rep.failureKind = FailureKind::Resource;
      } else {
        rep.error = "golden execution trapped: " + golden.message;
        rep.failureKind = FailureKind::Sim;
      }
      return rep;
    }
    rep.expected = golden.result;
  }
  if (rep.ranSW) {
    rep.sw = simulatePureSW(*base, sim);
    if (!rep.sw.ok) {
      rep.error = "pure-SW simulation failed: " + rep.sw.message;
      rep.failureKind = rep.sw.resourceBreach ? FailureKind::Resource : FailureKind::Sim;
      return rep;
    }
    if (rep.sw.result != rep.expected) {
      rep.error = "pure-SW result mismatch";
      rep.failureKind = FailureKind::Sim;
      return rep;
    }
  }
  if (rep.ranHW) {
    ScheduleMap baseSchedules;
    if (!scheduleStage(*base, opts, rep, baseSchedules)) return rep;
    rep.hw = simulatePureHW(*base, baseSchedules, sim);
    if (!rep.hw.ok) {
      rep.error = "pure-HW simulation failed: " + rep.hw.message;
      rep.failureKind = rep.hw.resourceBreach ? FailureKind::Resource : FailureKind::Sim;
      return rep;
    }
    if (rep.hw.result != rep.expected) {
      rep.error = "pure-HW result mismatch";
      rep.failureKind = FailureKind::Sim;
      return rep;
    }
    for (auto& [fn, sched] : baseSchedules) rep.areas.legup += sched.area;
    rep.areas.legup.brams += bramBlocksForGlobals(*base);
  }

  if (!opts.runTwill && !verifyOnly) {
    rep.ok = true;  // SW/HW-only run: nothing failed
    return rep;
  }

  // --- Twill flow -------------------------------------------------------------
  // Reuses the baseline module: every baseline step above is read-only on
  // the IR (simulation state lives in per-run memories), so extracting from
  // it is identical to recompiling the same source — at half the compile
  // cost per report.
  std::unique_ptr<Module> tm = std::move(base);
  StageSpan dswpSpan("dswp");
  DswpResult dswp = runDswp(*tm, opts.dswp);
  rep.stages.pdgMs = dswp.pdgWallMs;
  // The pdg sub-spans are disjoint subintervals of the dswp span on the same
  // clock, so the subtraction cannot go negative.
  rep.stages.dswpMs = dswpSpan.closeMs() - dswp.pdgWallMs;
  if (stageBreach(opts.limits, "dswp", rep.stages.pdgMs + rep.stages.dswpMs, rep.error,
                  rep.failureKind))
    return rep;
  {
    DiagEngine vd;
    StageSpan irVerifySpan("ir_verify");
    const bool verified = verifyModule(*tm, vd);
    rep.stages.irVerifyMs += irVerifySpan.closeMs();
    if (!verified) {
      rep.error = "verification failed after DSWP:\n" + vd.str();
      rep.failureKind = FailureKind::Verify;
      return rep;
    }
  }
  if (opts.unseedSemaphores)
    for (auto& sem : dswp.semaphores) sem.initialCount = 0;
  if (opts.verifyPartition || verifyOnly) {
    DiagEngine vd;
    StageSpan verifySpan("verify");
    const bool verified = verifyPartition(*tm, dswp, vd);
    rep.stages.verifyMs = verifySpan.closeMs();
    if (!verified) {
      rep.error = "partition verification failed:\n" + vd.str();
      rep.failureKind = FailureKind::Verify;
      for (const auto& d : vd.all()) {
        const char* kind = d.kind == DiagKind::Error     ? "error"
                           : d.kind == DiagKind::Warning ? "warning"
                                                         : "note";
        rep.verifyDiagnostics.push_back(std::string(kind) + ": " + d.message);
      }
      return rep;
    }
  }
  rep.queues = dswp.totalQueues();
  rep.semaphores = dswp.totalSemaphores();
  rep.hwThreads = dswp.hwThreadCount();
  for (const auto& t : dswp.threads)
    if (!t.isHW) ++rep.swThreads;

  if (verifyOnly) {
    rep.ok = true;  // compile + extraction + verification all clean
    return rep;
  }

  ScheduleMap twillSchedules;
  if (!scheduleStage(*tm, opts, rep, twillSchedules)) return rep;
  rep.twill = simulateTwill(*tm, dswp, sim, twillSchedules);
  if (!acceptTwillOutcome(rep)) return rep;

  // Areas (Table 6.2 columns).
  auto hwFns = hwFunctions(dswp);
  for (const Function* f : hwFns) {
    auto it = twillSchedules.find(f);
    if (it != twillSchedules.end()) rep.areas.twillHwThreads += it->second.area;
  }
  rep.areas.twillTotal = rep.areas.twillHwThreads;
  rep.areas.twillTotal += runtimeArea(dswp, rep.hwThreads);
  rep.areas.twillPlusMicroblaze = rep.areas.twillTotal;
  rep.areas.twillPlusMicroblaze.luts += PrimitiveAreas::kMicroblazeLuts;
  rep.areas.twillPlusMicroblaze.brams += PrimitiveAreas::kMicroblazeBrams;

  // Power (Fig. 6.1): normalized to pure SW.
  if (rep.ranSW && rep.ranHW) computePower(rep);

  if (opts.keepTwillArtifacts) {
    auto art = std::make_shared<TwillArtifacts>();
    art->module = std::move(tm);
    art->dswp = std::move(dswp);
    art->schedules = std::move(twillSchedules);
    rep.twillArtifacts = std::move(art);
  }

  rep.ok = true;
  return rep;
}

BenchmarkReport resimulateTwill(const BenchmarkReport& anchor, const TwillArtifacts& art,
                                SimProgram& prog, const SimConfig& sim,
                                const ResourceLimits& limits) {
  BenchmarkReport rep = anchor;
  rep.twill = simulateTwill(*art.module, art.dswp, limitedSimConfig(sim, limits), art.schedules,
                            &prog);
  if (acceptTwillOutcome(rep) && rep.ranSW && rep.ranHW) computePower(rep);
  return rep;
}

bool acceptTwillOutcome(BenchmarkReport& rep) {
  if (!rep.twill.ok) {
    rep.ok = false;
    rep.twillSimFailure = true;
    rep.failureKind = rep.twill.resourceBreach ? FailureKind::Resource : FailureKind::Sim;
    rep.error = "twill simulation failed: " + rep.twill.message;
    return false;
  }
  if (rep.twill.result != rep.expected) {
    rep.ok = false;
    rep.twillSimFailure = true;
    rep.failureKind = FailureKind::Sim;
    rep.error = "twill result mismatch";
    return false;
  }
  rep.twillSimFailure = false;
  rep.failureKind = FailureKind::None;
  return true;
}

const char* failureKindName(FailureKind k) {
  switch (k) {
    case FailureKind::Compile: return "compile";
    case FailureKind::Verify: return "verify";
    case FailureKind::Sim: return "sim";
    case FailureKind::Resource: return "resource";
    case FailureKind::None: break;
  }
  return "none";
}

int exitCodeFor(FailureKind k) {
  switch (k) {
    case FailureKind::None: return 0;
    case FailureKind::Compile: return 1;
    case FailureKind::Verify: return 3;
    case FailureKind::Sim: return 4;
    case FailureKind::Resource: return 5;
  }
  return 1;
}

void computePower(BenchmarkReport& rep) {
  PowerInputs swIn;
  swIn.luts = PrimitiveAreas::kMicroblazeLuts;
  swIn.brams = PrimitiveAreas::kMicroblazeBrams;
  swIn.hasMicroblaze = true;
  swIn.totalCycles = rep.sw.cycles;
  swIn.cpuBusyCycles = rep.sw.cpuBusy;
  double pSW = estimatePower(swIn);

  PowerInputs hwIn;
  hwIn.luts = rep.areas.legup.luts;
  hwIn.dsps = rep.areas.legup.dsps;
  hwIn.brams = rep.areas.legup.brams;
  hwIn.totalCycles = rep.hw.cycles;
  hwIn.hwBusyCycles = rep.hw.hwBusy;
  double pHW = estimatePower(hwIn);

  PowerInputs twIn;
  twIn.luts = rep.areas.twillPlusMicroblaze.luts;
  twIn.dsps = rep.areas.twillPlusMicroblaze.dsps;
  twIn.brams = rep.areas.twillPlusMicroblaze.brams;
  twIn.hasMicroblaze = true;
  twIn.totalCycles = rep.twill.cycles;
  twIn.cpuBusyCycles = rep.twill.cpuBusy;
  twIn.hwBusyCycles = rep.twill.hwBusy;
  twIn.hwThreads = rep.hwThreads ? rep.hwThreads : 1;
  twIn.busMessages = rep.twill.busMessages + rep.twill.memBusMessages;
  double pTwill = estimatePower(twIn);

  rep.powerSW = 1.0;
  rep.powerHW = pSW > 0 ? pHW / pSW : 0;
  rep.powerTwill = pSW > 0 ? pTwill / pSW : 0;
}

namespace {

void emitOutcome(JsonWriter& w, const std::string& key, const SimOutcome& o, bool ran) {
  w.key(key);
  w.beginObject();
  w.field("ran", ran);
  w.field("ok", o.ok);
  w.field("result", static_cast<uint64_t>(o.result));
  w.field("cycles", o.cycles);
  w.field("retired_sw", o.retiredSW);
  w.field("retired_hw", o.retiredHW);
  w.field("bus_messages", o.busMessages);
  w.field("mem_bus_messages", o.memBusMessages);
  w.field("context_switches", o.contextSwitches);
  w.field("queue_ops", o.queueOps);
  w.field("cpu_busy", o.cpuBusy);
  w.field("hw_busy", o.hwBusy);
  w.endObject();
}

void emitArea(JsonWriter& w, const std::string& key, const AreaEstimate& a) {
  w.key(key);
  w.beginObject();
  w.field("luts", a.luts);
  w.field("dsps", a.dsps);
  w.field("brams", a.brams);
  w.endObject();
}

}  // namespace

void emitReport(JsonWriter& w, const BenchmarkReport& rep) {
  w.beginObject();
  // Versioned contract: external clients (twilld consumers, CI diff
  // tooling) dispatch on this before touching any other field. Bump only
  // with a documented migration; additions within v1 must be
  // backward-compatible.
  w.field("schema_version", kReportSchemaVersion);
  w.field("name", rep.name);
  w.field("ok", rep.ok);
  if (!rep.error.empty()) w.field("error", rep.error);
  // Failure classification and verifier findings appear only on failed
  // reports, so passing documents (the bench baseline) are byte-identical
  // to the pre-verifier format.
  if (rep.failureKind != FailureKind::None)
    w.field("failure_kind", failureKindName(rep.failureKind));
  if (!rep.verifyDiagnostics.empty()) {
    w.key("verify_diagnostics");
    w.beginArray();
    for (const auto& line : rep.verifyDiagnostics) w.value(line);
    w.endArray();
  }
  w.field("result", static_cast<uint64_t>(rep.expected));
  w.key("flows");
  w.beginObject();
  emitOutcome(w, "sw", rep.sw, rep.ranSW);
  emitOutcome(w, "hw", rep.hw, rep.ranHW);
  emitOutcome(w, "twill", rep.twill, rep.ranTwill);
  w.endObject();
  w.key("dswp");
  w.beginObject();
  w.field("queues", rep.queues);
  w.field("semaphores", rep.semaphores);
  w.field("hw_threads", rep.hwThreads);
  w.field("sw_threads", rep.swThreads);
  w.endObject();
  w.key("areas");
  w.beginObject();
  emitArea(w, "legup", rep.areas.legup);
  emitArea(w, "twill_hw_threads", rep.areas.twillHwThreads);
  emitArea(w, "twill_total", rep.areas.twillTotal);
  emitArea(w, "twill_plus_microblaze", rep.areas.twillPlusMicroblaze);
  w.endObject();
  w.key("power");
  w.beginObject();
  w.field("sw", rep.powerSW);
  w.field("hw", rep.powerHW);
  w.field("twill", rep.powerTwill);
  w.endObject();
  w.key("speedups");
  w.beginObject();
  w.field("hw_vs_sw", rep.speedupHWvsSW());
  w.field("twill_vs_sw", rep.speedupTwillvsSW());
  w.field("twill_vs_hw", rep.speedupTwillvsHW());
  w.endObject();
  // Compile-pipeline stage costs. The *_wall_ms suffix keeps the bench gate
  // value-agnostic about them (machine-dependent), like report_wall_ms.
  w.key("stages");
  w.beginObject();
  w.field("parse_wall_ms", rep.stages.parseMs);
  w.field("lower_wall_ms", rep.stages.lowerMs);
  w.field("passes_wall_ms", rep.stages.passesMs);
  w.field("ir_verify_wall_ms", rep.stages.irVerifyMs);
  w.field("pdg_wall_ms", rep.stages.pdgMs);
  w.field("dswp_wall_ms", rep.stages.dswpMs);
  w.field("verify_wall_ms", rep.stages.verifyMs);
  w.field("schedule_wall_ms", rep.stages.scheduleMs);
  w.endObject();
  w.endObject();
}

std::string reportToJson(const BenchmarkReport& rep) {
  JsonWriter w;
  emitReport(w, rep);
  return w.str();
}

}  // namespace twill
