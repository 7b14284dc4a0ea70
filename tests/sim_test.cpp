// Cycle-level simulation tests: cost-model sanity for the three flows, and
// parameterized correctness sweeps (queue sizes/latencies never change
// results, only cycles).
#include <gtest/gtest.h>

#include <chrono>

#include "src/chstone/kernels.h"
#include "src/frontend/lower.h"
#include "src/ir/interp.h"
#include "src/sim/system.h"
#include "src/transforms/passes.h"

namespace twill {
namespace {

struct Flow {
  std::unique_ptr<Module> base;
  std::unique_ptr<Module> twillMod;
  DswpResult dswp;
  ScheduleMap baseSched;
  ScheduleMap twillSched;
  uint32_t expected = 0;
};

Flow buildFlow(const std::string& src, DswpConfig cfg = {}) {
  Flow f;
  auto mk = [&](std::unique_ptr<Module>& m) {
    m = std::make_unique<Module>();
    DiagEngine diag;
    EXPECT_TRUE(compileC(src, *m, diag)) << diag.str();
    runDefaultPipeline(*m);
  };
  mk(f.base);
  mk(f.twillMod);
  Interp in(*f.base);
  f.expected = in.run("main");
  f.dswp = runDswp(*f.twillMod, cfg);
  f.baseSched = scheduleModule(*f.base);
  f.twillSched = scheduleModule(*f.twillMod);
  return f;
}

TEST(SimCostTest, PureSWChargesMicroblazeCycles) {
  // ret only: 3 + 1 fetch = 4 cycles.
  Module m;
  DiagEngine diag;
  ASSERT_TRUE(compileC("int main() { return 3; }", m, diag));
  runDefaultPipeline(m);
  SimOutcome o = simulatePureSW(m);
  ASSERT_TRUE(o.ok);
  EXPECT_EQ(o.result, 3u);
  EXPECT_EQ(o.cycles, 4u);
}

TEST(SimCostTest, SWDivisionCosts34Cycles) {
  Module m;
  DiagEngine diag;
  // g defeats constant folding; cost = load(3) + div(35) + ret(4).
  ASSERT_TRUE(compileC("int g = 70; int main() { return g / 7; }", m, diag));
  runDefaultPipeline(m);
  SimOutcome o = simulatePureSW(m);
  ASSERT_TRUE(o.ok);
  EXPECT_EQ(o.result, 10u);
  EXPECT_EQ(o.cycles, 3u + 35u + 4u);
}

TEST(SimCostTest, PureHWFasterThanSWOnLoops) {
  const char* src =
      "int a[64];"
      "int main() { int s = 0;"
      "for (int i = 0; i < 64; i++) a[i] = i * 37;"
      "for (int i = 0; i < 64; i++) s += a[i] >> 3;"
      "return s; }";
  Module m;
  DiagEngine diag;
  ASSERT_TRUE(compileC(src, m, diag));
  runDefaultPipeline(m);
  SimOutcome sw = simulatePureSW(m);
  ScheduleMap sched = scheduleModule(m);
  SimOutcome hw = simulatePureHW(m, sched);
  ASSERT_TRUE(sw.ok && hw.ok);
  EXPECT_EQ(sw.result, hw.result);
  // Multiplies alone (32 cycles SW vs pipelined DSP) guarantee a big gap.
  EXPECT_GT(sw.cycles, 2 * hw.cycles);
}

TEST(SimCostTest, TwillMatchesReferenceResult) {
  Flow f = buildFlow(
      "int a[32];"
      "int main() { int s = 0;"
      "for (int i = 0; i < 32; i++) a[i] = i * 5 + 1;"
      "for (int i = 0; i < 32; i++) s += a[i] / 3;"
      "return s; }");
  SimConfig cfg;
  SimOutcome o = simulateTwill(*f.twillMod, f.dswp, cfg, f.twillSched);
  ASSERT_TRUE(o.ok) << o.message;
  EXPECT_EQ(o.result, f.expected);
  EXPECT_GT(o.cycles, 0u);
  EXPECT_GT(o.busMessages, 0u);
}

TEST(SimCostTest, QueueLatencySlowsButNeverCorrupts) {
  Flow f = buildFlow(
      "int main() { int s = 0; for (int i = 0; i < 128; i++) s += i * 3 + (s >> 4);"
      "return s; }");
  uint64_t prev = 0;
  for (unsigned lat : {2u, 16u, 64u, 128u}) {
    SimConfig cfg;
    cfg.queueLatency = lat;
    SimOutcome o = simulateTwill(*f.twillMod, f.dswp, cfg, f.twillSched);
    ASSERT_TRUE(o.ok) << o.message;
    EXPECT_EQ(o.result, f.expected) << "latency " << lat;
    EXPECT_GE(o.cycles, prev) << "higher queue latency should not speed things up";
    prev = o.cycles;
  }
}

class QueueParamSweep : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(QueueParamSweep, ResultsInvariantAcrossQueueConfigs) {
  auto [capacity, latency] = GetParam();
  const char* progs[] = {
      "int a[24];"
      "int main() { int s = 0;"
      "for (int i = 0; i < 24; i++) a[i] = (i * 19) ^ 5;"
      "for (int i = 0; i < 24; i++) s += a[i] % 7;"
      "return s; }",
      "int main() { int x = 1; int s = 0;"
      "for (int i = 0; i < 60; i++) { x = x * 5 + 3; if (x & 8) s += x >> 2; else s ^= x; }"
      "return s; }",
  };
  for (const char* p : progs) {
    Flow f = buildFlow(p);
    SimConfig cfg;
    cfg.queueCapacity = capacity;
    cfg.queueLatency = latency;
    SimOutcome o = simulateTwill(*f.twillMod, f.dswp, cfg, f.twillSched);
    ASSERT_TRUE(o.ok) << o.message;
    EXPECT_EQ(o.result, f.expected) << "cap=" << capacity << " lat=" << latency;
  }
}

INSTANTIATE_TEST_SUITE_P(QueueConfigs, QueueParamSweep,
                         ::testing::Combine(::testing::Values(2u, 4u, 8u, 32u),
                                            ::testing::Values(2u, 8u, 32u)));

TEST(SimSchedulerTest, MultipleSwThreadsContextSwitch) {
  // Force a split with several SW partitions: large swFraction.
  DswpConfig cfg;
  cfg.numPartitions = 4;
  cfg.swFraction = 0.9;
  Flow f = buildFlow(
      "int a[16];"
      "int main() { int s = 0;"
      "for (int i = 0; i < 16; i++) a[i] = i * 3;"
      "for (int i = 0; i < 16; i++) s += a[i] ^ i;"
      "return s; }",
      cfg);
  unsigned swThreads = 0;
  for (const auto& t : f.dswp.threads)
    if (!t.isHW) ++swThreads;
  SimConfig sc;
  SimOutcome o = simulateTwill(*f.twillMod, f.dswp, sc, f.twillSched);
  ASSERT_TRUE(o.ok) << o.message;
  EXPECT_EQ(o.result, f.expected);
  if (swThreads > 1) EXPECT_GT(o.contextSwitches, 0u);
}

TEST(SimSchedulerTest, SingleSwThreadNeverSwitches) {
  Flow f = buildFlow(
      "int main() { int s = 0; for (int i = 0; i < 40; i++) s += i; return s; }",
      DswpConfig{/*numPartitions=*/2});
  SimConfig sc;
  SimOutcome o = simulateTwill(*f.twillMod, f.dswp, sc, f.twillSched);
  ASSERT_TRUE(o.ok);
  unsigned swThreads = 0;
  for (const auto& t : f.dswp.threads)
    if (!t.isHW) ++swThreads;
  if (swThreads <= 1) EXPECT_EQ(o.contextSwitches, 0u);
}

TEST(SimSchedulerTest, MultiProcessorResultsMatchAndReduceSwitching) {
  // Several SW threads (large swFraction) on one vs two processors: results
  // must agree; the second Microblaze can only reduce time-slicing.
  DswpConfig cfg;
  cfg.numPartitions = 4;
  cfg.swFraction = 0.9;
  Flow f = buildFlow(
      "int a[24];"
      "int main() { int s = 0;"
      "for (int i = 0; i < 24; i++) a[i] = i * 9 + 2;"
      "for (int i = 0; i < 24; i++) s += a[i] ^ (i << 2);"
      "return s; }",
      cfg);
  SimConfig one;
  one.numProcessors = 1;
  SimConfig two;
  two.numProcessors = 2;
  SimOutcome o1 = simulateTwill(*f.twillMod, f.dswp, one, f.twillSched);
  SimOutcome o2 = simulateTwill(*f.twillMod, f.dswp, two, f.twillSched);
  ASSERT_TRUE(o1.ok) << o1.message;
  ASSERT_TRUE(o2.ok) << o2.message;
  EXPECT_EQ(o1.result, f.expected);
  EXPECT_EQ(o2.result, f.expected);
  unsigned swThreads = 0;
  for (const auto& t : f.dswp.threads)
    if (!t.isHW) ++swThreads;
  if (swThreads > 1) {
    EXPECT_LE(o2.contextSwitches, o1.contextSwitches);
    EXPECT_LE(o2.cycles, o1.cycles + o1.cycles / 10);  // never much worse
  }
}

TEST(SimSchedulerTest, FourProcessorsStillCorrect) {
  DswpConfig cfg;
  cfg.numPartitions = 6;
  cfg.swFraction = 0.95;
  Flow f = buildFlow(
      "int main() { int s = 1;"
      "for (int i = 0; i < 50; i++) { s = s * 3 + i; s ^= s >> 5; }"
      "return s & 0xFFFFF; }",
      cfg);
  SimConfig four;
  four.numProcessors = 4;
  SimOutcome o = simulateTwill(*f.twillMod, f.dswp, four, f.twillSched);
  ASSERT_TRUE(o.ok) << o.message;
  EXPECT_EQ(o.result, f.expected);
}

TEST(SimDiagnosticsTest, DeadlockIsReportedNotHung) {
  // Hand-build a module whose single thread consumes from a channel nobody
  // fills: the simulator must report deadlock with a location.
  Module m;
  IRBuilder b(m);
  Function* f = m.createFunction("main", m.types().i32());
  b.setInsertPoint(f->createBlock("entry"));
  Instruction* v = b.consume(0, m.types().i32());
  b.ret(v);

  DswpResult dswp;
  dswp.mainMaster = f;
  dswp.threads.push_back({f, false, false, "main#0"});
  dswp.channels.push_back({0, 32, ChannelInfo::Purpose::Data, "orphan"});
  ScheduleMap sched = scheduleModule(m);
  SimConfig cfg;
  cfg.deadlockWindow = 10000;
  SimOutcome o = simulateTwill(m, dswp, cfg, sched);
  EXPECT_FALSE(o.ok);
  EXPECT_NE(o.message.find("deadlock"), std::string::npos);
  EXPECT_NE(o.message.find("consume"), std::string::npos);
}

TEST(SimActivityTest, CountersArePlausible) {
  Flow f = buildFlow(
      "int a[16];"
      "int main() { int s = 0;"
      "for (int i = 0; i < 16; i++) a[i] = i;"
      "for (int i = 0; i < 16; i++) s += a[i] * 3;"
      "return s; }");
  SimConfig cfg;
  SimOutcome o = simulateTwill(*f.twillMod, f.dswp, cfg, f.twillSched);
  ASSERT_TRUE(o.ok);
  EXPECT_GT(o.retiredSW + o.retiredHW, 0u);
  EXPECT_LE(o.cpuBusy, o.cycles);  // one processor cannot exceed wall cycles
  EXPECT_EQ(o.busMessages, o.queueOps);  // every queue/sem op is one message
}

// A baseline is a one-thread system on the Twill scheduler, so its outcome
// must not depend on what only a multi-thread system exercises: queue
// sizing and latency, the processor count, the scheduler quantum, or a
// deadlock window that cuts every burst short. twilld's compile cache key
// and the explorer's compile groups reuse baseline outcomes across these
// axes.
void expectSameOutcome(const SimOutcome& a, const SimOutcome& b, const std::string& what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.resourceBreach, b.resourceBreach) << what;
  EXPECT_EQ(a.message, b.message) << what;
  EXPECT_EQ(a.result, b.result) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.busMessages, b.busMessages) << what;
  EXPECT_EQ(a.memBusMessages, b.memBusMessages) << what;
  EXPECT_EQ(a.retiredSW, b.retiredSW) << what;
  EXPECT_EQ(a.retiredHW, b.retiredHW) << what;
  EXPECT_EQ(a.contextSwitches, b.contextSwitches) << what;
  EXPECT_EQ(a.queueOps, b.queueOps) << what;
  EXPECT_EQ(a.cpuBusy, b.cpuBusy) << what;
  EXPECT_EQ(a.hwBusy, b.hwBusy) << what;
}

TEST(SimBaselineTest, OutcomeIgnoresTwillOnlyAxesAndTheDeadlockWindow) {
  std::vector<std::pair<std::string, SimConfig>> configs;
  for (unsigned cap : {1u, 64u})
    for (unsigned lat : {0u, 128u})
      for (unsigned procs : {1u, 4u})
        for (unsigned quantum : {0u, 1u, 100000u}) {
          SimConfig c;
          c.queueCapacity = cap;
          c.queueLatency = lat;
          c.numProcessors = procs;
          c.schedQuantum = quantum;
          configs.push_back({"capacity " + std::to_string(cap) + " latency " +
                                 std::to_string(lat) + " processors " + std::to_string(procs) +
                                 " quantum " + std::to_string(quantum),
                             c});
        }
  SimConfig shortWindow;
  shortWindow.deadlockWindow = 1000;
  configs.push_back({"deadlock window 1000", shortWindow});

  for (const KernelInfo& k : chstoneKernels()) {
    Module m;
    DiagEngine diag;
    ASSERT_TRUE(compileC(k.source, m, diag)) << k.name;
    runDefaultPipeline(m, 100);
    const ScheduleMap sched = scheduleModule(m);
    const SimOutcome sw = simulatePureSW(m);
    const SimOutcome hw = simulatePureHW(m, sched);
    ASSERT_TRUE(sw.ok && hw.ok) << k.name << ": " << sw.message << hw.message;
    for (const auto& [what, cfg] : configs) {
      expectSameOutcome(simulatePureSW(m, cfg), sw, std::string(k.name) + " pure-SW, " + what);
      expectSameOutcome(simulatePureHW(m, sched, cfg), hw, std::string(k.name) + " pure-HW, " + what);
    }
  }
}

// A non-terminating program stops at the simulator's wall budget on both
// baselines, as a resource breach.
TEST(SimBaselineTest, WallBudgetStopsANonTerminatingProgram) {
  Module m;
  DiagEngine diag;
  ASSERT_TRUE(compileC("int g; int main(void) { while (1) { g = g + 1; } return g; }", m, diag))
      << diag.str();
  runDefaultPipeline(m);
  const ScheduleMap sched = scheduleModule(m);
  SimConfig cfg;
  cfg.wallBudgetMs = 20;
  auto expectBreach = [&](const char* flow, auto run) {
    const auto start = std::chrono::steady_clock::now();
    const SimOutcome o = run();
    const double ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                                start)
                          .count();
    EXPECT_FALSE(o.ok) << flow;
    EXPECT_TRUE(o.resourceBreach) << flow << ": " << o.message;
    EXPECT_NE(o.message.find("wall-clock budget exceeded"), std::string::npos) << flow;
    EXPECT_LT(ms, 2000.0) << flow;
  };
  expectBreach("pure-SW", [&] { return simulatePureSW(m, cfg); });
  expectBreach("pure-HW", [&] { return simulatePureHW(m, sched, cfg); });
}

// SimConfig::maxCycles is inclusive on every flow even when main finishes
// on its first step, before any burst: the run ends on the cycle main's
// last op issues, so the scheduler never advances past it into the limit.
TEST(SimLimitTest, OneOpMainSucceedsExactlyAtTheLimit) {
  Flow f = buildFlow("int main(void) { return 7; }");
  auto expectLimit = [](const char* flow, auto run) {
    const SimOutcome free = run(SimConfig{});
    ASSERT_TRUE(free.ok) << flow << ": " << free.message;
    SimConfig cfg;
    cfg.maxCycles = free.cycles;
    const SimOutcome at = run(cfg);
    EXPECT_TRUE(at.ok) << flow << ": " << at.message;
    EXPECT_EQ(at.cycles, free.cycles) << flow;
    cfg.maxCycles = free.cycles - 1;
    EXPECT_EQ(run(cfg).message, "cycle limit exceeded") << flow;
  };
  expectLimit("pure-SW", [&](const SimConfig& c) { return simulatePureSW(*f.base, c); });
  expectLimit("pure-HW",
              [&](const SimConfig& c) { return simulatePureHW(*f.base, f.baseSched, c); });
  expectLimit("twill", [&](const SimConfig& c) {
    return simulateTwill(*f.twillMod, f.dswp, c, f.twillSched);
  });
}

}  // namespace
}  // namespace twill
