// Driver tests: the flow-selection options, report integrity, and error
// propagation of the public runBenchmark() entry point.
#include <gtest/gtest.h>

#include "src/driver/driver.h"

namespace twill {
namespace {

const char* kTinyProgram =
    "int a[16];"
    "int main() { int s = 0;"
    "for (int i = 0; i < 16; i++) a[i] = i * 11;"
    "for (int i = 0; i < 16; i++) s += a[i] >> 1;"
    "return s; }";

// kTinyProgram's shape over 8 MB of data: twice the default 4 MiB memory.
const char* kBigDataProgram =
    "int a[2000000];"
    "int main() { int s = 0;"
    "for (int i = 0; i < 16; i++) a[i * 99991] = i * 11;"
    "for (int i = 0; i < 16; i++) s += a[i * 99991] >> 1;"
    "return s; }";

void expectSameOutcome(const SimOutcome& a, const SimOutcome& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.resourceBreach, b.resourceBreach);
  EXPECT_EQ(a.message, b.message);
  EXPECT_EQ(a.result, b.result);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.busMessages, b.busMessages);
  EXPECT_EQ(a.memBusMessages, b.memBusMessages);
  EXPECT_EQ(a.retiredSW, b.retiredSW);
  EXPECT_EQ(a.retiredHW, b.retiredHW);
  EXPECT_EQ(a.contextSwitches, b.contextSwitches);
  EXPECT_EQ(a.queueOps, b.queueOps);
  EXPECT_EQ(a.cpuBusy, b.cpuBusy);
  EXPECT_EQ(a.hwBusy, b.hwBusy);
}

TEST(DriverTest, AllFlowsProduceConsistentReport) {
  BenchmarkReport r = runBenchmark("tiny", kTinyProgram);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.name, "tiny");
  EXPECT_EQ(r.sw.result, r.expected);
  EXPECT_EQ(r.hw.result, r.expected);
  EXPECT_EQ(r.twill.result, r.expected);
  EXPECT_GT(r.sw.cycles, 0u);
  EXPECT_GT(r.hw.cycles, 0u);
  EXPECT_GT(r.twill.cycles, 0u);
  // Speedup helpers must be consistent with the raw cycles.
  EXPECT_DOUBLE_EQ(r.speedupHWvsSW(),
                   static_cast<double>(r.sw.cycles) / static_cast<double>(r.hw.cycles));
  EXPECT_DOUBLE_EQ(r.speedupTwillvsHW(),
                   static_cast<double>(r.hw.cycles) / static_cast<double>(r.twill.cycles));
}

TEST(DriverTest, SkippingFlowsLeavesThemEmpty) {
  DriverOptions opts;
  opts.runPureSW = false;
  opts.runPureHW = false;
  BenchmarkReport r = runBenchmark("twill-only", kTinyProgram, opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.sw.cycles, 0u);
  EXPECT_EQ(r.hw.cycles, 0u);
  EXPECT_GT(r.twill.cycles, 0u);
  EXPECT_GT(r.queues, 0u);
}

TEST(DriverTest, BaselinesOnlySkipExtraction) {
  DriverOptions opts;
  opts.runTwill = false;
  BenchmarkReport r = runBenchmark("baselines", kTinyProgram, opts);
  // Without the Twill flow, the report carries only the baselines.
  EXPECT_GT(r.sw.cycles, 0u);
  EXPECT_GT(r.hw.cycles, 0u);
  EXPECT_EQ(r.twill.cycles, 0u);
  EXPECT_EQ(r.queues, 0u);
}

TEST(DriverTest, DswpOptionsFlowThrough) {
  DriverOptions a;
  a.dswp.numPartitions = 2;
  DriverOptions b;
  b.dswp.numPartitions = 6;
  BenchmarkReport ra = runBenchmark("k2", kTinyProgram, a);
  BenchmarkReport rb = runBenchmark("k6", kTinyProgram, b);
  ASSERT_TRUE(ra.ok && rb.ok) << ra.error << rb.error;
  // More partitions -> at least as many threads and queues.
  EXPECT_LE(ra.hwThreads + ra.swThreads, rb.hwThreads + rb.swThreads);
  EXPECT_LE(ra.queues, rb.queues);
  // Results agree regardless.
  EXPECT_EQ(ra.expected, rb.expected);
  EXPECT_EQ(ra.twill.result, rb.twill.result);
}

TEST(DriverTest, SimOptionsFlowThrough) {
  DriverOptions slowQueues;
  slowQueues.sim.queueLatency = 64;
  BenchmarkReport fast = runBenchmark("fastq", kTinyProgram);
  BenchmarkReport slow = runBenchmark("slowq", kTinyProgram, slowQueues);
  ASSERT_TRUE(fast.ok && slow.ok);
  EXPECT_GE(slow.twill.cycles, fast.twill.cycles);
  EXPECT_EQ(slow.twill.result, fast.twill.result);
}

// A kept compile re-simulates under the same memory ceiling its full run
// had, even when the data outgrows the default simulated memory.
TEST(DriverTest, KeptCompileOverDefaultMemoryResimulates) {
  DriverOptions opts;
  opts.limits.memLimitBytes = 16u << 20;
  opts.keepTwillArtifacts = true;
  BenchmarkReport anchor = runBenchmark("big", kBigDataProgram, opts);
  ASSERT_TRUE(anchor.ok) << anchor.error;
  ASSERT_TRUE(anchor.twillArtifacts);
  const TwillArtifacts& art = *anchor.twillArtifacts;
  SimProgram prog(*art.module, art.schedules);

  BenchmarkReport same = resimulateTwill(anchor, art, prog, opts.sim, opts.limits);
  EXPECT_TRUE(same.ok) << same.error;
  expectSameOutcome(same.twill, anchor.twill);

  SimConfig deeper = opts.sim;
  deeper.queueCapacity = 16;
  BenchmarkReport resim = resimulateTwill(anchor, art, prog, deeper, opts.limits);
  DriverOptions full = opts;
  full.sim = deeper;
  BenchmarkReport fresh = runBenchmark("big", kBigDataProgram, full);
  ASSERT_TRUE(fresh.ok) << fresh.error;
  EXPECT_TRUE(resim.ok) << resim.error;
  expectSameOutcome(resim.twill, fresh.twill);
}

TEST(DriverTest, CompileErrorsAreReported) {
  BenchmarkReport r = runBenchmark("bad", "int main( { return 0; }");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("compile failed"), std::string::npos);
}

TEST(DriverTest, SemanticErrorsAreReported) {
  BenchmarkReport r = runBenchmark("bad2", "int main() { return f(3); }");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("undeclared"), std::string::npos);
}

TEST(DriverTest, UnsupportedConstructsAreRejectedNotMiscompiled) {
  // Recursion is outside the input subset (§3.2.1 of the thesis); the
  // interpreter traps it before any flow runs, surfacing a clean error.
  BenchmarkReport r = runBenchmark(
      "rec", "int fac(int n) { if (n <= 1) return 1; return n * fac(n - 1); }"
             "int main() { return fac(5); }",
      DriverOptions{});
  // Either the inliner flattened it away (depth-bounded) or an error is
  // reported — what must never happen is a wrong silent result.
  if (r.ok) EXPECT_EQ(r.expected, 120u);
}

TEST(DriverTest, VoidMainRejected) {
  BenchmarkReport r = runBenchmark("voidmain", "void main() { }");
  // void main returns no checksum; the flows still run and agree on 0, or
  // an error is reported. Again: no silent divergence.
  if (r.ok) {
    EXPECT_EQ(r.sw.result, r.expected);
    EXPECT_EQ(r.twill.result, r.expected);
  }
}

}  // namespace
}  // namespace twill
