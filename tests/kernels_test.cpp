// CHStone-like kernel tests: frozen golden checksums, cross-engine
// agreement (interpreter / functional pipeline / cycle-level flows), and
// per-kernel structural expectations.
#include <gtest/gtest.h>

#include "src/chstone/kernels.h"
#include "src/driver/driver.h"
#include "src/frontend/lower.h"
#include "src/ir/interp.h"
#include "src/ir/verifier.h"
#include "src/transforms/passes.h"

namespace twill {
namespace {

// Golden checksums, frozen. If one of these changes, a kernel's semantics
// changed — which invalidates every measured number in the committed bench
// baseline (bench/baseline/BENCH_dswp.json).
struct Golden {
  const char* name;
  uint32_t checksum;
};
const Golden kGolden[] = {
    {"mips", 0x1FB4075Au},  {"adpcm", 0x1B1AF5F9u}, {"aes", 0x658D289Au},
    {"blowfish", 0x7D41CEFAu}, {"gsm", 0x17E91C29u}, {"jpeg", 0x1D284AC4u},
    {"mpeg2", 0x069DCC02u}, {"sha", 0x6E1C05C6u},
};

uint32_t goldenFor(const std::string& name) {
  for (const auto& g : kGolden)
    if (name == g.name) return g.checksum;
  ADD_FAILURE() << "no golden value for " << name;
  return 0;
}

TEST(KernelRegistryTest, AllEightPresent) {
  ASSERT_EQ(chstoneKernels().size(), 8u);
  for (const auto& g : kGolden) EXPECT_NE(findKernel(g.name), nullptr) << g.name;
  EXPECT_EQ(findKernel("nonexistent"), nullptr);
}

class KernelParam : public ::testing::TestWithParam<int> {
protected:
  const KernelInfo& kernel() const {
    return chstoneKernels()[static_cast<size_t>(GetParam())];
  }
};

TEST_P(KernelParam, CompilesCleanAndVerifies) {
  Module m;
  DiagEngine diag;
  ASSERT_TRUE(compileC(kernel().source, m, diag)) << diag.str();
  DiagEngine vd;
  EXPECT_TRUE(verifyModule(m, vd)) << vd.str();
}

TEST_P(KernelParam, GoldenChecksumFrozen) {
  Module m;
  DiagEngine diag;
  ASSERT_TRUE(compileC(kernel().source, m, diag)) << diag.str();
  Interp in(m);
  EXPECT_EQ(in.run("main"), goldenFor(kernel().name));
}

TEST_P(KernelParam, OptimizationPreservesChecksum) {
  Module m;
  DiagEngine diag;
  ASSERT_TRUE(compileC(kernel().source, m, diag)) << diag.str();
  runDefaultPipeline(m);
  DiagEngine vd;
  ASSERT_TRUE(verifyModule(m, vd)) << vd.str();
  Interp in(m);
  EXPECT_EQ(in.run("main"), goldenFor(kernel().name));
}

TEST_P(KernelParam, DswpPipelineChecksum) {
  // Functional (unbounded-queue) pipeline equality for every kernel.
  Module m;
  DiagEngine diag;
  ASSERT_TRUE(compileC(kernel().source, m, diag)) << diag.str();
  runDefaultPipeline(m);
  DswpConfig cfg;
  DswpResult r = runDswp(m, cfg);
  DiagEngine vd;
  ASSERT_TRUE(verifyModule(m, vd)) << vd.str();
  PipelineInterp pi(m);
  seedSemaphores(r, pi.channels());
  pi.addThread(r.mainMaster);
  for (const auto& t : r.threads)
    if (t.fn != r.mainMaster) pi.addThread(t.fn);
  auto out = pi.run();
  ASSERT_TRUE(out.ok) << out.message;
  EXPECT_EQ(out.result, goldenFor(kernel().name));
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelParam, ::testing::Range(0, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return chstoneKernels()[static_cast<size_t>(info.param)].name;
                         });

// Full cycle-level driver agreement for two fast kernels (the whole-suite
// run lives in the bench binaries; tests keep runtime short).
TEST(KernelDriverTest, JpegAllFlowsAgree) {
  const KernelInfo* k = findKernel("jpeg");
  BenchmarkReport r = runBenchmark(k->name, k->source);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.expected, goldenFor("jpeg"));
  EXPECT_EQ(r.sw.result, r.expected);
  EXPECT_EQ(r.hw.result, r.expected);
  EXPECT_EQ(r.twill.result, r.expected);
  EXPECT_GT(r.speedupHWvsSW(), 1.0);  // hardware must beat the soft core
}

TEST(KernelDriverTest, ShaAllFlowsAgree) {
  const KernelInfo* k = findKernel("sha");
  BenchmarkReport r = runBenchmark(k->name, k->source);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.twill.result, goldenFor("sha"));
  EXPECT_GT(r.speedupHWvsSW(), 1.0);
  EXPECT_GT(r.speedupTwillvsSW(), 1.0);
  EXPECT_GT(r.queues, 0u);
  EXPECT_GT(r.hwThreads, 0u);
}

TEST(KernelDriverTest, AreasPopulated) {
  const KernelInfo* k = findKernel("adpcm");
  BenchmarkReport r = runBenchmark(k->name, k->source);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.areas.legup.luts, 0u);
  EXPECT_GT(r.areas.twillHwThreads.luts, 0u);
  EXPECT_GT(r.areas.twillTotal.luts, r.areas.twillHwThreads.luts);
  EXPECT_EQ(r.areas.twillPlusMicroblaze.luts,
            r.areas.twillTotal.luts + PrimitiveAreas::kMicroblazeLuts);
  EXPECT_EQ(r.areas.twillPlusMicroblaze.brams,
            r.areas.twillTotal.brams + PrimitiveAreas::kMicroblazeBrams);
}

TEST(KernelDriverTest, PowerOrderingMatchesFig61) {
  const KernelInfo* k = findKernel("gsm");
  BenchmarkReport r = runBenchmark(k->name, k->source);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_LT(r.powerHW, r.powerSW);
  EXPECT_LT(r.powerTwill, r.powerSW);
  EXPECT_LT(r.powerHW, r.powerTwill);  // Microblaze PLLs burden the hybrid
}

TEST(KernelDriverTest, BadSourceReportsError) {
  BenchmarkReport r = runBenchmark("broken", "int main() { return undeclared; }");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("compile failed"), std::string::npos);
}

}  // namespace
}  // namespace twill
