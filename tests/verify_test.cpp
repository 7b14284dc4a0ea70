// Static partition verifier tests.
//
// Two directions, matching the verifier's design contract
// (src/verify/partition_verifier.h):
//  * soundness of the reject side — hand-built protocol bugs (endpoint
//    violations, unbalanced matched loops, under-seeded semaphores, wait
//    cycles, unbounded lowering) must be rejected with diagnostics naming
//    the offending thread/channel/semaphore and block;
//  * zero false positives on the accept side — every CHStone kernel across
//    the exploration grid's compile axes must verify clean, because the
//    extractor constructs balanced protocols by construction.
#include <gtest/gtest.h>

#include <map>

#include "src/chstone/kernels.h"
#include "src/driver/driver.h"
#include "src/dswp/extract.h"
#include "src/frontend/lower.h"
#include "src/fuzz/progen.h"
#include "src/ir/builder.h"
#include "src/transforms/passes.h"
#include "src/verify/partition_verifier.h"

namespace twill {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// --- Hand-built protocol bugs -----------------------------------------------
//
// Each test assembles a tiny module with the IRBuilder plus a DswpResult
// describing its channels/semaphores/threads — the shapes the extractor is
// designed to never emit, which is exactly why they must be built by hand.

ChannelInfo dataChannel(int id, const std::string& note) {
  ChannelInfo ch;
  ch.id = id;
  ch.note = note;
  return ch;
}

SemaphoreInfo guardSem(int id, uint32_t initialCount, const std::string& note) {
  SemaphoreInfo s;
  s.id = id;
  s.initialCount = initialCount;
  s.note = note;
  return s;
}

DswpThread thread(Function* f) {
  DswpThread t;
  t.fn = f;
  t.origin = f->name() + "#0";
  return t;
}

/// A function with a single entry block, insertion point set.
Function* makeFn(Module& m, IRBuilder& b, const std::string& name) {
  Function* f = m.createFunction(name, m.types().voidTy());
  b.setInsertPoint(f->createBlock("entry"));
  return f;
}

TEST(PartitionVerifierTest, TwoProducersOnOneChannelRejected) {
  Module m;
  IRBuilder b(m);
  Function* a = makeFn(m, b, "A");
  b.produce(0, b.i32(1));
  b.retVoid();
  Function* a2 = makeFn(m, b, "A2");
  b.produce(0, b.i32(2));
  b.retVoid();
  Function* c = makeFn(m, b, "C");
  b.consume(0, m.types().i32());
  b.retVoid();

  DswpResult r;
  r.channels.push_back(dataChannel(0, "test"));
  r.threads = {thread(a), thread(a2), thread(c)};
  r.mainMaster = a;

  const std::string diags = verifyPartitionToString(m, r);
  EXPECT_FALSE(diags.empty());
  EXPECT_TRUE(contains(diags, "channel 0")) << diags;
  EXPECT_TRUE(contains(diags, "produced by 2 functions")) << diags;
  EXPECT_TRUE(contains(diags, "[A]")) << diags;
  EXPECT_TRUE(contains(diags, "[A2]")) << diags;
}

TEST(PartitionVerifierTest, SameFunctionOnBothEndsRejected) {
  Module m;
  IRBuilder b(m);
  Function* a = makeFn(m, b, "loopback");
  b.produce(0, b.i32(1));
  b.consume(0, m.types().i32());
  b.retVoid();

  DswpResult r;
  r.channels.push_back(dataChannel(0, "self"));
  r.threads = {thread(a)};
  r.mainMaster = a;

  const std::string diags = verifyPartitionToString(m, r);
  EXPECT_TRUE(contains(diags, "[loopback] both produces and consumes channel 0")) << diags;
}

TEST(PartitionVerifierTest, ConsumeWithNoProducerRejected) {
  Module m;
  IRBuilder b(m);
  Function* a = makeFn(m, b, "starved");
  b.consume(0, m.types().i32());
  b.retVoid();

  DswpResult r;
  r.channels.push_back(dataChannel(0, "orphan"));
  r.threads = {thread(a)};
  r.mainMaster = a;

  const std::string diags = verifyPartitionToString(m, r);
  EXPECT_TRUE(contains(diags, "block 'entry'")) << diags;
  EXPECT_TRUE(contains(diags, "which no function produces")) << diags;
  // The startup game independently proves the same bug kills the pipeline.
  EXPECT_TRUE(contains(diags, "deadlock")) << diags;
}

/// Producer and consumer loops that the verifier matches by base name (the
/// ".p<N>" suffix is the extractor's partition-clone marker), with unequal
/// constant per-iteration deltas.
TEST(PartitionVerifierTest, UnbalancedMatchedLoopsRejected) {
  Module m;
  IRBuilder b(m);

  Function* p = m.createFunction("work_dswp_0", m.types().voidTy());
  BasicBlock* pe = p->createBlock("entry");
  BasicBlock* ph = p->createBlock("loop.p0");
  BasicBlock* px = p->createBlock("exit");
  b.setInsertPoint(pe);
  b.br(ph);
  b.setInsertPoint(ph);
  b.produce(0, b.i32(7));
  b.produce(0, b.i32(8));  // two tokens per iteration
  b.condBr(m.i1Const(true), ph, px);
  b.setInsertPoint(px);
  b.retVoid();

  Function* c = m.createFunction("work_dswp_1", m.types().voidTy());
  BasicBlock* ce = c->createBlock("entry");
  BasicBlock* ch = c->createBlock("loop.p1");
  BasicBlock* cx = c->createBlock("exit");
  b.setInsertPoint(ce);
  b.br(ch);
  b.setInsertPoint(ch);
  b.consume(0, m.types().i32());  // one token per iteration
  b.condBr(m.i1Const(true), ch, cx);
  b.setInsertPoint(cx);
  b.retVoid();

  DswpResult r;
  r.channels.push_back(dataChannel(0, "work:cross"));
  r.threads = {thread(p), thread(c)};
  r.mainMaster = p;

  const std::string diags = verifyPartitionToString(m, r);
  EXPECT_TRUE(contains(diags, "channel 0")) << diags;
  EXPECT_TRUE(contains(diags, "unbalanced")) << diags;
  EXPECT_TRUE(contains(diags, "matched loop 'loop'")) << diags;
  EXPECT_TRUE(contains(diags, "produces 2")) << diags;
  EXPECT_TRUE(contains(diags, "consumes 1")) << diags;
}

/// Identical shape with equal deltas: must verify clean (guards against the
/// balance analysis rejecting its own happy path).
TEST(PartitionVerifierTest, BalancedMatchedLoopsAccepted) {
  Module m;
  IRBuilder b(m);

  Function* p = m.createFunction("work_dswp_0", m.types().voidTy());
  BasicBlock* pe = p->createBlock("entry");
  BasicBlock* ph = p->createBlock("loop.p0");
  BasicBlock* px = p->createBlock("exit");
  b.setInsertPoint(pe);
  b.br(ph);
  b.setInsertPoint(ph);
  b.produce(0, b.i32(7));
  b.condBr(m.i1Const(true), ph, px);
  b.setInsertPoint(px);
  b.retVoid();

  Function* c = m.createFunction("work_dswp_1", m.types().voidTy());
  BasicBlock* ce = c->createBlock("entry");
  BasicBlock* ch = c->createBlock("loop.p1");
  BasicBlock* cx = c->createBlock("exit");
  b.setInsertPoint(ce);
  b.br(ch);
  b.setInsertPoint(ch);
  b.consume(0, m.types().i32());
  b.condBr(m.i1Const(true), ch, cx);
  b.setInsertPoint(cx);
  b.retVoid();

  DswpResult r;
  r.channels.push_back(dataChannel(0, "work:cross"));
  r.threads = {thread(p), thread(c)};
  r.mainMaster = p;

  EXPECT_EQ(verifyPartitionToString(m, r), "");
}

TEST(PartitionVerifierTest, UnderSeededSemaphoreRejected) {
  Module m;
  IRBuilder b(m);
  Function* f = makeFn(m, b, "master");
  b.semLower(0, b.i32(1));  // overlap-guard shape: lower at entry...
  b.semRaise(0, b.i32(1));  // ...raise before returning
  b.retVoid();

  DswpResult r;
  r.semaphores.push_back(guardSem(0, /*initialCount=*/0, "master overlap guard"));
  r.threads = {thread(f)};
  r.mainMaster = f;

  const std::string diags = verifyPartitionToString(m, r);
  EXPECT_TRUE(contains(diags, "semaphore 0 (master overlap guard)")) << diags;
  EXPECT_TRUE(contains(diags, "initial count 0")) << diags;
  EXPECT_TRUE(contains(diags, "this lower always blocks")) << diags;
  EXPECT_TRUE(contains(diags, "[master] block 'entry'")) << diags;

  // The exact same protocol with the extractor's seeding rule applied
  // (initial count 1) is the working overlap guard and must verify clean.
  r.semaphores[0].initialCount = 1;
  EXPECT_EQ(verifyPartitionToString(m, r), "");
}

TEST(PartitionVerifierTest, CrossConsumeWaitCycleRejected) {
  Module m;
  IRBuilder b(m);
  Function* a = makeFn(m, b, "stageA");
  b.consume(0, m.types().i32());
  b.produce(1, b.i32(1));
  b.retVoid();
  Function* c = makeFn(m, b, "stageB");
  b.consume(1, m.types().i32());
  b.produce(0, b.i32(2));
  b.retVoid();

  DswpResult r;
  r.channels.push_back(dataChannel(0, "B->A"));
  r.channels.push_back(dataChannel(1, "A->B"));
  r.threads = {thread(a), thread(c)};
  r.mainMaster = a;

  const std::string diags = verifyPartitionToString(m, r);
  EXPECT_TRUE(contains(diags, "deadlock: thread 'stageA#0' [stageA]")) << diags;
  EXPECT_TRUE(contains(diags, "blocked consuming channel 0")) << diags;
  EXPECT_TRUE(contains(diags, "blocked consuming channel 1")) << diags;
  EXPECT_TRUE(contains(diags, "wait cycle closes at [stageA]")) << diags;
}

TEST(PartitionVerifierTest, UnboundedLoweringLoopRejected) {
  Module m;
  IRBuilder b(m);
  Function* f = m.createFunction("drainer", m.types().voidTy());
  BasicBlock* e = f->createBlock("entry");
  BasicBlock* h = f->createBlock("drain.loop");
  BasicBlock* x = f->createBlock("exit");
  b.setInsertPoint(e);
  b.br(h);
  b.setInsertPoint(h);
  b.semLower(0, b.i32(1));  // net -1 per iteration, nobody raises
  b.condBr(m.i1Const(true), h, x);
  b.setInsertPoint(x);
  b.retVoid();

  DswpResult r;
  r.semaphores.push_back(guardSem(0, /*initialCount=*/5, "guard"));
  r.threads = {thread(f)};
  r.mainMaster = f;

  const std::string diags = verifyPartitionToString(m, r);
  EXPECT_TRUE(contains(diags, "[drainer] loop 'drain.loop'")) << diags;
  EXPECT_TRUE(contains(diags, "semaphore 0 (guard)")) << diags;
  EXPECT_TRUE(contains(diags, "eventually exhausted")) << diags;
}

TEST(PartitionVerifierTest, UnknownChannelIdRejected) {
  Module m;
  IRBuilder b(m);
  Function* a = makeFn(m, b, "rogue");
  b.produce(42, b.i32(1));  // channel 42 is not in the DswpResult tables
  b.retVoid();

  DswpResult r;
  r.threads = {thread(a)};
  r.mainMaster = a;

  const std::string diags = verifyPartitionToString(m, r);
  EXPECT_TRUE(contains(diags, "unknown channel 42")) << diags;
}

// --- The PR 4 regression, statically ----------------------------------------
//
// exec_test's OverlapGuardNeedsSeededInitialCount pins the overlap-guard
// seeding rule dynamically (the unseeded pipeline deadlocks at runtime).
// This is its static twin: the same two-call-site program, extracted the
// same way, must be rejected by verifyPartition the moment the guard's
// initial count is zeroed — no simulation required.
TEST(PartitionVerifierTest, StaticTwinOfOverlapGuardSeedingBug) {
  const char* src =
      "int acc[8];\n"
      "int f(int s) {\n"
      "  int t = 0;\n"
      "  for (int i = 0; i < 8; i++) { acc[i] = acc[i] * 3 + s + i; t += acc[i]; }\n"
      "  for (int i = 0; i < 8; i++) { t ^= acc[i] << (i & 3); }\n"
      "  return t;\n"
      "}\n"
      "int main(void) { int a = f(3); int b = f(a & 15); return a + b; }\n";
  Module m;
  DiagEngine diag;
  ASSERT_TRUE(compileC(src, m, diag)) << diag.str();
  runDefaultPipeline(m, /*inlineThreshold=*/0);  // keep f out-of-line
  DswpConfig cfg;
  cfg.numPartitions = 2;
  DswpResult dswp = runDswp(m, cfg);
  ASSERT_FALSE(dswp.semaphores.empty()) << "expected an overlap guard";

  // Extractor output (guard seeded with 1): clean.
  EXPECT_EQ(verifyPartitionToString(m, dswp), "");

  // The historical bug shape: guard left at 0.
  dswp.semaphores[0].initialCount = 0;
  const std::string diags = verifyPartitionToString(m, dswp);
  EXPECT_FALSE(diags.empty());
  EXPECT_TRUE(contains(diags, "semaphore " + std::to_string(dswp.semaphores[0].id))) << diags;
  EXPECT_TRUE(contains(diags, "initial count 0")) << diags;
}

// --- Zero false positives across the exploration grid ------------------------
//
// The acceptance bar for shipping the verifier in the default driver path:
// every CHStone kernel, across every compile-side configuration the default
// twill-explore grid can reach, verifies clean. A failure here is a verifier
// bug (too strong), not an extractor bug — the dswp/driver suites prove
// these same pipelines run to the golden checksum.
TEST(PartitionVerifierSweepTest, ChstoneGridHasNoFalsePositives) {
  for (const KernelInfo& k : chstoneKernels()) {
    for (unsigned parts : {0u, 2u, 4u, 6u}) {
      for (double swf : {0.1, 0.5}) {
        Module m;
        DiagEngine diag;
        ASSERT_TRUE(compileC(k.source, m, diag)) << k.name << ": " << diag.str();
        runDefaultPipeline(m);
        DswpConfig cfg;
        cfg.numPartitions = parts;
        cfg.swFraction = swf;
        DswpResult r = runDswp(m, cfg);
        DiagEngine vd;
        EXPECT_TRUE(verifyPartition(m, r, vd))
            << k.name << " partitions=" << parts << " swFraction=" << swf << ":\n"
            << vd.str();
      }
    }
  }
}

// --- Verdicts on generated programs -------------------------------------------
//
// generateProgram seeds through runBenchmark's verify-only path at K = 0 and
// K = 4 (sw-fraction 0.1). The four rejects are the known extractor <->
// verifier gap: orphan consumes on seeds 43 and 149 and unbalanced matched
// loops on seed 96, on pipelines that simulate to the golden checksum with
// verification off. Every other run verifies clean. The full diagnostic
// text is pinned so a rebuilt verifier must say the same thing; closing the
// gap will change these pins on purpose.
TEST(PartitionVerifierSweepTest, ProgenVerdictsArePinned) {
  const std::vector<std::string> seed149 = {
      "error: [main_dswp_1] block 'f0.if.then.0.p1': consumes channel 7 (main:v41->1) which no "
      "function produces; the consume can never unblock",
      "error: [main_dswp_1] block 'f0.if.then.0.p1': consumes channel 8 (main:v62->1) which no "
      "function produces; the consume can never unblock",
      "warning: [main_dswp_1] block 'f0.if.then.0.p1': thread 'main#1' [main_dswp_1] can stall "
      "here; no schedule unblocks this operation"};
  auto unbalanced = [](const std::string& fn, int ch, const std::string& v) {
    return "error: [" + fn + "_dswp_2] block 'f0.for.cond.6.p2': channel " + std::to_string(ch) +
           " (" + fn + ":" + v + "->2) is unbalanced: [" + fn +
           "_dswp_1] produces 0 per iteration of matched loop "
           "'f0.do.body.0/f0.while.cond.3/f0.for.cond.6' but [" + fn +
           "_dswp_2] consumes 1; the queue drifts until it overflows or starves";
  };
  const std::map<std::pair<uint64_t, unsigned>, std::vector<std::string>> rejects = {
      {{43, 0},
       {"error: [main_dswp_1] block 'cond.else.79.p1': consumes channel 8 (main:v11->1) which "
        "no function produces; the consume can never unblock",
        "warning: [main_dswp_1] block 'cond.else.79.p1': thread 'main#1' [main_dswp_1] can "
        "stall here; no schedule unblocks this operation"}},
      {{96, 4},
       {unbalanced("f2", 10, "v37"), unbalanced("f2", 11, "v39"), unbalanced("f3", 32, "v221"),
        unbalanced("f3", 33, "v223")}},
      {{149, 0}, seed149},
      {{149, 4}, seed149},
  };
  std::vector<uint64_t> seeds;
  for (uint64_t s = 1; s <= 103; ++s) seeds.push_back(s);
  seeds.push_back(149);
  unsigned accepted = 0;
  for (uint64_t seed : seeds) {
    const std::string src = generateProgram(seed);
    for (unsigned parts : {0u, 4u}) {
      DriverOptions opts;
      opts.verifyOnly = true;
      opts.dswp.numPartitions = parts;
      opts.dswp.swFraction = 0.1;
      const BenchmarkReport r = runBenchmark("progen", src, opts);
      auto it = rejects.find({seed, parts});
      if (it == rejects.end()) {
        EXPECT_TRUE(r.ok) << "seed " << seed << " K=" << parts << ": " << r.error;
        accepted += r.ok;
        continue;
      }
      EXPECT_FALSE(r.ok) << "seed " << seed << " K=" << parts;
      EXPECT_EQ(r.failureKind, FailureKind::Verify) << "seed " << seed << " K=" << parts;
      EXPECT_EQ(r.verifyDiagnostics, it->second) << "seed " << seed << " K=" << parts;
    }
  }
  EXPECT_EQ(accepted, 2 * seeds.size() - rejects.size());
}

// --- Driver wiring ------------------------------------------------------------

TEST(VerifyDriverTest, VerifyOnlyStopsBeforeSimulation) {
  DriverOptions opts;
  opts.verifyOnly = true;
  BenchmarkReport r = runBenchmark("mips", findKernel("mips")->source, opts);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.failureKind, FailureKind::None);
  EXPECT_GT(r.queues, 0u);
  // No flow was simulated: --verify-only is a compile+extract+verify pass.
  EXPECT_FALSE(r.ranSW);
  EXPECT_FALSE(r.ranHW);
  EXPECT_FALSE(r.ranTwill);
}

TEST(VerifyDriverTest, UnseededGuardClassifiedAsVerifyFailure) {
  const char* src =
      "int acc[8];\n"
      "int f(int s) {\n"
      "  int t = 0;\n"
      "  for (int i = 0; i < 8; i++) { acc[i] = acc[i] * 3 + s + i; t += acc[i]; }\n"
      "  for (int i = 0; i < 8; i++) { t ^= acc[i] << (i & 3); }\n"
      "  return t;\n"
      "}\n"
      "int main(void) { int a = f(3); int b = f(a & 15); return a + b; }\n";
  DriverOptions opts;
  opts.inlineThreshold = 0;
  opts.dswp.numPartitions = 2;
  opts.unseedSemaphores = true;
  BenchmarkReport r = runBenchmark("guard", src, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failureKind, FailureKind::Verify);
  ASSERT_FALSE(r.verifyDiagnostics.empty());
  bool namesSemaphore = false;
  for (const std::string& d : r.verifyDiagnostics)
    if (contains(d, "semaphore")) namesSemaphore = true;
  EXPECT_TRUE(namesSemaphore) << r.error;
  EXPECT_TRUE(contains(r.error, "partition verification failed")) << r.error;
}

TEST(VerifyDriverTest, FailureKindNamesAreStable) {
  EXPECT_STREQ(failureKindName(FailureKind::None), "none");
  EXPECT_STREQ(failureKindName(FailureKind::Compile), "compile");
  EXPECT_STREQ(failureKindName(FailureKind::Verify), "verify");
  EXPECT_STREQ(failureKindName(FailureKind::Sim), "sim");
}

}  // namespace
}  // namespace twill
