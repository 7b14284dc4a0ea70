// Cross-engine equivalence suite for the execution tiers.
//
// The pre-decoded ExecState (src/exec/decoded.h) replaced the tree-walking
// interpreter; its superblock trace runner (src/exec/superblock.h) is the
// one implementation of every non-channel opcode, and step() runs one op
// through it at a time. RefExecState (src/ir/interp.h) is kept as the
// independent golden reference. These tests pin ExecState to it through
// runDifferential (src/fuzz/differential.h) — results and retired-
// instruction counts must match on every CHStone kernel and on a frontend
// torture battery, step by step, whole-trace and under budget-stop/resume
// — pin the superblock pipeline (channel ops mid-trace) against a
// RefExecState replica of the burst scheduler, and pin the cycle-level
// counters of every simulator flow to golden values recorded before the
// event-driven scheduler landed, so engine rewrites cannot silently shift
// timing.
#include <gtest/gtest.h>

#include <iterator>

#include "src/chstone/kernels.h"
#include "src/driver/driver.h"
#include "src/exec/superblock.h"
#include "src/frontend/lower.h"
#include "src/fuzz/differential.h"
#include "src/ir/builder.h"
#include "src/ir/interp.h"
#include "src/ir/verifier.h"

namespace twill {
namespace {

struct RefRun {
  uint32_t result = 0;
  uint64_t retired = 0;
};

/// Runs `main` on the reference tree-walking interpreter.
RefRun runReference(Module& m) {
  Memory mem;
  Layout lay;
  lay.build(m, mem);
  FunctionalChannels chans;
  RefExecState st(m, lay, mem, chans, m.findFunction("main"));
  StepResult r{};
  for (uint64_t guard = 0; guard < (1ull << 32); ++guard) {
    r = st.step();
    if (r.status != StepStatus::Ran) break;
  }
  EXPECT_EQ(r.status, StepStatus::Finished) << st.trapMessage();
  return {st.result(), st.retired()};
}

// Both batteries run every engine through runDifferential and require main
// to return: a trap shared by every engine fails them too.
TEST(ExecEquivalenceTest, ChstoneKernelsMatchReference) {
  for (const auto& k : chstoneKernels()) {
    const DifferentialResult r = runDifferential(k.source);
    EXPECT_TRUE(r.compiled && r.agree && r.finished) << k.name << "\n" << r.detail;
  }
}

// Frontend torture battery: precedence, signedness, width narrowing,
// short-circuiting, recursion-free calls, switch dispatch, memory.
TEST(ExecEquivalenceTest, TorturePrograms) {
  const char* programs[] = {
      "int main(void) { return 2 + 3 * 4 - 5; }",
      "int main(void) { return (1 | 2 ^ 3 & 4) + (5 + 3 << 2) + (16 >> 1 + 1); }",
      "int main(void) { return -7 / 2 + -7 % 2 + (-1 >> 1) + (int)(0x80000000u >> 4); }",
      "int main(void) { return (char)200 + (unsigned char)200 + (short)0x8000; }",
      "int main(void) { unsigned a = (unsigned)-1; return (int)(a / 7u + a % 7u); }",
      "int main(void) { int x = 0; for (int i = 0; i < 100; i++) x += i * i; return x; }",
      "int main(void) { int a = 1, b = 2, c; c = a = b += 3; return c * 100 + a * 10 + b; }",
      "int main(void) { return 1 ? 2 : 3 ? 4 : 5; }",
      "int s(int n) { int t = 0; while (n) { t += n % 10; n /= 10; } return t; }\n"
      "int main(void) { return s(987654); }",
      "int f(int x) { return x * 3 + 1; }\n"
      "int g(int x) { return f(x) - f(x / 2); }\n"
      "int main(void) { int a = 0; for (int i = 0; i < 20; ++i) a += g(i); return a; }",
      "int main(void) { int v[16]; for (int i = 0; i < 16; i++) v[i] = i * 7;\n"
      "  int s = 0; for (int i = 15; i >= 0; i--) s = s * 3 + v[i]; return s; }",
      "short h(short a, char b) { return (short)(a * b); }\n"
      "int main(void) { short s = 0; for (char c = 1; c < 20; c++) s = h(s, c) + c;\n"
      "  return s; }",
      "int main(void) { int r = 0, i = 0;\n"
      "  do { switch (i % 5) { case 0: r += 1; break; case 1: r += 10; break;\n"
      "  case 2: r += 100; break; case 3: r -= 7; break; default: r *= 2; } } \n"
      "  while (++i < 23); return r; }",
      "int main(void) { int x = 5; int* p = &x; *p = 9; return x + *p; }",
  };
  for (size_t i = 0; i < std::size(programs); ++i) {
    const DifferentialResult r = runDifferential(programs[i]);
    EXPECT_TRUE(r.compiled && r.agree && r.finished) << "torture#" << i << "\n" << r.detail;
  }
}

// ---------------------------------------------------------------------------
// Block-exit interactions: channel operations break the trace and go through
// the per-inst path. The oracle is a RefExecState replica of
// PipelineInterp's burst scheduler (round-robin, 4096-attempt bursts,
// main-finished check after each thread) — result AND total retired must
// match, which pins the superblock port's burst accounting attempt for
// attempt.
// ---------------------------------------------------------------------------

struct RefPipelineRun {
  bool ok = false;
  bool deadlocked = false;
  uint32_t result = 0;
  uint64_t totalRetired = 0;
};

RefPipelineRun runRefPipeline(Module& m, const std::vector<Function*>& fns,
                              const DswpResult* dswp = nullptr) {
  RefPipelineRun out;
  Memory mem(Memory::kDefaultSize);
  Layout lay;
  lay.build(m, mem);
  FunctionalChannels chans;
  if (dswp) seedSemaphores(*dswp, chans);
  std::vector<std::unique_ptr<RefExecState>> threads;
  for (Function* f : fns) threads.emplace_back(new RefExecState(m, lay, mem, chans, f));
  for (uint64_t round = 0; round < (1ull << 20); ++round) {
    bool progress = false;
    for (auto& t : threads) {
      if (t->finished() || t->trapped()) continue;
      for (int burst = 0; burst < 4096; ++burst) {
        StepResult r = t->step();
        if (r.status == StepStatus::Ran) {
          progress = true;
          continue;
        }
        if (r.status == StepStatus::Finished) progress = true;
        if (r.status == StepStatus::Trapped) ADD_FAILURE() << t->trapMessage();
        break;
      }
      if (threads[0]->finished()) {
        out.ok = true;
        out.result = threads[0]->result();
        for (auto& th : threads) out.totalRetired += th->retired();
        return out;
      }
    }
    if (!progress) {
      out.deadlocked = true;
      return out;
    }
  }
  ADD_FAILURE() << "reference pipeline did not finish";
  return out;
}

// Hand-built pipeline with produce/consume/semaphore operations in the
// middle of straight-line runs: the trace must break at each one, take the
// per-inst path, and resume mid-block.
TEST(SuperblockInteractionTest, ChannelOpsMidTrace) {
  Module m;
  IRBuilder b(m);
  TypeContext& ty = m.types();
  // prod: for i in [0,50): produce(0, i*i); produce(1, i*i + i); then
  // raises sem 9 once and returns. Channel ops sit between arithmetic so
  // every trace breaks and resumes inside the block.
  Function* prod = m.createFunction("prod", ty.voidTy());
  {
    BasicBlock* entry = prod->createBlock("entry");
    BasicBlock* loop = prod->createBlock("loop");
    BasicBlock* exit = prod->createBlock("exit");
    b.setInsertPoint(entry);
    b.br(loop);
    b.setInsertPoint(loop);
    Instruction* i = b.phi(ty.i32());
    b.setInsertPoint(loop);
    Instruction* sq = b.mul(i, i);
    b.produce(0, sq);
    Instruction* mix = b.add(sq, i);
    b.produce(1, mix);
    Instruction* i2 = b.add(i, m.i32Const(1));
    Instruction* c = b.cmp(Opcode::CmpULT, i2, m.i32Const(50));
    b.condBr(c, loop, exit);
    i->addIncoming(m.i32Const(0), entry);
    i->addIncoming(i2, loop);
    b.setInsertPoint(exit);
    b.semRaise(9, m.i32Const(1));
    b.retVoid();
  }
  // main: consumes both channels, folds them, then waits on the semaphore
  // before returning.
  Function* main = m.createFunction("main", ty.i32());
  {
    BasicBlock* entry = main->createBlock("entry");
    BasicBlock* loop = main->createBlock("loop");
    BasicBlock* exit = main->createBlock("exit");
    b.setInsertPoint(entry);
    b.br(loop);
    b.setInsertPoint(loop);
    Instruction* i = b.phi(ty.i32());
    Instruction* acc = b.phi(ty.i32());
    b.setInsertPoint(loop);
    Instruction* a = b.consume(0, ty.i32());
    Instruction* shifted = b.binary(Opcode::Shl, a, m.i32Const(1));
    Instruction* bb2 = b.consume(1, ty.i32());
    Instruction* acc2 = b.add(acc, b.binary(Opcode::Xor, shifted, bb2));
    Instruction* i2 = b.add(i, m.i32Const(1));
    Instruction* c = b.cmp(Opcode::CmpULT, i2, m.i32Const(50));
    b.condBr(c, loop, exit);
    i->addIncoming(m.i32Const(0), entry);
    i->addIncoming(i2, loop);
    acc->addIncoming(m.i32Const(0), entry);
    acc->addIncoming(acc2, loop);
    b.setInsertPoint(exit);
    b.semLower(9, m.i32Const(1));
    b.ret(acc2);
  }
  {
    DiagEngine vd;
    ASSERT_TRUE(verifyModule(m, vd)) << vd.str();
  }

  RefPipelineRun ref = runRefPipeline(m, {main, prod});
  ASSERT_TRUE(ref.ok);

  PipelineInterp pi(m);
  pi.addThread(main);
  pi.addThread(prod);
  auto out = pi.run();
  ASSERT_TRUE(out.ok) << out.message;
  EXPECT_EQ(out.result, ref.result);
  EXPECT_EQ(out.totalRetired, ref.totalRetired);
}

// DSWP-extracted kernels are the real stress: produce/consume pairs, memory
// token queues and overlap-guard semaphores, all mid-trace in persistent
// slave dispatch loops. Outcomes must agree with the reference replica in
// full. Both harnesses seed the semaphores' initial counts the way the
// cycle-level fabric does — sha's overlap guard starts at 1, and skipping
// the seeding (as this suite did before) reads as a pipeline deadlock on
// the guard's very first sem.lower.
TEST(SuperblockInteractionTest, DswpPipelinesMatchReferenceScheduler) {
  for (const char* name : {"adpcm", "jpeg", "sha"}) {
    const KernelInfo* k = findKernel(name);
    ASSERT_NE(k, nullptr) << name;
    Module m;
    DiagEngine diag;
    ASSERT_TRUE(compileC(k->source, m, diag)) << name;
    runDefaultPipeline(m, 100);
    DswpResult dswp = runDswp(m, {});
    std::vector<Function*> fns;
    for (const auto& t : dswp.threads) fns.push_back(t.fn);
    ASSERT_FALSE(fns.empty()) << name;

    RefPipelineRun ref = runRefPipeline(m, fns, &dswp);

    PipelineInterp pi(m);
    seedSemaphores(dswp, pi.channels());
    for (Function* f : fns) pi.addThread(f);
    auto out = pi.run();
    EXPECT_TRUE(ref.ok) << name;
    EXPECT_EQ(out.ok, ref.ok) << name << ": " << out.message;
    EXPECT_EQ(out.deadlocked, ref.deadlocked) << name;
    if (ref.ok && out.ok) {
      EXPECT_EQ(out.result, ref.result) << name;
      EXPECT_EQ(out.totalRetired, ref.totalRetired) << name;
    }
  }
}

// Focused regression for the seeding rule itself: a function with two
// static call sites gets an overlap-guard semaphore with initial count 1.
// Unseeded functional channels leave the guard at 0, so the pipeline
// deadlocks on its first sem.lower; seeded, it completes with the golden
// checksum. Pins both halves so the rule cannot silently regress.
TEST(SuperblockInteractionTest, OverlapGuardNeedsSeededInitialCount) {
  // f is large enough to partition (>= 12 instructions) and called twice.
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
  uint32_t expected;
  {
    Interp in(m);
    expected = in.run("main");
  }
  DswpConfig cfg;
  cfg.numPartitions = 2;
  DswpResult dswp = runDswp(m, cfg);
  ASSERT_FALSE(dswp.semaphores.empty()) << "expected an overlap guard";
  EXPECT_EQ(dswp.semaphores[0].initialCount, 1u);
  std::vector<Function*> fns;
  for (const auto& t : dswp.threads) fns.push_back(t.fn);

  RefPipelineRun unseeded = runRefPipeline(m, fns);
  EXPECT_FALSE(unseeded.ok);
  EXPECT_TRUE(unseeded.deadlocked);

  RefPipelineRun seeded = runRefPipeline(m, fns, &dswp);
  EXPECT_TRUE(seeded.ok);
  EXPECT_FALSE(seeded.deadlocked);
  EXPECT_EQ(seeded.result, expected);

  PipelineInterp pi(m);
  seedSemaphores(dswp, pi.channels());
  for (Function* f : fns) pi.addThread(f);
  auto out = pi.run();
  ASSERT_TRUE(out.ok) << out.message;
  EXPECT_EQ(out.result, expected);
  EXPECT_EQ(out.totalRetired, seeded.totalRetired);
}

// Retired counts must agree with the Interp wrapper too (it is the value the
// benches report).
TEST(ExecEquivalenceTest, InterpMatchesReferenceRetired) {
  const KernelInfo& k = chstoneKernels()[0];
  Module m;
  DiagEngine d;
  ASSERT_TRUE(compileC(k.source, m, d));
  runDefaultPipeline(m);
  RefRun ref = runReference(m);
  Interp in(m);
  EXPECT_EQ(in.run("main"), ref.result);
  EXPECT_EQ(in.retired(), ref.retired);
}

// An unmapped global (module modified after Layout::build) must trap with a
// diagnostic instead of crashing — on both engines.
TEST(ExecTrapTest, UnmappedGlobalTrapsOnBothEngines) {
  Module m;
  IRBuilder b(m);
  Memory mem;
  Layout lay;
  lay.build(m, mem);  // built before the global exists
  GlobalVar* g = m.createGlobal("late", 32, 1, false);
  Function* f = m.createFunction("main", m.types().i32());
  b.setInsertPoint(f->createBlock("entry"));
  Instruction* v = b.load(g);
  b.ret(v);

  {
    FunctionalChannels chans;
    RefExecState st(m, lay, mem, chans, f);
    StepResult r{};
    for (int i = 0; i < 16 && (r = st.step()).status == StepStatus::Ran; ++i) {
    }
    EXPECT_EQ(r.status, StepStatus::Trapped);
    EXPECT_NE(st.trapMessage().find("no address"), std::string::npos) << st.trapMessage();
  }
  {
    DecodedProgram prog(m, lay);
    FunctionalChannels chans;
    ExecState st(prog, mem, chans, f);
    StepResult r{};
    for (int i = 0; i < 16 && (r = st.step()).status == StepStatus::Ran; ++i) {
    }
    EXPECT_EQ(r.status, StepStatus::Trapped);
    EXPECT_NE(st.trapMessage().find("no address"), std::string::npos) << st.trapMessage();
    // The poisoned-record diagnostic names the faulting instruction's
    // source block, not just the function.
    EXPECT_NE(st.trapMessage().find("@main/%entry"), std::string::npos) << st.trapMessage();
  }
}

// Poison diagnostics carry the source block wherever the faulting
// instruction sits — here an unmapped alloca in a non-entry block.
TEST(ExecTrapTest, PoisonedRecordNamesSourceBlock) {
  Module m;
  IRBuilder b(m);
  Memory mem;
  Layout lay;
  Function* f = m.createFunction("main", m.types().i32());
  BasicBlock* entry = f->createBlock("entry");
  BasicBlock* body = f->createBlock("body");
  b.setInsertPoint(entry);
  b.br(body);
  lay.build(m, mem);  // built before the alloca exists
  b.setInsertPoint(body);
  Instruction* slot = b.alloca_(32, 1, "late");
  Instruction* v = b.load(slot);
  b.ret(v);

  DecodedProgram prog(m, lay);
  FunctionalChannels chans;
  ExecState st(prog, mem, chans, f);
  StepResult r{};
  for (int i = 0; i < 16 && (r = st.step()).status == StepStatus::Ran; ++i) {
  }
  EXPECT_EQ(r.status, StepStatus::Trapped);
  EXPECT_NE(st.trapMessage().find("alloca %late"), std::string::npos) << st.trapMessage();
  EXPECT_NE(st.trapMessage().find("@main/%body"), std::string::npos) << st.trapMessage();
}

// Layout::addrOf on an unmapped key reports the sentinel (it used to abort
// through std::unordered_map::at).
TEST(ExecTrapTest, LayoutAddrOfUnmappedReturnsSentinel) {
  Module m;
  Memory mem;
  Layout lay;
  lay.build(m, mem);
  GlobalVar* g = m.createGlobal("g", 32, 1, false);
  EXPECT_EQ(lay.addrOf(g), Layout::kUnmapped);
}

// Each decoded terminator carries its own block's schedule, read by block
// id; a function the schedule map lacks carries none.
TEST(ExecDecodeTest, TerminatorsCarryTheirBlockSchedule) {
  Module m;
  DiagEngine diag;
  ASSERT_TRUE(compileC(findKernel("mpeg2")->source, m, diag)) << diag.str();
  runDefaultPipeline(m, 0);  // keeps getbits and decode_mv out of main
  ScheduleMap sched = scheduleModule(m);
  Function* unscheduled = nullptr;
  for (auto& f : m.functions())
    if (f->name() != "main" && f->numBlocks() > 1) unscheduled = f;
  ASSERT_NE(unscheduled, nullptr);
  sched.erase(unscheduled);
  Memory mem;
  Layout lay;
  lay.build(m, mem);
  DecodedProgram prog(m, lay, &sched);
  size_t multiBlockFunctions = 0;
  for (auto& f : m.functions()) {
    const DecodedFunction& df = prog.get(f);
    const auto it = sched.find(f);
    if (it != sched.end() && f->numBlocks() > 1) ++multiBlockFunctions;
    size_t terminators = 0;
    for (const DecodedInst& d : df.insts) {
      if (!d.src->isTerminator()) continue;
      ++terminators;
      if (it == sched.end()) {
        EXPECT_FALSE(d.flags & DecodedInst::kHasSchedule) << f->name();
        EXPECT_EQ(d.hlsStatic, 1u) << f->name();
        EXPECT_EQ(d.hlsII, 1u) << f->name();
        continue;
      }
      const BlockSchedule& bs = it->second.blocks[d.src->parent()->id()];
      EXPECT_TRUE(d.flags & DecodedInst::kHasSchedule) << f->name();
      EXPECT_EQ(d.hlsStatic, bs.staticCycles) << f->name();
      EXPECT_EQ(d.hlsII, bs.pipelinedII) << f->name();
    }
    EXPECT_EQ(terminators, f->numBlocks()) << f->name();
  }
  EXPECT_GE(multiBlockFunctions, 2u);
}

// ---------------------------------------------------------------------------
// Cycle-level golden counters.
//
// Recorded from the seed (pre-decoded, poll-every-cycle) simulator on the
// default SimConfig; the pre-decoded engine + event-driven scheduler must
// reproduce every field bit for bit. If an intentional timing-model change
// ever lands, regenerate these from the bench artifact.
// ---------------------------------------------------------------------------

struct TwillGolden {
  const char* name;
  uint32_t result;
  uint64_t cycles, retiredSW, retiredHW, busMessages, memBusMessages;
  uint64_t contextSwitches, queueOps, cpuBusy, hwBusy;
};

constexpr TwillGolden kTwillGoldens[] = {
    {"mips", 531892058u, 163286, 32, 166713, 74592, 6516, 2, 74592, 149, 309395},
    {"adpcm", 454751737u, 55826, 977, 52267, 17172, 5840, 0, 17172, 3995, 87058},
    {"aes", 1703749786u, 61589, 321, 77191, 18756, 6982, 0, 18756, 2636, 52556},
    {"blowfish", 2101464826u, 294594, 366, 368564, 48574, 49070, 53, 48574, 2288, 117309},
    {"gsm", 401153065u, 94128, 25, 112565, 28256, 10991, 0, 28256, 115, 73225},
    {"jpeg", 489179844u, 20360, 28, 26536, 7120, 2204, 0, 7120, 129, 24714},
    {"mpeg2", 111004674u, 76862, 370, 75770, 28786, 5819, 0, 28786, 1723, 115097},
    {"sha", 1847330246u, 47954, 25, 75670, 21592, 4696, 2, 21592, 105, 57207},
};

TEST(TwillSimGoldenTest, CountersMatchPreSchedulerSimulator) {
  for (const TwillGolden& g : kTwillGoldens) {
    const KernelInfo* k = findKernel(g.name);
    ASSERT_NE(k, nullptr) << g.name;
    Module m;
    DiagEngine diag;
    ASSERT_TRUE(compileC(k->source, m, diag)) << g.name;
    runDefaultPipeline(m, 100);
    DswpResult dswp = runDswp(m, {});
    ScheduleMap sched = scheduleModule(m);
    SimOutcome o = simulateTwill(m, dswp, {}, sched);
    ASSERT_TRUE(o.ok) << g.name << ": " << o.message;
    EXPECT_EQ(o.result, g.result) << g.name;
    EXPECT_EQ(o.cycles, g.cycles) << g.name;
    EXPECT_EQ(o.retiredSW, g.retiredSW) << g.name;
    EXPECT_EQ(o.retiredHW, g.retiredHW) << g.name;
    EXPECT_EQ(o.busMessages, g.busMessages) << g.name;
    EXPECT_EQ(o.memBusMessages, g.memBusMessages) << g.name;
    EXPECT_EQ(o.contextSwitches, g.contextSwitches) << g.name;
    EXPECT_EQ(o.queueOps, g.queueOps) << g.name;
    EXPECT_EQ(o.cpuBusy, g.cpuBusy) << g.name;
    EXPECT_EQ(o.hwBusy, g.hwBusy) << g.name;
    // A shared pre-decoded program (sweep path) must not change anything.
    SimProgram shared(m, sched);
    SimOutcome o2 = simulateTwill(m, dswp, {}, sched, &shared);
    EXPECT_EQ(o2.cycles, o.cycles) << g.name;
    EXPECT_EQ(o2.result, o.result) << g.name;
  }
}

// Pure-SW / pure-HW baseline counters, pinned on the superblock tier (both
// executors now run whole traces through it; values recorded from the
// per-inst engine, which they must reproduce bit for bit). The busy and
// retired columns come from flows.sw/flows.hw of the committed bench
// baseline; busy cycles can trail the cycle count (jpeg's pure-SW run).
struct PureGolden {
  const char* name;
  uint32_t result;
  uint64_t swCycles, cpuBusy, hwCycles, hwBusy;
  uint64_t retired;  // same module on both flows: retiredSW == retiredHW
};

constexpr PureGolden kPureGoldens[] = {
    {"mips", 531892058u, 222525, 222525, 78639, 45471, 56489},
    {"adpcm", 454751737u, 104047, 104047, 53000, 39045, 25843},
    {"aes", 1703749786u, 173485, 173485, 53885, 16288, 45086},
    {"blowfish", 2101464826u, 1089609, 1089609, 287335, 37573, 274459},
    {"gsm", 401153065u, 499236, 499236, 91871, 31815, 74232},
    {"jpeg", 489179844u, 92752, 92748, 21758, 9832, 15706},
    {"mpeg2", 111004674u, 156707, 156707, 51142, 30080, 34671},
    {"sha", 1847330246u, 177413, 177413, 41323, 11789, 36764},
};

TEST(PureSimGoldenTest, BaselineCyclesMatchPerInstEngine) {
  for (const PureGolden& g : kPureGoldens) {
    const KernelInfo* k = findKernel(g.name);
    ASSERT_NE(k, nullptr) << g.name;
    Module m;
    DiagEngine diag;
    ASSERT_TRUE(compileC(k->source, m, diag)) << g.name;
    runDefaultPipeline(m, 100);
    SimOutcome sw = simulatePureSW(m);
    ASSERT_TRUE(sw.ok) << g.name << ": " << sw.message;
    EXPECT_EQ(sw.result, g.result) << g.name;
    EXPECT_EQ(sw.cycles, g.swCycles) << g.name;
    EXPECT_EQ(sw.retiredSW, g.retired) << g.name;
    EXPECT_EQ(sw.cpuBusy, g.cpuBusy) << g.name;
    ScheduleMap sched = scheduleModule(m);
    SimOutcome hw = simulatePureHW(m, sched);
    ASSERT_TRUE(hw.ok) << g.name << ": " << hw.message;
    EXPECT_EQ(hw.result, g.result) << g.name;
    EXPECT_EQ(hw.cycles, g.hwCycles) << g.name;
    EXPECT_EQ(hw.retiredHW, g.retired) << g.name;
    EXPECT_EQ(hw.hwBusy, g.hwBusy) << g.name;
  }
}

// SimConfig::maxCycles is inclusive on every flow: a run whose cycle count
// equals the limit succeeds, and one cycle less fails.
TEST(SimCycleLimitTest, EveryFlowSucceedsExactlyAtTheLimit) {
  const TwillGolden& tg = kTwillGoldens[0];
  const PureGolden& pg = kPureGoldens[0];
  ASSERT_STREQ(tg.name, "mips");
  ASSERT_STREQ(pg.name, "mips");
  Module m;
  DiagEngine diag;
  ASSERT_TRUE(compileC(findKernel("mips")->source, m, diag)) << diag.str();
  runDefaultPipeline(m, 100);
  auto expectLimit = [](const char* flow, uint64_t cycles, auto run) {
    SimConfig cfg;
    cfg.maxCycles = cycles;
    const SimOutcome at = run(cfg);
    EXPECT_TRUE(at.ok) << flow << ": " << at.message;
    EXPECT_EQ(at.cycles, cycles) << flow;
    cfg.maxCycles = cycles - 1;
    const SimOutcome below = run(cfg);
    EXPECT_FALSE(below.ok) << flow << ": cycles " << below.cycles;
    EXPECT_EQ(below.message, "cycle limit exceeded") << flow;
  };
  expectLimit("pure-SW", pg.swCycles, [&](const SimConfig& c) { return simulatePureSW(m, c); });
  const ScheduleMap baseSched = scheduleModule(m);
  expectLimit("pure-HW", pg.hwCycles,
              [&](const SimConfig& c) { return simulatePureHW(m, baseSched, c); });
  const DswpResult dswp = runDswp(m, {});
  const ScheduleMap sched = scheduleModule(m);
  expectLimit("twill", tg.cycles,
              [&](const SimConfig& c) { return simulateTwill(m, dswp, c, sched); });
}

}  // namespace
}  // namespace twill
