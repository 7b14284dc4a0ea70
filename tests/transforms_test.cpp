// Transform-pass tests. The core property: every pass preserves the program
// result (checked by running the golden interpreter before and after), plus
// pass-specific structural assertions.
#include <gtest/gtest.h>

#include "src/frontend/lower.h"
#include "src/ir/interp.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/transforms/passes.h"

namespace twill {
namespace {

struct Compiled {
  std::unique_ptr<Module> m;
  uint32_t reference = 0;
};

Compiled compileAndRun(const std::string& src) {
  Compiled c;
  c.m = std::make_unique<Module>();
  DiagEngine diag;
  EXPECT_TRUE(compileC(src, *c.m, diag)) << diag.str();
  Interp in(*c.m);
  c.reference = in.run("main");
  return c;
}

void expectVerified(Module& m) {
  DiagEngine d;
  EXPECT_TRUE(verifyModule(m, d)) << d.str() << "\n" << printModule(m);
}

uint32_t rerun(Module& m) {
  Interp in(m);
  return in.run("main");
}

size_t countOps(Function& f, Opcode op) {
  size_t n = 0;
  for (auto& bb : f.blocks())
    for (auto& inst : *bb)
      if (inst->op() == op) ++n;
  return n;
}

// --- mem2reg ----------------------------------------------------------------

TEST(Mem2RegTest, PromotesScalarsToPhis) {
  auto c = compileAndRun(
      "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }");
  Function* f = c.m->findFunction("main");
  EXPECT_GT(countOps(*f, Opcode::Load), 0u);
  EXPECT_TRUE(mem2reg(*f));
  expectVerified(*c.m);
  // All scalar locals promoted: no loads/stores/allocas remain.
  EXPECT_EQ(countOps(*f, Opcode::Load), 0u);
  EXPECT_EQ(countOps(*f, Opcode::Store), 0u);
  EXPECT_EQ(countOps(*f, Opcode::Alloca), 0u);
  EXPECT_GT(countOps(*f, Opcode::Phi), 0u);
  EXPECT_EQ(rerun(*c.m), c.reference);
}

TEST(Mem2RegTest, LeavesArraysAndEscapedAllocas) {
  auto c = compileAndRun(
      "void touch(int *p) { p[0] = 9; }"
      "int main() { int a[4]; int x = 3; touch(&x); a[0] = x; return a[0]; }");
  Function* f = c.m->findFunction("main");
  mem2reg(*f);
  expectVerified(*c.m);
  // The array alloca and the escaped scalar must survive.
  EXPECT_EQ(countOps(*f, Opcode::Alloca), 2u);
  EXPECT_EQ(rerun(*c.m), c.reference);
}

TEST(Mem2RegTest, DiamondPhiPlacement) {
  auto c = compileAndRun(
      "int main() { int x = 0; int v = 5;"
      "if (v > 3) x = 10; else x = 20;"
      "return x; }");
  Function* f = c.m->findFunction("main");
  mem2reg(*f);
  expectVerified(*c.m);
  EXPECT_EQ(rerun(*c.m), c.reference);
}

TEST(Mem2RegTest, ReadBeforeWriteIsZero) {
  // Simulated memory is zero-initialized, so an uninitialized read is 0.
  auto c = compileAndRun("int main() { int x; return x + 3; }");
  Function* f = c.m->findFunction("main");
  mem2reg(*f);
  expectVerified(*c.m);
  EXPECT_EQ(rerun(*c.m), 3u);
}

TEST(Mem2RegTest, NestedLoopsPreserveSemantics) {
  auto c = compileAndRun(
      "int main() { int s = 0;"
      "for (int i = 0; i < 8; i++) { int t = i;"
      "  for (int j = 0; j < i; j++) t += j * s;"
      "  s += t; }"
      "return s; }");
  Function* f = c.m->findFunction("main");
  mem2reg(*f);
  expectVerified(*c.m);
  EXPECT_EQ(rerun(*c.m), c.reference);
}

TEST(Mem2RegTest, SwitchChainPhiEdges) {
  // The frontend's compare chain makes its chain blocks real predecessors:
  // the label reached by both dispatch and fallthrough, and the exit of a
  // switch without a default, need phi incomings from the chain block
  // whose compare branches there.
  auto c = compileAndRun(
      "int main() { int s = 0; for (int i = 0; i < 6; i++) {"
      "  switch (i & 3) { case 0: s += 1; case 1: s += 10; break;"
      "  case 2: s += 100; } }"
      "return s; }");
  EXPECT_EQ(c.reference, 142u);
  Function* f = c.m->findFunction("main");
  EXPECT_TRUE(mem2reg(*f));
  expectVerified(*c.m);
  unsigned chainIncomings = 0;
  for (auto& bb : f->blocks())
    for (auto& inst : *bb)
      for (unsigned i = 0; inst->isPhi() && i < inst->numIncoming(); ++i)
        if (inst->incomingBlock(i)->name().rfind("sw.chain.", 0) == 0) ++chainIncomings;
  EXPECT_EQ(chainIncomings, 2u) << printModule(*c.m);
  EXPECT_EQ(rerun(*c.m), c.reference);
}

// --- simplifycfg ------------------------------------------------------------

TEST(SimplifyCFGTest, RemovesUnreachableAndMergesChains) {
  auto c = compileAndRun("int main() { return 5; int x = 3; return x; }");
  Function* f = c.m->findFunction("main");
  size_t before = f->numBlocks();
  simplifyCFG(*f);
  expectVerified(*c.m);
  EXPECT_LT(f->numBlocks(), before);
  EXPECT_EQ(rerun(*c.m), 5u);
}

TEST(SimplifyCFGTest, FoldsConstantBranches) {
  auto c = compileAndRun("int main() { if (1) return 7; return 9; }");
  Function* f = c.m->findFunction("main");
  mem2reg(*f);
  constantFold(*f, *c.m);
  simplifyCFG(*f);
  expectVerified(*c.m);
  EXPECT_EQ(f->numBlocks(), 1u);  // everything folds into entry
  EXPECT_EQ(rerun(*c.m), 7u);
}

TEST(SimplifyCFGTest, LoopsSurviveSimplification) {
  auto c = compileAndRun(
      "int main() { int s = 0; for (int i = 0; i < 6; i++) s += i * i; return s; }");
  Function* f = c.m->findFunction("main");
  mem2reg(*f);
  simplifyCFG(*f);
  expectVerified(*c.m);
  EXPECT_EQ(rerun(*c.m), c.reference);
}

// --- constant folding / DCE ---------------------------------------------------

TEST(ConstFoldTest, FoldsArithmetic) {
  auto c = compileAndRun("int main() { return 6 * 7 + (10 / 2) - (1 << 3); }");
  Function* f = c.m->findFunction("main");
  mem2reg(*f);
  constantFold(*f, *c.m);
  dce(*f);
  expectVerified(*c.m);
  // Entire body folds to `ret 39`.
  EXPECT_EQ(f->entry()->size(), 1u) << printFunction(f);
  EXPECT_EQ(rerun(*c.m), 39u);
}

TEST(ConstFoldTest, FoldsConstGlobalLoads) {
  auto c = compileAndRun(
      "const int k[4] = {11, 22, 33, 44};"
      "int main() { return k[2]; }");
  Function* f = c.m->findFunction("main");
  mem2reg(*f);
  constantFold(*f, *c.m);
  dce(*f);
  expectVerified(*c.m);
  EXPECT_EQ(countOps(*f, Opcode::Load), 0u);
  EXPECT_EQ(rerun(*c.m), 33u);
}

TEST(ConstFoldTest, AlgebraicIdentities) {
  auto c = compileAndRun(
      "int main(void) { int x = 9; int a = x + 0; int b = a * 1; int d = b | 0;"
      "return d ^ 0; }");
  Function* f = c.m->findFunction("main");
  mem2reg(*f);
  constantFold(*f, *c.m);
  dce(*f);
  expectVerified(*c.m);
  EXPECT_EQ(countOps(*f, Opcode::Add), 0u);
  EXPECT_EQ(countOps(*f, Opcode::Mul), 0u);
  EXPECT_EQ(rerun(*c.m), 9u);
}

TEST(ConstFoldTest, PointerRoundTripsFold) {
  auto c = compileAndRun(
      "int main() { int a[4] = {1,2,3,4}; int *p = a; int s = 0;"
      "for (int i = 0; i < 4; i++) s += p[i]; return s; }");
  Function* f = c.m->findFunction("main");
  mem2reg(*f);
  constantFold(*f, *c.m);
  dce(*f);
  expectVerified(*c.m);
  // The inttoptr(ptrtoint alloca) round trip must be gone.
  EXPECT_EQ(countOps(*f, Opcode::IntToPtr), 0u);
  EXPECT_EQ(rerun(*c.m), 10u);
}

TEST(DCETest, RemovesDeadCode) {
  auto c = compileAndRun(
      "int main() { int unused = 3 * 4; int alsounused[8]; return 2; }");
  Function* f = c.m->findFunction("main");
  mem2reg(*f);
  constantFold(*f, *c.m);
  dce(*f);
  expectVerified(*c.m);
  EXPECT_EQ(countOps(*f, Opcode::Alloca), 0u);
  EXPECT_EQ(f->entry()->size(), 1u);
  EXPECT_EQ(rerun(*c.m), 2u);
}

// --- mergeReturns ---------------------------------------------------------------

TEST(MergeReturnsTest, SingleExitAfterwards) {
  auto c = compileAndRun(
      "int main() { int x = 4; if (x > 2) return 1; if (x > 9) return 2; return 3; }");
  Function* f = c.m->findFunction("main");
  mergeReturns(*f, *c.m);
  expectVerified(*c.m);
  size_t rets = countOps(*f, Opcode::Ret);
  EXPECT_EQ(rets, 1u);
  EXPECT_EQ(rerun(*c.m), 1u);
}

// --- loopSimplify ---------------------------------------------------------------

TEST(LoopSimplifyTest, CanonicalLoopsUntouched) {
  auto c = compileAndRun(
      "int main() { int s = 0; for (int i = 0; i < 5; i++) s += i; return s; }");
  Function* f = c.m->findFunction("main");
  mem2reg(*f);
  loopSimplify(*f, *c.m);
  expectVerified(*c.m);
  EXPECT_EQ(rerun(*c.m), c.reference);
}

TEST(LoopSimplifyTest, BreakTargetsStayCorrect) {
  auto c = compileAndRun(
      "int main() { int s = 0;"
      "for (int i = 0; i < 50; i++) { if (i == 7) break; s += i; }"
      "return s; }");
  Function* f = c.m->findFunction("main");
  mem2reg(*f);
  simplifyCFG(*f);
  loopSimplify(*f, *c.m);
  expectVerified(*c.m);
  EXPECT_EQ(rerun(*c.m), c.reference);
}

// --- inlining --------------------------------------------------------------------

TEST(InlineTest, InlinesSimpleCall) {
  auto c = compileAndRun(
      "int sq(int x) { return x * x; }"
      "int main() { return sq(6) + sq(2); }");
  EXPECT_TRUE(inlineFunctions(*c.m, 100));
  expectVerified(*c.m);
  Function* f = c.m->findFunction("main");
  EXPECT_EQ(countOps(*f, Opcode::Call), 0u);
  EXPECT_EQ(rerun(*c.m), 40u);
}

TEST(InlineTest, InlinesThroughControlFlow) {
  auto c = compileAndRun(
      "int absdiff(int a, int b) { if (a > b) return a - b; return b - a; }"
      "int main() { int s = 0; for (int i = 0; i < 10; i++) s += absdiff(i, 5); return s; }");
  inlineFunctions(*c.m, 100);
  expectVerified(*c.m);
  EXPECT_EQ(rerun(*c.m), c.reference);
}

TEST(InlineTest, InlinesNestedCalls) {
  auto c = compileAndRun(
      "int f1(int x) { return x + 1; }"
      "int f2(int x) { return f1(x) * 2; }"
      "int f3(int x) { return f2(x) + f1(x); }"
      "int main() { return f3(10); }");
  inlineFunctions(*c.m, 100);
  removeDeadFunctions(*c.m);
  expectVerified(*c.m);
  Function* f = c.m->findFunction("main");
  EXPECT_EQ(countOps(*f, Opcode::Call), 0u);
  EXPECT_EQ(rerun(*c.m), c.reference);
  // Dead callees removed; only main remains.
  EXPECT_EQ(c.m->functions().size(), 1u);
}

TEST(InlineTest, RespectsThreshold) {
  auto c = compileAndRun(
      "int big(int x) { int s = 0;"
      "for (int i = 0; i < 10; i++) { s += x * i; s ^= i; s <<= 1; s >>= 1; }"
      "return s; }"
      "int other(int x) { return big(x) + 5; }"
      "int main() { return big(3) + big(4) + other(5); }");
  // Threshold 1: nothing inlined except single-call-site functions (`other`).
  inlineFunctions(*c.m, 1);
  expectVerified(*c.m);
  Function* f = c.m->findFunction("main");
  EXPECT_GT(countOps(*f, Opcode::Call), 0u);
  EXPECT_EQ(rerun(*c.m), c.reference);
}

TEST(InlineTest, VoidCalleeWithSideEffects) {
  auto c = compileAndRun(
      "int g[4];"
      "void bump(int i) { g[i] += 2; }"
      "int main() { bump(0); bump(0); bump(3); return g[0] * 10 + g[3]; }");
  inlineFunctions(*c.m, 100);
  expectVerified(*c.m);
  EXPECT_EQ(rerun(*c.m), 42u);
}

// --- globalsToArgs -----------------------------------------------------------------

TEST(GlobalsToArgsTest, GlobalsBecomeArguments) {
  auto c = compileAndRun(
      "int tab[4] = {1, 2, 3, 4};"
      "int get(int i) { return tab[i]; }"
      "int main() { return get(0) + get(3); }");
  EXPECT_TRUE(globalsToArgs(*c.m));
  expectVerified(*c.m);
  Function* get = c.m->findFunction("get");
  EXPECT_EQ(get->numArgs(), 2u);  // i + tab pointer
  // No direct global references inside `get` anymore.
  for (auto& bb : get->blocks())
    for (auto& inst : *bb)
      for (unsigned i = 0; i < inst->numOperands(); ++i)
        EXPECT_FALSE(isa<GlobalVar>(inst->operand(i)));
  EXPECT_EQ(rerun(*c.m), 5u);
}

TEST(GlobalsToArgsTest, TransitiveUseThroughCallChain) {
  auto c = compileAndRun(
      "int acc = 7;"
      "int leaf() { return acc; }"
      "int mid() { return leaf() + 1; }"
      "int main() { return mid(); }");
  globalsToArgs(*c.m);
  expectVerified(*c.m);
  Function* mid = c.m->findFunction("mid");
  EXPECT_EQ(mid->numArgs(), 1u);  // pass-through pointer for acc
  EXPECT_EQ(rerun(*c.m), 8u);
}

TEST(GlobalsToArgsTest, MainKeepsDirectAccess) {
  auto c = compileAndRun(
      "int x = 3;"
      "int main() { x += 1; return x; }");
  globalsToArgs(*c.m);
  expectVerified(*c.m);
  EXPECT_EQ(c.m->findFunction("main")->numArgs(), 0u);
  EXPECT_EQ(rerun(*c.m), 4u);
}

// --- whole pipeline ------------------------------------------------------------------

TEST(PipelineTest, DefaultPipelinePreservesResults) {
  const char* progs[] = {
      "int main() { int s = 0; for (int i = 0; i < 20; i++) s += i * i; return s; }",
      "int f(int n) { int r = 1; while (n > 1) { r *= n; n--; } return r; }"
      "int main() { return f(6); }",
      "unsigned char box[16] = {3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3};"
      "int main() { unsigned s = 0; for (int i = 0; i < 16; i++) s = s * 31 + box[i];"
      "return (int)(s & 0x7FFFFFFF); }",
      "int a[8]; int b[8];"
      "void init(int *p, int k) { for (int i = 0; i < 8; i++) p[i] = i * k; }"
      "int dot(int *p, int *q) { int s = 0; for (int i = 0; i < 8; i++) s += p[i] * q[i];"
      "return s; }"
      "int main() { init(a, 2); init(b, 3); return dot(a, b); }",
      "int main() { int x = 0; int i = 0;"
      "do { switch (i % 3) { case 0: x += 1; break; case 1: x += 10; break;"
      "default: x += 100; } i++; } while (i < 9); return x; }",
  };
  for (const char* p : progs) {
    auto c = compileAndRun(p);
    runDefaultPipeline(*c.m);
    expectVerified(*c.m);
    EXPECT_EQ(rerun(*c.m), c.reference) << p;
  }
}

TEST(PipelineTest, PipelineEliminatesMemoryTraffic) {
  auto c = compileAndRun(
      "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }");
  runDefaultPipeline(*c.m);
  Function* f = c.m->findFunction("main");
  EXPECT_EQ(countOps(*f, Opcode::Load), 0u);
  EXPECT_EQ(countOps(*f, Opcode::Store), 0u);
  EXPECT_EQ(rerun(*c.m), c.reference);
}

TEST(PipelineTest, FullInlineOfHelperTree) {
  auto c = compileAndRun(
      "int mulhi(int a, int b) { return (a * b) >> 4; }"
      "int stage1(int x) { return mulhi(x, 19) + 3; }"
      "int stage2(int x) { return mulhi(stage1(x), 7) ^ 0x55; }"
      "int main() { int s = 0; for (int i = 0; i < 32; i++) s += stage2(i); return s; }");
  runDefaultPipeline(*c.m);
  expectVerified(*c.m);
  EXPECT_EQ(c.m->functions().size(), 1u);  // everything inlined, like MIPS/SHA in §6.1
  EXPECT_EQ(rerun(*c.m), c.reference);
}

}  // namespace
}  // namespace twill
