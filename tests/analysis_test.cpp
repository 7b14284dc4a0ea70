// Analysis-library tests: dominators, postdominators, loops, alias analysis,
// control dependence, PDG, SCCs. CFGs are built from real C-subset programs
// through the frontend so the shapes are representative.
#include <gtest/gtest.h>

#include "src/analysis/cfg.h"
#include "src/analysis/pdg.h"
#include "src/frontend/lower.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"

namespace twill {
namespace {

class AnalysisFixture : public ::testing::Test {
protected:
  Module m;
  DiagEngine diag;

  /// Compiles `src` and returns `fn`, renumbered as DomTree and LoopInfo
  /// require.
  Function* compile(const std::string& src, const std::string& fn = "main") {
    bool ok = compileC(src, m, diag);
    EXPECT_TRUE(ok) << diag.str();
    Function* f = m.findFunction(fn);
    EXPECT_NE(f, nullptr);
    if (f) f->renumber();
    return f;
  }

  static BasicBlock* blockNamed(Function* f, const std::string& prefix) {
    for (auto& bb : f->blocks())
      if (bb->name().rfind(prefix, 0) == 0) return bb;
    return nullptr;
  }
};

TEST_F(AnalysisFixture, DominatorsDiamond) {
  Function* f = compile(
      "int main() { int x = 1; if (x) { x = 2; } else { x = 3; } return x; }");
  DomTree dom;
  dom.build(*f, false);
  BasicBlock* entry = f->entry();
  BasicBlock* thenBB = blockNamed(f, "if.then");
  BasicBlock* elseBB = blockNamed(f, "if.else");
  BasicBlock* endBB = blockNamed(f, "if.end");
  ASSERT_TRUE(thenBB && elseBB && endBB);
  EXPECT_TRUE(dom.dominates(entry, thenBB));
  EXPECT_TRUE(dom.dominates(entry, endBB));
  EXPECT_FALSE(dom.dominates(thenBB, endBB));
  EXPECT_FALSE(dom.dominates(elseBB, endBB));
  EXPECT_EQ(dom.idom(endBB), entry);
  EXPECT_EQ(dom.idom(thenBB), entry);
  EXPECT_TRUE(dom.dominates(entry, entry));
}

TEST_F(AnalysisFixture, PostDominatorsDiamond) {
  Function* f = compile(
      "int main() { int x = 1; if (x) { x = 2; } else { x = 3; } return x; }");
  DomTree pdom;
  pdom.build(*f, true);
  BasicBlock* entry = f->entry();
  BasicBlock* thenBB = blockNamed(f, "if.then");
  BasicBlock* endBB = blockNamed(f, "if.end");
  ASSERT_TRUE(thenBB && endBB);
  EXPECT_TRUE(pdom.dominates(endBB, entry));
  EXPECT_TRUE(pdom.dominates(endBB, thenBB));
  EXPECT_FALSE(pdom.dominates(thenBB, entry));
  EXPECT_EQ(pdom.idom(thenBB), endBB);
}

TEST_F(AnalysisFixture, PostDominatorsMultipleExits) {
  Function* f = compile(
      "int main() { int x = 3; if (x > 1) return 1; x = 5; return x; }");
  DomTree pdom;
  pdom.build(*f, true);
  // Both return blocks postdominate nothing of each other; entry's
  // postdominator is the virtual root (nullptr) because paths diverge.
  BasicBlock* entry = f->entry();
  EXPECT_TRUE(pdom.isReachable(entry));
  EXPECT_EQ(pdom.idom(entry), nullptr);
}

TEST_F(AnalysisFixture, LoopInfoSimpleLoop) {
  Function* f = compile(
      "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }");
  DomTree dom;
  dom.build(*f, false);
  LoopInfo li;
  li.build(*f, dom);
  BasicBlock* cond = blockNamed(f, "for.cond");
  BasicBlock* body = blockNamed(f, "for.body");
  BasicBlock* exit = blockNamed(f, "for.end");
  ASSERT_TRUE(cond && body && exit);
  Loop* l = li.loopFor(body);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->header, cond);
  EXPECT_EQ(l->depth, 1u);
  EXPECT_TRUE(l->contains(cond));
  EXPECT_FALSE(l->contains(exit));
  EXPECT_EQ(li.loopFor(exit), nullptr);
  EXPECT_EQ(li.loopFor(f->entry()), nullptr);
  auto exits = l->exitBlocks();
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_EQ(exits[0], exit);
}

TEST_F(AnalysisFixture, LoopInfoNesting) {
  Function* f = compile(
      "int main() { int s = 0;"
      "for (int i = 0; i < 4; i++)"
      "  for (int j = 0; j < 4; j++) s += i * j;"
      "return s; }");
  DomTree dom;
  dom.build(*f, false);
  LoopInfo li;
  li.build(*f, dom);
  ASSERT_EQ(li.loops().size(), 2u);
  EXPECT_EQ(li.topLevelLoops().size(), 1u);
  Loop* outer = li.topLevelLoops()[0];
  ASSERT_EQ(outer->subloops.size(), 1u);
  Loop* inner = outer->subloops[0];
  EXPECT_EQ(inner->depth, 2u);
  EXPECT_EQ(outer->depth, 1u);
  EXPECT_TRUE(outer->contains(inner));
  EXPECT_FALSE(inner->contains(outer));
}

TEST_F(AnalysisFixture, LoopInfoWhileAndDo) {
  Function* f = compile(
      "int main() { int i = 0; int s = 0;"
      "while (i < 5) { s += i; i++; }"
      "do { s--; } while (s > 20);"
      "return s; }");
  DomTree dom;
  dom.build(*f, false);
  LoopInfo li;
  li.build(*f, dom);
  EXPECT_EQ(li.loops().size(), 2u);
  EXPECT_EQ(li.topLevelLoops().size(), 2u);
}

TEST_F(AnalysisFixture, BlockCreatedAfterBuildIsUnreachableAndInNoLoop) {
  Function* f = compile(
      "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }");
  DomTree dom;
  dom.build(*f, false);
  LoopInfo li;
  li.build(*f, dom);
  BasicBlock* cond = blockNamed(f, "for.cond");
  BasicBlock* body = blockNamed(f, "for.body");
  ASSERT_TRUE(cond && body);
  Loop* l = li.loopFor(body);
  ASSERT_NE(l, nullptr);
  // The split block sits inside the loop, but the analyses predate it.
  BasicBlock* late = splitEdge(*f, cond, body, "late");
  EXPECT_FALSE(dom.isReachable(late));
  EXPECT_EQ(dom.idom(late), nullptr);
  EXPECT_FALSE(dom.dominates(f->entry(), late));
  EXPECT_TRUE(dom.children(late).empty());
  EXPECT_TRUE(dom.frontier(late).empty());
  EXPECT_EQ(li.loopFor(late), nullptr);
  EXPECT_EQ(li.depth(late), 0u);
  EXPECT_FALSE(l->contains(late));
  // ...so the loop now branches out of itself through it.
  EXPECT_EQ(l->exitBlocks(), (std::vector<BasicBlock*>{late, blockNamed(f, "for.end")}));
}

TEST_F(AnalysisFixture, BlockOfAnotherFunctionIsNotFound) {
  // Both functions are renumbered from 0, so every block id of `other`
  // collides with one of main's.
  Function* f = compile(
      "int other(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }"
      "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }");
  Function* g = m.findFunction("other");
  ASSERT_NE(g, nullptr);
  g->renumber();
  DomTree dom;
  dom.build(*f, false);
  LoopInfo li;
  li.build(*f, dom);
  ASSERT_EQ(li.loops().size(), 1u);
  const Loop* l = li.loops()[0].get();
  for (auto& bb : g->blocks()) {
    EXPECT_FALSE(dom.isReachable(bb)) << bb->name();
    EXPECT_EQ(dom.idom(bb), nullptr) << bb->name();
    EXPECT_FALSE(dom.dominates(f->entry(), bb)) << bb->name();
    EXPECT_FALSE(dom.dominates(bb, bb)) << bb->name();
    EXPECT_EQ(li.loopFor(bb), nullptr) << bb->name();
    EXPECT_FALSE(l->contains(bb)) << bb->name();
  }
}

TEST_F(AnalysisFixture, LoopExitBlocksInBlockOrder) {
  Function* f = compile(
      "int main() { int s = 0;"
      "for (int i = 0; i < 10; i++) {"
      "  if (s > 50) break;"
      "  if (s == 7) return 3;"
      "  s += i; }"
      "return s; }");
  DomTree dom;
  dom.build(*f, false);
  LoopInfo li;
  li.build(*f, dom);
  Loop* l = li.loopFor(blockNamed(f, "for.body"));
  ASSERT_NE(l, nullptr);
  // Outside the loop: the loop's own exit, then the `break` and `return`
  // blocks, which the body creates in source order after it.
  std::vector<BasicBlock*> expected{blockNamed(f, "for.end")};
  for (auto& bb : f->blocks())
    if (bb->name().rfind("if.then", 0) == 0) expected.push_back(bb);
  ASSERT_EQ(expected.size(), 3u);
  EXPECT_EQ(l->exitBlocks(), expected);
  for (BasicBlock* bb : l->blocks) EXPECT_TRUE(l->contains(bb)) << bb->name();
  for (size_t i = 1; i < l->blocks.size(); ++i)
    EXPECT_LT(l->blocks[i - 1]->id(), l->blocks[i]->id());
}

TEST_F(AnalysisFixture, DominatorsOfIrreducibleTwoEntryLoop) {
  // entry branches into both A and B, which branch to each other: a cycle
  // with two entries, so neither dominates the other and there is no
  // natural loop.
  Function* f = m.createFunction("irr", m.types().i32());
  Argument* c = f->addArg(m.types().i32(), "c");
  BasicBlock* entry = f->createBlock("entry");
  BasicBlock* a = f->createBlock("a");
  BasicBlock* b = f->createBlock("b");
  BasicBlock* exit = f->createBlock("exit");
  IRBuilder ib(m);
  ib.setInsertPoint(entry);
  ib.condBr(ib.cmp(Opcode::CmpNE, c, m.i32Const(0)), a, b);
  ib.setInsertPoint(a);
  ib.br(b);
  ib.setInsertPoint(b);
  ib.condBr(ib.cmp(Opcode::CmpEQ, c, m.i32Const(1)), a, exit);
  ib.setInsertPoint(exit);
  ib.ret(c);
  f->renumber();

  DomTree dom;
  dom.build(*f, false);
  EXPECT_EQ(dom.order(), (std::vector<BasicBlock*>{entry, a, b, exit}));
  EXPECT_EQ(dom.idom(entry), nullptr);
  EXPECT_EQ(dom.idom(a), entry);
  EXPECT_EQ(dom.idom(b), entry);
  EXPECT_EQ(dom.idom(exit), b);
  EXPECT_FALSE(dom.dominates(a, b));
  EXPECT_FALSE(dom.dominates(b, a));
  EXPECT_TRUE(dom.dominates(b, exit));
  EXPECT_TRUE(dom.dominates(entry, exit));
  std::vector<BasicBlock*> kids(dom.children(entry).begin(), dom.children(entry).end());
  EXPECT_EQ(kids, (std::vector<BasicBlock*>{a, b}));
  EXPECT_EQ(dom.frontier(a), std::vector<BasicBlock*>{b});
  EXPECT_EQ(dom.frontier(b), std::vector<BasicBlock*>{a});
  EXPECT_TRUE(dom.frontier(entry).empty());

  DomTree pdom;
  pdom.build(*f, true);
  EXPECT_EQ(pdom.idom(exit), nullptr);
  EXPECT_EQ(pdom.idom(b), exit);
  EXPECT_EQ(pdom.idom(a), b);
  EXPECT_EQ(pdom.idom(entry), b);

  LoopInfo li;
  li.build(*f, dom);
  EXPECT_TRUE(li.loops().empty());
}

TEST_F(AnalysisFixture, AliasDistinguishesGlobals) {
  Function* f = compile(
      "int a[8]; int b[8];"
      "int main() { a[1] = 1; b[2] = 2; return a[1] + b[2]; }");
  AliasAnalysis aa(*f);
  // Find the two store pointers.
  std::vector<Value*> storePtrs;
  std::vector<Value*> loadPtrs;
  for (auto& bb : f->blocks())
    for (auto& inst : *bb) {
      if (inst->op() == Opcode::Store) storePtrs.push_back(inst->operand(1));
      if (inst->op() == Opcode::Load) loadPtrs.push_back(inst->operand(0));
    }
  ASSERT_EQ(storePtrs.size(), 2u);
  EXPECT_FALSE(aa.mayAlias(storePtrs[0], storePtrs[1]));
  EXPECT_TRUE(aa.mayAlias(storePtrs[0], storePtrs[0]));
  ASSERT_EQ(loadPtrs.size(), 2u);
  EXPECT_TRUE(aa.mayAlias(storePtrs[0], loadPtrs[0]));   // a[1] vs a[1]
  EXPECT_FALSE(aa.mayAlias(storePtrs[0], loadPtrs[1]));  // a[1] vs b[2]
}

TEST_F(AnalysisFixture, AliasArgumentsConservative) {
  Function* f = compile(
      "int g[4];"
      "void k(int *p, int *q) { p[0] = 1; q[0] = 2; g[0] = 3; }"
      "int main() { return 0; }",
      "k");
  AliasAnalysis aa(*f);
  // Only the user-visible stores (constant values 1/2/3) — parameter spills
  // to allocas are stores too and must be skipped.
  std::vector<Value*> ptrs;
  for (auto& bb : f->blocks())
    for (auto& inst : *bb)
      if (inst->op() == Opcode::Store && isa<Constant>(inst->operand(0)))
        ptrs.push_back(inst->operand(1));
  ASSERT_EQ(ptrs.size(), 3u);
  EXPECT_TRUE(aa.mayAlias(ptrs[0], ptrs[1]));  // p vs q may alias
  EXPECT_TRUE(aa.mayAlias(ptrs[0], ptrs[2]));  // p may point at g
}

TEST_F(AnalysisFixture, AliasLocalArrayVsArgument) {
  // A non-escaping local array cannot alias an argument pointer.
  Function* f = compile(
      "int k(int *p) { int tmp[4]; tmp[0] = 5; p[0] = 7; return tmp[0]; }"
      "int main() { int a[4]; return k(a); }",
      "k");
  AliasAnalysis aa(*f);
  Value* tmpStore = nullptr;
  Value* argStore = nullptr;
  for (auto& bb : f->blocks())
    for (auto& inst : *bb)
      if (inst->op() == Opcode::Store && inst->operand(0)->kind() == Value::Kind::Constant) {
        auto* c = cast<Constant>(inst->operand(0));
        if (c->zext() == 5) tmpStore = inst->operand(1);
        if (c->zext() == 7) argStore = inst->operand(1);
      }
  ASSERT_TRUE(tmpStore && argStore);
  EXPECT_FALSE(aa.mayAlias(tmpStore, argStore));
}

TEST_F(AnalysisFixture, PDGDataEdges) {
  Function* f = compile("int main() { int x = 3; int y = x * 2; return y + x; }");
  PDG pdg;
  pdg.build(*f);
  // Every non-constant operand must induce a Data edge.
  size_t dataEdges = 0;
  for (const auto& e : pdg.edges())
    if (e.kind == DepKind::Data) ++dataEdges;
  EXPECT_GT(dataEdges, 0u);
  // Check a specific edge: the multiply feeds the add.
  Instruction* mul = nullptr;
  Instruction* add = nullptr;
  for (auto& bb : f->blocks())
    for (auto& inst : *bb) {
      if (inst->op() == Opcode::Mul) mul = inst;
      if (inst->op() == Opcode::Add) add = inst;
    }
  ASSERT_TRUE(mul && add);
  // Pre-mem2reg the value flows mul -> store -> load -> add, so check
  // reachability in the PDG rather than a direct edge.
  std::vector<unsigned> work{mul->id()};
  std::unordered_set<unsigned> seen{mul->id()};
  bool found = false;
  while (!work.empty() && !found) {
    unsigned v = work.back();
    work.pop_back();
    for (unsigned s : pdg.succs(v)) {
      if (pdg.node(s) == add) found = true;
      if (seen.insert(s).second) work.push_back(s);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(AnalysisFixture, PDGControlEdges) {
  Function* f = compile(
      "int g;"
      "int main() { int x = g; if (x > 0) { g = 1; } return g; }");
  PDG pdg;
  pdg.build(*f);
  BasicBlock* thenBB = blockNamed(f, "if.then");
  ASSERT_TRUE(thenBB);
  const auto& deps = pdg.controlDepsOf(thenBB);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0]->op(), Opcode::CondBr);
  // The store in the then-block must have a Control edge from the branch.
  Instruction* store = nullptr;
  for (auto& inst : *thenBB)
    if (inst->op() == Opcode::Store) store = inst;
  ASSERT_TRUE(store);
  bool found = false;
  for (const auto& e : pdg.edges())
    if (e.from == deps[0] && e.to == store && e.kind == DepKind::Control) found = true;
  EXPECT_TRUE(found);
}

TEST_F(AnalysisFixture, PDGLoopBodyControlDependsOnLoopBranch) {
  Function* f = compile(
      "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }");
  PDG pdg;
  pdg.build(*f);
  BasicBlock* body = blockNamed(f, "for.body");
  BasicBlock* cond = blockNamed(f, "for.cond");
  ASSERT_TRUE(body && cond);
  const auto& deps = pdg.controlDepsOf(body);
  ASSERT_FALSE(deps.empty());
  EXPECT_EQ(deps[0]->parent(), cond);
  // The loop condition block is control-dependent on itself (re-execution).
  const auto& condDeps = pdg.controlDepsOf(cond);
  bool self = false;
  for (Instruction* d : condDeps)
    if (d->parent() == cond) self = true;
  EXPECT_TRUE(self);
}

TEST_F(AnalysisFixture, PDGControlDepsOfAnotherFunctionsBlockAreEmpty) {
  // Both functions are renumbered from 0, so each block of `other` shares
  // its id with a block of main, and some of those have dependences.
  Function* f = compile(
      "int other(int n) { int s = 0; while (n > 0) { if (n & 1) s += n; n--; } return s; }"
      "int main() { int s = 0; for (int i = 0; i < 10; i++) if (i & 1) s += i; return s; }");
  Function* g = m.findFunction("other");
  ASSERT_NE(g, nullptr);
  g->renumber();
  PDG pdg;
  pdg.build(*f);
  std::vector<BasicBlock*> mainById(f->numBlocks());
  for (auto& bb : f->blocks()) mainById[bb->id()] = bb;
  unsigned collisionsWithDeps = 0;
  for (auto& bb : g->blocks()) {
    ASSERT_LT(bb->id(), mainById.size());
    if (!pdg.controlDepsOf(mainById[bb->id()]).empty()) ++collisionsWithDeps;
    EXPECT_TRUE(pdg.controlDepsOf(bb).empty()) << bb->name();
  }
  EXPECT_GT(collisionsWithDeps, 0u);
}

TEST_F(AnalysisFixture, PDGNodesAreTheInstructionsInBlockOrder) {
  Function* f = compile(
      "int g;"
      "int work(int a, int b) { int s = a; if (b > 0) { s += b; g = s; } return s * 2; }"
      "int main() { return work(1, 2); }",
      "work");
  PDG pdg;
  pdg.build(*f);
  std::vector<Instruction*> inBlockOrder;
  for (auto& bb : f->blocks())
    for (auto& inst : *bb) inBlockOrder.push_back(inst);
  ASSERT_EQ(pdg.nodes().size(), inBlockOrder.size());
  for (size_t i = 0; i < inBlockOrder.size(); ++i) {
    EXPECT_EQ(pdg.nodes()[i], inBlockOrder[i]) << i;
    EXPECT_EQ(pdg.node(inBlockOrder[i]->id()), inBlockOrder[i]) << i;
  }
  // The argument slots hold no node.
  EXPECT_EQ(pdg.numNodes(), f->numValueSlots());
  for (unsigned a = 0; a < f->numArgs(); ++a) EXPECT_EQ(pdg.node(a), nullptr);
}

TEST_F(AnalysisFixture, PDGMemoryEdgesSameArray) {
  Function* f = compile(
      "int a[4];"
      "int main() { a[0] = 1; int x = a[0]; a[1] = x; return a[1]; }");
  PDG pdg;
  pdg.build(*f);
  size_t memEdges = 0;
  for (const auto& e : pdg.edges())
    if (e.kind == DepKind::Memory) ++memEdges;
  EXPECT_GE(memEdges, 2u);  // store->load, (store/load)->store, store->load
}

TEST_F(AnalysisFixture, PDGNoMemoryEdgeAcrossDistinctArrays) {
  Function* f = compile(
      "int a[4]; int b[4];"
      "int main() { a[0] = 1; b[0] = 2; return 0; }");
  PDG pdg;
  pdg.build(*f);
  for (const auto& e : pdg.edges()) EXPECT_NE(e.kind, DepKind::Memory);
}

TEST_F(AnalysisFixture, SCCLoopCarriedDependence) {
  // The accumulator phi + add form an SCC; the induction variable forms its
  // own SCC; straight-line code is singleton SCCs.
  Function* f = compile(
      "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i * 7; return s; }");
  PDG pdg;
  pdg.build(*f);
  auto sccs = computeSCCs(pdg);
  // Pre-mem2reg the accumulator cycles through its alloca slot: the SCC with
  // the accumulating add must also contain the load/store pair.
  bool foundAccum = false;
  for (const auto& scc : sccs) {
    bool hasAdd = false;
    bool hasMem = false;
    for (Instruction* i : scc) {
      if (i->op() == Opcode::Add) hasAdd = true;
      if (i->op() == Opcode::Load || i->op() == Opcode::Store) hasMem = true;
    }
    if (hasAdd && hasMem && scc.size() >= 2) foundAccum = true;
  }
  EXPECT_TRUE(foundAccum);
  // SCC count is bounded by node count and there is more than one SCC.
  EXPECT_GT(sccs.size(), 1u);
  size_t total = 0;
  for (const auto& scc : sccs) total += scc.size();
  EXPECT_EQ(total, pdg.nodes().size());
}

TEST_F(AnalysisFixture, SCCsFormDAGInOrder) {
  // computeSCCs returns reverse-topological order: every edge goes from a
  // later SCC to an earlier one (or within the same SCC).
  Function* f = compile(
      "int a[16];"
      "int main() { int s = 0;"
      "for (int i = 0; i < 16; i++) a[i] = i * 3;"
      "for (int j = 0; j < 16; j++) s += a[j];"
      "return s; }");
  PDG pdg;
  pdg.build(*f);
  auto sccs = computeSCCs(pdg);
  std::unordered_map<const Instruction*, size_t> sccIndex;
  for (size_t k = 0; k < sccs.size(); ++k)
    for (Instruction* i : sccs[k]) sccIndex[i] = k;
  for (const auto& e : pdg.edges())
    EXPECT_GE(sccIndex.at(e.from), sccIndex.at(e.to))
        << printInstruction(e.from) << " -> " << printInstruction(e.to);
}

TEST_F(AnalysisFixture, SplitEdgeMaintainsPhisAndSemantics) {
  Function* f = compile(
      "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }");
  BasicBlock* cond = blockNamed(f, "for.cond");
  BasicBlock* body = blockNamed(f, "for.body");
  ASSERT_TRUE(cond && body);
  splitEdge(*f, cond, body, "split");
  DiagEngine vd;
  EXPECT_TRUE(verifyFunction(*f, vd)) << vd.str();
}

TEST_F(AnalysisFixture, ExitBlocksFindsAllReturns) {
  Function* f = compile("int main() { int x = 1; if (x) return 1; return 2; }");
  auto exits = exitBlocks(*f);
  EXPECT_EQ(exits.size(), 2u);
}

}  // namespace
}  // namespace twill
