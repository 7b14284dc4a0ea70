// Unit tests for the IR core: types, values, use lists, blocks, printer,
// verifier.
#include <gtest/gtest.h>

#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"

namespace twill {
namespace {

TEST(TypeTest, Interning) {
  Arena arena;
  TypeContext ctx(arena);
  EXPECT_EQ(ctx.i32(), ctx.intTy(32));
  EXPECT_EQ(ctx.i8(), ctx.intTy(8));
  EXPECT_NE(ctx.i8(), ctx.i32());
  EXPECT_EQ(ctx.ptrTy(32), ctx.ptrTy(32));
  EXPECT_NE(ctx.ptrTy(8), ctx.ptrTy(32));
}

TEST(TypeTest, ByteSizes) {
  Arena arena;
  TypeContext ctx(arena);
  EXPECT_EQ(ctx.i1()->byteSize(), 1u);
  EXPECT_EQ(ctx.i8()->byteSize(), 1u);
  EXPECT_EQ(ctx.i16()->byteSize(), 2u);
  EXPECT_EQ(ctx.i32()->byteSize(), 4u);
  EXPECT_EQ(ctx.ptrTy(16)->byteSize(), 4u);
  EXPECT_EQ(ctx.ptrTy(16)->pointeeBits(), 16u);
}

TEST(TypeTest, Names) {
  Arena arena;
  TypeContext ctx(arena);
  EXPECT_EQ(ctx.i32()->str(), "i32");
  EXPECT_EQ(ctx.ptrTy(8)->str(), "i8*");
  EXPECT_EQ(ctx.voidTy()->str(), "void");
}

TEST(ConstantTest, SignExtension) {
  Module m;
  Constant* c = m.constant(m.types().i8(), 0xFF);
  EXPECT_EQ(c->zext(), 0xFFu);
  EXPECT_EQ(c->sext(), -1);
  Constant* pos = m.constant(m.types().i8(), 0x7F);
  EXPECT_EQ(pos->sext(), 127);
  // Interned: same type+value gives same pointer.
  EXPECT_EQ(c, m.constant(m.types().i8(), 0xFF));
  EXPECT_NE(c, m.constant(m.types().i32(), 0xFF));
}

TEST(ConstantTest, MaskedOnCreation) {
  Module m;
  Constant* c = m.constant(m.types().i8(), 0x1FF);
  EXPECT_EQ(c->zext(), 0xFFu);
}

class IRFixture : public ::testing::Test {
protected:
  Module m;
  IRBuilder b{m};

  // func i32 @f(i32 %a, i32 %b) { entry: ret (a+b) }
  Function* makeAdder() {
    Function* f = m.createFunction("adder", m.types().i32());
    Argument* a = f->addArg(m.types().i32(), "a");
    Argument* bArg = f->addArg(m.types().i32(), "b");
    BasicBlock* entry = f->createBlock("entry");
    b.setInsertPoint(entry);
    Instruction* sum = b.add(a, bArg);
    b.ret(sum);
    return f;
  }
};

TEST_F(IRFixture, UseListsTrackOperands) {
  Function* f = makeAdder();
  Argument* a = f->arg(0);
  Instruction* sum = f->entry()->front();
  EXPECT_EQ(a->users().size(), 1u);
  EXPECT_EQ(a->users()[0], sum);
  EXPECT_EQ(sum->users().size(), 1u);  // the ret
}

TEST_F(IRFixture, ReplaceAllUsesWith) {
  Function* f = makeAdder();
  Instruction* sum = f->entry()->front();
  Constant* c = m.i32Const(42);
  sum->replaceAllUsesWith(c);
  EXPECT_FALSE(sum->hasUses());
  Instruction* ret = f->entry()->terminator();
  EXPECT_EQ(ret->operand(0), c);
}

TEST_F(IRFixture, EraseRemovesUses) {
  Function* f = makeAdder();
  Instruction* sum = f->entry()->front();
  Instruction* ret = f->entry()->terminator();
  ret->setOperand(0, m.i32Const(0));
  EXPECT_FALSE(sum->hasUses());
  f->entry()->erase(sum);
  EXPECT_EQ(f->entry()->size(), 1u);
  EXPECT_FALSE(f->arg(0)->hasUses());
}

TEST_F(IRFixture, SuccessorsAndPredecessors) {
  Function* f = m.createFunction("g", m.types().voidTy());
  BasicBlock* e = f->createBlock("entry");
  BasicBlock* t = f->createBlock("then");
  BasicBlock* x = f->createBlock("exit");
  b.setInsertPoint(e);
  b.condBr(m.i1Const(true), t, x);
  b.setInsertPoint(t);
  b.br(x);
  b.setInsertPoint(x);
  b.retVoid();
  auto succs = e->successors();
  ASSERT_EQ(succs.size(), 2u);
  EXPECT_EQ(succs[0], t);
  EXPECT_EQ(succs[1], x);
  auto preds = x->predecessors();
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_EQ(t->predecessors().size(), 1u);
  EXPECT_EQ(e->predecessors().size(), 0u);
}

TEST_F(IRFixture, VerifyCleanFunction) {
  makeAdder();
  DiagEngine diag;
  EXPECT_TRUE(verifyModule(m, diag)) << diag.str();
}

TEST_F(IRFixture, VerifierCatchesMissingTerminator) {
  Function* f = m.createFunction("bad", m.types().voidTy());
  BasicBlock* e = f->createBlock("entry");
  b.setInsertPoint(e);
  b.add(m.i32Const(1), m.i32Const(2));  // no terminator
  DiagEngine diag;
  EXPECT_FALSE(verifyFunction(*f, diag));
}

TEST_F(IRFixture, VerifierCatchesTypeMismatch) {
  Function* f = m.createFunction("bad2", m.types().i32());
  BasicBlock* e = f->createBlock("entry");
  b.setInsertPoint(e);
  Instruction* inst = m.createInstruction(Opcode::Add, m.types().i32());
  inst->addOperand(m.i32Const(1));
  inst->addOperand(m.constant(m.types().i8(), 2));  // width mismatch
  Instruction* bad = e->append(inst);
  b.setInsertPoint(e);
  b.ret(bad);
  DiagEngine diag;
  EXPECT_FALSE(verifyFunction(*f, diag));
}

TEST_F(IRFixture, VerifierCatchesUseBeforeDef) {
  Function* f = m.createFunction("bad3", m.types().i32());
  BasicBlock* e = f->createBlock("entry");
  BasicBlock* l = f->createBlock("late");
  b.setInsertPoint(e);
  // Use an instruction defined in `late`, which does not dominate entry use.
  b.setInsertPoint(l);
  Instruction* def = b.add(m.i32Const(1), m.i32Const(2));
  b.setInsertPoint(l);
  b.ret(def);
  b.setInsertPoint(e);
  Instruction* use = b.add(def, m.i32Const(3));
  b.br(l);
  (void)use;
  DiagEngine diag;
  EXPECT_FALSE(verifyFunction(*f, diag));
}

TEST_F(IRFixture, VerifierChecksPhiIncoming) {
  Function* f = m.createFunction("phi_fn", m.types().i32());
  BasicBlock* e = f->createBlock("entry");
  BasicBlock* a = f->createBlock("a");
  BasicBlock* bb = f->createBlock("b");
  BasicBlock* j = f->createBlock("join");
  b.setInsertPoint(e);
  b.condBr(m.i1Const(true), a, bb);
  b.setInsertPoint(a);
  b.br(j);
  b.setInsertPoint(bb);
  b.br(j);
  b.setInsertPoint(j);
  Instruction* phi = b.phi(m.types().i32());
  phi->addIncoming(m.i32Const(1), a);
  // Missing entry for %b — verifier must complain.
  b.setInsertPoint(j);
  b.ret(phi);
  DiagEngine diag;
  EXPECT_FALSE(verifyFunction(*f, diag));
  // Fix it and verify clean.
  phi->addIncoming(m.i32Const(2), bb);
  DiagEngine diag2;
  EXPECT_TRUE(verifyFunction(*f, diag2)) << diag2.str();
}

// --- Dominance edge cases, pinned with their exact diagnostic text ----------

/// entry: condbr (a == 0), then, else; both arms branch to join; join
/// returns through one instruction. Values are named so diagnostics read
/// %name, independent of instruction ids.
struct Diamond {
  Function* f;
  Argument* a;
  BasicBlock* entry;
  BasicBlock* then;
  BasicBlock* els;
  BasicBlock* join;
};

Diamond makeDiamond(Module& m, IRBuilder& b, const std::string& name) {
  Diamond d;
  d.f = m.createFunction(name, m.types().i32());
  d.a = d.f->addArg(m.types().i32(), "a");
  d.entry = d.f->createBlock("entry");
  d.then = d.f->createBlock("then");
  d.els = d.f->createBlock("else");
  d.join = d.f->createBlock("join");
  b.setInsertPoint(d.entry);
  Instruction* c = b.cmp(Opcode::CmpEQ, d.a, m.i32Const(0));
  c->setName("c");
  b.condBr(c, d.then, d.els);
  return d;
}

TEST_F(IRFixture, VerifierRejectsJoinUseOfOneArmValue) {
  Diamond d = makeDiamond(m, b, "diamond");
  b.setInsertPoint(d.then);
  Instruction* x = b.add(d.a, m.i32Const(1));
  x->setName("x");
  b.br(d.join);
  b.setInsertPoint(d.els);
  b.br(d.join);
  b.setInsertPoint(d.join);
  Instruction* y = b.add(x, m.i32Const(2));
  y->setName("y");
  b.ret(y);
  EXPECT_EQ(verifyToString(m),
            "error: [diamond] use of %x in %y = add i32 %x, 2 is not dominated by its "
            "definition\n");
}

TEST_F(IRFixture, VerifierRejectsSameBlockUseBeforeDef) {
  Function* f = m.createFunction("early", m.types().i32());
  Argument* a = f->addArg(m.types().i32(), "a");
  BasicBlock* e = f->createBlock("entry");
  b.setInsertPoint(e);
  Instruction* d = b.add(a, m.i32Const(2));
  d->setName("d");
  b.setInsertPoint(e, e->iteratorTo(d));
  Instruction* u = b.add(d, m.i32Const(1));
  u->setName("u");
  b.setInsertPoint(e);
  b.ret(u);
  EXPECT_EQ(verifyToString(m),
            "error: [early] use of %d in %u = add i32 %d, 1 is not dominated by its "
            "definition\n");
}

TEST_F(IRFixture, VerifierRejectsPhiIncomingThatDoesNotDominateItsEdge) {
  Diamond d = makeDiamond(m, b, "edge");
  b.setInsertPoint(d.then);
  Instruction* x = b.add(d.a, m.i32Const(1));
  x->setName("x");
  b.br(d.join);
  b.setInsertPoint(d.els);
  b.br(d.join);
  b.setInsertPoint(d.join);
  Instruction* p = b.phi(m.types().i32());
  p->setName("p");
  p->addIncoming(x, d.then);
  p->addIncoming(x, d.els);  // %x is defined on the other arm
  b.ret(p);
  EXPECT_EQ(verifyToString(m),
            "error: [edge] phi incoming value %x does not dominate edge from %else\n");
}

TEST_F(IRFixture, VerifierRejectsPhiNamingANonPredecessor) {
  Diamond d = makeDiamond(m, b, "stranger");
  b.setInsertPoint(d.then);
  b.br(d.join);
  b.setInsertPoint(d.els);
  b.br(d.join);
  b.setInsertPoint(d.join);
  Instruction* p = b.phi(m.types().i32());
  p->setName("p");
  p->addIncoming(m.i32Const(1), d.then);
  p->addIncoming(m.i32Const(2), d.entry);  // entry branches to the arms, not here
  b.ret(p);
  EXPECT_EQ(verifyToString(m), "error: [stranger] phi in %join names non-predecessor %entry\n");
}

TEST_F(IRFixture, VerifierSkipsBadUsesInUnreachableBlocks) {
  Function* f = m.createFunction("deadcode", m.types().i32());
  BasicBlock* e = f->createBlock("entry");
  BasicBlock* dead = f->createBlock("dead");
  b.setInsertPoint(e);
  b.ret(m.i32Const(0));
  b.setInsertPoint(dead);
  Instruction* v = b.add(m.i32Const(1), m.i32Const(2));
  v->setName("v");
  b.setInsertPoint(dead, dead->iteratorTo(v));
  Instruction* u = b.add(v, m.i32Const(3));  // use before def, but never executed
  u->setName("u");
  b.setInsertPoint(dead);
  b.ret(u);
  EXPECT_EQ(verifyToString(m), "");
}

/// entry branches into both A and B, which branch to each other: a loop with
/// two entries, so neither block dominates the other.
TEST_F(IRFixture, VerifierHandlesIrreducibleTwoEntryLoop) {
  Function* f = m.createFunction("irreducible", m.types().i32());
  Argument* a = f->addArg(m.types().i32(), "a");
  BasicBlock* e = f->createBlock("entry");
  BasicBlock* ba = f->createBlock("A");
  BasicBlock* bb = f->createBlock("B");
  BasicBlock* x = f->createBlock("exit");
  b.setInsertPoint(e);
  Instruction* c = b.cmp(Opcode::CmpEQ, a, m.i32Const(0));
  c->setName("c");
  b.condBr(c, ba, bb);
  b.setInsertPoint(ba);
  Instruction* pa = b.phi(m.types().i32());
  pa->setName("pa");
  b.setInsertPoint(ba);
  Instruction* va = b.add(pa, m.i32Const(1));
  va->setName("va");
  b.condBr(c, bb, x);
  b.setInsertPoint(bb);
  Instruction* pb = b.phi(m.types().i32());
  pb->setName("pb");
  b.setInsertPoint(bb);
  Instruction* vb = b.add(pb, m.i32Const(2));
  vb->setName("vb");
  b.br(ba);
  b.setInsertPoint(x);
  b.ret(va);
  pa->addIncoming(a, e);
  pa->addIncoming(vb, bb);
  pb->addIncoming(a, e);
  pb->addIncoming(va, ba);
  EXPECT_EQ(verifyToString(m), "");

  // A use in B of a value defined in A is not dominated: B is entered
  // straight from entry too.
  vb->setOperand(1, va);
  EXPECT_EQ(verifyToString(m),
            "error: [irreducible] use of %va in %vb = add i32 %pb, %va is not dominated by "
            "its definition\n");
}

TEST_F(IRFixture, VerifierRejectsSelfUse) {
  Function* f = m.createFunction("selfuse", m.types().i32());
  BasicBlock* e = f->createBlock("entry");
  b.setInsertPoint(e);
  Instruction* t = b.add(m.i32Const(0), m.i32Const(2));
  t->setName("t");
  t->setOperand(0, t);  // %t = add i32 %t, 2
  b.ret(t);
  EXPECT_EQ(verifyToString(m),
            "error: [selfuse] use of %t in %t = add i32 %t, 2 is not dominated by its "
            "definition\n");
}

/// Diagnostics name unnamed values %tN by instruction id; verification must
/// leave those ids as the caller numbered them.
TEST_F(IRFixture, VerifierLeavesInstructionIdsAsFound) {
  Diamond d = makeDiamond(m, b, "ids");
  b.setInsertPoint(d.then);
  Instruction* x = b.add(d.a, m.i32Const(1));
  b.br(d.join);
  b.setInsertPoint(d.els);
  b.br(d.join);
  b.setInsertPoint(d.join);
  Instruction* y = b.add(x, m.i32Const(2));
  b.ret(y);
  unsigned next = 40;
  std::vector<unsigned> before;
  for (auto& bb : d.f->blocks())
    for (auto& inst : *bb) {
      inst->setId(next);
      before.push_back(next);
      next += 3;
    }
  EXPECT_EQ(verifyToString(m),
            "error: [ids] use of %t46 in %t55 = add i32 %t46, 2 is not dominated by its "
            "definition\n");
  std::vector<unsigned> after;
  for (auto& bb : d.f->blocks())
    for (auto& inst : *bb) after.push_back(inst->id());
  EXPECT_EQ(before, after);
}

TEST_F(IRFixture, PrinterSmokeTest) {
  makeAdder();
  std::string text = printModule(m);
  EXPECT_NE(text.find("func i32 @adder"), std::string::npos);
  EXPECT_NE(text.find("add"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
}

TEST_F(IRFixture, PhiIncomingManagement) {
  Function* f = m.createFunction("h", m.types().i32());
  BasicBlock* e = f->createBlock("entry");
  BasicBlock* x = f->createBlock("x");
  b.setInsertPoint(e);
  b.br(x);
  b.setInsertPoint(x);
  Instruction* phi = b.phi(m.types().i32());
  phi->addIncoming(m.i32Const(7), e);
  EXPECT_EQ(phi->numIncoming(), 1u);
  EXPECT_EQ(phi->incomingIndexFor(e), 0);
  phi->removeIncoming(0);
  EXPECT_EQ(phi->numIncoming(), 0u);
  b.setInsertPoint(x);
  b.ret(m.i32Const(0));
}

TEST(ModuleTest, FindAndEraseFunction) {
  Module m;
  Function* f = m.createFunction("f", m.types().voidTy());
  BasicBlock* e = f->createBlock("entry");
  IRBuilder b(m);
  b.setInsertPoint(e);
  b.retVoid();
  EXPECT_EQ(m.findFunction("f"), f);
  EXPECT_EQ(m.findFunction("nope"), nullptr);
  m.eraseFunction(f);
  EXPECT_EQ(m.findFunction("f"), nullptr);
}

TEST(ModuleTest, Globals) {
  Module m;
  GlobalVar* g = m.createGlobal("table", 32, 16, /*isConst=*/true);
  g->setInit({1, 2, 3});
  EXPECT_EQ(m.findGlobal("table"), g);
  EXPECT_EQ(g->byteSize(), 64u);
  EXPECT_TRUE(g->type()->isPtr());
  EXPECT_EQ(g->type()->pointeeBits(), 32u);
}

}  // namespace
}  // namespace twill
