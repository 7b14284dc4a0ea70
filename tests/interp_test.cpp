// Tests for the functional interpreter: evaluation semantics, memory layout,
// calls, PHIs, and the pipeline (multi-thread) interpreter with queues.
#include <gtest/gtest.h>

#include "src/ir/builder.h"
#include "src/ir/eval.h"
#include "src/ir/interp.h"
#include "src/ir/verifier.h"

namespace twill {
namespace {

TEST(EvalTest, BinaryBasics) {
  EXPECT_EQ(evalBinary(Opcode::Add, 2, 3, 32), 5u);
  EXPECT_EQ(evalBinary(Opcode::Sub, 2, 3, 32), 0xFFFFFFFFu);
  EXPECT_EQ(evalBinary(Opcode::Mul, 0x10000, 0x10000, 32), 0u);  // wraps
  EXPECT_EQ(evalBinary(Opcode::UDiv, 7, 2, 32), 3u);
  EXPECT_EQ(evalBinary(Opcode::SDiv, static_cast<uint32_t>(-7), 2, 32),
            static_cast<uint32_t>(-3));
  EXPECT_EQ(evalBinary(Opcode::SRem, static_cast<uint32_t>(-7), 2, 32),
            static_cast<uint32_t>(-1));
  EXPECT_EQ(evalBinary(Opcode::URem, 7, 2, 32), 1u);
}

TEST(EvalTest, DivisionEdgeCases) {
  EXPECT_EQ(evalBinary(Opcode::UDiv, 5, 0, 32), 0u);  // div-by-zero -> 0
  EXPECT_EQ(evalBinary(Opcode::SDiv, 0x80000000u, 0xFFFFFFFFu, 32), 0x80000000u);
  EXPECT_EQ(evalBinary(Opcode::SRem, 0x80000000u, 0xFFFFFFFFu, 32), 0u);
}

TEST(EvalTest, NarrowWidths) {
  EXPECT_EQ(evalBinary(Opcode::Add, 0xFF, 1, 8), 0u);
  EXPECT_EQ(evalBinary(Opcode::Mul, 16, 16, 8), 0u);
  EXPECT_EQ(evalBinary(Opcode::AShr, 0x80, 1, 8), 0xC0u);  // sign bit extends
  EXPECT_EQ(evalBinary(Opcode::LShr, 0x80, 1, 8), 0x40u);
}

TEST(EvalTest, Shifts) {
  EXPECT_EQ(evalBinary(Opcode::Shl, 1, 31, 32), 0x80000000u);
  EXPECT_EQ(evalBinary(Opcode::AShr, 0x80000000u, 31, 32), 0xFFFFFFFFu);
  EXPECT_EQ(evalBinary(Opcode::LShr, 0x80000000u, 31, 32), 1u);
}

TEST(EvalTest, Compares) {
  EXPECT_EQ(evalCompare(Opcode::CmpSLT, static_cast<uint32_t>(-1), 0, 32), 1u);
  EXPECT_EQ(evalCompare(Opcode::CmpULT, static_cast<uint32_t>(-1), 0, 32), 0u);
  EXPECT_EQ(evalCompare(Opcode::CmpEQ, 0x1FF, 0xFF, 8), 1u);  // masked
  EXPECT_EQ(evalCompare(Opcode::CmpSGE, 0x80, 0, 8), 0u);     // -128 < 0
}

TEST(EvalTest, Casts) {
  EXPECT_EQ(evalCast(Opcode::ZExt, 0xFF, 8, 32), 0xFFu);
  EXPECT_EQ(evalCast(Opcode::SExt, 0xFF, 8, 32), 0xFFFFFFFFu);
  EXPECT_EQ(evalCast(Opcode::Trunc, 0x1234, 32, 8), 0x34u);
  EXPECT_EQ(evalCast(Opcode::SExt, 1, 1, 32), 0xFFFFFFFFu);
  EXPECT_EQ(evalCast(Opcode::ZExt, 1, 1, 32), 1u);
}

class InterpFixture : public ::testing::Test {
protected:
  Module m;
  IRBuilder b{m};

  void verifyClean() {
    DiagEngine d;
    ASSERT_TRUE(verifyModule(m, d)) << d.str();
  }
};

TEST_F(InterpFixture, StraightLineArithmetic) {
  Function* f = m.createFunction("main", m.types().i32());
  b.setInsertPoint(f->createBlock("entry"));
  Instruction* x = b.mul(m.i32Const(6), m.i32Const(7));
  Instruction* y = b.add(x, m.i32Const(1));
  b.ret(y);
  verifyClean();
  Interp in(m);
  EXPECT_EQ(in.run("main"), 43u);
}

TEST_F(InterpFixture, ArgumentsArePassed) {
  Function* f = m.createFunction("sum3", m.types().i32());
  Argument* a0 = f->addArg(m.types().i32(), "a");
  Argument* a1 = f->addArg(m.types().i32(), "b");
  Argument* a2 = f->addArg(m.types().i32(), "c");
  b.setInsertPoint(f->createBlock("entry"));
  b.ret(b.add(b.add(a0, a1), a2));
  verifyClean();
  Interp in(m);
  EXPECT_EQ(in.run(f, {10, 20, 30}), 60u);
}

TEST_F(InterpFixture, LoopWithPhi) {
  // Sums 0..9 with a classic phi loop.
  Function* f = m.createFunction("main", m.types().i32());
  BasicBlock* entry = f->createBlock("entry");
  BasicBlock* loop = f->createBlock("loop");
  BasicBlock* exit = f->createBlock("exit");
  b.setInsertPoint(entry);
  b.br(loop);
  b.setInsertPoint(loop);
  Instruction* i = b.phi(m.types().i32());
  Instruction* acc = b.phi(m.types().i32());
  b.setInsertPoint(loop);
  Instruction* acc2 = b.add(acc, i);
  Instruction* i2 = b.add(i, m.i32Const(1));
  Instruction* cond = b.cmp(Opcode::CmpULT, i2, m.i32Const(10));
  b.condBr(cond, loop, exit);
  i->addIncoming(m.i32Const(0), entry);
  i->addIncoming(i2, loop);
  acc->addIncoming(m.i32Const(0), entry);
  acc->addIncoming(acc2, loop);
  b.setInsertPoint(exit);
  b.ret(acc2);
  verifyClean();
  Interp in(m);
  EXPECT_EQ(in.run("main"), 45u);
}

TEST_F(InterpFixture, GlobalInitializersAndLoads) {
  GlobalVar* g = m.createGlobal("tab", 32, 4, true);
  g->setInit({100, 200, 300, 400});
  Function* f = m.createFunction("main", m.types().i32());
  b.setInsertPoint(f->createBlock("entry"));
  Instruction* p = b.gep(g, m.i32Const(2));
  Instruction* v = b.load(p);
  b.ret(v);
  verifyClean();
  Interp in(m);
  EXPECT_EQ(in.run("main"), 300u);
}

TEST_F(InterpFixture, ByteArrayAccess) {
  GlobalVar* g = m.createGlobal("bytes", 8, 4, false);
  g->setInit({0x11, 0x22, 0x33, 0x44});
  Function* f = m.createFunction("main", m.types().i32());
  b.setInsertPoint(f->createBlock("entry"));
  Instruction* p1 = b.gep(g, m.i32Const(1));
  Instruction* v1 = b.load(p1);  // i8
  Instruction* ext = b.castTo(Opcode::ZExt, v1, m.types().i32());
  b.ret(ext);
  verifyClean();
  Interp in(m);
  EXPECT_EQ(in.run("main"), 0x22u);
}

TEST_F(InterpFixture, AllocaStoreLoad) {
  Function* f = m.createFunction("main", m.types().i32());
  b.setInsertPoint(f->createBlock("entry"));
  Instruction* buf = b.alloca_(32, 8, "buf");
  Instruction* p3 = b.gep(buf, m.i32Const(3));
  b.store(m.i32Const(777), p3);
  Instruction* v = b.load(p3);
  b.ret(v);
  verifyClean();
  Interp in(m);
  EXPECT_EQ(in.run("main"), 777u);
}

TEST_F(InterpFixture, FunctionCalls) {
  Function* sq = m.createFunction("square", m.types().i32());
  Argument* x = sq->addArg(m.types().i32(), "x");
  b.setInsertPoint(sq->createBlock("entry"));
  b.ret(b.mul(x, x));

  Function* f = m.createFunction("main", m.types().i32());
  b.setInsertPoint(f->createBlock("entry"));
  Instruction* c1 = b.call(sq, {m.i32Const(5)});
  Instruction* c2 = b.call(sq, {c1});
  b.ret(c2);
  verifyClean();
  Interp in(m);
  EXPECT_EQ(in.run("main"), 625u);
}

TEST_F(InterpFixture, SelectAndCompare) {
  Function* f = m.createFunction("max", m.types().i32());
  Argument* a = f->addArg(m.types().i32(), "a");
  Argument* c = f->addArg(m.types().i32(), "b");
  b.setInsertPoint(f->createBlock("entry"));
  Instruction* cmp = b.cmp(Opcode::CmpSGT, a, c);
  b.ret(b.select(cmp, a, c));
  verifyClean();
  Interp in(m);
  EXPECT_EQ(in.run(f, {3, 9}), 9u);
  Interp in2(m);
  EXPECT_EQ(in2.run(f, {static_cast<uint32_t>(-3), 2}), 2u);
}

TEST_F(InterpFixture, MemoryLayoutSeparatesGlobals) {
  GlobalVar* g1 = m.createGlobal("a", 32, 4, false);
  GlobalVar* g2 = m.createGlobal("b", 8, 5, false);
  GlobalVar* g3 = m.createGlobal("c", 32, 1, false);
  Function* f = m.createFunction("main", m.types().i32());
  b.setInsertPoint(f->createBlock("entry"));
  b.ret(m.i32Const(0));
  Interp in(m);
  const Layout& lay = in.layout();
  uint32_t a1 = lay.addrOf(g1), a2 = lay.addrOf(g2), a3 = lay.addrOf(g3);
  EXPECT_GE(a2, a1 + 16);
  EXPECT_GE(a3, a2 + 5);
  EXPECT_EQ(a3 % 4, 0u);  // aligned
}

// --- Pipeline interpreter ---------------------------------------------------

TEST_F(InterpFixture, PipelineProducerConsumer) {
  // producer: for i in 0..99 produce(i); consumer(main): sum of consumed.
  Function* prod = m.createFunction("producer", m.types().voidTy());
  {
    BasicBlock* entry = prod->createBlock("entry");
    BasicBlock* loop = prod->createBlock("loop");
    BasicBlock* exit = prod->createBlock("exit");
    b.setInsertPoint(entry);
    b.br(loop);
    b.setInsertPoint(loop);
    Instruction* i = b.phi(m.types().i32());
    b.setInsertPoint(loop);
    b.produce(0, i);
    Instruction* i2 = b.add(i, m.i32Const(1));
    Instruction* c = b.cmp(Opcode::CmpULT, i2, m.i32Const(100));
    b.condBr(c, loop, exit);
    i->addIncoming(m.i32Const(0), entry);
    i->addIncoming(i2, loop);
    b.setInsertPoint(exit);
    b.retVoid();
  }
  Function* cons = m.createFunction("main", m.types().i32());
  {
    BasicBlock* entry = cons->createBlock("entry");
    BasicBlock* loop = cons->createBlock("loop");
    BasicBlock* exit = cons->createBlock("exit");
    b.setInsertPoint(entry);
    b.br(loop);
    b.setInsertPoint(loop);
    Instruction* i = b.phi(m.types().i32());
    Instruction* acc = b.phi(m.types().i32());
    b.setInsertPoint(loop);
    Instruction* v = b.consume(0, m.types().i32());
    Instruction* acc2 = b.add(acc, v);
    Instruction* i2 = b.add(i, m.i32Const(1));
    Instruction* c = b.cmp(Opcode::CmpULT, i2, m.i32Const(100));
    b.condBr(c, loop, exit);
    i->addIncoming(m.i32Const(0), entry);
    i->addIncoming(i2, loop);
    acc->addIncoming(m.i32Const(0), entry);
    acc->addIncoming(acc2, loop);
    b.setInsertPoint(exit);
    b.ret(acc2);
  }
  verifyClean();
  PipelineInterp pi(m);
  pi.addThread(cons);
  pi.addThread(prod);
  auto out = pi.run();
  ASSERT_TRUE(out.ok) << out.message;
  EXPECT_EQ(out.result, 4950u);
}

TEST_F(InterpFixture, PipelineDetectsDeadlock) {
  // A thread that consumes from a channel nobody produces on.
  Function* f = m.createFunction("main", m.types().i32());
  b.setInsertPoint(f->createBlock("entry"));
  Instruction* v = b.consume(7, m.types().i32());
  b.ret(v);
  verifyClean();
  PipelineInterp pi(m);
  pi.addThread(f);
  auto out = pi.run();
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(out.deadlocked);
}

TEST_F(InterpFixture, SemaphoreOrdering) {
  // main lowers a semaphore that starts at 0; helper raises it, then main
  // proceeds. Functional test of trySemRaise/Lower.
  Function* helper = m.createFunction("helper", m.types().voidTy());
  {
    b.setInsertPoint(helper->createBlock("entry"));
    b.semRaise(3, m.i32Const(1));
    b.retVoid();
  }
  Function* f = m.createFunction("main", m.types().i32());
  {
    b.setInsertPoint(f->createBlock("entry"));
    b.semLower(3, m.i32Const(1));
    b.ret(m.i32Const(11));
  }
  verifyClean();
  PipelineInterp pi(m);
  pi.addThread(f);
  pi.addThread(helper);
  auto out = pi.run();
  ASSERT_TRUE(out.ok) << out.message;
  EXPECT_EQ(out.result, 11u);
}

TEST_F(InterpFixture, TrapOnDeepRecursion) {
  Function* f = m.createFunction("rec", m.types().i32());
  Argument* a = f->addArg(m.types().i32(), "n");
  b.setInsertPoint(f->createBlock("entry"));
  Instruction* c = b.call(f, {a});
  b.ret(c);
  // Run via ExecState directly to observe the trap (Interp aborts on trap).
  Memory mem;
  Layout lay;
  lay.build(m, mem);
  DecodedProgram prog(m, lay);
  FunctionalChannels chans;
  ExecState st(prog, mem, chans, f, {1});
  StepResult r{};
  for (int i = 0; i < 100000; ++i) {
    r = st.step();
    if (r.status != StepStatus::Ran) break;
  }
  EXPECT_EQ(r.status, StepStatus::Trapped);
  EXPECT_TRUE(st.trapped());
}

}  // namespace
}  // namespace twill
