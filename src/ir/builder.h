// IRBuilder: convenience API for creating instructions at an insertion point.
#pragma once

#include "src/ir/function.h"

namespace twill {

class IRBuilder {
public:
  explicit IRBuilder(Module& m) : module_(m) {}

  Module& module() { return module_; }
  TypeContext& types() { return module_.types(); }

  void setInsertPoint(BasicBlock* bb) {
    block_ = bb;
    pos_ = bb->end();
  }
  void setInsertPoint(BasicBlock* bb, BasicBlock::iterator pos) {
    block_ = bb;
    pos_ = pos;
  }
  BasicBlock* block() const { return block_; }

  // --- Raw creation ---------------------------------------------------------
  Instruction* create(Opcode op, Type* type, std::initializer_list<Value*> ops) {
    Instruction* inst = module_.createInstruction(op, type);
    for (Value* v : ops) inst->addOperand(v);
    return block_->insert(pos_, inst);
  }

  // --- Arithmetic -----------------------------------------------------------
  Instruction* binary(Opcode op, Value* a, Value* b) { return create(op, a->type(), {a, b}); }
  Instruction* add(Value* a, Value* b) { return binary(Opcode::Add, a, b); }
  Instruction* sub(Value* a, Value* b) { return binary(Opcode::Sub, a, b); }
  Instruction* mul(Value* a, Value* b) { return binary(Opcode::Mul, a, b); }
  Instruction* cmp(Opcode pred, Value* a, Value* b) { return create(pred, types().i1(), {a, b}); }
  Instruction* select(Value* c, Value* t, Value* f) {
    return create(Opcode::Select, t->type(), {c, t, f});
  }
  Instruction* castTo(Opcode op, Value* v, Type* to) { return create(op, to, {v}); }

  // --- Memory ---------------------------------------------------------------
  Instruction* alloca_(unsigned elemBits, uint32_t count, const std::string& name = "") {
    Instruction* i = create(Opcode::Alloca, types().ptrTy(elemBits), {});
    i->setAllocaInfo(elemBits, count);
    if (!name.empty()) i->setName(name);
    return i;
  }
  Instruction* load(Value* ptr) { return create(Opcode::Load, types().intTy(ptr->type()->pointeeBits()), {ptr}); }
  Instruction* store(Value* val, Value* ptr) { return create(Opcode::Store, types().voidTy(), {val, ptr}); }
  Instruction* gep(Value* ptr, Value* index) { return create(Opcode::Gep, ptr->type(), {ptr, index}); }

  // --- Control flow ---------------------------------------------------------
  Instruction* br(BasicBlock* dest) { return create(Opcode::Br, types().voidTy(), {dest}); }
  Instruction* condBr(Value* cond, BasicBlock* t, BasicBlock* f) {
    return create(Opcode::CondBr, types().voidTy(), {cond, t, f});
  }
  Instruction* retVoid() { return create(Opcode::Ret, types().voidTy(), {}); }
  Instruction* ret(Value* v) { return create(Opcode::Ret, types().voidTy(), {v}); }
  Instruction* phi(Type* type) { return create(Opcode::Phi, type, {}); }
  Instruction* call(Function* callee, std::initializer_list<Value*> args) {
    Instruction* inst = module_.createInstruction(Opcode::Call, callee->retType());
    for (Value* v : args) inst->addOperand(v);
    inst->setCallee(callee);
    return block_->insert(pos_, inst);
  }

  // --- Twill runtime ops ------------------------------------------------------
  Instruction* produce(int channel, Value* v) {
    Instruction* i = create(Opcode::Produce, types().voidTy(), {v});
    i->setChannel(channel);
    return i;
  }
  Instruction* consume(int channel, Type* type) {
    Instruction* i = create(Opcode::Consume, type, {});
    i->setChannel(channel);
    return i;
  }
  Instruction* semRaise(int sem, Value* count) {
    Instruction* i = create(Opcode::SemRaise, types().voidTy(), {count});
    i->setChannel(sem);
    return i;
  }
  Instruction* semLower(int sem, Value* count) {
    Instruction* i = create(Opcode::SemLower, types().voidTy(), {count});
    i->setChannel(sem);
    return i;
  }

  Constant* i32(uint32_t v) { return module_.i32Const(v); }

private:
  Module& module_;
  BasicBlock* block_ = nullptr;
  BasicBlock::iterator pos_;
};

/// Clones an instruction, detached, with operands and phi incoming blocks
/// remapped through `mapped` (which returns unmapped values, such as
/// constants and globals, unchanged).
template <class MapFn>
Instruction* cloneInstruction(Module& m, Instruction* inst, MapFn&& mapped) {
  Instruction* clone = m.createInstruction(inst->op(), inst->type());
  if (inst->isPhi()) {
    for (unsigned i = 0; i < inst->numIncoming(); ++i)
      clone->addIncoming(mapped(inst->incomingValue(i)),
                         static_cast<BasicBlock*>(mapped(inst->incomingBlock(i))));
  } else {
    for (unsigned i = 0; i < inst->numOperands(); ++i) clone->addOperand(mapped(inst->operand(i)));
  }
  if (inst->op() == Opcode::Alloca)
    clone->setAllocaInfo(inst->allocaElemBits(), inst->allocaCount());
  if (inst->op() == Opcode::Produce || inst->op() == Opcode::Consume ||
      inst->op() == Opcode::SemRaise || inst->op() == Opcode::SemLower)
    clone->setChannel(inst->channel());
  if (inst->op() == Opcode::Call) clone->setCallee(inst->callee());
  clone->setName(inst->name());
  return clone;
}

}  // namespace twill
