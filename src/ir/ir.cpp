// Implementation of the core IR data structures.
#include <algorithm>
#include <cassert>

#include "src/ir/function.h"

namespace twill {

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

std::string Type::str() const {
  switch (kind_) {
    case Kind::Void: return "void";
    case Kind::Int: return "i" + std::to_string(bits_);
    case Kind::Ptr: return "i" + std::to_string(bits_) + "*";
  }
  return "?";
}

TypeContext::TypeContext(Arena& arena) : arena_(&arena) {
  void_ = arena_->create<Type>(Type(Type::Kind::Void, 0));
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

void Value::removeUser(Instruction* i) {
  auto it = std::find(users_.begin(), users_.end(), i);
  assert(it != users_.end() && "removing a non-user");
  users_.erase(it);
}

void Value::replaceAllUsesWith(Value* v) {
  assert(v != this && "RAUW with self");
  // setOperand mutates users_, so iterate over a snapshot.
  std::vector<Instruction*> snapshot = users_;
  for (Instruction* user : snapshot) {
    for (unsigned i = 0, e = user->numOperands(); i != e; ++i)
      if (user->operand(i) == this) user->setOperand(i, v);
  }
}

int64_t Constant::sext() const {
  unsigned bits = type_->isPtr() ? 32 : type_->bits();
  if (bits >= 64) return static_cast<int64_t>(value_);
  uint64_t m = 1ull << (bits - 1);
  return static_cast<int64_t>((value_ ^ m) - m);
}

// ---------------------------------------------------------------------------
// Instructions
// ---------------------------------------------------------------------------

const char* opcodeName(Opcode op) {
  switch (op) {
    case Opcode::Add: return "add";
    case Opcode::Sub: return "sub";
    case Opcode::Mul: return "mul";
    case Opcode::SDiv: return "sdiv";
    case Opcode::UDiv: return "udiv";
    case Opcode::SRem: return "srem";
    case Opcode::URem: return "urem";
    case Opcode::And: return "and";
    case Opcode::Or: return "or";
    case Opcode::Xor: return "xor";
    case Opcode::Shl: return "shl";
    case Opcode::LShr: return "lshr";
    case Opcode::AShr: return "ashr";
    case Opcode::CmpEQ: return "cmp.eq";
    case Opcode::CmpNE: return "cmp.ne";
    case Opcode::CmpSLT: return "cmp.slt";
    case Opcode::CmpSLE: return "cmp.sle";
    case Opcode::CmpSGT: return "cmp.sgt";
    case Opcode::CmpSGE: return "cmp.sge";
    case Opcode::CmpULT: return "cmp.ult";
    case Opcode::CmpULE: return "cmp.ule";
    case Opcode::CmpUGT: return "cmp.ugt";
    case Opcode::CmpUGE: return "cmp.uge";
    case Opcode::ZExt: return "zext";
    case Opcode::SExt: return "sext";
    case Opcode::Trunc: return "trunc";
    case Opcode::Select: return "select";
    case Opcode::PtrToInt: return "ptrtoint";
    case Opcode::IntToPtr: return "inttoptr";
    case Opcode::Alloca: return "alloca";
    case Opcode::Load: return "load";
    case Opcode::Store: return "store";
    case Opcode::Gep: return "gep";
    case Opcode::Phi: return "phi";
    case Opcode::Br: return "br";
    case Opcode::CondBr: return "condbr";
    case Opcode::Ret: return "ret";
    case Opcode::Call: return "call";
    case Opcode::Produce: return "produce";
    case Opcode::Consume: return "consume";
    case Opcode::SemRaise: return "sem.raise";
    case Opcode::SemLower: return "sem.lower";
  }
  return "?";
}

bool isBinaryOp(Opcode op) { return op >= Opcode::Add && op <= Opcode::AShr; }
bool isCompareOp(Opcode op) { return op >= Opcode::CmpEQ && op <= Opcode::CmpUGE; }
bool isCastOp(Opcode op) { return op == Opcode::ZExt || op == Opcode::SExt || op == Opcode::Trunc; }
bool isTerminatorOp(Opcode op) {
  return op == Opcode::Br || op == Opcode::CondBr || op == Opcode::Ret;
}

bool Instruction::hasSideEffects() const {
  switch (op_) {
    case Opcode::Store:
    case Opcode::Call:
    case Opcode::Produce:
    case Opcode::Consume:  // removes a queue element — never dead
    case Opcode::SemRaise:
    case Opcode::SemLower:
      return true;
    default:
      return isTerminator();
  }
}

void Instruction::addOperand(Value* v) {
  operands_.push_back(v);
  if (v) v->addUser(this);
}

void Instruction::setOperand(unsigned i, Value* v) {
  assert(i < operands_.size());
  if (operands_[i]) operands_[i]->removeUser(this);
  operands_[i] = v;
  if (v) v->addUser(this);
}

void Instruction::removeOperand(unsigned i) {
  assert(i < operands_.size());
  if (operands_[i]) operands_[i]->removeUser(this);
  operands_.erase(operands_.begin() + i);
}

void Instruction::dropOperands() {
  for (Value* v : operands_)
    if (v) v->removeUser(this);
  operands_.clear();
  incoming_.clear();
}

int Instruction::incomingIndexFor(const BasicBlock* bb) const {
  for (unsigned i = 0; i < incoming_.size(); ++i)
    if (incoming_[i] == bb) return static_cast<int>(i);
  return -1;
}

unsigned Instruction::numSuccessors() const {
  switch (op_) {
    case Opcode::Br: return 1;
    case Opcode::CondBr: return 2;
    default: return 0;
  }
}

BasicBlock* Instruction::successor(unsigned i) const {
  switch (op_) {
    case Opcode::Br:
      assert(i == 0);
      return static_cast<BasicBlock*>(operand(0));
    case Opcode::CondBr:
      assert(i < 2);
      return static_cast<BasicBlock*>(operand(1 + i));
    default:
      assert(false && "not a branch");
      return nullptr;
  }
}

void Instruction::setSuccessor(unsigned i, BasicBlock* bb) {
  switch (op_) {
    case Opcode::Br:
      setOperand(0, bb);
      return;
    case Opcode::CondBr:
      setOperand(1 + i, bb);
      return;
    default:
      assert(false && "not a branch");
  }
}

// ---------------------------------------------------------------------------
// BasicBlock
// ---------------------------------------------------------------------------

Instruction* BasicBlock::append(Instruction* inst) {
  inst->setParent(this);
  return insts_.push_back(inst);
}

Instruction* BasicBlock::insert(iterator pos, Instruction* inst) {
  inst->setParent(this);
  return insts_.insert(pos, inst);
}

BasicBlock::iterator BasicBlock::firstNonPhi() {
  auto it = insts_.begin();
  while (it != insts_.end() && (*it)->isPhi()) ++it;
  return it;
}

void BasicBlock::erase(Instruction* inst) {
  assert(!inst->hasUses() && "erasing an instruction that still has uses");
  assert(inst->parent() == this && "instruction not in block");
  inst->dropOperands();
  insts_.remove(inst);
  inst->setParent(nullptr);
}

Instruction* BasicBlock::detach(Instruction* inst) {
  assert(inst->parent() == this && "instruction not in block");
  insts_.remove(inst);
  inst->setParent(nullptr);
  return inst;
}

std::vector<BasicBlock*> BasicBlock::successors() const {
  std::vector<BasicBlock*> out;
  if (Instruction* t = terminator()) {
    out.reserve(t->numSuccessors());
    for (unsigned i = 0, e = t->numSuccessors(); i != e; ++i) {
      BasicBlock* s = t->successor(i);
      if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
    }
  }
  return out;
}

std::vector<BasicBlock*> BasicBlock::predecessors() const {
  std::vector<BasicBlock*> out;
  for (Instruction* user : users_) {
    if (!user->isTerminator()) continue;
    BasicBlock* pred = user->parent();
    if (pred && std::find(out.begin(), out.end(), pred) == out.end()) out.push_back(pred);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Function / Module
// ---------------------------------------------------------------------------

void Function::dropAllReferences() {
  for (auto& bb : blocks_)
    for (auto& inst : *bb) inst->dropOperands();
}

Argument* Function::addArg(Type* type, std::string_view name) {
  Argument* a = arena_->create<Argument>(*arena_, type, numArgs(), this);
  a->setName(name);
  args_.push_back(a);
  return a;
}

BasicBlock* Function::createBlock(std::string_view name) {
  BasicBlock* bb = arena_->create<BasicBlock>(*arena_, name);
  bb->setParent(this);
  return blocks_.push_back(bb);
}

BasicBlock* Function::createBlockAfter(BasicBlock* after, std::string_view name) {
  BasicBlock* bb = arena_->create<BasicBlock>(*arena_, name);
  bb->setParent(this);
  if (after)
    blocks_.insertAfter(after, bb);
  else
    blocks_.push_back(bb);
  return bb;
}

void Function::eraseBlock(BasicBlock* bb) {
  assert(bb->parent() == this && "block not in function");
  // Drop all instruction operands first so cross-references out of the block
  // disappear from surviving values' use lists.
  for (auto& inst : *bb) inst->dropOperands();
  blocks_.remove(bb);
  bb->setParent(nullptr);
}

unsigned Function::renumber() {
  unsigned slot = numArgs();  // args use fixed slots [0, numArgs)
  unsigned bbId = 0;
  for (auto& bb : blocks_) {
    bb->setId(bbId++);
    for (auto& inst : *bb) inst->setId(slot++);
  }
  numSlots_ = slot;
  return slot;
}

int Function::valueSlot(const Value* v) {
  if (const auto* a = dyn_cast<Argument>(v)) return static_cast<int>(a->index());
  if (const auto* i = dyn_cast<Instruction>(v))
    return i->id() == ~0u ? -1 : static_cast<int>(i->id());
  return -1;
}

size_t Function::instructionCount() const {
  size_t n = 0;
  for (const auto& bb : blocks_) n += bb->size();
  return n;
}

Function* Module::createFunction(std::string_view name, Type* retType) {
  Function* f = arena_.create<Function>(arena_, name, retType, this);
  return functions_.push_back(f);
}

Function* Module::findFunction(std::string_view name) const {
  for (const auto& f : functions_)
    if (f->name() == name) return f;
  return nullptr;
}

void Module::eraseFunction(Function* f) {
  // Sever all operand links so the erased body vanishes from the use lists
  // of constants, globals and any surviving functions' values.
  f->dropAllReferences();
  functions_.remove(f);
}

GlobalVar* Module::createGlobal(std::string_view name, unsigned elemBits, uint32_t count,
                                bool isConst) {
  GlobalVar* g =
      arena_.create<GlobalVar>(arena_, types_.ptrTy(elemBits), name, elemBits, count, isConst);
  globals_.push_back(g);
  return g;
}

GlobalVar* Module::findGlobal(std::string_view name) const {
  for (const auto& g : globals_)
    if (g->name() == name) return g;
  return nullptr;
}

Constant* Module::constant(Type* type, uint64_t value) {
  // Mask to the type's width so interned constants are canonical.
  if (type->isInt() && type->bits() < 64) value &= (1ull << type->bits()) - 1;
  Constant*& slot = constants_[ConstantKey{type, value}];
  if (!slot) slot = arena_.create<Constant>(arena_, type, value);
  return slot;
}

size_t Module::instructionCount() const {
  size_t n = 0;
  for (const auto& f : functions_) n += f->instructionCount();
  return n;
}

}  // namespace twill
