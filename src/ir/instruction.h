// Instruction set of the Twill IR.
//
// A deliberately LLVM-2.9-shaped SSA instruction set covering exactly what
// the thesis's tool flow needs, plus the four Twill runtime operations the
// DSWP pass inserts (produce/consume on hardware queues, semaphore
// raise/lower — §4.2/§4.3 of the thesis). There is no switch: the frontend
// emits a C `switch` as a compare/branch chain (the thesis's "lowerswitch"
// step, §5.1), so a terminator has at most two successors.
//
// Instructions are arena-placed and chain into their block through intrusive
// prev/next links: append/insert/detach/erase are O(1) pointer surgery, and
// no ownership ever transfers — the module arena reclaims everything at
// teardown.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/value.h"
#include "src/support/ilist.h"

namespace twill {

class BasicBlock;
class Function;

enum class Opcode : uint8_t {
  // Integer arithmetic / bitwise.
  Add, Sub, Mul, SDiv, UDiv, SRem, URem,
  And, Or, Xor, Shl, LShr, AShr,
  // Comparisons (produce i1).
  CmpEQ, CmpNE, CmpSLT, CmpSLE, CmpSGT, CmpSGE, CmpULT, CmpULE, CmpUGT, CmpUGE,
  // Casts and selection.
  ZExt, SExt, Trunc, Select,
  // Pointer <-> integer reinterpretation (zero-cost on the 32-bit target;
  // exists so pointer-typed variables can round-trip through memory slots).
  PtrToInt, IntToPtr,
  // Memory.
  Alloca,  // static stack slot: elemBits x count
  Load,    // (ptr) -> int
  Store,   // (value, ptr)
  Gep,     // (ptr, index) -> ptr ; scaled by pointee byte size
  // SSA / control flow.
  Phi,
  Br,       // (target)
  CondBr,   // (cond, then, else)
  Ret,      // () or (value)
  Call,     // (args...) ; callee in field
  // Twill runtime operations (inserted by the DSWP pass).
  Produce,   // (value) -> void ; channel in field
  Consume,   // () -> int       ; channel in field
  SemRaise,  // (count) ; semaphore id in field
  SemLower,  // (count) ; semaphore id in field
};

/// Number of opcodes: tables indexed by opcode ordinal have this many rows.
constexpr unsigned kNumOpcodes = static_cast<unsigned>(Opcode::SemLower) + 1;

const char* opcodeName(Opcode op);
bool isBinaryOp(Opcode op);
bool isCompareOp(Opcode op);
bool isCastOp(Opcode op);
bool isTerminatorOp(Opcode op);

class Instruction : public Value, public IntrusiveListNode<Instruction> {
public:
  Instruction(Arena& arena, Opcode op, Type* type)
      : Value(arena, Kind::Instruction, type), op_(op) {}
  // No destructor work: operand links are severed explicitly by erase paths,
  // and arena teardown only releases this node's own vectors.

  Opcode op() const { return op_; }
  BasicBlock* parent() const { return parent_; }
  void setParent(BasicBlock* bb) { parent_ = bb; }

  // --- Operands -----------------------------------------------------------
  unsigned numOperands() const { return static_cast<unsigned>(operands_.size()); }
  Value* operand(unsigned i) const { return operands_[i]; }
  const std::vector<Value*>& operands() const { return operands_; }
  void addOperand(Value* v);
  void setOperand(unsigned i, Value* v);
  /// Removes operand slot `i` (used by PHI incoming removal).
  void removeOperand(unsigned i);
  void dropOperands();

  // --- Classification -----------------------------------------------------
  bool isTerminator() const { return isTerminatorOp(op_); }
  bool isPhi() const { return op_ == Opcode::Phi; }
  /// True if removing this instruction (when unused) changes behaviour.
  bool hasSideEffects() const;

  // --- PHI accessors (operands parallel to incoming blocks) ---------------
  unsigned numIncoming() const { return numOperands(); }
  BasicBlock* incomingBlock(unsigned i) const { return incoming_[i]; }
  Value* incomingValue(unsigned i) const { return operand(i); }
  void addIncoming(Value* v, BasicBlock* bb) {
    addOperand(v);
    incoming_.push_back(bb);
  }
  void setIncomingBlock(unsigned i, BasicBlock* bb) { incoming_[i] = bb; }
  void removeIncoming(unsigned i) {
    removeOperand(i);
    incoming_.erase(incoming_.begin() + i);
  }
  /// Index of the incoming entry for `bb`, or -1.
  int incomingIndexFor(const BasicBlock* bb) const;

  // --- Field accessors for opcode-specific payloads ------------------------
  // Alloca: element width and count. Load/Store: access width derives from
  // the pointer operand's pointee type.
  unsigned allocaElemBits() const { return fieldA_; }
  uint32_t allocaCount() const { return fieldB_; }
  void setAllocaInfo(unsigned elemBits, uint32_t count) {
    fieldA_ = elemBits;
    fieldB_ = count;
  }

  // Produce/Consume: hardware queue channel id. SemRaise/SemLower: semaphore
  // id. Assigned by the DSWP pass when communication is allocated.
  int channel() const { return static_cast<int>(fieldA_); }
  void setChannel(int c) { fieldA_ = static_cast<uint32_t>(c); }

  // Call: target function.
  Function* callee() const { return callee_; }
  void setCallee(Function* f) { callee_ = f; }

  // --- CFG helpers (terminators) -------------------------------------------
  unsigned numSuccessors() const;
  BasicBlock* successor(unsigned i) const;
  void setSuccessor(unsigned i, BasicBlock* bb);

  /// Dense per-function id assigned by Function::renumber(); used by the
  /// interpreter and analyses for vector-indexed side tables.
  unsigned id() const { return id_; }
  void setId(unsigned id) { id_ = id; }

  static bool classof(const Value* v) { return v->kind() == Kind::Instruction; }

private:
  Opcode op_;
  BasicBlock* parent_ = nullptr;
  std::vector<Value*> operands_;
  std::vector<BasicBlock*> incoming_;  // PHI only
  uint32_t fieldA_ = 0;
  uint32_t fieldB_ = 0;
  Function* callee_ = nullptr;
  unsigned id_ = ~0u;
};

}  // namespace twill
