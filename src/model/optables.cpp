#include "src/model/optables.h"

namespace twill {

unsigned swCycles(const Instruction& inst) {
  // Base instruction-fetch overhead: the area-minimized Microblaze fetches
  // from BRAM without caches or prefetch, adding a cycle to every
  // instruction on top of the unit-specific latency below.
  constexpr unsigned kFetch = 1;
  switch (inst.op()) {
    case Opcode::Mul:
      // The evaluation configures Microblaze to minimize area (§6), which
      // drops the hardware multiplier: multiplies run as a software routine.
      return 32 + kFetch;
    case Opcode::SDiv:
    case Opcode::UDiv:
    case Opcode::SRem:
    case Opcode::URem:
      return 34 + kFetch;  // §5.2
    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr: {
      // Area-minimized Microblaze has a serial (1 bit/cycle) shifter.
      if (auto* c = dyn_cast<Constant>(inst.operand(1))) {
        uint32_t amt = static_cast<uint32_t>(c->zext()) & 31u;
        return 1 + amt + kFetch;
      }
      return 12 + kFetch;  // average dynamic shift amount
    }
    case Opcode::Load:
    case Opcode::Store:
      return 2 + kFetch;  // §5.2
    case Opcode::Br:
      return 2 + kFetch;
    case Opcode::CondBr:
      return 3 + kFetch;  // taken-branch penalty on a simple pipeline
    case Opcode::Ret:
      return 3 + kFetch;
    case Opcode::Call:
      return 4 + kFetch;  // call/prologue overhead (plus the callee itself)
    case Opcode::Produce:
    case Opcode::Consume:
    case Opcode::SemRaise:
    case Opcode::SemLower:
      return RuntimeTiming::kProcessorPrimitiveOp + kFetch;  // §4.5
    case Opcode::Alloca:
      return 0;  // static addresses
    case Opcode::PtrToInt:
    case Opcode::IntToPtr:
      return 0;  // pure reinterpretation
    case Opcode::Phi:
      return 1 + kFetch;  // register move on block entry
    default:
      return 1 + kFetch;  // ALU op
  }
}

unsigned hwLatency(const Instruction& inst) {
  switch (inst.op()) {
    case Opcode::Mul:
      return 2;  // pipelined DSP multiplier
    case Opcode::SDiv:
    case Opcode::UDiv:
    case Opcode::SRem:
    case Opcode::URem:
      return 13;  // §5.2
    case Opcode::Load:
      return RuntimeTiming::kMemRead;
    case Opcode::Store:
      return RuntimeTiming::kMemWrite;  // §5.2: 1 cycle in hardware
    case Opcode::Produce:
    case Opcode::Consume:
      return RuntimeTiming::kQueueOp;
    case Opcode::SemRaise:
      return RuntimeTiming::kSemRaise;
    case Opcode::SemLower:
      return RuntimeTiming::kSemLower;
    case Opcode::Call:
      return 1;  // jump into the callee's FSM; body costed separately
    default:
      return 0;  // combinational, chainable
  }
}

OpArea hwOpArea(const Instruction& inst) {
  switch (inst.op()) {
    case Opcode::Add:
    case Opcode::Sub:
      return {32, 0};
    case Opcode::Mul:
      return {64, 1};  // DSP block plus glue
    case Opcode::SDiv:
    case Opcode::UDiv:
    case Opcode::SRem:
    case Opcode::URem:
      return {220, 1};  // serial divider (§6.4 notes a simple serial divider)
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
      return {32, 0};
    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr:
      // Constant shifts are wiring; variable shifts need a barrel shifter.
      return isa<Constant>(inst.operand(1)) ? OpArea{0, 0} : OpArea{96, 0};
    case Opcode::Gep:
      return {32, 0};  // scaled adder
    case Opcode::Select:
      return {16, 0};
    case Opcode::Phi:
      return {8u * (inst.numIncoming() > 0 ? inst.numIncoming() - 1 : 0), 0};
    case Opcode::Load:
    case Opcode::Store:
      return {12, 0};  // memory-bus interface share
    case Opcode::Produce:
    case Opcode::Consume:
    case Opcode::SemRaise:
    case Opcode::SemLower:
      return {6, 0};  // module-bus interface share (HWInterface is separate)
    case Opcode::ZExt:
    case Opcode::SExt:
    case Opcode::Trunc:
    case Opcode::PtrToInt:
    case Opcode::IntToPtr:
    case Opcode::Alloca:
      return {0, 0};  // wiring only
    default:
      if (isCompareOp(inst.op())) return {16, 0};
      return {8, 0};  // control flow share
  }
}

uint64_t hwWeight(const Instruction& inst) {
  OpArea a = hwOpArea(inst);
  // Fold DSP blocks into an LUT-equivalent so one scalar orders SCCs, and
  // use latency+1 so combinational ops still carry their area.
  uint64_t areaEq = a.luts + 300ull * a.dsps;
  return (hwLatency(inst) + 1ull) * (areaEq + 1ull);
}

}  // namespace twill
