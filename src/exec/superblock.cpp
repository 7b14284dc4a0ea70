#include "src/exec/superblock.h"

namespace twill {

void buildSuperOps(DecodedFunction& df) {
  df.sops.clear();
  df.sops.resize(df.insts.size());
  // A CFG edge is "free" when taking it is a pure goto: no phi copies and
  // no decode-time trap. Free edges get the specialized direct-jump
  // dispatch codes (no takeEdge call in the trace runner).
  auto freeEdge = [&](uint32_t edgeIdx) {
    const DecodedEdge& e = df.edges[edgeIdx];
    return e.trapMsg < 0 && e.copyCount == 0;
  };
  for (size_t pc = 0; pc < df.insts.size(); ++pc) {
    const DecodedInst& d = df.insts[pc];
    SuperOp& so = df.sops[pc];
    so.op = d.op;
    so.evalBits = d.evalBits;
    so.auxBits = d.auxBits;
    so.accessBytes = d.accessBytes;
    so.flags = d.flags;
    so.swCost = d.swCost;
    so.a = d.a;
    so.b = d.b;
    so.c = d.c;
    so.resSlot = d.resSlot;
    so.resMask = d.resMask;
    so.aux = d.scale;
    switch (d.op) {
      case Opcode::Br:
        if (freeEdge(d.edge0)) {
          so.kind = SuperOp::kJump0;
          so.aux = df.edges[d.edge0].targetPc;
        } else {
          so.kind = SuperOp::kJump;
          so.aux = d.edge0;
        }
        break;
      case Opcode::CondBr:
        if (freeEdge(d.edge0) && freeEdge(d.edge1)) {
          so.kind = SuperOp::kCond0;
          so.b = df.edges[d.edge0].targetPc;  // taken
          so.c = df.edges[d.edge1].targetPc;  // fall-through
        } else {
          so.kind = SuperOp::kCond;
        }
        break;
      case Opcode::Ret:
        so.kind = SuperOp::kRet;
        break;
      case Opcode::Call:
        so.kind = SuperOp::kCall;
        break;
      case Opcode::Produce:
      case Opcode::Consume:
      case Opcode::SemRaise:
      case Opcode::SemLower:
      case Opcode::Phi:  // poisoned record or missing-terminator filler
        so.kind = SuperOp::kSlow;
        break;
      default:
        // Straight-line op: the dispatch code is the opcode ordinal.
        so.kind = static_cast<uint8_t>(d.op);
        break;
    }
    // Any poisoned record dispatches through step()'s trap arm, whatever
    // opcode it started as.
    if (d.trapMsg >= 0) so.kind = SuperOp::kSlow;
  }
}

}  // namespace twill
