#include "src/analysis/cfg.h"

#include "src/ir/builder.h"

namespace twill {

std::vector<BasicBlock*> exitBlocks(Function& f) {
  std::vector<BasicBlock*> exits;
  for (auto& bb : f.blocks())
    if (bb->terminator() && bb->terminator()->op() == Opcode::Ret) exits.push_back(bb);
  return exits;
}

BasicBlock* splitEdge(Function& f, BasicBlock* pred, BasicBlock* succ, const std::string& name) {
  BasicBlock* mid = f.createBlockAfter(pred, name);
  IRBuilder b(*f.parent());
  b.setInsertPoint(mid);
  b.br(succ);
  // Retarget every successor slot of pred's terminator that points at succ.
  Instruction* term = pred->terminator();
  for (unsigned i = 0, e = term->numSuccessors(); i != e; ++i)
    if (term->successor(i) == succ) term->setSuccessor(i, mid);
  // PHIs in succ now flow through mid.
  for (auto& inst : *succ) {
    if (!inst->isPhi()) break;
    for (unsigned i = 0; i < inst->numIncoming(); ++i)
      if (inst->incomingBlock(i) == pred) inst->setIncomingBlock(i, mid);
  }
  return mid;
}

}  // namespace twill
