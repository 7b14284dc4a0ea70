#include "src/analysis/cfg.h"

#include <unordered_set>

#include "src/ir/builder.h"

namespace twill {

std::vector<Function*> calleesFirst(Module& m) {
  auto calleesOf = [](Function* f) {
    std::vector<Function*> cs;
    for (auto& bb : f->blocks())
      for (auto& inst : *bb)
        if (inst->op() == Opcode::Call) cs.push_back(inst->callee());
    return cs;
  };
  struct DfsNode {
    Function* f;
    std::vector<Function*> callees;
    size_t next = 0;
  };
  std::vector<Function*> order;
  std::unordered_set<Function*> visited;
  std::vector<DfsNode> stack;
  auto dfs = [&](Function* root) {
    if (!visited.insert(root).second) return;
    stack.push_back({root, calleesOf(root), 0});
    while (!stack.empty()) {
      DfsNode& top = stack.back();
      if (top.next < top.callees.size()) {
        Function* c = top.callees[top.next++];
        if (visited.insert(c).second) stack.push_back({c, calleesOf(c), 0});
      } else {
        order.push_back(top.f);
        stack.pop_back();
      }
    }
  };
  if (Function* main = m.findFunction("main")) dfs(main);
  for (auto& f : m.functions()) dfs(f);
  return order;
}

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
