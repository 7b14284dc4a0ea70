// Pruned SSA construction: promote scalar allocas to registers.
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/analysis/domtree.h"
#include "src/transforms/passes.h"

namespace twill {
namespace {

/// An alloca is promotable if it is a single scalar slot and its address is
/// only ever used directly by loads and by stores *of a value into it*.
bool isPromotable(Instruction* alloca) {
  if (alloca->allocaCount() != 1) return false;
  for (Instruction* user : alloca->users()) {
    switch (user->op()) {
      case Opcode::Load:
        break;
      case Opcode::Store:
        if (user->operand(0) == alloca) return false;  // address escapes
        break;
      default:
        return false;  // gep, call, ptrtoint, ... -> address taken
    }
  }
  return true;
}

}  // namespace

bool mem2reg(Function& f) {
  // Collect promotable allocas.
  std::vector<Instruction*> allocas;
  for (auto& bb : f.blocks())
    for (auto& inst : *bb)
      if (inst->op() == Opcode::Alloca && isPromotable(inst)) allocas.push_back(inst);
  if (allocas.empty()) return false;

  Module& m = *f.parent();
  f.renumber();
  DomTree dom;
  dom.build(f, false);

  std::unordered_map<Instruction*, unsigned> allocaIndex;
  for (unsigned i = 0; i < allocas.size(); ++i) allocaIndex[allocas[i]] = i;

  // Insert PHIs at the iterated dominance frontier of each alloca's stores.
  // phiFor[block][allocaIdx] -> phi instruction
  std::unordered_map<BasicBlock*, std::unordered_map<unsigned, Instruction*>> phiFor;
  for (unsigned ai = 0; ai < allocas.size(); ++ai) {
    std::vector<BasicBlock*> work;
    std::unordered_set<BasicBlock*> defBlocks;
    for (Instruction* user : allocas[ai]->users())
      if (user->op() == Opcode::Store) defBlocks.insert(user->parent());
    work.assign(defBlocks.begin(), defBlocks.end());
    std::unordered_set<BasicBlock*> hasPhi;
    while (!work.empty()) {
      BasicBlock* bb = work.back();
      work.pop_back();
      if (!dom.isReachable(bb)) continue;
      for (BasicBlock* df : dom.frontier(bb)) {
        if (!hasPhi.insert(df).second) continue;
        Instruction* p = df->insert(
            df->begin(),
            m.createInstruction(Opcode::Phi, m.types().intTy(allocas[ai]->allocaElemBits())));
        phiFor[df][ai] = p;
        if (!defBlocks.count(df)) work.push_back(df);
      }
    }
  }

  // Rename: DFS over the dominator tree carrying the current value of each
  // alloca. Reads before any write see 0 (well-defined simulated memory).
  struct Frame {
    BasicBlock* bb;
    size_t child = 0;
    std::vector<std::pair<unsigned, Value*>> saved;  // (allocaIdx, previous)
  };
  std::vector<Value*> cur(allocas.size(), nullptr);
  auto currentValue = [&](unsigned ai) -> Value* {
    if (cur[ai]) return cur[ai];
    return f.parent()->constant(f.parent()->types().intTy(allocas[ai]->allocaElemBits()), 0);
  };

  std::vector<Frame> stack;
  stack.push_back({f.entry(), 0, {}});
  // Pre-scan: process instructions of a block on push.
  auto processBlock = [&](Frame& fr) {
    BasicBlock* bb = fr.bb;
    // PHIs inserted for allocas define new current values.
    auto pf = phiFor.find(bb);
    if (pf != phiFor.end()) {
      for (auto& [ai, phi] : pf->second) {
        fr.saved.push_back({ai, cur[ai]});
        cur[ai] = phi;
      }
    }
    std::vector<Instruction*> toErase;
    for (auto& instPtr : *bb) {
      Instruction* inst = instPtr;
      if (inst->op() == Opcode::Load) {
        auto* a = dyn_cast<Instruction>(inst->operand(0));
        auto it = a ? allocaIndex.find(a) : allocaIndex.end();
        if (it != allocaIndex.end()) {
          inst->replaceAllUsesWith(currentValue(it->second));
          toErase.push_back(inst);
        }
      } else if (inst->op() == Opcode::Store) {
        auto* a = dyn_cast<Instruction>(inst->operand(1));
        auto it = a ? allocaIndex.find(a) : allocaIndex.end();
        if (it != allocaIndex.end()) {
          fr.saved.push_back({it->second, cur[it->second]});
          cur[it->second] = inst->operand(0);
          toErase.push_back(inst);
        }
      }
    }
    for (Instruction* i : toErase) bb->erase(i);
    // Fill in PHI operands of successors.
    for (BasicBlock* s : bb->successors()) {
      auto sf = phiFor.find(s);
      if (sf == phiFor.end()) continue;
      for (auto& [ai, phi] : sf->second) {
        // successors() de-duplicates, but a condbr may reach `s` on both
        // edges; the PHI needs one entry per *predecessor*, which is what
        // predecessors() yields, so one entry per unique pred is right.
        if (phi->incomingIndexFor(bb) < 0) phi->addIncoming(currentValue(ai), bb);
      }
    }
  };

  processBlock(stack.back());
  while (!stack.empty()) {
    Frame& fr = stack.back();
    const Span<BasicBlock* const> kids = dom.children(fr.bb);
    if (fr.child < kids.size()) {
      BasicBlock* next = kids[fr.child++];
      stack.push_back({next, 0, {}});
      processBlock(stack.back());
    } else {
      for (auto it = fr.saved.rbegin(); it != fr.saved.rend(); ++it) cur[it->first] = it->second;
      stack.pop_back();
    }
  }

  // Remove the now-dead allocas (all loads/stores are gone).
  for (Instruction* a : allocas) {
    if (!a->hasUses()) a->parent()->erase(a);
  }
  return true;
}

}  // namespace twill
