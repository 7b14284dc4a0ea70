// Function inlining and dead-function removal.
#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/analysis/cfg.h"
#include "src/ir/builder.h"
#include "src/transforms/passes.h"

namespace twill {
namespace {

std::vector<Instruction*> callSitesIn(Function& f) {
  std::vector<Instruction*> calls;
  for (auto& bb : f.blocks())
    for (auto& inst : *bb)
      if (inst->op() == Opcode::Call) calls.push_back(inst);
  return calls;
}

/// Inlines one call site. Returns true on success.
bool inlineCall(Module& m, Instruction* call) {
  Function* callee = call->callee();
  Function* caller = call->parent()->parent();
  if (!callee->entry() || callee == caller) return false;

  BasicBlock* pre = call->parent();
  // Split: everything after the call (including the terminator) moves into a
  // continuation block.
  BasicBlock* post = caller->createBlockAfter(pre, pre->name() + ".inlcont");
  {
    std::vector<Instruction*> toMove;
    bool after = false;
    for (auto& inst : *pre) {
      if (after) toMove.push_back(inst);
      if (inst == call) after = true;
    }
    for (Instruction* i : toMove) post->append(pre->detach(i));
  }
  // Successor PHIs that named `pre` must now name `post` (the terminator
  // moved there).
  for (BasicBlock* s : post->successors()) {
    for (auto& inst : *s) {
      if (!inst->isPhi()) break;
      int idx = inst->incomingIndexFor(pre);
      if (idx >= 0) inst->setIncomingBlock(static_cast<unsigned>(idx), post);
    }
  }

  // Clone callee blocks (empty first, for forward references). The value
  // map is split by key kind: instructions in a dense id-indexed vector
  // (renumber() makes callee ids dense), arguments by index, blocks in a
  // small hash map — cloning queries the map per operand, so the dense
  // paths matter.
  callee->renumber();
  std::vector<Value*> instMap(callee->numValueSlots(), nullptr);
  std::vector<Value*> argMap(callee->numArgs(), nullptr);
  std::unordered_map<BasicBlock*, BasicBlock*> blockMap;
  for (unsigned i = 0; i < callee->numArgs(); ++i) argMap[i] = call->operand(i);
  std::vector<BasicBlock*> clonedBlocks;
  BasicBlock* insertAfter = pre;
  for (auto& bb : callee->blocks()) {
    BasicBlock* c = caller->createBlockAfter(insertAfter, callee->name() + "." + bb->name());
    insertAfter = c;
    blockMap[bb] = c;
    clonedBlocks.push_back(c);
  }
  auto mapped = [&](Value* v) -> Value* {
    if (auto* i = dyn_cast<Instruction>(v)) {
      Value* mv =
          (i->parent() && i->parent()->parent() == callee) ? instMap[i->id()] : nullptr;
      return mv ? mv : v;  // null = cloned later; the second pass fixes it
    }
    if (auto* a = dyn_cast<Argument>(v)) return argMap[a->index()];
    if (auto* bb = dyn_cast<BasicBlock>(v)) {
      auto it = blockMap.find(bb);
      return it == blockMap.end() ? v : static_cast<Value*>(it->second);
    }
    return v;
  };
  // Clone instructions.
  std::vector<Instruction*> retInsts;  // cloned rets; values read post-remap
  {
    auto cbIt = clonedBlocks.begin();
    for (auto& bb : callee->blocks()) {
      BasicBlock* c = *cbIt++;
      for (auto& inst : *bb) {
        Instruction* ci = c->append(cloneInstruction(m, inst, mapped));
        instMap[inst->id()] = ci;
        if (ci->op() == Opcode::Ret) retInsts.push_back(ci);
      }
    }
    // Second pass: phis may reference instructions cloned later; fix them.
    // (Blocks and arguments all resolved during cloning, so only original
    // instruction operands can still need a remap here.)
    for (BasicBlock* c : clonedBlocks) {
      for (auto& inst : *c) {
        for (unsigned i = 0; i < inst->numOperands(); ++i) {
          auto* oi = dyn_cast<Instruction>(inst->operand(i));
          if (!oi || !oi->parent() || oi->parent()->parent() != callee) continue;
          Value* mv = instMap[oi->id()];
          if (mv && mv != oi) inst->setOperand(i, mv);
        }
      }
    }
  }

  // Branch from pre into the cloned entry.
  IRBuilder b(m);
  b.setInsertPoint(pre);
  b.br(blockMap[callee->entry()]);

  // Rewire cloned returns to the continuation and merge return values.
  // (Return values are read only now, after the second remap pass.)
  Value* result = nullptr;
  if (retInsts.size() == 1) {
    result = retInsts[0]->numOperands() ? retInsts[0]->operand(0) : nullptr;
  } else if (!retInsts.empty() && !callee->retType()->isVoid()) {
    Instruction* p = post->insert(post->begin(), m.createInstruction(Opcode::Phi, callee->retType()));
    for (Instruction* ret : retInsts) p->addIncoming(ret->operand(0), ret->parent());
    result = p;
  }
  for (Instruction* ret : retInsts) {
    BasicBlock* rb = ret->parent();
    ret->dropOperands();
    rb->erase(ret);
    IRBuilder rbld(m);
    rbld.setInsertPoint(rb);
    rbld.br(post);
  }

  // Replace the call's value and remove it.
  if (!call->type()->isVoid() && result) call->replaceAllUsesWith(result);
  call->dropOperands();
  pre->erase(call);
  return true;
}

}  // namespace

bool inlineFunctions(Module& m, unsigned sizeThreshold, uint64_t maxModuleInstructions) {
  // Count call sites per callee.
  std::unordered_map<Function*, unsigned> siteCount;
  for (auto& f : m.functions())
    for (Instruction* c : callSitesIn(*f)) siteCount[c->callee()]++;

  // Inlining a call DAG can double the module per level (exponential in the
  // worst case), so a resource ceiling stops growth gracefully: inlining is
  // an optimization, and a partially-inlined module is still correct.
  uint64_t moduleSize = maxModuleInstructions ? m.instructionCount() : 0;

  bool any = false;
  bool changed = true;
  unsigned rounds = 0;
  while (changed && rounds++ < 16) {
    changed = false;
    for (auto& f : m.functions()) {
      for (Instruction* call : callSitesIn(*f)) {
        Function* callee = call->callee();
        if (!callee->entry()) continue;
        if (callee == f) continue;  // direct recursion: never
        size_t size = callee->instructionCount();
        bool shouldInline = size <= sizeThreshold || siteCount[callee] == 1;
        if (!shouldInline) continue;
        if (maxModuleInstructions && moduleSize + size > maxModuleInstructions) continue;
        if (inlineCall(m, call)) {
          moduleSize += size;
          changed = true;
          any = true;
        }
      }
    }
  }
  return any;
}

bool removeDeadFunctions(Module& m) {
  bool any = false;
  bool changed = true;
  while (changed) {
    changed = false;
    std::unordered_set<Function*> called;
    for (auto& f : m.functions())
      for (Instruction* c : callSitesIn(*f)) called.insert(c->callee());
    std::vector<Function*> dead;
    for (auto& f : m.functions())
      if (f->name() != "main" && !called.count(f)) dead.push_back(f);
    for (Function* f : dead) {
      m.eraseFunction(f);
      changed = true;
      any = true;
    }
  }
  return any;
}

bool globalsToArgs(Module& m) {
  Function* main = m.findFunction("main");

  // Callees first, so a call site sees its callee's global list complete.
  const std::vector<Function*> order = calleesFirst(m);

  // Globals used per function (direct + transitive through calls).
  std::unordered_map<Function*, std::vector<GlobalVar*>> used;
  for (Function* f : order) {
    std::vector<GlobalVar*> list;
    auto addGlobal = [&](GlobalVar* g) {
      if (std::find(list.begin(), list.end(), g) == list.end()) list.push_back(g);
    };
    for (auto& bb : f->blocks())
      for (auto& inst : *bb) {
        for (unsigned i = 0; i < inst->numOperands(); ++i)
          if (auto* g = dyn_cast<GlobalVar>(inst->operand(i))) addGlobal(g);
        if (inst->op() == Opcode::Call)
          for (GlobalVar* g : used[inst->callee()]) addGlobal(g);
      }
    used[f] = std::move(list);
  }

  bool any = false;
  // Rewrite each non-main function: new pointer argument per used global.
  std::unordered_map<Function*, std::unordered_map<GlobalVar*, Argument*>> argFor;
  for (Function* f : order) {
    if (f == main) continue;
    for (GlobalVar* g : used[f]) {
      Argument* a = f->addArg(g->type(), "g_" + g->name());
      argFor[f][g] = a;
      any = true;
      // Replace direct uses within f.
      for (auto& bb : f->blocks())
        for (auto& inst : *bb)
          for (unsigned i = 0; i < inst->numOperands(); ++i)
            if (inst->operand(i) == g) inst->setOperand(i, a);
    }
  }
  // Fix every call site: append the callee's global arguments.
  for (Function* f : order) {
    for (auto& bb : f->blocks()) {
      for (auto& inst : *bb) {
        if (inst->op() != Opcode::Call) continue;
        Function* callee = inst->callee();
        for (GlobalVar* g : used[callee]) {
          Value* v = (f == main) ? static_cast<Value*>(g) : static_cast<Value*>(argFor[f][g]);
          inst->addOperand(v);
        }
      }
    }
  }
  return any;
}

}  // namespace twill
