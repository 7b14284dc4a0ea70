#include "src/ir/verifier.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "src/ir/printer.h"

namespace twill {
namespace {

// Dominance of one function over dense block ids (0..n-1 in block order):
// Cooper-Harvey-Kennedy immediate dominators over reverse-postorder indices,
// then dominator-tree preorder intervals, so a query is two comparisons.
// Predecessors are listed once per function, exactly as
// BasicBlock::predecessors() reports them. The tables are reused across the
// functions of a module. The verifier deliberately does not depend on the
// analysis library it is used to validate.
class Dominance {
 public:
  /// `blocks` maps block id -> block; every block must end in a terminator
  /// whose successors are blocks of the same function.
  void build(const std::vector<BasicBlock*>& blocks) {
    blocks_ = &blocks;
    const size_t n = blocks.size();
    predBegin_.assign(n + 1, 0);
    preds_.clear();
    for (size_t b = 0; b < n; ++b) {
      predBegin_[b] = static_cast<unsigned>(preds_.size());
      for (Instruction* user : blocks[b]->users()) {
        BasicBlock* p = user->isTerminator() ? user->parent() : nullptr;
        if (p && std::find(preds_.begin() + predBegin_[b], preds_.end(), p) == preds_.end())
          preds_.push_back(p);
      }
    }
    predBegin_[n] = static_cast<unsigned>(preds_.size());

    // Postorder from the entry (block 0), then reversed into RPO indices.
    constexpr int kUnseen = -1, kSeen = -2;
    rpoOf_.assign(n, kUnseen);
    rpo_.clear();
    stack_.clear();
    rpoOf_[0] = kSeen;
    stack_.push_back({0, 0});
    while (!stack_.empty()) {
      const unsigned b = stack_.back().first;
      Instruction* term = blocks[b]->terminator();
      if (stack_.back().second < term->numSuccessors()) {
        const unsigned s = term->successor(stack_.back().second++)->id();
        if (rpoOf_[s] == kUnseen) {
          rpoOf_[s] = kSeen;
          stack_.push_back({s, 0});
        }
      } else {
        rpo_.push_back(b);
        stack_.pop_back();
      }
    }
    std::reverse(rpo_.begin(), rpo_.end());
    const size_t r = rpo_.size();
    for (size_t i = 0; i < r; ++i) rpoOf_[rpo_[i]] = static_cast<int>(i);

    // Immediate dominators; -1 = not yet processed. Every reachable block
    // has a predecessor earlier in RPO, so one sweep defines them all and
    // the fixpoint only refines them.
    idom_.assign(r, -1);
    idom_[0] = 0;
    for (bool changed = true; changed;) {
      changed = false;
      for (size_t i = 1; i < r; ++i) {
        int d = -1;
        for (BasicBlock* pb : preds(blocks[rpo_[i]])) {
          const int p = rpoIndex(pb);
          if (p < 0 || idom_[p] < 0) continue;
          d = d < 0 ? p : intersect(p, d);
        }
        if (idom_[i] != d) {
          idom_[i] = d;
          changed = true;
        }
      }
    }

    // Preorder intervals: an immediate dominator precedes its children in
    // RPO, so subtree sizes accumulate in reverse and each child takes the
    // next free run inside its parent's interval.
    size_.assign(r, 1);
    for (size_t i = r; i-- > 1;) size_[idom_[i]] += size_[i];
    pre_.assign(r, 0);
    next_.assign(r, 1);
    for (size_t i = 1; i < r; ++i) {
      pre_[i] = next_[idom_[i]];
      next_[idom_[i]] += size_[i];
      next_[i] = pre_[i] + 1;
    }
  }

  bool reachable(const BasicBlock* bb) const { return rpoIndex(bb) >= 0; }

  /// True if `a` dominates `b` (reflexive); false when either is unreachable.
  bool dominates(const BasicBlock* a, const BasicBlock* b) const {
    const int x = rpoIndex(a), y = rpoIndex(b);
    return x >= 0 && y >= 0 && pre_[x] <= pre_[y] && pre_[y] < pre_[x] + size_[x];
  }

  /// Predecessors of a block of this function, in use-list order.
  Span<BasicBlock* const> preds(const BasicBlock* bb) const {
    const unsigned b = bb->id();
    return {preds_.data() + predBegin_[b], predBegin_[b + 1] - predBegin_[b]};
  }

 private:
  /// RPO index of a block of this function; -1 for unreachable blocks and
  /// blocks of other functions.
  int rpoIndex(const BasicBlock* bb) const {
    const unsigned b = bb->id();
    return b < blocks_->size() && (*blocks_)[b] == bb ? rpoOf_[b] : -1;
  }

  int intersect(int a, int b) const {
    while (a != b) {
      while (a > b) a = idom_[a];
      while (b > a) b = idom_[b];
    }
    return a;
  }

  const std::vector<BasicBlock*>* blocks_ = nullptr;
  std::vector<unsigned> predBegin_;
  std::vector<BasicBlock*> preds_;
  std::vector<int> rpoOf_;                   // block id -> RPO index, -1 when unreachable
  std::vector<unsigned> rpo_;                // RPO index -> block id
  std::vector<int> idom_;                    // RPO index -> RPO index of the immediate dominator
  std::vector<unsigned> pre_, size_, next_;  // dominator-tree preorder intervals
  std::vector<std::pair<unsigned, unsigned>> stack_;
};

/// Per-module scratch shared by the function verifiers.
///
/// While a function is checked its blocks carry ids 0..n-1 and its
/// instructions carry increasing positions in block order (the numbering
/// Function::renumber gives them). The ids the caller left are saved first
/// and written back afterwards: instruction ids before any diagnostic names
/// an instruction (the printer's %tN reads them), block ids at the end.
struct Scratch {
  std::vector<BasicBlock*> blocks;  // block id -> block
  std::vector<unsigned> savedBlockIds, savedInstIds;
  Dominance dom;
  std::vector<std::pair<Instruction*, Instruction*>> badUses;  // (def, use)
};

class FunctionVerifier {
public:
  FunctionVerifier(Function& f, DiagEngine& diag, Scratch& scratch)
      : f_(f), diag_(diag), s_(scratch) {}

  bool run() {
    if (!f_.entry()) {
      error("function @" + f_.name() + " has no blocks");
      return ok_;
    }
    s_.blocks.clear();
    s_.savedBlockIds.clear();
    for (auto& bb : f_.blocks()) {
      s_.savedBlockIds.push_back(bb->id());
      bb->setId(static_cast<unsigned>(s_.blocks.size()));
      s_.blocks.push_back(bb);
    }
    checkStructure();
    if (ok_) checkDominance();  // dominance checks assume structural sanity
    for (size_t b = 0; b < s_.blocks.size(); ++b) s_.blocks[b]->setId(s_.savedBlockIds[b]);
    return ok_;
  }

private:
  void error(const std::string& msg) {
    diag_.error({}, "[" + f_.name() + "] " + msg);
    ok_ = false;
  }

  bool isLocal(const BasicBlock* bb) const {
    return bb->id() < s_.blocks.size() && s_.blocks[bb->id()] == bb;
  }

  void checkStructure() {
    if (!f_.entry()->predecessors().empty())
      error("entry block has predecessors");
    for (auto& bb : f_.blocks()) {
      if (bb->empty()) {
        error("block %" + bb->name() + " is empty");
        continue;
      }
      if (!bb->terminator()) error("block %" + bb->name() + " lacks a terminator");
      bool seenNonPhi = false;
      for (auto it = bb->begin(); it != bb->end(); ++it) {
        Instruction* inst = *it;
        if (inst->isTerminator() && inst != bb->back())
          error("terminator in the middle of block %" + bb->name());
        if (inst->isPhi()) {
          if (seenNonPhi) error("phi after non-phi in block %" + bb->name());
        } else {
          seenNonPhi = true;
        }
        if (inst->parent() != bb) error("instruction parent link broken in %" + bb->name());
        for (unsigned i = 0; i < inst->numOperands(); ++i) {
          Value* op = inst->operand(i);
          if (!op) {
            error("null operand in " + printInstruction(inst));
            continue;
          }
          if (auto* tb = dyn_cast<BasicBlock>(op)) {
            if (!isLocal(tb))
              error("branch to block of another function in %" + bb->name());
            if (!inst->isTerminator())
              error("non-terminator references a block in %" + bb->name());
          }
          if (auto* oi = dyn_cast<Instruction>(op)) {
            if (!oi->parent() || oi->parent()->parent() != &f_)
              error("operand from another function in " + printInstruction(inst));
          }
          if (auto* oa = dyn_cast<Argument>(op)) {
            if (oa->parent() != &f_)
              error("argument of another function used in " + printInstruction(inst));
          }
        }
        checkTypes(inst);
      }
    }
  }

  void checkTypes(Instruction* inst) {
    auto intOp = [&](unsigned i) {
      if (!inst->operand(i)->type()->isInt())
        error("operand " + std::to_string(i) + " of " + printInstruction(inst) + " not an int");
    };
    Opcode op = inst->op();
    if (isBinaryOp(op) || isCompareOp(op)) {
      if (inst->numOperands() != 2) error("binary op arity");
      else if (inst->operand(0)->type() != inst->operand(1)->type())
        error("operand type mismatch in " + printInstruction(inst));
    } else if (op == Opcode::Load) {
      if (inst->numOperands() != 1 || !inst->operand(0)->type()->isPtr())
        error("load needs a pointer operand: " + printInstruction(inst));
      else if (inst->type()->bits() != inst->operand(0)->type()->pointeeBits())
        error("load width mismatch: " + printInstruction(inst));
    } else if (op == Opcode::Store) {
      if (inst->numOperands() != 2 || !inst->operand(1)->type()->isPtr())
        error("store needs (value, pointer): " + printInstruction(inst));
      else if (!inst->operand(0)->type()->isInt() ||
               inst->operand(0)->type()->bits() != inst->operand(1)->type()->pointeeBits())
        error("store width mismatch: " + printInstruction(inst));
    } else if (op == Opcode::Gep) {
      if (inst->numOperands() != 2 || !inst->operand(0)->type()->isPtr())
        error("gep needs (pointer, index): " + printInstruction(inst));
      else intOp(1);
    } else if (op == Opcode::CondBr) {
      if (inst->operand(0)->type()->isInt() == false || inst->operand(0)->type()->bits() != 1)
        error("condbr condition must be i1: " + printInstruction(inst));
    } else if (op == Opcode::Ret) {
      bool wantsValue = !f_.retType()->isVoid();
      if (wantsValue != (inst->numOperands() == 1))
        error("ret arity does not match function return type in @" + f_.name());
      else if (wantsValue && inst->operand(0)->type() != f_.retType())
        error("ret value type mismatch in @" + f_.name());
    } else if (op == Opcode::Call) {
      Function* callee = inst->callee();
      if (!callee) {
        error("call without callee");
      } else if (inst->numOperands() != callee->numArgs()) {
        error("call arity mismatch to @" + callee->name());
      } else {
        for (unsigned i = 0; i < inst->numOperands(); ++i)
          if (inst->operand(i)->type() != callee->arg(i)->type())
            error("call argument " + std::to_string(i) + " type mismatch to @" + callee->name());
      }
    } else if (isCastOp(op)) {
      if (inst->numOperands() != 1 || !inst->operand(0)->type()->isInt() || !inst->type()->isInt())
        error("cast wants int operand and result: " + printInstruction(inst));
      else {
        unsigned from = inst->operand(0)->type()->bits();
        unsigned to = inst->type()->bits();
        if ((op == Opcode::Trunc && to >= from) || (op != Opcode::Trunc && to <= from))
          error("cast direction invalid: " + printInstruction(inst));
      }
    } else if (op == Opcode::PtrToInt) {
      if (inst->numOperands() != 1 || !inst->operand(0)->type()->isPtr() ||
          !inst->type()->isInt() || inst->type()->bits() != 32)
        error("ptrtoint wants (pointer) -> i32: " + printInstruction(inst));
    } else if (op == Opcode::IntToPtr) {
      if (inst->numOperands() != 1 || !inst->operand(0)->type()->isInt() ||
          inst->operand(0)->type()->bits() != 32 || !inst->type()->isPtr())
        error("inttoptr wants (i32) -> pointer: " + printInstruction(inst));
    } else if (op == Opcode::Select) {
      if (inst->numOperands() != 3) error("select arity");
      else if (inst->operand(1)->type() != inst->operand(2)->type())
        error("select arm type mismatch: " + printInstruction(inst));
    }
  }

  void checkDominance() {
    s_.dom.build(s_.blocks);
    const Dominance& dom = s_.dom;
    s_.savedInstIds.clear();
    unsigned pos = 0;
    for (BasicBlock* bb : s_.blocks)
      for (auto& inst : *bb) {
        s_.savedInstIds.push_back(inst->id());
        inst->setId(pos++);
      }
    s_.badUses.clear();
    for (BasicBlock* bb : s_.blocks) {
      if (!dom.reachable(bb)) continue;
      for (auto& inst : *bb) {
        if (inst->isPhi()) continue;  // phi uses checked on edges
        for (Value* op : inst->operands()) {
          auto* def = dyn_cast<Instruction>(op);
          if (!def) continue;
          // Same block: the def must come strictly first, so an instruction
          // using its own result is rejected.
          const bool dominated = def->parent() == bb ? def->id() < inst->id()
                                                     : dom.dominates(def->parent(), bb);
          if (!dominated) s_.badUses.push_back({def, inst});
        }
      }
    }
    pos = 0;
    for (BasicBlock* bb : s_.blocks)
      for (auto& inst : *bb) inst->setId(s_.savedInstIds[pos++]);
    for (const auto& [def, use] : s_.badUses)
      error("use of " + printValueRef(def) + " in " + printInstruction(use) +
            " is not dominated by its definition");
    checkPhis(dom);
  }

  void checkPhis(const Dominance& dom) {
    for (BasicBlock* bb : s_.blocks) {
      if (!dom.reachable(bb)) continue;
      const Span<BasicBlock* const> preds = dom.preds(bb);
      for (auto& instPtr : *bb) {
        Instruction* inst = instPtr;
        if (!inst->isPhi()) break;
        if (inst->numIncoming() != preds.size()) {
          error("phi in %" + bb->name() + " has " + std::to_string(inst->numIncoming()) +
                " entries for " + std::to_string(preds.size()) + " predecessors");
          continue;
        }
        for (unsigned i = 0; i < inst->numIncoming(); ++i) {
          BasicBlock* in = inst->incomingBlock(i);
          if (std::find(preds.begin(), preds.end(), in) == preds.end()) {
            error("phi in %" + bb->name() + " names non-predecessor %" + in->name());
            continue;
          }
          if (auto* def = dyn_cast<Instruction>(inst->incomingValue(i))) {
            // The incoming value must dominate the edge, i.e. the pred block.
            if (dom.reachable(in) && def->parent() != in && !dom.dominates(def->parent(), in))
              error("phi incoming value " + printValueRef(def) + " does not dominate edge from %" +
                    in->name());
          }
          if (inst->incomingValue(i)->type() != inst->type() &&
              !isa<Constant>(inst->incomingValue(i)))
            error("phi incoming type mismatch in %" + bb->name());
        }
      }
    }
  }

  Function& f_;
  DiagEngine& diag_;
  Scratch& s_;
  bool ok_ = true;
};

}  // namespace

bool verifyFunction(Function& f, DiagEngine& diag) {
  Scratch scratch;
  return FunctionVerifier(f, diag, scratch).run();
}

bool verifyModule(Module& m, DiagEngine& diag) {
  Scratch scratch;
  bool ok = true;
  for (auto& f : m.functions()) ok &= FunctionVerifier(*f, diag, scratch).run();
  return ok;
}

std::string verifyToString(Module& m) {
  DiagEngine diag;
  verifyModule(m, diag);
  return diag.str();
}

namespace {

/// -1 = follow the environment, 0/1 = forced. Relaxed atomics suffice: the
/// explorer's workers only ever read a value set before the pool started.
std::atomic<int> gVerifyAfterPasses{-1};

bool envEnablesVerify() {
  static const bool enabled = [] {
    const char* v = std::getenv("TWILL_VERIFY_IR");
    return v && *v && std::strcmp(v, "0") != 0;
  }();
  return enabled;
}

}  // namespace

bool verifyAfterPassesEnabled() {
  const int forced = gVerifyAfterPasses.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  return envEnablesVerify();
}

void setVerifyAfterPasses(int enabled) {
  gVerifyAfterPasses.store(enabled < 0 ? -1 : (enabled ? 1 : 0), std::memory_order_relaxed);
}

void verifyAfterPass(Module& m, const char* passName) {
  if (!verifyAfterPassesEnabled()) return;
  DiagEngine diag;
  if (verifyModule(m, diag)) return;
  std::fprintf(stderr, "TWILL_VERIFY_IR: IR broken after pass '%s':\n%s", passName,
               diag.str().c_str());
  std::abort();
}

void verifyAfterPass(Function& f, const char* passName) {
  if (!verifyAfterPassesEnabled()) return;
  DiagEngine diag;
  if (verifyFunction(f, diag)) return;
  std::fprintf(stderr, "TWILL_VERIFY_IR: IR broken in [%s] after pass '%s':\n%s",
               f.name().c_str(), passName, diag.str().c_str());
  std::abort();
}

}  // namespace twill
