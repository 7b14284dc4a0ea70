#include "src/analysis/pdg.h"

#include <algorithm>
#include <cassert>

namespace twill {

void PDG::addEdge(Instruction* from, Instruction* to, DepKind kind) {
  edges_.push_back({from, to, kind});
  succ_[from->id()].push_back(to->id());
  pred_[to->id()].push_back(from->id());
}

void PDG::build(Function& f) {
  fn_ = &f;
  f.renumber();
  dom_.build(f, /*postDom=*/false);
  pdom_.build(f, /*postDom=*/true);
  loops_.build(f, dom_);

  edges_.clear();
  byId_.assign(f.numValueSlots(), nullptr);
  succ_.assign(f.numValueSlots(), {});
  pred_.assign(f.numValueSlots(), {});
  ctrlDeps_.assign(f.numBlocks(), {});

  for (auto& bb : f.blocks())
    for (auto& inst : *bb) byId_[inst->id()] = inst;

  // --- Data dependences (SSA def-use) --------------------------------------
  for (Instruction* inst : nodes()) {
    for (unsigned i = 0; i < inst->numOperands(); ++i) {
      if (auto* def = dyn_cast<Instruction>(inst->operand(i))) {
        if (def->parent() && def->parent()->parent() == &f) addEdge(def, inst, DepKind::Data);
      }
      // Arguments are definitions at the entry; the extractor treats the
      // master partition as their owner, so no PDG edge is needed.
    }
  }

  buildControlDeps(f);

  AliasAnalysis aa(f);
  buildMemoryDeps(f, aa);
}

void PDG::buildControlDeps(Function& f) {
  // Block B is control-dependent on branch A when A has a successor S such
  // that B postdominates S but B does not postdominate A. Computed via the
  // postdominance frontier formulation over all edges.
  for (auto& bbPtr : f.blocks()) {
    BasicBlock* a = bbPtr;
    Instruction* term = a->terminator();
    if (!term || term->numSuccessors() < 2) continue;
    for (unsigned i = 0; i < term->numSuccessors(); ++i) {
      BasicBlock* s = term->successor(i);
      // Walk the postdominator chain from S up to (but excluding) A's
      // immediate postdominator: every visited block is control-dep on A.
      if (!pdom_.isReachable(s)) continue;
      BasicBlock* stop = pdom_.isReachable(a) ? pdom_.idom(a) : nullptr;
      BasicBlock* runner = s;
      while (runner && runner != stop && runner != a) {
        auto& deps = ctrlDeps_[runner->id()];
        if (std::find(deps.begin(), deps.end(), term) == deps.end()) {
          deps.push_back(term);
          for (auto& inst : *runner) addEdge(term, inst, DepKind::Control);
        }
        runner = pdom_.idom(runner);
      }
    }
  }
  // A loop header's branch controls whether its own body re-executes; when a
  // block is control-dependent on itself (classic for self-loop headers),
  // the walk above stops early. Handle the self-dependence case directly.
  for (auto& bbPtr : f.blocks()) {
    BasicBlock* a = bbPtr;
    Instruction* term = a->terminator();
    if (!term || term->numSuccessors() < 2 || !pdom_.isReachable(a)) continue;
    for (unsigned i = 0; i < term->numSuccessors(); ++i) {
      BasicBlock* s = term->successor(i);
      if (!pdom_.isReachable(s)) continue;
      // a is control-dependent on itself if a postdominates s but a's idom
      // chain from s reaches a before a's own immediate postdominator.
      if (pdom_.dominates(a, s)) {
        auto& deps = ctrlDeps_[a->id()];
        if (std::find(deps.begin(), deps.end(), term) == deps.end()) {
          deps.push_back(term);
          for (auto& inst : *a) addEdge(term, inst, DepKind::Control);
        }
      }
    }
  }
}

void PDG::buildMemoryDeps(Function& f, AliasAnalysis& aa) {
  // Collect memory operations: loads, stores, and calls (which may touch
  // anything unless the callee provably touches nothing).
  struct MemOp {
    Instruction* inst;
    bool reads;
    bool writes;
    Value* ptr;  // nullptr = unknown everything (calls)
    const AliasAnalysis::BaseSet* bases = nullptr;  // resolved once, not per pair
    const Loop* outer = nullptr;  // outermost loop around the op, if any
  };
  std::vector<MemOp> ops;
  for (auto& bb : f.blocks()) {
    for (auto& inst : *bb) {
      switch (inst->op()) {
        case Opcode::Load: ops.push_back({inst, true, false, inst->operand(0)}); break;
        case Opcode::Store: ops.push_back({inst, false, true, inst->operand(1)}); break;
        case Opcode::Call: ops.push_back({inst, true, true, nullptr}); break;
        default: break;
      }
    }
  }
  for (MemOp& op : ops) {
    if (op.ptr) op.bases = &aa.basesOf(op.ptr);
    // Two blocks share a loop exactly when their outermost loops are the
    // same: the loops around a block form one chain up to its outermost.
    for (const Loop* l = loops_.loopFor(op.inst->parent()); l; l = l->parent) op.outer = l;
  }

  // build() renumbered the function before collecting ops, so ids are in
  // program order and same-block precedence is an id comparison.
  auto precedesInBlock = [](Instruction* a, Instruction* b) { return a->id() < b->id(); };

  auto conflict = [&](size_t i, size_t j) {
    const MemOp& a = ops[i];
    const MemOp& b = ops[j];
    if (a.bases && b.bases && !AliasAnalysis::mayAlias(*a.bases, *b.bases)) return;

    BasicBlock* ba = a.inst->parent();
    BasicBlock* bb = b.inst->parent();
    const bool loopTogether = a.outer && a.outer == b.outer;
    if (ba == bb) {
      Instruction* first = precedesInBlock(a.inst, b.inst) ? a.inst : b.inst;
      Instruction* second = first == a.inst ? b.inst : a.inst;
      addEdge(first, second, DepKind::Memory);
      // Loop-carried reverse dependence fuses the pair into one SCC.
      if (loopTogether) addEdge(second, first, DepKind::Memory);
    } else if (!loopTogether && dom_.dominates(ba, bb)) {
      addEdge(a.inst, b.inst, DepKind::Memory);
    } else if (!loopTogether && dom_.dominates(bb, ba)) {
      addEdge(b.inst, a.inst, DepKind::Memory);
    } else {
      // Incomparable or loop-interleaved: order is dynamic; fuse.
      addEdge(a.inst, b.inst, DepKind::Memory);
      addEdge(b.inst, a.inst, DepKind::Memory);
    }
  };

  // Read-read pairs never conflict, so a reader only needs to meet writers.
  // Pairs are visited in the same ascending (i, j) order the full O(m^2)
  // sweep produced — only never-conflicting pairs are skipped — so the edge
  // list (and everything downstream of its order) is unchanged.
  std::vector<size_t> writerIdx;
  for (size_t i = 0; i < ops.size(); ++i)
    if (ops[i].writes) writerIdx.push_back(i);
  size_t wstart = 0;  // first writer index > i, maintained as i ascends
  for (size_t i = 0; i < ops.size(); ++i) {
    while (wstart < writerIdx.size() && writerIdx[wstart] <= i) ++wstart;
    if (ops[i].writes) {
      for (size_t j = i + 1; j < ops.size(); ++j) conflict(i, j);
    } else {
      for (size_t w = wstart; w < writerIdx.size(); ++w) conflict(i, writerIdx[w]);
    }
  }
}

const std::vector<Instruction*>& PDG::controlDepsOf(const BasicBlock* bb) const {
  static const std::vector<Instruction*> kEmpty;
  if (bb->parent() != fn_ || bb->id() >= ctrlDeps_.size()) return kEmpty;
  return ctrlDeps_[bb->id()];
}

// ---------------------------------------------------------------------------
// Tarjan SCC
// ---------------------------------------------------------------------------

std::vector<std::vector<Instruction*>> computeSCCs(const PDG& pdg) {
  const unsigned n = pdg.numNodes();
  std::vector<int> index(n, -1), lowlink(n, 0);
  std::vector<bool> onStack(n, false);
  std::vector<unsigned> stack;
  std::vector<std::vector<Instruction*>> sccs;
  int counter = 0;

  // Iterative Tarjan to avoid deep recursion on long dependence chains.
  struct WorkItem {
    unsigned v;
    size_t childIdx;
  };
  for (unsigned root = 0; root < n; ++root) {
    if (!pdg.node(root) || index[root] != -1) continue;
    std::vector<WorkItem> work{{root, 0}};
    index[root] = lowlink[root] = counter++;
    stack.push_back(root);
    onStack[root] = true;
    while (!work.empty()) {
      WorkItem& w = work.back();
      const auto& ss = pdg.succs(w.v);
      if (w.childIdx < ss.size()) {
        unsigned child = ss[w.childIdx++];
        if (index[child] == -1) {
          index[child] = lowlink[child] = counter++;
          stack.push_back(child);
          onStack[child] = true;
          work.push_back({child, 0});
        } else if (onStack[child]) {
          lowlink[w.v] = std::min(lowlink[w.v], index[child]);
        }
      } else {
        if (lowlink[w.v] == index[w.v]) {
          std::vector<Instruction*> scc;
          for (;;) {
            unsigned x = stack.back();
            stack.pop_back();
            onStack[x] = false;
            scc.push_back(pdg.node(x));
            if (x == w.v) break;
          }
          sccs.push_back(std::move(scc));
        }
        unsigned finished = w.v;
        work.pop_back();
        if (!work.empty())
          lowlink[work.back().v] = std::min(lowlink[work.back().v], lowlink[finished]);
      }
    }
  }
  return sccs;
}

}  // namespace twill
