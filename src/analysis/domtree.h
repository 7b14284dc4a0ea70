// Dominator and postdominator trees (Cooper–Harvey–Kennedy iterative
// algorithm), plus dominance frontiers. The postdominator tree uses a virtual
// root above all exit blocks, represented by nullptr.
#pragma once

#include <unordered_map>
#include <vector>

#include "src/ir/function.h"

namespace twill {

class DomTree {
public:
  /// Builds the (post)dominator tree. For `postDom`, edges are reversed and
  /// all `ret` blocks become children of a virtual root (nullptr).
  void build(Function& f, bool postDom);

  /// Immediate dominator; nullptr for the root (entry block, or the virtual
  /// postdom root) and for blocks unreachable in the traversal direction.
  BasicBlock* idom(BasicBlock* bb) const;

  /// True if `a` dominates `b` (reflexive). Unreachable blocks dominate
  /// nothing and are dominated by nothing.
  bool dominates(BasicBlock* a, BasicBlock* b) const;

  bool isReachable(BasicBlock* bb) const { return number_.count(bb) != 0; }

  /// Blocks in the traversal order used to build the tree (RPO of the
  /// direction), handy for iteration.
  const std::vector<BasicBlock*>& order() const { return order_; }

  /// Dominance frontier of `bb` (computed lazily on first request).
  const std::vector<BasicBlock*>& frontier(BasicBlock* bb);

private:
  std::vector<BasicBlock*> preds(BasicBlock* bb) const;
  std::vector<BasicBlock*> succs(BasicBlock* bb) const;
  /// Intersect over order indices; -1 is the virtual root / bottom. The
  /// whole tree is stored as order indices so the fixpoint, dominance
  /// queries and frontier walks run on flat arrays instead of hashing a
  /// pointer per hop.
  int intersectIdx(int a, int b) const;

  bool post_ = false;
  Function* fn_ = nullptr;
  std::vector<BasicBlock*> order_;               // RPO in direction
  std::unordered_map<BasicBlock*, int> number_;  // block -> order index
  // order index -> idom order index; -1 = root (nullptr idom), kUnsetIdom =
  // never processed (unreachable corner cases).
  static constexpr int kUnsetIdom = -2;
  std::vector<int> idomIdx_;
  std::unordered_map<BasicBlock*, std::vector<BasicBlock*>> frontiers_;
  bool frontiersBuilt_ = false;
  void buildFrontiers();
};

}  // namespace twill
