// Dominator and postdominator trees (Cooper–Harvey–Kennedy iterative
// algorithm), plus dominance frontiers. The postdominator tree uses a virtual
// root above all exit blocks, represented by nullptr.
//
// Every table is an array indexed by block: a block's index is
// `bb->id() - f.entry()->id()`, so build() requires the function's blocks to
// carry consecutive ids in block order (Function::renumber(), or any
// numbering that keeps each function's blocks contiguous and in order) and
// never renumbers. Every lookup also compares the block pointer, so a block
// created after the build (id ~0u) or a block of another function reads as
// unreachable.
#pragma once

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
  BasicBlock* idom(const BasicBlock* bb) const;

  /// True if `a` dominates `b` (reflexive). Unreachable blocks dominate
  /// nothing and are dominated by nothing.
  bool dominates(const BasicBlock* a, const BasicBlock* b) const {
    const int x = index(a), y = index(b);
    return x >= 0 && y >= 0 && pre_[x] <= pre_[y] && pre_[y] < pre_[x] + size_[x];
  }

  bool isReachable(const BasicBlock* bb) const { return index(bb) >= 0; }

  /// Blocks in the traversal order used to build the tree (RPO of the
  /// direction), handy for iteration.
  const std::vector<BasicBlock*>& order() const { return order_; }

  /// Position of `bb` in order(), or -1 when it is unreachable.
  int index(const BasicBlock* bb) const {
    const unsigned b = bb->id() - base_;
    if (b >= orderOf_.size()) return -1;
    const int i = orderOf_[b];
    return i >= 0 && order_[i] == bb ? i : -1;
  }

  /// Reachable predecessors (in the tree's direction) of order()[i], as
  /// positions in order(), in BasicBlock::predecessors() (successors() for
  /// postdom) order.
  Span<const unsigned> preds(unsigned i) const {
    return {predList_.data() + predBegin_[i], predBegin_[i + 1] - predBegin_[i]};
  }

  /// Tree children of `bb`, in order(); empty for unreachable blocks.
  Span<BasicBlock* const> children(const BasicBlock* bb) const;

  /// Dominance frontier of `bb` (computed lazily on first request).
  const std::vector<BasicBlock*>& frontier(const BasicBlock* bb);

private:
  std::vector<BasicBlock*> succs(BasicBlock* bb) const;
  /// Intersect over order indices; -1 is the virtual root / bottom.
  int intersectIdx(int a, int b) const;
  void buildFrontiers();

  bool post_ = false;
  unsigned base_ = 0;                 // id of the function's first block
  std::vector<int> orderOf_;          // block index -> order index, -1 = unreachable
  std::vector<BasicBlock*> order_;    // RPO in direction
  std::vector<unsigned> predBegin_, predList_;  // CSR over order indices
  // order index -> idom order index; -1 = root (nullptr idom).
  std::vector<int> idomIdx_;
  std::vector<unsigned> childBegin_;  // CSR over order indices
  std::vector<BasicBlock*> childList_;
  std::vector<unsigned> pre_, size_;  // dominator-tree preorder intervals
  std::vector<std::vector<BasicBlock*>> frontiers_;  // by order index
  bool frontiersBuilt_ = false;
};

}  // namespace twill
