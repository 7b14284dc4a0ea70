// Natural-loop detection via dominator-tree back edges, with loop nesting.
// Used by the PDG weighting (trip-count scaling) and the DSWP loop-matching
// logic (§5.2.1, Fig. 5.3 of the thesis).
//
// Blocks are indexed like DomTree's (`bb->id() - f.entry()->id()`, so the
// same consecutive-id precondition holds), and every lookup compares the
// block pointer: a block created after the build or a block of another
// function is in no loop.
#pragma once

#include <memory>
#include <vector>

#include "src/analysis/domtree.h"

namespace twill {

class LoopInfo;

struct Loop {
  BasicBlock* header = nullptr;
  Loop* parent = nullptr;
  std::vector<Loop*> subloops;       // in LoopInfo::loops() order
  std::vector<BasicBlock*> blocks;   // in block order, header included
  std::vector<BasicBlock*> latches;  // in-loop predecessors of the header
  unsigned depth = 1;                // outermost loop has depth 1
  unsigned index = 0;                // position in LoopInfo::loops()

  bool contains(const BasicBlock* bb) const;
  /// True if `other` (a loop of the same LoopInfo) is this loop or nested in
  /// it: a preorder-interval test on the loop tree.
  bool contains(const Loop* other) const {
    return pre_ <= other->pre_ && other->pre_ < pre_ + treeSize_;
  }

  /// Blocks outside the loop that some in-loop block branches to, in the
  /// order the loop's blocks (in block order) first reach them.
  std::vector<BasicBlock*> exitBlocks() const;
  /// Out-of-loop predecessors of the header (preheader candidates).
  std::vector<BasicBlock*> entryPreds() const;

private:
  friend class LoopInfo;
  const LoopInfo* info_ = nullptr;
  unsigned pre_ = 0, treeSize_ = 1;  // preorder interval in the loop tree
};

class LoopInfo {
public:
  /// `dom` is the forward dominator tree of `f`.
  void build(Function& f, const DomTree& dom);

  /// Innermost loop containing `bb`, or nullptr.
  Loop* loopFor(const BasicBlock* bb) const {
    const unsigned b = bb->id() - base_;
    return b < blocks_.size() && blocks_[b] == bb ? innermost_[b] : nullptr;
  }
  unsigned depth(const BasicBlock* bb) const {
    Loop* l = loopFor(bb);
    return l ? l->depth : 0;
  }
  /// Loops in discovery order: by the first back edge into their header, in
  /// reverse postorder of the back edges' sources.
  const std::vector<std::unique_ptr<Loop>>& loops() const { return loops_; }
  std::vector<Loop*> topLevelLoops() const;

private:
  std::vector<std::unique_ptr<Loop>> loops_;
  unsigned base_ = 0;                // id of the function's first block
  std::vector<BasicBlock*> blocks_;  // block index -> block
  std::vector<Loop*> innermost_;     // block index -> innermost loop
};

inline bool Loop::contains(const BasicBlock* bb) const {
  const Loop* l = info_->loopFor(bb);
  return l && contains(l);
}

}  // namespace twill
