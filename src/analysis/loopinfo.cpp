#include "src/analysis/loopinfo.h"

#include <algorithm>

namespace twill {

std::vector<BasicBlock*> Loop::exitBlocks() const {
  std::vector<BasicBlock*> out;
  for (BasicBlock* bb : blocks)
    for (BasicBlock* s : bb->successors())
      if (!contains(s) && std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  return out;
}

std::vector<BasicBlock*> Loop::entryPreds() const {
  std::vector<BasicBlock*> out;
  for (BasicBlock* p : header->predecessors())
    if (!contains(p)) out.push_back(p);
  return out;
}

void LoopInfo::build(Function& f, const DomTree& dom) {
  loops_.clear();
  blocks_.clear();
  for (BasicBlock* bb : f.blocks()) blocks_.push_back(bb);
  base_ = blocks_.empty() ? 0 : blocks_[0]->id();
  innermost_.assign(blocks_.size(), nullptr);

  // Find back edges (tail -> header where header dominates tail), grouping
  // multiple back edges to the same header into one loop.
  std::vector<Loop*> headed(blocks_.size(), nullptr);  // header index -> loop
  for (BasicBlock* bb : dom.order()) {
    for (BasicBlock* s : bb->successors()) {
      Loop*& loop = headed[s->id() - base_];
      if (loop || !dom.dominates(s, bb)) continue;
      loops_.emplace_back(new Loop);
      loop = loops_.back().get();
      loop->header = s;
      loop->index = static_cast<unsigned>(loops_.size() - 1);
      loop->info_ = this;
    }
  }

  // Body: the header plus every block that reaches a latch without passing
  // the header, walking predecessors backward.
  std::vector<const Loop*> claimed(blocks_.size(), nullptr);  // last walk to visit
  std::vector<unsigned> body;
  std::vector<BasicBlock*> work;
  for (auto& l : loops_) {
    for (BasicBlock* p : l->header->predecessors())
      if (dom.dominates(l->header, p)) l->latches.push_back(p);
    claimed[l->header->id() - base_] = l.get();
    body.assign(1, l->header->id() - base_);
    work = l->latches;
    while (!work.empty()) {
      BasicBlock* w = work.back();
      work.pop_back();
      const unsigned b = w->id() - base_;
      if (claimed[b] == l.get()) continue;
      claimed[b] = l.get();
      body.push_back(b);
      for (BasicBlock* p : w->predecessors())
        if (dom.isReachable(p)) work.push_back(p);
    }
    std::sort(body.begin(), body.end());
    for (unsigned b : body) l->blocks.push_back(blocks_[b]);
  }

  // Nest loops: parent = smallest strictly-containing loop. Visiting loops
  // from small to large, the first loop to reach a block is its innermost,
  // and a later loop holding the block adopts the outermost loop around it
  // so far.
  std::vector<Loop*> bySize;
  for (auto& l : loops_) bySize.push_back(l.get());
  std::stable_sort(bySize.begin(), bySize.end(),
                   [](Loop* a, Loop* b) { return a->blocks.size() < b->blocks.size(); });
  for (Loop* l : bySize) {
    for (BasicBlock* bb : l->blocks) {
      Loop*& in = innermost_[bb->id() - base_];
      if (!in) {
        in = l;
        continue;
      }
      Loop* top = in;
      while (top->parent) top = top->parent;
      if (top != l) top->parent = l;
    }
  }
  for (auto& l : loops_)
    if (l->parent) l->parent->subloops.push_back(l.get());

  // Preorder intervals of the loop tree: subtree sizes accumulate from small
  // to large (children first), then from large to small each loop takes the
  // next free run inside its parent's interval (each outermost loop the next
  // free run overall).
  for (Loop* l : bySize)
    if (l->parent) l->parent->treeSize_ += l->treeSize_;
  std::vector<unsigned> next(loops_.size());
  unsigned nextRoot = 0;
  for (auto it = bySize.rbegin(); it != bySize.rend(); ++it) {
    Loop* l = *it;
    unsigned& slot = l->parent ? next[l->parent->index] : nextRoot;
    l->pre_ = slot;
    slot += l->treeSize_;
    next[l->index] = l->pre_ + 1;
    l->depth = l->parent ? l->parent->depth + 1 : 1;
  }
}

std::vector<Loop*> LoopInfo::topLevelLoops() const {
  std::vector<Loop*> out;
  for (auto& l : loops_)
    if (!l->parent) out.push_back(l.get());
  return out;
}

}  // namespace twill
