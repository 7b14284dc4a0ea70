#include "src/analysis/domtree.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "src/analysis/cfg.h"

namespace twill {

std::vector<BasicBlock*> DomTree::preds(BasicBlock* bb) const {
  return post_ ? bb->successors() : bb->predecessors();
}

std::vector<BasicBlock*> DomTree::succs(BasicBlock* bb) const {
  return post_ ? bb->predecessors() : bb->successors();
}

void DomTree::build(Function& f, bool postDom) {
  post_ = postDom;
  fn_ = &f;
  order_.clear();
  number_.clear();
  idomIdx_.clear();
  frontiers_.clear();
  frontiersBuilt_ = false;

  // Direction-RPO: for the forward tree this is plain RPO from entry; for
  // the postdom tree it is RPO of the reverse CFG from the exit blocks.
  if (!post_) {
    order_ = reversePostOrder(f);
  } else {
    std::vector<BasicBlock*> postOrderRev;
    std::unordered_set<BasicBlock*> seen;
    // Predecessor lists live in the stack frame — materializing them once
    // per visit step instead of once per frame dominated this walk.
    struct Frame {
      BasicBlock* bb;
      std::vector<BasicBlock*> preds;
      size_t i = 0;
    };
    std::vector<Frame> stack;
    for (BasicBlock* e : exitBlocks(f)) {
      if (!seen.insert(e).second) continue;
      stack.push_back({e, e->predecessors(), 0});
      while (!stack.empty()) {
        Frame& fr = stack.back();
        if (fr.i < fr.preds.size()) {
          BasicBlock* s = fr.preds[fr.i++];
          if (seen.insert(s).second) stack.push_back({s, s->predecessors(), 0});
        } else {
          postOrderRev.push_back(fr.bb);
          stack.pop_back();
        }
      }
    }
    order_.assign(postOrderRev.rbegin(), postOrderRev.rend());
  }
  for (size_t i = 0; i < order_.size(); ++i) number_[order_[i]] = static_cast<int>(i);

  if (order_.empty()) return;

  // Roots: entry (forward) / every exit block (postdom; idom = virtual root).
  idomIdx_.assign(order_.size(), kUnsetIdom);
  std::vector<uint8_t> isRoot(order_.size(), 0);
  if (!post_) {
    int e = number_.at(f.entry());
    isRoot[e] = 1;
    idomIdx_[e] = -1;
  } else {
    for (BasicBlock* e : exitBlocks(f)) {
      auto it = number_.find(e);
      if (it == number_.end()) continue;
      isRoot[it->second] = 1;
      idomIdx_[it->second] = -1;
    }
  }

  // Direction-predecessors as order indices, resolved once: the fixpoint
  // below revisits them every round, and hashing a pointer per edge per
  // round was the dominant cost of building the tree.
  std::vector<std::vector<int>> predIdx(order_.size());
  for (size_t i = 0; i < order_.size(); ++i) {
    for (BasicBlock* p : preds(order_[i])) {
      auto it = number_.find(p);
      if (it != number_.end()) predIdx[i].push_back(it->second);
    }
  }

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < order_.size(); ++i) {
      if (isRoot[i]) continue;
      int newIdom = kUnsetIdom;
      bool found = false;  // at least one processed predecessor contributed
      for (int p : predIdx[i]) {
        if (idomIdx_[p] == kUnsetIdom && !isRoot[p]) continue;  // not processed yet
        if (!found) {
          newIdom = p;
          found = true;
        } else if (newIdom != -1) {
          // In the postdominator direction two ancestors can meet only at
          // the virtual root; `intersectIdx` then yields -1, which is a
          // valid idom (the virtual root).
          newIdom = intersectIdx(p, newIdom);
        }
      }
      if (!found) continue;
      if (idomIdx_[i] != newIdom) {
        idomIdx_[i] = newIdom;
        changed = true;
      }
    }
  }
}

int DomTree::intersectIdx(int a, int b) const {
  // Walk up the tree by order number until the fingers meet; -1 is the
  // virtual root (postdom) or entry's idom (forward) and acts as bottom.
  while (a != b) {
    if (a < 0 || b < 0) return -1;
    if (a > b)
      a = idomIdx_[a];
    else
      b = idomIdx_[b];
  }
  return a;
}

BasicBlock* DomTree::idom(BasicBlock* bb) const {
  auto it = number_.find(bb);
  if (it == number_.end()) return nullptr;
  int idx = idomIdx_[it->second];
  return idx < 0 ? nullptr : order_[idx];
}

bool DomTree::dominates(BasicBlock* a, BasicBlock* b) const {
  auto ia = number_.find(a);
  auto ib = number_.find(b);
  if (ia == number_.end() || ib == number_.end()) return false;
  int x = ib->second;
  while (x >= 0) {
    if (x == ia->second) return true;
    x = idomIdx_[x];
  }
  return false;
}

void DomTree::buildFrontiers() {
  frontiersBuilt_ = true;
  for (BasicBlock* bb : order_) frontiers_[bb];  // materialize empty sets
  for (size_t i = 0; i < order_.size(); ++i) {
    BasicBlock* bb = order_[i];
    auto ps = preds(bb);
    if (ps.size() < 2) continue;
    const int stop = idomIdx_[i];
    for (BasicBlock* p : ps) {
      auto it = number_.find(p);
      if (it == number_.end()) continue;
      int runner = it->second;
      while (runner >= 0 && runner != stop) {
        auto& fr = frontiers_[order_[runner]];
        if (std::find(fr.begin(), fr.end(), bb) == fr.end()) fr.push_back(bb);
        runner = idomIdx_[runner];
      }
    }
  }
}

const std::vector<BasicBlock*>& DomTree::frontier(BasicBlock* bb) {
  if (!frontiersBuilt_) buildFrontiers();
  static const std::vector<BasicBlock*> kEmpty;
  auto it = frontiers_.find(bb);
  return it == frontiers_.end() ? kEmpty : it->second;
}

}  // namespace twill
