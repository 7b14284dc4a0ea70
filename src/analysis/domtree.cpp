#include "src/analysis/domtree.h"

#include <algorithm>
#include <cassert>

#include "src/analysis/cfg.h"

namespace twill {
namespace {

[[maybe_unused]] bool consecutiveIds(const Function& f) {
  unsigned id = f.entry()->id();
  for (const BasicBlock* bb : f.blocks())
    if (bb->id() != id++) return false;
  return true;
}

}  // namespace

std::vector<BasicBlock*> DomTree::succs(BasicBlock* bb) const {
  return post_ ? bb->predecessors() : bb->successors();
}

void DomTree::build(Function& f, bool postDom) {
  post_ = postDom;
  order_.clear();
  frontiers_.clear();
  frontiersBuilt_ = false;
  const size_t n = f.numBlocks();
  orderOf_.assign(n, -1);
  if (n == 0) return;
  assert(consecutiveIds(f) && "DomTree::build needs consecutive block ids in block order");
  base_ = f.entry()->id();

  // Direction-RPO: for the forward tree this is plain RPO from entry; for
  // the postdom tree it is RPO of the reverse CFG from the exit blocks (one
  // DFS from the virtual root, visiting the exits in block order).
  // Successor lists live in the stack frame — materializing them once per
  // visit step instead of once per frame dominated this walk.
  constexpr int kSeen = -2;
  struct Frame {
    BasicBlock* bb;
    std::vector<BasicBlock*> succs;
    size_t i = 0;
  };
  std::vector<Frame> stack;
  const std::vector<BasicBlock*> roots =
      post_ ? exitBlocks(f) : std::vector<BasicBlock*>{f.entry()};
  for (BasicBlock* root : roots) {
    if (orderOf_[root->id() - base_] == kSeen) continue;
    orderOf_[root->id() - base_] = kSeen;
    stack.push_back({root, succs(root), 0});
    while (!stack.empty()) {
      Frame& fr = stack.back();
      if (fr.i < fr.succs.size()) {
        BasicBlock* s = fr.succs[fr.i++];
        int& mark = orderOf_[s->id() - base_];
        if (mark == kSeen) continue;
        mark = kSeen;
        stack.push_back({s, succs(s), 0});
      } else {
        order_.push_back(fr.bb);
        stack.pop_back();
      }
    }
  }
  std::reverse(order_.begin(), order_.end());
  const size_t r = order_.size();
  for (size_t i = 0; i < r; ++i) orderOf_[order_[i]->id() - base_] = static_cast<int>(i);

  // Direction-predecessors as order indices, resolved once: the fixpoint
  // below revisits them every round.
  predBegin_.assign(r + 1, 0);
  predList_.clear();
  for (size_t i = 0; i < r; ++i) {
    predBegin_[i] = static_cast<unsigned>(predList_.size());
    for (BasicBlock* p : post_ ? order_[i]->successors() : order_[i]->predecessors())
      if (const int j = index(p); j >= 0) predList_.push_back(static_cast<unsigned>(j));
  }
  predBegin_[r] = static_cast<unsigned>(predList_.size());

  // Roots: entry (forward) / every exit block (postdom; idom = virtual root).
  // The forward root is order_[0]; a postdom root has no successors, so no
  // predecessor in its direction, and the sweep below leaves it alone.
  constexpr int kUnsetIdom = -2;  // not processed yet
  idomIdx_.assign(r, kUnsetIdom);
  for (BasicBlock* root : roots) idomIdx_[index(root)] = -1;

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 1; i < r; ++i) {
      int newIdom = kUnsetIdom;
      bool found = false;  // at least one processed predecessor contributed
      for (unsigned p : preds(static_cast<unsigned>(i))) {
        if (idomIdx_[p] == kUnsetIdom) continue;  // not processed yet
        if (!found) {
          newIdom = static_cast<int>(p);
          found = true;
        } else if (newIdom != -1) {
          // In the postdominator direction two ancestors can meet only at
          // the virtual root; `intersectIdx` then yields -1, which is a
          // valid idom (the virtual root).
          newIdom = intersectIdx(static_cast<int>(p), newIdom);
        }
      }
      if (!found) continue;
      if (idomIdx_[i] != newIdom) {
        idomIdx_[i] = newIdom;
        changed = true;
      }
    }
  }

  // Children in order(), then preorder intervals: an idom precedes its
  // children in order(), so subtree sizes accumulate in reverse and each
  // child takes the next free run inside its parent's interval (each root
  // the next free run overall).
  childBegin_.assign(r + 1, 0);
  for (size_t i = 0; i < r; ++i)
    if (idomIdx_[i] >= 0) ++childBegin_[idomIdx_[i] + 1];
  for (size_t i = 0; i < r; ++i) childBegin_[i + 1] += childBegin_[i];
  childList_.resize(childBegin_[r]);
  std::vector<unsigned> next(childBegin_.begin(), childBegin_.end() - 1);
  for (size_t i = 0; i < r; ++i)
    if (idomIdx_[i] >= 0) childList_[next[idomIdx_[i]]++] = order_[i];
  size_.assign(r, 1);
  for (size_t i = r; i-- > 0;)
    if (idomIdx_[i] >= 0) size_[idomIdx_[i]] += size_[i];
  pre_.assign(r, 0);
  unsigned nextRoot = 0;
  for (size_t i = 0; i < r; ++i) {
    unsigned& slot = idomIdx_[i] >= 0 ? next[idomIdx_[i]] : nextRoot;
    pre_[i] = slot;
    slot += size_[i];
    next[i] = pre_[i] + 1;
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

BasicBlock* DomTree::idom(const BasicBlock* bb) const {
  const int i = index(bb);
  if (i < 0) return nullptr;
  const int d = idomIdx_[i];
  return d < 0 ? nullptr : order_[d];
}

Span<BasicBlock* const> DomTree::children(const BasicBlock* bb) const {
  const int i = index(bb);
  if (i < 0) return {};
  return {childList_.data() + childBegin_[i], childBegin_[i + 1] - childBegin_[i]};
}

void DomTree::buildFrontiers() {
  frontiersBuilt_ = true;
  frontiers_.assign(order_.size(), {});
  for (size_t i = 0; i < order_.size(); ++i) {
    const Span<const unsigned> ps = preds(static_cast<unsigned>(i));
    if (ps.size() < 2) continue;
    for (unsigned p : ps) {
      for (int runner = static_cast<int>(p); runner >= 0 && runner != idomIdx_[i];
           runner = idomIdx_[runner]) {
        auto& fr = frontiers_[runner];
        if (std::find(fr.begin(), fr.end(), order_[i]) == fr.end()) fr.push_back(order_[i]);
      }
    }
  }
}

const std::vector<BasicBlock*>& DomTree::frontier(const BasicBlock* bb) {
  if (!frontiersBuilt_) buildFrontiers();
  static const std::vector<BasicBlock*> kEmpty;
  const int i = index(bb);
  return i < 0 ? kEmpty : frontiers_[i];
}

}  // namespace twill
