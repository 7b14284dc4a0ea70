// Program Dependence Graph (§5.2 of the thesis).
//
// Nodes are the instructions of one function; edges are:
//  * Data    — SSA def-use (including PHI incoming values and, virtually,
//              function arguments as definitions at the entry).
//  * Memory  — may-alias load/store ordering, with both directions added
//              when the accesses can interleave (shared loop or incomparable
//              control flow), which fuses them into one SCC exactly as the
//              original DSWP requires.
//  * Control — Ferrante-style control dependence: an instruction depends on
//              the branch that decides whether its block executes.
//
// The extra PHI-constant edges of thesis §5.2.1 are not needed here because
// the DSWP extractor replicates control flow into each partition (see
// DESIGN.md, "Control replication").
//
// Memory pairs are classified straight from the dense dominator tree (two
// comparisons per query) and each op's outermost loop (two ops share a loop
// exactly when their outermost loops are the same), so no per-pair or
// per-block-pair table is kept.
#pragma once

#include <unordered_map>
#include <vector>

#include "src/analysis/alias.h"
#include "src/analysis/domtree.h"
#include "src/analysis/loopinfo.h"

namespace twill {

enum class DepKind : uint8_t { Data, Memory, Control };

struct PDGEdge {
  Instruction* from;  // must execute before/produces for...
  Instruction* to;
  DepKind kind;
};

class PDG {
public:
  /// Builds the PDG. Renumbers the function first, so instruction ids are
  /// dense and block ids meet the dominator tree's and loop info's
  /// consecutive-id precondition.
  void build(Function& f);

  Function* function() const { return fn_; }
  const std::vector<PDGEdge>& edges() const { return edges_; }
  const std::vector<Instruction*>& nodes() const { return nodes_; }

  /// Outgoing / incoming adjacency by dense instruction id.
  const std::vector<unsigned>& succs(unsigned id) const { return succ_[id]; }
  const std::vector<unsigned>& preds(unsigned id) const { return pred_[id]; }
  Instruction* node(unsigned id) const { return byId_[id]; }
  unsigned numNodes() const { return static_cast<unsigned>(byId_.size()); }

  /// Blocks this block is control-dependent on: pairs (branch terminator,
  /// successor index that leads here).
  const std::vector<Instruction*>& controlDepsOf(BasicBlock* bb) const;

  const DomTree& domTree() const { return dom_; }
  const DomTree& postDomTree() const { return pdom_; }
  const LoopInfo& loopInfo() const { return loops_; }

private:
  void addEdge(Instruction* from, Instruction* to, DepKind kind);
  void buildControlDeps(Function& f);
  void buildMemoryDeps(Function& f, AliasAnalysis& aa);

  Function* fn_ = nullptr;
  DomTree dom_;
  DomTree pdom_;
  LoopInfo loops_;
  std::vector<PDGEdge> edges_;
  std::vector<Instruction*> nodes_;
  std::vector<Instruction*> byId_;
  std::vector<std::vector<unsigned>> succ_;
  std::vector<std::vector<unsigned>> pred_;
  std::unordered_map<BasicBlock*, std::vector<Instruction*>> blockCtrlDeps_;
};

/// Tarjan SCC over the PDG. Returns SCCs in reverse topological order of the
/// condensation (callers usually reverse it to get topological order).
std::vector<std::vector<Instruction*>> computeSCCs(const PDG& pdg);

}  // namespace twill
