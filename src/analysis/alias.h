// Base-object alias analysis (a small "basicaa", which the thesis lists as a
// required input of its PDG pass in §5.2).
//
// Every pointer value is traced through gep/phi/select/int-round-trip chains
// to a set of base objects: a specific GlobalVar, a specific Alloca, a
// pointer Argument, or Unknown. Two accesses may alias iff their base sets
// intersect, where Argument and Unknown conservatively overlap with
// everything that can escape (arguments, globals, escaped allocas).
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/ir/function.h"

namespace twill {

class AliasAnalysis {
public:
  explicit AliasAnalysis(Function& f) : fn_(f) { computeEscapes(); }

  struct BaseSet {
    std::unordered_set<const Value*> concrete;  // GlobalVars and Allocas
    bool hasArg = false;     // some pointer argument
    bool hasUnknown = false; // inttoptr of arbitrary data, etc.
    /// Does anything here overlap escapable memory (globals, arguments,
    /// escaped allocas)? Cached when the set is built so the O(pairs)
    /// mayAlias sweep in PDG construction never re-walks `concrete`.
    bool escapable = false;
  };

  /// May the memory accessed through `p1` overlap the memory accessed
  /// through `p2`? (Both are pointer-typed values.)
  bool mayAlias(Value* p1, Value* p2);

  /// Pairwise check over base sets already resolved via basesOf() — lets a
  /// caller comparing m ops pairwise pay m cache lookups instead of m^2.
  static bool mayAlias(const BaseSet& a, const BaseSet& b);

  /// The (cached) base-object set `p` can point into. The reference stays
  /// valid for the analysis' lifetime.
  const BaseSet& basesOf(Value* p);

private:
  void collect(Value* p, BaseSet& out, std::unordered_set<const Value*>& visiting);
  void computeEscapes();

  Function& fn_;
  std::unordered_map<const Value*, BaseSet> cache_;
  std::unordered_set<const Instruction*> escaped_;
};

}  // namespace twill
