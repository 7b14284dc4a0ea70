// Differential execution property: one compiled module, every execution
// tier, identical observable behaviour.
//
// Generalizes exec_test's hand-built equivalence checks: compile a source
// program once, then run `main` on the tree-walking reference
// (RefExecState), the pre-decoded per-inst engine (ExecState::step) and the
// superblock trace runner — the latter both whole-trace and with a
// 3-step budget forcing a stop/resume at every op boundary, which exercises
// the kBudget write-back paths the schedulers rely on. All four runs must
// agree on finished-vs-trapped, the result, the retired-op count, and the
// trap message. The superblock runner has one dispatcher (direct-threaded
// computed goto), so every build runs this property against all of it.
#pragma once

#include <cstdint>
#include <string>

namespace twill {

struct DifferentialResult {
  bool compiled = false;  // source compiled + passed the default pipeline
  bool agree = false;     // every engine produced identical observables
  bool finished = false;  // the engines agree and main returned (no trap)
  std::string detail;     // compile diagnostics, first divergence or shared trap
};

/// Compiles `source` (default pipeline, default resource limits) and checks
/// the cross-engine property. `stepBudget` bounds every engine run; a
/// program still running after that many retired ops counts as a
/// disagreement (generated programs are terminating by construction).
DifferentialResult runDifferential(const std::string& source, uint64_t stepBudget = 1ull << 24);

}  // namespace twill
