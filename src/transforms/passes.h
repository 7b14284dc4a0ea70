// Transform passes mirroring the thesis's pass pipeline (§5.1–§5.2):
// Clang -O2 equivalents ("mem2reg", "mergereturn", "inline", "simplifycfg",
// "adce"/dce, constant folding/propagation, "loop-simplify") plus Twill's
// custom globals-to-arguments pass. The pipeline's "lowerswitch" step has
// no pass: the frontend (src/frontend/lower.cpp) emits every C `switch` as
// a compare/branch chain, so the IR has no switch instruction.
//
// Every pass returns true if it changed the IR, so pipelines can iterate to
// a fixpoint.
#pragma once

#include "src/ir/function.h"

namespace twill {

/// Promotes non-escaping scalar allocas to SSA registers (pruned SSA via
/// iterated dominance frontiers).
bool mem2reg(Function& f);

/// CFG cleanup: removes unreachable blocks, folds constant branches, merges
/// trivial block chains, removes single-incoming PHIs.
bool simplifyCFG(Function& f);

/// Removes unused side-effect-free instructions.
bool dce(Function& f);

/// Folds constant expressions, algebraic identities, pointer round-trips and
/// loads from constant globals with constant indices.
bool constantFold(Function& f, Module& m);

/// Rewrites functions with multiple `ret`s to a single exit block
/// ("mergereturn"); makes postdominator-based reasoning simpler.
bool mergeReturns(Function& f, Module& m);

/// Canonicalizes loops: every loop gets a preheader and dedicated exits.
bool loopSimplify(Function& f, Module& m);

/// Inlines calls whose callee body is at most `sizeThreshold` instructions
/// (or which have a single call site). Never inlines recursion (which the
/// input language forbids anyway). `maxModuleInstructions` (0 = unlimited)
/// gracefully stops inlining before the module would exceed that many
/// instructions — call DAGs from untrusted source can otherwise blow up
/// exponentially. Returns true if anything was inlined.
bool inlineFunctions(Module& m, unsigned sizeThreshold = 1u << 30,
                     uint64_t maxModuleInstructions = 0);

/// Erases functions that are never called and are not `main`.
bool removeDeadFunctions(Module& m);

/// Twill's custom pass (§5.2 pass 1): rewrites every function except `main`
/// to receive the globals it (transitively) uses as pointer arguments; after
/// this pass only `main` references module globals directly.
bool globalsToArgs(Module& m);

/// The default pipeline in the thesis's order. `inlineThreshold` bounds the
/// inliner (instructions); the thesis inlines aggressively ("inline",
/// "always-inline"), and MIPS/SHA end up fully inlined (§6.1).
/// `maxIrInstructions` (0 = unlimited) is the module-growth resource ceiling
/// forwarded to the inliner.
void runDefaultPipeline(Module& m, unsigned inlineThreshold = 100,
                        uint64_t maxIrInstructions = 0);

/// Cleanup-only pipeline (no inlining, no globals rewrite) over `fns`, the
/// functions a transform created or rewrote; the DSWP extractor runs it on
/// the partition functions it generates. Untouched functions are already at
/// the runDefaultPipeline fixpoint, so sweeping them would change nothing
/// but the time spent.
void runCleanupPipeline(Module& m, Span<Function* const> fns);

}  // namespace twill
