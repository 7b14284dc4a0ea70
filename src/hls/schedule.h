// LegUp-style high-level synthesis model: dependence- and
// resource-constrained list scheduling of each basic block into FSM states,
// functional-unit binding, and an area estimate.
//
// The thesis uses LegUp (§5.4) to translate hardware partitions to Verilog;
// what its evaluation needs from LegUp is (a) how many cycles a block takes
// (the FSM state count, which captures the ILP LegUp extracts by chaining
// combinational ops and overlapping independent ones) and (b) how many
// LUTs/DSPs/BRAMs the circuit needs. This module computes both. The
// cycle-level executor charges the static state count per block and models
// memory/queue operations dynamically (they depend on bus contention).
//
// Schedules are vectors on the dense block and instruction ids
// Function::renumber assigns, and the per-state and per-function unit
// tallies are arrays by opcode ordinal. Every module is scheduled from
// scratch, once: the driver schedules the baseline module for the pure-HW
// flow and the extracted module for the Twill flow.
#pragma once

#include <unordered_map>
#include <vector>

#include "src/ir/function.h"
#include "src/model/optables.h"

namespace twill {

struct HlsConstraints {
  unsigned maxChainDepth = 4;   // combinational ops chained per state
  unsigned memPortsPerState = 1;
  unsigned queuePortsPerState = 1;  // §4.4: one runtime call initiated/cycle
  unsigned multipliersPerState = 2;
  unsigned dividersPerState = 1;
};

struct BlockSchedule {
  /// Static FSM cycles for this block: one per state, plus fixed multi-cycle
  /// arithmetic latencies. Excludes the dynamic part of memory/queue
  /// operations (bus handshakes), which the executor charges at run time.
  unsigned staticCycles = 1;
  unsigned numStates = 1;
  /// Initiation interval under iterative modulo scheduling (LegUp pipelines
  /// across loop iterations, §3.1.2): the resource-constrained minimum
  /// cycles between consecutive executions of this block in steady state.
  /// The executor charges `pipelinedII` instead of `staticCycles` when the
  /// block re-executes back-to-back (loop steady state).
  unsigned pipelinedII = 1;
};

struct AreaEstimate {
  unsigned luts = 0;
  unsigned dsps = 0;
  unsigned brams = 0;
  AreaEstimate& operator+=(const AreaEstimate& o) {
    luts += o.luts;
    dsps += o.dsps;
    brams += o.brams;
    return *this;
  }
};

struct FunctionSchedule {
  /// One schedule per block, indexed by the block ids scheduleFunction
  /// assigns when it renumbers the function; renumbering the unchanged
  /// function again (as the decoder does) gives every block the same id.
  std::vector<BlockSchedule> blocks;
  /// FSM state of each instruction within its block (diagnostics / tests),
  /// indexed by the instruction ids of the same renumbering (the argument
  /// slots read 0).
  std::vector<unsigned> stateOf;
  unsigned totalStates = 0;
  AreaEstimate area;
};

/// Schedules one function. Renumbers it; otherwise the IR is not modified.
FunctionSchedule scheduleFunction(Function& f, const HlsConstraints& c = {});

/// Map from every function that may execute in hardware to its FSM schedule.
/// Lives here (not in src/sim) because the pre-decoded execution engine
/// folds these per-block cycle counts into its instruction records.
using ScheduleMap = std::unordered_map<const Function*, FunctionSchedule>;

/// Builds schedules for every function in the module.
ScheduleMap scheduleModule(Module& m, const HlsConstraints& c = {});

/// Same as scheduleModule(m, c); `prior` is never read. Kept only for the
/// benchmark harness (perfbench/harness.cpp), which still calls it.
ScheduleMap scheduleModule(Module& m, const HlsConstraints& c, const ScheduleMap& prior);

/// Area of the memory blocks a pure-hardware (LegUp) translation would
/// instantiate for the module's globals (Twill instead keeps data in the
/// processor's memory, §6.2).
unsigned bramBlocksForGlobals(const Module& m);

}  // namespace twill
