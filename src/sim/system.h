// Cycle-level co-simulation of a Twill system: one Microblaze-like
// processor running the software threads under the hardware round-robin
// scheduler, plus one executor per hardware thread, all sharing the runtime
// fabric and processor memory.
//
// Execution is functionally exact (every engine steps the same IR through
// the shared eval semantics); timing is charged per the thesis's model:
//  * software instructions cost their Microblaze cycles (src/model),
//  * hardware blocks cost their HLS FSM state count (src/hls) with
//    memory/queue handshakes charged dynamically against the buses,
//  * runtime primitive operations cost the Ch. 4 handshake cycles plus bus
//    contention (5 cycles from the processor side, §4.5),
//  * the hardware scheduler interrupts the processor and a context switch
//    costs a single switch (§4.4) when more than one SW thread is runnable.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/dswp/extract.h"
#include "src/hls/schedule.h"
#include "src/rt/fabric.h"
#include "src/support/memory.h"

namespace twill {

class TraceRecorder;

struct SimConfig {
  unsigned queueCapacity = 8;
  unsigned queueLatency = RuntimeTiming::kQueueOp;  // 2-cycle minimum (§4.3)
  unsigned schedQuantum = 2000;  // scheduler period in cycles (§4.4)
  /// Microblaze count (§4.5 supports "a variable number of Microblaze
  /// processors"; the thesis evaluates with one). Software threads are
  /// distributed round-robin; the main master stays on processor 0.
  unsigned numProcessors = 1;
  /// Cycle limit: a flow succeeds only if its cycle count
  /// (SimOutcome::cycles) is at most this; beyond it the flow fails with
  /// "cycle limit exceeded".
  uint64_t maxCycles = 1ull << 40;
  uint64_t deadlockWindow = 4u << 20;  // no-progress cycles before aborting
  /// Simulated-memory ceiling. A module whose globals/stack do not fit is a
  /// resource breach (SimOutcome::resourceBreach), not an abort.
  uint32_t memoryBytes = Memory::kDefaultSize;
  /// Wall-clock budget for one simulation, in milliseconds (0 = unlimited).
  /// Checked coarsely (every few million cycles), so a breach is detected
  /// within one check interval, not on the exact millisecond.
  double wallBudgetMs = 0;
  /// Optional trace sink (null = tracing off; hooks reduce to one pointer
  /// check). Every sim event is timestamped in **simulated cycles**, never
  /// wall time, so a captured sim trace is a pure function of
  /// (module, config) — byte-identical across runs and worker counts.
  TraceRecorder* trace = nullptr;
};

struct SimOutcome {
  bool ok = false;
  /// True when the failure is a resource breach (layout does not fit in
  /// `SimConfig::memoryBytes`, or the wall-clock budget expired) rather than
  /// a program trap / cycle-limit / deadlock failure.
  bool resourceBreach = false;
  std::string message;
  uint32_t result = 0;
  uint64_t cycles = 0;
  // Activity counters for the power model.
  uint64_t busMessages = 0;
  uint64_t memBusMessages = 0;
  uint64_t retiredSW = 0;
  uint64_t retiredHW = 0;
  uint64_t contextSwitches = 0;
  uint64_t queueOps = 0;
  /// Busy (non-idle) cycles per domain.
  uint64_t cpuBusy = 0;
  uint64_t hwBusy = 0;
};

class DecodedProgram;

/// Pre-decoded module shared across repeated simulations (parameter sweeps
/// re-simulate the same extracted module dozens of times; decoding it once
/// per sweep point is pure waste). The layout is deterministic for a fixed
/// module, so every run sees identical addresses. Constructing one decodes
/// nothing: each run lays the module out in its own memory, so the run's
/// memory ceiling decides whether it fits, and functions decode on first
/// use after that.
struct SimProgram {
  SimProgram(Module& m, const ScheduleMap& schedules);
  ~SimProgram();
  Layout layout;
  std::unique_ptr<DecodedProgram> prog;
};

/// Runs the full Twill system for an extracted module. `shared` (optional)
/// reuses a pre-decoded program across runs.
SimOutcome simulateTwill(Module& m, const DswpResult& dswp, const SimConfig& cfg,
                         const ScheduleMap& schedules, SimProgram* shared = nullptr);

/// Pure-software baseline: the original (un-extracted) module on the
/// Microblaze model alone.
SimOutcome simulatePureSW(Module& m, const SimConfig& cfg = {});

/// Pure-hardware baseline ("LegUp flow"): the whole original module as one
/// hardware FSM with its own block memories (no runtime fabric).
SimOutcome simulatePureHW(Module& m, const ScheduleMap& schedules, const SimConfig& cfg = {});

}  // namespace twill
