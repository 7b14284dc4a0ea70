// End-to-end driver: the three flows the thesis evaluates, from one C
// source string.
//
//  * Pure SW   — compile, optimize, run on the Microblaze model.
//  * Pure HW   — compile, optimize, LegUp-style HLS of the whole program,
//                run as a single hardware FSM with its own block memories.
//  * Twill     — compile, optimize, DSWP-extract, HW/SW split, HLS the
//                hardware threads, co-simulate on the runtime fabric.
//
// Produces the measurements every table/figure in Ch. 6 needs: cycles,
// LUT/DSP/BRAM areas (LegUp vs Twill HW threads vs Twill total vs Twill +
// Microblaze, as in Table 6.2), queue/semaphore/HW-thread counts (Table
// 6.1) and normalized power (Fig. 6.1).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/dswp/extract.h"
#include "src/model/power.h"
#include "src/sim/system.h"
#include "src/support/diag.h"
#include "src/support/limits.h"
#include "src/transforms/passes.h"

namespace twill {

struct DriverOptions {
  unsigned inlineThreshold = 100;
  DswpConfig dswp;
  SimConfig sim;
  HlsConstraints hls;
  /// Resource ceilings for untrusted input (see src/support/limits.h). The
  /// defaults are generous enough that no CHStone kernel touches them. The
  /// driver derives the simulators' memory ceiling and wall budget from
  /// here (`limits.memLimitBytes` / `limits.stageTimeoutMs` override
  /// `sim.memoryBytes` / `sim.wallBudgetMs`), so callers set limits in one
  /// place and every stage observes them.
  ResourceLimits limits;
  bool runPureSW = true;
  bool runPureHW = true;
  bool runTwill = true;
  /// Keep the extracted module, DSWP result and schedules on the report so
  /// callers (bench sweeps) can re-simulate without re-compiling.
  bool keepTwillArtifacts = false;
  /// Run the static partition verifier (src/verify) over the extracted
  /// module before spending any cycles simulating it. Failures are
  /// classified FailureKind::Verify, like compile failures a property of the
  /// source + compile knobs, never of the sim knobs.
  bool verifyPartition = true;
  /// Stop after extraction + partition verification: no scheduling, no
  /// simulation, no pure flows (twillc --verify-only).
  bool verifyOnly = false;
  /// Debug hook: zero every semaphore's initial count after extraction,
  /// re-introducing the historical unseeded-initial-count bug shape that
  /// seedSemaphores() fixed, so the verification failure path can be
  /// exercised end to end from the CLI and tests.
  bool unseedSemaphores = false;
};

/// Coarse classification of a failed run. Pinned to the twillc/twill-explore
/// exit codes so twilld and CI can dispatch on them: success exits 0,
/// Compile exits 1, Verify (IR or partition protocol) exits 3, Sim exits 4,
/// Resource (a ResourceLimits ceiling was breached — token/AST/IR caps,
/// memory ceiling, step or wall-clock budget) exits 5 (2 is reserved for
/// CLI usage errors).
enum class FailureKind : uint8_t { None, Compile, Verify, Sim, Resource };

/// Stable lower-case name ("compile", "verify", "sim", "resource") for
/// reports.
const char* failureKindName(FailureKind k);

/// The CLI exit code for a run that ended in `k`: 0, 1, 3, 4 or 5 as listed
/// above. A more severe failure has a lower nonzero code.
int exitCodeFor(FailureKind k);

/// The compiled products of the Twill flow, retained on request.
struct TwillArtifacts {
  std::unique_ptr<Module> module;  // extracted module (dswp points into it)
  DswpResult dswp;
  ScheduleMap schedules;
};

struct FlowAreas {
  AreaEstimate legup;            // pure-HW translation of the whole program
  AreaEstimate twillHwThreads;   // LUTs of the LegUp-translated HW threads only
  AreaEstimate twillTotal;       // + runtime (queues/semaphores/buses/ifaces)
  AreaEstimate twillPlusMicroblaze;
};

/// Wall clock per compile-pipeline stage for one report (ms). parse/lower
/// come from the frontend, passes is runDefaultPipeline, ir_verify is both
/// verifyModule calls (after the passes and after extraction), pdg is the
/// PDG construction inside runDswp, dswp is the rest of extraction, verify
/// is verifyPartition, schedule is both scheduleModule calls — the eight
/// are disjoint, so they sum to the report's compile-side cost (simulation
/// excluded).
struct StageTimes {
  double parseMs = 0;
  double lowerMs = 0;
  double passesMs = 0;
  double irVerifyMs = 0;
  double pdgMs = 0;
  double dswpMs = 0;
  double verifyMs = 0;
  double scheduleMs = 0;
};

struct BenchmarkReport {
  std::string name;
  bool ok = false;
  std::string error;
  /// Set by acceptTwillOutcome when the failure came from the Twill co-sim
  /// (and so depends on the sim knobs), as opposed to compile/verification/
  /// pure-flow failures, which depend only on the source and compile knobs.
  /// The explorer uses this to decide whether a failed configuration says
  /// anything about its compile-group neighbours.
  bool twillSimFailure = false;
  /// What class of step failed (None while ok); see the enum for the exit
  /// code contract.
  FailureKind failureKind = FailureKind::None;
  /// Rendered partition-verifier diagnostics ("error: ...", "note: ..."),
  /// filled only when verification fails so passing reports are unchanged.
  std::vector<std::string> verifyDiagnostics;

  uint32_t expected = 0;  // golden interpreter result
  SimOutcome sw;
  SimOutcome hw;
  SimOutcome twill;
  // Which flows actually ran (mirrors DriverOptions.run*): distinguishes a
  // skipped flow from a failed one in machine-readable output.
  bool ranSW = false;
  bool ranHW = false;
  bool ranTwill = false;

  /// Set when DriverOptions::keepTwillArtifacts was requested and the Twill
  /// flow succeeded. shared_ptr keeps the report copyable.
  std::shared_ptr<TwillArtifacts> twillArtifacts;

  // Table 6.1 quantities.
  unsigned queues = 0;
  unsigned semaphores = 0;
  unsigned hwThreads = 0;
  unsigned swThreads = 0;

  FlowAreas areas;

  // Fig. 6.1 quantities (normalized to pure SW).
  double powerSW = 1.0;
  double powerHW = 0.0;
  double powerTwill = 0.0;

  StageTimes stages;

  // Convenience speedups (Fig. 6.2).
  double speedupHWvsSW() const {
    return hw.cycles ? static_cast<double>(sw.cycles) / static_cast<double>(hw.cycles) : 0;
  }
  double speedupTwillvsSW() const {
    return twill.cycles ? static_cast<double>(sw.cycles) / static_cast<double>(twill.cycles) : 0;
  }
  double speedupTwillvsHW() const {
    return twill.cycles ? static_cast<double>(hw.cycles) / static_cast<double>(twill.cycles) : 0;
  }
};

/// Runs the requested flows over one benchmark source. Any compile or
/// simulation failure is reported in `error` with ok=false.
BenchmarkReport runBenchmark(const std::string& name, const std::string& source,
                             const DriverOptions& opts = {});

/// Re-simulates kept Twill artifacts under another SimConfig: the reuse
/// path of the explorer's compile groups and of twilld's artifact cache.
/// Returns `anchor` with the Twill outcome and power replaced; everything
/// else (module, schedules, DSWP structure, areas, pure-flow outcomes)
/// reads no sim knob. `art` is passed explicitly because a caller may have
/// moved it off the anchor; `prog` is its shared decode. The simulator
/// observes `limits` the way runBenchmark's flows do.
BenchmarkReport resimulateTwill(const BenchmarkReport& anchor, const TwillArtifacts& art,
                                SimProgram& prog, const SimConfig& sim,
                                const ResourceLimits& limits);

/// Recomputes the Fig. 6.1 power fields (powerSW/HW/Twill) from the flow
/// outcomes, areas and thread counts already on the report. runBenchmark
/// and resimulateTwill call this once all three flows ran (the outcomes
/// change, the formula does not).
void computePower(BenchmarkReport& rep);

/// Validates rep.twill against the golden checksum: on a failed simulation
/// or a result mismatch, sets ok=false with the canonical error string and
/// returns false. Shared by runBenchmark and resimulateTwill so both
/// classify a failing configuration identically.
bool acceptTwillOutcome(BenchmarkReport& rep);

class JsonWriter;

/// Version of the report JSON document (`schema_version`, the first field
/// of every report emitReport writes) and of the CompileRequest document
/// the daemon and `twillc --request` accept (src/driver/request.h). The two
/// form one v1 API: a client that writes requests and reads reports checks
/// one number.
inline constexpr int kReportSchemaVersion = 1;

/// Writes the report as one JSON object into an open writer: golden result,
/// per-flow cycles/activity, DSWP structure counts, areas, normalized power
/// and speedups. Lets the bench harness embed reports inside its own
/// document.
void emitReport(JsonWriter& w, const BenchmarkReport& rep);

/// Serializes a report as a standalone machine-readable JSON document.
/// Shared by `twillc --json` and the bench harness.
std::string reportToJson(const BenchmarkReport& rep);

}  // namespace twill
