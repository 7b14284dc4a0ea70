// Parallel design-space exploration over the Twill pipeline knobs.
//
// Generalizes the thesis's fixed-configuration evaluation (one partition
// count, the Fig. 6.5/6.6 queue sweeps) into a first-class exploration
// layer: enumerate a ParamSpace, evaluate every point with the existing
// runBenchmark() flow, and report the Pareto frontier over (cycles, area,
// power).
//
// Parallelism and determinism: the unit of work is a *compile group* — all
// points sharing the compile-side knobs (partition count, SW fraction).
// One worker evaluates a group end to end: a full runBenchmark() for the
// group's first point (keeping the Twill artifacts), then one
// simulateTwill() per remaining point against those artifacts through a
// shared SimProgram (one decode per group, the PR 3 schedule cache inside
// runBenchmark). Pure-SW/HW outcomes are reused across the group — they
// read only SimConfig::maxCycles (sim/system.cpp runPureLoop), which is not
// an axis. Groups land in per-index slots and are merged in enumeration
// order, so the output is identical for any --jobs value. Sharing a
// SimProgram concurrently would race on its lazy decode cache, which is
// exactly why sim points stay inside their group's worker.
#pragma once

#include <string>
#include <vector>

#include "src/driver/driver.h"
#include "src/explore/pareto.h"
#include "src/explore/space.h"

namespace twill {

/// One exploration: a named source program and the space to sweep.
struct ExploreRequest {
  std::string name;    // report name (kernel name in the CLI)
  std::string source;  // C source in the supported subset
  ParamSpace space;
  /// The driver options every point starts from; a point overrides only
  /// its five ParamSpace axes. The resource ceilings (`options.limits`)
  /// apply to every point: a compile-side breach (token/AST/IR caps) is a
  /// property of the source + compile knobs, so it prunes the whole compile
  /// group the way verification failures already do; simulation-side
  /// breaches are evaluated per point. `options.unseedSemaphores`
  /// re-introduces the unseeded initial-count bug shape so
  /// verification-failure pruning is testable.
  DriverOptions options;
  /// Capture a per-point sim trace (PointResult::traceJson). The recorder is
  /// attached through SimConfig::trace only, so every event is stamped in
  /// sim cycles — the captured JSON is byte-identical across runs and
  /// --jobs counts, like the exploration document itself. The library stays
  /// IO-free; the CLI writes the files (--trace-dir).
  bool captureTraces = false;
};

/// One evaluated configuration.
struct PointResult {
  ConfigPoint point;
  bool ok = false;
  std::string error;
  BenchmarkReport report;  // full driver report under this configuration
  Objectives objectives;   // (twill cycles, twill-total area, twill power)
  bool onFrontier = false;
  /// Chrome trace-event JSON of this point's Twill simulation (sim cycles;
  /// deterministic). Only with ExploreRequest::captureTraces, and empty for
  /// points whose failure was copied from the group anchor without a
  /// simulation of their own.
  std::string traceJson;
};

struct ExploreResult {
  std::string name;
  bool ok = false;    // every point evaluated successfully
  std::string error;  // first failure, if any
  ParamSpace space;
  std::vector<PointResult> points;  // enumeration order
  std::vector<size_t> frontier;     // indices into points, ascending
};

/// Explores every request, sharing one worker pool across all requests'
/// compile groups (so a one-group space still fans out over kernels).
std::vector<ExploreResult> exploreAll(const std::vector<ExploreRequest>& reqs, unsigned jobs);

/// Single-request convenience wrapper.
ExploreResult explore(const ExploreRequest& req, unsigned jobs = 1);

/// Machine-readable JSON document for a set of explorations. Deliberately
/// contains no wall-clock fields: the document is byte-identical across
/// runs and job counts (the CI smoke diff relies on this).
std::string exploreToJson(const std::vector<ExploreResult>& results);

/// CSV flattening (one row per point, kernel column first) for
/// spreadsheet/pandas consumption.
std::string exploreToCsv(const std::vector<ExploreResult>& results);

}  // namespace twill
