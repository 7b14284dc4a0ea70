// DSWP partitioner (§5.2 of the thesis).
//
// Assigns every instruction of a function to one of K partitions such that
//  * all instructions of a PDG SCC share a partition, and
//  * cross-partition PDG edges are acyclic (they flow from lower- to
//    higher-numbered partitions), which is what makes the extracted threads
//    a decoupled pipeline.
//
// The greedy heuristic follows the thesis: SCCs are visited in topological
// order; each partition is filled smallest-SCC-first until its targeted
// share of the total weight is reached; a partition's domain (HW vs SW) is
// chosen by comparing the software and hardware weights of the SCCs
// available when the partition is started, steered by the developer-provided
// software fraction.
//
// The result is indexed by the PDG's numbering: `assignment` is a vector by
// instruction id, so it is valid only while the function keeps the ids
// PDG::build gave it.
#pragma once

#include <vector>

#include "src/analysis/pdg.h"

namespace twill {

struct PartitionConfig {
  /// Number of pipeline partitions to create (>=1). The driver picks this
  /// per function ("number of initial partitions" in §5.2).
  unsigned numPartitions = 2;
  /// Targeted fraction of estimated work placed in software partitions.
  /// The thesis reports a ~75/25 HW/SW *instruction* split as the typical
  /// outcome; in dynamic-weight terms (used here so the processor stays off
  /// the critical path) that corresponds to a ~0.1 default.
  double swFraction = 0.1;
  /// Force the partition holding `ret` to software (required for main —
  /// "the master for the main function is always implemented in software",
  /// §5.3).
  bool forceMasterSW = false;
};

struct PartitionResult {
  /// Partition of each instruction, by instruction id (PDG::numNodes()
  /// entries; the argument slots [0, numArgs) read 0 and mean nothing).
  std::vector<unsigned> assignment;
  /// Domain per partition: true = hardware.
  std::vector<bool> isHW;
  /// Master partition: the one holding the function's `ret` (pipeline tail).
  unsigned master = 0;
  /// Per-partition dynamic software-cycle weights (diagnostics / tests).
  std::vector<uint64_t> swWeights;
  unsigned numPartitions() const { return static_cast<unsigned>(isHW.size()); }
};

/// Runs the partitioning heuristic over a built PDG. The second overload
/// consumes SCCs the caller already computed (in computeSCCs' order) so the
/// driver's "pick K from the SCC count, then partition" path runs Tarjan
/// once, not twice.
PartitionResult partitionFunction(const PDG& pdg, const PartitionConfig& config);
PartitionResult partitionFunction(const PDG& pdg, const PartitionConfig& config,
                                  std::vector<std::vector<Instruction*>> sccs);

/// Estimated dynamic weight scale for an instruction: 10^loopDepth, the
/// trip-count guess used when no profile exists.
uint64_t tripFactor(const LoopInfo& loops, BasicBlock* bb);

}  // namespace twill
