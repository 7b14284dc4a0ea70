// DSWP thread extraction (§5.2–§5.3 of the thesis).
//
// Given a partition assignment, each partition p of a function F becomes a
// standalone function F_dswp_p:
//
//  * Control replication — p's function contains the projection of F's CFG
//    onto the blocks it needs: blocks of owned instructions, blocks of
//    cross-edge producers (consume sites), all blocks those are
//    control-dependent on (transitively), predecessors of owned-PHI blocks,
//    plus entry and the unified exit. Branches to excluded blocks retarget
//    to the nearest included postdominator (§5.2's branch rule).
//  * Communication — for every cross-partition PDG data edge u -> v the
//    producer executes produce(ch) immediately after u and the consumer
//    executes consume(ch) at u's replicated position, so enqueue/dequeue
//    counts match on every control-flow path by construction (this is the
//    fixed point the thesis's flow algorithm computes; see DESIGN.md).
//    Cross-partition memory dependences synchronize through token queues
//    the same way.
//  * Master/slave function pipelining (§5.2.1 "Function Calls") — the
//    partition holding `ret` is the master; it keeps F's signature and is
//    called directly by callers. Every other partition becomes a persistent
//    slave thread running `for(;;){ consume(start); body; produce(done); }`.
//    The master produces start tokens and needed arguments on entry and
//    consumes done tokens before returning (the pipeline flush of §6.6).
//    Functions with more than one static call site are guarded by a
//    semaphore (§5.2.1's overlap rule, conservative version).
//
// The extractor's tables (each partition's blocks, consumed values, tokens
// and arguments with their channel ids, and the clone maps) are vectors on
// the numbering PDG::build gives the function: block id, instruction id,
// argument index. Walking them in index order allocates each function's
// channels as one run of consecutive ids in (consumer partition, data by
// producer id, tokens by producer id, arguments by index, start, done)
// order, and a producer's produces follow it in consumer-partition order,
// data before token, so channel ids are the same in every run.
#pragma once

#include <string>
#include <vector>

#include "src/dswp/partition.h"

namespace twill {

struct ChannelInfo {
  enum class Purpose : uint8_t { Data, MemToken, Arg, Start, Done };
  int id = 0;
  unsigned bits = 32;  // queue width (§4.3: 1/8/16/32-bit queues)
  Purpose purpose = Purpose::Data;
  std::string note;  // "f:producer->partition" for reports
};

struct SemaphoreInfo {
  int id = 0;
  uint32_t initialCount = 1;
  std::string note;
};

struct DswpThread {
  Function* fn = nullptr;
  bool isHW = false;
  bool isSlave = false;  // persistent dispatch-loop thread
  std::string origin;    // "<original fn>#<partition>"
};

struct FunctionStats {
  std::string name;
  unsigned partitions = 1;
  unsigned hwPartitions = 0;
  unsigned queues = 0;
  unsigned semaphores = 0;
};

struct DswpResult {
  std::vector<DswpThread> threads;  // all persistent threads; [0] = main master
  std::vector<ChannelInfo> channels;
  std::vector<SemaphoreInfo> semaphores;
  Function* mainMaster = nullptr;
  /// True only for the pure-HW baseline's one-thread system (the whole
  /// program in LegUp hardware, src/sim); DSWP keeps main's master in
  /// software (§5.3).
  bool mainMasterIsHW = false;
  std::vector<FunctionStats> stats;
  /// Wall clock spent building PDGs (summed over functions); lets the
  /// driver split the dswp stage into pdg vs extraction in its report.
  double pdgWallMs = 0;

  unsigned totalQueues() const { return static_cast<unsigned>(channels.size()); }
  unsigned totalSemaphores() const { return static_cast<unsigned>(semaphores.size()); }
  unsigned hwThreadCount() const {
    unsigned n = 0;
    for (const auto& t : threads)
      if (t.isHW) ++n;
    return n;
  }
};

struct DswpConfig {
  /// Partitions per function; 0 = choose automatically from SCC count.
  unsigned numPartitions = 0;
  unsigned maxPartitions = 6;
  /// Functions smaller than this many instructions are not partitioned.
  unsigned minInstructions = 12;
  double swFraction = 0.1;
};

class ChannelIO;

/// Applies the semaphores' initial counts to a channel implementation. The
/// cycle-level fabric does this when it is constructed (sim/system.cpp);
/// functional harnesses (PipelineInterp and test replicas) must do it
/// explicitly before running an extracted pipeline, or the first overlap
/// guard `sem.lower` blocks forever and the pipeline reads as deadlocked.
void seedSemaphores(const DswpResult& dswp, ChannelIO& chans);

/// Runs DSWP over the whole module (bottom-up over the call graph),
/// replacing each partitioned function with its master + slave functions and
/// redirecting call sites to the masters. The module must already be
/// canonicalized (runDefaultPipeline: mem2reg, mergereturn, loop-simplify...).
DswpResult runDswp(Module& m, const DswpConfig& config);

}  // namespace twill
