#include "src/dswp/partition.h"

#include <algorithm>
#include <cassert>

#include "src/model/optables.h"

namespace twill {

uint64_t tripFactor(const LoopInfo& loops, BasicBlock* bb) {
  uint64_t f = 1;
  for (unsigned d = loops.depth(bb); d > 0; --d) f *= 10;
  return f;
}

PartitionResult partitionFunction(const PDG& pdg, const PartitionConfig& config) {
  return partitionFunction(pdg, config, computeSCCs(pdg));
}

PartitionResult partitionFunction(const PDG& pdg, const PartitionConfig& config,
                                  std::vector<std::vector<Instruction*>> sccs) {
  PartitionResult out;
  const unsigned K = std::max(1u, config.numPartitions);

  // SCCs in topological order (Tarjan yields reverse-topological).
  std::reverse(sccs.begin(), sccs.end());
  const size_t n = sccs.size();

  // Weights per SCC: dynamic software cycles (trip-count-scaled, for
  // pipeline balance and the software budget) and static hardware weight
  // (the area a partition saves by running in software).
  std::vector<uint64_t> swW(n, 0), staticHwW(n, 0);
  uint64_t totalSW = 0;
  const LoopInfo& loops = pdg.loopInfo();
  for (size_t i = 0; i < n; ++i) {
    for (Instruction* inst : sccs[i]) {
      swW[i] += tripFactor(loops, inst->parent()) * swCycles(*inst);
      staticHwW[i] += hwWeight(*inst);
    }
    totalSW += swW[i];
  }

  // SCC dependencies over the condensation (for the available-list rule),
  // each SCC's successors in the order their first edge appears. Every
  // cross edge lands in its source SCC's list; a stamp per target SCC then
  // drops the repeats, so the whole pass is linear in the edges.
  std::vector<size_t> sccOf(pdg.numNodes(), 0);
  for (size_t i = 0; i < n; ++i)
    for (Instruction* inst : sccs[i]) sccOf[inst->id()] = i;
  std::vector<std::vector<size_t>> sccSuccs(n);
  for (const PDGEdge& e : pdg.edges()) {
    const size_t a = sccOf[e.from->id()], b = sccOf[e.to->id()];
    if (a != b) sccSuccs[a].push_back(b);
  }
  std::vector<unsigned> unmetPreds(n, 0);
  std::vector<size_t> stamp(n, n);  // last SCC that listed this one as a successor
  for (size_t a = 0; a < n; ++a) {
    std::vector<size_t>& succs = sccSuccs[a];
    size_t kept = 0;
    for (size_t b : succs) {
      if (stamp[b] == a) continue;
      stamp[b] = a;
      succs[kept++] = b;
      ++unmetPreds[b];
    }
    succs.resize(kept);
  }

  // Greedy fill: per-partition target weight, smallest-available-first.
  std::vector<int> sccPartition(n, -1);
  std::vector<size_t> available;
  for (size_t i = 0; i < n; ++i)
    if (unmetPreds[i] == 0) available.push_back(i);

  // The last partition becomes the master (it holds `ret`): it carries the
  // coordination/epilogue code, so it gets a small dynamic share and the
  // pipeline stages split the hot work among the first K-1 partitions.
  // Small reserve: enough for ret + glue, too small to swallow a hot
  // epilogue SCC (those stay in hardware partitions).
  const uint64_t masterShare = totalSW / 128 + 1;
  // Cumulative cap: partitions before the last may not eat into the tail
  // reserved for the master (coordination + epilogue + ret).
  const uint64_t globalCap = K > 1 ? totalSW - masterShare : totalSW + 1;
  uint64_t totalFilled = 0;
  out.swWeights.assign(K, 0);
  size_t assigned = 0;
  for (unsigned p = 0; p < K && assigned < n; ++p) {
    uint64_t filled = 0;
    bool last = (p == K - 1);
    // Adaptive target: the remaining (non-reserve) work split over the
    // remaining pipeline partitions, so one oversized SCC in an early
    // partition does not starve the rest of the pipeline.
    uint64_t remaining = totalSW - totalFilled;
    uint64_t targetPerPartition =
        last ? remaining + 1
             : (remaining > masterShare ? (remaining - masterShare) / (K - 1 - p) + 1 : 1);
    while (assigned < n && (last || (filled < targetPerPartition && totalFilled < globalCap))) {
      if (available.empty()) break;
      // Smallest software weight first (the thesis sorts the available list
      // by the weight of the partition's chosen domain; the SW weight is a
      // stable proxy before the domain is decided).
      size_t bestIdx = 0;
      for (size_t k = 1; k < available.size(); ++k)
        if (swW[available[k]] < swW[available[bestIdx]]) bestIdx = k;
      size_t scc = available[bestIdx];
      available.erase(available.begin() + static_cast<long>(bestIdx));
      sccPartition[scc] = static_cast<int>(p);
      filled += swW[scc];
      totalFilled += swW[scc];
      out.swWeights[p] += swW[scc];
      ++assigned;
      for (size_t s : sccSuccs[scc])
        if (--unmetPreds[s] == 0) available.push_back(s);
    }
  }
  // Any SCC left (available-list starvation) goes to the last partition;
  // topological order keeps edges forward because everything else already
  // sits in earlier or equal partitions.
  for (size_t i = 0; i < n; ++i)
    if (sccPartition[i] < 0) sccPartition[i] = static_cast<int>(K - 1);

  // Record the assignment.
  unsigned actualK = 0;
  for (size_t i = 0; i < n; ++i)
    actualK = std::max(actualK, static_cast<unsigned>(sccPartition[i]) + 1);
  out.swWeights.resize(actualK);
  std::vector<uint64_t> partStaticHw(actualK, 0);
  std::vector<unsigned> partMaxDepth(actualK, 0);
  out.assignment.assign(pdg.numNodes(), 0);
  for (size_t i = 0; i < n; ++i) {
    unsigned p = static_cast<unsigned>(sccPartition[i]);
    partStaticHw[p] += staticHwW[i];
    for (Instruction* inst : sccs[i]) {
      out.assignment[inst->id()] = p;
      partMaxDepth[p] = std::max(partMaxDepth[p], loops.depth(inst->parent()));
    }
  }

  // Master partition = the one holding `ret` (single after mergereturn).
  out.master = actualK - 1;
  for (size_t i = 0; i < n; ++i)
    for (Instruction* inst : sccs[i])
      if (inst->op() == Opcode::Ret) out.master = static_cast<unsigned>(sccPartition[i]);

  // Domain selection: fill the software budget (the developer-targeted
  // fraction of estimated work, §5.2) preferring partitions that are
  // expensive in hardware area but cheap in dynamic software cycles, i.e.
  // coordination code and shallow loops. The budget is charged in dynamic
  // (trip-scaled) weight so a statically-small but dynamically-hot
  // partition cannot sneak onto the processor. The master of a
  // forceMasterSW function is always software (§5.3).
  out.isHW.assign(actualK, true);
  const uint64_t swBudget =
      static_cast<uint64_t>(static_cast<double>(totalSW) * config.swFraction);
  uint64_t swSpent = 0;
  std::vector<unsigned> order(actualK);
  for (unsigned p = 0; p < actualK; ++p) order[p] = p;
  std::sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
    // Hardware area saved (static) per dynamic software cycle spent:
    // coordination code and shallow loops rank high, hot loops rank low.
    double ra =
        static_cast<double>(partStaticHw[a]) / (static_cast<double>(out.swWeights[a]) + 1);
    double rb =
        static_cast<double>(partStaticHw[b]) / (static_cast<double>(out.swWeights[b]) + 1);
    return ra > rb;
  });
  if (config.forceMasterSW) {
    out.isHW[out.master] = false;
    swSpent += out.swWeights[out.master];
  }
  for (unsigned p : order) {
    if (!out.isHW[p]) continue;  // already software (master)
    // Budget charge grows with loop depth: the 10^depth trip estimate
    // systematically undercounts hot loops, so deep partitions must clear a
    // higher bar before they may run on the processor. The penalty relaxes
    // as the developer targets larger software shares — that is exactly the
    // regime the Fig. 6.3/6.4 split sweeps measure (and why mid/large
    // splits hurt: hot work lands on the processor).
    unsigned shift = config.swFraction <= 0.3   ? 2u * partMaxDepth[p]
                     : config.swFraction <= 0.6 ? partMaxDepth[p]
                                                : 0u;
    uint64_t charge = out.swWeights[p] << std::min(shift, 16u);
    if (swSpent + charge <= swBudget) {
      out.isHW[p] = false;
      swSpent += charge;
    }
  }
  return out;
}

}  // namespace twill
