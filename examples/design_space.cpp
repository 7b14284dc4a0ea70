// Design-space exploration: sweep the knobs an embedded developer actually
// turns — the HW/SW split point, the partition count and the queue sizing —
// for one workload, and print every configuration with its place on the
// (cycles, area, power) Pareto frontier.
//
// A miniature of the `twill-explore` CLI on the same library call,
// explore() (src/explore): the grid compiles once per (partitions, split)
// group and re-simulates per queue capacity — see README "twill-explore:
// design-space exploration".
//
//   $ ./build/design_space
#include <cstdio>

#include "src/chstone/kernels.h"
#include "src/explore/explorer.h"

using namespace twill;

int main() {
  // An ADPCM-style codec loop: a realistic "deploy this on a Zynq" workload.
  const KernelInfo& k = *findKernel("adpcm");
  ExploreRequest req;
  req.name = k.name;
  req.source = k.source;
  req.space.partitions = {2, 4, 6};
  req.space.swFractions = {0.05, 0.25, 0.50};
  req.space.queueCapacities = {2, 8, 32};
  const ExploreResult res = explore(req, /*jobs=*/2);

  std::printf("Design-space exploration for '%s' (* = on the frontier)\n", k.name);
  std::printf("%-3s %8s %9s %10s %8s %10s %9s\n", "K", "sw-split", "queue-len", "cycles", "queues",
              "HWthreads", "HW LUTs");
  for (const PointResult& p : res.points) {
    const ConfigPoint& c = p.point;
    std::printf("%-3u %7.0f%% %9u ", c.dswp.numPartitions, c.dswp.swFraction * 100,
                c.sim.queueCapacity);
    if (!p.ok) {
      std::printf("FAILED: %s\n", p.error.c_str());
      continue;
    }
    const BenchmarkReport& r = p.report;
    std::printf("%10llu %8u %10u %9u%s\n", static_cast<unsigned long long>(r.twill.cycles),
                r.queues, r.hwThreads, r.areas.twillHwThreads.luts, p.onFrontier ? " *" : "");
  }
  if (!res.points.empty() && res.points[0].ok) {
    const BenchmarkReport& base = res.points[0].report;
    std::printf("\nBaselines: pure software %llu cycles; pure hardware %llu cycles, %u LUTs.\n",
                static_cast<unsigned long long>(base.sw.cycles),
                static_cast<unsigned long long>(base.hw.cycles), base.areas.legup.luts);
  }
  std::printf("\nReading the frontier: small SW splits keep the processor off the\n"
              "critical path; more partitions add TLP until queue traffic saturates\n"
              "the module bus; queues shorter than ~8 throttle the pipeline.\n");
  return res.ok ? 0 : 1;
}
