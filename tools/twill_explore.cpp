// twill-explore — parallel design-space exploration over the Twill
// pipeline knobs, with Pareto-frontier reports.
//
// Sweeps any combination of partition count, SW fraction, queue capacity,
// queue latency and processor count over one or more built-in CHStone
// kernels (or a C source file), evaluating every configuration with the
// full three-flow driver and reporting the non-dominated (cycles, area,
// power) frontier:
//
//   $ twill-explore --kernel mips --queue-capacity 2,8,32 --queue-latency 2,8
//   $ twill-explore --kernel adpcm --partitions 0,2,4 --sw-fraction 0.05,0.25 --jobs 4
//   $ twill-explore --jobs 8 --out explore.json --csv explore.csv   # all 8 kernels
//
// Output is deterministic for a fixed grid: --jobs only changes wall
// clock, never a byte of the report (CI diffs --jobs 1 against --jobs 2).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/chstone/kernels.h"
#include "src/driver/request.h"
#include "src/explore/explorer.h"

namespace {

void printUsage(std::FILE* to) {
  std::fprintf(to,
               "usage: twill-explore [options] [source.c]\n"
               "\n"
               "Enumerates a grid over the Twill pipeline knobs, evaluates every\n"
               "configuration (pure SW, pure HW, Twill co-sim), and reports the\n"
               "Pareto frontier over (cycles, LUT+DSP+BRAM area, power).\n"
               "\n"
               "input (default: all built-in kernels):\n"
               "  --kernel NAME          explore a built-in CHStone kernel (repeatable)\n"
               "  source.c               explore a C source file instead\n"
               "\n"
               "grid axes (comma-separated value lists; default: one driver-default\n"
               "value per axis):\n"
               "  --partitions LIST      DSWP partitions per function (0 = auto)\n"
               "  --sw-fraction LIST     targeted software share, each in [0,1]\n"
               "  --queue-capacity LIST  FIFO depths (>= 1)\n"
               "  --queue-latency LIST   queue handshake cycles\n"
               "  --processors LIST      Microblaze counts (>= 1)\n"
               "\n"
               "execution and output:\n"
               "  --jobs N               worker threads (default 1; output identical\n"
               "                         for any N)\n"
               "  --out FILE             write the JSON report to FILE (default stdout)\n"
               "  --csv FILE             also write a flat CSV of every point\n"
               "  --trace-dir DIR        write one Chrome trace-event JSON per evaluated\n"
               "                         point (<kernel>-p<index>.trace.json, sim-cycle\n"
               "                         timestamps, byte-identical for any --jobs);\n"
               "                         DIR must already exist\n"
               "  --inline-threshold N   inliner size bound (default 100)\n"
               "  --unseed-semaphores    debug: zero all semaphore initial counts\n"
               "                         after extraction (must fail verification)\n"
               "\n"
               "exit codes (stable; most severe failure across all points wins):\n"
               "  0 success, 1 compile/input error, 2 usage error,\n"
               "  3 verification failure, 4 simulation failure,\n"
               "  5 resource limit breach\n");
}

bool writeFileOrDie(const std::string& path, const std::string& contents, const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "twill-explore: cannot write %s '%s'\n", what, path.c_str());
    return false;
  }
  const bool wrote = std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {  // short write / flush failure = truncated artifact
    std::fprintf(stderr, "twill-explore: failed writing %s '%s'\n", what, path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  twill::ParamSpace space;
  std::vector<std::string> kernelNames;
  std::string sourcePath;
  std::string outPath;
  std::string csvPath;
  std::string traceDir;
  unsigned jobs = 1;
  twill::DriverOptions options;  // the knobs every point shares

  auto needValue = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "twill-explore: %s requires a value\n", flag);
      std::exit(2);
    }
    return argv[++i];
  };
  auto parseAxis = [&](int& i, const char* flag, bool allowZero, std::vector<unsigned>& out) {
    std::string error;
    if (!twill::parseUnsignedAxis(needValue(i, flag), allowZero, out, error)) {
      std::fprintf(stderr, "twill-explore: %s: %s\n", flag, error.c_str());
      std::exit(2);
    }
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      printUsage(stdout);
      return 0;
    } else if (arg == "--kernel") {
      kernelNames.push_back(needValue(i, "--kernel"));
    } else if (arg == "--partitions") {
      parseAxis(i, "--partitions", /*allowZero=*/true, space.partitions);
    } else if (arg == "--sw-fraction") {
      std::string error;
      if (!twill::parseFractionAxis(needValue(i, "--sw-fraction"), space.swFractions, error)) {
        std::fprintf(stderr, "twill-explore: --sw-fraction: %s\n", error.c_str());
        return 2;
      }
    } else if (arg == "--queue-capacity") {
      parseAxis(i, "--queue-capacity", /*allowZero=*/false, space.queueCapacities);
    } else if (arg == "--queue-latency") {
      parseAxis(i, "--queue-latency", /*allowZero=*/true, space.queueLatencies);
    } else if (arg == "--processors") {
      parseAxis(i, "--processors", /*allowZero=*/false, space.processorCounts);
    } else if (arg == "--jobs") {
      std::vector<unsigned> v;
      parseAxis(i, "--jobs", /*allowZero=*/false, v);
      if (v.size() != 1) {
        std::fprintf(stderr, "twill-explore: --jobs wants a single count\n");
        return 2;
      }
      jobs = v[0];
    } else if (arg == "--inline-threshold") {
      std::string error;
      if (twill::applyKnobFlag(arg, needValue(i, "--inline-threshold"), options, error) !=
          twill::KnobFlag::Set) {
        std::fprintf(stderr, "twill-explore: %s\n", error.c_str());
        return 2;
      }
    } else if (arg == "--out") {
      outPath = needValue(i, "--out");
    } else if (arg == "--csv") {
      csvPath = needValue(i, "--csv");
    } else if (arg == "--trace-dir") {
      traceDir = needValue(i, "--trace-dir");
    } else if (arg == "--unseed-semaphores") {
      options.unseedSemaphores = true;
    } else if (arg[0] != '-') {
      if (!sourcePath.empty()) {
        std::fprintf(stderr, "twill-explore: multiple input files ('%s' and '%s')\n",
                     sourcePath.c_str(), arg.c_str());
        return 2;
      }
      sourcePath = arg;
    } else {
      std::fprintf(stderr, "twill-explore: unknown option '%s'\n", arg.c_str());
      printUsage(stderr);
      return 2;
    }
  }

  std::string spaceError;
  if (!space.validate(spaceError)) {
    std::fprintf(stderr, "twill-explore: %s\n", spaceError.c_str());
    return 2;
  }
  if (!sourcePath.empty() && !kernelNames.empty()) {
    std::fprintf(stderr, "twill-explore: --kernel and a source file are mutually exclusive\n");
    return 2;
  }

  // Every request shares the grid and the fixed knobs; only the program
  // differs.
  std::vector<twill::ExploreRequest> reqs;
  auto addRequest = [&](std::string name, std::string source) {
    twill::ExploreRequest req;
    req.name = std::move(name);
    req.source = std::move(source);
    req.space = space;
    req.options = options;
    req.captureTraces = !traceDir.empty();
    reqs.push_back(std::move(req));
  };
  if (!sourcePath.empty()) {
    std::ifstream in(sourcePath, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "twill-explore: cannot open '%s'\n", sourcePath.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    size_t slash = sourcePath.find_last_of('/');
    addRequest(slash == std::string::npos ? sourcePath : sourcePath.substr(slash + 1), ss.str());
  } else {
    if (kernelNames.empty())
      for (const auto& k : twill::chstoneKernels()) kernelNames.push_back(k.name);
    for (const auto& name : kernelNames) {
      const twill::KernelInfo* k = twill::findKernel(name);
      if (!k) {
        std::fprintf(stderr, "twill-explore: unknown kernel '%s' (see twillc --list-kernels)\n",
                     name.c_str());
        return 2;
      }
      addRequest(k->name, k->source);
    }
  }

  std::fprintf(stderr, "[twill-explore] %zu kernel(s) x %zu point(s), %u job(s)\n",
               reqs.size(), space.size(), jobs);
  std::vector<twill::ExploreResult> results = twill::exploreAll(reqs, jobs);

  std::string json = twill::exploreToJson(results);
  if (outPath.empty() || outPath == "-") {
    std::printf("%s\n", json.c_str());
  } else if (!writeFileOrDie(outPath, json + "\n", "JSON report")) {
    return 1;
  }
  if (!csvPath.empty() && !writeFileOrDie(csvPath, twill::exploreToCsv(results), "CSV")) return 1;
  if (!traceDir.empty()) {
    // One file per point that actually simulated (copied compile failures
    // have no trace); names use the enumeration index, which is stable for
    // a fixed grid.
    for (const auto& res : results) {
      for (size_t i = 0; i < res.points.size(); ++i) {
        const auto& p = res.points[i];
        if (p.traceJson.empty()) continue;
        const std::string path =
            traceDir + "/" + res.name + "-p" + std::to_string(i) + ".trace.json";
        if (!writeFileOrDie(path, p.traceJson, "trace")) return 1;
      }
    }
  }

  bool allOk = true;
  int worst = 0;  // lowest nonzero exit code over the points: the most severe failure
  for (const auto& res : results) {
    size_t okPoints = 0;
    for (const auto& p : res.points) {
      okPoints += p.ok ? 1 : 0;
      const int code = twill::exitCodeFor(p.report.failureKind);
      if (code != 0 && (worst == 0 || code < worst)) worst = code;
    }
    if (!res.ok) {
      allOk = false;
      std::fprintf(stderr, "twill-explore: %s: %s\n", res.name.c_str(), res.error.c_str());
    }
    std::fprintf(stderr, "[twill-explore] %s: %zu/%zu points ok, frontier %zu\n",
                 res.name.c_str(), okPoints, res.points.size(), res.frontier.size());
  }
  if (allOk) return 0;
  return worst != 0 ? worst : 1;
}
