// twillc — command-line driver for the whole Twill pipeline.
//
// Takes one C source file (in the thesis's supported subset) and runs
// parse -> lower -> mem2reg/simplify/inline -> PDG -> DSWP extract/partition
// -> HLS schedule -> cycle-level co-simulation -> power estimate, printing
// either a human-readable report or (--json) the machine-readable form that
// bench_main and the CLI tests consume.
//
//   $ twillc program.c
//   $ twillc --json --queue-capacity 16 --partitions 3 program.c
//   $ twillc --kernel mips --json          # run a built-in CHStone kernel
//   $ echo 'int main(){return 7;}' | twillc -
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "src/chstone/kernels.h"
#include "src/driver/driver.h"
#include "src/driver/request.h"
#include "src/obs/trace.h"

namespace {

void printUsage(std::FILE* to) {
  std::fprintf(to,
               "usage: twillc [options] <source.c | - >\n"
               "\n"
               "Runs the full Twill flow on one C source file: compile, optimize,\n"
               "DSWP-extract, HW/SW partition, HLS-schedule, co-simulate, and\n"
               "estimate power. '-' reads the program from stdin.\n"
               "\n"
               "output:\n"
               "  --json                 machine-readable JSON report\n"
               "  --out FILE             write the report to FILE instead of stdout\n"
               "  --name NAME            report name (default: source file stem)\n"
               "  --trace FILE           record a Chrome trace-event JSON file covering\n"
               "                         the compile pipeline (wall us) and the\n"
               "                         simulators (sim cycles); load it in Perfetto\n"
               "                         or chrome://tracing. Off by default; the\n"
               "                         report is unaffected either way.\n"
               "\n"
               "input:\n"
               "  --kernel NAME          use the built-in CHStone kernel NAME instead\n"
               "                         of a source file (see --list-kernels)\n"
               "  --list-kernels         list built-in kernels and exit\n"
               "  --request FILE         load source + every knob from a CompileRequest\n"
               "                         JSON document (the same one twilld accepts on\n"
               "                         POST /v1/jobs; '-' reads it from stdin). Later\n"
               "                         knob flags override the document's values.\n"
               "                         Mutually exclusive with --kernel and a source\n"
               "                         file argument.\n"
               "\n"
               "flows (all three run by default):\n"
               "  --no-sw | --no-hw | --no-twill\n"
               "                         skip the pure-SW / pure-HW / Twill flow\n"
               "\n"
               "verification (the static partition verifier, src/verify):\n"
               "  --verify               verify the extracted partition before\n"
               "                         simulating it (the default)\n"
               "  --no-verify            skip partition verification\n"
               "  --verify-only          stop after extraction + verification; no\n"
               "                         scheduling or simulation runs\n"
               "  --unseed-semaphores    debug: zero all semaphore initial counts\n"
               "                         after extraction (must fail verification)\n"
               "\n"
               "pipeline knobs:\n"
               "  --inline-threshold N   inliner size bound (default 100)\n"
               "  --partitions N         DSWP partitions per function, 0 = auto\n"
               "  --max-partitions N     partition cap when auto (default 6)\n"
               "  --min-instructions N   don't partition functions smaller than N\n"
               "  --sw-fraction F        targeted software share of work (default 0.1)\n"
               "\n"
               "simulation knobs:\n"
               "  --queue-capacity N     FIFO queue depth (default 8)\n"
               "  --queue-latency N      queue handshake cycles (default 2)\n"
               "  --processors N         Microblaze count (default 1)\n"
               "  --sched-quantum N      scheduler period in cycles (default 2000)\n"
               "  --max-cycles N         abort any simulation after N cycles\n"
               "\n"
               "resource limits (untrusted input; see src/support/limits.h):\n"
               "  --timeout-ms N         wall-clock budget per pipeline stage and per\n"
               "                         simulation, in milliseconds (0 = unlimited,\n"
               "                         the default)\n"
               "  --max-memory-mb N      simulated-memory ceiling in MiB (default 4);\n"
               "                         programs whose globals/stack do not fit fail\n"
               "                         with exit code 5\n"
               "\n"
               "exit codes (stable; twilld and CI dispatch on them):\n"
               "  0  success\n"
               "  1  compile or input error\n"
               "  2  usage error\n"
               "  3  verification failure (IR or partition protocol)\n"
               "  4  simulation failure (deadlock, cycle limit, result mismatch)\n"
               "  5  resource limit breached (token/AST/IR caps, memory ceiling,\n"
               "     step or wall-clock budget)\n");
}

bool readFile(const std::string& path, std::string& out, std::string& error) {
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    out = ss.str();
    return true;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open '" + path + "'";
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

std::string stemOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  return base.empty() ? "program" : base;
}

void printHuman(std::FILE* to, const twill::BenchmarkReport& r,
                const twill::DriverOptions& opts) {
  std::fprintf(to, "%s: checksum 0x%08X\n", r.name.c_str(), r.expected);
  std::fprintf(to, "  threads: %u hardware, %u software; %u queues, %u semaphores\n",
               r.hwThreads, r.swThreads, r.queues, r.semaphores);
  if (opts.runPureSW)
    std::fprintf(to, "  pure SW  : %12llu cycles\n",
                 static_cast<unsigned long long>(r.sw.cycles));
  if (opts.runPureHW)
    std::fprintf(to, "  pure HW  : %12llu cycles (%.2fx over SW)\n",
                 static_cast<unsigned long long>(r.hw.cycles), r.speedupHWvsSW());
  if (opts.runTwill)
    std::fprintf(to, "  Twill    : %12llu cycles (%.2fx over SW, %.2fx vs HW)\n",
                 static_cast<unsigned long long>(r.twill.cycles), r.speedupTwillvsSW(),
                 r.speedupTwillvsHW());
  std::fprintf(to, "  area LUTs: LegUp %u | Twill HW %u | +runtime %u | +Microblaze %u\n",
               r.areas.legup.luts, r.areas.twillHwThreads.luts, r.areas.twillTotal.luts,
               r.areas.twillPlusMicroblaze.luts);
  std::fprintf(to, "  power (normalized to SW): HW %.2f, Twill %.2f\n", r.powerHW,
               r.powerTwill);
}

}  // namespace

int main(int argc, char** argv) {
  twill::DriverOptions opts;
  bool json = false;
  std::string outPath;
  std::string tracePath;
  std::string name;
  std::string kernelName;
  std::string inputPath;

  auto needValue = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "twillc: %s requires a value\n", flag);
      std::exit(2);
    }
    return argv[++i];
  };

  // Pass 1: --request seeds every knob from a CompileRequest document (the
  // same one twilld accepts), so pass 2's flags override the document — the
  // CLI always wins, whatever the argument order.
  std::string requestPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--request") == 0) {
      if (!requestPath.empty()) {
        std::fprintf(stderr, "twillc: --request given twice\n");
        return 2;
      }
      requestPath = needValue(i, "--request");
    }
  }
  twill::CompileRequest creq;
  if (!requestPath.empty()) {
    std::string text;
    std::string error;
    if (!readFile(requestPath, text, error)) {
      std::fprintf(stderr, "twillc: %s\n", error.c_str());
      return 1;
    }
    if (!twill::parseCompileRequest(text, creq, error)) {
      std::fprintf(stderr, "twillc: %s: %s\n",
                   requestPath == "-" ? "stdin" : requestPath.c_str(), error.c_str());
      return 1;
    }
    opts = creq.options;
    name = creq.name;
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      printUsage(stdout);
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--out") {
      outPath = needValue(i, "--out");
    } else if (arg == "--trace") {
      tracePath = needValue(i, "--trace");
    } else if (arg == "--name") {
      name = needValue(i, "--name");
    } else if (arg == "--kernel") {
      kernelName = needValue(i, "--kernel");
    } else if (arg == "--request") {
      ++i;  // consumed in pass 1
    } else if (arg == "--list-kernels") {
      for (const auto& k : twill::chstoneKernels())
        std::printf("%-10s %s\n", k.name, k.description);
      return 0;
    } else if (arg == "--no-sw") {
      opts.runPureSW = false;
    } else if (arg == "--no-hw") {
      opts.runPureHW = false;
    } else if (arg == "--no-twill") {
      opts.runTwill = false;
    } else if (arg == "--verify") {
      opts.verifyPartition = true;
    } else if (arg == "--no-verify") {
      opts.verifyPartition = false;
    } else if (arg == "--verify-only") {
      opts.verifyOnly = true;
    } else if (arg == "--unseed-semaphores") {
      opts.unseedSemaphores = true;
    } else if (arg == "-" || arg[0] != '-') {
      if (!inputPath.empty()) {
        std::fprintf(stderr, "twillc: multiple input files ('%s' and '%s')\n",
                     inputPath.c_str(), arg.c_str());
        return 2;
      }
      inputPath = arg;
    } else {
      // Every valued knob flag is the request field of the same name
      // (--queue-capacity is sim.queue_capacity), with that field's range.
      std::string error;
      switch (twill::applyKnobFlag(arg, i + 1 < argc ? argv[i + 1] : nullptr, opts, error)) {
        case twill::KnobFlag::Set: ++i; break;
        case twill::KnobFlag::BadValue:
          std::fprintf(stderr, "twillc: %s\n", error.c_str());
          return 2;
        case twill::KnobFlag::NotAKnob:
          std::fprintf(stderr, "twillc: unknown option '%s'\n", arg.c_str());
          printUsage(stderr);
          return 2;
      }
    }
  }

  std::string source;
  if (!requestPath.empty()) {
    if (!kernelName.empty() || !inputPath.empty()) {
      std::fprintf(stderr,
                   "twillc: --request is mutually exclusive with --kernel and a source file\n");
      return 2;
    }
    source = creq.source;
  } else if (!kernelName.empty()) {
    if (!inputPath.empty()) {
      std::fprintf(stderr, "twillc: --kernel and a source file are mutually exclusive\n");
      return 2;
    }
    const twill::KernelInfo* k = twill::findKernel(kernelName);
    if (!k) {
      std::fprintf(stderr, "twillc: unknown kernel '%s' (try --list-kernels)\n",
                   kernelName.c_str());
      return 2;
    }
    source = k->source;
    if (name.empty()) name = k->name;
  } else {
    if (inputPath.empty()) {
      std::fprintf(stderr, "twillc: no input file\n");
      printUsage(stderr);
      return 2;
    }
    std::string error;
    if (!readFile(inputPath, source, error)) {
      std::fprintf(stderr, "twillc: %s\n", error.c_str());
      return 1;
    }
    if (name.empty()) name = inputPath == "-" ? "stdin" : stemOf(inputPath);
  }

  // With --trace, a recorder is installed for the whole run: the compile
  // hooks find it through the thread-local slot and the driver forwards it
  // to the simulators (SimConfig::trace).
  std::unique_ptr<twill::TraceRecorder> trace;
  if (!tracePath.empty()) {
    trace = std::make_unique<twill::TraceRecorder>();
    trace->setProcessName(twill::kTracePidCompile, "compile (wall us)");
  }
  twill::BenchmarkReport r;
  {
    twill::TraceScope scope(trace.get());
    r = twill::runBenchmark(name, source, opts);
  }
  if (trace) {
    std::string error;
    if (!trace->writeFile(tracePath, error)) {
      std::fprintf(stderr, "twillc: %s\n", error.c_str());
      return 1;
    }
  }

  // In human mode a failed run produces no report, so don't open (and
  // truncate) --out unless something will be written.
  const bool haveOutput = json || r.ok;
  std::FILE* out = stdout;
  if (!outPath.empty() && haveOutput) {
    out = std::fopen(outPath.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "twillc: cannot write '%s'\n", outPath.c_str());
      return 1;
    }
  }
  if (json) {
    std::fprintf(out, "%s\n", twill::reportToJson(r).c_str());
  } else if (r.ok && opts.verifyOnly) {
    std::fprintf(out, "%s: partition verified: %u queues, %u semaphores, %u HW + %u SW threads\n",
                 r.name.c_str(), r.queues, r.semaphores, r.hwThreads, r.swThreads);
  } else if (r.ok) {
    printHuman(out, r, opts);
  }
  if (!r.ok) {
    std::fprintf(stderr, "twillc: %s: %s\n", name.c_str(), r.error.c_str());
  }
  if (out != stdout) std::fclose(out);
  return r.ok ? 0 : twill::exitCodeFor(r.failureKind);
}
