// Microbenchmarks of the runtime primitives (google-benchmark): queue and
// semaphore handshakes, bus arbitration, end-to-end compile-flow stages and
// the two verifiers.
// These verify the Ch. 4 cycle costs stay where the thesis pinned them and
// give a wall-clock view of the compiler itself.
#include <benchmark/benchmark.h>

#include <memory>

#include "src/chstone/kernels.h"
#include "src/dswp/extract.h"
#include "src/exec/superblock.h"
#include "src/frontend/lower.h"
#include "src/ir/interp.h"
#include "src/ir/verifier.h"
#include "src/obs/trace.h"
#include "src/rt/fabric.h"
#include "src/transforms/passes.h"
#include "src/verify/partition_verifier.h"

namespace twill {
namespace {

void BM_QueueHandshake(benchmark::State& state) {
  FabricConfig fc;
  fc.queueCapacity = 8;
  Fabric fabric(fc);
  fabric.addQueue(0);
  ThreadPort producer(fabric, /*isHW=*/true);
  ThreadPort consumer(fabric, /*isHW=*/true);
  uint64_t now = 0;
  for (auto _ : state) {
    producer.now = now;
    consumer.now = now;
    benchmark::DoNotOptimize(producer.tryProduce(0, 42));
    uint32_t v;
    benchmark::DoNotOptimize(consumer.tryConsume(0, v));
    now += 4;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_QueueHandshake);

void BM_SemaphoreRaiseLower(benchmark::State& state) {
  FabricConfig fc;
  Fabric fabric(fc);
  fabric.addSemaphore(0, 0);
  ThreadPort port(fabric, /*isHW=*/true);
  uint64_t now = 0;
  for (auto _ : state) {
    port.now = now;
    benchmark::DoNotOptimize(port.trySemRaise(0, 1));
    benchmark::DoNotOptimize(port.trySemLower(0, 1));
    now += 3;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_SemaphoreRaiseLower);

// The tracing contract is "off by default, near-free when off": a disabled
// TraceSpan is one thread-local pointer load and a null check. Compare
// against BM_TraceHookEnabled (intern + two buffered events) to see what
// turning tracing on costs per span.
void BM_TraceHookDisabled(benchmark::State& state) {
  for (auto _ : state) {
    TraceSpan span("bench-pass");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceHookDisabled);

void BM_TraceHookEnabled(benchmark::State& state) {
  TraceRecorder rec;
  TraceScope scope(&rec);
  for (auto _ : state) {
    TraceSpan span("bench-pass");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceHookEnabled);

void BM_BusArbitration(benchmark::State& state) {
  BusModel bus;
  uint64_t now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus.acquire(now));
    ++now;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BusArbitration);

// Execution-engine step throughput, three tiers: the superblock trace
// runner (the production fast path), per-inst ExecState::step() on the
// pre-decoded records (the interaction slow path), and the reference
// tree-walking interpreter (the legacy path). The items/s counter is
// retired instructions per second.
// Both production tiers share one decode across iterations (the sweep
// pattern: Layout::build is deterministic and idempotent, re-initializing
// each iteration's fresh memory) so the counter measures stepping, not
// decoding.
void BM_ExecStepSuperblock(benchmark::State& state) {
  const KernelInfo& k = chstoneKernels()[static_cast<size_t>(state.range(0))];
  state.SetLabel(k.name);
  Module m;
  DiagEngine diag;
  compileC(k.source, m, diag);
  runDefaultPipeline(m);
  Layout lay;
  {
    Memory scratch;
    lay.build(m, scratch);
  }
  DecodedProgram prog(m, lay);
  uint64_t retired = 0;
  for (auto _ : state) {
    Memory mem;
    lay.build(m, mem);
    FunctionalChannels chans;
    ExecState st(prog, mem, chans, m.findFunction("main"));
    FunctionalSuperModel model{UINT64_MAX};
    while (st.runSuper(model) == SuperRunStatus::kNeedStep) {
      if (st.step().status != StepStatus::Ran) break;
    }
    retired += st.retired();
    benchmark::DoNotOptimize(st.result());
  }
  state.SetItemsProcessed(static_cast<int64_t>(retired));
}
BENCHMARK(BM_ExecStepSuperblock)->DenseRange(0, 7)->Unit(benchmark::kMillisecond);

void BM_ExecStepDecoded(benchmark::State& state) {
  const KernelInfo& k = chstoneKernels()[static_cast<size_t>(state.range(0))];
  state.SetLabel(k.name);
  Module m;
  DiagEngine diag;
  compileC(k.source, m, diag);
  runDefaultPipeline(m);
  Layout lay;
  {
    Memory scratch;
    lay.build(m, scratch);
  }
  DecodedProgram prog(m, lay);
  uint64_t retired = 0;
  for (auto _ : state) {
    Memory mem;
    lay.build(m, mem);
    FunctionalChannels chans;
    ExecState st(prog, mem, chans, m.findFunction("main"));
    while (st.step().status == StepStatus::Ran) {
    }
    retired += st.retired();
    benchmark::DoNotOptimize(st.result());
  }
  state.SetItemsProcessed(static_cast<int64_t>(retired));
}
BENCHMARK(BM_ExecStepDecoded)->DenseRange(0, 7)->Unit(benchmark::kMillisecond);

void BM_ExecStepLegacy(benchmark::State& state) {
  const KernelInfo& k = chstoneKernels()[static_cast<size_t>(state.range(0))];
  state.SetLabel(k.name);
  Module m;
  DiagEngine diag;
  compileC(k.source, m, diag);
  runDefaultPipeline(m);
  uint64_t retired = 0;
  for (auto _ : state) {
    Memory mem;
    Layout lay;
    lay.build(m, mem);
    FunctionalChannels chans;
    RefExecState st(m, lay, mem, chans, m.findFunction("main"));
    while (st.step().status == StepStatus::Ran) {
    }
    retired += st.retired();
    benchmark::DoNotOptimize(st.result());
  }
  state.SetItemsProcessed(static_cast<int64_t>(retired));
}
BENCHMARK(BM_ExecStepLegacy)->DenseRange(0, 7)->Unit(benchmark::kMillisecond);

void BM_CompileKernel(benchmark::State& state) {
  const KernelInfo& k = chstoneKernels()[static_cast<size_t>(state.range(0))];
  state.SetLabel(k.name);
  for (auto _ : state) {
    Module m;
    DiagEngine diag;
    bool ok = compileC(k.source, m, diag);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_CompileKernel)->DenseRange(0, 7);

// Arena payoff #1: module teardown. Builds a fully optimized kernel module
// per iteration outside the timed region would be ideal, but benchmark has no
// per-iteration setup hook; instead time build+teardown and compare against
// BM_CompileKernel (build only) to read off the teardown share — it should be
// a destructor sweep plus a handful of slab frees, not a def-use graph walk.
void BM_ModuleTeardown(benchmark::State& state) {
  const KernelInfo& k = chstoneKernels()[static_cast<size_t>(state.range(0))];
  state.SetLabel(k.name);
  size_t bytes = 0;
  for (auto _ : state) {
    auto m = std::make_unique<Module>();
    DiagEngine diag;
    compileC(k.source, *m, diag);
    runDefaultPipeline(*m);
    bytes = m->arena().bytesAllocated();
    m.reset();  // the measured teardown
    benchmark::ClobberMemory();
  }
  state.counters["arena_bytes"] =
      benchmark::Counter(static_cast<double>(bytes), benchmark::Counter::kDefaults);
}
BENCHMARK(BM_ModuleTeardown)->DenseRange(0, 7)->Unit(benchmark::kMillisecond);

// Arena payoff #2: the full compile path the bench gate sums — parse, lower,
// optimize, extract, cleanup — end to end on one kernel per iteration.
void BM_DswpExtractCompile(benchmark::State& state) {
  const KernelInfo& k = chstoneKernels()[static_cast<size_t>(state.range(0))];
  state.SetLabel(k.name);
  for (auto _ : state) {
    Module m;
    DiagEngine diag;
    compileC(k.source, m, diag);
    runDefaultPipeline(m);
    DswpConfig cfg;
    DswpResult r = runDswp(m, cfg);
    benchmark::DoNotOptimize(r.totalQueues());
    benchmark::DoNotOptimize(m.instructionCount());
  }
}
BENCHMARK(BM_DswpExtractCompile)->DenseRange(0, 7)->Unit(benchmark::kMillisecond);

// The two checkers every report runs before any simulation: the IR
// verifier (twice per report) and the partition verifier (once), each over
// one kernel's extracted module, built once outside the timed loop.
struct ExtractedKernel {
  Module m;
  DswpResult dswp;
  explicit ExtractedKernel(const KernelInfo& k) {
    DiagEngine diag;
    compileC(k.source, m, diag);
    runDefaultPipeline(m);
    dswp = runDswp(m, DswpConfig{});
  }
};

void BM_VerifyModule(benchmark::State& state) {
  const KernelInfo& k = chstoneKernels()[static_cast<size_t>(state.range(0))];
  state.SetLabel(k.name);
  ExtractedKernel ek(k);
  for (auto _ : state) {
    DiagEngine diag;
    benchmark::DoNotOptimize(verifyModule(ek.m, diag));
  }
}
BENCHMARK(BM_VerifyModule)->DenseRange(0, 7)->Unit(benchmark::kMicrosecond);

void BM_VerifyPartition(benchmark::State& state) {
  const KernelInfo& k = chstoneKernels()[static_cast<size_t>(state.range(0))];
  state.SetLabel(k.name);
  ExtractedKernel ek(k);
  for (auto _ : state) {
    DiagEngine diag;
    benchmark::DoNotOptimize(verifyPartition(ek.m, ek.dswp, diag));
  }
}
BENCHMARK(BM_VerifyPartition)->DenseRange(0, 7)->Unit(benchmark::kMicrosecond);

void BM_OptimizeAndExtract(benchmark::State& state) {
  const KernelInfo& k = chstoneKernels()[static_cast<size_t>(state.range(0))];
  state.SetLabel(k.name);
  for (auto _ : state) {
    Module m;
    DiagEngine diag;
    compileC(k.source, m, diag);
    runDefaultPipeline(m);
    DswpConfig cfg;
    DswpResult r = runDswp(m, cfg);
    benchmark::DoNotOptimize(r.totalQueues());
  }
}
BENCHMARK(BM_OptimizeAndExtract)->DenseRange(0, 7)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace twill

BENCHMARK_MAIN();
