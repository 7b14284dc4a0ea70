// DSWP tests: partitioning invariants and end-to-end pipeline correctness.
//
// The central property: for any program and any partitioning configuration,
// the extracted multi-threaded pipeline (run under the functional pipeline
// interpreter with unbounded queues) produces exactly the result of the
// original single-threaded program.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/chstone/kernels.h"
#include "src/dswp/extract.h"
#include "src/frontend/lower.h"
#include "src/fuzz/progen.h"
#include "src/ir/interp.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/transforms/passes.h"

namespace twill {
namespace {

struct Prepared {
  std::unique_ptr<Module> m;
  uint32_t reference = 0;
};

Prepared prepare(const std::string& src) {
  Prepared pr;
  pr.m = std::make_unique<Module>();
  DiagEngine diag;
  EXPECT_TRUE(compileC(src, *pr.m, diag)) << diag.str();
  runDefaultPipeline(*pr.m);
  DiagEngine vd;
  EXPECT_TRUE(verifyModule(*pr.m, vd)) << vd.str();
  Interp in(*pr.m);
  pr.reference = in.run("main");
  return pr;
}

uint32_t runPipeline(Module& m, const DswpResult& r, bool* ok = nullptr) {
  PipelineInterp pi(m);
  EXPECT_NE(r.mainMaster, nullptr);
  seedSemaphores(r, pi.channels());
  pi.addThread(r.mainMaster);
  for (const auto& t : r.threads)
    if (t.fn != r.mainMaster) pi.addThread(t.fn);
  auto out = pi.run();
  EXPECT_TRUE(out.ok) << out.message;
  if (ok) *ok = out.ok;
  return out.result;
}

void checkExtraction(const std::string& src, DswpConfig cfg) {
  Prepared pr = prepare(src);
  DswpResult r = runDswp(*pr.m, cfg);
  DiagEngine vd;
  ASSERT_TRUE(verifyModule(*pr.m, vd)) << vd.str() << "\n" << printModule(*pr.m);
  EXPECT_EQ(runPipeline(*pr.m, r), pr.reference) << printModule(*pr.m);
}

// --- Partitioner invariants ---------------------------------------------------

TEST(PartitionTest, SCCsNeverSplit) {
  Prepared pr = prepare(
      "int main() { int s = 0; for (int i = 0; i < 100; i++) s += i * 3; return s; }");
  Function* f = pr.m->findFunction("main");
  PDG pdg;
  pdg.build(*f);
  PartitionConfig pc;
  pc.numPartitions = 3;
  PartitionResult parts = partitionFunction(pdg, pc);
  auto sccs = computeSCCs(pdg);
  for (const auto& scc : sccs) {
    unsigned p = parts.assignment[scc[0]->id()];
    for (Instruction* i : scc) EXPECT_EQ(parts.assignment[i->id()], p);
  }
}

TEST(PartitionTest, CrossEdgesFlowForward) {
  Prepared pr = prepare(
      "int a[64];"
      "int main() { int s = 0;"
      "for (int i = 0; i < 64; i++) a[i] = i * 7;"
      "for (int j = 0; j < 64; j++) s += a[j] >> 1;"
      "return s; }");
  Function* f = pr.m->findFunction("main");
  PDG pdg;
  pdg.build(*f);
  PartitionConfig pc;
  pc.numPartitions = 3;
  PartitionResult parts = partitionFunction(pdg, pc);
  for (const PDGEdge& e : pdg.edges())
    EXPECT_LE(parts.assignment[e.from->id()], parts.assignment[e.to->id()])
        << printInstruction(e.from) << " -> " << printInstruction(e.to);
}

TEST(PartitionTest, MasterHoldsRet) {
  Prepared pr = prepare(
      "int main() { int s = 1; for (int i = 0; i < 30; i++) s = s * 3 + i; return s; }");
  Function* f = pr.m->findFunction("main");
  PDG pdg;
  pdg.build(*f);
  PartitionConfig pc;
  pc.numPartitions = 2;
  PartitionResult parts = partitionFunction(pdg, pc);
  Instruction* ret = nullptr;
  for (auto& bb : f->blocks())
    if (bb->terminator()->op() == Opcode::Ret) ret = bb->terminator();
  ASSERT_NE(ret, nullptr);
  EXPECT_EQ(parts.assignment[ret->id()], parts.master);
}

TEST(PartitionTest, ForceMasterSWRespected) {
  Prepared pr = prepare(
      "int main() { int s = 0; for (int i = 0; i < 50; i++) s += i; return s; }");
  Function* f = pr.m->findFunction("main");
  PDG pdg;
  pdg.build(*f);
  PartitionConfig pc;
  pc.numPartitions = 2;
  pc.forceMasterSW = true;
  pc.swFraction = 0.0;  // even with zero budget the master must be SW
  PartitionResult parts = partitionFunction(pdg, pc);
  EXPECT_FALSE(parts.isHW[parts.master]);
}

TEST(PartitionTest, SwFractionMovesWork) {
  Prepared pr = prepare(
      "int a[32];"
      "int main() { int s = 0;"
      "for (int i = 0; i < 32; i++) a[i] = i * i;"
      "for (int j = 0; j < 32; j++) s += a[j] * 3;"
      "return s; }");
  Function* f = pr.m->findFunction("main");
  PDG pdg;
  pdg.build(*f);
  auto swWeightOf = [&](double frac) {
    PartitionConfig pc;
    pc.numPartitions = 4;
    pc.swFraction = frac;
    PartitionResult parts = partitionFunction(pdg, pc);
    uint64_t sw = 0;
    for (unsigned p = 0; p < parts.numPartitions(); ++p)
      if (!parts.isHW[p]) sw += parts.swWeights[p];
    return sw;
  };
  EXPECT_LE(swWeightOf(0.05), swWeightOf(0.95));
}

// --- Extraction correctness (the big battery) -----------------------------------

struct Wide2 {
  const char* name;
  const char* src;
};

const Wide2 kPrograms[] = {
    {"accumulate",
     "int main() { int s = 0; for (int i = 0; i < 200; i++) s += i * 3; return s; }"},
    {"two_phase",
     "int a[64];"
     "int main() { int s = 0;"
     "for (int i = 0; i < 64; i++) a[i] = i * 7 + 1;"
     "for (int j = 0; j < 64; j++) s += a[j] >> 1;"
     "return s; }"},
    {"nested_loops",
     "int main() { int s = 0;"
     "for (int i = 0; i < 12; i++) for (int j = 0; j <= i; j++) s += i * j + 1;"
     "return s; }"},
    {"branches_in_loop",
     "int main() { int s = 0;"
     "for (int i = 0; i < 64; i++) { if (i & 1) s += i * 3; else s -= i; }"
     "return s; }"},
    {"table_lookup",
     "const int tab[16] = {5,3,8,1,9,2,7,4,6,0,11,13,12,15,14,10};"
     "int main() { unsigned s = 0;"
     "for (int i = 0; i < 160; i++) s = s * 17 + tab[i & 15];"
     "return (int)(s & 0xFFFFFF); }"},
    {"div_heavy",
     "int main() { int s = 0;"
     "for (int i = 1; i < 60; i++) s += (i * i) / (i + 3) + (1000 % i);"
     "return s; }"},
    {"byte_stream",
     "unsigned char buf[128];"
     "int main() { unsigned c = 0x42;"
     "for (int i = 0; i < 128; i++) { c = (c * 5 + 1) & 0xFF; buf[i] = (unsigned char)c; }"
     "unsigned s = 0;"
     "for (int i = 0; i < 128; i++) { unsigned v = buf[i];"
     "  for (int b = 0; b < 8; b++) v = (v & 1) ? ((v >> 1) ^ 0x8C) : (v >> 1);"
     "  s += v; }"
     "return (int)s; }"},
    {"early_exit_loop",
     "int main() { int s = 0;"
     "for (int i = 0; i < 1000; i++) { s += i; if (s > 300) break; }"
     "return s; }"},
    {"while_with_state_machine",
     "int main() { int state = 0; int out = 0; int n = 0;"
     "while (n < 96) {"
     "  if (state == 0) { out += n; state = 1; }"
     "  else if (state == 1) { out ^= n << 1; state = 2; }"
     "  else { out -= n; state = 0; }"
     "  n++;"
     "} return out; }"},
    {"memory_pingpong",
     "int x[8]; int y[8];"
     "int main() {"
     "for (int i = 0; i < 8; i++) x[i] = i + 1;"
     "for (int r = 0; r < 10; r++) {"
     "  for (int i = 0; i < 8; i++) y[i] = x[i] * 2 + 1;"
     "  for (int i = 0; i < 8; i++) x[i] = y[i] - i;"
     "}"
     "int s = 0; for (int i = 0; i < 8; i++) s += x[i]; return s; }"},
    {"mixed_width",
     "short h[32]; unsigned char b[32];"
     "int main() { int s = 0;"
     "for (int i = 0; i < 32; i++) { h[i] = (short)(i * 321); b[i] = (unsigned char)(i * 7); }"
     "for (int i = 0; i < 32; i++) s += h[i] ^ b[i];"
     "return s; }"},
    {"ternary_and_logic",
     "int main() { int s = 0;"
     "for (int i = 0; i < 77; i++) {"
     "  int v = (i % 3 == 0 && i % 5 == 0) ? 100 : (i % 3 == 0 ? 10 : 1);"
     "  s += v;"
     "} return s; }"},
};

class DswpBattery : public ::testing::TestWithParam<std::tuple<unsigned, double>> {};

TEST_P(DswpBattery, PipelineMatchesReference) {
  auto [partitions, swFraction] = GetParam();
  for (const auto& prog : kPrograms) {
    DswpConfig cfg;
    cfg.numPartitions = partitions;
    cfg.swFraction = swFraction;
    SCOPED_TRACE(std::string(prog.name) + " K=" + std::to_string(partitions));
    checkExtraction(prog.src, cfg);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PartitionSweep, DswpBattery,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 6u), ::testing::Values(0.25, 0.5)));

// --- Function-level pipelining ----------------------------------------------------

TEST(DswpFunctionTest, NonInlinedCalleeGetsMasterSlaves) {
  // Force no inlining by using a low threshold pipeline manually.
  auto m = std::make_unique<Module>();
  DiagEngine diag;
  const char* src =
      "int work(int x) { int s = 0; for (int i = 0; i < 20; i++) s += x * i + (x >> 1);"
      "return s; }"
      "int main() { int t = 0; for (int k = 0; k < 5; k++) t += work(k + 1); return t; }";
  ASSERT_TRUE(compileC(src, *m, diag)) << diag.str();
  for (auto& f : m->functions()) {
    simplifyCFG(*f);
    mem2reg(*f);
    mergeReturns(*f, *m);
    loopSimplify(*f, *m);
  }
  Interp in(*m);
  uint32_t ref = in.run("main");

  DswpConfig cfg;
  cfg.numPartitions = 2;
  DswpResult r = runDswp(*m, cfg);
  DiagEngine vd;
  ASSERT_TRUE(verifyModule(*m, vd)) << vd.str() << "\n" << printModule(*m);
  // `work` was partitioned: a slave thread exists for it.
  bool workSlave = false;
  for (const auto& t : r.threads)
    if (t.origin.rfind("work#", 0) == 0 && t.isSlave) workSlave = true;
  EXPECT_TRUE(workSlave);
  EXPECT_EQ(runPipeline(*m, r), ref) << printModule(*m);
}

TEST(DswpFunctionTest, MultipleCallSitesGetSemaphore) {
  auto m = std::make_unique<Module>();
  DiagEngine diag;
  const char* src =
      "int work(int x) { int s = 0; for (int i = 0; i < 16; i++) s += x * i; return s; }"
      "int main() { return work(3) + work(4); }";
  ASSERT_TRUE(compileC(src, *m, diag)) << diag.str();
  for (auto& f : m->functions()) {
    simplifyCFG(*f);
    mem2reg(*f);
    mergeReturns(*f, *m);
  }
  Interp in(*m);
  uint32_t ref = in.run("main");
  DswpConfig cfg;
  cfg.numPartitions = 2;
  DswpResult r = runDswp(*m, cfg);
  EXPECT_GE(r.totalSemaphores(), 1u);
  EXPECT_EQ(runPipeline(*m, r), ref);
}

TEST(DswpFunctionTest, ChannelAccountingIsConsistent) {
  Prepared pr = prepare(
      "int a[32];"
      "int main() { int s = 0;"
      "for (int i = 0; i < 32; i++) a[i] = i * 13;"
      "for (int j = 0; j < 32; j++) s += a[j];"
      "return s; }");
  DswpConfig cfg;
  cfg.numPartitions = 3;
  DswpResult r = runDswp(*pr.m, cfg);
  // Channel ids are dense and unique.
  std::vector<bool> seen(r.channels.size(), false);
  for (const auto& c : r.channels) {
    ASSERT_LT(static_cast<size_t>(c.id), seen.size());
    EXPECT_FALSE(seen[c.id]);
    seen[c.id] = true;
  }
  // Stats queues sum equals total channels.
  unsigned total = 0;
  for (const auto& s : r.stats) total += s.queues;
  EXPECT_EQ(total, r.totalQueues());
}

TEST(DswpFunctionTest, SinglePartitionLeavesFunctionIntact) {
  Prepared pr = prepare("int main() { return 5; }");
  DswpConfig cfg;
  cfg.numPartitions = 0;  // auto => tiny function stays single-partition
  DswpResult r = runDswp(*pr.m, cfg);
  ASSERT_NE(r.mainMaster, nullptr);
  EXPECT_EQ(r.threads.size(), 1u);
  EXPECT_FALSE(r.threads[0].isSlave);
  Interp in(*pr.m);
  EXPECT_EQ(in.run(r.mainMaster), 5u);
}

TEST(DswpFunctionTest, AutoPartitioningProducesThreads) {
  Prepared pr = prepare(
      "int a[64]; int b[64];"
      "int main() { int s = 0;"
      "for (int i = 0; i < 64; i++) a[i] = i * 3 + 1;"
      "for (int i = 0; i < 64; i++) b[i] = a[i] * a[63 - i];"
      "for (int i = 0; i < 64; i++) s += b[i] / (i + 1);"
      "return s; }");
  DswpConfig cfg;  // auto
  DswpResult r = runDswp(*pr.m, cfg);
  EXPECT_GE(r.threads.size(), 2u);
  EXPECT_EQ(runPipeline(*pr.m, r), pr.reference);
}

// --- Channel tables on the PDG's numbering -----------------------------------
//
// Channel ids must be the same in every run (traces and reports label queues
// by id). The extractor gets that by walking its id-indexed tables in order;
// these tests pin the order that walk yields.

// A channel note parsed: "f:v<id>->p", "f:m<id>->p", "f:arg<i>->p",
// "f:start->p" or "f:done<-p".
struct ChannelNote {
  enum Kind { Data, Token, Arg, Start, Done };
  std::string fn;
  unsigned partition = 0;
  Kind kind = Data;
  unsigned index = 0;  // producer instruction id or argument index
  auto order() const { return std::make_tuple(partition, kind, index); }
};

ChannelNote parseNote(const std::string& note) {
  ChannelNote n;
  const size_t colon = note.find(':');
  EXPECT_NE(colon, std::string::npos) << note;
  n.fn = note.substr(0, colon);
  const std::string rest = note.substr(colon + 1);
  const size_t arrow = rest.find_first_of("-<");
  const std::string head = rest.substr(0, arrow);
  n.partition = static_cast<unsigned>(std::stoul(rest.substr(arrow + 2)));
  if (head == "start") {
    n.kind = ChannelNote::Start;
  } else if (head == "done") {
    n.kind = ChannelNote::Done;
  } else if (head.rfind("arg", 0) == 0) {
    n.kind = ChannelNote::Arg;
    n.index = static_cast<unsigned>(std::stoul(head.substr(3)));
  } else {
    EXPECT_TRUE(head[0] == 'v' || head[0] == 'm') << note;
    n.kind = head[0] == 'v' ? ChannelNote::Data : ChannelNote::Token;
    n.index = static_cast<unsigned>(std::stoul(head.substr(1)));
  }
  return n;
}

std::string channelTable(const DswpResult& r) {
  std::string out;
  for (const ChannelInfo& c : r.channels)
    out += std::to_string(c.id) + " " + std::to_string(c.bits) + " " +
           std::to_string(static_cast<int>(c.purpose)) + " " + c.note + "\n";
  return out;
}

// Each function's channels are one run of consecutive ids, in (partition,
// data by producer id, tokens by producer id, arguments by index, start,
// done) order.
void expectChannelOrder(const DswpResult& r) {
  std::set<std::string> finished;
  std::string fn;
  ChannelNote prev;
  for (size_t i = 0; i < r.channels.size(); ++i) {
    const ChannelInfo& c = r.channels[i];
    ASSERT_EQ(c.id, static_cast<int>(i)) << c.note;
    const ChannelNote n = parseNote(c.note);
    if (n.fn != fn) {
      if (!fn.empty()) finished.insert(fn);
      EXPECT_FALSE(finished.count(n.fn)) << n.fn << "'s channels are split: " << c.note;
      fn = n.fn;
    } else {
      EXPECT_LT(prev.order(), n.order()) << "channel " << c.id << " (" << c.note << ")";
    }
    prev = n;
  }
}

// A producer's produces sit together (only the PtrToInt of a pointer value
// comes between them), one per consumer partition in partition order, data
// before token.
void expectProduceOrder(Module& m, const DswpResult& r) {
  std::set<std::pair<std::string, unsigned>> seen;  // (function, producer id)
  for (auto& f : m.functions()) {
    for (auto& bb : f->blocks()) {
      const ChannelNote* last = nullptr;
      ChannelNote cur;
      for (auto& inst : *bb) {
        if (inst->op() == Opcode::PtrToInt) continue;
        const bool produce = inst->op() == Opcode::Produce;
        const ChannelNote n = produce ? parseNote(r.channels[inst->channel()].note) : ChannelNote{};
        if (!produce || n.kind > ChannelNote::Token) {
          last = nullptr;
          continue;
        }
        if (last && last->fn == n.fn && last->index == n.index) {
          EXPECT_LT(last->order(), n.order()) << f->name() << " " << bb->name();
        } else {
          EXPECT_TRUE(seen.insert({n.fn, n.index}).second)
              << "produces of " << n.fn << ":" << n.index << " are split; " << f->name();
        }
        cur = n;
        last = &cur;
      }
    }
  }
}

// Over the 8 kernels and progen seeds 1-200, at K = the parameter. Each
// source is extracted twice in one process: the channel tables and the
// extracted modules must be identical.
class DswpChannelOrder : public ::testing::TestWithParam<unsigned> {};

TEST_P(DswpChannelOrder, TablesFollowThePdgNumbering) {
  std::vector<std::pair<std::string, std::string>> programs;
  for (const KernelInfo& k : chstoneKernels()) programs.push_back({k.name, k.source});
  for (uint64_t seed = 1; seed <= 200; ++seed)
    programs.push_back({"progen " + std::to_string(seed), generateProgram(seed)});
  DswpConfig cfg;
  cfg.numPartitions = GetParam();
  for (const auto& [name, src] : programs) {
    SCOPED_TRACE(name);
    std::string text[2], table[2];
    for (int run = 0; run < 2; ++run) {
      Module m;
      DiagEngine diag;
      ASSERT_TRUE(compileC(src, m, diag)) << diag.str();
      runDefaultPipeline(m);
      DswpResult r = runDswp(m, cfg);
      if (run == 0) {
        expectChannelOrder(r);
        expectProduceOrder(m, r);
      }
      text[run] = printModule(m);
      table[run] = channelTable(r);
    }
    EXPECT_EQ(table[0], table[1]);
    EXPECT_EQ(text[0], text[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Partitions, DswpChannelOrder, ::testing::Values(0u, 2u, 4u));

}  // namespace
}  // namespace twill
