// Property tests for the DSWP extractor over randomly generated programs.
//
// The fuzzing generator (src/fuzz/progen.h) emits C-subset sources (helper
// functions, nested loops, branches, switches, array traffic, mixed
// arithmetic); for every seed and partitioning configuration the extracted
// pipeline must produce the exact result of the original program, drain all
// data queues, and pass the IR verifier. This is the closest thing to a
// proof the control-replication scheme balances every produce with exactly
// one consume on every path.
#include <gtest/gtest.h>

#include "src/dswp/extract.h"
#include "src/frontend/lower.h"
#include "src/fuzz/progen.h"
#include "src/ir/interp.h"
#include "src/ir/verifier.h"
#include "src/transforms/passes.h"

namespace twill {
namespace {

class RandomExtraction : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RandomExtraction, PipelineEqualsReferenceAndDrainsQueues) {
  const std::string src = generateProgram(GetParam());
  SCOPED_TRACE(src);

  for (unsigned k : {2u, 4u}) {
    Module m;
    DiagEngine diag;
    ASSERT_TRUE(compileC(src, m, diag)) << diag.str();
    runDefaultPipeline(m);
    Interp ref(m);
    uint32_t expected = ref.run("main");

    Module m2;
    DiagEngine diag2;
    ASSERT_TRUE(compileC(src, m2, diag2));
    runDefaultPipeline(m2);
    DswpConfig cfg;
    cfg.numPartitions = k;
    DswpResult r = runDswp(m2, cfg);
    DiagEngine vd;
    ASSERT_TRUE(verifyModule(m2, vd)) << vd.str();

    PipelineInterp pi(m2);
    seedSemaphores(r, pi.channels());
    pi.addThread(r.mainMaster);
    for (const auto& t : r.threads)
      if (t.fn != r.mainMaster) pi.addThread(t.fn);
    auto out = pi.run();
    ASSERT_TRUE(out.ok) << out.message;
    EXPECT_EQ(out.result, expected) << "K=" << k;

    // Every data/arg/token queue must be fully drained at pipeline
    // completion — unmatched produce/consume pairs would leave residue.
    for (const auto& ch : r.channels) {
      if (ch.purpose == ChannelInfo::Purpose::Start ||
          ch.purpose == ChannelInfo::Purpose::Done)
        continue;  // dispatch-loop tokens may be legitimately in flight
      EXPECT_TRUE(pi.channels().queue(ch.id).empty())
          << "channel " << ch.id << " (" << ch.note << ") left "
          << pi.channels().queue(ch.id).size() << " values";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExtraction, ::testing::Range(1u, 33u));

}  // namespace
}  // namespace twill
