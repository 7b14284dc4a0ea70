// Differential fuzzing property + crash-corpus regression suite.
//
// Two halves:
//  * Property: every fixed-seed generated program (valid by construction,
//    src/fuzz/progen.h) must behave identically on the tree-walking
//    reference, the decoded per-inst engine, and the superblock tier
//    (whole-trace and budget-stop/resume) — src/fuzz/differential.h. The
//    seed set is fixed, so the suite is deterministic and wall-clock free;
//    the libFuzzer harnesses (fuzz/) explore beyond it.
//  * Regression: every checked-in crasher under tests/fuzz_corpus/ replays
//    through the exact harness entry points the fuzzers drive
//    (src/fuzz/harness.h); "returns without crashing" is the contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/fuzz/differential.h"
#include "src/fuzz/harness.h"
#include "src/fuzz/progen.h"

namespace twill {
namespace {

constexpr uint64_t kSeedBase = 0xD1FFE7EA11ull;  // arbitrary, fixed forever
constexpr unsigned kSeedCount = 200;

TEST(ProgenTest, DeterministicForAFixedSeed) {
  const std::string a = generateProgram(kSeedBase + 7);
  const std::string b = generateProgram(kSeedBase + 7);
  EXPECT_EQ(a, b);
  const std::string c = generateProgram(kSeedBase + 8);
  EXPECT_NE(a, c) << "adjacent seeds should not collide";
}

TEST(ProgenTest, GeneratedProgramsCompile) {
  // Every seed in the fixed set must produce a compiling program — a
  // generator regression that emits invalid source would otherwise turn
  // the differential property into a vacuous compile-failure loop.
  unsigned compiled = 0;
  for (unsigned i = 0; i < kSeedCount; ++i) {
    DifferentialResult r = runDifferential(generateProgram(kSeedBase + i));
    if (r.compiled) ++compiled;
  }
  EXPECT_EQ(compiled, kSeedCount);
}

TEST(DifferentialTest, EnginesAgreeOnTwoHundredGeneratedPrograms) {
  for (unsigned i = 0; i < kSeedCount; ++i) {
    const uint64_t seed = kSeedBase + i;
    const std::string source = generateProgram(seed);
    DifferentialResult r = runDifferential(source);
    ASSERT_TRUE(r.compiled) << "seed " << seed << ":\n" << r.detail << "\n" << source;
    ASSERT_TRUE(r.agree) << "seed " << seed << " diverged:\n" << r.detail << "\n" << source;
  }
}

TEST(DifferentialTest, AgreesOnTrappingPrograms) {
  // The property must hold for trapping programs too: identical trap
  // message and retired count on every engine (shared
  // memOutOfRangeMessage), not just identical results on clean runs. The
  // store lands 8 MB out, past the 4 MiB default memory.
  const char* kTrap = "int a[4]; int main() { a[2000000] = 5; return a[0]; }";
  DifferentialResult r = runDifferential(kTrap);
  ASSERT_TRUE(r.compiled) << r.detail;
  EXPECT_TRUE(r.agree) << r.detail;
  EXPECT_FALSE(r.finished) << "the program must trap";
  EXPECT_NE(r.detail.find("memory access out of range"), std::string::npos) << r.detail;
}

// --- corpus replay ---------------------------------------------------------

std::vector<std::filesystem::path> corpusFiles(const char* sub) {
  const std::filesystem::path dir = std::filesystem::path(TWILL_FUZZ_CORPUS_DIR) / sub;
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file()) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

using HarnessFn = void (*)(const uint8_t*, size_t);

void replayDirectory(const char* sub, HarnessFn fn) {
  const auto files = corpusFiles(sub);
  ASSERT_FALSE(files.empty()) << "empty corpus directory: " << sub;
  for (const auto& f : files) {
    SCOPED_TRACE(f.filename().string());
    const std::string bytes = slurp(f);
    // The contract: the harness returns, whatever the bytes. A crash or
    // abort here reproduces the original finding.
    fn(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  }
}

TEST(CorpusReplayTest, LexerCrashersStayFixed) { replayDirectory("lexer", fuzzLexer); }

TEST(CorpusReplayTest, ParserCrashersStayFixed) { replayDirectory("parser", fuzzParser); }

TEST(CorpusReplayTest, PipelineCrashersStayFixed) { replayDirectory("pipeline", fuzzPipeline); }

TEST(CorpusReplayTest, RequestDocumentCrashersStayFixed) {
  replayDirectory("request", fuzzRequest);
}

}  // namespace
}  // namespace twill
