// End-to-end tests for the twill-explore CLI and bench_main's --jobs
// fan-out: spawns the real binaries (paths injected by CMake) and checks
// that parallel runs reproduce serial output byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include <sys/wait.h>

#include "tests/normalize_walls.h"

namespace {

using twill::normalizeWalls;

#ifndef TWILL_EXPLORE_PATH
#error "TWILL_EXPLORE_PATH must be defined to the twill-explore binary location"
#endif
#ifndef BENCH_MAIN_PATH
#error "BENCH_MAIN_PATH must be defined to the bench_main binary location"
#endif

struct RunResult {
  int exitCode = -1;
  std::string out;
};

RunResult run(const std::string& cmd) {
  RunResult r;
  std::FILE* p = popen((cmd + " 2>&1").c_str(), "r");
  if (!p) return r;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) r.out.append(buf, n);
  int status = pclose(p);
  r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string tempPath(const std::string& suffix) {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  return testing::TempDir() + "explore_cli_" + info->name() + suffix;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
}

const char* kTinyGrid = " --kernel mips --partitions 0,2 --queue-capacity 2,8";

TEST(TwillExploreCliTest, JobsTwoMatchesSerialByteForByte) {
  std::string out1 = tempPath("_j1.json");
  std::string out2 = tempPath("_j2.json");
  RunResult r1 = run(std::string(TWILL_EXPLORE_PATH) + kTinyGrid + " --jobs 1 --out " + out1);
  ASSERT_EQ(r1.exitCode, 0) << r1.out;
  RunResult r2 = run(std::string(TWILL_EXPLORE_PATH) + kTinyGrid + " --jobs 2 --out " + out2);
  ASSERT_EQ(r2.exitCode, 0) << r2.out;
  std::string a = slurp(out1), b = slurp(out2);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "twill-explore output must not depend on --jobs";
  // And the grid actually ran: 4 points, a non-empty frontier.
  EXPECT_NE(a.find("\"points\""), std::string::npos);
  EXPECT_NE(a.find("\"frontier\""), std::string::npos);
  EXPECT_NE(a.find("\"points_ok\": 4"), std::string::npos) << a;
}

TEST(TwillExploreCliTest, TraceDirOutputIsJobsInvariant) {
  // Traces are stamped in sim cycles only, so like the exploration report
  // they must be byte-identical for any --jobs value.
  const std::string dir1 = tempPath("_traces_j1");
  const std::string dir2 = tempPath("_traces_j2");
  RunResult r1 = run("mkdir -p " + dir1 + " && " + TWILL_EXPLORE_PATH + kTinyGrid +
                     " --jobs 1 --out /dev/null --trace-dir " + dir1);
  ASSERT_EQ(r1.exitCode, 0) << r1.out;
  RunResult r2 = run("mkdir -p " + dir2 + " && " + TWILL_EXPLORE_PATH + kTinyGrid +
                     " --jobs 2 --out /dev/null --trace-dir " + dir2);
  ASSERT_EQ(r2.exitCode, 0) << r2.out;
  // 2 partition values x 2 queue capacities = 4 evaluated points.
  for (int p = 0; p < 4; ++p) {
    const std::string name = "/mips-p" + std::to_string(p) + ".trace.json";
    const std::string a = slurp(dir1 + name);
    const std::string b = slurp(dir2 + name);
    ASSERT_FALSE(a.empty()) << name << " missing or empty";
    // Compare via EXPECT_TRUE: traces run to tens of MB, and on mismatch
    // gtest's EXPECT_EQ unified diff is O(lines^2) — report the first
    // divergence instead.
    const size_t firstDiff =
        std::mismatch(a.begin(), a.begin() + std::min(a.size(), b.size()), b.begin()).first -
        a.begin();
    EXPECT_TRUE(a == b) << name << " must not depend on --jobs (sizes " << a.size() << " vs "
                        << b.size() << ", first divergence at byte " << firstDiff << ")";
    EXPECT_EQ(a.compare(0, 17, "{\"traceEvents\": ["), 0) << name;
  }
}

TEST(TwillExploreCliTest, WritesCsv) {
  std::string csv = tempPath(".csv");
  RunResult r = run(std::string(TWILL_EXPLORE_PATH) +
                    " --kernel mips --queue-capacity 2,8 --out /dev/null --csv " + csv);
  ASSERT_EQ(r.exitCode, 0) << r.out;
  std::string contents = slurp(csv);
  EXPECT_EQ(contents.compare(0, 6, "kernel"), 0) << contents;
  size_t lines = 0;
  for (char c : contents) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3u) << contents;  // header + 2 points
  EXPECT_NE(contents.find("mips,0,"), std::string::npos);
}

TEST(TwillExploreCliTest, VerificationFailureExitsWithThree) {
  // Exit-code contract (documented in --help): the most severe failure
  // class across all points wins, and a statically rejected protocol is a
  // verification failure (3), not a generic error (1).
  std::string src = tempPath("_guard.c");
  {
    std::ofstream f(src);
    f << "int acc[8];\n"
         "int f(int s) {\n"
         "  int t = 0;\n"
         "  for (int i = 0; i < 8; i++) { acc[i] = acc[i] * 3 + s + i; t += acc[i]; }\n"
         "  for (int i = 0; i < 8; i++) { t ^= acc[i] << (i & 3); }\n"
         "  return t;\n"
         "}\n"
         "int main(void) { int a = f(3); int b = f(a & 15); return a + b; }\n";
  }
  RunResult r = run(std::string(TWILL_EXPLORE_PATH) +
                    " --inline-threshold 0 --partitions 2 --unseed-semaphores --out /dev/null " +
                    src);
  EXPECT_EQ(r.exitCode, 3) << r.out;
  EXPECT_NE(r.out.find("partition verification failed"), std::string::npos) << r.out;
  // The built-in kernel form must see the same knobs: mpeg2 is the CHStone
  // kernel whose unseeded pipeline fails verification under these flags.
  RunResult kernel = run(std::string(TWILL_EXPLORE_PATH) +
                         " --kernel mpeg2 --inline-threshold 0 --partitions 2"
                         " --unseed-semaphores --out /dev/null");
  EXPECT_EQ(kernel.exitCode, 3) << kernel.out;
}

TEST(TwillExploreCliTest, ResourceBreachExitsWithFive) {
  // 8 MB of data does not fit the default 4 MiB simulated memory: a resource
  // breach, which --help lists as exit code 5.
  std::string src = tempPath("_big.c");
  {
    std::ofstream f(src);
    f << "int a[2000000];\n"
         "int main(void) { a[7] = 3; return a[7]; }\n";
  }
  RunResult r = run(std::string(TWILL_EXPLORE_PATH) + " --out /dev/null " + src);
  EXPECT_EQ(r.exitCode, 5) << r.out;
  RunResult help = run(std::string(TWILL_EXPLORE_PATH) + " --help");
  EXPECT_NE(help.out.find("5 resource limit breach"), std::string::npos) << help.out;
}

TEST(TwillExploreCliTest, BadUsageExitsWithTwo) {
  EXPECT_EQ(run(std::string(TWILL_EXPLORE_PATH) + " --kernel no_such_kernel").exitCode, 2);
  EXPECT_EQ(run(std::string(TWILL_EXPLORE_PATH) + " --queue-capacity 0").exitCode, 2);
  EXPECT_EQ(run(std::string(TWILL_EXPLORE_PATH) + " --sw-fraction 7").exitCode, 2);
  EXPECT_EQ(run(std::string(TWILL_EXPLORE_PATH) + " --jobs x").exitCode, 2);
  EXPECT_EQ(run(std::string(TWILL_EXPLORE_PATH) + " --definitely-not-a-flag").exitCode, 2);
}

TEST(BenchMainCliTest, JobsTwoMatchesSerialModuloWallClock) {
  std::string out1 = tempPath("_serial.json");
  std::string out2 = tempPath("_j2.json");
  RunResult r1 = run(std::string(BENCH_MAIN_PATH) + " --quick --out " + out1);
  ASSERT_EQ(r1.exitCode, 0) << r1.out;
  RunResult r2 = run(std::string(BENCH_MAIN_PATH) + " --quick --jobs 2 --out " + out2);
  ASSERT_EQ(r2.exitCode, 0) << r2.out;
  std::string a = slurp(out1), b = slurp(out2);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(normalizeWalls(a), normalizeWalls(b))
      << "bench_main reports must not depend on --jobs";
  // Wall fields exist (the normalization had something to do).
  EXPECT_NE(a.find("_wall_ms"), std::string::npos);
}

TEST(BenchMainCliTest, MalformedCountsExitWithTwo) {
  // Counts parse strictly, like twill-explore's and twilld's --jobs: trailing
  // text, signs, zero, overflow and non-numbers are usage errors.
  for (const char* args : {"--jobs 2x", "--repeat 1abc", "--jobs x", "--repeat 0", "--repeat -1",
                           "--jobs 4294967296"}) {
    RunResult r =
        run(std::string(BENCH_MAIN_PATH) + " --quick --kernel mips --out /dev/null " + args);
    EXPECT_EQ(r.exitCode, 2) << args << "\n" << r.out;
  }
}

}  // namespace
