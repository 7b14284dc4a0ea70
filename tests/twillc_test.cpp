// End-to-end tests for the twillc CLI binary: spawns the real executable
// (path injected by CMake as TWILLC_PATH) and validates exit codes, the
// human-readable report, and the shape of the --json output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "src/support/json.h"

namespace {

#ifndef TWILLC_PATH
#error "TWILLC_PATH must be defined to the twillc binary location"
#endif

struct RunResult {
  int exitCode = -1;
  std::string out;
};

/// Runs `twillc <args>` capturing stdout (stderr is folded in so failures
/// show up in test logs).
RunResult runTwillc(const std::string& args) {
  RunResult r;
  std::string cmd = std::string(TWILLC_PATH) + " " + args + " 2>&1";
  std::FILE* p = popen(cmd.c_str(), "r");
  if (!p) return r;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) r.out.append(buf, n);
  int status = pclose(p);
  r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

/// ctest runs each TEST as its own concurrent process, so temp files must
/// be unique per test to avoid write/read races.
std::string tempPath(const std::string& suffix) {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  return testing::TempDir() + "twillc_" + info->name() + suffix;
}

std::string writeTempSource(const std::string& contents) {
  std::string path = tempPath("_input.c");
  std::ofstream f(path);
  f << contents;
  return path;
}

std::string writeTempRequest(const std::string& doc) {
  std::string path = tempPath("_request.json");
  std::ofstream f(path);
  f << doc;
  return path;
}

/// Minimal JSON validity scanner: checks that the document is one object
/// with balanced braces/brackets and well-formed strings. Not a full
/// parser, but enough to reject truncated or comma-broken output.
bool looksLikeValidJson(const std::string& s) {
  int depth = 0;
  bool inString = false, escaped = false, sawTop = false;
  for (char c : s) {
    if (inString) {
      if (escaped)
        escaped = false;
      else if (c == '\\')
        escaped = true;
      else if (c == '"')
        inString = false;
      continue;
    }
    switch (c) {
      case '"': inString = true; break;
      case '{':
      case '[':
        ++depth;
        sawTop = true;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return sawTop && depth == 0 && !inString;
}

const char* kQuickstartProgram =
    "int data[64];\n"
    "int main(void) {\n"
    "  unsigned x = 12345u;\n"
    "  for (int i = 0; i < 64; i++) {\n"
    "    x = x * 1664525u + 1013904223u;\n"
    "    data[i] = (int)(x >> 24);\n"
    "  }\n"
    "  int sum = 0;\n"
    "  for (int i = 0; i < 64; i++) sum += data[i];\n"
    "  return sum;\n"
    "}\n";

TEST(TwillcTest, JsonReportHasCyclesResultAndPower) {
  std::string src = writeTempSource(kQuickstartProgram);
  RunResult r = runTwillc("--json " + src);
  ASSERT_EQ(r.exitCode, 0) << r.out;
  EXPECT_TRUE(looksLikeValidJson(r.out)) << r.out;
  // The acceptance shape: simulated cycle counts, the checksum result, and
  // the power estimate must all be present.
  EXPECT_NE(r.out.find("\"cycles\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"result\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"power\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"flows\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"speedups\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"ok\": true"), std::string::npos) << r.out;
  // Name defaults to the source file stem.
  EXPECT_NE(r.out.find("\"name\": \"twillc_JsonReportHasCyclesResultAndPower_input\""),
            std::string::npos)
      << r.out;
}

TEST(TwillcTest, HumanReportMentionsAllThreeFlows) {
  std::string src = writeTempSource(kQuickstartProgram);
  RunResult r = runTwillc(src);
  ASSERT_EQ(r.exitCode, 0) << r.out;
  EXPECT_NE(r.out.find("pure SW"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("pure HW"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("Twill"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("power"), std::string::npos) << r.out;
}

TEST(TwillcTest, ReadsProgramFromStdin) {
  std::string cmd = std::string("echo 'int main(void){return 41+1;}' | ") + TWILLC_PATH +
                    " --json - 2>&1";
  std::FILE* p = popen(cmd.c_str(), "r");
  ASSERT_NE(p, nullptr);
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) out.append(buf, n);
  int status = pclose(p);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << out;
  EXPECT_NE(out.find("\"name\": \"stdin\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"result\": 42"), std::string::npos) << out;
}

TEST(TwillcTest, WritesJsonToOutFile) {
  std::string src = writeTempSource(kQuickstartProgram);
  std::string outPath = tempPath("_out.json");
  std::remove(outPath.c_str());
  RunResult r = runTwillc("--json --out " + outPath + " " + src);
  ASSERT_EQ(r.exitCode, 0) << r.out;
  std::ifstream f(outPath);
  ASSERT_TRUE(f.good());
  std::string contents((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_TRUE(looksLikeValidJson(contents)) << contents;
  EXPECT_NE(contents.find("\"power\""), std::string::npos);
}

TEST(TwillcTest, TraceFlagWritesABalancedChromeTrace) {
  std::string src = writeTempSource(kQuickstartProgram);
  std::string tracePath = tempPath("_trace.json");
  std::remove(tracePath.c_str());
  RunResult r = runTwillc("--json --trace " + tracePath + " " + src);
  ASSERT_EQ(r.exitCode, 0) << r.out;
  std::ifstream f(tracePath);
  ASSERT_TRUE(f.good()) << "--trace must write the file";
  std::string trace((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_EQ(trace.compare(0, 17, "{\"traceEvents\": ["), 0) << trace.substr(0, 40);
  EXPECT_TRUE(looksLikeValidJson(trace));
  // Structurally sound: every span begin has an end, and both the compile
  // (pid 1, wall us) and sim (pid 2, cycles) clock domains are present.
  auto count = [&trace](const char* needle) {
    size_t n = 0;
    for (size_t p = trace.find(needle); p != std::string::npos; p = trace.find(needle, p + 1))
      ++n;
    return n;
  };
  EXPECT_GT(count("\"ph\":\"B\""), 0u);
  EXPECT_EQ(count("\"ph\":\"B\""), count("\"ph\":\"E\""));
  EXPECT_GT(count("\"pid\":1,"), 0u);
  EXPECT_GT(count("\"pid\":2,"), 0u);
}

TEST(TwillcTest, SimKnobsAreAccepted) {
  std::string src = writeTempSource(kQuickstartProgram);
  RunResult r = runTwillc("--json --queue-capacity 16 --queue-latency 4 --partitions 2 " + src);
  ASSERT_EQ(r.exitCode, 0) << r.out;
  EXPECT_NE(r.out.find("\"ok\": true"), std::string::npos) << r.out;
  // Each valued flag takes its request field's whole range: sim.max_cycles
  // accepts the 2^40 default, above UINT_MAX.
  RunResult big = runTwillc("--max-cycles 1099511627776 --no-hw --no-twill " + src);
  EXPECT_EQ(big.exitCode, 0) << big.out;
  // Values are decimal text, not JSON: a bare leading '.' parses.
  RunResult frac = runTwillc("--sw-fraction .5 --verify-only " + src);
  EXPECT_EQ(frac.exitCode, 0) << frac.out;
}

TEST(TwillcTest, SkippedFlowsAreMarkedNotRan) {
  std::string src = writeTempSource(kQuickstartProgram);
  RunResult r = runTwillc("--json --no-hw " + src);
  ASSERT_EQ(r.exitCode, 0) << r.out;
  // A consumer must be able to tell "flow disabled" from "flow failed".
  EXPECT_NE(r.out.find("\"ran\": false"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"ran\": true"), std::string::npos) << r.out;
  // An SW/HW-only run (no Twill flow at all) is still a successful run.
  RunResult noTwill = runTwillc("--json --no-twill " + src);
  EXPECT_EQ(noTwill.exitCode, 0) << noTwill.out;
  EXPECT_NE(noTwill.out.find("\"ok\": true"), std::string::npos) << noTwill.out;
}

TEST(TwillcTest, FailedRunDoesNotClobberHumanOutFile) {
  std::string good = writeTempSource(kQuickstartProgram);
  std::string outPath = tempPath("_report.txt");
  ASSERT_EQ(runTwillc("--out " + outPath + " " + good).exitCode, 0);
  std::string bad = tempPath("_bad.c");
  {
    std::ofstream f(bad);
    f << "int main( {";
  }
  EXPECT_EQ(runTwillc("--out " + outPath + " " + bad).exitCode, 1);
  std::ifstream f(outPath);
  std::string contents((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_FALSE(contents.empty()) << "previous report was truncated away";
}

TEST(TwillcTest, BadUsageExitsWithTwo) {
  EXPECT_EQ(runTwillc("--definitely-not-a-flag").exitCode, 2);
  EXPECT_EQ(runTwillc("").exitCode, 2);            // no input file
  EXPECT_EQ(runTwillc("--sw-fraction 7 x.c").exitCode, 2);
  EXPECT_EQ(runTwillc("--kernel no_such_kernel").exitCode, 2);
  // strtoul would silently wrap these; the CLI must reject them.
  EXPECT_EQ(runTwillc("--queue-capacity -1 x.c").exitCode, 2);
  EXPECT_EQ(runTwillc("--queue-capacity 0 x.c").exitCode, 2);
  EXPECT_EQ(runTwillc("--processors 0 x.c").exitCode, 2);
  EXPECT_EQ(runTwillc("--partitions '' x.c").exitCode, 2);
  EXPECT_EQ(runTwillc("--partitions 99999999999999999999 x.c").exitCode, 2);
  // Each valued flag takes its request field's range: the document rejects
  // these three, so the CLI must too.
  EXPECT_EQ(runTwillc("--max-cycles 0 x.c").exitCode, 2);
  EXPECT_EQ(runTwillc("--max-partitions 0 x.c").exitCode, 2);
  EXPECT_EQ(runTwillc("--sw-fraction nan x.c").exitCode, 2);
  // A --request document names its own program.
  const std::string req = writeTempRequest("{\"kernel\": \"mips\"}");
  EXPECT_EQ(runTwillc("--request " + req + " --kernel mips").exitCode, 2);
}

TEST(TwillcTest, FlagsOverrideTheRequestDocument) {
  // README: "later CLI flags override the document's knobs" — a switch and
  // a valued flag alike.
  std::string req = writeTempRequest(
      "{\"source\": \"int main(void) { return 7; }\", \"flows\": {\"hw\": true},"
      " \"sim\": {\"max_cycles\": 1099511627776}}");
  RunResult r = runTwillc("--request " + req + " --no-hw --json");
  ASSERT_EQ(r.exitCode, 0) << r.out;
  twill::JsonValue doc;
  std::string error;
  ASSERT_TRUE(twill::parseJson(r.out, doc, error)) << error << "\n" << r.out;
  const twill::JsonValue* flows = doc.get("flows");
  ASSERT_TRUE(flows != nullptr && flows->get("hw") != nullptr) << r.out;
  const twill::JsonValue* ran = flows->get("hw")->get("ran");
  ASSERT_TRUE(ran != nullptr && ran->isBool()) << r.out;
  EXPECT_FALSE(ran->asBool()) << r.out;
  // Two cycles cannot finish any flow: the flag, not the document, decided.
  EXPECT_EQ(runTwillc("--request " + req + " --max-cycles 2").exitCode, 4);
}

// The exit-code contract (documented in --help; twilld and CI dispatch on
// it): 0 success / 1 compile / 2 usage / 3 verification / 4 simulation.
// Each class is pinned by an input that can only fail in that class.
const char* kTwoCallSiteProgram =
    "int acc[8];\n"
    "int f(int s) {\n"
    "  int t = 0;\n"
    "  for (int i = 0; i < 8; i++) { acc[i] = acc[i] * 3 + s + i; t += acc[i]; }\n"
    "  for (int i = 0; i < 8; i++) { t ^= acc[i] << (i & 3); }\n"
    "  return t;\n"
    "}\n"
    "int main(void) { int a = f(3); int b = f(a & 15); return a + b; }\n";

TEST(TwillcTest, VerificationFailureExitsWithThree) {
  // --unseed-semaphores re-creates the historical unseeded-overlap-guard
  // bug; the static verifier must catch it before any simulation starts.
  std::string src = writeTempSource(kTwoCallSiteProgram);
  RunResult r = runTwillc("--inline-threshold 0 --partitions 2 --unseed-semaphores " + src);
  EXPECT_EQ(r.exitCode, 3) << r.out;
  EXPECT_NE(r.out.find("partition verification failed"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("semaphore"), std::string::npos) << r.out;
}

TEST(TwillcTest, VerifyFailureJsonCarriesKindAndDiagnostics) {
  std::string src = writeTempSource(kTwoCallSiteProgram);
  RunResult r =
      runTwillc("--json --inline-threshold 0 --partitions 2 --unseed-semaphores " + src);
  EXPECT_EQ(r.exitCode, 3) << r.out;
  EXPECT_TRUE(looksLikeValidJson(r.out)) << r.out;
  EXPECT_NE(r.out.find("\"failure_kind\": \"verify\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"verify_diagnostics\""), std::string::npos) << r.out;
}

TEST(TwillcTest, SimulationFailureExitsWithFour) {
  // A two-cycle budget cannot complete any kernel: pure-SW fails first and
  // is classified as a simulation failure.
  std::string src = writeTempSource(kQuickstartProgram);
  RunResult r = runTwillc("--max-cycles 2 " + src);
  EXPECT_EQ(r.exitCode, 4) << r.out;
}

TEST(TwillcTest, VerifyOnlySkipsSimulationAndReportsCounts) {
  std::string src = writeTempSource(kQuickstartProgram);
  RunResult human = runTwillc("--verify-only --partitions 2 " + src);
  ASSERT_EQ(human.exitCode, 0) << human.out;
  EXPECT_NE(human.out.find("partition verified"), std::string::npos) << human.out;

  RunResult json = runTwillc("--json --verify-only --partitions 2 " + src);
  ASSERT_EQ(json.exitCode, 0) << json.out;
  EXPECT_TRUE(looksLikeValidJson(json.out)) << json.out;
  EXPECT_NE(json.out.find("\"ok\": true"), std::string::npos) << json.out;
  // No flow ran; a consumer must not mistake this for a simulated report.
  EXPECT_EQ(json.out.find("\"ran\": true"), std::string::npos) << json.out;

  // Verify-only still fails (with the verify exit code) on a broken protocol.
  std::string bad = writeTempSource(kTwoCallSiteProgram);
  RunResult broken =
      runTwillc("--verify-only --inline-threshold 0 --partitions 2 --unseed-semaphores " + bad);
  EXPECT_EQ(broken.exitCode, 3) << broken.out;
}

TEST(TwillcTest, NoVerifyLetsTheProtocolBugReachSimulation) {
  // The same bug with verification disabled must fall through to the
  // dynamic layer and be classified as a simulation failure (exit 4) —
  // pinning that the verifier is what upgrades it to a compile-time error.
  std::string src = writeTempSource(kTwoCallSiteProgram);
  RunResult r =
      runTwillc("--no-verify --inline-threshold 0 --partitions 2 --unseed-semaphores " + src);
  EXPECT_EQ(r.exitCode, 4) << r.out;
}

TEST(TwillcTest, CompileErrorExitsWithOneAndReportsDiagnostics) {
  std::string src = writeTempSource("int main( {");
  RunResult r = runTwillc(src);
  EXPECT_EQ(r.exitCode, 1);
  EXPECT_NE(r.out.find("twillc:"), std::string::npos) << r.out;
}

TEST(TwillcTest, HelpAndListKernels) {
  RunResult help = runTwillc("--help");
  EXPECT_EQ(help.exitCode, 0);
  EXPECT_NE(help.out.find("usage: twillc"), std::string::npos);
  // The exit-code table documents the resource-limit contract (code 5).
  EXPECT_NE(help.out.find("5  resource limit breached"), std::string::npos) << help.out;
  EXPECT_NE(help.out.find("--timeout-ms"), std::string::npos) << help.out;
  EXPECT_NE(help.out.find("--max-memory-mb"), std::string::npos) << help.out;
}

// --- resource-limit contract (exit code 5) ---------------------------------

TEST(TwillcTest, OversizedGlobalBreachesDefaultMemoryCeilingWithExitFive) {
  // 100M ints = 400 MB of simulated memory against the 4 MiB default.
  std::string src =
      writeTempSource("int g[100000000];\nint main() { g[0] = 1; return g[0]; }\n");
  RunResult r = runTwillc("--json " + src);
  EXPECT_EQ(r.exitCode, 5) << r.out;
  EXPECT_NE(r.out.find("\"failure_kind\": \"resource\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("does not fit in simulated memory"), std::string::npos) << r.out;
}

TEST(TwillcTest, MaxMemoryMbFlagLowersTheCeiling) {
  // ~1.2 MB of globals: fits the 4 MiB default, breaches a 1 MiB ceiling.
  std::string src =
      writeTempSource("int g[300000];\nint main() { g[0] = 7; return g[0]; }\n");
  EXPECT_EQ(runTwillc(src).exitCode, 0);
  RunResult r = runTwillc("--max-memory-mb 1 " + src);
  EXPECT_EQ(r.exitCode, 5) << r.out;
  EXPECT_EQ(runTwillc("--max-memory-mb 0 " + src).exitCode, 2);
  EXPECT_EQ(runTwillc("--max-memory-mb 99999 " + src).exitCode, 2);
}

TEST(TwillcTest, TimeoutMsBoundsANonTerminatingProgramWithExitFive) {
  // Unlimited by default, `while (1) {}` would spin for the full 2^40-cycle
  // budget; a wall-clock budget turns it into a prompt exit-5 failure.
  std::string src = writeTempSource("int main() { while (1) { } return 0; }\n");
  RunResult r = runTwillc("--json --timeout-ms 200 " + src);
  EXPECT_EQ(r.exitCode, 5) << r.out;
  EXPECT_NE(r.out.find("\"failure_kind\": \"resource\""), std::string::npos) << r.out;
}

TEST(TwillcTest, MissingMainIsACompileErrorNotACrash) {
  std::string src = writeTempSource("int helper(int x) { return x + 1; }\n");
  RunResult r = runTwillc(src);
  EXPECT_EQ(r.exitCode, 1) << r.out;
  EXPECT_NE(r.out.find("no 'main' function"), std::string::npos) << r.out;
}

TEST(TwillcTest, ListKernelsPrintsAllEightOnePerLine) {
  RunResult list = runTwillc("--list-kernels");
  ASSERT_EQ(list.exitCode, 0);
  // One line per kernel, the name as the first token, thesis table order.
  const char* expected[] = {"adpcm", "aes", "blowfish", "gsm", "jpeg", "mips", "mpeg2", "sha"};
  std::vector<std::string> firstTokens;
  std::istringstream lines(list.out);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    firstTokens.push_back(line.substr(0, line.find_first_of(" \t")));
  }
  ASSERT_EQ(firstTokens.size(), 8u) << list.out;
  std::vector<std::string> sorted = firstTokens;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(sorted[i], expected[i]) << list.out;
}

}  // namespace
