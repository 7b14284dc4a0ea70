// Tests for the CompileRequest v1 document parser and the cache keys the
// daemon's artifact cache is built on (src/driver/request.h).
#include <gtest/gtest.h>

#include <string>

#include "src/driver/request.h"
#include "src/support/json.h"

namespace twill {
namespace {

CompileRequest parseOk(const std::string& text) {
  CompileRequest req;
  std::string error;
  EXPECT_TRUE(parseCompileRequest(text, req, error)) << text << "\n" << error;
  return req;
}

std::string parseErr(const std::string& text) {
  CompileRequest req;
  std::string error;
  EXPECT_FALSE(parseCompileRequest(text, req, error)) << text;
  return error;
}

TEST(CompileRequestTest, MinimalSourceRequestGetsDefaults) {
  CompileRequest req = parseOk("{\"source\": \"int main() { return 7; }\"}");
  EXPECT_EQ(req.name, "request");
  EXPECT_EQ(req.source, "int main() { return 7; }");
  EXPECT_TRUE(req.kernel.empty());
  // Defaults must be the DriverOptions defaults — same run twillc does with
  // no flags.
  DriverOptions d;
  EXPECT_EQ(req.options.inlineThreshold, d.inlineThreshold);
  EXPECT_EQ(req.options.dswp.numPartitions, d.dswp.numPartitions);
  EXPECT_EQ(req.options.sim.queueCapacity, d.sim.queueCapacity);
  EXPECT_EQ(req.options.verifyPartition, d.verifyPartition);
  EXPECT_EQ(req.options.limits.memLimitBytes, d.limits.memLimitBytes);
}

TEST(CompileRequestTest, KernelRequestResolvesSourceAndName) {
  CompileRequest req = parseOk("{\"kernel\": \"mips\"}");
  EXPECT_EQ(req.name, "mips");
  EXPECT_EQ(req.kernel, "mips");
  EXPECT_FALSE(req.source.empty());
  // An explicit name wins over the kernel default.
  CompileRequest named = parseOk("{\"kernel\": \"mips\", \"name\": \"my-run\"}");
  EXPECT_EQ(named.name, "my-run");
  EXPECT_EQ(named.source, req.source);
}

TEST(CompileRequestTest, FullDocumentSetsEveryKnob) {
  CompileRequest req = parseOk(
      "{\n"
      "  \"schema_version\": 1,\n"
      "  \"name\": \"tuned\",\n"
      "  \"source\": \"int main() { return 1; }\",\n"
      "  \"flows\": {\"sw\": true, \"hw\": false, \"twill\": true},\n"
      "  \"compile\": {\"inline_threshold\": 50, \"partitions\": 3,\n"
      "               \"max_partitions\": 4, \"min_instructions\": 9,\n"
      "               \"sw_fraction\": 0.25},\n"
      "  \"sim\": {\"queue_capacity\": 16, \"queue_latency\": 3,\n"
      "           \"processors\": 2, \"sched_quantum\": 500,\n"
      "           \"max_cycles\": 123456789},\n"
      "  \"hls\": {\"max_chain_depth\": 2, \"mem_ports_per_state\": 2,\n"
      "           \"queue_ports_per_state\": 2, \"multipliers_per_state\": 1,\n"
      "           \"dividers_per_state\": 2},\n"
      "  \"verify\": {\"partition\": false, \"only\": false,\n"
      "              \"unseed_semaphores\": true},\n"
      "  \"limits\": {\"timeout_ms\": 2000, \"max_memory_mb\": 8,\n"
      "              \"max_tokens\": 1000, \"max_ast_nodes\": 900,\n"
      "              \"max_nesting_depth\": 40, \"max_ir_instructions\": 800,\n"
      "              \"max_interp_steps\": 700}\n"
      "}");
  const DriverOptions& o = req.options;
  EXPECT_EQ(req.name, "tuned");
  EXPECT_TRUE(o.runPureSW);
  EXPECT_FALSE(o.runPureHW);
  EXPECT_TRUE(o.runTwill);
  EXPECT_EQ(o.inlineThreshold, 50u);
  EXPECT_EQ(o.dswp.numPartitions, 3u);
  EXPECT_EQ(o.dswp.maxPartitions, 4u);
  EXPECT_EQ(o.dswp.minInstructions, 9u);
  EXPECT_DOUBLE_EQ(o.dswp.swFraction, 0.25);
  EXPECT_EQ(o.sim.queueCapacity, 16u);
  EXPECT_EQ(o.sim.queueLatency, 3u);
  EXPECT_EQ(o.sim.numProcessors, 2u);
  EXPECT_EQ(o.sim.schedQuantum, 500u);
  EXPECT_EQ(o.sim.maxCycles, 123456789u);
  EXPECT_EQ(o.hls.maxChainDepth, 2u);
  EXPECT_EQ(o.hls.memPortsPerState, 2u);
  EXPECT_EQ(o.hls.queuePortsPerState, 2u);
  EXPECT_EQ(o.hls.multipliersPerState, 1u);
  EXPECT_EQ(o.hls.dividersPerState, 2u);
  EXPECT_FALSE(o.verifyPartition);
  EXPECT_FALSE(o.verifyOnly);
  EXPECT_TRUE(o.unseedSemaphores);
  EXPECT_DOUBLE_EQ(o.limits.stageTimeoutMs, 2000.0);
  EXPECT_EQ(o.limits.memLimitBytes, 8u << 20);
  EXPECT_EQ(o.limits.maxTokens, 1000u);
  EXPECT_EQ(o.limits.maxAstNodes, 900u);
  EXPECT_EQ(o.limits.maxNestingDepth, 40u);
  EXPECT_EQ(o.limits.maxIrInstructions, 800u);
  EXPECT_EQ(o.limits.maxInterpSteps, 700u);
}

TEST(CompileRequestTest, RequiresExactlyOneOfSourceOrKernel) {
  EXPECT_NE(parseErr("{}").find("exactly one"), std::string::npos);
  EXPECT_NE(parseErr("{\"name\": \"x\"}").find("exactly one"), std::string::npos);
  EXPECT_NE(parseErr("{\"source\": \"int main(){return 0;}\", \"kernel\": \"mips\"}")
                .find("mutually exclusive"),
            std::string::npos);
}

TEST(CompileRequestTest, RejectsUnknownFieldsEverywhere) {
  // v1 is strict: a typo'd knob must fail loudly, not run with defaults.
  EXPECT_NE(parseErr("{\"kernel\": \"mips\", \"bogus\": 1}").find("'bogus'"), std::string::npos);
  EXPECT_NE(parseErr("{\"kernel\": \"mips\", \"sim\": {\"queue_cap\": 8}}").find("queue_cap"),
            std::string::npos);
  EXPECT_NE(
      parseErr("{\"kernel\": \"mips\", \"compile\": {\"partition\": 2}}").find("partition"),
      std::string::npos);
}

TEST(CompileRequestTest, RejectsBadTypesAndRanges) {
  EXPECT_NE(parseErr("{\"kernel\": 3}"), "");
  EXPECT_NE(parseErr("{\"kernel\": \"nonesuch\"}").find("unknown kernel"), std::string::npos);
  EXPECT_NE(parseErr("{\"kernel\": \"mips\", \"sim\": {\"queue_capacity\": 0}}"), "");
  EXPECT_NE(parseErr("{\"kernel\": \"mips\", \"sim\": {\"queue_capacity\": -1}}"), "");
  EXPECT_NE(parseErr("{\"kernel\": \"mips\", \"sim\": {\"queue_capacity\": 1.5}}"), "");
  EXPECT_NE(parseErr("{\"kernel\": \"mips\", \"sim\": {\"processors\": 0}}"), "");
  EXPECT_NE(parseErr("{\"kernel\": \"mips\", \"compile\": {\"sw_fraction\": 1.5}}"), "");
  EXPECT_NE(parseErr("{\"kernel\": \"mips\", \"limits\": {\"max_memory_mb\": 4096}}"), "");
  EXPECT_NE(parseErr("{\"kernel\": \"mips\", \"limits\": {\"max_memory_mb\": 0}}"), "");
  EXPECT_NE(parseErr("{\"kernel\": \"mips\", \"flows\": {\"sw\": 1}}"), "");
  EXPECT_NE(parseErr("{\"kernel\": \"mips\", \"schema_version\": 2}").find("version"),
            std::string::npos);
  EXPECT_NE(parseErr("not json at all").find("not valid JSON"), std::string::npos);
}

TEST(CompileRequestTest, RunsThroughTheDriver) {
  CompileRequest req = parseOk(
      "{\"name\": \"seven\", \"source\": \"int main() { return 7; }\","
      " \"verify\": {\"only\": true}}");
  BenchmarkReport rep = runCompileRequest(req);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.name, "seven");
}

// --- CLI knob flags --------------------------------------------------------

TEST(KnobFlagTest, EachValuedTwillcFlagSetsItsRequestField) {
  // twillc's twelve valued flags, each with a value that both the flag and
  // the request field accept.
  const char* flags[][3] = {
      {"--inline-threshold", "7", "\"compile\": {\"inline_threshold\": 7}"},
      {"--partitions", "3", "\"compile\": {\"partitions\": 3}"},
      {"--max-partitions", "4", "\"compile\": {\"max_partitions\": 4}"},
      {"--min-instructions", "9", "\"compile\": {\"min_instructions\": 9}"},
      {"--sw-fraction", ".25", "\"compile\": {\"sw_fraction\": 0.25}"},
      {"--queue-capacity", "16", "\"sim\": {\"queue_capacity\": 16}"},
      {"--queue-latency", "5", "\"sim\": {\"queue_latency\": 5}"},
      {"--processors", "2", "\"sim\": {\"processors\": 2}"},
      {"--sched-quantum", "500", "\"sim\": {\"sched_quantum\": 500}"},
      {"--max-cycles", "1099511627777", "\"sim\": {\"max_cycles\": 1099511627777}"},
      {"--timeout-ms", "2000", "\"limits\": {\"timeout_ms\": 2000}"},
      {"--max-memory-mb", "8", "\"limits\": {\"max_memory_mb\": 8}"},
  };
  for (const auto& f : flags) {
    CompileRequest viaFlag = parseOk("{\"kernel\": \"mips\"}");
    std::string error;
    ASSERT_EQ(applyKnobFlag(f[0], f[1], viaFlag.options, error), KnobFlag::Set) << f[0] << error;
    CompileRequest viaDoc = parseOk(std::string("{\"kernel\": \"mips\", ") + f[2] + "}");
    EXPECT_EQ(requestCacheKey(viaFlag), requestCacheKey(viaDoc)) << f[0];
  }
  // No other knob is a flag: the boolean knobs are hand-written switches,
  // and hls.* and the remaining limits.* are document-only.
  DriverOptions o;
  std::string error;
  for (const char* flag : {"--sw", "--partition", "--unseed-semaphores", "--max-chain-depth",
                           "--max-tokens", "--max-interp-steps", "--jobs", "--name"})
    EXPECT_EQ(applyKnobFlag(flag, "1", o, error), KnobFlag::NotAKnob) << flag;
}

TEST(KnobFlagTest, FlagsTakeTheirFieldsRange) {
  DriverOptions o;
  std::string error;
  const char* bad[][2] = {
      {"--queue-capacity", "0"},
      {"--processors", "0"},
      {"--max-cycles", "0"},
      {"--max-partitions", "0"},
      {"--max-memory-mb", "0"},
      {"--max-memory-mb", "4096"},
      {"--sw-fraction", "nan"},
      {"--sw-fraction", "1.5"},
      {"--sw-fraction", ""},
      {"--partitions", "-1"},
      {"--partitions", " 1"},
      {"--partitions", "2x"},
      {"--partitions", ""},
      {"--partitions", "4294967296"},
      {"--max-cycles", "18446744073709551616"},
  };
  for (const auto& b : bad) {
    error.clear();
    EXPECT_EQ(applyKnobFlag(b[0], b[1], o, error), KnobFlag::BadValue) << b[0] << " " << b[1];
    EXPECT_NE(error.find(b[0]), std::string::npos) << error;
  }
  EXPECT_EQ(applyKnobFlag("--queue-capacity", nullptr, o, error), KnobFlag::BadValue);
  EXPECT_NE(error.find("requires a value"), std::string::npos) << error;
  // Failed flags leave the options untouched.
  EXPECT_EQ(o.sim.queueCapacity, DriverOptions().sim.queueCapacity);
  EXPECT_EQ(o.limits.memLimitBytes, DriverOptions().limits.memLimitBytes);
}

// --- cache keys ------------------------------------------------------------

TEST(CacheKeyTest, SimOnlyAxesShareACompileKey) {
  CompileRequest a = parseOk("{\"kernel\": \"mips\"}");
  CompileRequest b = parseOk(
      "{\"kernel\": \"mips\", \"sim\": {\"queue_capacity\": 32, \"queue_latency\": 5,"
      " \"processors\": 2, \"sched_quantum\": 100}}");
  // Same compile group: b re-simulates a's artifacts.
  EXPECT_EQ(compileCacheKey(a), compileCacheKey(b));
  EXPECT_NE(requestCacheKey(a), requestCacheKey(b));
  // And each axis alone splits only the full key.
  const char* variants[] = {
      "{\"kernel\": \"mips\", \"sim\": {\"queue_capacity\": 32}}",
      "{\"kernel\": \"mips\", \"sim\": {\"queue_latency\": 5}}",
      "{\"kernel\": \"mips\", \"sim\": {\"processors\": 2}}",
      "{\"kernel\": \"mips\", \"sim\": {\"sched_quantum\": 100}}",
  };
  for (const char* v : variants) {
    EXPECT_EQ(compileCacheKey(a), compileCacheKey(parseOk(v))) << v;
    EXPECT_NE(requestCacheKey(a), requestCacheKey(parseOk(v))) << v;
  }
}

TEST(CacheKeyTest, CompileAxesSplitTheKey) {
  CompileRequest base = parseOk("{\"kernel\": \"mips\"}");
  const char* variants[] = {
      "{\"kernel\": \"mips\", \"compile\": {\"partitions\": 2}}",
      "{\"kernel\": \"mips\", \"compile\": {\"sw_fraction\": 0.5}}",
      "{\"kernel\": \"mips\", \"compile\": {\"inline_threshold\": 1}}",
      "{\"kernel\": \"mips\", \"hls\": {\"max_chain_depth\": 2}}",
      "{\"kernel\": \"mips\", \"flows\": {\"hw\": false}}",
      "{\"kernel\": \"mips\", \"verify\": {\"partition\": false}}",
      "{\"kernel\": \"mips\", \"limits\": {\"max_memory_mb\": 8}}",
      "{\"kernel\": \"mips\", \"sim\": {\"max_cycles\": 1000}}",  // pure flows read it
      "{\"kernel\": \"adpcm\"}",                                  // different source
      // With the eight above, one variant per compile-key knob: every
      // document knob but the four Twill-only sim axes.
      "{\"kernel\": \"mips\", \"flows\": {\"sw\": false}}",
      "{\"kernel\": \"mips\", \"flows\": {\"twill\": false}}",
      "{\"kernel\": \"mips\", \"compile\": {\"max_partitions\": 3}}",
      "{\"kernel\": \"mips\", \"compile\": {\"min_instructions\": 5}}",
      "{\"kernel\": \"mips\", \"hls\": {\"mem_ports_per_state\": 2}}",
      "{\"kernel\": \"mips\", \"hls\": {\"queue_ports_per_state\": 2}}",
      "{\"kernel\": \"mips\", \"hls\": {\"multipliers_per_state\": 3}}",
      "{\"kernel\": \"mips\", \"hls\": {\"dividers_per_state\": 2}}",
      "{\"kernel\": \"mips\", \"verify\": {\"only\": true}}",
      "{\"kernel\": \"mips\", \"verify\": {\"unseed_semaphores\": true}}",
      "{\"kernel\": \"mips\", \"limits\": {\"timeout_ms\": 100}}",
      "{\"kernel\": \"mips\", \"limits\": {\"max_tokens\": 1000}}",
      "{\"kernel\": \"mips\", \"limits\": {\"max_ast_nodes\": 1000}}",
      "{\"kernel\": \"mips\", \"limits\": {\"max_nesting_depth\": 10}}",
      "{\"kernel\": \"mips\", \"limits\": {\"max_ir_instructions\": 1000}}",
      "{\"kernel\": \"mips\", \"limits\": {\"max_interp_steps\": 1000}}",
  };
  for (const char* v : variants)
    EXPECT_NE(compileCacheKey(base), compileCacheKey(parseOk(v))) << v;
}

TEST(CacheKeyTest, NameIsPresentationOnly) {
  CompileRequest a = parseOk("{\"kernel\": \"mips\"}");
  CompileRequest b = parseOk("{\"kernel\": \"mips\", \"name\": \"other\"}");
  EXPECT_EQ(compileCacheKey(a), compileCacheKey(b));
  EXPECT_NE(requestCacheKey(a), requestCacheKey(b));
}

TEST(CacheKeyTest, IdenticalRequestsShareTheFullKey) {
  const char* doc =
      "{\"kernel\": \"mips\", \"sim\": {\"queue_capacity\": 16},"
      " \"compile\": {\"partitions\": 2}}";
  EXPECT_EQ(requestCacheKey(parseOk(doc)), requestCacheKey(parseOk(doc)));
}

}  // namespace
}  // namespace twill
