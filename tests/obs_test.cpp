// Tests for src/obs: the trace recorder (structure, thread safety, export
// format), the metrics registry (exact concurrent totals, deterministic
// Prometheus rendering), and the determinism contract of cycle-stamped sim
// traces (byte-identical across repeated runs of the same configuration).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/driver/driver.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/json.h"

namespace {

using twill::Counter;
using twill::Gauge;
using twill::Histogram;
using twill::MetricsRegistry;
using twill::TraceRecorder;

size_t countOccurrences(const std::string& s, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = s.find(needle); pos != std::string::npos; pos = s.find(needle, pos + 1)) ++n;
  return n;
}

// --- trace recorder ---------------------------------------------------------

TEST(TraceRecorderTest, ExportsBalancedSpansAndMetadata) {
  TraceRecorder rec;
  rec.setProcessName(twill::kTracePidSim, "sim (cycles)");
  rec.setProcessName(twill::kTracePidSim, "sim (cycles)");  // idempotent
  rec.setThreadName(twill::kTracePidSim, 0, "worker");
  const TraceRecorder::StrId cat = rec.intern("thread");
  const TraceRecorder::StrId run = rec.intern("run");
  const TraceRecorder::StrId wake = rec.intern("wake");
  const TraceRecorder::StrId items = rec.intern("items");
  rec.span(twill::kTracePidSim, 0, cat, run, 10, 200);
  rec.instant(twill::kTracePidSim, 0, cat, wake, 50);
  rec.counter(twill::kTracePidSim, rec.intern("ch0 occupancy"), items, 60, 3);

  const std::string json = rec.toJson();
  EXPECT_EQ(json.compare(0, 17, "{\"traceEvents\": ["), 0) << json.substr(0, 40);
  EXPECT_EQ(countOccurrences(json, "\"ph\":\"B\""), countOccurrences(json, "\"ph\":\"E\""));
  EXPECT_EQ(countOccurrences(json, "\"ph\":\"B\""), 1u);
  EXPECT_EQ(countOccurrences(json, "\"ph\":\"I\""), 1u);
  EXPECT_EQ(countOccurrences(json, "\"ph\":\"C\""), 1u);
  // Duplicate process_name registration collapses to one metadata event.
  EXPECT_EQ(countOccurrences(json, "process_name"), 1u);
  EXPECT_EQ(countOccurrences(json, "thread_name"), 1u);
}

TEST(TraceRecorderTest, ConcurrentAppendsLoseNothing) {
  TraceRecorder rec;
  const TraceRecorder::StrId cat = rec.intern("t");
  const TraceRecorder::StrId name = rec.intern("n");
  constexpr int kThreads = 4, kSpans = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&rec, cat, name, t] {
      for (int i = 0; i < kSpans; ++i)
        rec.span(twill::kTracePidCompile, static_cast<uint32_t>(t), cat, name,
                 static_cast<uint64_t>(i), static_cast<uint64_t>(i) + 1);
    });
  for (auto& th : threads) th.join();
  const std::string json = rec.toJson();
  EXPECT_EQ(countOccurrences(json, "\"ph\":\"B\""), static_cast<size_t>(kThreads * kSpans));
  EXPECT_EQ(countOccurrences(json, "\"ph\":\"E\""), static_cast<size_t>(kThreads * kSpans));
}

TEST(TraceScopeTest, SpansAreNoOpsWithoutARecorderAndRecordedWithOne) {
  ASSERT_EQ(twill::currentTrace(), nullptr);
  { twill::TraceSpan noop("orphan"); }  // must not crash or record anywhere

  TraceRecorder rec;
  {
    twill::TraceScope scope(&rec);
    ASSERT_EQ(twill::currentTrace(), &rec);
    { twill::TraceSpan span("inlined-pass"); }
  }
  EXPECT_EQ(twill::currentTrace(), nullptr);
  const std::string json = rec.toJson();
  EXPECT_NE(json.find("inlined-pass"), std::string::npos);
  EXPECT_EQ(countOccurrences(json, "\"ph\":\"B\""), 1u);
}

TEST(StageSpanTest, CloseIsIdempotentAndMeasuresWithoutARecorder) {
  twill::StageSpan span("parse");  // no recorder installed: still times
  const double first = span.closeMs();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(span.closeMs(), first) << "closeMs must freeze the elapsed time";
}

// --- metrics ----------------------------------------------------------------

TEST(MetricsTest, HistogramBucketsAreLogScaleUpperInclusive) {
  Histogram h;
  h.observe(1);    // le=1 (bucket 0)
  h.observe(2);    // le=2 (bucket 1)
  h.observe(3);    // le=4 (bucket 2)
  h.observe(100);  // le=128 (bucket 7)
  EXPECT_EQ(h.bucketCount(0), 1u);
  EXPECT_EQ(h.bucketCount(1), 1u);
  EXPECT_EQ(h.bucketCount(2), 1u);
  EXPECT_EQ(h.bucketCount(7), 1u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.count(), 4u);
  // Far past 2^26 lands in +Inf, never out of bounds.
  h.observe(1ull << 40);
  EXPECT_EQ(h.bucketCount(Histogram::kFiniteBuckets), 1u);
}

TEST(MetricsTest, ConcurrentSamplesProduceExactTotals) {
  MetricsRegistry reg;
  Counter& c = reg.counter("obs_test_total", "t");
  Gauge& g = reg.gauge("obs_test_gauge", "t");
  Histogram& h = reg.histogram("obs_test_us", "t");
  constexpr int kThreads = 8, kOps = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        c.inc();
        g.add(1);
        g.add(-1);
        h.observe(static_cast<uint64_t>(i));
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads * kOps));
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads * kOps));
}

TEST(MetricsTest, PrometheusRenderingIsDeterministicAndCumulative) {
  MetricsRegistry reg;
  reg.counter("z_total", "last family", "kind=\"b\"").inc(2);
  reg.counter("z_total", "last family", "kind=\"a\"").inc(1);
  reg.gauge("depth", "queue depth").set(5);
  Histogram& h = reg.histogram("latency_us", "latency", "endpoint=\"/x\"");
  h.observe(1);
  h.observe(3);
  h.observe(1000);

  const std::string text = reg.renderPrometheus();
  // One HELP/TYPE header per family; families sorted by name.
  EXPECT_EQ(countOccurrences(text, "# HELP z_total"), 1u);
  EXPECT_EQ(countOccurrences(text, "# TYPE z_total counter"), 1u);
  EXPECT_EQ(countOccurrences(text, "# TYPE depth gauge"), 1u);
  EXPECT_EQ(countOccurrences(text, "# TYPE latency_us histogram"), 1u);
  EXPECT_LT(text.find("depth"), text.find("latency_us"));
  EXPECT_LT(text.find("latency_us"), text.find("z_total"));
  // Children sorted by label string within the family.
  EXPECT_LT(text.find("z_total{kind=\"a\"}"), text.find("z_total{kind=\"b\"}"));
  EXPECT_NE(text.find("latency_us_sum{endpoint=\"/x\"} 1004"), std::string::npos) << text;
  EXPECT_NE(text.find("latency_us_count{endpoint=\"/x\"} 3"), std::string::npos) << text;
  EXPECT_NE(text.find("latency_us_bucket{endpoint=\"/x\",le=\"+Inf\"} 3"), std::string::npos)
      << text;

  // Cumulative bucket counts are monotone nondecreasing in le order.
  uint64_t prev = 0;
  size_t pos = 0;
  size_t buckets = 0;
  while ((pos = text.find("latency_us_bucket{", pos)) != std::string::npos) {
    const size_t space = text.find(' ', pos);
    const uint64_t v = std::stoull(text.substr(space + 1));
    EXPECT_GE(v, prev) << "cumulative bucket counts must be monotone";
    prev = v;
    ++buckets;
    pos = space;
  }
  EXPECT_EQ(buckets, static_cast<size_t>(Histogram::kFiniteBuckets) + 1);

  EXPECT_EQ(text, reg.renderPrometheus()) << "rendering must be deterministic";
}

TEST(MetricsTest, ReRegistrationReturnsTheSameMetric) {
  MetricsRegistry reg;
  Counter& a = reg.counter("dup_total", "help", "x=\"1\"");
  Counter& b = reg.counter("dup_total", "ignored on re-registration", "x=\"1\"");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
}

// --- sim-trace determinism --------------------------------------------------

// The trace attached via SimConfig::trace is stamped exclusively in sim
// cycles, so re-simulating the same artifacts must reproduce the trace
// byte for byte — the property that makes explorer/twilld traces diffable
// across runs and --jobs counts.
TEST(SimTraceTest, RepeatedSimulationProducesByteIdenticalTraces) {
  const char* kProgram =
      "int acc[8];\n"
      "int f(int s) {\n"
      "  int t = 0;\n"
      "  for (int i = 0; i < 8; i++) { acc[i] = acc[i] * 3 + s + i; t += acc[i]; }\n"
      "  return t;\n"
      "}\n"
      "int main(void) { int a = f(3); int b = f(a & 15); return a + b; }\n";
  twill::DriverOptions opts;
  opts.dswp.numPartitions = 2;
  opts.keepTwillArtifacts = true;
  twill::BenchmarkReport rep = twill::runBenchmark("obs-trace", kProgram, opts);
  ASSERT_TRUE(rep.ok) << rep.error;
  ASSERT_TRUE(rep.twillArtifacts != nullptr);
  twill::TwillArtifacts& art = *rep.twillArtifacts;

  auto traceOnce = [&art]() {
    TraceRecorder rec;
    twill::SimConfig sim;
    sim.trace = &rec;
    twill::SimOutcome out = twill::simulateTwill(*art.module, art.dswp, sim, art.schedules);
    EXPECT_TRUE(out.ok) << out.message;
    return rec.toJson();
  };
  const std::string first = traceOnce();
  const std::string second = traceOnce();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "cycle-stamped sim traces must be byte-identical";
  // Sim rows live in the sim clock domain (pid 2) and balance B/E.
  EXPECT_NE(first.find("\"pid\":2"), std::string::npos);
  EXPECT_EQ(countOccurrences(first, "\"ph\":\"B\""), countOccurrences(first, "\"ph\":\"E\""));
  EXPECT_NE(first.find("scheduler"), std::string::npos);
}

// The three flows of one traced runBenchmark share the sim clock domain, so
// each numbers its rows from its own base: every row with an event carries
// exactly one name, and each flow has its own scheduler row.
TEST(SimTraceTest, EachFlowOfOneReportHasItsOwnRows) {
  const char* kProgram =
      "int acc[8];\n"
      "int main(void) { int t = 0;\n"
      "  for (int i = 0; i < 8; i++) { acc[i] = acc[i] * 3 + i; t += acc[i] >> 1; }\n"
      "  return t; }\n";
  TraceRecorder rec;
  twill::DriverOptions opts;
  opts.dswp.numPartitions = 2;
  opts.sim.trace = &rec;
  const twill::BenchmarkReport rep = twill::runBenchmark("obs-rows", kProgram, opts);
  ASSERT_TRUE(rep.ok) << rep.error;

  twill::JsonValue doc;
  std::string error;
  ASSERT_TRUE(twill::parseJson(rec.toJson(), doc, error)) << error;
  const twill::JsonValue* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<uint64_t, int> names;  // sim row -> thread_name count
  std::set<uint64_t> eventRows;
  int schedulerRows = 0;
  for (const twill::JsonValue& e : events->items()) {
    if (e.get("pid")->asUnsigned() != twill::kTracePidSim || !e.get("tid")) continue;
    const uint64_t tid = e.get("tid")->asUnsigned();
    const std::string& ph = e.get("ph")->asString();
    if (ph == "M" && e.get("name")->asString() == "thread_name") {
      ++names[tid];
      if (e.get("args")->get("name")->asString() == "scheduler") ++schedulerRows;
    } else if (ph == "B" || ph == "E" || ph == "I") {
      eventRows.insert(tid);
    }
  }
  EXPECT_FALSE(eventRows.empty());
  for (uint64_t tid : eventRows) EXPECT_EQ(names[tid], 1) << "sim row " << tid;
  EXPECT_EQ(schedulerRows, 3);
}

}  // namespace
