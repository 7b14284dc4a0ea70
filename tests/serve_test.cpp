// Tests for the twilld service stack (src/serve): the HTTP parser, the
// TwillService v1 API driven in-process, the real-socket server, and the
// twilld binary end to end (path injected by CMake as TWILLD_PATH, with
// TWILLC_PATH for the report-equality oracle).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "src/serve/http.h"
#include "src/serve/service.h"
#include "tests/normalize_walls.h"

namespace {

using twill::HttpRequest;
using twill::HttpResponse;
using twill::normalizeWalls;
using twill::ServiceConfig;
using twill::TwillService;

#ifndef TWILLD_PATH
#error "TWILLD_PATH must be defined to the twilld binary location"
#endif
#ifndef TWILLC_PATH
#error "TWILLC_PATH must be defined to the twillc binary location"
#endif

// Small programs with a pinned failure class each (mirrors twillc_test's
// exit-code contract suite).
const char* kQuickProgram =
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

const char* kTwoCallSiteProgram =
    "int acc[8];\n"
    "int f(int s) {\n"
    "  int t = 0;\n"
    "  for (int i = 0; i < 8; i++) { acc[i] = acc[i] * 3 + s + i; t += acc[i]; }\n"
    "  for (int i = 0; i < 8; i++) { t ^= acc[i] << (i & 3); }\n"
    "  return t;\n"
    "}\n"
    "int main(void) { int a = f(3); int b = f(a & 15); return a + b; }\n";

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string sourceRequest(const std::string& source, const std::string& extraGroups = "") {
  std::string doc = "{\"source\": \"" + jsonEscape(source) + "\"";
  if (!extraGroups.empty()) doc += ", " + extraGroups;
  return doc + "}";
}

HttpRequest post(const std::string& target, const std::string& body) {
  HttpRequest req;
  req.method = "POST";
  req.target = target;
  req.version = "HTTP/1.1";
  req.body = body;
  return req;
}

HttpRequest get(const std::string& target) {
  HttpRequest req;
  req.method = "GET";
  req.target = target;
  req.version = "HTTP/1.1";
  return req;
}

/// Submits and waits for completion; returns the job id.
std::string submitAndDrain(TwillService& svc, const std::string& body) {
  HttpResponse sub = svc.handle(post("/v1/jobs", body));
  EXPECT_EQ(sub.status, 202) << sub.body;
  const size_t idPos = sub.body.find("\"job_id\": ");
  EXPECT_NE(idPos, std::string::npos) << sub.body;
  svc.drain();
  return sub.body.substr(idPos + 10, sub.body.find(',', idPos) - idPos - 10);
}

/// Submits and waits for completion; returns the report response.
HttpResponse submitAndFetch(TwillService& svc, const std::string& body) {
  return svc.handle(get("/v1/jobs/" + submitAndDrain(svc, body) + "/report"));
}

/// Submits `body` twice: a miss, then a repeat the response cache answers
/// in full. Both jobs must finish with `status` and failure kind `kind`, and
/// the hit must serve the miss's document. Returns the first report.
HttpResponse fetchMissThenFullHit(TwillService& svc, const std::string& body, int status,
                                  const std::string& kind) {
  HttpResponse reports[2];
  for (HttpResponse& report : reports) {
    const std::string id = submitAndDrain(svc, body);
    report = svc.handle(get("/v1/jobs/" + id + "/report"));
    EXPECT_EQ(report.status, status) << report.body;
    const std::string state = svc.handle(get("/v1/jobs/" + id)).body;
    EXPECT_NE(state.find("\"failure_kind\": \"" + kind + "\""), std::string::npos) << state;
    EXPECT_NE(state.find("\"report_status\": " + std::to_string(status)), std::string::npos)
        << state;
  }
  EXPECT_EQ(svc.stats().cacheFullHits, 1u);
  EXPECT_EQ(reports[1].body, reports[0].body);
  return reports[0];
}

/// Value of a label-less or fully-labelled series in a Prometheus text
/// document (exact match of everything before the space). UINT64_MAX when
/// the series is absent.
uint64_t promValue(const std::string& text, const std::string& series) {
  const std::string needle = series + " ";
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n')
      return std::stoull(text.substr(pos + needle.size()));
    pos += needle.size();
  }
  return UINT64_MAX;
}

/// Each cache path's job-time histograms count exactly the jobs its cache
/// counter counts (every published job lands in one path's counter and both
/// of its histograms).
void expectJobHistogramsMatchCacheCounters(const std::string& text) {
  const std::pair<const char*, std::string> paths[] = {
      {"full", "twilld_cache_hits_total{level=\"full\"}"},
      {"artifact", "twilld_cache_hits_total{level=\"artifact\"}"},
      {"miss", "twilld_cache_misses_total"}};
  for (const auto& [path, counter] : paths) {
    const uint64_t jobs = promValue(text, counter);
    const std::string label = std::string("{path=\"") + path + "\"}";
    EXPECT_EQ(promValue(text, "twilld_job_queue_wait_us_count" + label), jobs) << path;
    EXPECT_EQ(promValue(text, "twilld_job_run_us_count" + label), jobs) << path;
  }
}

// --- HTTP parser ------------------------------------------------------------

TEST(HttpParserTest, ParsesRequestLineHeadersAndBody) {
  HttpRequest req;
  std::string error;
  ASSERT_TRUE(parseHttpRequest(
      "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbodyEXTRA", req, error))
      << error;
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.target, "/v1/jobs");
  EXPECT_EQ(req.header("host"), "x");  // names are lowercased
  EXPECT_EQ(req.body, "body");         // Content-Length bounds the body
}

TEST(HttpParserTest, RejectsMalformedInput) {
  HttpRequest req;
  std::string error;
  EXPECT_FALSE(parseHttpRequest("GET /\r\n\r\n", req, error));              // no version
  EXPECT_FALSE(parseHttpRequest("GET / HTTP/1.1\r\nbad\r\n\r\n", req, error));  // colonless
  EXPECT_FALSE(parseHttpRequest("get / HTTP/1.1\r\n\r\n", req, error));     // lowercase method
  EXPECT_FALSE(parseHttpRequest("GET x HTTP/1.1\r\n\r\n", req, error));     // no leading /
  EXPECT_FALSE(parseHttpRequest("GET / HTTP/1.1\r\nContent-Length: zz\r\n\r\n", req, error));
  EXPECT_FALSE(
      parseHttpRequest("GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", req, error));
  EXPECT_FALSE(parseHttpRequest("GET / HTTP/1.1\r\n", req, error));         // truncated head
}

// --- service: lifecycle and caching ----------------------------------------

TEST(ServeTest, SubmitPollFetchLifecycle) {
  TwillService svc{ServiceConfig{}};
  HttpResponse sub = svc.handle(post("/v1/jobs", sourceRequest(kQuickProgram)));
  ASSERT_EQ(sub.status, 202) << sub.body;
  EXPECT_NE(sub.body.find("\"job_id\": 1"), std::string::npos) << sub.body;
  svc.drain();
  HttpResponse status = svc.handle(get("/v1/jobs/1"));
  EXPECT_EQ(status.status, 200);
  EXPECT_NE(status.body.find("\"state\": \"done\""), std::string::npos) << status.body;
  EXPECT_NE(status.body.find("\"ok\": true"), std::string::npos) << status.body;
  HttpResponse report = svc.handle(get("/v1/jobs/1/report"));
  EXPECT_EQ(report.status, 200);
  EXPECT_NE(report.body.find("\"schema_version\": 1"), std::string::npos) << report.body;
  EXPECT_NE(report.body.find("\"cycles\""), std::string::npos) << report.body;
  HttpResponse health = svc.handle(get("/v1/healthz"));
  EXPECT_EQ(health.status, 200);
}

TEST(ServeTest, RepeatRequestIsAnsweredFromTheResponseCache) {
  TwillService svc{ServiceConfig{}};
  HttpResponse first = submitAndFetch(svc, sourceRequest(kQuickProgram));
  ASSERT_EQ(first.status, 200);

  // The repeat is answered at submit: done before the 202 returns, with no
  // drain() and no trip through the worker queue.
  HttpResponse sub = svc.handle(post("/v1/jobs", sourceRequest(kQuickProgram)));
  ASSERT_EQ(sub.status, 202) << sub.body;
  EXPECT_NE(sub.body.find("\"job_id\": 2"), std::string::npos) << sub.body;
  EXPECT_NE(sub.body.find("\"state\": \"done\""), std::string::npos) << sub.body;
  twill::ServiceStats s = svc.stats();
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.completed, 2u);
  const std::string text = svc.handle(get("/v1/metrics")).body;
  EXPECT_EQ(promValue(text, "twilld_pool_queue_depth"), 0u) << text;
  EXPECT_EQ(promValue(text, "twilld_pool_in_flight"), 0u) << text;
  EXPECT_EQ(promValue(text, "twilld_job_queue_wait_us_bucket{path=\"full\",le=\"1\"}"), 1u)
      << "a full hit never waits for a worker";

  // The cached answer is the stored document: byte-identical, wall times
  // included (nothing re-ran).
  HttpResponse second = svc.handle(get("/v1/jobs/2/report"));
  EXPECT_EQ(second.status, 200);
  EXPECT_EQ(first.body, second.body);
  s = svc.stats();
  EXPECT_EQ(s.cacheMisses, 1u);
  EXPECT_EQ(s.cacheFullHits, 1u);
  EXPECT_EQ(s.cacheArtifactHits, 0u);
}

TEST(ServeTest, ReportWaitsForAnInFlightJob) {
  TwillService svc{ServiceConfig{}};
  HttpResponse sub = svc.handle(post("/v1/jobs", sourceRequest(kQuickProgram)));
  ASSERT_EQ(sub.status, 202) << sub.body;
  EXPECT_NE(sub.body.find("\"state\": \"queued\""), std::string::npos) << sub.body;
  // No drain(): the poll itself is held until the miss finishes.
  HttpResponse report = svc.handle(get("/v1/jobs/1/report"));
  EXPECT_EQ(report.status, 200) << report.body;
  EXPECT_NE(report.body.find("\"schema_version\": 1"), std::string::npos) << report.body;
  EXPECT_NE(report.body.find("\"cycles\""), std::string::npos) << report.body;
}

TEST(ServeTest, JobTableKeepsOnlyTheNewestCompletedJobs) {
  ServiceConfig cfg;
  cfg.maxRetainedJobs = 2;
  TwillService svc{cfg};
  // A miss, then two repeats answered from the response cache: every
  // completion path counts against the retention window.
  for (int i = 0; i < 3; ++i) (void)submitAndDrain(svc, sourceRequest(kQuickProgram));
  EXPECT_EQ(svc.handle(get("/v1/jobs/1")).status, 404);
  EXPECT_EQ(svc.handle(get("/v1/jobs/2")).status, 200);
  EXPECT_EQ(svc.handle(get("/v1/jobs/3/report")).status, 200);
}

TEST(ServeTest, SimAxisChangeReusesTheCachedCompile) {
  TwillService warm{ServiceConfig{}};
  (void)submitAndFetch(warm, sourceRequest(kQuickProgram));
  HttpResponse reused = submitAndFetch(
      warm, sourceRequest(kQuickProgram, "\"sim\": {\"queue_capacity\": 16}"));
  twill::ServiceStats s = warm.stats();
  EXPECT_EQ(s.cacheMisses, 1u);
  EXPECT_EQ(s.cacheArtifactHits, 1u) << "sim-only change should not recompile";
  expectJobHistogramsMatchCacheCounters(warm.handle(get("/v1/metrics")).body);

  // The reuse path must be invisible in the report: a cold service running
  // the same request from scratch produces the identical document.
  TwillService cold{ServiceConfig{}};
  HttpResponse fresh = submitAndFetch(
      cold, sourceRequest(kQuickProgram, "\"sim\": {\"queue_capacity\": 16}"));
  ASSERT_EQ(reused.status, 200) << reused.body;
  EXPECT_EQ(normalizeWalls(reused.body), normalizeWalls(fresh.body));
}

// A compile whose data outgrows the default 4 MiB simulated memory, under a
// request ceiling it fits, is re-simulated like any other artifact hit.
TEST(ServeTest, ArtifactHitOverDefaultMemoryResimulates) {
  const std::string program =
      "int a[2000000];\n"
      "int main(void) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < 16; i++) a[i * 99991] = i * 11;\n"
      "  for (int i = 0; i < 16; i++) s += a[i * 99991] >> 1;\n"
      "  return s;\n"
      "}\n";
  const std::string limits = "\"limits\": {\"max_memory_mb\": 16}";
  const std::string deeper = limits + ", \"sim\": {\"queue_capacity\": 16}";
  TwillService warm{ServiceConfig{}};
  HttpResponse first = submitAndFetch(warm, sourceRequest(program, limits));
  ASSERT_EQ(first.status, 200) << first.body;
  HttpResponse reused = submitAndFetch(warm, sourceRequest(program, deeper));
  EXPECT_EQ(warm.stats().cacheArtifactHits, 1u);

  TwillService cold{ServiceConfig{}};
  HttpResponse fresh = submitAndFetch(cold, sourceRequest(program, deeper));
  ASSERT_EQ(fresh.status, 200) << fresh.body;
  ASSERT_EQ(reused.status, 200) << reused.body;
  EXPECT_EQ(normalizeWalls(reused.body), normalizeWalls(fresh.body));
}

TEST(ServeTest, ByteBudgetEvictsLeastRecentlyUsedEntries) {
  // A budget far below one kept module's arena footprint forces the byte
  // sweep to evict on every insertion; distinct compile keys create distinct
  // artifact entries, so only the newest survives.
  ServiceConfig cfg;
  cfg.maxCacheBytes = 4096;
  TwillService svc{cfg};
  (void)submitAndFetch(svc, sourceRequest(kQuickProgram));
  (void)submitAndFetch(svc, sourceRequest(kQuickProgram, "\"compile\": {\"partitions\": 2}"));
  (void)submitAndFetch(svc, sourceRequest(kTwoCallSiteProgram));

  const std::string text = svc.handle(get("/v1/metrics")).body;
  EXPECT_EQ(promValue(text, "twilld_cache_misses_total"), 3u) << text;
  // Every kept module's arena alone dwarfs the 4 KiB budget, so no artifact
  // entry can survive its own insertion sweep.
  EXPECT_EQ(promValue(text, "twilld_cache_artifact_entries"), 0u) << text;
  EXPECT_EQ(promValue(text, "twilld_cache_evictions_total{cache=\"artifact\"}"), 3u) << text;
  // Whatever survives (small response documents) fits the budget.
  EXPECT_LE(promValue(text, "twilld_cache_bytes"), 4096u) << text;

  // An unlimited-budget service keeps everything: the byte sweep is opt-in.
  TwillService unbounded{ServiceConfig{}};
  (void)submitAndFetch(unbounded, sourceRequest(kQuickProgram));
  (void)submitAndFetch(unbounded, sourceRequest(kTwoCallSiteProgram));
  const std::string utext = unbounded.handle(get("/v1/metrics")).body;
  EXPECT_EQ(promValue(utext, "twilld_cache_evictions_total{cache=\"artifact\"}"), 0u) << utext;
}

TEST(ServeTest, EntryCapEvictsTheLeastRecentlyUsedResponse) {
  ServiceConfig cfg;
  cfg.maxCacheEntries = 2;
  TwillService svc{cfg};
  const std::string a = sourceRequest(kQuickProgram);
  const std::string b = sourceRequest(kTwoCallSiteProgram);
  const std::string c = sourceRequest(kQuickProgram, "\"compile\": {\"partitions\": 2}");
  (void)submitAndDrain(svc, a);
  (void)submitAndDrain(svc, b);
  (void)submitAndDrain(svc, a);  // a full hit refreshes A's response, not its compile
  EXPECT_EQ(svc.stats().cacheFullHits, 1u);
  // A third entry in each cache: B's response and A's compile are the oldest.
  (void)submitAndDrain(svc, c);
  const std::string text = svc.handle(get("/v1/metrics")).body;
  EXPECT_EQ(promValue(text, "twilld_cache_evictions_total{cache=\"response\"}"), 1u) << text;
  EXPECT_EQ(promValue(text, "twilld_cache_evictions_total{cache=\"artifact\"}"), 1u) << text;

  (void)submitAndDrain(svc, a);
  EXPECT_EQ(svc.stats().cacheFullHits, 2u) << "the refreshed response must survive";
  (void)submitAndDrain(svc, b);
  const twill::ServiceStats s = svc.stats();
  EXPECT_EQ(s.cacheFullHits, 2u) << "the least recently used response must be gone";
  EXPECT_EQ(s.cacheArtifactHits, 1u) << "B's compile is newer than A's and must survive";
  EXPECT_EQ(s.cacheMisses, 3u);
}

TEST(ServeTest, CompileAxisChangeMissesTheCache) {
  TwillService svc{ServiceConfig{}};
  (void)submitAndFetch(svc, sourceRequest(kQuickProgram));
  (void)submitAndFetch(svc,
                       sourceRequest(kQuickProgram, "\"compile\": {\"partitions\": 2}"));
  twill::ServiceStats s = svc.stats();
  EXPECT_EQ(s.cacheMisses, 2u);
  EXPECT_EQ(s.cacheArtifactHits, 0u);
}

// --- service: FailureKind -> HTTP status -----------------------------------

TEST(ServeTest, CompileFailureMapsTo422) {
  TwillService svc{ServiceConfig{}};
  HttpResponse report = fetchMissThenFullHit(svc, sourceRequest("int main( {"), 422, "compile");
  EXPECT_NE(report.body.find("\"failure_kind\": \"compile\""), std::string::npos)
      << report.body;
  EXPECT_EQ(svc.stats().failCompile, 2u);
}

TEST(ServeTest, VerifyFailureMapsTo412WithDiagnostics) {
  TwillService svc{ServiceConfig{}};
  HttpResponse report = fetchMissThenFullHit(
      svc,
      sourceRequest(kTwoCallSiteProgram,
                    "\"compile\": {\"inline_threshold\": 0, \"partitions\": 2}, "
                    "\"verify\": {\"unseed_semaphores\": true}"),
      412, "verify");
  EXPECT_NE(report.body.find("\"failure_kind\": \"verify\""), std::string::npos)
      << report.body;
  // Structured diagnostics, produced without entering the simulator.
  EXPECT_NE(report.body.find("\"verify_diagnostics\""), std::string::npos) << report.body;
  EXPECT_EQ(svc.stats().failVerify, 2u);
}

TEST(ServeTest, SimFailureMapsTo500) {
  TwillService svc{ServiceConfig{}};
  HttpResponse report = fetchMissThenFullHit(
      svc, sourceRequest(kQuickProgram, "\"sim\": {\"max_cycles\": 2}"), 500, "sim");
  EXPECT_NE(report.body.find("\"failure_kind\": \"sim\""), std::string::npos) << report.body;
  EXPECT_EQ(svc.stats().failSim, 2u);
}

TEST(ServeTest, ResourceBreachMapsTo413) {
  // ~1.2 MB of globals against a 1 MiB request-side ceiling.
  TwillService svc{ServiceConfig{}};
  HttpResponse report = fetchMissThenFullHit(
      svc,
      sourceRequest("int g[300000];\nint main() { g[0] = 7; return g[0]; }\n",
                    "\"limits\": {\"max_memory_mb\": 1}"),
      413, "resource");
  EXPECT_NE(report.body.find("\"failure_kind\": \"resource\""), std::string::npos)
      << report.body;
  EXPECT_EQ(svc.stats().failResource, 2u);
}

TEST(ServeTest, ServerCeilingTightensRequestLimits) {
  // Same program, no request-side limit — the server's own 1 MiB ceiling
  // must reject it (requests can only tighten, never widen).
  ServiceConfig cfg;
  cfg.maxMemoryBytes = 1 << 20;
  TwillService svc{cfg};
  HttpResponse report = submitAndFetch(
      svc, sourceRequest("int g[300000];\nint main() { g[0] = 7; return g[0]; }\n"));
  EXPECT_EQ(report.status, 413) << report.body;
}

// --- service: malformed requests and routing --------------------------------

TEST(ServeTest, MalformedSubmissionsAreRejectedWith400) {
  TwillService svc{ServiceConfig{}};
  EXPECT_EQ(svc.handle(post("/v1/jobs", "")).status, 400);
  EXPECT_EQ(svc.handle(post("/v1/jobs", "{not json")).status, 400);
  EXPECT_EQ(svc.handle(post("/v1/jobs", "{\"no_source_or_kernel\": 1}")).status, 400);
  EXPECT_EQ(svc.handle(post("/v1/jobs", sourceRequest("int main() { return 0; }",
                                                      "\"typo_group\": {}")))
                .status,
            400);
  twill::ServiceStats s = svc.stats();
  EXPECT_EQ(s.rejectedRequests, 4u);
  EXPECT_EQ(s.submitted, 0u) << "rejected submissions must not become jobs";
}

TEST(ServeTest, RoutingErrors) {
  TwillService svc{ServiceConfig{}};
  EXPECT_EQ(svc.handle(get("/v1/nope")).status, 404);
  EXPECT_EQ(svc.handle(get("/v1/jobs/99")).status, 404);       // unknown job
  EXPECT_EQ(svc.handle(get("/v1/jobs/xyz")).status, 404);      // malformed id
  EXPECT_EQ(svc.handle(get("/v1/jobs")).status, 405);          // GET on POST-only
  EXPECT_EQ(svc.handle(post("/v1/stats", "{}")).status, 405);  // POST on GET-only
}

// --- service: observability -------------------------------------------------

TEST(ServeTest, HealthzReportsSchemaAndBuild) {
  TwillService svc{ServiceConfig{}};
  HttpResponse health = svc.handle(get("/v1/healthz"));
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"schema_version\": 1"), std::string::npos) << health.body;
  EXPECT_NE(health.body.find("\"ok\": true"), std::string::npos) << health.body;
  EXPECT_NE(health.body.find("\"build\": "), std::string::npos) << health.body;
}

TEST(ServeTest, MetricsEndpointRendersTheRequiredFamilies) {
  TwillService svc{ServiceConfig{}};
  (void)submitAndFetch(svc, sourceRequest(kQuickProgram));
  (void)submitAndFetch(svc, sourceRequest(kQuickProgram));  // full cache hit
  (void)svc.handle(post("/v1/jobs", "{not json"));          // rejected
  HttpResponse metrics = svc.handle(get("/v1/metrics"));
  ASSERT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.contentType, "text/plain; version=0.0.4");
  const std::string& text = metrics.body;

  EXPECT_EQ(promValue(text, "twilld_jobs_submitted_total"), 2u) << text;
  EXPECT_EQ(promValue(text, "twilld_jobs_completed_total"), 2u);
  EXPECT_EQ(promValue(text, "twilld_requests_rejected_total"), 1u);
  EXPECT_EQ(promValue(text, "twilld_cache_hits_total{level=\"full\"}"), 1u);
  EXPECT_EQ(promValue(text, "twilld_cache_hits_total{level=\"artifact\"}"), 0u);
  EXPECT_EQ(promValue(text, "twilld_cache_misses_total"), 1u);
  EXPECT_EQ(promValue(text, "twilld_jobs_outcome_total{failure_kind=\"none\"}"), 2u);
  EXPECT_EQ(promValue(text, "twilld_pool_queue_depth"), 0u);
  EXPECT_EQ(promValue(text, "twilld_pool_in_flight"), 0u);
  EXPECT_EQ(promValue(text, "twilld_cache_response_entries"), 1u);
  EXPECT_NE(promValue(text, "twilld_http_bytes_in_total"), UINT64_MAX);
  EXPECT_NE(promValue(text, "twilld_http_bytes_out_total"), UINT64_MAX);
  EXPECT_NE(promValue(text, "twilld_cache_evictions_total{cache=\"response\"}"), UINT64_MAX);
  // Per-endpoint latency histograms: /v1/jobs saw 3 requests (2 accepted +
  // 1 rejected), and every HELP/TYPE header renders exactly once.
  EXPECT_EQ(promValue(text, "twilld_http_requests_total{endpoint=\"/v1/jobs\"}"), 3u);
  EXPECT_EQ(promValue(text, "twilld_http_request_duration_us_count{endpoint=\"/v1/jobs\"}"),
            3u);
  EXPECT_NE(text.find("# TYPE twilld_http_request_duration_us histogram"), std::string::npos);
  EXPECT_NE(text.find("twilld_http_request_duration_us_bucket{endpoint=\"/v1/jobs\",le=\"+Inf\"} 3"),
            std::string::npos);

  // The sacred /v1/stats document still carries its exact field set.
  HttpResponse stats = svc.handle(get("/v1/stats"));
  for (const char* key : {"\"submitted\"", "\"completed\"", "\"queued\"", "\"running\"",
                          "\"rejected_requests\"", "\"full_hits\"", "\"artifact_hits\"",
                          "\"misses\"", "\"response_entries\"", "\"artifact_entries\"",
                          "\"ok\"", "\"compile\"", "\"verify\"", "\"sim\"", "\"resource\""})
    EXPECT_NE(stats.body.find(key), std::string::npos) << key << " missing: " << stats.body;
}

// The metrics-under-concurrency contract: totals are exact after a drain,
// no matter how many threads hammered the API (runs under TSan in CI, so
// this doubles as the data-race proof for the registry and the service).
TEST(ServeTest, MetricsStayExactUnderConcurrentSubmissions) {
  constexpr int kThreads = 4, kPerThread = 8;
  ServiceConfig cfg;
  cfg.jobs = 3;
  TwillService svc{cfg};
  std::atomic<bool> stop{false};
  // A scraper races the submitters so rendering overlaps sampling.
  std::thread scraper([&svc, &stop] {
    while (!stop.load()) (void)svc.handle(get("/v1/metrics"));
  });
  std::vector<std::thread> posters;
  for (int t = 0; t < kThreads; ++t)
    posters.emplace_back([&svc] {
      for (int i = 0; i < kPerThread; ++i)
        EXPECT_EQ(svc.handle(post("/v1/jobs", sourceRequest(kQuickProgram))).status, 202);
    });
  for (auto& th : posters) th.join();
  stop.store(true);
  scraper.join();
  svc.drain();

  const std::string text = svc.handle(get("/v1/metrics")).body;
  constexpr uint64_t kTotal = static_cast<uint64_t>(kThreads * kPerThread);
  EXPECT_EQ(promValue(text, "twilld_jobs_submitted_total"), kTotal);
  EXPECT_EQ(promValue(text, "twilld_jobs_completed_total"), kTotal);
  EXPECT_EQ(promValue(text, "twilld_jobs_outcome_total{failure_kind=\"none\"}"), kTotal);
  EXPECT_EQ(promValue(text, "twilld_http_requests_total{endpoint=\"/v1/jobs\"}"), kTotal);
  EXPECT_EQ(promValue(text, "twilld_http_request_duration_us_count{endpoint=\"/v1/jobs\"}"),
            kTotal);
  EXPECT_EQ(promValue(text, "twilld_pool_queue_depth"), 0u);
  EXPECT_EQ(promValue(text, "twilld_pool_in_flight"), 0u);
  // One miss, the rest answered from the response cache.
  EXPECT_EQ(promValue(text, "twilld_cache_misses_total") +
                promValue(text, "twilld_cache_hits_total{level=\"full\"}"),
            kTotal);
  expectJobHistogramsMatchCacheCounters(text);

  // Histogram buckets are cumulative: counts must be monotone in le order.
  const std::string prefix = "twilld_http_request_duration_us_bucket{endpoint=\"/v1/jobs\",";
  uint64_t prev = 0;
  size_t pos = 0, buckets = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    const size_t space = text.find(' ', pos);
    const uint64_t v = std::stoull(text.substr(space + 1));
    EXPECT_GE(v, prev) << "cumulative bucket counts must be monotone";
    prev = v;
    ++buckets;
    pos = space;
  }
  EXPECT_GE(buckets, 2u);
  EXPECT_EQ(prev, kTotal) << "the +Inf bucket must equal the series count";
}

TEST(ServeTest, TraceDirWritesOneTracePerJob) {
  ServiceConfig cfg;
  cfg.traceDir = testing::TempDir();
  TwillService svc{cfg};
  (void)submitAndFetch(svc, sourceRequest(kQuickProgram));
  (void)submitAndFetch(svc, sourceRequest(kQuickProgram));  // cached: still traced
  for (const char* name : {"job-1.trace.json", "job-2.trace.json"}) {
    std::ifstream f(cfg.traceDir + name);
    ASSERT_TRUE(f.good()) << "missing " << name;
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string doc = ss.str();
    EXPECT_EQ(doc.compare(0, 17, "{\"traceEvents\": ["), 0) << name;
    EXPECT_NE(doc.find("\"queued\""), std::string::npos) << name;
    EXPECT_NE(doc.find("\"run\""), std::string::npos) << name;
    std::remove((cfg.traceDir + name).c_str());
  }
}

// --- real-socket server -----------------------------------------------------

/// A raw client connection to the loopback server on `port`.
int connectTo(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

std::string readToEof(int fd) {
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) out.append(buf, static_cast<size_t>(n));
  return out;
}

/// One HTTP exchange over a real socket: connect, write `raw`, read to EOF.
std::string httpExchange(uint16_t port, const std::string& raw) {
  const int fd = connectTo(port);
  size_t off = 0;
  while (off < raw.size()) {
    ssize_t n = ::send(fd, raw.data() + off, raw.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  std::string out = readToEof(fd);
  ::close(fd);
  return out;
}

int64_t msSince(std::chrono::steady_clock::time_point t0) {
  using namespace std::chrono;
  return duration_cast<milliseconds>(steady_clock::now() - t0).count();
}

std::string rawPost(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

struct RunningServer {
  twill::HttpServer server;
  std::thread thread;

  explicit RunningServer(twill::HttpServerConfig cfg, TwillService& svc)
      : server(std::move(cfg)) {
    std::string error;
    EXPECT_TRUE(server.start(error)) << error;
    thread = std::thread(
        [this, &svc] { server.serve([&svc](const HttpRequest& r) { return svc.handle(r); }); });
  }
  ~RunningServer() {
    server.stop();
    thread.join();
  }
};

TEST(HttpServerTest, ServesTheV1ApiOverARealSocket) {
  TwillService svc{ServiceConfig{}};
  RunningServer rs{twill::HttpServerConfig{}, svc};
  std::string resp =
      httpExchange(rs.server.port(), rawPost("/v1/jobs", sourceRequest(kQuickProgram)));
  EXPECT_NE(resp.find("HTTP/1.1 202 Accepted"), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"job_id\": 1"), std::string::npos) << resp;
  svc.drain();
  resp = httpExchange(rs.server.port(), "GET /v1/jobs/1/report HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
  EXPECT_NE(resp.find("Content-Type: application/json"), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"schema_version\": 1"), std::string::npos) << resp;
}

TEST(HttpServerTest, OversizedAndMalformedRequestsAreRejectedAtTheSocket) {
  TwillService svc{ServiceConfig{}};
  twill::HttpServerConfig cfg;
  cfg.maxBodyBytes = 256;
  cfg.maxHeaderBytes = 512;
  RunningServer rs{cfg, svc};
  // Declared body over the cap: rejected from the Content-Length alone.
  std::string big(1024, 'x');
  std::string resp = httpExchange(rs.server.port(), rawPost("/v1/jobs", big));
  EXPECT_NE(resp.find("HTTP/1.1 413 "), std::string::npos) << resp;
  // Head over the cap.
  resp = httpExchange(rs.server.port(),
                      "GET / HTTP/1.1\r\nX-Pad: " + std::string(2048, 'y') + "\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 431 "), std::string::npos) << resp;
  // Garbage request line.
  resp = httpExchange(rs.server.port(), "NOT-HTTP\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 400 "), std::string::npos) << resp;
  // The server survives all of the above and still serves.
  resp = httpExchange(rs.server.port(), "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
}

TEST(HttpServerTest, StalledClientDoesNotDelayOthers) {
  TwillService svc{ServiceConfig{}};
  RunningServer rs{twill::HttpServerConfig{}, svc};
  // Part of a request head, then silence: this connection is held until
  // the 10 s request deadline.
  const int stalled = connectTo(rs.server.port());
  EXPECT_EQ(::send(stalled, "GET /v1/he", 10, MSG_NOSIGNAL), 10);
  const auto t0 = std::chrono::steady_clock::now();
  const std::string resp =
      httpExchange(rs.server.port(), "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  const int64_t ms = msSince(t0);
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
  EXPECT_LT(ms, 1000) << "healthz waited behind the stalled client";
  ::close(stalled);  // frees its accept loop, so the server stops promptly
}

TEST(HttpServerTest, TricklingClientGets408AtTheRequestDeadline) {
  TwillService svc{ServiceConfig{}};
  twill::HttpServerConfig cfg;
  cfg.socketTimeoutSec = 1;
  RunningServer rs{cfg, svc};
  // One header byte every 200 ms: every read succeeds, so only a deadline
  // on the whole request ends the connection.
  const int fd = connectTo(rs.server.port());
  const std::string head = "GET /v1/healthz HTTP/1.1\r\nX-Slow: ";
  const auto t0 = std::chrono::steady_clock::now();
  std::string resp;
  for (size_t i = 0; resp.empty() && msSince(t0) < 3000; ++i) {
    const char c = i < head.size() ? head[i] : 'z';
    (void)::send(fd, &c, 1, MSG_NOSIGNAL);
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 200) > 0) resp = readToEof(fd);
  }
  const int64_t ms = msSince(t0);
  ::close(fd);
  EXPECT_NE(resp.find("HTTP/1.1 408 "), std::string::npos) << resp;
  EXPECT_LT(ms, 2000);
}

// --- twilld end to end ------------------------------------------------------

std::string runCommand(const std::string& cmd) {
  std::string out;
  std::FILE* p = popen((cmd + " 2>&1").c_str(), "r");
  if (!p) return out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) out.append(buf, n);
  pclose(p);
  return out;
}

TEST(TwilldTest, DaemonMatchesTwillcByteForByteModuloWallTimes) {
  const std::string dir = testing::TempDir();
  const std::string portFile = dir + "twilld_e2e.port";
  const std::string reqFile = dir + "twilld_e2e.request.json";
  std::remove(portFile.c_str());
  {
    std::ofstream f(reqFile);
    f << sourceRequest(kQuickProgram, "\"name\": \"e2e\"");
  }

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    execl(TWILLD_PATH, "twilld", "--port", "0", "--port-file", portFile.c_str(), "--jobs",
          "2", static_cast<char*>(nullptr));
    _exit(127);
  }
  // Wait for the port file (the daemon writes it before serving). Bail out
  // immediately if the child died — e.g. exec failed — instead of timing out.
  uint16_t port = 0;
  for (int i = 0; i < 300 && port == 0; ++i) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, WNOHANG), 0)
        << "twilld exited before writing its port file, status " << status;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::ifstream f(portFile);
    unsigned p = 0;
    if (f >> p && p != 0) port = static_cast<uint16_t>(p);
  }
  ASSERT_NE(port, 0) << "twilld never wrote its port file";

  std::ifstream rf(reqFile);
  std::stringstream reqBody;
  reqBody << rf.rdbuf();
  std::string resp = httpExchange(port, rawPost("/v1/jobs", reqBody.str()));
  ASSERT_NE(resp.find("202"), std::string::npos) << resp;

  // Poll until done, then fetch the report.
  std::string report;
  for (int i = 0; i < 200; ++i) {
    std::string s = httpExchange(port, "GET /v1/jobs/1 HTTP/1.1\r\nHost: t\r\n\r\n");
    if (s.find("\"state\": \"done\"") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  report = httpExchange(port, "GET /v1/jobs/1/report HTTP/1.1\r\nHost: t\r\n\r\n");
  ASSERT_NE(report.find("HTTP/1.1 200 OK"), std::string::npos) << report;
  const std::string daemonDoc = report.substr(report.find("\r\n\r\n") + 4);

  // The oracle: the same request document through twillc.
  std::string cliDoc = runCommand(std::string(TWILLC_PATH) + " --json --request " + reqFile);
  EXPECT_EQ(normalizeWalls(daemonDoc), normalizeWalls(cliDoc))
      << "daemon report and twillc --json must be byte-identical modulo wall times";

  // Clean shutdown: SIGTERM -> exit 0.
  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "twilld must exit 0 on SIGTERM, status=" << status;
}

}  // namespace
