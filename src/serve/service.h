// TwillService — the HTTP-agnostic core of twilld.
//
// Owns the job table, the worker pool that runs compile+sim jobs, and the
// two-level artifact cache. `handle()` routes one parsed HttpRequest to the
// v1 API and returns the response; twilld's only job is to move bytes
// between sockets and this object.
//
// v1 endpoints:
//   POST /v1/jobs           submit a CompileRequest document -> 202
//                           {job_id, state}; a byte-identical repeat is
//                           answered on the spot with state "done"
//   GET  /v1/jobs/<id>      job state summary (queued | running | done)
//   GET  /v1/jobs/<id>/report
//                           the full report, with the failure-kind-mapped
//                           status and the same document `twillc --json`
//                           prints. A poll of an unfinished job is held
//                           until it finishes, up to a fixed bound, and
//                           answers 202 if the bound passes first
//   GET  /v1/stats          counters (cache hits/misses, failure kinds)
//   GET  /v1/healthz        liveness probe
//
// FailureKind -> HTTP status (the exit-code contract, lifted onto HTTP):
//   ok -> 200, compile -> 422, verify -> 412, sim -> 500, resource -> 413.
// Verify and resource rejections are produced without entering the
// simulator (the verifier short-circuits in runBenchmark; oversized bodies
// and malformed documents are rejected before a job even exists).
//
// Caching: two levels, both keyed by src/driver/request.h.
//   * Response cache (full request key): a byte-identical repeat request is
//     answered with the stored report document — no compile, no sim, and
//     no wait in the worker queue: submit publishes it done.
//   * Artifact cache (compile key): a request differing only in the
//     Twill-only sim axes (queue capacity/latency, processors, sched
//     quantum) re-simulates the cached compile's kept TwillArtifacts
//     through a per-entry shared SimProgram — the same decode reuse the
//     explorer's sim points get from their compile group.
// Counters for both levels are exposed on /v1/stats; the serve-smoke CI job
// and serve_test assert on them.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/driver/request.h"
#include "src/explore/pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/http.h"
#include "src/sim/system.h"

namespace twill {

struct ServiceConfig {
  /// Worker threads executing jobs (>= 1; compiles and simulations never
  /// run on the server's accept loops).
  unsigned jobs = 1;
  /// Server-side ceilings. Requests can only tighten them: the effective
  /// per-request wall budget is min(request, server) (0 = unlimited) and
  /// the effective memory ceiling is min(request, server).
  double maxTimeoutMs = 0;
  uint32_t maxMemoryBytes = 0;  // 0 = no server cap beyond the request's
  /// Response-cache entry cap (artifact entries are bounded by the same
  /// number); least-recently-used entries are evicted.
  size_t maxCacheEntries = 64;
  /// Approximate byte budget across both cache levels (0 = no byte bound,
  /// entry counts alone apply). Artifact entries are charged their kept
  /// module's arena footprint plus the source; response entries their
  /// document size. When over budget the globally least-recently-used
  /// entry is evicted, whichever pool it lives in.
  size_t maxCacheBytes = 0;
  /// Completed jobs retained for report fetches; the oldest are dropped
  /// past this (a later fetch gets 404 — clients poll then fetch promptly).
  size_t maxRetainedJobs = 1024;
  /// When non-empty, every job writes a Chrome trace-event JSON file
  /// (`<traceDir>/job-<id>.trace.json`) covering its queued->running->done
  /// lifecycle (wall us) plus the compile stages and the cycle-stamped sim
  /// events of its run. The directory must exist; tracing is off otherwise.
  std::string traceDir;
};

/// The FailureKind -> HTTP status table (see the header comment). `None`
/// maps to 200.
int httpStatusForFailure(FailureKind kind);

/// Counter snapshot (the /v1/stats payload, unserialized). The live values
/// are held in the service's MetricsRegistry; this struct is assembled on
/// demand so existing consumers keep their field names.
struct ServiceStats {
  uint64_t submitted = 0;       // jobs accepted (202)
  uint64_t completed = 0;       // jobs finished (any outcome)
  uint64_t rejectedRequests = 0;  // malformed/oversized submissions (4xx)
  uint64_t cacheFullHits = 0;   // answered from the response cache
  uint64_t cacheArtifactHits = 0;  // re-simulated cached artifacts
  uint64_t cacheMisses = 0;     // full compile+sim runs
  uint64_t ok = 0;              // completed jobs by outcome
  uint64_t failCompile = 0;
  uint64_t failVerify = 0;
  uint64_t failSim = 0;
  uint64_t failResource = 0;
};

class TwillService {
 public:
  explicit TwillService(const ServiceConfig& cfg);
  ~TwillService();

  TwillService(const TwillService&) = delete;
  TwillService& operator=(const TwillService&) = delete;

  /// Routes one request to the v1 API. Thread-safe: twilld's accept loops
  /// call it concurrently. A report poll of an unfinished job blocks the
  /// calling thread for up to a fixed bound (see jobReport).
  HttpResponse handle(const HttpRequest& req);

  /// Snapshot of the counters (the /v1/stats payload, unserialized).
  ServiceStats stats() const;

  /// Blocks until every job submitted so far has completed. Test/shutdown
  /// aid — over HTTP a report poll waits for one job, and only briefly.
  void drain();

 private:
  enum class JobState : uint8_t { Queued, Running, Done };

  struct Job {
    uint64_t id = 0;
    CompileRequest request;
    JobState state = JobState::Queued;
    uint64_t submitUs = 0;    // traceNowUs() at submission
    uint64_t runStartUs = 0;  // ... when a worker (or submit's full hit) took it
    // Filled at completion:
    bool ok = false;
    FailureKind failureKind = FailureKind::None;
    int httpStatus = 0;
    std::string responseJson;  // reportToJson document
  };

  /// One response-cache entry: everything a full hit publishes, stored as
  /// finishJob computed it (the failure kind is kept, never re-derived from
  /// the status).
  struct CachedResponse {
    int status = 0;
    FailureKind kind = FailureKind::None;
    std::string doc;  // reportToJson document
  };

  /// One cached compile: the anchor report (artifacts attached when the
  /// Twill flow succeeded) plus the shared decode for re-simulation.
  /// `mu` serializes re-sims — SimProgram's lazy decode cache is not
  /// concurrency-safe (same reason explorer sim points stay on one worker).
  struct CacheEntry {
    std::string source;  // hash-collision guard: verified on every lookup
    BenchmarkReport anchor;
    std::unique_ptr<SimProgram> prog;
    uint64_t lastUse = 0;
    /// Approximate footprint charged against ServiceConfig::maxCacheBytes:
    /// the kept module's arena reservation + source, fixed at insertion.
    size_t approxBytes = 0;
    std::mutex mu;
  };

  /// The cache level that answered a job: labels the per-path cache
  /// counter and job-time histograms.
  enum CachePath : unsigned { kPathFull = 0, kPathArtifact, kPathMiss, kNumPaths };

  /// Endpoint classes for the per-endpoint request counters / latency
  /// histograms (kOther collects unknown paths so every request is counted).
  enum Endpoint : unsigned {
    kEpJobs = 0,
    kEpJobStatus,
    kEpJobReport,
    kEpStats,
    kEpHealthz,
    kEpMetrics,
    kEpOther,
    kNumEndpoints
  };

  HttpResponse route(const HttpRequest& req, Endpoint& ep);
  HttpResponse submitJob(const HttpRequest& req);
  HttpResponse jobStatus(uint64_t id);
  HttpResponse jobReport(uint64_t id);
  HttpResponse statsResponse();
  HttpResponse metricsResponse();
  void runJob(uint64_t id);
  /// Level 1 of the cache, shared by submitJob and runJob: the stored
  /// response for `fullKey`, marked used. Callers hold mu_.
  std::optional<CachedResponse> lookupResponseLocked(const std::string& fullKey);
  /// Writes job `id`'s trace file: its queued and run spans, plus whatever
  /// the run recorded into `trace`. Every path calls it before publishing
  /// Done, so a client that sees the job done finds the file complete.
  void writeJobTrace(uint64_t id, TraceRecorder& trace, uint64_t submitUs,
                     uint64_t runStartUs) const;
  /// Publishes the job's report and caches it under `fullKey`; a miss also
  /// passes its `fresh` compile entry, cached under `compileKey` in the same
  /// critical section.
  void finishJob(uint64_t id, CachePath path, const std::string& fullKey,
                 const BenchmarkReport& rep, const std::string& compileKey = {},
                 std::shared_ptr<CacheEntry> fresh = {});
  /// Marks the job Done with `resp`, counts it under its cache path and
  /// outcome, and wakes every waiter. Callers hold mu_.
  void publishLocked(uint64_t id, const CachedResponse& resp, CachePath path);
  void evictIfNeeded();  // callers hold mu_
  size_t cacheBytesLocked() const;  // callers hold mu_
  void countOutcome(FailureKind kind);

  ServiceConfig cfg_;
  mutable std::mutex mu_;
  uint64_t nextJobId_ = 1;
  uint64_t useClock_ = 0;  // LRU tick
  std::map<uint64_t, Job> jobs_;
  size_t doneJobs_ = 0;  // jobs_ entries in state Done
  // Response cache: full request key -> (status, failure kind, document).
  std::unordered_map<std::string, CachedResponse> responses_;
  std::unordered_map<std::string, uint64_t> responseUse_;
  // Artifact cache: compile key -> entry (shared_ptr so a re-sim can run
  // outside mu_ while eviction drops the map reference).
  std::unordered_map<std::string, std::shared_ptr<CacheEntry>> artifacts_;
  // All service counters live in the registry (rendered on /v1/metrics);
  // the raw pointers are stable for the registry's lifetime, so the hot
  // paths increment atomics without touching the family map. /v1/stats is
  // assembled from the same counters — one source of truth.
  MetricsRegistry registry_;
  Counter* mSubmitted_;
  Counter* mCompleted_;
  Counter* mRejected_;
  Counter* mEvictResponse_;
  Counter* mEvictArtifact_;
  Counter* mOutcome_[5];  // indexed by FailureKind order: none..resource
  Counter* mBytesIn_;
  Counter* mBytesOut_;
  Gauge* mQueueDepth_;
  Gauge* mInFlight_;
  Gauge* mRespEntries_;
  Gauge* mArtEntries_;
  Gauge* mCacheBytes_;
  struct EndpointMetrics {
    Counter* requests;
    Histogram* latencyUs;
  };
  EndpointMetrics endpoints_[kNumEndpoints];
  /// Per cache path: its cache counter (hits by level, or misses), the time
  /// its jobs waited for a worker, and their run time. Counted together when
  /// a job is published, so after a drain each histogram's count equals the
  /// path's counter.
  struct PathMetrics {
    Counter* jobs;
    Histogram* queueWaitUs;
    Histogram* runUs;
  };
  PathMetrics paths_[kNumPaths];
  /// Notified whenever a job is published Done: drain() and held report
  /// polls wait on it.
  std::condition_variable doneCv_;
  // Last member: workers touch everything above, so they must die first.
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace twill
