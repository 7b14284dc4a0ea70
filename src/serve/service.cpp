#include "src/serve/service.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "src/exec/superblock.h"
#include "src/support/json.h"

namespace twill {

int httpStatusForFailure(FailureKind kind) {
  switch (kind) {
    case FailureKind::None: return 200;
    case FailureKind::Compile: return 422;   // source does not compile
    case FailureKind::Verify: return 412;    // partition protocol precondition failed
    case FailureKind::Sim: return 500;       // simulation failed / result mismatch
    case FailureKind::Resource: return 413;  // a ResourceLimits ceiling was breached
  }
  return 500;
}

namespace {

/// How long a report poll of an unfinished job is held for it to finish
/// before answering 202. Short, because a held poll ties up one of the
/// server's accept loops.
constexpr std::chrono::milliseconds kReportHold{100};

const char* jobStateName(uint8_t s) {
  switch (s) {
    case 0: return "queued";
    case 1: return "running";
    default: return "done";
  }
}

HttpResponse jsonError(int status, const std::string& message) {
  JsonWriter w;
  w.beginObject();
  w.field("error", message);
  w.endObject();
  HttpResponse resp;
  resp.status = status;
  resp.body = w.str() + "\n";
  return resp;
}

/// "/v1/jobs/<id>[/report]" -> id. False on anything non-numeric.
bool parseJobId(const std::string& s, uint64_t& id) {
  if (s.empty() || s.size() > 18) return false;
  id = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    id = id * 10 + static_cast<uint64_t>(c - '0');
  }
  return true;
}

}  // namespace

TwillService::TwillService(const ServiceConfig& cfg) : cfg_(cfg) {
  // Register every family up front: the returned references are stable, so
  // request handling and the job workers only ever touch atomics.
  MetricsRegistry& r = registry_;
  mSubmitted_ = &r.counter("twilld_jobs_submitted_total", "Jobs accepted for execution (202)");
  mCompleted_ = &r.counter("twilld_jobs_completed_total", "Jobs finished, any outcome");
  mRejected_ =
      &r.counter("twilld_requests_rejected_total", "Malformed or oversized submissions (4xx)");
  paths_[kPathFull].jobs =
      &r.counter("twilld_cache_hits_total", "Cache hits by level", "level=\"full\"");
  paths_[kPathArtifact].jobs =
      &r.counter("twilld_cache_hits_total", "Cache hits by level", "level=\"artifact\"");
  paths_[kPathMiss].jobs = &r.counter("twilld_cache_misses_total", "Full compile+sim runs");
  static const char* const kPathNames[kNumPaths] = {"full", "artifact", "miss"};
  for (unsigned i = 0; i < kNumPaths; ++i) {
    const std::string label = std::string("path=\"") + kPathNames[i] + "\"";
    paths_[i].queueWaitUs = &r.histogram(
        "twilld_job_queue_wait_us", "Job wait for a worker in microseconds, by cache path", label);
    paths_[i].runUs =
        &r.histogram("twilld_job_run_us", "Job run time in microseconds, by cache path", label);
  }
  mEvictResponse_ =
      &r.counter("twilld_cache_evictions_total", "LRU cache evictions", "cache=\"response\"");
  mEvictArtifact_ =
      &r.counter("twilld_cache_evictions_total", "LRU cache evictions", "cache=\"artifact\"");
  static const char* const kKindNames[5] = {"none", "compile", "verify", "sim", "resource"};
  for (int i = 0; i < 5; ++i)
    mOutcome_[i] = &r.counter("twilld_jobs_outcome_total", "Completed jobs by failure kind",
                              std::string("failure_kind=\"") + kKindNames[i] + "\"");
  mBytesIn_ = &r.counter("twilld_http_bytes_in_total", "Request body bytes received");
  mBytesOut_ = &r.counter("twilld_http_bytes_out_total", "Response body bytes sent");
  mQueueDepth_ = &r.gauge("twilld_pool_queue_depth", "Jobs waiting for a worker");
  mInFlight_ = &r.gauge("twilld_pool_in_flight", "Jobs currently executing on a worker");
  mRespEntries_ = &r.gauge("twilld_cache_response_entries", "Response cache entries");
  mArtEntries_ = &r.gauge("twilld_cache_artifact_entries", "Artifact cache entries");
  mCacheBytes_ = &r.gauge("twilld_cache_bytes", "Approximate cache footprint in bytes");
  static const char* const kEndpointNames[kNumEndpoints] = {
      "/v1/jobs", "/v1/jobs/{id}", "/v1/jobs/{id}/report", "/v1/stats",
      "/v1/healthz", "/v1/metrics", "other"};
  for (unsigned i = 0; i < kNumEndpoints; ++i) {
    const std::string label = std::string("endpoint=\"") + kEndpointNames[i] + "\"";
    endpoints_[i].requests =
        &r.counter("twilld_http_requests_total", "HTTP requests by endpoint", label);
    endpoints_[i].latencyUs = &r.histogram("twilld_http_request_duration_us",
                                           "Request handling latency in microseconds", label);
  }
  pool_ = std::make_unique<WorkerPool>(cfg_.jobs < 1 ? 1 : cfg_.jobs);
}

TwillService::~TwillService() {
  // Stop the workers before any member they touch is destroyed.
  pool_.reset();
}

ServiceStats TwillService::stats() const {
  // Counter reads are atomic; no lock. The snapshot is not a consistent cut
  // across counters — callers only ever look at it when the service is
  // drained or compare individual monotone counters.
  ServiceStats s;
  s.submitted = mSubmitted_->value();
  s.completed = mCompleted_->value();
  s.rejectedRequests = mRejected_->value();
  s.cacheFullHits = paths_[kPathFull].jobs->value();
  s.cacheArtifactHits = paths_[kPathArtifact].jobs->value();
  s.cacheMisses = paths_[kPathMiss].jobs->value();
  s.ok = mOutcome_[0]->value();
  s.failCompile = mOutcome_[1]->value();
  s.failVerify = mOutcome_[2]->value();
  s.failSim = mOutcome_[3]->value();
  s.failResource = mOutcome_[4]->value();
  return s;
}

void TwillService::countOutcome(FailureKind kind) {
  mCompleted_->inc();
  switch (kind) {
    case FailureKind::None: mOutcome_[0]->inc(); break;
    case FailureKind::Compile: mOutcome_[1]->inc(); break;
    case FailureKind::Verify: mOutcome_[2]->inc(); break;
    case FailureKind::Sim: mOutcome_[3]->inc(); break;
    case FailureKind::Resource: mOutcome_[4]->inc(); break;
  }
}

void TwillService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  doneCv_.wait(lock, [this] {
    for (const auto& [id, job] : jobs_)
      if (job.state != JobState::Done) return false;
    return true;
  });
}

HttpResponse TwillService::handle(const HttpRequest& req) {
  const uint64_t startUs = traceNowUs();
  Endpoint ep = kEpOther;
  HttpResponse resp = route(req, ep);
  endpoints_[ep].requests->inc();
  endpoints_[ep].latencyUs->observe(traceNowUs() - startUs);
  mBytesIn_->inc(req.body.size());
  mBytesOut_->inc(resp.body.size());
  return resp;
}

HttpResponse TwillService::route(const HttpRequest& req, Endpoint& ep) {
  // Route on the path alone; queries are not part of the v1 surface.
  std::string path = req.target.substr(0, req.target.find('?'));

  if (path == "/v1/jobs") {
    ep = kEpJobs;
    if (req.method != "POST") return jsonError(405, "use POST to submit a job");
    return submitJob(req);
  }
  if (path.compare(0, 9, "/v1/jobs/") == 0) {
    std::string rest = path.substr(9);
    bool wantReport = false;
    const size_t slash = rest.find('/');
    if (slash != std::string::npos) {
      if (rest.substr(slash) != "/report") return jsonError(404, "no such endpoint");
      wantReport = true;
      rest = rest.substr(0, slash);
    }
    ep = wantReport ? kEpJobReport : kEpJobStatus;
    uint64_t id;
    if (!parseJobId(rest, id)) return jsonError(404, "malformed job id");
    if (req.method != "GET") return jsonError(405, "use GET to poll a job");
    return wantReport ? jobReport(id) : jobStatus(id);
  }
  if (path == "/v1/stats") {
    ep = kEpStats;
    if (req.method != "GET") return jsonError(405, "use GET");
    return statsResponse();
  }
  if (path == "/v1/metrics") {
    ep = kEpMetrics;
    if (req.method != "GET") return jsonError(405, "use GET");
    return metricsResponse();
  }
  if (path == "/v1/healthz") {
    ep = kEpHealthz;
    if (req.method != "GET") return jsonError(405, "use GET");
    JsonWriter w;
    w.beginObject();
    w.field("schema_version", kReportSchemaVersion);
    w.field("ok", true);
#ifdef NDEBUG
    w.field("build", "release");
#else
    w.field("build", "debug");
#endif
    w.field("dispatcher", superDispatchKind());
    w.endObject();
    HttpResponse resp;
    resp.body = w.str() + "\n";
    return resp;
  }
  return jsonError(404, "no such endpoint");
}

HttpResponse TwillService::metricsResponse() {
  // The entry gauges mirror container sizes that only change under mu_;
  // refresh them at scrape time instead of on every mutation.
  {
    std::lock_guard<std::mutex> lock(mu_);
    mRespEntries_->set(static_cast<int64_t>(responses_.size()));
    mArtEntries_->set(static_cast<int64_t>(artifacts_.size()));
    mCacheBytes_->set(static_cast<int64_t>(cacheBytesLocked()));
  }
  HttpResponse resp;
  resp.contentType = "text/plain; version=0.0.4";
  resp.body = registry_.renderPrometheus();
  return resp;
}

HttpResponse TwillService::submitJob(const HttpRequest& req) {
  CompileRequest parsed;
  std::string error;
  if (req.body.empty() || !parseCompileRequest(req.body, parsed, error)) {
    mRejected_->inc();
    return jsonError(400, req.body.empty() ? "empty request body" : error);
  }
  // Server-side ceilings: requests only ever tighten them.
  ResourceLimits& lim = parsed.options.limits;
  if (cfg_.maxTimeoutMs > 0)
    lim.stageTimeoutMs = lim.stageTimeoutMs <= 0 ? cfg_.maxTimeoutMs
                                                 : std::min(lim.stageTimeoutMs, cfg_.maxTimeoutMs);
  if (cfg_.maxMemoryBytes > 0) lim.memLimitBytes = std::min(lim.memLimitBytes, cfg_.maxMemoryBytes);

  const std::string fullKey = requestCacheKey(parsed);
  const uint64_t submitUs = traceNowUs();
  uint64_t id;
  std::optional<CachedResponse> fullHit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = nextJobId_++;
    Job& job = jobs_[id];
    job.id = id;
    job.submitUs = submitUs;
    mSubmitted_->inc();
    fullHit = lookupResponseLocked(fullKey);
    if (fullHit) {
      // A byte-identical repeat is answered here: it never enters the
      // worker queue, so it waits behind no other job and leaves the pool
      // gauges alone.
      job.state = JobState::Running;
      job.runStartUs = submitUs;
    } else {
      job.request = std::move(parsed);
      // Counted before the pool submission so the gauge can never dip
      // negative when the worker outraces this thread.
      mQueueDepth_->add(1);
    }
  }
  if (fullHit) {
    if (!cfg_.traceDir.empty()) {
      TraceRecorder trace;
      writeJobTrace(id, trace, submitUs, submitUs);
    }
    std::lock_guard<std::mutex> lock(mu_);
    publishLocked(id, *fullHit, kPathFull);
  } else {
    pool_->submit([this, id] { runJob(id); });
  }

  JsonWriter w;
  w.beginObject();
  w.field("job_id", id);
  w.field("state", fullHit ? "done" : "queued");
  w.endObject();
  HttpResponse resp;
  resp.status = 202;
  resp.body = w.str() + "\n";
  return resp;
}

HttpResponse TwillService::jobStatus(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return jsonError(404, "no such job");
  const Job& job = it->second;
  JsonWriter w;
  w.beginObject();
  w.field("job_id", id);
  w.field("state", jobStateName(static_cast<uint8_t>(job.state)));
  if (job.state == JobState::Done) {
    w.field("ok", job.ok);
    if (job.failureKind != FailureKind::None)
      w.field("failure_kind", failureKindName(job.failureKind));
    w.field("report_status", job.httpStatus);
  }
  w.endObject();
  HttpResponse resp;
  resp.body = w.str() + "\n";
  return resp;
}

HttpResponse TwillService::jobReport(uint64_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  // Hold the poll of an unfinished job until it is published, up to
  // kReportHold: the client gets the report the moment it exists rather than
  // on a later poll.
  auto it = jobs_.end();
  doneCv_.wait_for(lock, kReportHold, [&] {
    it = jobs_.find(id);
    return it == jobs_.end() || it->second.state == JobState::Done;
  });
  if (it == jobs_.end()) return jsonError(404, "no such job");
  const Job& job = it->second;
  if (job.state != JobState::Done) {
    JsonWriter w;
    w.beginObject();
    w.field("job_id", id);
    w.field("state", jobStateName(static_cast<uint8_t>(job.state)));
    w.endObject();
    HttpResponse resp;
    resp.status = 202;  // accepted, not done — poll again
    resp.body = w.str() + "\n";
    return resp;
  }
  HttpResponse resp;
  resp.status = job.httpStatus;
  resp.body = job.responseJson;
  return resp;
}

HttpResponse TwillService::statsResponse() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t queued = 0, running = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.state == JobState::Queued) ++queued;
    if (job.state == JobState::Running) ++running;
  }
  // Same counters the /v1/metrics endpoint renders — the document keeps its
  // exact historical field set and order.
  JsonWriter w;
  w.beginObject();
  w.field("schema_version", kReportSchemaVersion);
  w.key("jobs");
  w.beginObject();
  w.field("submitted", mSubmitted_->value());
  w.field("completed", mCompleted_->value());
  w.field("queued", queued);
  w.field("running", running);
  w.field("rejected_requests", mRejected_->value());
  w.endObject();
  w.key("cache");
  w.beginObject();
  w.field("full_hits", paths_[kPathFull].jobs->value());
  w.field("artifact_hits", paths_[kPathArtifact].jobs->value());
  w.field("misses", paths_[kPathMiss].jobs->value());
  w.field("response_entries", static_cast<uint64_t>(responses_.size()));
  w.field("artifact_entries", static_cast<uint64_t>(artifacts_.size()));
  w.endObject();
  w.key("outcomes");
  w.beginObject();
  w.field("ok", mOutcome_[0]->value());
  w.field("compile", mOutcome_[1]->value());
  w.field("verify", mOutcome_[2]->value());
  w.field("sim", mOutcome_[3]->value());
  w.field("resource", mOutcome_[4]->value());
  w.endObject();
  w.endObject();
  HttpResponse resp;
  resp.body = w.str() + "\n";
  return resp;
}

void TwillService::runJob(uint64_t id) {
  mQueueDepth_->add(-1);
  mInFlight_->add(1);

  CompileRequest req;
  const uint64_t runStartUs = traceNowUs();
  uint64_t submitUs = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {  // retention dropped it before we ran
      mInFlight_->add(-1);
      return;
    }
    it->second.state = JobState::Running;
    it->second.runStartUs = runStartUs;
    req = it->second.request;
    submitUs = it->second.submitUs;
  }

  // Per-job trace: the TraceScope makes the compile-stage spans land here,
  // and cfg.trace (set on the sim paths) adds the cycle-stamped sim rows.
  std::unique_ptr<TraceRecorder> trace;
  if (!cfg_.traceDir.empty()) trace = std::make_unique<TraceRecorder>();
  TraceScope traceScope(trace.get());
  // Every completion path calls this before publishing Done: the trace file
  // is complete, and the in-flight gauge is dropped before drainers are
  // woken, so it reads exactly zero once drain() returns (the concurrency
  // test scrapes it right after draining).
  auto endRun = [&] {
    if (trace) writeJobTrace(id, *trace, submitUs, runStartUs);
    mInFlight_->add(-1);
  };

  const std::string fullKey = requestCacheKey(req);
  const std::string compileKey = compileCacheKey(req);

  // Level 1 again: an identical request may have finished while this one
  // queued. Level 2 is looked up under the same lock, and a miss caches
  // both levels together (finishJob), so an identical request is a full
  // hit or a miss, never an artifact hit.
  std::optional<CachedResponse> fullHit;
  std::shared_ptr<CacheEntry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fullHit = lookupResponseLocked(fullKey);
    if (!fullHit) {
      // The entry is used outside the lock.
      auto ahit = artifacts_.find(compileKey);
      if (ahit != artifacts_.end() && ahit->second->source == req.source) {
        entry = ahit->second;
        entry->lastUse = ++useClock_;
      }
    }
  }
  if (fullHit) {
    endRun();
    std::lock_guard<std::mutex> lock(mu_);
    publishLocked(id, *fullHit, kPathFull);
    return;
  }

  if (entry) {
    const BenchmarkReport& anchor = entry->anchor;
    // A Twill-sim failure depends on the sim axes, so a cached failure says
    // nothing about this request's configuration — fall through to a full
    // run. Every other anchor outcome is reusable.
    if (!(anchor.ok == false && anchor.twillSimFailure)) {
      std::lock_guard<std::mutex> entryLock(entry->mu);
      SimConfig sim = req.options.sim;
      sim.trace = trace.get();  // this path bypasses the driver's hookup
      // Re-simulate the kept artifacts under this request's sim knobs,
      // through the entry's shared decode (explorer's group-reuse path).
      // Without artifacts (pure flows only, verify-only, or a compile-side
      // failure) the anchor outcome is sim-axis-independent and is reused
      // verbatim.
      BenchmarkReport rep = anchor.ok && anchor.twillArtifacts
                                ? resimulateTwill(anchor, *anchor.twillArtifacts, *entry->prog,
                                                  sim, req.options.limits)
                                : anchor;
      rep.name = req.name;
      rep.twillArtifacts.reset();
      endRun();
      finishJob(id, kPathArtifact, fullKey, rep);
      return;
    }
  }

  // Miss: full compile + simulate, keeping the artifacts for future hits.
  CompileRequest run = req;
  run.options.keepTwillArtifacts =
      run.options.runTwill && !run.options.verifyOnly;
  BenchmarkReport rep = runCompileRequest(run);
  auto fresh = std::make_shared<CacheEntry>();
  fresh->source = req.source;
  fresh->anchor = rep;  // artifacts (if any) stay on the cached anchor
  if (rep.ok && rep.twillArtifacts)
    fresh->prog = std::make_unique<SimProgram>(*rep.twillArtifacts->module,
                                               rep.twillArtifacts->schedules);
  fresh->approxBytes = sizeof(CacheEntry) + req.source.size();
  if (rep.twillArtifacts && rep.twillArtifacts->module)
    fresh->approxBytes += rep.twillArtifacts->module->arena().bytesReserved();
  rep.twillArtifacts.reset();  // the response/job copy does not need them
  endRun();
  finishJob(id, kPathMiss, fullKey, rep, compileKey, std::move(fresh));
}

std::optional<TwillService::CachedResponse> TwillService::lookupResponseLocked(
    const std::string& fullKey) {
  auto hit = responses_.find(fullKey);
  if (hit == responses_.end()) return std::nullopt;
  responseUse_[fullKey] = ++useClock_;
  return hit->second;
}

void TwillService::writeJobTrace(uint64_t id, TraceRecorder& trace, uint64_t submitUs,
                                 uint64_t runStartUs) const {
  trace.setProcessName(kTracePidServe, "twilld (wall us)");
  trace.setThreadName(kTracePidServe, 0, "job " + std::to_string(id));
  const TraceRecorder::StrId catJob = trace.intern("job");
  trace.span(kTracePidServe, 0, catJob, trace.intern("queued"), submitUs, runStartUs);
  trace.span(kTracePidServe, 0, catJob, trace.intern("run"), runStartUs, traceNowUs());
  std::string error;  // best-effort: a full disk must not fail the job
  trace.writeFile(cfg_.traceDir + "/job-" + std::to_string(id) + ".trace.json", error);
}

void TwillService::finishJob(uint64_t id, CachePath path, const std::string& fullKey,
                             const BenchmarkReport& rep, const std::string& compileKey,
                             std::shared_ptr<CacheEntry> fresh) {
  CachedResponse resp;
  resp.kind = rep.ok ? FailureKind::None : rep.failureKind;
  resp.status = httpStatusForFailure(resp.kind);
  resp.doc = reportToJson(rep) + "\n";
  std::lock_guard<std::mutex> lock(mu_);
  // A miss caches its compile and its response together: an identical
  // request running concurrently finds both (a full hit) or neither (a
  // miss), never the compile alone.
  if (fresh) {
    fresh->lastUse = ++useClock_;
    artifacts_[compileKey] = std::move(fresh);
  }
  publishLocked(id, resp, path);
  // Cache the response under the full key (the level-1 hit path).
  responses_[fullKey] = std::move(resp);
  responseUse_[fullKey] = ++useClock_;
  evictIfNeeded();
}

void TwillService::publishLocked(uint64_t id, const CachedResponse& resp, CachePath path) {
  auto it = jobs_.find(id);
  if (it != jobs_.end()) {
    Job& job = it->second;
    paths_[path].queueWaitUs->observe(job.runStartUs - job.submitUs);
    paths_[path].runUs->observe(traceNowUs() - job.runStartUs);
    job.state = JobState::Done;
    job.ok = resp.kind == FailureKind::None;
    job.failureKind = resp.kind;
    job.httpStatus = resp.status;
    job.responseJson = resp.doc;
    job.request = CompileRequest();  // the source is no longer needed
    ++doneJobs_;
  }
  paths_[path].jobs->inc();
  countOutcome(resp.kind);
  // Bound the job table: drop the oldest completed jobs past the retention
  // window (clients fetch promptly; an evicted id answers 404). Ids grow
  // with submission, so the oldest are first and few unfinished jobs are
  // skipped.
  for (auto jt = jobs_.begin(); jt != jobs_.end() && doneJobs_ > cfg_.maxRetainedJobs;) {
    if (jt->second.state == JobState::Done) {
      jt = jobs_.erase(jt);
      --doneJobs_;
    } else {
      ++jt;
    }
  }
  doneCv_.notify_all();
}

size_t TwillService::cacheBytesLocked() const {
  size_t total = 0;
  for (const auto& [key, resp] : responses_) total += key.size() + resp.doc.size();
  for (const auto& [key, entry] : artifacts_) total += key.size() + entry->approxBytes;
  return total;
}

void TwillService::evictIfNeeded() {
  while (responses_.size() > cfg_.maxCacheEntries) {
    auto victim = responses_.begin();
    uint64_t oldest = UINT64_MAX;
    for (auto it = responses_.begin(); it != responses_.end(); ++it) {
      const uint64_t use = responseUse_.count(it->first) ? responseUse_[it->first] : 0;
      if (use < oldest) {
        oldest = use;
        victim = it;
      }
    }
    responseUse_.erase(victim->first);
    responses_.erase(victim);
    mEvictResponse_->inc();
  }
  while (artifacts_.size() > cfg_.maxCacheEntries) {
    auto victim = artifacts_.begin();
    for (auto it = artifacts_.begin(); it != artifacts_.end(); ++it)
      if (it->second->lastUse < victim->second->lastUse) victim = it;
    artifacts_.erase(victim);
    mEvictArtifact_->inc();
  }
  // Byte budget: charge artifact entries their kept module's arena footprint
  // and response entries their document size; evict the globally least-
  // recently-used entry (whichever pool holds it) until under budget.
  if (cfg_.maxCacheBytes) {
    size_t total = cacheBytesLocked();
    while (total > cfg_.maxCacheBytes && (!artifacts_.empty() || !responses_.empty())) {
      auto aVictim = artifacts_.end();
      for (auto it = artifacts_.begin(); it != artifacts_.end(); ++it)
        if (aVictim == artifacts_.end() || it->second->lastUse < aVictim->second->lastUse)
          aVictim = it;
      auto rVictim = responses_.end();
      uint64_t rOldest = UINT64_MAX;
      for (auto it = responses_.begin(); it != responses_.end(); ++it) {
        const uint64_t use = responseUse_.count(it->first) ? responseUse_[it->first] : 0;
        if (rVictim == responses_.end() || use < rOldest) {
          rOldest = use;
          rVictim = it;
        }
      }
      const bool takeArtifact =
          aVictim != artifacts_.end() &&
          (rVictim == responses_.end() || aVictim->second->lastUse <= rOldest);
      if (takeArtifact) {
        total -= std::min(total, aVictim->first.size() + aVictim->second->approxBytes);
        artifacts_.erase(aVictim);
        mEvictArtifact_->inc();
      } else {
        total -= std::min(total, rVictim->first.size() + rVictim->second.doc.size());
        responseUse_.erase(rVictim->first);
        responses_.erase(rVictim);
        mEvictResponse_->inc();
      }
    }
  }
  mCacheBytes_->set(static_cast<int64_t>(cacheBytesLocked()));
}

}  // namespace twill
