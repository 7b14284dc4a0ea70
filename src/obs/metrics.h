// Metrics registry for the service layer: counters, gauges and fixed-bucket
// histograms, rendered in the Prometheus text exposition format
// (GET /v1/metrics on twilld).
//
// Design constraints, in order:
//  * Thread-safe and TSan-clean: every sample is one relaxed atomic op
//    (twilld's worker pool and accept loops hammer these concurrently;
//    the sanitize-thread CI job runs the N-thread submission test).
//  * Deterministic output: histogram buckets are fixed powers of two and
//    sums accumulate in integer microseconds (no float rounding races), so
//    after a drain the rendered totals are exact — the concurrency test
//    asserts totals equal submitted counts.
//  * Stable references: metric objects are never moved or freed once
//    registered, so call sites cache `Counter*` and skip the registry map
//    on the hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace twill {

class Counter {
 public:
  void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Histogram over fixed log2 buckets: upper bounds 1, 2, 4, ..., 2^26, +Inf
/// (an observation in microseconds up to ~67 s lands in a finite bucket).
/// Fixed bounds keep the rendered output deterministic across runs and
/// machines; integer accumulation keeps concurrent totals exact.
class Histogram {
 public:
  static constexpr unsigned kFiniteBuckets = 27;  // le = 2^0 .. 2^26

  void observe(uint64_t value) {
    unsigned b = 0;
    while (b < kFiniteBuckets && value > (1ull << b)) ++b;
    counts_[b].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }
  /// Bucket upper bound for index i (i == kFiniteBuckets: +Inf).
  static uint64_t bound(unsigned i) { return 1ull << i; }
  uint64_t bucketCount(unsigned i) const { return counts_[i].load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t count() const {
    uint64_t c = 0;
    for (unsigned i = 0; i <= kFiniteBuckets; ++i) c += bucketCount(i);
    return c;
  }

 private:
  std::atomic<uint64_t> counts_[kFiniteBuckets + 1]{};
  std::atomic<uint64_t> sum_{0};
};

/// Registry of metric families. A family is (name, help, type); children
/// within a family are distinguished by a pre-rendered label string
/// (`endpoint="/v1/jobs"` — no braces). Registration takes a lock and
/// returns a stable reference; re-registering the same (name, labels)
/// returns the existing metric.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& help,
                   const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& help, const std::string& labels = "");
  Histogram& histogram(const std::string& name, const std::string& help,
                       const std::string& labels = "");

  /// The whole registry in Prometheus text exposition format (v0.0.4).
  /// Families render sorted by name and children by label string, so the
  /// document layout is deterministic.
  std::string renderPrometheus() const;

 private:
  enum class Kind : uint8_t { Counter, Gauge, Histogram };
  struct Child {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind = Kind::Counter;
    std::string help;
    std::map<std::string, Child> children;  // label string -> metric
  };

  Family& family(const std::string& name, const std::string& help, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

}  // namespace twill
