// Deterministic fan-out primitive shared by the explorer and bench_main's
// --jobs mode: a one-shot pool that runs indexed tasks on worker threads.
//
// Determinism contract: the pool guarantees only that every index runs
// exactly once. Callers get run-to-run (and jobs-count-to-jobs-count)
// determinism by making each task write results solely into its own
// per-index slot and merging in index order after run() returns — which is
// how every caller in this repo uses it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace twill {

/// Runs task(0) .. task(count-1), claiming indices from a shared counter on
/// min(jobs, count) worker threads. jobs <= 1 runs everything serially in
/// the calling thread (no threads spawned — the default bench path stays
/// single-threaded). Tasks must not throw; report failures in-band.
void runIndexedTasks(unsigned jobs, size_t count, const std::function<void(size_t)>& task);

/// Long-lived variant of the same fan-out for the daemon: `jobs` worker
/// threads drain a FIFO of submitted tasks until shutdown. Where
/// runIndexedTasks is one-shot (the explorer knows its whole work list up
/// front), a service discovers work one request at a time, so the queue is
/// the scheduler. Tasks must not throw; report failures in-band (twilld
/// records them on the job).
class WorkerPool {
 public:
  /// Spawns `jobs` workers (at least one; the daemon has no useful serial
  /// mode — a request must not block an accept loop).
  explicit WorkerPool(unsigned jobs);

  /// Drains nothing: signals shutdown, then joins. Queued-but-unstarted
  /// tasks are dropped (the daemon reports them as such before destroying
  /// the pool); the running ones complete.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues one task. Returns false after shutdown() (the task is not
  /// queued and will never run).
  bool submit(std::function<void()> task);

  /// Stops accepting work and wakes idle workers. Idempotent; the
  /// destructor calls it.
  void shutdown();

  unsigned jobs() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void workerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace twill
