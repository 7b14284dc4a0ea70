// Cycle-level model of the Twill hardware runtime (Ch. 4 of the thesis):
// the module bus with its priority arbiter, the memory bus, FIFO queue
// primitives and counting semaphores.
//
// Timing model: each bus is a 1-message-per-cycle resource; a requester gets
// the earliest free slot at or after `now` (the CPU is ticked first each
// cycle, which realizes the arbiter's processor-first priority of §4.1).
// Queue handshakes cost the documented minimum cycles (§4.3: 2 cycles;
// semaphore raise 1 / lower 2, §4.2; any processor-side primitive operation
// costs 5 cycles, §4.5) plus bus contention. A configurable queue latency
// delays element visibility for the Fig. 6.5 sweep.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/exec/core.h"
#include "src/model/optables.h"

namespace twill {

struct FabricConfig {
  unsigned queueCapacity = 8;  // §6: 8x32 queues by default
  unsigned queueLatency = RuntimeTiming::kQueueOp;  // produce -> visible delay
};

/// N-ports-per-cycle resource (dual-port BRAM in the pure-hardware flow).
/// `now` must be non-decreasing across calls (single-owner use).
class PortModel {
public:
  explicit PortModel(unsigned portsPerCycle) : cap_(portsPerCycle) {}
  uint64_t acquire(uint64_t now) {
    if (now > cycle_) {
      cycle_ = now;
      used_ = 1;
      return now;
    }
    if (used_ < cap_) {
      ++used_;
      return cycle_;
    }
    ++cycle_;
    used_ = 1;
    return cycle_;
  }

private:
  unsigned cap_;
  uint64_t cycle_ = 0;
  unsigned used_ = 0;
};

/// One-message-per-cycle shared resource.
class BusModel {
public:
  /// Earliest grant cycle at or after `now`; reserves the slot.
  uint64_t acquire(uint64_t now) {
    uint64_t grant = now > nextFree_ ? now : nextFree_;
    nextFree_ = grant + 1;
    ++messages_;
    return grant;
  }
  uint64_t messages() const { return messages_; }

private:
  uint64_t nextFree_ = 0;
  uint64_t messages_ = 0;
};

/// Threads blocked on a primitive park an opaque token here instead of
/// polling every cycle; the event-driven scheduler (src/sim) drains the
/// list when the matching operation completes, waking exactly the blocked
/// waiters. Lists are tiny (bounded by the thread count), so linear dedup
/// beats any set structure.
class WaitList {
public:
  /// Returns true if the token was newly parked (false: already waiting).
  bool park(uint32_t token) {
    for (uint32_t t : tokens_) {
      if (t == token) return false;
    }
    tokens_.push_back(token);
    return true;
  }
  /// Invokes `wake(token)` for every parked token and clears the list.
  template <typename F>
  void drain(F&& wake) {
    for (uint32_t t : tokens_) wake(t);
    tokens_.clear();
  }
  /// Unparks a token (the thread unblocked through a timed wake instead of
  /// a drain). No-op when absent.
  void remove(uint32_t token) {
    for (size_t i = 0; i < tokens_.size(); ++i) {
      if (tokens_[i] == token) {
        tokens_.erase(tokens_.begin() + static_cast<ptrdiff_t>(i));
        return;
      }
    }
  }
  bool empty() const { return tokens_.empty(); }

private:
  std::vector<uint32_t> tokens_;
};

/// FIFO queue primitive (§4.3). Elements carry the cycle at which they
/// become visible to the consumer. Backed by a fixed ring (the hardware
/// FIFO has a static capacity): a produce/consume handshake happens every
/// couple of retired instructions in a pipelined kernel, and deque's
/// segmented bookkeeping was measurable there.
class HwQueue {
public:
  explicit HwQueue(unsigned capacity) : capacity_(capacity), ring_(capacity + 1) {}

  bool full() const { return size_ >= capacity_; }
  bool empty() const { return size_ == 0; }
  bool frontVisible(uint64_t now) const { return size_ != 0 && ring_[head_].visibleAt <= now; }
  /// Cycle at which the head element becomes consumable (0 when empty).
  uint64_t frontVisibleAt() const { return size_ == 0 ? 0 : ring_[head_].visibleAt; }

  /// Blocked consumers/producers, for the event-driven scheduler.
  WaitList& consumerWaiters() { return consumerWaiters_; }
  WaitList& producerWaiters() { return producerWaiters_; }

  void push(uint32_t value, uint64_t visibleAt) {
    ring_[tail_] = {value, visibleAt};
    tail_ = tail_ + 1 == ring_.size() ? 0 : tail_ + 1;
    ++size_;
    ++enqueues_;
  }
  uint32_t pop() {
    uint32_t v = ring_[head_].value;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    --size_;
    ++dequeues_;
    return v;
  }

  uint64_t enqueues() const { return enqueues_; }
  uint64_t dequeues() const { return dequeues_; }

private:
  struct Elem {
    uint32_t value;
    uint64_t visibleAt;
  };
  unsigned capacity_;
  std::vector<Elem> ring_;  // capacity_ + 1 slots; [head_, head_+size_)
  size_t head_ = 0;
  size_t tail_ = 0;
  size_t size_ = 0;
  uint64_t enqueues_ = 0;
  uint64_t dequeues_ = 0;
  WaitList consumerWaiters_;
  WaitList producerWaiters_;
};

/// Counting semaphore primitive (§4.2).
class HwSemaphore {
public:
  explicit HwSemaphore(uint32_t initial = 0) : count_(initial) {}
  bool tryLower(uint32_t n) {
    if (count_ < n) return false;
    count_ -= n;
    return true;
  }
  void raise(uint32_t n) { count_ += n; }

  /// Threads blocked in a lower, for the event-driven scheduler.
  WaitList& lowerWaiters() { return lowerWaiters_; }

private:
  uint64_t count_;
  WaitList lowerWaiters_;
};

/// The assembled runtime fabric: buses + primitives + counters.
class Fabric {
public:
  explicit Fabric(const FabricConfig& cfg) : cfg_(cfg) {}

  void addQueue(int id) {
    if (static_cast<size_t>(id) >= queues_.size()) queues_.resize(id + 1);
    queues_[id] = std::make_unique<HwQueue>(cfg_.queueCapacity);
  }
  void addSemaphore(int id, uint32_t initial) {
    if (static_cast<size_t>(id) >= sems_.size()) sems_.resize(id + 1);
    sems_[id] = std::make_unique<HwSemaphore>(initial);
  }

  HwQueue& queue(int id) { return *queues_.at(id); }
  HwSemaphore& semaphore(int id) { return *sems_.at(id); }
  bool hasQueue(int id) const {
    return id >= 0 && static_cast<size_t>(id) < queues_.size() && queues_[id];
  }

  BusModel& moduleBus() { return moduleBus_; }
  BusModel& memoryBus() { return memoryBus_; }
  const FabricConfig& config() const { return cfg_; }

private:
  FabricConfig cfg_;
  BusModel moduleBus_;
  BusModel memoryBus_;
  std::vector<std::unique_ptr<HwQueue>> queues_;
  std::vector<std::unique_ptr<HwSemaphore>> sems_;
};

/// Per-thread endpoint implementing the interpreter's ChannelIO against the
/// fabric with domain-appropriate costs. The executing wrapper sets `now`
/// before each step and reads `lastCost` after a successful runtime op.
/// `final` so the pre-decoded engine's fast path can call it directly,
/// bypassing the virtual dispatch on every queue handshake.
class ThreadPort final : public ChannelIO {
public:
  ThreadPort(Fabric& fabric, bool isHW) : fabric_(fabric), isHW_(isHW) {}

  uint64_t now = 0;
  unsigned lastCost = 0;

  bool tryProduce(int channel, uint32_t value) override {
    HwQueue& q = fabric_.queue(channel);
    if (q.full()) return false;
    uint64_t grant = fabric_.moduleBus().acquire(now);
    q.push(value, grant + fabric_.config().queueLatency);
    lastCost = static_cast<unsigned>(grant - now) + opCost(RuntimeTiming::kQueueOp);
    return true;
  }
  bool tryConsume(int channel, uint32_t& value) override {
    HwQueue& q = fabric_.queue(channel);
    if (!q.frontVisible(now)) return false;
    uint64_t grant = fabric_.moduleBus().acquire(now);
    value = q.pop();
    lastCost = static_cast<unsigned>(grant - now) + opCost(RuntimeTiming::kQueueOp);
    return true;
  }
  bool trySemRaise(int sem, uint32_t count) override {
    uint64_t grant = fabric_.moduleBus().acquire(now);
    fabric_.semaphore(sem).raise(count);
    lastCost = static_cast<unsigned>(grant - now) + opCost(RuntimeTiming::kSemRaise);
    return true;
  }
  bool trySemLower(int sem, uint32_t count) override {
    if (!fabric_.semaphore(sem).tryLower(count)) return false;
    uint64_t grant = fabric_.moduleBus().acquire(now);
    lastCost = static_cast<unsigned>(grant - now) + opCost(RuntimeTiming::kSemLower);
    return true;
  }

private:
  unsigned opCost(unsigned hwCycles) const {
    // §4.5: every processor <-> primitive operation takes 5 cycles.
    return isHW_ ? hwCycles : RuntimeTiming::kProcessorPrimitiveOp;
  }
  Fabric& fabric_;
  bool isHW_;
};

}  // namespace twill
