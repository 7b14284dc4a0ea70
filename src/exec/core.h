// Execution substrate shared by every engine: simulated-memory layout,
// channel endpoints, and the one-instruction step protocol.
//
// These types used to live in src/ir/interp.h; they moved here when the
// pre-decoded execution engine (src/exec/decoded.h) was introduced so the
// decoder, the reference tree-walking interpreter and the cycle-level
// runtime can all share them without include cycles. src/ir/interp.h
// re-exports everything, so existing includes keep working.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/function.h"
#include "src/support/memory.h"

namespace twill {

/// Address assignment for a module in simulated memory.
struct Layout {
  std::unordered_map<const GlobalVar*, uint32_t> globalAddr;
  std::unordered_map<const Instruction*, uint32_t> allocaAddr;
  uint32_t dataBase = 0x1000;   // globals start here
  uint32_t stackBase = 0;       // allocas start here (after globals)
  uint32_t top = 0;             // first free address

  /// False when the module's globals + allocas do not fit in `mem` (the
  /// simulated-memory ceiling); `error` then holds a diagnostic. Callers
  /// must check before running — addresses past the failure point are
  /// unassigned (kUnmapped).
  bool ok = true;
  std::string error;

  /// Sentinel returned by addrOf for a global/alloca this layout never
  /// assigned (the module was modified after build()). Engines turn it into
  /// a trap diagnostic instead of crashing.
  static constexpr uint32_t kUnmapped = 0xFFFFFFFFu;

  /// Assigns addresses and writes global initializers into `mem`. Returns
  /// `ok`: false when the data does not fit in mem.size() bytes (all size
  /// arithmetic is 64-bit, so adversarially large array counts cannot wrap
  /// the address space into a bogus "fit").
  bool build(Module& m, Memory& mem);
  uint32_t addrOf(const GlobalVar* g) const {
    auto it = globalAddr.find(g);
    return it == globalAddr.end() ? kUnmapped : it->second;
  }
  uint32_t addrOf(const Instruction* alloca) const {
    auto it = allocaAddr.find(alloca);
    return it == allocaAddr.end() ? kUnmapped : it->second;
  }
};

/// Trap text for an out-of-range program access, shared by all three
/// engines so differential checks see identical messages.
std::string memOutOfRangeMessage(uint32_t addr, uint32_t len, uint32_t size);

/// Queue/semaphore endpoints used by the execution engines. The functional
/// implementation (FunctionalChannels) is unbounded; the cycle-level runtime
/// provides a bounded, latency-accurate implementation.
class ChannelIO {
public:
  virtual ~ChannelIO() = default;
  /// Returns false if the operation must block (state unchanged).
  virtual bool tryProduce(int channel, uint32_t value) = 0;
  virtual bool tryConsume(int channel, uint32_t& value) = 0;
  virtual bool trySemRaise(int sem, uint32_t count) = 0;
  virtual bool trySemLower(int sem, uint32_t count) = 0;
};

/// Unbounded queues + counting semaphores; never blocks a produce.
class FunctionalChannels : public ChannelIO {
public:
  bool tryProduce(int channel, uint32_t value) override {
    queues_[channel].push_back(value);
    return true;
  }
  bool tryConsume(int channel, uint32_t& value) override {
    auto& q = queues_[channel];
    if (q.empty()) return false;
    value = q.front();
    q.pop_front();
    return true;
  }
  bool trySemRaise(int sem, uint32_t count) override {
    sems_[sem] += count;
    return true;
  }
  bool trySemLower(int sem, uint32_t count) override {
    auto& s = sems_[sem];
    if (s < count) return false;
    s -= count;
    return true;
  }
  const std::deque<uint32_t>& queue(int ch) { return queues_[ch]; }

private:
  std::unordered_map<int, std::deque<uint32_t>> queues_;
  std::unordered_map<int, uint64_t> sems_;
};

/// Result of executing (or attempting) one instruction.
enum class StepStatus : uint8_t {
  Ran,       // instruction completed
  Blocked,   // a queue/semaphore op could not proceed; retry later
  Finished,  // outermost function returned
  Trapped,   // runtime error (diagnostic in the engine's trapMessage())
};

struct DecodedInst;

/// Kept register-sized (16 bytes): one of these is returned per simulated
/// instruction.
struct StepResult {
  StepStatus status = StepStatus::Ran;
  /// Opcode that ran (valid for Ran/Blocked) — cost models key off this.
  Opcode op = Opcode::Add;
  /// Set by the pre-decoded engine: the packed record with pre-computed
  /// operand widths, channel ids, cycle costs and the original Instruction
  /// (`dinst->src`), so cost models never touch the IR in the hot loop.
  /// The reference tree-walker (RefExecState) leaves it null.
  const DecodedInst* dinst = nullptr;
};

}  // namespace twill
