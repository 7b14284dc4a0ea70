// Pre-decoded execution engine.
//
// The tree-walking interpreter (RefExecState in src/ir/interp.h) re-resolves
// every operand on every retired instruction: it branches over Value kinds,
// hashes into Layout::globalAddr/allocaAddr, chases list iterators, and — on
// the cycle-level side — probes the ScheduleMap on every terminator. This
// module compiles each Function once into a dense DecodedFunction: flat
// arrays of packed DecodedInst records carrying the opcode, pre-resolved
// operand slot indices or inline constant immediates, pre-folded
// global/alloca addresses, pre-resolved branch-target pcs with phi copy
// lists, and the pre-computed Microblaze cycle cost and HLS per-block FSM
// cycles. Execution then reads packed records with zero hash lookups and
// zero kind branching.
//
// ExecState here is the production engine behind the step() interface every
// caller already uses; all four execution engines (golden Interp,
// PipelineInterp, the CPU model and the HLS executors in src/sim) run on
// it. Each opcode has one implementation: the trace runner's handlers
// (ExecState::runSuper, src/exec/superblock.h). step() runs one op as a
// one-op trace through them; only the channel operations and poisoned
// records have arms of their own. Decoding snapshots the IR: rebuild the
// DecodedProgram after any transform (engines built per run do this
// naturally).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/exec/core.h"
#include "src/hls/schedule.h"

namespace twill {

class ThreadPort;

/// One phi move attached to a CFG edge. All sources are read before any
/// destination is written (parallel-copy semantics). Sources are frame slot
/// indices: constants and pre-folded addresses live in the frame's constant
/// pool (see DecodedFunction), so reads never branch on operand kind.
struct PhiCopy {
  uint32_t dst = 0;  // destination slot
  uint32_t src = 0;  // source slot
};

/// A decoded CFG edge: jump target plus the phi copies the edge performs.
struct DecodedEdge {
  uint32_t targetPc = 0;
  uint32_t copyBegin = 0;
  uint32_t copyCount = 0;
  int32_t trapMsg = -1;  // >= 0: taking this edge traps (malformed phi)
  /// Some copy's destination is another copy's source: stage through a
  /// scratch buffer to keep parallel-copy semantics (rare).
  bool overlaps = false;
};

struct DecodedFunction;

/// Superinstruction record: the superblock tier's compact (32-byte) mirror
/// of one DecodedInst. Built 1:1 with DecodedFunction::insts, so any pc is
/// a valid dispatch point; the trace runner (ExecState::runSuper,
/// src/exec/superblock.h) streams these instead of the 88-byte DecodedInst
/// records, executing a whole basic block — and, through fused `kJump`
/// records, whole chains of fall-through blocks — per dispatch. Only the
/// operand slots and widths the straight-line arms read are carried;
/// everything colder (call argument pools, HLS block costs, trap messages)
/// stays on the DecodedInst and is fetched through the pc on the rare
/// exits.
struct SuperOp {
  /// Dispatch code: values below kJump are the Opcode ordinal of a
  /// straight-line op ("execute and fall through to pc+1"); the named codes
  /// are block exits. The runner's direct-threaded dispatch indexes its
  /// label table with this byte, so straight-line ops jump straight to
  /// their specialized handler.
  enum Kind : uint8_t {
    kJump = 48,   // unconditional Br: phi copies + jump, trace continues
    kJump0,       // copy-free Br: aux is the target pc, pure goto
    kCond,        // CondBr: evaluate and follow an edge in-trace
    kCond0,       // copy-free CondBr: b/c are the true/false target pcs
    kRet,         // return: pop a frame (or finish the program)
    kCall,        // call: push a frame, trace continues in the callee
    kSlow,        // channel op or poisoned record: per-inst step() only
  };
  static_assert(kJump > static_cast<uint8_t>(Opcode::SemLower),
                "dispatch codes must not collide with Opcode ordinals");

  Opcode op = Opcode::Add;
  uint8_t kind = kSlow;
  uint8_t evalBits = 32;    // operand-0 width (binary/compare/cast-from)
  uint8_t auxBits = 32;     // cast to-width / gep index width
  uint8_t accessBytes = 4;  // load/store byte size
  uint8_t flags = 0;        // DecodedInst::kHasResult / kRetHasValue
  uint16_t swCost = 0;      // pre-computed swCycles()
  uint32_t a = 0, b = 0, c = 0;    // operand slots (kCond0: b/c target pcs)
  uint32_t resSlot = 0;
  uint32_t resMask = 0xFFFFFFFFu;
  uint32_t aux = 1;  // gep element byte scale; kJump: edge index; kJump0:
                     // target pc
};

/// Status of one ExecState::runSuper invocation (src/exec/superblock.h).
enum class SuperRunStatus : uint8_t {
  kFinished,  // outermost function returned (result() is valid)
  kTrapped,   // runtime error (trapMessage() is set)
  kNeedStep,  // next instruction needs the per-inst slow path (step())
  kBudget,    // the cost model stopped the run; resume with runSuper/step
};

/// Packed execution record for one instruction. Fixed operand fields a/b/c
/// cover every opcode with up to three operands; calls spill their
/// arguments into a per-function side pool. All operands are frame slot
/// indices — immediates were folded into the frame constant pool at decode
/// time — so the hot loop reads `slots[d.a]` unconditionally.
struct DecodedInst {
  static constexpr uint8_t kHasResult = 1u << 0;
  static constexpr uint8_t kRetHasValue = 1u << 1;
  static constexpr uint8_t kHasSchedule = 1u << 2;  // hlsStatic/hlsII valid

  Opcode op = Opcode::Add;
  uint8_t flags = 0;
  uint8_t evalBits = 32;    // operand-0 width (binary/compare/cast-from)
  uint8_t auxBits = 32;     // cast to-width / gep index width
  uint8_t accessBytes = 4;  // load/store byte size
  uint16_t swCost = 0;      // pre-computed swCycles()
  uint32_t a = 0, b = 0, c = 0;  // operand slots
  uint32_t resSlot = 0;
  uint32_t resMask = 0xFFFFFFFFu;  // result mask (instruction type width)
  uint32_t scale = 1;       // gep element byte scale
  int32_t channel = -1;     // produce/consume/semaphore id
  uint32_t edge0 = 0;       // Br/CondBr-true edge index
  uint32_t edge1 = 0;       // CondBr-false edge index
  uint32_t hlsStatic = 1;   // parent block static FSM cycles (terminators)
  uint32_t hlsII = 1;       // parent block pipelined initiation interval
  uint32_t blockUid = 0;    // program-wide block id (steady-state tracking)
  const DecodedFunction* callee = nullptr;
  uint32_t argBegin = 0, argCount = 0;    // call argument pool range
  int32_t trapMsg = -1;     // >= 0: executing this instruction traps
  const Instruction* src = nullptr;       // original IR (diagnostics)
};

/// A function compiled to the dense executable form. A frame window holds
/// `numSlots` value slots followed by the function's deduplicated constant
/// pool (`constPool`), copied in on frame entry; `frameSlots` is the total
/// window size.
struct DecodedFunction {
  Function* fn = nullptr;
  uint32_t numSlots = 0;
  uint32_t frameSlots = 0;
  uint32_t entryPc = 0;
  std::vector<DecodedInst> insts;        // block order, phis elided
  std::vector<DecodedEdge> edges;
  std::vector<PhiCopy> phiCopies;
  std::vector<uint32_t> callArgs;        // argument source slots
  std::vector<uint32_t> constPool;
  std::vector<std::string> trapMessages;
  /// Superblock tier: one compact record per DecodedInst (same indexing),
  /// built by buildSuperOps (src/exec/superblock.h) at decode time.
  std::vector<SuperOp> sops;
};

/// Decode cache for one module snapshot. Functions are decoded on first use
/// (call instructions resolve their callee's DecodedFunction eagerly, so the
/// execution hot loop never consults this cache). When `schedules` is given,
/// each terminator carries its block's static FSM cycles and pipelined
/// initiation interval for the HLS executors.
class DecodedProgram {
public:
  DecodedProgram(Module& m, const Layout& layout, const ScheduleMap* schedules = nullptr)
      : m_(m), layout_(layout), schedules_(schedules) {}

  const DecodedFunction& get(Function* f);

  Module& module() const { return m_; }
  const Layout& layout() const { return layout_; }

private:
  void decode(Function* f, DecodedFunction& df);

  Module& m_;
  const Layout& layout_;
  const ScheduleMap* schedules_;
  std::unordered_map<const Function*, std::unique_ptr<DecodedFunction>> cache_;
  uint32_t nextBlockUid_ = 0;
};

/// A single thread of pre-decoded IR execution with an explicit call stack,
/// advanced one instruction at a time. Blocking Twill operations (consume on
/// an empty queue, …) leave the state unchanged so the caller can retry;
/// this is exactly the interface the cycle-level CPU model and the
/// multi-threaded pipeline interpreter need. Behaviour matches RefExecState
/// bit for bit (tests/exec_test.cpp holds the equivalence suite).
class ExecState {
public:
  /// Shares a decode cache (one per simulation; threads share it).
  ExecState(DecodedProgram& prog, Memory& mem, ChannelIO& chans, Function* f,
            std::vector<uint32_t> args = {});

  /// Executes one instruction (or blocks), returning its status with the
  /// executed record. Any op runSuper handles runs through the trace runner
  /// as a one-op trace; step() itself performs only the channel operations
  /// (the one place an op can block) and traps on poisoned records.
  StepResult step();

  /// Superblock tier: executes straight-line runs, fused branches, calls
  /// and returns back-to-back under a caller-supplied cost model, returning
  /// only at a channel operation, a poisoned record, a trap, completion, or
  /// when the model stops the run. A run may stop at any op boundary;
  /// resuming with runSuper or step() continues exactly where it stopped.
  /// Defined in src/exec/superblock.h; include it to instantiate.
  template <class Model>
  SuperRunStatus runSuper(Model& model);

  /// True when the next instruction is one runSuper can execute (i.e. not a
  /// channel operation or poisoned record). Schedulers use this to choose
  /// between the trace runner and the per-inst interaction path.
  bool peekSuperRunnable() const {
    if (frames_.empty()) return false;
    const Frame& fr = frames_.back();
    return fr.fn->sops[fr.pc].kind != SuperOp::kSlow;
  }

  /// The next instruction to execute (null when finished). The scheduler
  /// peeks to see whether the next step can interact with other threads
  /// (queue/semaphore operations).
  const DecodedInst* peekInst() const {
    if (frames_.empty()) return nullptr;
    const Frame& fr = frames_.back();
    return &fr.fn->insts[fr.pc];
  }

  bool finished() const { return frames_.empty(); }
  uint32_t result() const { return result_; }
  bool trapped() const { return trapped_; }
  const std::string& trapMessage() const { return trapMessage_; }

  /// Total instructions retired (for reporting / cost sanity checks).
  uint64_t retired() const { return retired_; }

  /// Name of the root function (thread identity in reports).
  const std::string& name() const { return name_; }

  /// Human-readable current location ("fn/block: inst"), for deadlock
  /// diagnostics.
  std::string describeLocation() const;

private:
  struct Frame {
    const DecodedFunction* fn = nullptr;
    uint32_t pc = 0;
    uint32_t base = 0;      // this frame's window into slots_
    uint32_t retSlot = 0;   // caller slot receiving the return value
    uint32_t retMask = 0xFFFFFFFFu;
    bool wantRet = false;
  };

  void start(Function* f, std::vector<uint32_t>& args);
  /// Performs the edge's phi copies and jumps. False if the edge traps.
  bool takeEdge(Frame& fr, const DecodedFunction& df, uint32_t edgeIdx);
  StepResult trap(std::string msg);

  DecodedProgram& prog_;
  Memory& mem_;
  ChannelIO& chans_;
  /// Devirtualized channel endpoint when `chans_` is the runtime's
  /// ThreadPort (the cycle-level sims): queue handshakes are ~half of a
  /// pipelined kernel's retired instructions, and the indirect call cost
  /// dominates them.
  ThreadPort* fastPort_ = nullptr;
  std::vector<Frame> frames_;
  std::vector<uint32_t> slots_;      // all frame windows, stack discipline
  std::vector<uint32_t> phiScratch_; // parallel-copy staging
  uint32_t result_ = 0;
  bool trapped_ = false;
  std::string trapMessage_;
  uint64_t retired_ = 0;
  std::string name_;
};

}  // namespace twill
