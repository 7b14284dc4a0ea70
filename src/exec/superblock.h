// Superblock/trace execution tier.
//
// The trace runner below is the engine's one implementation of every
// opcode except the channel operations. ExecState::step() runs a single op
// through it as a one-op trace, paying a call, a 16-byte StepResult and a
// frame re-load per instruction; a long run amortizes all of that.
// buildSuperOps compiles every DecodedInst into a compact 32-byte SuperOp
// whose `kind` byte is a dispatch code, and the runner streams those
// records without returning to the caller — straight-line runs execute
// under direct-threaded dispatch (each handler ends in its own indirect
// branch, so the BTB learns each site's successor instead of one shared
// mispredicting site), unconditional branches are fused `kJump` records
// that chain fall-through blocks (phi copies included) into one trace,
// two-way branches follow their edge in-trace (the IR has no multiway
// branch: a C `switch` reaches it as a compare/branch chain), and
// calls/returns just swap the frame window and keep running. The runner
// leaves the loop only for a channel operation or a poisoned record
// (`kSlow` — step()'s own arms), a trap, program completion, or when the
// caller's cost model says stop.
//
// Cost models parameterize the runner so every engine keeps its exact
// accounting: the functional engines count step attempts, and the
// cycle-level simulators (src/sim/system.cpp) charge both tiers through one
// cost model per domain (SwCost/HwCost), so reports are byte-identical to
// per-inst stepping. The model contract:
//
//   bool begin();                        // before each op; false = stop now
//   bool end(const SuperOp&);            // after a straight-line op
//   bool endTerm(const DecodedInst&);    // after a branch/call/non-final ret
//   void endFinish(const DecodedInst&);  // after the final ret (no resume)
//
// `end*` returning false stops the run with the engine at the next valid
// pc; resuming with runSuper (or step()) continues exactly where it left
// off.
#pragma once

#include "src/exec/decoded.h"
#include "src/ir/eval.h"

namespace twill {

/// Builds DecodedFunction::sops (1:1 with insts). Called by the decoder;
/// idempotent.
void buildSuperOps(DecodedFunction& df);

/// Cost model for the functional engines: a pure step-attempt budget
/// (mirroring the historical `maxSteps` loop guards), no timing. Attempts
/// consumed by a run = budget before - budget after.
struct FunctionalSuperModel {
  uint64_t budget;  // remaining step attempts

  bool begin() const { return budget != 0; }
  bool end(const SuperOp&) {
    --budget;
    return true;
  }
  bool endTerm(const DecodedInst&) {
    --budget;
    return true;
  }
  void endFinish(const DecodedInst&) { --budget; }
};

// Direct-threaded dispatch needs the GNU computed-goto extension (gcc and
// clang both provide it; CI builds both). Define TWILL_SUPER_NO_THREADED to
// get the portable switch dispatcher — it shares every handler body with
// the threaded path through the TWILL_SUPER_LABEL_* macros below, so the
// two cannot drift apart.
#if defined(__GNUC__) && !defined(TWILL_SUPER_NO_THREADED)
#define TWILL_SUPER_THREADED 1
#else
#define TWILL_SUPER_THREADED 0
#endif

/// Which dispatcher this build compiled in (surfaced on twilld's
/// /v1/healthz so a probe can tell the portable fallback from the fast
/// path without inspecting compiler flags).
inline const char* superDispatchKind() { return TWILL_SUPER_THREADED ? "threaded" : "portable"; }

template <class Model>
SuperRunStatus ExecState::runSuper(Model& model) {
  if (frames_.empty()) return trapped_ ? SuperRunStatus::kTrapped : SuperRunStatus::kFinished;
  Frame* fr = &frames_.back();
  const DecodedFunction* df = fr->fn;
  const SuperOp* sops = df->sops.data();
  const DecodedInst* insts = df->insts.data();
  uint32_t* slots = slots_.data() + fr->base;
  uint32_t pc = fr->pc;
  // Registers for the whole run; flushed on every return (TWILL_SUPER_STOP)
  // and re-derived after a frame push/pop or slots_ reallocation
  // (TWILL_SUPER_RELOAD). No lambdas or escaping references here: anything
  // address-taken would pin these to the stack frame.
  uint64_t retired = retired_;

#define TWILL_SUPER_RELOAD()            \
  do {                                  \
    fr = &frames_.back();               \
    df = fr->fn;                        \
    sops = df->sops.data();             \
    insts = df->insts.data();           \
    slots = slots_.data() + fr->base;   \
    pc = fr->pc;                        \
  } while (0)

#define TWILL_SUPER_STOP(status)         \
  do {                                   \
    retired_ = retired;                  \
    return SuperRunStatus::status;       \
  } while (0)

#define TWILL_SUPER_PRE()       \
  if (!model.begin()) {         \
    fr->pc = pc;                \
    TWILL_SUPER_STOP(kBudget);  \
  }
#define TWILL_SUPER_POST(so)    \
  ++pc;                         \
  ++retired;                    \
  if (!model.end(so)) {         \
    fr->pc = pc;                \
    TWILL_SUPER_STOP(kBudget);  \
  }

#if TWILL_SUPER_THREADED

#define TWILL_SUPER_LABEL_OP(x) lbl_op_##x:
#define TWILL_SUPER_LABEL_KIND(x) lbl_kind_##x:
#define TWILL_SUPER_LABEL_DEFAULT
#define TWILL_SUPER_NEXT() goto* kTbl[sops[pc].kind]

  // Label table indexed by SuperOp::kind: Opcode ordinals first (keep in
  // Opcode declaration order; opcodes that never appear as a dispatch code
  // map to the defensive slow handler), padding up to kJump, then the exit
  // codes. The bound is left to the initializer so the static_assert below
  // rejects a short table, whose missing entries would be null labels.
  static const void* const kTbl[] = {
      // Binary (13).
      &&lbl_op_Add, &&lbl_op_Sub, &&lbl_op_Mul, &&lbl_op_SDiv, &&lbl_op_UDiv, &&lbl_op_SRem,
      &&lbl_op_URem, &&lbl_op_And, &&lbl_op_Or, &&lbl_op_Xor, &&lbl_op_Shl, &&lbl_op_LShr,
      &&lbl_op_AShr,
      // Compares (10).
      &&lbl_op_CmpEQ, &&lbl_op_CmpNE, &&lbl_op_CmpSLT, &&lbl_op_CmpSLE, &&lbl_op_CmpSGT,
      &&lbl_op_CmpSGE, &&lbl_op_CmpULT, &&lbl_op_CmpULE, &&lbl_op_CmpUGT, &&lbl_op_CmpUGE,
      // Casts and selection (4).
      &&lbl_op_ZExt, &&lbl_op_SExt, &&lbl_op_Trunc, &&lbl_op_Select,
      // Pointer reinterpretation (2).
      &&lbl_op_PtrToInt, &&lbl_op_IntToPtr,
      // Memory (4).
      &&lbl_op_Alloca, &&lbl_op_Load, &&lbl_op_Store, &&lbl_op_Gep,
      // Phi..SemLower (9) never appear as dispatch codes.
      &&lbl_kind_kSlow, &&lbl_kind_kSlow, &&lbl_kind_kSlow, &&lbl_kind_kSlow, &&lbl_kind_kSlow,
      &&lbl_kind_kSlow, &&lbl_kind_kSlow, &&lbl_kind_kSlow, &&lbl_kind_kSlow,
      // Padding up to kJump = 48.
      &&lbl_kind_kSlow, &&lbl_kind_kSlow, &&lbl_kind_kSlow, &&lbl_kind_kSlow, &&lbl_kind_kSlow,
      &&lbl_kind_kSlow,
      // Exits: kJump, kJump0, kCond, kCond0, kRet, kCall, kSlow.
      &&lbl_kind_kJump, &&lbl_kind_kJump0, &&lbl_kind_kCond, &&lbl_kind_kCond0,
      &&lbl_kind_kRet, &&lbl_kind_kCall, &&lbl_kind_kSlow,
  };
  static_assert(sizeof(kTbl) / sizeof(kTbl[0]) == SuperOp::kSlow + 1,
                "kTbl needs one label per dispatch code, in SuperOp::Kind order");
  TWILL_SUPER_NEXT();

#else  // !TWILL_SUPER_THREADED

#define TWILL_SUPER_LABEL_OP(x) case static_cast<uint8_t>(Opcode::x):
#define TWILL_SUPER_LABEL_KIND(x) case SuperOp::x:
#define TWILL_SUPER_LABEL_DEFAULT default:
#define TWILL_SUPER_NEXT() continue

  for (;;) {
    switch (sops[pc].kind) {

#endif  // TWILL_SUPER_THREADED

      // --- Straight-line handlers ------------------------------------------
      // Every op here provably has a result except Store, so the write-back
      // is unconditional.

#define TWILL_SUPER_BIN(OP)                                                               \
  TWILL_SUPER_LABEL_OP(OP) {                                                              \
    const SuperOp& so = sops[pc];                                                         \
    TWILL_SUPER_PRE();                                                                    \
    slots[so.resSlot] =                                                                   \
        evalBinary(Opcode::OP, slots[so.a], slots[so.b], so.evalBits) & so.resMask;       \
    TWILL_SUPER_POST(so);                                                                 \
    TWILL_SUPER_NEXT();                                                                   \
  }
#define TWILL_SUPER_CMP(OP)                                                               \
  TWILL_SUPER_LABEL_OP(OP) {                                                              \
    const SuperOp& so = sops[pc];                                                         \
    TWILL_SUPER_PRE();                                                                    \
    slots[so.resSlot] =                                                                   \
        evalCompare(Opcode::OP, slots[so.a], slots[so.b], so.evalBits) & so.resMask;      \
    TWILL_SUPER_POST(so);                                                                 \
    TWILL_SUPER_NEXT();                                                                   \
  }
#define TWILL_SUPER_CAST(OP)                                                              \
  TWILL_SUPER_LABEL_OP(OP) {                                                              \
    const SuperOp& so = sops[pc];                                                         \
    TWILL_SUPER_PRE();                                                                    \
    slots[so.resSlot] =                                                                   \
        evalCast(Opcode::OP, slots[so.a], so.evalBits, so.auxBits) & so.resMask;          \
    TWILL_SUPER_POST(so);                                                                 \
    TWILL_SUPER_NEXT();                                                                   \
  }

      TWILL_SUPER_BIN(Add)
      TWILL_SUPER_BIN(Sub)
      TWILL_SUPER_BIN(Mul)
      TWILL_SUPER_BIN(SDiv)
      TWILL_SUPER_BIN(UDiv)
      TWILL_SUPER_BIN(SRem)
      TWILL_SUPER_BIN(URem)
      TWILL_SUPER_BIN(And)
      TWILL_SUPER_BIN(Or)
      TWILL_SUPER_BIN(Xor)
      TWILL_SUPER_BIN(Shl)
      TWILL_SUPER_BIN(LShr)
      TWILL_SUPER_BIN(AShr)
      TWILL_SUPER_CMP(CmpEQ)
      TWILL_SUPER_CMP(CmpNE)
      TWILL_SUPER_CMP(CmpSLT)
      TWILL_SUPER_CMP(CmpSLE)
      TWILL_SUPER_CMP(CmpSGT)
      TWILL_SUPER_CMP(CmpSGE)
      TWILL_SUPER_CMP(CmpULT)
      TWILL_SUPER_CMP(CmpULE)
      TWILL_SUPER_CMP(CmpUGT)
      TWILL_SUPER_CMP(CmpUGE)
      TWILL_SUPER_CAST(ZExt)
      TWILL_SUPER_CAST(SExt)
      TWILL_SUPER_CAST(Trunc)

      TWILL_SUPER_LABEL_OP(Select) {
        const SuperOp& so = sops[pc];
        TWILL_SUPER_PRE();
        slots[so.resSlot] = ((slots[so.a] & 1u) ? slots[so.b] : slots[so.c]) & so.resMask;
        TWILL_SUPER_POST(so);
        TWILL_SUPER_NEXT();
      }
      TWILL_SUPER_LABEL_OP(PtrToInt) {
        const SuperOp& so = sops[pc];
        TWILL_SUPER_PRE();
        slots[so.resSlot] = slots[so.a] & so.resMask;
        TWILL_SUPER_POST(so);
        TWILL_SUPER_NEXT();
      }
      TWILL_SUPER_LABEL_OP(IntToPtr) {
        const SuperOp& so = sops[pc];
        TWILL_SUPER_PRE();
        slots[so.resSlot] = slots[so.a] & so.resMask;
        TWILL_SUPER_POST(so);
        TWILL_SUPER_NEXT();
      }
      TWILL_SUPER_LABEL_OP(Alloca) {
        const SuperOp& so = sops[pc];
        TWILL_SUPER_PRE();
        slots[so.resSlot] = slots[so.a] & so.resMask;
        TWILL_SUPER_POST(so);
        TWILL_SUPER_NEXT();
      }
      TWILL_SUPER_LABEL_OP(Load) {
        const SuperOp& so = sops[pc];
        TWILL_SUPER_PRE();
        if (!mem_.inRange(slots[so.a], so.accessBytes)) {
          // trap() clears the frame stack, so no pc write-back is needed; the
          // trapped op is not counted as retired.
          trap(memOutOfRangeMessage(slots[so.a], so.accessBytes, mem_.size()));
          TWILL_SUPER_STOP(kTrapped);
        }
        slots[so.resSlot] = mem_.load(slots[so.a], so.accessBytes) & so.resMask;
        TWILL_SUPER_POST(so);
        TWILL_SUPER_NEXT();
      }
      TWILL_SUPER_LABEL_OP(Store) {
        const SuperOp& so = sops[pc];
        TWILL_SUPER_PRE();
        if (!mem_.inRange(slots[so.b], so.accessBytes)) {
          trap(memOutOfRangeMessage(slots[so.b], so.accessBytes, mem_.size()));
          TWILL_SUPER_STOP(kTrapped);
        }
        mem_.store(slots[so.b], so.accessBytes, slots[so.a]);
        TWILL_SUPER_POST(so);
        TWILL_SUPER_NEXT();
      }
      TWILL_SUPER_LABEL_OP(Gep) {
        const SuperOp& so = sops[pc];
        TWILL_SUPER_PRE();
        slots[so.resSlot] =
            (slots[so.a] + static_cast<uint32_t>(signExtend(slots[so.b], so.auxBits)) * so.aux) &
            so.resMask;
        TWILL_SUPER_POST(so);
        TWILL_SUPER_NEXT();
      }

      // --- Block exits -----------------------------------------------------
      // The cold fields come from the full DecodedInst record.

      TWILL_SUPER_LABEL_KIND(kJump) {
        const SuperOp& so = sops[pc];
        TWILL_SUPER_PRE();
        const DecodedInst& d = insts[pc];
        if (!takeEdge(*fr, *df, so.aux)) TWILL_SUPER_STOP(kTrapped);
        pc = fr->pc;
        ++retired;
        if (!model.endTerm(d)) TWILL_SUPER_STOP(kBudget);
        TWILL_SUPER_NEXT();
      }
      TWILL_SUPER_LABEL_KIND(kJump0) {
        const SuperOp& so = sops[pc];
        TWILL_SUPER_PRE();
        const DecodedInst& d = insts[pc];
        pc = so.aux;  // copy-free edge: pure goto
        ++retired;
        if (!model.endTerm(d)) {
          fr->pc = pc;
          TWILL_SUPER_STOP(kBudget);
        }
        TWILL_SUPER_NEXT();
      }
      TWILL_SUPER_LABEL_KIND(kCond) {
        const SuperOp& so = sops[pc];
        TWILL_SUPER_PRE();
        const DecodedInst& d = insts[pc];
        const uint32_t cond = slots[so.a] & 1u;
        if (!takeEdge(*fr, *df, cond ? d.edge0 : d.edge1)) TWILL_SUPER_STOP(kTrapped);
        pc = fr->pc;
        ++retired;
        if (!model.endTerm(d)) TWILL_SUPER_STOP(kBudget);
        TWILL_SUPER_NEXT();
      }
      TWILL_SUPER_LABEL_KIND(kCond0) {
        const SuperOp& so = sops[pc];
        TWILL_SUPER_PRE();
        const DecodedInst& d = insts[pc];
        pc = (slots[so.a] & 1u) ? so.b : so.c;  // both edges copy-free
        ++retired;
        if (!model.endTerm(d)) {
          fr->pc = pc;
          TWILL_SUPER_STOP(kBudget);
        }
        TWILL_SUPER_NEXT();
      }
      TWILL_SUPER_LABEL_KIND(kRet) {
        const SuperOp& so = sops[pc];
        TWILL_SUPER_PRE();
        const DecodedInst& d = insts[pc];
        const uint32_t rv = (so.flags & DecodedInst::kRetHasValue) ? slots[so.a] : 0;
        const Frame popped = *fr;
        frames_.pop_back();  // slots_ keeps its high-water size; kCall re-fills
        ++retired;
        if (frames_.empty()) {
          result_ = rv;
          model.endFinish(d);
          TWILL_SUPER_STOP(kFinished);
        }
        Frame& caller = frames_.back();
        if (popped.wantRet) slots_[caller.base + popped.retSlot] = rv & popped.retMask;
        ++caller.pc;
        TWILL_SUPER_RELOAD();
        if (!model.endTerm(d)) TWILL_SUPER_STOP(kBudget);
        TWILL_SUPER_NEXT();
      }
      TWILL_SUPER_LABEL_KIND(kCall) {
        TWILL_SUPER_PRE();
        const DecodedInst& d = insts[pc];
        if (frames_.size() > 512) {
          trap("call depth exceeded (recursion is unsupported)");
          TWILL_SUPER_STOP(kTrapped);
        }
        const DecodedFunction* callee = d.callee;
        fr->pc = pc;  // the matching Ret resumes the caller at pc + 1
        const uint32_t newBase = fr->base + df->frameSlots;
        if (slots_.size() < newBase + callee->frameSlots)
          slots_.resize(newBase + callee->frameSlots);
        std::fill(slots_.begin() + newBase, slots_.begin() + newBase + callee->numSlots, 0);
        std::copy(callee->constPool.begin(), callee->constPool.end(),
                  slots_.begin() + newBase + callee->numSlots);
        uint32_t* callerSlots = slots_.data() + fr->base;  // re-read after resize
        const uint32_t* args = df->callArgs.data() + d.argBegin;
        const uint32_t nCopy = d.argCount < callee->numSlots ? d.argCount : callee->numSlots;
        for (uint32_t i = 0; i < nCopy; ++i) slots_[newBase + i] = callerSlots[args[i]];
        Frame nf;
        nf.fn = callee;
        nf.pc = callee->entryPc;
        nf.base = newBase;
        nf.retSlot = d.resSlot;
        nf.retMask = d.resMask;
        nf.wantRet = (d.flags & DecodedInst::kHasResult) != 0;
        frames_.push_back(nf);
        ++retired;
        TWILL_SUPER_RELOAD();
        if (!model.endTerm(d)) TWILL_SUPER_STOP(kBudget);
        TWILL_SUPER_NEXT();
      }
      TWILL_SUPER_LABEL_DEFAULT
      TWILL_SUPER_LABEL_KIND(kSlow) {
        // Channel op, poisoned record, or an unknown code: hand the op to
        // the per-inst path (step() performs, blocks on, or traps it).
        fr->pc = pc;
        TWILL_SUPER_STOP(kNeedStep);
      }

#if !TWILL_SUPER_THREADED
    }
  }
#endif

#undef TWILL_SUPER_BIN
#undef TWILL_SUPER_CMP
#undef TWILL_SUPER_CAST
#undef TWILL_SUPER_LABEL_OP
#undef TWILL_SUPER_LABEL_KIND
#undef TWILL_SUPER_LABEL_DEFAULT
#undef TWILL_SUPER_NEXT
#undef TWILL_SUPER_PRE
#undef TWILL_SUPER_POST
#undef TWILL_SUPER_STOP
#undef TWILL_SUPER_RELOAD
}

}  // namespace twill
