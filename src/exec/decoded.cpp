#include "src/exec/decoded.h"

#include "src/exec/superblock.h"
#include "src/ir/eval.h"
#include "src/ir/printer.h"
#include "src/model/optables.h"
#include "src/rt/fabric.h"

namespace twill {

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

const DecodedFunction& DecodedProgram::get(Function* f) {
  auto it = cache_.find(f);
  if (it != cache_.end()) return *it->second;
  // Insert before decoding so (disallowed) recursive call graphs resolve to
  // a stable pointer instead of looping.
  auto& slot = cache_[f];
  slot = std::make_unique<DecodedFunction>();
  decode(f, *slot);
  return *slot;
}

namespace {

/// Records a trap message on the function and returns its index.
int32_t addTrap(DecodedFunction& df, std::string msg) {
  df.trapMessages.push_back(std::move(msg));
  return static_cast<int32_t>(df.trapMessages.size() - 1);
}

}  // namespace

void DecodedProgram::decode(Function* f, DecodedFunction& df) {
  f->renumber();
  df.fn = f;
  df.numSlots = f->numValueSlots();

  const FunctionSchedule* sched = nullptr;
  if (schedules_) {
    auto sit = schedules_->find(f);
    if (sit != schedules_->end()) sched = &sit->second;
  }
  const uint32_t blockUidBase = nextBlockUid_;
  nextBlockUid_ += static_cast<uint32_t>(f->numBlocks());

  // Pass 1: pc of each block's first non-phi instruction.
  std::vector<uint32_t> blockPc(f->numBlocks(), 0);
  uint32_t pc = 0;
  for (auto& bb : f->blocks()) {
    uint32_t first = pc;
    bool seen = false;
    for (auto& inst : *bb) {
      if (inst->isPhi()) continue;
      if (!seen) {
        first = pc;
        seen = true;
      }
      ++pc;
    }
    if (!seen) first = pc;  // malformed empty block; edge decode traps below
    blockPc[bb->id()] = first;
  }
  df.entryPc = f->entry() ? blockPc[f->entry()->id()] : 0;
  df.insts.reserve(pc);

  // Immediates (constants, pre-folded global/alloca addresses) are interned
  // into the frame constant pool, so every operand reference is a plain slot
  // index and the hot loop never branches on operand kind.
  std::unordered_map<uint32_t, uint32_t> poolIndex;
  auto poolSlot = [&](uint32_t value) -> uint32_t {
    auto [it, inserted] =
        poolIndex.try_emplace(value, df.numSlots + static_cast<uint32_t>(df.constPool.size()));
    if (inserted) df.constPool.push_back(value);
    return it->second;
  };

  // Resolves a data operand to a slot index. Unmapped globals/allocas poison
  // the instruction with a trap diagnostic instead of aborting
  // (Layout::addrOf used to call unordered_map::at here). `curBlock` tracks
  // the block being decoded so every poison diagnostic names the faulting
  // instruction's source block.
  const BasicBlock* curBlock = nullptr;
  auto atBlock = [&]() -> std::string {
    return " in @" + f->name() + (curBlock ? "/%" + curBlock->name() : std::string());
  };
  auto refOf = [&](Value* v, DecodedInst& d) -> uint32_t {
    if (const auto* cst = dyn_cast<Constant>(v))
      return poolSlot(static_cast<uint32_t>(cst->zext()));
    if (const auto* g = dyn_cast<GlobalVar>(v)) {
      uint32_t addr = layout_.addrOf(g);
      if (addr == Layout::kUnmapped && d.trapMsg < 0)
        d.trapMsg = addTrap(df, "global @" + g->name() + " has no address in this layout " +
                                    "(module changed after Layout::build?)" + atBlock());
      return poolSlot(addr);
    }
    int slot = Function::valueSlot(v);
    if (slot < 0) {
      if (d.trapMsg < 0) d.trapMsg = addTrap(df, "operand without a value slot" + atBlock());
      return poolSlot(0);
    }
    return static_cast<uint32_t>(slot);
  };
  auto setOpnd = [&](DecodedInst& d, unsigned which, Value* v) {
    (which == 0 ? d.a : which == 1 ? d.b : d.c) = refOf(v, d);
  };

  // Decodes the edge from `from` to `to`: target pc plus phi copies,
  // evaluated with parallel-copy semantics at run time.
  auto decodeEdge = [&](BasicBlock* from, BasicBlock* to, DecodedInst& d) -> uint32_t {
    DecodedEdge e;
    e.targetPc = blockPc[to->id()];
    e.copyBegin = static_cast<uint32_t>(df.phiCopies.size());
    if (to->empty()) {
      e.trapMsg = addTrap(df, "branch to empty block %" + to->name());
    } else {
      for (auto& instPtr : *to) {
        Instruction* phi = instPtr;
        if (!phi->isPhi()) break;
        int idx = phi->incomingIndexFor(from);
        if (idx < 0) {
          e.trapMsg = addTrap(df, "phi in %" + to->name() + " has no entry for predecessor %" +
                                      from->name());
          break;
        }
        PhiCopy pcpy;
        pcpy.dst = phi->id();
        pcpy.src = refOf(phi->incomingValue(static_cast<unsigned>(idx)), d);
        df.phiCopies.push_back(pcpy);
      }
    }
    e.copyCount = static_cast<uint32_t>(df.phiCopies.size()) - e.copyBegin;
    for (uint32_t i = e.copyBegin; i < e.copyBegin + e.copyCount && !e.overlaps; ++i)
      for (uint32_t j = e.copyBegin; j < e.copyBegin + e.copyCount; ++j)
        if (df.phiCopies[i].dst == df.phiCopies[j].src && i != j) {
          e.overlaps = true;
          break;
        }
    df.edges.push_back(e);
    return static_cast<uint32_t>(df.edges.size() - 1);
  };

  // Pass 2: emit the packed records.
  for (auto& bb : f->blocks()) {
    curBlock = bb;
    for (auto& instPtr : *bb) {
      Instruction* inst = instPtr;
      if (inst->isPhi()) continue;
      DecodedInst d;
      const Opcode op = inst->op();
      d.op = op;
      d.src = inst;
      d.swCost = static_cast<uint16_t>(swCycles(*inst));
      d.blockUid = blockUidBase + bb->id();
      if (!inst->type()->isVoid()) {
        d.flags |= DecodedInst::kHasResult;
        d.resMask = maskToBits(0xFFFFFFFFu, operandBits(inst));
        d.resSlot = inst->id();
      }
      if (inst->isTerminator() && sched) {
        d.flags |= DecodedInst::kHasSchedule;
        d.hlsStatic = sched->staticCyclesFor(bb);
        d.hlsII = sched->pipelinedIIFor(bb);
      }

      if (isBinaryOp(op) || isCompareOp(op)) {
        d.evalBits = static_cast<uint8_t>(operandBits(inst->operand(0)));
        setOpnd(d, 0, inst->operand(0));
        setOpnd(d, 1, inst->operand(1));
      } else if (isCastOp(op)) {
        d.evalBits = static_cast<uint8_t>(operandBits(inst->operand(0)));
        d.auxBits = static_cast<uint8_t>(inst->type()->bits());
        setOpnd(d, 0, inst->operand(0));
      } else {
        switch (op) {
          case Opcode::Select:
            setOpnd(d, 0, inst->operand(0));
            setOpnd(d, 1, inst->operand(1));
            setOpnd(d, 2, inst->operand(2));
            break;
          case Opcode::PtrToInt:
          case Opcode::IntToPtr:
            setOpnd(d, 0, inst->operand(0));
            break;
          case Opcode::Alloca: {
            uint32_t addr = layout_.addrOf(inst);
            if (addr == Layout::kUnmapped)
              d.trapMsg = addTrap(df, "alloca %" + inst->name() +
                                          " has no address in this layout " +
                                          "(module changed after Layout::build?)" + atBlock());
            d.a = poolSlot(addr);
            break;
          }
          case Opcode::Load:
            d.accessBytes = static_cast<uint8_t>(inst->type()->byteSize());
            setOpnd(d, 0, inst->operand(0));
            break;
          case Opcode::Store:
            d.accessBytes = static_cast<uint8_t>(inst->operand(0)->type()->byteSize());
            setOpnd(d, 0, inst->operand(0));  // value
            setOpnd(d, 1, inst->operand(1));  // address
            break;
          case Opcode::Gep: {
            unsigned pb = inst->type()->pointeeBits();
            d.scale = pb == 1 ? 1 : pb / 8;
            d.auxBits = static_cast<uint8_t>(operandBits(inst->operand(1)));
            setOpnd(d, 0, inst->operand(0));
            setOpnd(d, 1, inst->operand(1));
            break;
          }
          case Opcode::Produce:
            d.channel = inst->channel();
            setOpnd(d, 0, inst->operand(0));
            break;
          case Opcode::Consume:
            d.channel = inst->channel();
            break;
          case Opcode::SemRaise:
          case Opcode::SemLower:
            d.channel = inst->channel();
            setOpnd(d, 0, inst->operand(0));
            break;
          case Opcode::Br:
            d.edge0 = decodeEdge(bb, inst->successor(0), d);
            break;
          case Opcode::CondBr:
            setOpnd(d, 0, inst->operand(0));
            d.edge0 = decodeEdge(bb, inst->successor(0), d);
            d.edge1 = decodeEdge(bb, inst->successor(1), d);
            break;
          case Opcode::Ret:
            if (inst->numOperands()) {
              d.flags |= DecodedInst::kRetHasValue;
              setOpnd(d, 0, inst->operand(0));
            }
            break;
          case Opcode::Call: {
            d.callee = &get(inst->callee());
            d.argBegin = static_cast<uint32_t>(df.callArgs.size());
            for (unsigned i = 0; i < inst->numOperands(); ++i)
              df.callArgs.push_back(refOf(inst->operand(i), d));
            d.argCount = static_cast<uint32_t>(df.callArgs.size()) - d.argBegin;
            break;
          }
          case Opcode::Phi:
            break;  // elided; unreachable
          default:
            d.trapMsg = addTrap(df, std::string("unhandled opcode ") + opcodeName(op) + atBlock());
            break;
        }
      }
      // Poisoned records dispatch through the trap arm (see step()).
      if (d.trapMsg >= 0) d.op = Opcode::Phi;
      df.insts.push_back(d);
    }
    // Defensive: a block that is still being built (no terminator) must not
    // let the pc run into the next block.
    if (!bb->terminator()) {
      DecodedInst d;
      d.op = Opcode::Phi;
      d.src = bb->empty() ? nullptr : bb->back();
      d.trapMsg = addTrap(df, "block %" + bb->name() + " in @" + f->name() +
                                  " has no terminator");
      df.insts.push_back(d);
    }
  }
  df.frameSlots = df.numSlots + static_cast<uint32_t>(df.constPool.size());
  buildSuperOps(df);  // superblock tier (src/exec/superblock.h)
}

// ---------------------------------------------------------------------------
// ExecState
// ---------------------------------------------------------------------------

ExecState::ExecState(DecodedProgram& prog, Memory& mem, ChannelIO& chans, Function* f,
                     std::vector<uint32_t> args)
    : prog_(prog),
      mem_(mem),
      chans_(chans),
      fastPort_(dynamic_cast<ThreadPort*>(&chans)),
      name_(f->name()) {
  start(f, args);
}

void ExecState::start(Function* f, std::vector<uint32_t>& args) {
  const DecodedFunction& df = prog_.get(f);
  Frame fr;
  fr.fn = &df;
  fr.pc = df.entryPc;
  fr.base = 0;
  slots_.assign(df.frameSlots, 0);
  std::copy(df.constPool.begin(), df.constPool.end(), slots_.begin() + df.numSlots);
  for (unsigned i = 0; i < args.size() && i < f->numArgs(); ++i) slots_[i] = args[i];
  frames_.push_back(fr);
}

bool ExecState::takeEdge(Frame& fr, const DecodedFunction& df, uint32_t edgeIdx) {
  const DecodedEdge& e = df.edges[edgeIdx];
  if (e.trapMsg >= 0) {
    trap(df.trapMessages[static_cast<size_t>(e.trapMsg)]);
    return false;
  }
  uint32_t* slots = slots_.data() + fr.base;
  const PhiCopy* copies = df.phiCopies.data() + e.copyBegin;
  if (!e.overlaps) {
    for (uint32_t i = 0; i < e.copyCount; ++i) slots[copies[i].dst] = slots[copies[i].src];
  } else {
    // Parallel-copy: read every source before writing any destination.
    if (phiScratch_.size() < e.copyCount) phiScratch_.resize(e.copyCount);
    for (uint32_t i = 0; i < e.copyCount; ++i) phiScratch_[i] = slots[copies[i].src];
    for (uint32_t i = 0; i < e.copyCount; ++i) slots[copies[i].dst] = phiScratch_[i];
  }
  fr.pc = e.targetPc;
  return true;
}

std::string ExecState::describeLocation() const {
  if (frames_.empty()) return name_ + ": finished";
  const Frame& fr = frames_.back();
  const DecodedInst& d = fr.fn->insts[fr.pc];
  std::string s = fr.fn->fn->name().str();
  if (d.src) {
    s += "/" + d.src->parent()->name();
    s += ": " + printInstruction(d.src);
  }
  return s;
}

StepResult ExecState::trap(std::string msg) {
  trapped_ = true;
  trapMessage_ = std::move(msg);
  frames_.clear();
  return {StepStatus::Trapped, Opcode::Add, nullptr};
}

namespace {

/// Runs exactly one record through the trace runner: every op ends the run.
struct OneOpModel {
  bool begin() const { return true; }
  bool end(const SuperOp&) { return false; }
  bool endTerm(const DecodedInst&) { return false; }
  void endFinish(const DecodedInst&) {}
};

}  // namespace

StepResult ExecState::step() {
  // trap() clears the frame stack, so one emptiness test covers both ends.
  if (frames_.empty())
    return {trapped_ ? StepStatus::Trapped : StepStatus::Finished, Opcode::Add, nullptr};

  Frame& fr = frames_.back();
  const DecodedFunction& df = *fr.fn;
  const DecodedInst& d = df.insts[fr.pc];
  const Opcode op = d.op;

  // Every op the trace runner handles runs there, as a one-op trace: its
  // handlers are the only implementation of those opcodes.
  if (df.sops[fr.pc].kind != SuperOp::kSlow) {
    OneOpModel one;
    switch (runSuper(one)) {
      case SuperRunStatus::kFinished:
        return {StepStatus::Finished, op, &d};
      case SuperRunStatus::kTrapped:
        return {StepStatus::Trapped, op, &d};
      default:
        return {StepStatus::Ran, op, &d};
    }
  }

  // Blocking Twill operations (a blocked attempt leaves the state
  // unchanged). `fastPort_` is a constant per engine, so the selects below
  // are fully predictable, and the ThreadPort calls devirtualize and inline.
  uint32_t* slots = slots_.data() + fr.base;
  bool ok;
  switch (op) {
    case Opcode::Produce:
      ok = fastPort_ ? fastPort_->tryProduce(d.channel, slots[d.a])
                     : chans_.tryProduce(d.channel, slots[d.a]);
      break;
    case Opcode::Consume: {
      uint32_t v;
      ok = fastPort_ ? fastPort_->tryConsume(d.channel, v) : chans_.tryConsume(d.channel, v);
      if (ok) slots[d.resSlot] = v & d.resMask;
      break;
    }
    case Opcode::SemRaise:
      ok = fastPort_ ? fastPort_->trySemRaise(d.channel, slots[d.a])
                     : chans_.trySemRaise(d.channel, slots[d.a]);
      break;
    case Opcode::SemLower:
      ok = fastPort_ ? fastPort_->trySemLower(d.channel, slots[d.a])
                     : chans_.trySemLower(d.channel, slots[d.a]);
      break;
    default:
      // Decode-time poisoned records (unmapped address, malformed block,
      // genuinely unhandled opcode) carry op == Phi.
      if (d.trapMsg >= 0) return trap(df.trapMessages[static_cast<size_t>(d.trapMsg)]);
      return trap(std::string("unhandled opcode ") + opcodeName(op));
  }
  if (!ok) return {StepStatus::Blocked, op, &d};
  ++fr.pc;
  ++retired_;
  return {StepStatus::Ran, op, &d};
}

}  // namespace twill
