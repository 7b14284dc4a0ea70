#include "src/ir/interp.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/exec/superblock.h"
#include "src/ir/eval.h"
#include "src/ir/printer.h"
#include "src/obs/trace.h"

namespace twill {

// ---------------------------------------------------------------------------
// RefExecState
// ---------------------------------------------------------------------------

RefExecState::RefExecState(Module& m, const Layout& layout, Memory& mem, ChannelIO& chans,
                           Function* f, std::vector<uint32_t> args)
    : module_(m), layout_(layout), mem_(mem), chans_(chans), name_(f->name()) {
  f->renumber();
  Frame fr;
  fr.fn = f;
  fr.block = f->entry();
  fr.ip = f->entry()->begin();
  fr.slots.assign(f->numValueSlots(), 0);
  for (unsigned i = 0; i < args.size() && i < f->numArgs(); ++i) fr.slots[i] = args[i];
  frames_.push_back(std::move(fr));
}

uint32_t RefExecState::valueOf(const Value* v, const Frame& fr) {
  if (const auto* c = dyn_cast<Constant>(v)) return static_cast<uint32_t>(c->zext());
  if (const auto* g = dyn_cast<GlobalVar>(v)) {
    uint32_t addr = layout_.addrOf(g);
    if (addr == Layout::kUnmapped && pendingTrap_.empty())
      pendingTrap_ = "global @" + g->name() + " has no address in this layout " +
                     "(module changed after Layout::build?)";
    return addr;
  }
  int slot = Function::valueSlot(v);
  assert(slot >= 0 && static_cast<size_t>(slot) < fr.slots.size());
  return fr.slots[static_cast<size_t>(slot)];
}

void RefExecState::enterBlock(Frame& fr, BasicBlock* from, BasicBlock* to) {
  // Evaluate all PHIs of `to` atomically with values from before the edge.
  std::vector<std::pair<Instruction*, uint32_t>> values;
  for (auto& instPtr : *to) {
    Instruction* phi = instPtr;
    if (!phi->isPhi()) break;
    int idx = phi->incomingIndexFor(from);
    if (idx < 0) {
      trap("phi in %" + to->name() + " has no entry for predecessor %" + from->name());
      return;
    }
    values.push_back({phi, valueOf(phi->incomingValue(static_cast<unsigned>(idx)), fr)});
  }
  for (auto& [phi, v] : values) fr.slots[phi->id()] = v;
  fr.block = to;
  fr.ip = to->firstNonPhi();
}

std::string RefExecState::describeLocation() const {
  if (frames_.empty()) return name_ + ": finished";
  const Frame& fr = frames_.back();
  std::string s = fr.fn->name() + "/" + fr.block->name();
  if (fr.ip != fr.block->end()) s += ": " + printInstruction(*fr.ip);
  return s;
}

StepResult RefExecState::trap(std::string msg) {
  trapped_ = true;
  trapMessage_ = std::move(msg);
  frames_.clear();
  return {StepStatus::Trapped, Opcode::Add, nullptr};
}

StepResult RefExecState::step() {
  if (trapped_) return {StepStatus::Trapped, Opcode::Add, nullptr};
  if (frames_.empty()) return {StepStatus::Finished, Opcode::Add, nullptr};

  Frame& fr = frames_.back();
  assert(fr.ip != fr.block->end() && "fell off the end of a block without terminator");
  Instruction* inst = *fr.ip;
  const Opcode op = inst->op();

  auto ranOk = [&]() -> StepResult {
    if (!pendingTrap_.empty()) {
      std::string msg;
      std::swap(msg, pendingTrap_);
      return trap(std::move(msg));
    }
    ++retired_;
    return {StepStatus::Ran, op, nullptr};
  };

  // --- Blocking Twill operations (may leave state unchanged) ---------------
  switch (op) {
    case Opcode::Produce: {
      if (!chans_.tryProduce(inst->channel(), valueOf(inst->operand(0), fr)))
        return {StepStatus::Blocked, op, nullptr};
      ++fr.ip;
      return ranOk();
    }
    case Opcode::Consume: {
      uint32_t v;
      if (!chans_.tryConsume(inst->channel(), v))
        return {StepStatus::Blocked, op, nullptr};
      fr.slots[inst->id()] = maskToBits(v, operandBits(inst));
      ++fr.ip;
      return ranOk();
    }
    case Opcode::SemRaise: {
      if (!chans_.trySemRaise(inst->channel(), valueOf(inst->operand(0), fr)))
        return {StepStatus::Blocked, op, nullptr};
      ++fr.ip;
      return ranOk();
    }
    case Opcode::SemLower: {
      if (!chans_.trySemLower(inst->channel(), valueOf(inst->operand(0), fr)))
        return {StepStatus::Blocked, op, nullptr};
      ++fr.ip;
      return ranOk();
    }
    default:
      break;
  }

  // --- Control flow ----------------------------------------------------------
  switch (op) {
    case Opcode::Br: {
      enterBlock(fr, fr.block, inst->successor(0));
      return trapped_ ? StepResult{StepStatus::Trapped, op, nullptr} : ranOk();
    }
    case Opcode::CondBr: {
      uint32_t c = valueOf(inst->operand(0), fr) & 1u;
      enterBlock(fr, fr.block, inst->successor(c ? 0 : 1));
      return trapped_ ? StepResult{StepStatus::Trapped, op, nullptr} : ranOk();
    }
    case Opcode::Ret: {
      uint32_t rv = inst->numOperands() ? valueOf(inst->operand(0), fr) : 0;
      Instruction* callSite = fr.callSite;
      frames_.pop_back();
      if (frames_.empty()) {
        result_ = rv;
        ++retired_;
        return {StepStatus::Finished, op, nullptr};
      }
      Frame& caller = frames_.back();
      if (callSite && !callSite->type()->isVoid())
        caller.slots[callSite->id()] = maskToBits(rv, operandBits(callSite));
      ++caller.ip;
      return ranOk();
    }
    case Opcode::Call: {
      Function* callee = inst->callee();
      if (frames_.size() > 512) return trap("call depth exceeded (recursion is unsupported)");
      callee->renumber();
      Frame nf;
      nf.fn = callee;
      nf.block = callee->entry();
      nf.ip = callee->entry()->begin();
      nf.slots.assign(callee->numValueSlots(), 0);
      for (unsigned i = 0; i < inst->numOperands(); ++i)
        nf.slots[i] = valueOf(inst->operand(i), fr);
      nf.callSite = inst;
      frames_.push_back(std::move(nf));
      ++retired_;
      return {StepStatus::Ran, op, nullptr};
    }
    default:
      break;
  }

  // --- Straight-line operations ----------------------------------------------
  uint32_t result = 0;
  if (isBinaryOp(op)) {
    result = evalBinary(op, valueOf(inst->operand(0), fr), valueOf(inst->operand(1), fr),
                        operandBits(inst->operand(0)));
  } else if (isCompareOp(op)) {
    result = evalCompare(op, valueOf(inst->operand(0), fr), valueOf(inst->operand(1), fr),
                         operandBits(inst->operand(0)));
  } else if (isCastOp(op)) {
    result = evalCast(op, valueOf(inst->operand(0), fr), operandBits(inst->operand(0)),
                      inst->type()->bits());
  } else {
    switch (op) {
      case Opcode::Select:
        result = (valueOf(inst->operand(0), fr) & 1u) ? valueOf(inst->operand(1), fr)
                                                      : valueOf(inst->operand(2), fr);
        break;
      case Opcode::PtrToInt:
      case Opcode::IntToPtr:
        result = valueOf(inst->operand(0), fr);
        break;
      case Opcode::Alloca: {
        result = layout_.addrOf(inst);
        if (result == Layout::kUnmapped)
          return trap("alloca %" + inst->name() + " in @" + fr.fn->name() +
                      " has no address in this layout (module changed after Layout::build?)");
        break;
      }
      case Opcode::Load: {
        uint32_t addr = valueOf(inst->operand(0), fr);
        if (!pendingTrap_.empty()) return ranOk();  // surfaces the trap
        uint32_t bytes = inst->type()->byteSize();
        if (!mem_.inRange(addr, bytes)) return trap(memOutOfRangeMessage(addr, bytes, mem_.size()));
        result = mem_.load(addr, bytes);
        break;
      }
      case Opcode::Store: {
        uint32_t addr = valueOf(inst->operand(1), fr);
        uint32_t v = valueOf(inst->operand(0), fr);
        if (!pendingTrap_.empty()) return ranOk();  // surfaces the trap
        uint32_t bytes = inst->operand(0)->type()->byteSize();
        if (!mem_.inRange(addr, bytes)) return trap(memOutOfRangeMessage(addr, bytes, mem_.size()));
        mem_.store(addr, bytes, v);
        break;
      }
      case Opcode::Gep: {
        uint32_t base = valueOf(inst->operand(0), fr);
        uint32_t idx = valueOf(inst->operand(1), fr);
        unsigned pb = inst->type()->pointeeBits();
        unsigned scale = pb == 1 ? 1 : pb / 8;
        int32_t sidx = signExtend(idx, operandBits(inst->operand(1)));
        result = base + static_cast<uint32_t>(sidx) * scale;
        break;
      }
      case Opcode::Phi:
        return trap("phi executed directly (block entry should have handled it)");
      default:
        return trap(std::string("unhandled opcode ") + opcodeName(op));
    }
  }
  if (!inst->type()->isVoid()) fr.slots[inst->id()] = maskToBits(result, operandBits(inst));
  ++fr.ip;
  return ranOk();
}

// ---------------------------------------------------------------------------
// Interp
// ---------------------------------------------------------------------------

InterpOutcome Interp::runChecked(Function* f, std::vector<uint32_t> args, uint64_t maxSteps,
                                 double wallBudgetMs) {
  InterpOutcome out;
  if (!layout_.ok) {
    out.resource = true;
    out.message = layout_.error;
    return out;
  }
  if (!prog_) prog_ = std::make_unique<DecodedProgram>(module_, layout_);
  FunctionalChannels chans;
  ExecState st(*prog_, memory(), chans, f, std::move(args));
  const uint64_t startUs = traceNowUs();
  uint64_t remaining = maxSteps;
  auto outOfSteps = [&]() -> InterpOutcome& {
    out.resource = true;
    out.message = "step limit exceeded in @" + f->name() + " (budget " +
                  std::to_string(maxSteps) + " steps)";
    return out;
  };
  // Superblock tier: runSuper streams whole traces and only hands back for
  // channel operations (stepped singly below) or the step-budget guard,
  // which keeps the historical maxSteps semantics attempt for attempt. The
  // budget is fed to the runner in bounded chunks so the wall-clock deadline
  // is honored even when the program never leaves the runner.
  for (;;) {
    const uint64_t chunk = remaining < (1u << 20) ? remaining : (1u << 20);
    FunctionalSuperModel model{chunk};
    const SuperRunStatus rs = st.runSuper(model);
    remaining -= chunk - model.budget;
    if (rs == SuperRunStatus::kFinished) {
      retired_ += st.retired();
      out.ok = true;
      out.result = st.result();
      return out;
    }
    if (rs == SuperRunStatus::kTrapped) {
      out.trapped = true;
      out.message = st.trapMessage();
      return out;
    }
    if (wallBudgetMs > 0 && static_cast<double>(traceNowUs() - startUs) > wallBudgetMs * 1000) {
      out.resource = true;
      out.message = "wall-clock budget exceeded in @" + f->name() + " (" +
                    std::to_string(wallBudgetMs) + " ms)";
      return out;
    }
    if (rs == SuperRunStatus::kBudget) {
      if (remaining == 0) return outOfSteps();
      continue;  // just the end of a chunk
    }
    // kNeedStep: a channel operation — one attempt, like the old loop.
    if (remaining == 0) return outOfSteps();
    StepResult r = st.step();
    --remaining;
    if (r.status == StepStatus::Finished) {
      retired_ += st.retired();
      out.ok = true;
      out.result = st.result();
      return out;
    }
    if (r.status == StepStatus::Trapped) {
      out.trapped = true;
      out.message = st.trapMessage();
      return out;
    }
    if (r.status == StepStatus::Blocked) {
      out.trapped = true;
      out.message = std::string("single-threaded run blocked on ") + opcodeName(r.op) + " ch" +
                    std::to_string(r.dinst ? r.dinst->channel : -1);
      return out;
    }
  }
}

uint32_t Interp::run(Function* f, std::vector<uint32_t> args, uint64_t maxSteps) {
  InterpOutcome out = runChecked(f, std::move(args), maxSteps);
  if (!out.ok) {
    // Tests and benches run trusted modules; a failed run is a harness bug,
    // so keep the historical loud abort here (untrusted paths use
    // runChecked directly).
    std::fprintf(stderr, "twill interp failure in @%s: %s\n", f->name().c_str(),
                 out.message.c_str());
    std::abort();
  }
  return out.result;
}

uint32_t Interp::run(const std::string& fname, std::vector<uint32_t> args) {
  Function* f = module_.findFunction(fname);
  if (!f) {
    // A loud failure beats the NDEBUG null-deref the old assert left behind.
    std::fprintf(stderr, "twill interp: function @%s not found\n", fname.c_str());
    std::abort();
  }
  return run(f, std::move(args));
}

// ---------------------------------------------------------------------------
// PipelineInterp
// ---------------------------------------------------------------------------

size_t PipelineInterp::addThread(Function* f, std::vector<uint32_t> args) {
  if (!prog_) prog_ = std::make_unique<DecodedProgram>(module_, layout_);
  threads_.emplace_back(new ExecState(*prog_, mem_, chans_, f, std::move(args)));
  return threads_.size() - 1;
}

PipelineInterp::RunOutcome PipelineInterp::run(uint64_t maxSteps) {
  RunOutcome out;
  if (!layout_.ok) {
    out.message = layout_.error;
    return out;
  }
  if (threads_.empty()) return out;
  uint64_t steps = 0;
  // Round-robin with a large per-thread burst: decoupled pipelines make most
  // progress when each stage runs until it blocks. The superblock runner
  // executes each burst's straight-line traces; only the queue/semaphore
  // operations go through the per-inst step() path, so blocked attempts are
  // detected exactly as before (a burst slot is one step attempt).
  while (steps < maxSteps) {
    bool progress = false;
    for (auto& t : threads_) {
      if (t->finished() || t->trapped()) continue;
      FunctionalSuperModel model{4096};
      bool burstDone = false;
      while (!burstDone) {
        const uint64_t budgetBefore = model.budget;
        const SuperRunStatus rs = t->runSuper(model);
        const uint64_t used = budgetBefore - model.budget;
        steps += used;
        if (used > 0) progress = true;
        if (rs == SuperRunStatus::kFinished) {
          progress = true;
          break;
        }
        if (rs == SuperRunStatus::kTrapped) {
          out.trapped = true;
          out.message = t->name() + ": " + t->trapMessage();
          return out;
        }
        if (rs == SuperRunStatus::kBudget || model.budget == 0) break;
        // kNeedStep: a channel operation — one attempt, like the old loop.
        StepResult r = t->step();
        ++steps;
        --model.budget;
        switch (r.status) {
          case StepStatus::Ran:
            progress = true;
            break;
          case StepStatus::Finished:
            progress = true;
            burstDone = true;
            break;
          case StepStatus::Trapped:
            out.trapped = true;
            out.message = t->name() + ": " + t->trapMessage();
            return out;
          case StepStatus::Blocked:
            burstDone = true;
            break;
        }
      }
      if (threads_[0]->finished()) {
        out.ok = true;
        out.result = threads_[0]->result();
        for (auto& th : threads_) out.totalRetired += th->retired();
        return out;
      }
    }
    if (!progress) {
      out.deadlocked = true;
      out.message = "pipeline deadlock: no thread can make progress";
      return out;
    }
  }
  out.message = "step limit exceeded";
  return out;
}

}  // namespace twill
