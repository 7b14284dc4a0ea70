#include "src/hls/schedule.h"

#include <algorithm>
#include <array>

namespace twill {
namespace {

bool isChainable(const Instruction& inst) {
  return hwLatency(inst) == 0 && !inst.isTerminator() && inst.op() != Opcode::Phi;
}

bool usesMemPort(Opcode op) { return op == Opcode::Load || op == Opcode::Store; }
bool usesQueuePort(Opcode op) {
  return op == Opcode::Produce || op == Opcode::Consume || op == Opcode::SemRaise ||
         op == Opcode::SemLower;
}

struct StateUse {
  unsigned chainDepth = 0;  // max combinational depth accumulated
  unsigned memOps = 0;
  unsigned queueOps = 0;
  unsigned muls = 0;
  unsigned divs = 0;
  std::array<unsigned, kNumOpcodes> fuUse{};  // per-kind concurrent use
};

bool isDivOp(Opcode op) {
  return op == Opcode::SDiv || op == Opcode::UDiv || op == Opcode::SRem || op == Opcode::URem;
}

}  // namespace

FunctionSchedule scheduleFunction(Function& f, const HlsConstraints& c) {
  FunctionSchedule out;
  f.renumber();
  out.blocks.resize(f.numBlocks());

  // Per-function FU binding: track the maximum concurrent use of each
  // expensive unit kind across all states; shared units are muxed.
  std::array<unsigned, kNumOpcodes> maxFuUse{};
  // Per-opcode static census (first occurrence + instance count), filled in
  // the main walk so the area loop below never rescans the function.
  std::array<const Instruction*, kNumOpcodes> sample{};
  std::array<unsigned, kNumOpcodes> instances{};
  // Register estimate: one register per computed value. Consume results
  // live in the HWInterface's receive register (cheap), and PHIs are
  // counted as muxes by hwOpArea, so neither gets a full register here —
  // this matters for DSWP partitions, where replicated control flow and
  // queue plumbing must not be charged like real datapath.
  size_t valueCount = f.numArgs();
  size_t consumeCount = 0;

  // ready[instr id] = {state in which the value is available, combinational
  // depth within that state (for chaining)}. Ids are dense after renumber(),
  // so one flat vector serves every block; readyIn tags which block wrote a
  // slot, so entries from other blocks (or not-yet-scheduled defs) read as
  // absent without clearing between blocks.
  std::vector<std::pair<unsigned, unsigned>> ready(f.numValueSlots());
  std::vector<const BasicBlock*> readyIn(f.numValueSlots(), nullptr);
  out.stateOf.assign(f.numValueSlots(), 0);

  for (auto& bbPtr : f.blocks()) {
    BasicBlock* bb = bbPtr;
    BlockSchedule& bs = out.blocks[bb->id()];
    std::vector<StateUse> states(1);

    unsigned extraFixedCycles = 0;  // multi-cycle arithmetic latencies
    unsigned blockMuls = 0, blockDivs = 0;  // static counts for the II floor
    for (auto& instPtr : *bb) {
      Instruction* inst = instPtr;
      const unsigned ord = static_cast<unsigned>(inst->op());
      if (!sample[ord]) sample[ord] = inst;
      ++instances[ord];
      if (inst->op() == Opcode::Mul) ++blockMuls;
      if (isDivOp(inst->op())) ++blockDivs;
      if (!inst->type()->isVoid() && !inst->isPhi()) {
        if (inst->op() == Opcode::Consume) ++consumeCount;
        else ++valueCount;
      }
      if (inst->isPhi()) {
        // PHIs resolve on state 0 entry (register muxes).
        ready[inst->id()] = {0, 0};
        readyIn[inst->id()] = bb;
        continue;
      }
      // Earliest state from operand availability.
      unsigned start = 0;
      unsigned depth = 0;
      for (unsigned i = 0; i < inst->numOperands(); ++i) {
        auto* d = dyn_cast<Instruction>(inst->operand(i));
        if (!d || d->parent() != bb) continue;  // cross-block: in registers
        if (readyIn[d->id()] != bb) continue;
        const auto& r = ready[d->id()];
        if (r.first > start) {
          start = r.first;
          depth = r.second;
        } else if (r.first == start) {
          depth = std::max(depth, r.second);
        }
      }
      // Resource and chain-depth constraints may push the op later.
      const bool chain = isChainable(*inst);
      const Opcode op = inst->op();
      auto fits = [&](unsigned s) {
        if (s >= states.size()) return true;
        StateUse& u = states[s];
        if (chain && u.chainDepth + 1 > c.maxChainDepth) return false;
        if (usesMemPort(op) && u.memOps + 1 > c.memPortsPerState) return false;
        if (usesQueuePort(op) && u.queueOps + 1 > c.queuePortsPerState) return false;
        if (op == Opcode::Mul && u.muls + 1 > c.multipliersPerState) return false;
        if (isDivOp(op) && u.divs + 1 > c.dividersPerState) return false;
        return true;
      };
      // Non-chainable ops with operand produced in the same state must wait
      // for the next state boundary (values latch in registers).
      if (!chain && depth > 0) ++start, depth = 0;
      while (!fits(start)) ++start, depth = 0;
      while (states.size() <= start) states.push_back({});

      StateUse& u = states[start];
      if (chain) u.chainDepth = std::max(u.chainDepth, depth + 1);
      if (usesMemPort(op)) ++u.memOps;
      if (usesQueuePort(op)) ++u.queueOps;
      if (op == Opcode::Mul) ++u.muls;
      if (isDivOp(op)) ++u.divs;
      ++u.fuUse[ord];

      out.stateOf[inst->id()] = start;
      readyIn[inst->id()] = bb;
      unsigned lat = hwLatency(*inst);
      if (usesMemPort(op) || usesQueuePort(op)) {
        // Dynamic ops: occupy their issue state; the handshake cycles are
        // charged by the executor (bus model). Value available next state.
        ready[inst->id()] = {start + 1, 0};
      } else if (lat == 0) {
        ready[inst->id()] = {start, depth + 1};
      } else {
        ready[inst->id()] = {start + lat, 0};
        extraFixedCycles += lat - 1;  // states advance once; remainder stalls
      }
    }
    bs.numStates = static_cast<unsigned>(states.size());
    bs.staticCycles = bs.numStates + extraFixedCycles;
    // Modulo-scheduling initiation interval: resource-constrained floor.
    // One memory port and one runtime call per cycle; two multipliers; a
    // serial (non-pipelined) divider occupies its full latency.
    {
      // Memory and queue ports are charged dynamically by the executor
      // (their bus serialization realizes the port constraint), so the II
      // floor here covers only the fixed-latency shared units.
      unsigned ii = 1;
      ii = std::max(ii, (blockMuls + c.multipliersPerState - 1) / c.multipliersPerState);
      ii = std::max(ii, blockDivs * 13);  // serial divider latency (§5.2)
      bs.pipelinedII = std::min(ii, bs.staticCycles);
    }
    // Update FU binding maxima.
    for (const StateUse& u : states)
      for (unsigned k = 0; k < kNumOpcodes; ++k) maxFuUse[k] = std::max(maxFuUse[k], u.fuUse[k]);
    out.totalStates += bs.numStates;
  }

  // Area: shared functional units (max concurrent use), registers, FSM and
  // multiplexing overhead. Constants are coarse but calibrated to land in
  // the LUT ranges Table 6.2 reports for CHStone-sized kernels.
  AreaEstimate area;
  for (unsigned k = 0; k < kNumOpcodes; ++k) {
    const unsigned cnt = maxFuUse[k];
    const Opcode op = static_cast<Opcode>(k);
    // Runtime operations go through the per-thread HWInterface (its 44 LUTs
    // are part of the runtime area model), and branches are FSM transitions
    // (counted via the per-state term) — neither is a datapath unit.
    if (cnt == 0 || usesQueuePort(op) || isTerminatorOp(op)) continue;
    // One representative instruction of this opcode (first in program
    // order, from the census) for the per-unit cost.
    OpArea oa = hwOpArea(*sample[k]);
    area.luts += oa.luts * cnt;
    area.dsps += oa.dsps * cnt;
    // Sharing mux: every extra user of a shared unit costs ~8 LUTs of
    // steering logic, charged against total static instances of this op.
    if (instances[k] > cnt) area.luts += (instances[k] - cnt) * 8;
  }
  // Registers: roughly one packed 32-bit register per computed value, a
  // couple of LUTs per consume (HWInterface receive register share), and
  // one-hot FSM state logic.
  area.luts += static_cast<unsigned>(valueCount) * 12;
  area.luts += static_cast<unsigned>(consumeCount) * 2;
  area.luts += out.totalStates * 3;
  out.area = area;
  return out;
}

ScheduleMap scheduleModule(Module& m, const HlsConstraints& c) {
  ScheduleMap out;
  for (auto& f : m.functions()) out.emplace(f, scheduleFunction(*f, c));
  return out;
}

ScheduleMap scheduleModule(Module& m, const HlsConstraints& c, const ScheduleMap&) {
  return scheduleModule(m, c);
}

unsigned bramBlocksForGlobals(const Module& m) {
  // Virtex-5 18kbit BRAMs hold 2 KiB; LegUp instantiates one memory per
  // array (plus a minimum-size one for small arrays).
  unsigned brams = 0;
  for (const auto& g : m.globals()) brams += (g->byteSize() + 2047) / 2048;
  return brams;
}

}  // namespace twill
