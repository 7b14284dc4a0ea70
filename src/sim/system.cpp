#include "src/sim/system.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <utility>

#include "src/exec/superblock.h"
#include "src/obs/trace.h"

namespace twill {
namespace {

/// Wall-budget check granularity in cycles. The budget is a coarse guard
/// against non-terminating inputs, so checking the clock every few million
/// simulated cycles keeps the hot loops free of timer syscalls.
constexpr uint64_t kWallCheckCycles = 4ull << 20;

/// True once more than `budgetMs` of wall time has passed since `startUs`
/// (a traceNowUs() stamp); compared in microseconds.
bool wallBudgetSpent(uint64_t startUs, double budgetMs) {
  return static_cast<double>(traceNowUs() - startUs) > budgetMs * 1000;
}

/// The clock the scheduler keeps around SimThread::step(), inlined for
/// ExecState::runSuper: charge the op (busyUntil/busyCycles), record
/// progress, advance the clock one step (`cycle = max(cycle + 1,
/// busyUntil)`), and stop at the burst boundary with the clock clamped to
/// it (`cycle > end` -> cycle = end), where the scheduler resumes.
struct BurstClock {
  uint64_t cycle;
  uint64_t end;
  uint64_t lastProgress;
  uint64_t busyUntil;
  uint64_t busyCycles = 0;

  bool begin() const { return cycle < end; }
  bool advance(uint64_t cost) {
    busyUntil = cycle + cost;
    busyCycles += cost;
    lastProgress = cycle;
    cycle = cycle + 1 > busyUntil ? cycle + 1 : busyUntil;
    if (cycle > end) {
      cycle = end;
      return false;
    }
    return true;
  }
  /// The finishing Ret is charged but the clock is not advanced past it
  /// (a finished thread takes no further step).
  void finish(uint64_t cost) {
    busyUntil = cycle + cost;
    busyCycles += cost;
    lastProgress = cycle;
  }
};

// Cost policies, one per domain, charged by both tiers: SimThread::chargeFor
// after each per-inst step(), BurstModel inside the superblock runner. op()
// prices a straight-line SuperOp, inst() any other op (a per-inst step or a
// block exit), channelOp() a completed runtime-primitive op from the
// handshake cycles its port measured.

/// Software thread (Microblaze model): every op costs its pre-computed
/// Microblaze cycles.
struct SwCost {
  static uint64_t op(const SuperOp& so, uint64_t) { return so.swCost; }
  static uint64_t inst(const DecodedInst& d, uint64_t) { return d.swCost; }
  static uint64_t channelOp(unsigned handshake) { return handshake; }
};

/// Hardware thread (HLS FSM executor): per-block FSM cost charged on the
/// terminator; memory ops dynamically against the memory bus; everything
/// else is covered by the block's static state count. Blocks re-executing
/// back-to-back run in modulo-scheduled steady state and cost their
/// initiation interval.
class HwCost {
public:
  /// `memBus`: Twill's shared memory bus, or null in a system without a
  /// processor (the pure-HW flow), whose thread owns LegUp's dual-port
  /// block memories.
  explicit HwCost(BusModel* memBus) : memBus_(memBus) {}

  uint64_t op(const SuperOp& so, uint64_t now) {
    if (so.op == Opcode::Load || so.op == Opcode::Store) return memOp(so.op, now);
    return 0;  // absorbed into the block's static cycles
  }

  uint64_t inst(const DecodedInst& d, uint64_t now) {
    switch (d.op) {
      case Opcode::Load:
      case Opcode::Store:
        return memOp(d.op, now);
      case Opcode::Br:
      case Opcode::CondBr:
      case Opcode::Ret: {
        // Steady state: this block ran within the last two control
        // transfers (covers self-loops and header/body two-block loops).
        pipelinedMode_ = (d.blockUid == prevBlock1_ || d.blockUid == prevBlock2_);
        prevBlock2_ = prevBlock1_;
        prevBlock1_ = d.blockUid;
        if (!(d.flags & DecodedInst::kHasSchedule)) return 1;
        return pipelinedMode_ ? d.hlsII : d.hlsStatic;
      }
      case Opcode::Call:
        pipelinedMode_ = false;
        prevBlock1_ = prevBlock2_ = kNoBlock;
        return 1;
      default:
        return 0;  // absorbed into the block's static cycles
    }
  }

  uint64_t channelOp(unsigned handshake) const {
    // In modulo-scheduled steady state a hardware thread overlaps the
    // handshake with compute; only bus contention remains exposed.
    if (pipelinedMode_ && handshake >= RuntimeTiming::kQueueOp)
      handshake -= RuntimeTiming::kQueueOp - 1;
    return handshake;
  }

private:
  uint64_t memOp(Opcode op, uint64_t now) {
    unsigned handshake = op == Opcode::Load ? RuntimeTiming::kMemRead : RuntimeTiming::kMemWrite;
    if (pipelinedMode_) handshake = 0;  // overlapped with compute
    // Twill: the single shared memory bus (§4.1). Pure hardware: LegUp's
    // dual-port block memories still bound the number of accesses per cycle.
    const uint64_t grant = memBus_ ? memBus_->acquire(now) : localMem_.acquire(now);
    return (grant - now) + handshake;
  }

  static constexpr uint32_t kNoBlock = 0xFFFFFFFFu;
  BusModel* memBus_;
  PortModel localMem_{2};
  uint32_t prevBlock1_ = kNoBlock;
  uint32_t prevBlock2_ = kNoBlock;
  bool pipelinedMode_ = false;
};

/// Model driving ExecState::runSuper for the cycle-level simulators: each
/// op is priced by the thread's cost policy and clocked by BurstClock. One
/// instantiation per domain, so the trace runner never tests the domain.
template <class Cost>
struct BurstModel {
  BurstClock clk;
  Cost& cost;
  const DecodedInst* finishInst = nullptr;

  bool begin() const { return clk.begin(); }
  bool end(const SuperOp& so) { return clk.advance(cost.op(so, clk.cycle)); }
  bool endTerm(const DecodedInst& d) { return clk.advance(cost.inst(d, clk.cycle)); }
  void endFinish(const DecodedInst& d) {
    finishInst = &d;
    clk.finish(cost.inst(d, clk.cycle));
  }
};

/// One executing context (a hardware thread, or one software thread of the
/// processor). Wraps the pre-decoded ExecState with its domain's cost
/// policy; every per-instruction cost (Microblaze cycles, per-block FSM
/// cycles, channel ids) is read from the DecodedInst record, so charging
/// never touches the IR or hashes into a ScheduleMap.
class SimThread {
public:
  /// `memBus`: what a hardware thread's loads and stores contend on (HwCost).
  SimThread(DecodedProgram& prog, Memory& mem, Fabric& fabric, Function* fn, bool isHW,
            BusModel* memBus, uint32_t token)
      : port_(fabric, isHW),
        state_(prog, mem, port_, fn),
        fabric_(fabric),
        isHW_(isHW),
        hw_(memBus),
        token_(token) {}

  std::string describeLocation() const { return state_.describeLocation(); }
  const DecodedInst* peekInst() const { return state_.peekInst(); }
  bool finished() const { return state_.finished(); }
  bool trapped() const { return state_.trapped(); }
  const std::string& trapMessage() const { return state_.trapMessage(); }
  uint32_t result() const { return state_.result(); }
  uint64_t retired() const { return state_.retired(); }
  uint32_t token() const { return token_; }
  uint64_t busyUntil = 0;
  uint64_t busyCycles = 0;
  uint64_t queueOps = 0;
  bool lastBlocked = false;
  /// Cached "finished or trapped" (the scheduler's loops test this often).
  bool dead = false;
  /// First cycle at which the blocked wait can be satisfied. Maintained
  /// from the block site and the wake events (afterStep), so waitSatisfied
  /// is a plain comparison instead of a fabric probe: satisfiability only
  /// changes at a queue/semaphore operation or a known visibility time.
  uint64_t waitReadyAt = UINT64_MAX;
  /// Result of the most recent step attempt (the scheduler derives wake
  /// events from it).
  StepResult last;

  /// When blocked: the channel/semaphore and operation we wait on, so the
  /// hardware scheduler can skip this thread until the wait is satisfied.
  int waitChannel = -1;
  Opcode waitOp = Opcode::Add;
  /// The last blocked attempt registered a fresh wait-list entry (the
  /// scheduler creates at most one timed wake per park).
  bool justParked = false;

  /// True if the blocked thread's wait condition is now satisfiable.
  bool waitSatisfied(uint64_t now) const { return !lastBlocked || now >= waitReadyAt; }

  /// Executes one instruction and charges its cost. Returns true if any
  /// forward progress was made. A blocked attempt parks this thread on the
  /// primitive's wait list so the scheduler can sleep it instead of polling.
  bool step(uint64_t now) {
    port_.now = now;
    const bool wasBlocked = lastBlocked;
    const int prevChannel = waitChannel;
    const Opcode prevOp = waitOp;
    last = state_.step();
    const StepResult& r = last;
    lastBlocked = r.status == StepStatus::Blocked;
    if (trace_) {
      // Stall span: opens at the first blocked attempt, closes (and is
      // emitted retroactively, in sim cycles) when the wait resolves.
      if (!wasBlocked && lastBlocked) {
        stallStart_ = now;
        inStall_ = true;
      } else if (wasBlocked && !lastBlocked && inStall_) {
        trace_->span(kTracePidSim, traceRow_, traceCat_, traceStall_, stallStart_, now);
        inStall_ = false;
      }
    }
    if (wasBlocked && !lastBlocked && prevChannel >= 0) {
      // The wait was satisfied: unpark, so the next block on this channel
      // registers (and gets woken) afresh.
      switch (prevOp) {
        case Opcode::Consume:
          fabric_.queue(prevChannel).consumerWaiters().remove(token_);
          break;
        case Opcode::Produce:
          fabric_.queue(prevChannel).producerWaiters().remove(token_);
          break;
        case Opcode::SemLower:
          fabric_.semaphore(prevChannel).lowerWaiters().remove(token_);
          break;
        default:
          break;
      }
    }
    if (r.status == StepStatus::Blocked) {
      busyUntil = now + 1;  // retried at the next simulated cycle
      waitChannel = r.dinst ? r.dinst->channel : -1;
      waitOp = r.op;
      justParked = false;
      waitReadyAt = 0;  // an untracked wait is treated as always satisfiable
      if (waitChannel >= 0) {
        switch (waitOp) {
          case Opcode::Consume: {
            HwQueue& q = fabric_.queue(waitChannel);
            justParked = q.consumerWaiters().park(token_);
            // Empty: wait for a produce event. Invisible front: the wait
            // satisfies itself at the element's visibility cycle.
            waitReadyAt = q.empty() ? UINT64_MAX : q.frontVisibleAt();
            break;
          }
          case Opcode::Produce:
            justParked = fabric_.queue(waitChannel).producerWaiters().park(token_);
            waitReadyAt = UINT64_MAX;  // wait for a consume event
            break;
          case Opcode::SemLower:
            justParked = fabric_.semaphore(waitChannel).lowerWaiters().park(token_);
            waitReadyAt = UINT64_MAX;  // wait for a raise event
            break;
          default:
            break;
        }
      }
      return false;
    }
    waitChannel = -1;
    if (r.status != StepStatus::Ran && r.status != StepStatus::Finished) {
      dead = r.status == StepStatus::Trapped;
      return false;
    }
    if (r.status == StepStatus::Finished) dead = true;
    uint64_t cost = chargeFor(r, now);
    busyUntil = now + cost;
    busyCycles += cost;
    return true;
  }

  /// Arms the cycle-domain trace hooks on trace row `row` (pre-interned ids
  /// so the hot step path never touches the intern table).
  void setTrace(TraceRecorder* rec, uint32_t row, TraceRecorder::StrId cat,
                TraceRecorder::StrId stallName, TraceRecorder::StrId runName) {
    trace_ = rec;
    traceRow_ = row;
    traceCat_ = cat;
    traceStall_ = stallName;
    traceRun_ = runName;
  }

  /// Emits the thread's pending stall span (if parked) and its whole-run
  /// span; called once per simulation on every exit path (TraceCloser).
  void closeTrace(uint64_t endCycle) {
    if (!trace_) return;
    if (inStall_) {
      trace_->span(kTracePidSim, traceRow_, traceCat_, traceStall_, stallStart_, endCycle);
      inStall_ = false;
    }
    trace_->span(kTracePidSim, traceRow_, traceCat_, traceRun_, 0,
                 std::max(busyUntil, endCycle));
  }

  /// True when the next instruction can run on the superblock tier (not a
  /// channel operation or poisoned record).
  bool superRunnable() const { return state_.peekSuperRunnable(); }

  /// Superblock fast path: executes straight-line traces, fused branches
  /// and calls back-to-back, charged through the same cost policy as
  /// step(). Returns at the next channel operation (kNeedStep), on
  /// completion/trap, or at the burst boundary (kBudget, the clock clamped
  /// to `end`).
  SuperRunStatus runBurst(uint64_t& cycle, uint64_t end, uint64_t& lastProgress) {
    SwCost sw;
    return isHW_ ? burstWith(hw_, cycle, end, lastProgress)
                 : burstWith(sw, cycle, end, lastProgress);
  }

private:
  template <class Cost>
  SuperRunStatus burstWith(Cost& cost, uint64_t& cycle, uint64_t end, uint64_t& lastProgress) {
    BurstModel<Cost> m{{cycle, end, lastProgress, busyUntil}, cost};
    const SuperRunStatus rs = state_.runSuper(m);
    cycle = m.clk.cycle;
    lastProgress = m.clk.lastProgress;
    busyUntil = m.clk.busyUntil;
    busyCycles += m.clk.busyCycles;
    if (rs == SuperRunStatus::kFinished) {
      dead = true;
      last = {StepStatus::Finished, m.finishInst->op, m.finishInst};
    } else if (rs == SuperRunStatus::kTrapped) {
      dead = true;
      last = {StepStatus::Trapped, Opcode::Add, nullptr};
    }
    return rs;
  }

  uint64_t chargeFor(const StepResult& r, uint64_t now) {
    const DecodedInst* d = r.dinst;
    if (!d) return 0;
    switch (r.op) {
      case Opcode::Produce:
      case Opcode::Consume:
      case Opcode::SemRaise:
      case Opcode::SemLower: {
        ++queueOps;
        return isHW_ ? hw_.channelOp(port_.lastCost) : SwCost::channelOp(port_.lastCost);
      }
      default:
        return isHW_ ? hw_.inst(*d, now) : SwCost::inst(*d, now);
    }
  }

  TraceRecorder* trace_ = nullptr;
  uint32_t traceRow_ = 0;
  TraceRecorder::StrId traceCat_ = TraceRecorder::kNoStr;
  TraceRecorder::StrId traceStall_ = TraceRecorder::kNoStr;
  TraceRecorder::StrId traceRun_ = TraceRecorder::kNoStr;
  uint64_t stallStart_ = 0;
  bool inStall_ = false;

  ThreadPort port_;
  ExecState state_;
  Fabric& fabric_;
  bool isHW_;
  HwCost hw_;  // the hardware policy's state (unused by software threads)
  uint32_t token_;
};

/// Burst-vs-per-inst phase spans on the scheduler's dedicated trace row:
/// the Twill scheduler alternates between the exact per-instruction machinery
/// and the solo-burst fast path; the phase track shows which one the clock
/// is spent in. All no-ops when `rec` is null; zero-length phases are
/// suppressed.
struct PhaseTracer {
  TraceRecorder* rec = nullptr;
  uint32_t tid = 0;
  TraceRecorder::StrId cat = TraceRecorder::kNoStr;
  TraceRecorder::StrId burstName = TraceRecorder::kNoStr;
  TraceRecorder::StrId perInstName = TraceRecorder::kNoStr;
  uint64_t phaseStart = 0;
  uint64_t burstStart = 0;

  void beginBurst(uint64_t cycle) {
    if (!rec) return;
    if (cycle > phaseStart) rec->span(kTracePidSim, tid, cat, perInstName, phaseStart, cycle);
    burstStart = cycle;
  }
  void endBurst(uint64_t cycle) {
    if (!rec) return;
    if (cycle > burstStart) rec->span(kTracePidSim, tid, cat, burstName, burstStart, cycle);
    phaseStart = cycle;
  }
  void close(uint64_t cycle) {
    if (!rec) return;
    if (cycle > phaseStart) rec->span(kTracePidSim, tid, cat, perInstName, phaseStart, cycle);
    phaseStart = cycle;
  }
};

/// Sim trace rows: each flow numbers its threads from its own base, with its
/// scheduler row right after them, so the three flows of one traced
/// runBenchmark share a recorder without sharing a row. A baseline system
/// has two rows, clear of any Twill system under 1000 threads.
constexpr uint32_t kTwillRows = 0;
constexpr uint32_t kPureSWRows = 1000;
constexpr uint32_t kPureHWRows = 1002;

/// The co-simulation loop of all three flows. `dswp` names the system's
/// threads: its main master (on processor 0, or a hardware thread when
/// `mainMasterIsHW`) and the extracted slaves. A baseline is a one-thread
/// system on an empty fabric (see mainAlone). `schedules` is null for a
/// system without hardware threads; `shared` (Twill only) reuses a
/// pre-decoded program across runs.
SimOutcome runSystem(Module& m, const DswpResult& dswp, const SimConfig& cfg,
                     const ScheduleMap* schedules, SimProgram* shared, uint32_t rowBase) {
  SimOutcome out;
  if (!dswp.mainMaster) {
    out.message = "no main";
    return out;
  }
  Memory mem(cfg.memoryBytes);
  // Layout::build is deterministic and idempotent for a fixed module: with a
  // shared program it re-assigns the same addresses and (re)writes the
  // global initializers into this run's fresh memory.
  Layout ownLayout;
  Layout& layout = shared ? shared->layout : ownLayout;
  if (!layout.build(m, mem)) {
    out.message = layout.error;
    out.resourceBreach = true;
    return out;
  }
  std::unique_ptr<DecodedProgram> ownProg;
  if (!shared) ownProg = std::make_unique<DecodedProgram>(m, layout, schedules);
  DecodedProgram& prog = shared ? *shared->prog : *ownProg;

  FabricConfig fc;
  fc.queueCapacity = cfg.queueCapacity;
  fc.queueLatency = cfg.queueLatency;
  Fabric fabric(fc);
  for (const auto& ch : dswp.channels) fabric.addQueue(ch.id);
  for (const auto& s : dswp.semaphores) fabric.addSemaphore(s.id, s.initialCount);

  // A system whose main master is hardware has no processor and no shared
  // memory bus: LegUp's whole-program flow, its loads and stores on the
  // thread's own dual-port block memories.
  BusModel* const hwMemBus = dswp.mainMasterIsHW ? nullptr : &fabric.memoryBus();

  // Threads: index 0 = main master; slaves per their domain. Tokens index
  // the combined `all` vector (wait lists and the wake heap refer to
  // threads by token).
  std::vector<std::unique_ptr<SimThread>> swThreads;
  std::vector<std::unique_ptr<SimThread>> hwThreads;
  std::vector<SimThread*> all;
  struct PendingThread {
    Function* fn;
    bool isHW;
  };
  std::vector<PendingThread> order;
  order.push_back({dswp.mainMaster, dswp.mainMasterIsHW});
  for (const auto& t : dswp.threads) {
    if (t.fn == dswp.mainMaster) continue;
    order.push_back({t.fn, t.isHW});
  }
  for (const auto& pt : order) {
    auto st = std::make_unique<SimThread>(prog, mem, fabric, pt.fn, pt.isHW, hwMemBus,
                                          static_cast<uint32_t>(all.size()));
    all.push_back(st.get());
    (pt.isHW ? hwThreads : swThreads).push_back(std::move(st));
  }
  SimThread* const mainThread = all[0];
  // Raw views for the per-cycle loops (skip the unique_ptr indirection).
  std::vector<SimThread*> swRaw, hwRaw;
  for (auto& t : swThreads) swRaw.push_back(t.get());
  for (auto& t : hwThreads) hwRaw.push_back(t.get());

  // Processor state: each Microblaze runs its share of the SW threads under
  // the hardware round-robin scheduler (§4.4); the main master stays on
  // processor 0 and threads are distributed round-robin (§4.5 allows a
  // variable processor count; the thesis evaluates with one).
  struct Proc {
    std::vector<size_t> threads;  // indices into swThreads
    size_t cur = 0;               // index into `threads`
    uint64_t quantumEnd = 0;
  };
  std::vector<Proc> procs(std::max(1u, cfg.numProcessors));
  for (size_t i = 0; i < swThreads.size(); ++i)
    procs[i % procs.size()].threads.push_back(i);
  for (auto& p : procs) p.quantumEnd = cfg.schedQuantum;
  uint64_t cycle = 0;
  uint64_t lastProgress = 0;
  const uint64_t wallStartUs = traceNowUs();
  uint64_t nextWallCheck = kWallCheckCycles;

  // --- Trace plumbing -------------------------------------------------------
  // All sim event names are interned once here; the hot loops only test the
  // `rec` pointer. Every timestamp below is the sim cycle counter, so with a
  // recorder attached the emitted event stream is a pure function of
  // (module, cfg) — byte-identical across runs and host thread counts.
  TraceRecorder* const rec = cfg.trace;
  TraceRecorder::StrId catThread = TraceRecorder::kNoStr, catSched = TraceRecorder::kNoStr,
                       nameStall = TraceRecorder::kNoStr, nameRun = TraceRecorder::kNoStr,
                       nameWake = TraceRecorder::kNoStr, seriesItems = TraceRecorder::kNoStr;
  std::unordered_map<int, TraceRecorder::StrId> chanNames;
  PhaseTracer phases;
  if (rec) {
    catThread = rec->intern("thread");
    catSched = rec->intern("sched");
    nameStall = rec->intern("stall");
    nameRun = rec->intern("run");
    nameWake = rec->intern("wake");
    seriesItems = rec->intern("items");
    rec->setProcessName(kTracePidSim, "sim (cycles)");
    for (size_t i = 0; i < order.size(); ++i)
      rec->setThreadName(kTracePidSim, rowBase + static_cast<uint32_t>(i),
                         std::string(order[i].isHW ? "HW " : "SW ") + order[i].fn->name());
    rec->setThreadName(kTracePidSim, rowBase + static_cast<uint32_t>(all.size()), "scheduler");
    for (const auto& ch : dswp.channels)
      chanNames[ch.id] = rec->intern("ch" + std::to_string(ch.id) + " occupancy");
    for (SimThread* t : all) t->setTrace(rec, rowBase + t->token(), catThread, nameStall, nameRun);
    phases.rec = rec;
    phases.tid = rowBase + static_cast<uint32_t>(all.size());
    phases.cat = catSched;
    phases.burstName = rec->intern("burst");
    phases.perInstName = rec->intern("per-inst");
  }
  // Closes every open span (thread run/stall, scheduler phase) on all exit
  // paths — deadlock, trap, cycle-limit, wall-breach and success alike — so
  // the trace is structurally balanced no matter how the run ends.
  struct TraceCloser {
    std::vector<SimThread*>& all;
    PhaseTracer& phases;
    const uint64_t& cycle;
    ~TraceCloser() {
      for (SimThread* t : all) t->closeTrace(cycle);
      phases.close(cycle);
    }
  } traceCloser{all, phases, cycle};
  // Occupancy sample after a completed Produce/Consume: one point of the
  // channel's counter track (in-flight elements included).
  auto noteChannelOp = [&](SimThread* t, uint64_t at) {
    if (!rec) return;
    const StepResult& r = t->last;
    if (r.status != StepStatus::Ran || !r.dinst) return;
    if (r.op != Opcode::Produce && r.op != Opcode::Consume) return;
    HwQueue& q = fabric.queue(r.dinst->channel);
    rec->counter(kTracePidSim, chanNames[r.dinst->channel], seriesItems, at,
                 static_cast<int64_t>(q.enqueues() - q.dequeues()));
  };

  // Wake min-heap: (cycle, token) entries for parked threads whose wait is
  // (or becomes) satisfiable at a known future cycle. Entries are consumed
  // lazily; stale ones (thread already running again) are dropped on pop.
  using Wake = std::pair<uint64_t, uint32_t>;
  std::priority_queue<Wake, std::vector<Wake>, std::greater<Wake>> wakeHeap;
  bool sawTrap = false;

  /// Earliest pending timed wake of a still-parked thread (UINT64_MAX: none).
  auto validWakeTop = [&]() -> uint64_t {
    while (!wakeHeap.empty()) {
      const Wake top = wakeHeap.top();
      SimThread* t = all[top.second];
      if (t->dead || !t->lastBlocked) {
        wakeHeap.pop();  // stale: the thread already ran again
        continue;
      }
      return top.first;
    }
    return UINT64_MAX;
  };

  // Derives wake events from a thread's last step: a produce wakes exactly
  // the consumers parked on that queue (at the element's visibility cycle),
  // a consume wakes the parked producers, a raise wakes the parked
  // lowerers, and a consumer blocked on an in-flight element gets a timed
  // wake at the element's visibility.
  auto afterStep = [&](SimThread* t) {
    const StepResult& r = t->last;
    if (r.status == StepStatus::Trapped) {
      sawTrap = true;
      return;
    }
    if (r.status == StepStatus::Blocked) {
      if (r.op == Opcode::Consume && t->justParked && t->waitChannel >= 0) {
        HwQueue& q = fabric.queue(t->waitChannel);
        if (!q.empty()) {
          const uint64_t vis = q.frontVisibleAt();
          wakeHeap.push({vis, t->token()});
          if (rec) rec->instant(kTracePidSim, rowBase + t->token(), catSched, nameWake, vis);
        }
      }
      return;
    }
    if ((r.status != StepStatus::Ran && r.status != StepStatus::Finished) || !r.dinst) return;
    switch (r.op) {
      case Opcode::Produce: {
        HwQueue& q = fabric.queue(r.dinst->channel);
        const uint64_t vis = q.frontVisibleAt();
        q.consumerWaiters().drain([&](uint32_t tok) {
          all[tok]->waitReadyAt = vis;
          wakeHeap.push({vis, tok});
          if (rec) rec->instant(kTracePidSim, rowBase + tok, catSched, nameWake, vis);
        });
        break;
      }
      case Opcode::Consume: {
        HwQueue& q = fabric.queue(r.dinst->channel);
        q.producerWaiters().drain([&](uint32_t tok) {
          all[tok]->waitReadyAt = cycle;
          wakeHeap.push({cycle, tok});
          if (rec) rec->instant(kTracePidSim, rowBase + tok, catSched, nameWake, cycle);
        });
        break;
      }
      case Opcode::SemRaise: {
        fabric.semaphore(r.dinst->channel).lowerWaiters().drain([&](uint32_t tok) {
          all[tok]->waitReadyAt = cycle;
          wakeHeap.push({cycle, tok});
          if (rec) rec->instant(kTracePidSim, rowBase + tok, catSched, nameWake, cycle);
        });
        break;
      }
      default:
        break;
    }
  };

  // Saturating cycle-limit bound (maxCycles == UINT64_MAX means unlimited).
  const uint64_t cycleLimit =
      cfg.maxCycles == UINT64_MAX ? UINT64_MAX : cfg.maxCycles + 1;

  // First trapped thread's diagnostic, software threads first (matches the
  // seed simulator's scan order).
  auto trapMessage = [&]() -> std::string {
    for (auto& t : swThreads)
      if (t->trapped()) return "trap: " + t->trapMessage();
    for (auto& t : hwThreads)
      if (t->trapped()) return "trap: " + t->trapMessage();
    return "trap";
  };

  // "Runnable" as the hardware scheduler sees it: alive, and if blocked on
  // a primitive, that primitive can now make progress (the scheduler snoops
  // the message bus for this, §4.4).
  auto swRunnable = [&](size_t i) {
    SimThread* t = swRaw[i];
    return !t->dead && t->waitSatisfied(cycle);
  };

  while (!mainThread->finished()) {
    // Coarse wall-budget guard. Every burst/runSuper call below is bounded
    // by the deadlock window (a few million cycles), so the loop returns
    // here often enough for a non-terminating input to be caught within one
    // check interval.
    if (cfg.wallBudgetMs > 0 && cycle >= nextWallCheck) {
      nextWallCheck = cycle + kWallCheckCycles;
      if (wallBudgetSpent(wallStartUs, cfg.wallBudgetMs)) {
        out.message = "wall-clock budget exceeded (" + std::to_string(cfg.wallBudgetMs) +
                      " ms) at cycle " + std::to_string(cycle);
        out.resourceBreach = true;
        return out;
      }
    }
    bool progress = false;

    // Processors: ticked first each cycle (arbiter's processor priority).
    for (Proc& proc : procs) {
      if (proc.threads.empty()) continue;
      auto localRunnable = [&](size_t li) { return swRunnable(proc.threads[li]); };
      size_t runnable = 0;
      for (size_t li = 0; li < proc.threads.size(); ++li)
        if (localRunnable(li)) ++runnable;
      if (runnable == 0) continue;

      if (!localRunnable(proc.cur)) {
        // Current thread ended or is stalled; the scheduler installs the next.
        for (size_t k = 1; k <= proc.threads.size(); ++k) {
          size_t cand = (proc.cur + k) % proc.threads.size();
          if (localRunnable(cand)) {
            proc.cur = cand;
            ++out.contextSwitches;
            SimThread* in = swRaw[proc.threads[proc.cur]];
            in->busyUntil = std::max(in->busyUntil, cycle + RuntimeTiming::kContextSwitch);
            proc.quantumEnd = cycle + cfg.schedQuantum;
            break;
          }
        }
      }
      SimThread* cur = swRaw[proc.threads[proc.cur]];
      if (localRunnable(proc.cur) && cycle >= cur->busyUntil) {
        if (cur->step(cycle)) progress = true;
        if (cur->last.status != StepStatus::Ran || cur->last.dinst->channel >= 0)
          afterStep(cur);
        noteChannelOp(cur, cycle);
        // The hardware scheduler snoops the bus: it switches the processor
        // out when the active thread blocks, and on quantum expiry (§4.4).
        // The decision follows the step attempt so a blocked thread still
        // retries its operation each time it is scheduled.
        bool quantumExpired = cycle >= proc.quantumEnd;
        if ((cur->lastBlocked || quantumExpired || cur->finished()) && runnable > 1) {
          size_t next = proc.cur;
          for (size_t k = 1; k <= proc.threads.size(); ++k) {
            size_t cand = (proc.cur + k) % proc.threads.size();
            if (localRunnable(cand)) {
              next = cand;
              break;
            }
          }
          if (next != proc.cur) {
            proc.cur = next;
            ++out.contextSwitches;
            SimThread* in = swRaw[proc.threads[proc.cur]];
            in->busyUntil = std::max(in->busyUntil, cycle + RuntimeTiming::kContextSwitch);
          }
          proc.quantumEnd = cycle + cfg.schedQuantum;
        }
      }
    }

    // Hardware threads all tick concurrently. A blocked thread whose wait
    // cannot be satisfied is not re-attempted: the try would fail with no
    // side effects (the seed simulator polled it every cycle to the same
    // end), and its wait list / timed wake reschedules it exactly. The same
    // pass gathers each thread's post-step scheduling data (busyUntil and
    // activity are the thread's own state, so a later thread's step cannot
    // invalidate them; same-cycle wakes from later threads reach the
    // advance through the wake heap).
    const uint64_t next = cycle + 1;
    bool anyReady = false;
    uint64_t minBusy = UINT64_MAX;
    uint64_t act = UINT64_MAX;
    SimThread* solo = nullptr;
    int activeCount = 0;
    for (SimThread* t : hwRaw) {
      if (t->dead) continue;
      if (cycle >= t->busyUntil && t->waitSatisfied(cycle)) {
        if (t->step(cycle)) progress = true;
        if (t->last.status != StepStatus::Ran || t->last.dinst->channel >= 0) afterStep(t);
        noteChannelOp(t, cycle);
        if (t->dead) continue;  // finished or trapped on this very step
      }
      if (t->busyUntil <= next) anyReady = true;
      minBusy = std::min(minBusy, t->busyUntil);
      if (!t->lastBlocked) {
        act = std::min(act, std::max(t->busyUntil, next));
      } else if (!t->waitSatisfied(cycle)) {
        continue;  // sleeps until a wake event (list/heap)
      } else {
        act = std::min(act, next);
      }
      ++activeCount;
      solo = t;
    }

    if (progress) lastProgress = cycle;
    if (cycle - lastProgress > cfg.deadlockWindow) {
      out.message = "twill system deadlock (no progress for " +
                    std::to_string(cfg.deadlockWindow) + " cycles)\n";
      for (auto& t : swThreads)
        if (!t->finished()) out.message += "  SW " + t->describeLocation() + "\n";
      for (auto& t : hwThreads)
        if (!t->finished()) out.message += "  HW " + t->describeLocation() + "\n";
      for (const auto& ch : dswp.channels) {
        if (!fabric.hasQueue(ch.id)) continue;
        HwQueue& q = fabric.queue(ch.id);
        if (!q.empty() || q.enqueues() != q.dequeues())
          out.message += "  ch" + std::to_string(ch.id) + " [" + ch.note +
                         "] occ=" + std::to_string(q.enqueues() - q.dequeues()) +
                         " enq=" + std::to_string(q.enqueues()) + "\n";
      }
      return out;
    }
    if (sawTrap) {
      out.message = trapMessage();
      return out;
    }
    // The run ends on the cycle the main master's last op issues.
    if (mainThread->finished()) break;

    // --- Advance + burst candidate ------------------------------------------
    // Completes the sweep the hardware phase started: (a) the seed
    // simulator's anyReady/minBusy over the arbiter's considered set, kept
    // bit-for-bit (including its indifference to unscheduled threads)
    // because the checked-in bench reports are cycle-exact against it;
    // (b) the earliest cycle `act` where any thread can really act — the
    // seed crawled one no-op cycle at a time here because blocked threads
    // polled with busyUntil = now + 1; and (c) whether exactly one context
    // is active (burst candidate below). The software side is evaluated
    // here, after every step of this cycle, because the arbiter's
    // runnable-set semantics are time-of-advance; time-driven wake-ups of
    // sleeping threads are covered by the min-heap, which also bounds the
    // burst.
    bool canBurst = activeCount <= 1;
    for (Proc& proc : procs) {
      bool curRun = false;
      bool otherRun = false;
      for (size_t li = 0; li < proc.threads.size(); ++li) {
        if (!swRunnable(proc.threads[li])) continue;
        if (li == proc.cur) {
          curRun = true;
          if (solo != nullptr) canBurst = false;
          solo = swRaw[proc.threads[li]];
        } else {
          otherRun = true;
          canBurst = false;  // a scheduler switch is (or will be) pending
        }
      }
      if (curRun) {
        SimThread* cur = swRaw[proc.threads[proc.cur]];
        if (cur->busyUntil <= next) anyReady = true;
        minBusy = std::min(minBusy, cur->busyUntil);
        act = std::min(act, std::max(cur->busyUntil, next));
      } else if (otherRun) {
        act = std::min(act, next);  // switch happens next cycle
      }
    }

    if (!anyReady && minBusy != UINT64_MAX) {
      cycle = minBusy;  // every considered engine is mid-operation
    } else {
      const uint64_t wake = validWakeTop();
      if (wake != UINT64_MAX) act = std::min(act, std::max(wake, next));
      // No possible action: sleep to the no-progress deadline so the
      // deadlock diagnostic fires at the same cycle the crawl would reach.
      const uint64_t cap = lastProgress + cfg.deadlockWindow + 1;
      if (act > cap) act = cap;
      if (act > cycleLimit) act = cycleLimit;
      cycle = act;
    }

    if (cycle > cfg.maxCycles) {
      out.message = "cycle limit exceeded";
      return out;
    }

    // --- Solo burst fast path ------------------------------------------------
    // Pipelined stages frequently hand off serially: exactly one context is
    // runnable while every other thread sleeps on a primitive. Running that
    // context back-to-back skips the full phase/advance scan per step. The
    // burst breaks *before* any queue/semaphore operation (peeked), so every
    // cross-thread interaction still goes through the exact phase machinery
    // above, and stops at the earliest timed wake, so sleeping threads
    // resume on their exact cycle.
    {
      if (canBurst && solo != nullptr) {
        uint64_t burstEnd =
            std::min({validWakeTop(), lastProgress + cfg.deadlockWindow + 1, cycleLimit});
        phases.beginBurst(cycle);
        while (cycle < burstEnd) {
          if (cycle < solo->busyUntil) {
            if (solo->busyUntil >= burstEnd) break;
            cycle = solo->busyUntil;
          }
          const DecodedInst* pd = solo->peekInst();
          const Opcode nextOp = pd ? pd->op : Opcode::Add;
          if (nextOp == Opcode::Produce) {
            // A produce's wake lands at bus-grant + latency, strictly in the
            // future when the latency is nonzero, so no sleeping thread can
            // act this cycle; run it in-burst and shrink the burst to the
            // woken thread's cycle. A full queue (block) or a zero-latency
            // fabric takes the exact slow path.
            HwQueue& q = fabric.queue(pd->channel);
            if (cfg.queueLatency < 1 || q.full()) break;
            const bool hadWaiters = !q.consumerWaiters().empty();
            if (solo->step(cycle)) lastProgress = cycle;
            noteChannelOp(solo, cycle);
            if (hadWaiters) {
              afterStep(solo);
              const uint64_t w = validWakeTop();
              if (w < burstEnd) burstEnd = w;
            }
          } else if (nextOp == Opcode::Consume) {
            // A consume with no parked producer wakes nobody and frees no
            // capacity anyone is waiting for; a visible front cannot block.
            HwQueue& q = fabric.queue(pd->channel);
            if (!q.frontVisible(cycle) || !q.producerWaiters().empty()) break;
            if (solo->step(cycle)) lastProgress = cycle;
            noteChannelOp(solo, cycle);
          } else if (nextOp == Opcode::SemRaise || nextOp == Opcode::SemLower) {
            // Safe only when nobody is parked on the semaphore (a raise
            // would wake parked lowerers this very cycle).
            if (!fabric.semaphore(pd->channel).lowerWaiters().empty()) break;
            if (solo->step(cycle)) lastProgress = cycle;
            if (solo->lastBlocked) break;  // lower failed: solo now sleeps
          } else if (solo->superRunnable()) {
            // Superblock fast path: streams straight-line traces, fused
            // branches and calls with the per-step accounting inlined (see
            // the burst models), returning only at the next channel
            // interaction, completion, or the burst boundary.
            const SuperRunStatus rs = solo->runBurst(cycle, burstEnd, lastProgress);
            if (rs == SuperRunStatus::kFinished || rs == SuperRunStatus::kTrapped) {
              afterStep(solo);
              break;
            }
            if (rs == SuperRunStatus::kBudget) break;  // cycle clamped to burstEnd
            continue;  // kNeedStep: re-peek; a channel arm takes over
          } else {
            if (solo->step(cycle)) lastProgress = cycle;
            if (solo->dead) {
              afterStep(solo);
              break;
            }
          }
          cycle = std::max(cycle + 1, solo->busyUntil);  // one step per cycle
          if (cycle > burstEnd) {
            // Never overshoot a parked thread's wake: resume the exact
            // scheduler at the wake cycle (the solo is still mid-operation).
            cycle = burstEnd;
            break;
          }
        }
        phases.endBurst(cycle);
        if (sawTrap) {
          out.message = trapMessage();
          return out;
        }
        if (cycle > cfg.maxCycles) {
          out.message = "cycle limit exceeded";
          return out;
        }
      }
    }
  }
  // The loop leaves as soon as the main master finishes; its last op may
  // still retire past the limit.
  if (mainThread->busyUntil > cfg.maxCycles) {
    out.message = "cycle limit exceeded";
    return out;
  }

  out.ok = true;
  out.result = mainThread->result();
  out.cycles = mainThread->busyUntil;
  out.busMessages = fabric.moduleBus().messages();
  out.memBusMessages = fabric.memoryBus().messages();
  for (auto& t : swThreads) {
    out.retiredSW += t->retired();
    out.cpuBusy += t->busyCycles;
    out.queueOps += t->queueOps;
  }
  for (auto& t : hwThreads) {
    out.retiredHW += t->retired();
    out.hwBusy += t->busyCycles;
    out.queueOps += t->queueOps;
  }
  return out;
}

/// A baseline system: `main` alone, on processor 0 (pure SW) or as a
/// hardware thread (pure HW).
DswpResult mainAlone(Module& m, bool isHW) {
  DswpResult sys;
  sys.mainMaster = m.findFunction("main");
  sys.mainMasterIsHW = isHW;
  return sys;
}

}  // namespace

SimProgram::SimProgram(Module& m, const ScheduleMap& schedules)
    : prog(std::make_unique<DecodedProgram>(m, layout, &schedules)) {}
SimProgram::~SimProgram() = default;

SimOutcome simulateTwill(Module& m, const DswpResult& dswp, const SimConfig& cfg,
                         const ScheduleMap& schedules, SimProgram* shared) {
  return runSystem(m, dswp, cfg, &schedules, shared, kTwillRows);
}

SimOutcome simulatePureSW(Module& m, const SimConfig& cfg) {
  return runSystem(m, mainAlone(m, false), cfg, nullptr, nullptr, kPureSWRows);
}

SimOutcome simulatePureHW(Module& m, const ScheduleMap& schedules, const SimConfig& cfg) {
  return runSystem(m, mainAlone(m, true), cfg, &schedules, nullptr, kPureHWRows);
}

}  // namespace twill
