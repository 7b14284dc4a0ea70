#include "src/verify/partition_verifier.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <climits>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/domtree.h"
#include "src/analysis/loopinfo.h"

namespace twill {
namespace {

struct Site {
  Function* fn = nullptr;
  Instruction* inst = nullptr;
};

/// "[fn] block 'name'" provenance prefix shared by all diagnostics, matching
/// the IR verifier's "[fn]" convention.
std::string at(const Instruction* inst) {
  return "[" + inst->parent()->parent()->name() + "] block '" + inst->parent()->name() + "'";
}

std::string channelDesc(const ChannelInfo* ch, int id) {
  std::string s = "channel " + std::to_string(id);
  if (ch && !ch->note.empty()) s += " (" + ch->note + ")";
  return s;
}

std::string semDesc(const SemaphoreInfo* sem, int id) {
  std::string s = "semaphore " + std::to_string(id);
  if (sem && !sem->note.empty()) s += " (" + sem->note + ")";
  return s;
}

/// Dense slots for channel (or semaphore) numbers: every id the DswpResult
/// table or an instruction names, in ascending id order, so a walk over
/// slots visits ids in ascending order.
class IdSlots {
 public:
  void add(int id) { ids_.push_back(id); }
  void seal() {
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  }
  unsigned size() const { return static_cast<unsigned>(ids_.size()); }
  int id(unsigned slot) const { return ids_[slot]; }
  /// Slot of an id passed to add() before seal().
  unsigned slot(int id) const {
    return static_cast<unsigned>(std::lower_bound(ids_.begin(), ids_.end(), id) - ids_.begin());
  }

 private:
  std::vector<int> ids_;
};

enum SiteKind : unsigned { kProduce, kConsume, kRaise, kLower, kNumSiteKinds };

/// Everything the three analyses need, gathered in one scan of the module.
///
/// Functions, channels and semaphores get dense indices, and the blocks and
/// instructions of every function are numbered module-wide (in function,
/// block and instruction order) while the index lives, so every table is a
/// vector. The ids the blocks and instructions had are put back when the
/// index is destroyed.
class ModuleIndex {
 public:
  ModuleIndex(Module& m, const DswpResult& dswp, DiagEngine& diag) : dswp_(dswp) {
    for (auto& f : m.functions()) add(f);
    const size_t moduleFns = fns_.size();
    std::vector<Instruction*> ops;  // Twill ops, in module order
    for (size_t i = 0; i < moduleFns; ++i) scan(*fns_[i], ops);
    const size_t moduleOps = ops.size();
    // Number what the startup game can enter outside the module too (a
    // thread, callee or branch target in no listed function), so every walk
    // stays indexed; only the module's own ops are sites.
    for (const auto& t : dswp.threads)
      if (t.fn) number(t.fn);
    if (dswp.mainMaster) number(dswp.mainMaster);
    for (size_t i = moduleFns; i < fns_.size(); ++i) scan(*fns_[i], ops);

    for (const auto& ch : dswp.channels) channels.add(ch.id);
    for (const auto& sem : dswp.semaphores) semaphores.add(sem.id);
    for (Instruction* inst : ops) (isSemOp(inst) ? semaphores : channels).add(inst->channel());
    channels.seal();
    semaphores.seal();
    channelInfo_.assign(channels.size(), nullptr);
    semInfo_.assign(semaphores.size(), nullptr);
    for (const auto& ch : dswp.channels) channelInfo_[channels.slot(ch.id)] = &ch;
    for (const auto& sem : dswp.semaphores) semInfo_[semaphores.slot(sem.id)] = &sem;

    // The module's sites grouped by (kind, slot) in one table, module order
    // within a group (a counting sort over the scanned ops).
    ops.resize(moduleOps);
    std::vector<unsigned> group(ops.size());
    const unsigned numChannels = channels.size(), numSems = semaphores.size();
    groupBase_ = {0, numChannels, 2 * numChannels, 2 * numChannels + numSems,
                  2 * numChannels + 2 * numSems};
    siteBegin_.assign(groupBase_[kNumSiteKinds] + 1, 0);
    for (size_t k = 0; k < ops.size(); ++k) {
      Instruction* inst = ops[k];
      const int id = inst->channel();
      const bool sem = isSemOp(inst);
      const SiteKind kind = siteKind(inst->op());
      const unsigned slot = sem ? semaphores.slot(id) : channels.slot(id);
      group[k] = groupBase_[kind] + slot;
      ++siteBegin_[group[k] + 1];
      if (sem ? !semInfo_[slot] : !channelInfo_[slot])
        diag.error({}, at(inst) + ": " + opcodeName(inst->op()) + " references unknown " +
                           (sem ? "semaphore " : "channel ") + std::to_string(id));
    }
    for (size_t g = 1; g < siteBegin_.size(); ++g) siteBegin_[g] += siteBegin_[g - 1];
    sites_.resize(ops.size());
    std::vector<unsigned> fill(siteBegin_.begin(), siteBegin_.end() - 1);
    for (size_t k = 0; k < ops.size(); ++k)
      sites_[fill[group[k]]++] = {fns_[fnOf(ops[k])], ops[k]};
  }

  ~ModuleIndex() {
    size_t b = 0, k = 0;
    for (Function* f : fns_)
      for (auto& bb : f->blocks()) {
        bb->setId(savedBlockIds_[b++]);
        for (auto& inst : *bb) inst->setId(savedInstIds_[k++]);
      }
  }
  ModuleIndex(const ModuleIndex&) = delete;
  ModuleIndex& operator=(const ModuleIndex&) = delete;

  // --- Functions, blocks, instructions ---------------------------------------
  unsigned numFunctions() const { return static_cast<unsigned>(fns_.size()); }
  /// Index of a numbered function, or -1.
  int findFn(const Function* f) const {
    const BasicBlock* e = f->entry();
    if (e && numbered(e)) return static_cast<int>(blockFn_[e->id()]);
    for (size_t i = 0; i < fns_.size(); ++i)
      if (fns_[i] == f) return static_cast<int>(i);
    return -1;
  }
  bool numbered(const BasicBlock* bb) const {
    return bb->id() < blocks_.size() && blocks_[bb->id()] == bb;
  }
  /// Function index of a numbered block's instruction.
  unsigned fnOf(const Instruction* inst) const { return blockFn_[inst->parent()->id()]; }
  /// Index of a numbered block within its function.
  unsigned localBlock(const BasicBlock* bb) const {
    return bb->id() - blockBase_[blockFn_[bb->id()]];
  }
  unsigned numInstructions() const { return numInsts_; }

  // --- Channels, semaphores, sites --------------------------------------------
  IdSlots channels, semaphores;
  const ChannelInfo* channelInfo(unsigned slot) const { return channelInfo_[slot]; }
  const SemaphoreInfo* semInfo(unsigned slot) const { return semInfo_[slot]; }
  /// Sites of one kind on one channel (produce/consume) or semaphore slot.
  Span<const Site> sites(SiteKind kind, unsigned slot) const {
    const unsigned g = groupBase_[kind] + slot;
    return {sites_.data() + siteBegin_[g], siteBegin_[g + 1] - siteBegin_[g]};
  }

  // --- Threads -----------------------------------------------------------------
  bool isSlave(const Function* f) const {
    for (const auto& t : dswp_.threads)
      if (t.fn == f && t.isSlave) return true;
    return false;
  }
  /// Origin of the last thread table entry rooted at `f`, or null.
  const std::string* threadOrigin(const Function* f) const {
    for (auto it = dswp_.threads.rbegin(); it != dswp_.threads.rend(); ++it)
      if (it->fn == f) return &it->origin;
    return nullptr;
  }

 private:
  /// Collects f's Twill ops and numbers the functions its calls and
  /// branches reach.
  void scan(Function& f, std::vector<Instruction*>& ops) {
    for (auto& bb : f.blocks()) {
      for (auto& inst : *bb) {
        switch (inst->op()) {
          case Opcode::Produce:
          case Opcode::Consume:
          case Opcode::SemRaise:
          case Opcode::SemLower:
            ops.push_back(inst);
            break;
          case Opcode::Call:
            if (inst->callee()) number(inst->callee());
            break;
          default:
            for (unsigned k = 0; k < inst->numSuccessors(); ++k) {
              BasicBlock* succ = inst->successor(k);
              if (succ && succ->parent() && !numbered(succ)) number(succ->parent());
            }
            break;
        }
      }
    }
  }

  static bool isSemOp(const Instruction* inst) {
    return inst->op() == Opcode::SemRaise || inst->op() == Opcode::SemLower;
  }

  static SiteKind siteKind(Opcode op) {
    if (op == Opcode::Produce) return kProduce;
    if (op == Opcode::Consume) return kConsume;
    return op == Opcode::SemRaise ? kRaise : kLower;
  }

  /// Numbers `f`, its blocks and its instructions, unless it already is.
  void number(Function* f) {
    if (findFn(f) < 0) add(f);
  }

  void add(Function* f) {
    const unsigned i = static_cast<unsigned>(fns_.size());
    fns_.push_back(f);
    blockBase_.push_back(static_cast<unsigned>(blocks_.size()));
    for (auto& bb : f->blocks()) {
      savedBlockIds_.push_back(bb->id());
      bb->setId(static_cast<unsigned>(blocks_.size()));
      blocks_.push_back(bb);
      blockFn_.push_back(i);
      for (auto& inst : *bb) {
        savedInstIds_.push_back(inst->id());
        inst->setId(numInsts_++);
      }
    }
  }

  const DswpResult& dswp_;
  std::vector<Function*> fns_;
  std::vector<unsigned> blockBase_;  // function -> id of its first block
  std::vector<BasicBlock*> blocks_;  // block id -> block
  std::vector<unsigned> blockFn_;    // block id -> function
  unsigned numInsts_ = 0;
  std::vector<unsigned> savedBlockIds_, savedInstIds_;
  std::vector<const ChannelInfo*> channelInfo_;
  std::vector<const SemaphoreInfo*> semInfo_;
  std::array<unsigned, kNumSiteKinds + 1> groupBase_{};
  std::vector<unsigned> siteBegin_;
  std::vector<Site> sites_;
};

// ---------------------------------------------------------------------------
// (a) Endpoint discipline.
//
// Channels are point-to-point queues: exactly one function produces, exactly
// one consumes, and they differ. The check runs at function (not thread)
// granularity because a callee master executes inline in every calling
// thread — its produce sites legitimately run under several threads, but
// always from the same static function.
// ---------------------------------------------------------------------------

/// The distinct functions of `sites`, in module order, into `fns`.
void siteFns(const ModuleIndex& idx, Span<const Site> sites, std::vector<Function*>& fns) {
  fns.clear();
  for (const Site& s : sites) fns.push_back(s.fn);
  auto before = [&](const Function* a, const Function* b) { return idx.findFn(a) < idx.findFn(b); };
  std::sort(fns.begin(), fns.end(), before);
  fns.erase(std::unique(fns.begin(), fns.end()), fns.end());
}

std::string fnList(const std::vector<Function*>& fns) {
  std::string out;
  for (Function* f : fns) {
    if (!out.empty()) out += ", ";
    out += "[" + f->name() + "]";
  }
  return out;
}

/// The unique (producer, consumer) pair of each channel slot that passes the
/// endpoint rules (null when it does not); only these are worth
/// balance-checking.
struct Endpoints {
  std::vector<Function*> producer, consumer;
};

Endpoints checkEndpoints(const ModuleIndex& idx, const DswpResult& dswp, DiagEngine& diag) {
  Endpoints clean;
  clean.producer.assign(idx.channels.size(), nullptr);
  clean.consumer.assign(idx.channels.size(), nullptr);
  std::vector<Function*> prodFns, consFns;
  for (const auto& ch : dswp.channels) {
    const unsigned slot = idx.channels.slot(ch.id);
    const Span<const Site> prods = idx.sites(kProduce, slot);
    const Span<const Site> conss = idx.sites(kConsume, slot);
    if (prods.empty() && conss.empty()) {
      diag.warning({}, channelDesc(&ch, ch.id) + " has no produce or consume sites");
      continue;
    }
    if (prods.empty()) {
      diag.error({}, at(conss[0].inst) + ": consumes " + channelDesc(&ch, ch.id) +
                         " which no function produces; the consume can never unblock");
      continue;
    }
    if (conss.empty()) {
      diag.error({}, at(prods[0].inst) + ": produces " + channelDesc(&ch, ch.id) +
                         " which no function consumes; the queue fills and the produce blocks");
      continue;
    }
    siteFns(idx, prods, prodFns);
    siteFns(idx, conss, consFns);
    bool ok = true;
    if (prodFns.size() > 1) {
      diag.error({}, channelDesc(&ch, ch.id) + " is produced by " +
                         std::to_string(prodFns.size()) + " functions (" + fnList(prodFns) +
                         "); DSWP queues are point-to-point");
      ok = false;
    }
    if (consFns.size() > 1) {
      diag.error({}, channelDesc(&ch, ch.id) + " is consumed by " +
                         std::to_string(consFns.size()) + " functions (" + fnList(consFns) +
                         "); DSWP queues are point-to-point");
      ok = false;
    }
    if (ok && prodFns[0] == consFns[0]) {
      diag.error({}, "[" + prodFns[0]->name() + "] both produces and consumes " +
                         channelDesc(&ch, ch.id) +
                         "; a queue endpoint pair must span two threads");
      ok = false;
    }
    if (ok) {
      clean.producer[slot] = prodFns[0];
      clean.consumer[slot] = consFns[0];
    }
  }
  return clean;
}

// ---------------------------------------------------------------------------
// Loop context shared by the balance analyses.
//
// A slave runs `for(;;){ consume(start); body; produce(done); }`, so its
// per-invocation region is the dispatch loop's body, not the whole function;
// the dispatch loop itself (found as the outermost loop around the
// start-channel consume) is excluded from every loop chain. Loops are
// matched across partitions by their replicated header names with the
// extractor's ".p<N>" suffix stripped (control replication clones blocks
// under the same base name, and cleanup keeps header names because headers
// retain >= 2 predecessors for as long as the loop exists).
// ---------------------------------------------------------------------------

std::string stripPartitionSuffix(const std::string& name) {
  const size_t pos = name.rfind(".p");
  if (pos == std::string::npos || pos + 2 >= name.size()) return name;
  for (size_t i = pos + 2; i < name.size(); ++i)
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return name;
  return name.substr(0, pos);
}

/// One function's loop context, built once: dominators, natural loops and
/// each loop's relative chain key. Blocks are indexed by their position in
/// the function (ModuleIndex::localBlock), loops by Loop::index.
struct FnLoops {
  Function* fn = nullptr;
  DomTree dom;
  LoopInfo loops;
  Loop* dispatch = nullptr;  // slaves only; null when not found
  bool isSlave = false;
  std::vector<BasicBlock*> rets;  // blocks ending in Ret
  std::vector<BasicBlock*> blocks;
  // The chain key of every loop whose enclosing loops can be made relative
  // to the per-invocation region (-1 for the others and for the dispatch
  // loop), as an index into `keys`: the distinct chain keys plus "" (the
  // region level, so always keys[0]) in string order, each with the number
  // of such loops carrying it. A slave loop outside its dispatch loop runs
  // once ever, not once per invocation, and has no relative chain.
  std::vector<int> loopKey;
  std::vector<std::string> keys;
  std::vector<int> keyLoops;
  // Per block: does it dominate every latch of its innermost loop (every
  // return outside loops)? -1 until first asked.
  std::vector<int8_t> uncond;

  /// The ModuleIndex numbers f's blocks consecutively, as the analyses need.
  FnLoops(Function& f, const ModuleIndex& idx) : fn(&f), isSlave(idx.isSlave(&f)) {
    dom.build(f, /*postDom=*/false);
    loops.build(f, dom);
    for (auto& bb : f.blocks()) {
      blocks.push_back(bb);
      Instruction* term = bb->terminator();
      if (term && term->op() == Opcode::Ret) rets.push_back(bb);
      if (!isSlave || dispatch) continue;
      for (auto& inst : *bb) {
        if (inst->op() != Opcode::Consume) continue;
        const ChannelInfo* ci = idx.channelInfo(idx.channels.slot(inst->channel()));
        if (!ci || ci->purpose != ChannelInfo::Purpose::Start) continue;
        Loop* l = loops.loopFor(bb);
        while (l && l->parent) l = l->parent;
        dispatch = l;
        break;
      }
    }

    const auto& all = loops.loops();
    std::vector<std::string> chainKeys(all.size());
    std::vector<const Loop*> chain;
    loopKey.assign(all.size(), -1);
    keys.push_back("");
    for (size_t i = 0; i < all.size(); ++i) {
      const Loop* l = all[i].get();
      if (l == dispatch || !relativeChain(l, chain)) continue;
      for (const Loop* c : chain) {
        if (!chainKeys[i].empty()) chainKeys[i] += "/";
        chainKeys[i] += stripPartitionSuffix(c->header->name().str());
      }
      keys.push_back(chainKeys[i]);
      loopKey[i] = 0;  // resolved once `keys` is sorted
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    keyLoops.assign(keys.size(), 0);
    for (size_t i = 0; i < all.size(); ++i) {
      if (loopKey[i] < 0) continue;
      loopKey[i] = findKey(chainKeys[i]);
      ++keyLoops[loopKey[i]];
    }
    uncond.assign(blocks.size(), -1);
  }

  /// Loops enclosing `l` from outermost to innermost (inclusive), relative
  /// to the per-invocation region. False when the chain cannot be made
  /// relative.
  bool relativeChain(const Loop* l, std::vector<const Loop*>& out) const {
    out.clear();
    bool sawDispatch = dispatch == nullptr;
    for (const Loop* cur = l; cur; cur = cur->parent) {
      if (cur == dispatch) {
        sawDispatch = true;
        break;
      }
      out.push_back(cur);
    }
    if (isSlave && !sawDispatch) return false;
    std::reverse(out.begin(), out.end());
    return true;
  }

  /// Index of `key` in `keys`, or -1.
  int findKey(const std::string& key) const {
    auto it = std::lower_bound(keys.begin(), keys.end(), key);
    return it != keys.end() && *it == key ? static_cast<int>(it - keys.begin()) : -1;
  }
  /// Number of relative loops carrying `key`.
  int loopsWithKey(const std::string& key) const {
    const int k = findKey(key);
    return k < 0 ? 0 : keyLoops[k];
  }

  /// Key of the relative chain of the loops around block `b`, or -1 when it
  /// has none (a slave block outside its dispatch loop).
  int blockKey(unsigned b) const {
    const Loop* l = loops.loopFor(blocks[b]);
    if (!l) return isSlave ? -1 : 0;
    if (l == dispatch) return 0;
    return loopKey[l->index];
  }

  /// True when block `b` executes exactly once per iteration of its region:
  /// inside a loop it must dominate every latch of its innermost loop (each
  /// completed iteration passes it); at region level it must dominate every
  /// region exit (for a slave, the dispatch loop's latches, which is then
  /// the innermost loop).
  bool unconditional(unsigned b) {
    if (uncond[b] < 0) {
      const Loop* l = loops.loopFor(blocks[b]);
      bool all = true;
      if (l) {
        for (BasicBlock* latch : l->latches) all = all && dom.dominates(blocks[b], latch);
      } else {
        for (BasicBlock* ret : rets) all = all && dom.dominates(blocks[b], ret);
        all = all && !rets.empty();
      }
      uncond[b] = all;
    }
    return uncond[b] != 0;
  }
};

class LoopContextCache {
 public:
  explicit LoopContextCache(const ModuleIndex& idx) : idx_(idx), cache_(idx.numFunctions()) {}

  FnLoops& get(Function* f) {
    std::unique_ptr<FnLoops>& fl = cache_[idx_.findFn(f)];
    if (!fl) fl = std::make_unique<FnLoops>(*f, idx_);
    return *fl;
  }

 private:
  const ModuleIndex& idx_;
  std::vector<std::unique_ptr<FnLoops>> cache_;
};

// ---------------------------------------------------------------------------
// (b1) Channel token balance.
//
// For one channel with its unique producer P and consumer C: attribute every
// site to the base-name path of its enclosing relative loops, pin each
// attribution to a constant per-iteration count when the site is
// unconditional, and flag matched loops whose constants disagree. A delta
// the analysis cannot pin (conditional site, loop present on only one side
// after per-partition cleanup, ambiguous names) is skipped, never reported
// — incomplete by design so extractor output is never falsely rejected.
// ---------------------------------------------------------------------------

struct Delta {
  long count = 0;
  bool varies = false;
  Instruction* site = nullptr;  // representative, for provenance; null = no site
};

/// Per-key deltas of one side, indexed like its FnLoops::keys.
struct SideDeltas {
  std::vector<Delta> byKey;
  bool analyzable = true;
};

void collectDeltas(FnLoops& fl, const ModuleIndex& idx, Span<const Site> sites, SideDeltas& side) {
  side.byKey.assign(fl.keys.size(), Delta{});
  side.analyzable = true;
  for (const Site& s : sites) {
    if (s.fn != fl.fn) continue;
    const unsigned b = idx.localBlock(s.inst->parent());
    const int key = fl.blockKey(b);
    if (key < 0) {
      side.analyzable = false;
      return;
    }
    Delta& d = side.byKey[key];
    if (!d.site) d.site = s.inst;
    if (fl.unconditional(b))
      d.count += 1;
    else
      d.varies = true;
  }
}

void checkChannelBalance(const Endpoints& endpoints, const ModuleIndex& idx,
                         LoopContextCache& ctx, DiagEngine& diag) {
  SideDeltas dp, dc;
  std::vector<const std::string*> keys;
  for (unsigned slot = 0; slot < idx.channels.size(); ++slot) {
    Function* prod = endpoints.producer[slot];
    Function* cons = endpoints.consumer[slot];
    if (!prod) continue;
    const int id = idx.channels.id(slot);
    FnLoops& flP = ctx.get(prod);
    FnLoops& flC = ctx.get(cons);
    collectDeltas(flP, idx, idx.sites(kProduce, slot), dp);
    collectDeltas(flC, idx, idx.sites(kConsume, slot), dc);
    if (!dp.analyzable || !dc.analyzable) continue;

    // The region-level (straight-line) totals are comparable only when every
    // loop-resident site on both sides lives in a loop the other partition
    // also has: per-partition cleanup can dissolve a statically-trivial loop
    // on one side only, and then the sides' counting frames differ.
    bool regionsComparable = true;
    keys.clear();
    for (size_t k = 0; k < flP.keys.size(); ++k) {
      if (!dp.byKey[k].site || flP.keys[k].empty()) continue;
      keys.push_back(&flP.keys[k]);
      if (!flC.loopsWithKey(flP.keys[k])) regionsComparable = false;
    }
    for (size_t k = 0; k < flC.keys.size(); ++k) {
      if (!dc.byKey[k].site || flC.keys[k].empty()) continue;
      keys.push_back(&flC.keys[k]);
      if (!flP.loopsWithKey(flC.keys[k])) regionsComparable = false;
    }
    // Every key either side touched, plus the region level "", in string
    // order.
    static const std::string kRegion;
    keys.push_back(&kRegion);
    std::sort(keys.begin(), keys.end(),
              [](const std::string* a, const std::string* b) { return *a < *b; });
    keys.erase(std::unique(keys.begin(), keys.end(),
                           [](const std::string* a, const std::string* b) { return *a == *b; }),
               keys.end());
    for (const std::string* keyPtr : keys) {
      const std::string& key = *keyPtr;
      if (key.empty()) {
        if (!regionsComparable) continue;
      } else {
        const int kp = flP.loopsWithKey(key);
        const int kc = flC.loopsWithKey(key);
        if (!kp || !kc) continue;        // unmatched loop
        if (kp > 1 || kc > 1) continue;  // ambiguous name
      }
      const int kP = flP.findKey(key), kC = flC.findKey(key);
      const Delta dProd = kP >= 0 ? dp.byKey[kP] : Delta{};
      const Delta dCons = kC >= 0 ? dc.byKey[kC] : Delta{};
      if (dProd.varies || dCons.varies) continue;
      if (dProd.count == dCons.count) continue;
      const std::string where =
          key.empty() ? "per invocation" : "per iteration of matched loop '" + key + "'";
      Instruction* site = dProd.site ? dProd.site : dCons.site;
      diag.error({}, at(site) + ": " + channelDesc(idx.channelInfo(slot), id) +
                         " is unbalanced: [" + prod->name() + "] produces " +
                         std::to_string(dProd.count) + " " + where + " but [" + cons->name() +
                         "] consumes " + std::to_string(dCons.count) +
                         "; the queue drifts until it overflows or starves");
    }
  }
}

// ---------------------------------------------------------------------------
// (b2) Semaphore balance.
//
// For a semaphore whose raises all live in the same function as its lowers
// (no other thread can replenish it first), two checks:
//  * a loop whose iteration lowers the count more than it raises it
//    exhausts any finite initial count — reported as unbounded lowering;
//  * a best-case forward dataflow computes the maximum possible count
//    offset at every lower; if even the best path leaves the count below
//    zero, the lower blocks on every execution (the static twin of the
//    unseeded-initial-count bug that seedSemaphores() fixed dynamically).
// ---------------------------------------------------------------------------

bool constCount(const Instruction* inst, long& out) {
  const Constant* c = dyn_cast<Constant>(inst->operand(0));
  if (!c) return false;
  out = static_cast<long>(c->zext());
  return true;
}

/// Per-iteration nets (raises - lowers) of one semaphore in each loop of one
/// function, memoized by loop index.
class LoopSemNets {
 public:
  LoopSemNets(FnLoops& fl, const ModuleIndex& idx, Span<const Site> raises,
              Span<const Site> lowers)
      : fl_(fl), idx_(idx), raises_(raises), lowers_(lowers), memo_(fl.loops.loops().size()) {}

  /// Net of `loop` using only sites pinned to exactly-once-per-iteration
  /// blocks; subloops must net to zero. False when the net cannot be pinned
  /// to a constant.
  bool net(const Loop* loop, long& out) {
    Memo& m = memo_[loop->index];
    if (!m.done) {
      m.done = true;
      m.ok = true;
      long net = 0;
      auto addSites = [&](Span<const Site> sites, long sign) {
        for (const Site& s : sites) {
          if (s.fn != fl_.fn) continue;
          // Subloop sites are handled below.
          if (fl_.loops.loopFor(s.inst->parent()) != loop) continue;
          const unsigned b = idx_.localBlock(s.inst->parent());
          long k = 0;
          if (!constCount(s.inst, k) || !fl_.unconditional(b)) {
            m.ok = false;
            continue;
          }
          net += sign * k;
        }
      };
      addSites(raises_, +1);
      addSites(lowers_, -1);
      for (const Loop* sub : loop->subloops) {
        long subNet = 0;
        if (!this->net(sub, subNet) || subNet != 0) m.ok = false;
      }
      m.net = net;
    }
    out = m.net;
    return m.ok;
  }

 private:
  struct Memo {
    bool done = false, ok = false;
    long net = 0;
  };
  FnLoops& fl_;
  const ModuleIndex& idx_;
  Span<const Site> raises_, lowers_;
  std::vector<Memo> memo_;
};

void checkSemaphoreBalance(const DswpResult& dswp, const ModuleIndex& idx, LoopContextCache& ctx,
                           DiagEngine& diag) {
  std::vector<long> blockNet, maxOff;
  std::vector<Function*> lowerFns;
  for (const auto& sem : dswp.semaphores) {
    const unsigned slot = idx.semaphores.slot(sem.id);
    const Span<const Site> lowers = idx.sites(kLower, slot);
    const Span<const Site> raises = idx.sites(kRaise, slot);
    if (lowers.empty()) {
      if (raises.empty())
        diag.warning({}, semDesc(&sem, sem.id) + " has no raise or lower sites");
      continue;
    }
    siteFns(idx, lowers, lowerFns);
    for (Function* f : lowerFns) {
      // Raises in another function may arrive at any point in the schedule;
      // nothing definite can be concluded, so only self-contained functions
      // are checked.
      bool externalRaisers = false;
      for (const Site& s : raises)
        if (s.fn != f) externalRaisers = true;
      if (externalRaisers) continue;

      FnLoops& fl = ctx.get(f);

      // Unbounded lowering: any loop with a constant negative iteration net.
      LoopSemNets nets(fl, idx, raises, lowers);
      for (const auto& loop : fl.loops.loops()) {
        long net = 0;
        if (!nets.net(loop.get(), net)) continue;
        if (net >= 0) continue;
        bool hasLower = false;
        for (const Site& s : lowers)
          if (s.fn == f && loop->contains(s.inst->parent())) hasLower = true;
        if (!hasLower) continue;
        diag.error({}, "[" + f->name() + "] loop '" + loop->header->name() +
                           "': each iteration " + "lowers " + semDesc(&sem, sem.id) + " " +
                           std::to_string(-net) +
                           " more than it raises it, and no other thread raises it; any " +
                           "initial count is eventually exhausted");
      }

      // Best-case offset dataflow: per-block net + the offset right after
      // each lower, then an iterate-to-fixpoint max over paths (capped;
      // non-convergence means a raising loop, where nothing definite holds).
      constexpr long kUnreached = LONG_MIN / 4;
      bool allConst = true;
      blockNet.assign(fl.blocks.size(), 0);
      for (size_t b = 0; b < fl.blocks.size(); ++b) {
        for (auto& inst : *fl.blocks[b]) {
          long k = 0;
          if (inst->op() == Opcode::SemRaise && inst->channel() == sem.id) {
            if (!constCount(inst, k)) allConst = false;
            blockNet[b] += k;
          } else if (inst->op() == Opcode::SemLower && inst->channel() == sem.id) {
            if (!constCount(inst, k)) allConst = false;
            blockNet[b] -= k;
          }
        }
      }
      if (!allConst) continue;
      // Offsets by position in the dominator tree's order (reachable blocks
      // in reverse postorder, the entry first).
      const std::vector<BasicBlock*>& rpo = fl.dom.order();
      maxOff.assign(rpo.size(), kUnreached);
      maxOff[0] = 0;  // the entry
      bool converged = false;
      for (size_t pass = 0; pass < rpo.size() + 3 && !converged; ++pass) {
        converged = true;
        for (unsigned i = 1; i < rpo.size(); ++i) {
          long best = kUnreached;
          for (unsigned p : fl.dom.preds(i)) {
            if (maxOff[p] == kUnreached) continue;
            best = std::max(best, maxOff[p] + blockNet[idx.localBlock(rpo[p])]);
          }
          if (best != maxOff[i]) {
            maxOff[i] = best;
            converged = false;
          }
        }
      }
      if (!converged) continue;
      for (const Site& s : lowers) {
        if (s.fn != f) continue;
        BasicBlock* bb = s.inst->parent();
        const int i = fl.dom.index(bb);
        if (i < 0 || maxOff[i] == kUnreached) continue;  // unreachable
        long off = maxOff[i];
        bool found = false;
        for (auto& inst : *bb) {
          long k = 0;
          if (inst->op() == Opcode::SemRaise && inst->channel() == sem.id) {
            constCount(inst, k);
            off += k;
          } else if (inst->op() == Opcode::SemLower && inst->channel() == sem.id) {
            constCount(inst, k);
            off -= k;
            if (inst == s.inst) {
              found = true;
              break;
            }
          }
        }
        if (!found) continue;
        if (off + static_cast<long>(sem.initialCount) < 0) {
          diag.error({}, at(s.inst) + ": " + semDesc(&sem, sem.id) + " is lowered to " +
                             std::to_string(off + static_cast<long>(sem.initialCount)) +
                             " on every path (initial count " +
                             std::to_string(sem.initialCount) +
                             ", and no other thread raises it first); this lower always " +
                             "blocks");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// (c) Startup-progress game (wait-cycle detection).
//
// Abstract execution in which every blocking operation is resolved as
// optimistically as any real schedule ever could: a produce never blocks
// (queues start empty with capacity >= 1), a consume unblocks once its
// channel was ever produced to, a semaphore lower unblocks once the count
// was ever raised or its initial count is positive, and a call completes
// once the callee's return was ever reached. All facts are monotone, so the
// worklist reaches a fixpoint. Because the abstraction over-approximates
// progress, "the main master cannot reach its return at the fixpoint"
// implies no real schedule reaches it either — every reported deadlock is
// genuine, by construction.
// ---------------------------------------------------------------------------

class StartupGame {
 public:
  StartupGame(const DswpResult& dswp, const ModuleIndex& idx, DiagEngine& diag)
      : dswp_(dswp),
        idx_(idx),
        diag_(diag),
        state_(idx.numInstructions(), 0),
        supplied_(idx.channels.size(), 0),
        raised_(idx.semaphores.size(), 0),
        started_(idx.numFunctions(), 0),
        completed_(idx.numFunctions(), 0),
        parkedOnChannel_(idx.channels.size()),
        parkedOnSem_(idx.semaphores.size()),
        parkedOnCall_(idx.numFunctions()),
        parkedIn_(idx.numFunctions()) {}

  void run() {
    if (!dswp_.mainMaster) return;
    for (const auto& t : dswp_.threads) start(t.fn);
    while (!work_.empty()) {
      Instruction* inst = work_.front();
      work_.pop_front();
      step(inst);
    }
    if (!completed_[fn(dswp_.mainMaster)]) {
      reportDeadlock();
      return;
    }
    reportStuckSlaves();
  }

 private:
  enum : uint8_t { kExecuted = 1, kParked = 2 };

  unsigned fn(const Function* f) const { return static_cast<unsigned>(idx_.findFn(f)); }

  void start(Function* f) {
    if (!f || started_[fn(f)]) return;
    started_[fn(f)] = 1;
    BasicBlock* entry = f->entry();
    if (entry && !entry->empty()) enqueue(entry->front());
  }

  void enqueue(Instruction* inst) { work_.push_back(inst); }

  void advance(Instruction* inst) {
    BasicBlock* bb = inst->parent();
    auto it = bb->iteratorTo(inst);
    ++it;
    if (it != bb->end()) enqueue(*it);
  }

  void park(Instruction* inst, std::vector<Instruction*>& queue) {
    if (!(state_[inst->id()] & kParked)) {
      state_[inst->id()] |= kParked;
      queue.push_back(inst);
      parkedIn_[idx_.fnOf(inst)].push_back(inst);
    } else if (std::find(queue.begin(), queue.end(), inst) == queue.end()) {
      queue.push_back(inst);
    }
  }

  void wake(std::vector<Instruction*>& queue) {
    for (Instruction* inst : queue) enqueue(inst);
    queue.clear();
  }

  void step(Instruction* inst) {
    if (state_[inst->id()] & kExecuted) return;
    switch (inst->op()) {
      case Opcode::Consume: {
        const unsigned slot = idx_.channels.slot(inst->channel());
        if (!supplied_[slot]) {
          park(inst, parkedOnChannel_[slot]);
          return;
        }
        break;
      }
      case Opcode::SemLower: {
        const unsigned slot = idx_.semaphores.slot(inst->channel());
        const SemaphoreInfo* sem = idx_.semInfo(slot);
        const bool seeded = sem && sem->initialCount > 0;
        if (!seeded && !raised_[slot]) {
          park(inst, parkedOnSem_[slot]);
          return;
        }
        break;
      }
      case Opcode::Call: {
        Function* callee = inst->callee();
        start(callee);  // the call transfers control into the callee
        if (!callee) {
          park(inst, parkedOnNothing_);
          return;
        }
        if (!completed_[fn(callee)]) {
          park(inst, parkedOnCall_[fn(callee)]);
          return;
        }
        break;
      }
      default: break;
    }
    state_[inst->id()] = kExecuted;
    switch (inst->op()) {
      case Opcode::Produce: {
        const unsigned slot = idx_.channels.slot(inst->channel());
        if (!supplied_[slot]) {
          supplied_[slot] = 1;
          wake(parkedOnChannel_[slot]);
        }
        break;
      }
      case Opcode::SemRaise: {
        const unsigned slot = idx_.semaphores.slot(inst->channel());
        if (!raised_[slot]) {
          raised_[slot] = 1;
          wake(parkedOnSem_[slot]);
        }
        break;
      }
      case Opcode::Ret: {
        const unsigned f = idx_.fnOf(inst);
        if (!completed_[f]) {
          completed_[f] = 1;
          wake(parkedOnCall_[f]);
        }
        return;  // no successor
      }
      default: break;
    }
    if (inst->isTerminator()) {
      for (unsigned i = 0; i < inst->numSuccessors(); ++i) {
        BasicBlock* succ = inst->successor(i);
        // A block of no function (erased) was never numbered and cannot
        // belong to a verified module.
        if (succ && !succ->empty() && idx_.numbered(succ)) enqueue(succ->front());
      }
      return;
    }
    advance(inst);
  }

  Instruction* firstParkedIn(const Function* f) const {
    for (Instruction* inst : parkedIn_[fn(f)])
      if (state_[inst->id()] & kParked) return inst;
    return nullptr;
  }

  std::string threadDesc(const Function* f) const {
    if (const std::string* origin = idx_.threadOrigin(f))
      return "thread '" + *origin + "' [" + f->name() + "]";
    return "[" + f->name() + "]";
  }

  void reportDeadlock() {
    diag_.error({}, "deadlock: " + threadDesc(dswp_.mainMaster) +
                        " can never reach its return under any schedule");
    std::vector<uint8_t> visited(idx_.numFunctions(), 0);
    Function* cur = dswp_.mainMaster;
    for (int depth = 0; depth < 20 && cur; ++depth) {
      if (visited[fn(cur)]) {
        diag_.note({}, "the wait cycle closes at [" + cur->name() + "]");
        return;
      }
      visited[fn(cur)] = 1;
      if (!started_[fn(cur)]) {
        diag_.note({}, "[" + cur->name() + "] never starts executing");
        return;
      }
      Instruction* stuck = firstParkedIn(cur);
      if (!stuck) {
        diag_.note({}, "[" + cur->name() + "] makes no further progress");
        return;
      }
      Function* next = nullptr;
      std::string why;
      switch (stuck->op()) {
        case Opcode::Consume: {
          const int ch = stuck->channel();
          const unsigned slot = idx_.channels.slot(ch);
          why = at(stuck) + ": blocked consuming " + channelDesc(idx_.channelInfo(slot), ch);
          const Span<const Site> prods = idx_.sites(kProduce, slot);
          if (prods.empty()) {
            why += ", which is never produced";
          } else {
            why += ", produced only at " + at(prods[0].inst) + " (never reached)";
            next = prods[0].fn;
          }
          break;
        }
        case Opcode::SemLower: {
          const int id = stuck->channel();
          const unsigned slot = idx_.semaphores.slot(id);
          const SemaphoreInfo* info = idx_.semInfo(slot);
          why = at(stuck) + ": blocked lowering " + semDesc(info, id) + " (initial count " +
                std::to_string(info ? info->initialCount : 0) + ")";
          const Span<const Site> raises = idx_.sites(kRaise, slot);
          if (raises.empty()) {
            why += ", which is never raised";
          } else {
            why += ", raised only at " + at(raises[0].inst) + " (never reached)";
            next = raises[0].fn;
          }
          break;
        }
        case Opcode::Call:
          why = at(stuck) + ": blocked calling [" + stuck->callee()->name() +
                "], which never returns";
          next = stuck->callee();
          break;
        default: why = at(stuck) + ": blocked"; break;
      }
      diag_.note({}, why);
      cur = next;
    }
  }

  void reportStuckSlaves() {
    for (const auto& t : dswp_.threads) {
      if (!t.isSlave || !t.fn) continue;
      Instruction* stuck = firstParkedIn(t.fn);
      if (!stuck) continue;
      if (stuck->op() == Opcode::Consume) {
        const ChannelInfo* ci = idx_.channelInfo(idx_.channels.slot(stuck->channel()));
        if (ci && ci->purpose == ChannelInfo::Purpose::Start)
          continue;  // idle at the dispatch consume: the normal parked state
      }
      diag_.warning({}, at(stuck) + ": " + threadDesc(t.fn) +
                            " can stall here; no schedule unblocks this operation");
    }
  }

  const DswpResult& dswp_;
  const ModuleIndex& idx_;
  DiagEngine& diag_;
  std::deque<Instruction*> work_;
  // Per instruction: kExecuted / kParked. Per channel slot: ever produced.
  // Per semaphore slot: ever raised. Per function: started, completed.
  std::vector<uint8_t> state_, supplied_, raised_, started_, completed_;
  std::vector<std::vector<Instruction*>> parkedOnChannel_, parkedOnSem_, parkedOnCall_, parkedIn_;
  // Calls without a callee never unblock.
  std::vector<Instruction*> parkedOnNothing_;
};

}  // namespace

bool verifyPartition(Module& m, const DswpResult& dswp, DiagEngine& diag) {
  const size_t errorsBefore = diag.errorCount();
  ModuleIndex idx(m, dswp, diag);
  const Endpoints endpoints = checkEndpoints(idx, dswp, diag);
  LoopContextCache ctx(idx);
  checkChannelBalance(endpoints, idx, ctx, diag);
  checkSemaphoreBalance(dswp, idx, ctx, diag);
  StartupGame(dswp, idx, diag).run();
  return diag.errorCount() == errorsBefore;
}

std::string verifyPartitionToString(Module& m, const DswpResult& dswp) {
  DiagEngine diag;
  if (verifyPartition(m, dswp, diag)) return "";
  return diag.str();
}

}  // namespace twill
