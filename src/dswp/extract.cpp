#include "src/dswp/extract.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "src/analysis/cfg.h"
#include "src/exec/core.h"
#include "src/ir/builder.h"
#include "src/ir/verifier.h"
#include "src/obs/trace.h"
#include "src/transforms/passes.h"

namespace twill {
namespace {

/// Everything one partition needs from the rest of its function.
/// Values and tokens are dense id-indexed bitmaps (the PDG renumbered, so
/// ids are dense) plus an unordered insertion list for enumeration — the
/// emission loop membership-tests every instruction per partition, which a
/// byte read wins over a pointer hash.
struct PartitionNeeds {
  std::unordered_set<BasicBlock*> blocks;
  std::vector<uint8_t> valueIn;          // id -> consumed here?
  std::vector<Instruction*> valueList;   // cross-edge producers consumed
  std::vector<uint8_t> tokenIn;          // id -> token consumed here?
  std::vector<Instruction*> tokenList;   // memory-dependence tokens consumed
  std::unordered_set<Argument*> args;    // arguments consumed (slaves only)
};

class FunctionExtractor {
public:
  FunctionExtractor(Module& m, Function& f, const PDG& pdg, const PartitionResult& parts,
                    int& channelCounter, std::vector<ChannelInfo>& channels)
      : m_(m),
        f_(f),
        pdg_(pdg),
        parts_(parts),
        channelCounter_(channelCounter),
        channels_(channels) {
    K_ = parts.numPartitions();
    exitBlock_ = findExitBlock();
    // Flatten the assignment map once: owner() runs per instruction per
    // partition across both phases, and ids are dense (the PDG renumbered).
    ownerById_.assign(f.numValueSlots(), 0);
    for (auto& bb : f.blocks())
      for (auto& inst : *bb) ownerById_[inst->id()] = parts.assignment.at(inst);
  }

  struct Output {
    std::vector<Function*> fns;  // indexed by partition
    unsigned queues = 0;
  };

  Output run(bool guarded, int semId) {
    computeNeeds();
    allocateChannels();
    Output out;
    out.fns.resize(K_);
    for (unsigned p = 0; p < K_; ++p) out.fns[p] = emitPartition(p, guarded, semId);
    out.queues = queuesAllocated_;
    return out;
  }

private:
  unsigned owner(const Instruction* inst) const { return ownerById_[inst->id()]; }

  BasicBlock* findExitBlock() const {
    for (auto& bb : f_.blocks())
      if (bb->terminator() && bb->terminator()->op() == Opcode::Ret) return bb;
    assert(false && "function has no ret (mergeReturns must run first)");
    return nullptr;
  }

  // --- Phase 1: per-partition needs (fixpoint over included blocks) --------
  void computeNeeds() {
    needs_.assign(K_, {});
    const size_t slots = f_.numValueSlots();
    for (unsigned p = 0; p < K_; ++p) {
      PartitionNeeds& n = needs_[p];
      n.valueIn.assign(slots, 0);
      n.tokenIn.assign(slots, 0);
      std::vector<BasicBlock*> work;
      auto includeBlock = [&](BasicBlock* bb) {
        if (n.blocks.insert(bb).second) work.push_back(bb);
      };
      auto needValue = [&](Instruction* u) {
        if (owner(u) == p) return;
        if (!n.valueIn[u->id()]) {
          n.valueIn[u->id()] = 1;
          n.valueList.push_back(u);
          includeBlock(u->parent());
        }
      };

      includeBlock(f_.entry());
      includeBlock(exitBlock_);
      for (auto& bb : f_.blocks()) {
        for (auto& inst : *bb) {
          if (owner(inst) != p) continue;
          includeBlock(bb);
          if (inst->isPhi())
            for (BasicBlock* pred : bb->predecessors()) includeBlock(pred);
          for (unsigned i = 0; i < inst->numOperands(); ++i) {
            Value* op = inst->operand(i);
            if (auto* d = dyn_cast<Instruction>(op)) needValue(d);
            else if (auto* a = dyn_cast<Argument>(op)) {
              if (p != parts_.master) n.args.insert(a);
            }
          }
        }
      }
      // Memory-dependence tokens into this partition (skipped when the
      // producer's value is consumed anyway — that consume already orders).
      for (const PDGEdge& e : pdg_.edges()) {
        if (e.kind != DepKind::Memory) continue;
        if (owner(e.to) != p || owner(e.from) == p) continue;
        if (n.valueIn[e.from->id()]) continue;
        if (!n.tokenIn[e.from->id()]) {
          n.tokenIn[e.from->id()] = 1;
          n.tokenList.push_back(e.from);
          includeBlock(e.from->parent());
        }
      }
      // Closure: control dependences of included blocks, and conditions of
      // replicated branches.
      while (!work.empty()) {
        BasicBlock* bb = work.back();
        work.pop_back();
        for (Instruction* branch : pdg_.controlDepsOf(bb)) includeBlock(branch->parent());
        Instruction* term = bb->terminator();
        if (term && term->op() == Opcode::CondBr) {
          if (auto* c = dyn_cast<Instruction>(term->operand(0))) needValue(c);
          else if (auto* a = dyn_cast<Argument>(term->operand(0))) {
            if (p != parts_.master) n.args.insert(a);
          }
        }
        // Owned PHIs in a block included later still demand their preds.
        for (auto& inst : *bb) {
          if (!inst->isPhi()) break;
          if (owner(inst) == p)
            for (BasicBlock* pred : bb->predecessors()) includeBlock(pred);
        }
      }
    }
  }

  // --- Phase 2: channel allocation ------------------------------------------
  int newChannel(unsigned bits, ChannelInfo::Purpose purpose, const std::string& note) {
    int id = channelCounter_++;
    channels_.push_back({id, bits, purpose, note});
    ++queuesAllocated_;
    return id;
  }

  static unsigned valueBits(const Value* v) {
    Type* t = v->type();
    if (!t || t->isVoid() || t->isPtr()) return 32;
    return t->bits();
  }

  void allocateChannels() {
    // The needs sets hash on pointers, so their iteration order follows heap
    // addresses — stable within a process, but not across --jobs interleavings.
    // Channel ids must be reproducible (traces label queues by id), so
    // allocate in instruction-id / argument-index order instead.
    auto byInstId = [](const std::vector<Instruction*>& s) {
      std::vector<Instruction*> v(s);
      std::sort(v.begin(), v.end(),
                [](const Instruction* a, const Instruction* b) { return a->id() < b->id(); });
      return v;
    };
    for (unsigned p = 0; p < K_; ++p) {
      for (Instruction* u : byInstId(needs_[p].valueList)) {
        int ch = newChannel(valueBits(u), ChannelInfo::Purpose::Data,
                            f_.name() + ":v" + std::to_string(u->id()) + "->" + std::to_string(p));
        valueCh_[{u, p}] = ch;
        producerPlan_[u].push_back({p, ch, /*token=*/false});
      }
      for (Instruction* u : byInstId(needs_[p].tokenList)) {
        int ch = newChannel(1, ChannelInfo::Purpose::MemToken,
                            f_.name() + ":m" + std::to_string(u->id()) + "->" + std::to_string(p));
        tokenCh_[{u, p}] = ch;
        producerPlan_[u].push_back({p, ch, /*token=*/true});
      }
      std::vector<Argument*> args(needs_[p].args.begin(), needs_[p].args.end());
      std::sort(args.begin(), args.end(),
                [](const Argument* a, const Argument* b) { return a->index() < b->index(); });
      for (Argument* a : args)
        argCh_[{a, p}] = newChannel(valueBits(a), ChannelInfo::Purpose::Arg,
                                    f_.name() + ":arg" + std::to_string(a->index()) + "->" +
                                        std::to_string(p));
      if (p != parts_.master) {
        startCh_[p] = newChannel(1, ChannelInfo::Purpose::Start,
                                 f_.name() + ":start->" + std::to_string(p));
        doneCh_[p] = newChannel(1, ChannelInfo::Purpose::Done,
                                f_.name() + ":done<-" + std::to_string(p));
      }
    }
    // Deterministic produce order per producer: by consumer partition, data
    // before token.
    for (auto& [u, plan] : producerPlan_) {
      std::sort(plan.begin(), plan.end(), [](const ProduceTo& a, const ProduceTo& b) {
        if (a.partition != b.partition) return a.partition < b.partition;
        return a.token < b.token;
      });
    }
  }

  // --- Phase 3: emission ------------------------------------------------------
  BasicBlock* retarget(BasicBlock* s, unsigned p,
                       const std::unordered_map<BasicBlock*, BasicBlock*>& blockMap) {
    const PartitionNeeds& n = needs_[p];
    while (!n.blocks.count(s)) {
      BasicBlock* next = pdg_.postDomTree().idom(s);
      if (!next) return blockMap.at(exitBlock_);  // virtual root: fall to exit
      s = next;
    }
    return blockMap.at(s);
  }

  Function* emitPartition(unsigned p, bool guarded, int semId) {
    const PartitionNeeds& n = needs_[p];
    const bool isMaster = p == parts_.master;
    Function* np = m_.createFunction(f_.name() + "_dswp_" + std::to_string(p),
                                     isMaster ? f_.retType() : m_.types().voidTy());
    // Original-value -> clone map, split by key kind: instructions go in a
    // dense id-indexed vector (the fixup pass below queries it per operand),
    // arguments in a small side map.
    std::vector<Value*> instMap(f_.numValueSlots(), nullptr);
    std::unordered_map<Value*, Value*> argMap;
    if (isMaster)
      for (unsigned i = 0; i < f_.numArgs(); ++i)
        argMap[f_.arg(i)] = np->addArg(f_.arg(i)->type(), f_.arg(i)->name());

    // Slave wrapper: dispatch loop around the body.
    IRBuilder b(m_);
    BasicBlock* dispatch = nullptr;
    BasicBlock* finish = nullptr;
    if (!isMaster) {
      // A dedicated entry keeps the dispatch loop's back edge away from the
      // function entry (which must have no predecessors).
      BasicBlock* slaveEntry = np->createBlock("slave.entry");
      dispatch = np->createBlock("dispatch");
      b.setInsertPoint(slaveEntry);
      b.br(dispatch);
    }

    // Clone included blocks in original order.
    std::unordered_map<BasicBlock*, BasicBlock*> blockMap;
    for (auto& bb : f_.blocks())
      if (n.blocks.count(bb))
        blockMap[bb] = np->createBlock(bb->name() + ".p" + std::to_string(p));
    if (!isMaster) finish = np->createBlock("finish");

    if (!isMaster) {
      b.setInsertPoint(dispatch);
      b.consume(startCh_.at(p), m_.types().i1());
      b.br(blockMap.at(f_.entry()));
      b.setInsertPoint(finish);
      b.produce(doneCh_.at(p), m_.i1Const(false));
      b.br(dispatch);
    }

    // Emit blocks.
    for (auto& bbPtr : f_.blocks()) {
      BasicBlock* bb = bbPtr;
      if (!n.blocks.count(bb)) continue;
      BasicBlock* cb = blockMap.at(bb);
      b.setInsertPoint(cb);

      // Entry-block prologue.
      if (bb == f_.entry()) {
        if (isMaster) {
          if (guarded) b.semLower(semId, m_.i32Const(1));
          for (unsigned sp = 0; sp < K_; ++sp)
            if (sp != parts_.master) b.produce(startCh_.at(sp), m_.i1Const(true));
          // Arguments, in (argIndex, partition) order for determinism.
          for (unsigned i = 0; i < f_.numArgs(); ++i) {
            Argument* a = f_.arg(i);
            for (unsigned sp = 0; sp < K_; ++sp) {
              auto it = argCh_.find({a, sp});
              if (it == argCh_.end()) continue;
              Value* v = argMap.at(a);
              if (a->type()->isPtr()) v = b.castTo(Opcode::PtrToInt, v, m_.types().i32());
              b.produce(it->second, v);
            }
          }
        } else {
          // Slave: consume the arguments it needs (arg definition site).
          for (unsigned i = 0; i < f_.numArgs(); ++i) {
            Argument* a = f_.arg(i);
            auto it = argCh_.find({a, p});
            if (it == argCh_.end()) continue;
            if (a->type()->isPtr()) {
              Instruction* raw = b.consume(it->second, m_.types().i32());
              argMap[a] = b.castTo(Opcode::IntToPtr, raw, a->type());
            } else {
              argMap[a] = b.consume(it->second, a->type());
            }
          }
        }
      }

      // Pass 1: clone owned PHIs (must stay first in the block).
      for (auto& inst : *bb) {
        if (!inst->isPhi()) break;
        if (owner(inst) != p) continue;
        Instruction* phi = m_.createInstruction(Opcode::Phi, inst->type());
        for (unsigned i = 0; i < inst->numIncoming(); ++i)
          phi->addIncoming(inst->incomingValue(i), inst->incomingBlock(i));  // fixed up later
        instMap[inst->id()] = cb->append(phi);
      }
      b.setInsertPoint(cb);

      // Pass 2: everything else in original order.
      for (auto& instPtr : *bb) {
        Instruction* inst = instPtr;
        if (inst->isTerminator()) break;  // handled below
        bool ownedPhi = inst->isPhi() && owner(inst) == p;
        if (!ownedPhi) {
          if (owner(inst) == p) {
            // Clone with original operands; a final fixup pass remaps them.
            Instruction* clone = m_.createInstruction(inst->op(), inst->type());
            for (unsigned i = 0; i < inst->numOperands(); ++i)
              clone->addOperand(inst->operand(i));
            if (inst->op() == Opcode::Alloca)
              clone->setAllocaInfo(inst->allocaElemBits(), inst->allocaCount());
            if (inst->op() == Opcode::Produce || inst->op() == Opcode::Consume ||
                inst->op() == Opcode::SemRaise || inst->op() == Opcode::SemLower)
              clone->setChannel(inst->channel());
            if (inst->op() == Opcode::Call) clone->setCallee(inst->callee());
            clone->setName(inst->name());
            instMap[inst->id()] = cb->append(clone);
            b.setInsertPoint(cb);
          } else {
            if (n.valueIn[inst->id()]) {
              // Consume the producer's value at its replicated site.
              if (inst->type()->isPtr()) {
                Instruction* raw = b.consume(valueCh_.at({inst, p}), m_.types().i32());
                instMap[inst->id()] = b.castTo(Opcode::IntToPtr, raw, inst->type());
              } else {
                instMap[inst->id()] = b.consume(valueCh_.at({inst, p}), inst->type());
              }
            }
            if (n.tokenIn[inst->id()]) b.consume(tokenCh_.at({inst, p}), m_.types().i1());
          }
        }
        // Producer side: emit produces right after the defining instruction
        // (for owned PHIs: after the block's PHI group).
        if (owner(inst) == p) {
          auto plan = producerPlan_.find(inst);
          if (plan != producerPlan_.end()) {
            for (const ProduceTo& pt : plan->second) {
              if (pt.token) {
                b.produce(pt.channel, m_.i1Const(true));
              } else {
                Value* v = instMap[inst->id()];
                if (inst->type()->isPtr()) v = b.castTo(Opcode::PtrToInt, v, m_.types().i32());
                b.produce(pt.channel, v);
              }
            }
          }
        }
      }

      // Terminator.
      Instruction* term = bb->terminator();
      b.setInsertPoint(cb);
      switch (term->op()) {
        case Opcode::Ret: {
          if (isMaster) {
            for (unsigned sp = 0; sp < K_; ++sp)
              if (sp != parts_.master) b.consume(doneCh_.at(sp), m_.types().i1());
            if (guarded) b.semRaise(semId, m_.i32Const(1));
            if (term->numOperands())
              b.ret(term->operand(0));  // fixed up later
            else
              b.retVoid();
          } else {
            b.br(finish);
          }
          break;
        }
        case Opcode::Br:
          b.br(retarget(term->successor(0), p, blockMap));
          break;
        case Opcode::CondBr: {
          BasicBlock* t = retarget(term->successor(0), p, blockMap);
          BasicBlock* e = retarget(term->successor(1), p, blockMap);
          if (t == e) {
            b.br(t);
          } else {
            b.condBr(term->operand(0), t, e);  // cond fixed up later
          }
          break;
        }
        default:
          assert(false && "switch must be lowered before DSWP");
      }
    }

    // Fixup pass: remap every operand and PHI incoming through
    // instMap/argMap/blockMap.
    for (auto& cbPtr : np->blocks()) {
      for (auto& inst : *cbPtr) {
        for (unsigned i = 0; i < inst->numOperands(); ++i) {
          Value* op = inst->operand(i);
          if (auto* oi = dyn_cast<Instruction>(op)) {
            if (oi->parent() && oi->parent()->parent() == &f_) {
              Value* mapped = instMap[oi->id()];
              // An unmapped original instruction operand is a bug — catch
              // it loudly in tests.
              assert(mapped && "cross-partition operand without a consume");
              if (mapped) inst->setOperand(i, mapped);
            }
          } else if (isa<Argument>(op)) {
            auto vit = argMap.find(op);
            if (vit != argMap.end()) inst->setOperand(i, vit->second);
          }
        }
        if (inst->isPhi()) {
          for (unsigned i = 0; i < inst->numIncoming(); ++i) {
            auto bit = blockMap.find(inst->incomingBlock(i));
            assert(bit != blockMap.end() && "phi predecessor not replicated");
            inst->setIncomingBlock(i, bit->second);
          }
        }
      }
    }
    return np;
  }

  struct ProduceTo {
    unsigned partition;
    int channel;
    bool token;
  };
  struct PairHashI {
    size_t operator()(const std::pair<const Instruction*, unsigned>& k) const {
      return std::hash<const void*>()(k.first) * 31 + k.second;
    }
  };
  struct PairHashA {
    size_t operator()(const std::pair<const Argument*, unsigned>& k) const {
      return std::hash<const void*>()(k.first) * 31 + k.second;
    }
  };

  Module& m_;
  Function& f_;
  const PDG& pdg_;
  const PartitionResult& parts_;
  int& channelCounter_;
  std::vector<ChannelInfo>& channels_;
  unsigned K_ = 1;
  BasicBlock* exitBlock_ = nullptr;
  std::vector<unsigned> ownerById_;  // dense id -> partition (see ctor)
  std::vector<PartitionNeeds> needs_;
  std::unordered_map<std::pair<const Instruction*, unsigned>, int, PairHashI> valueCh_;
  std::unordered_map<std::pair<const Instruction*, unsigned>, int, PairHashI> tokenCh_;
  std::unordered_map<std::pair<const Argument*, unsigned>, int, PairHashA> argCh_;
  std::unordered_map<unsigned, int> startCh_;
  std::unordered_map<unsigned, int> doneCh_;
  std::unordered_map<Instruction*, std::vector<ProduceTo>> producerPlan_;
  unsigned queuesAllocated_ = 0;
};

std::vector<Instruction*> callSites(Module& m, Function* callee) {
  std::vector<Instruction*> sites;
  for (auto& f : m.functions())
    for (auto& bb : f->blocks())
      for (auto& inst : *bb)
        if (inst->op() == Opcode::Call && inst->callee() == callee) sites.push_back(inst);
  return sites;
}

}  // namespace

DswpResult runDswp(Module& m, const DswpConfig& config) {
  DswpResult result;
  int channelCounter = 0;
  int semCounter = 0;

  // Bottom-up over the call graph (no recursion in the input language).
  // Iterative post-order with an explicit stack — a deep call chain from
  // untrusted source must not overflow the native stack — visiting exactly
  // the order the old recursive DFS produced.
  std::vector<Function*> order;
  {
    std::unordered_set<Function*> visited;
    auto calleesOf = [](Function* f) {
      std::vector<Function*> cs;
      for (auto& bb : f->blocks())
        for (auto& inst : *bb)
          if (inst->op() == Opcode::Call) cs.push_back(inst->callee());
      return cs;
    };
    struct DfsNode {
      Function* f;
      std::vector<Function*> callees;
      size_t next = 0;
    };
    std::vector<DfsNode> stack;
    auto dfs = [&](Function* root) {
      if (!visited.insert(root).second) return;
      stack.push_back({root, calleesOf(root), 0});
      while (!stack.empty()) {
        DfsNode& top = stack.back();
        if (top.next < top.callees.size()) {
          Function* c = top.callees[top.next++];
          if (visited.insert(c).second) stack.push_back({c, calleesOf(c), 0});
        } else {
          order.push_back(top.f);
          stack.pop_back();
        }
      }
    };
    Function* main = m.findFunction("main");
    if (main) dfs(main);
    for (auto& f : m.functions()) dfs(f);
  }

  std::vector<Function*> createdFns;  // partition functions needing cleanup
  for (Function* f : order) {
    const bool isMain = f->name() == "main";
    FunctionStats stats;
    stats.name = f->name();

    PDG pdg;
    {
      StageSpan span("pdg");
      pdg.build(*f);
      result.pdgWallMs += span.closeMs();
    }

    PartitionConfig pc;
    pc.swFraction = config.swFraction;
    pc.forceMasterSW = isMain;
    auto sccs = computeSCCs(pdg);  // shared: K selection + partitioning
    if (config.numPartitions > 0) {
      pc.numPartitions = config.numPartitions;
    } else if (f->instructionCount() < config.minInstructions) {
      pc.numPartitions = 1;
    } else {
      pc.numPartitions = std::min<unsigned>(
          config.maxPartitions, std::max<unsigned>(1, static_cast<unsigned>(sccs.size() / 6)));
    }
    PartitionResult parts = partitionFunction(pdg, pc, std::move(sccs));
    const unsigned K = parts.numPartitions();
    stats.partitions = K;
    for (unsigned p = 0; p < K; ++p)
      if (parts.isHW[p]) ++stats.hwPartitions;

    if (K == 1) {
      // No extraction; the body runs within its caller's thread. Main with a
      // single partition is the software main thread.
      if (isMain) {
        result.mainMaster = f;
        result.mainMasterIsHW = false;
        result.threads.insert(result.threads.begin(),
                              {f, /*isHW=*/false, /*isSlave=*/false, f->name() + "#0"});
      }
      result.stats.push_back(stats);
      continue;
    }

    // Overlap guard: more than one static call site (§5.2.1).
    auto sites = callSites(m, f);
    bool guarded = sites.size() > 1;
    int semId = -1;
    if (guarded) {
      semId = semCounter++;
      result.semaphores.push_back({semId, 1, f->name() + " overlap guard"});
      stats.semaphores = 1;
    }

    unsigned queuesBefore = static_cast<unsigned>(result.channels.size());
    FunctionExtractor ex(m, *f, pdg, parts, channelCounter, result.channels);
    auto out = ex.run(guarded, semId);
    createdFns.insert(createdFns.end(), out.fns.begin(), out.fns.end());
    stats.queues = static_cast<unsigned>(result.channels.size()) - queuesBefore;

    // Redirect call sites to the master and register slave threads.
    Function* master = out.fns[parts.master];
    for (Instruction* call : sites) call->setCallee(master);
    for (unsigned p = 0; p < K; ++p) {
      if (p == parts.master) continue;
      result.threads.push_back(
          {out.fns[p], parts.isHW[p], /*isSlave=*/true, f->name() + "#" + std::to_string(p)});
    }
    if (isMain) {
      result.mainMaster = master;
      result.mainMasterIsHW = false;  // §5.3: main's master always runs in SW
      result.threads.insert(result.threads.begin(),
                            {master, /*isHW=*/false, /*isSlave=*/false,
                             f->name() + "#" + std::to_string(parts.master)});
    }
    result.stats.push_back(stats);
    m.eraseFunction(f);
  }
  // Clean up the extracted functions: replicated control flow leaves behind
  // degenerate branches, pass-through blocks and single-entry PHIs that
  // simplifycfg/constfold/dce remove without touching produce/consume pairs
  // (those have side effects and are never dead). Only the partition
  // functions created above need the sweep — everything else is already at
  // the runDefaultPipeline fixpoint.
  runCleanupPipeline(m, createdFns);
  verifyAfterPass(m, "dswp-extract");
  return result;
}

void seedSemaphores(const DswpResult& dswp, ChannelIO& chans) {
  for (const auto& s : dswp.semaphores)
    if (s.initialCount) chans.trySemRaise(s.id, s.initialCount);
}

}  // namespace twill
