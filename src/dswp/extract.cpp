#include "src/dswp/extract.h"

#include <algorithm>
#include <cassert>

#include "src/analysis/cfg.h"
#include "src/exec/core.h"
#include "src/ir/builder.h"
#include "src/ir/verifier.h"
#include "src/obs/trace.h"
#include "src/transforms/passes.h"

namespace twill {
namespace {

/// Everything one partition needs from the rest of its function, indexed by
/// the PDG's numbering: blocks by block id, values and tokens by producer
/// instruction id, arguments by index. A channel entry is -1 when nothing
/// crosses; computeNeeds marks a crossing with 0 and allocateChannels
/// replaces the mark with the channel's id.
struct PartitionNeeds {
  std::vector<uint8_t> blocks;  // block id -> replicated here?
  std::vector<int> valueCh;     // producer id -> data channel consumed here
  std::vector<int> tokenCh;     // producer id -> memory-token channel consumed here
  std::vector<int> argCh;       // argument index -> channel (slaves only)
  int startCh = -1;             // slaves: dispatch start token
  int doneCh = -1;              // slaves: completion token
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
  unsigned owner(const Instruction* inst) const { return parts_.assignment[inst->id()]; }

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
      n.blocks.assign(f_.numBlocks(), 0);
      n.valueCh.assign(slots, -1);
      n.tokenCh.assign(slots, -1);
      n.argCh.assign(f_.numArgs(), -1);
      std::vector<BasicBlock*> work;
      auto includeBlock = [&](BasicBlock* bb) {
        if (n.blocks[bb->id()]) return;
        n.blocks[bb->id()] = 1;
        work.push_back(bb);
      };
      auto needValue = [&](Instruction* u) {
        if (owner(u) == p || n.valueCh[u->id()] >= 0) return;
        n.valueCh[u->id()] = 0;
        includeBlock(u->parent());
      };
      auto needArg = [&](Argument* a) {
        if (p != parts_.master) n.argCh[a->index()] = 0;
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
            else if (auto* a = dyn_cast<Argument>(op)) needArg(a);
          }
        }
      }
      // Memory-dependence tokens into this partition (skipped when the
      // producer's value is consumed anyway — that consume already orders).
      for (const PDGEdge& e : pdg_.edges()) {
        if (e.kind != DepKind::Memory) continue;
        if (owner(e.to) != p || owner(e.from) == p) continue;
        if (n.valueCh[e.from->id()] >= 0 || n.tokenCh[e.from->id()] >= 0) continue;
        n.tokenCh[e.from->id()] = 0;
        includeBlock(e.from->parent());
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
          else if (auto* a = dyn_cast<Argument>(term->operand(0))) needArg(a);
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

  /// Ids follow (consumer partition, data by producer id, tokens by
  /// producer id, arguments by index, start, done), so they are the same in
  /// every run (traces label queues by id).
  void allocateChannels() {
    const std::string fn = f_.name().str();
    for (unsigned p = 0; p < K_; ++p) {
      PartitionNeeds& n = needs_[p];
      const std::string to = "->" + std::to_string(p);
      for (unsigned id = 0; id < n.valueCh.size(); ++id)
        if (n.valueCh[id] >= 0)
          n.valueCh[id] = newChannel(valueBits(pdg_.node(id)), ChannelInfo::Purpose::Data,
                                     fn + ":v" + std::to_string(id) + to);
      for (unsigned id = 0; id < n.tokenCh.size(); ++id)
        if (n.tokenCh[id] >= 0)
          n.tokenCh[id] =
              newChannel(1, ChannelInfo::Purpose::MemToken, fn + ":m" + std::to_string(id) + to);
      for (unsigned i = 0; i < n.argCh.size(); ++i)
        if (n.argCh[i] >= 0)
          n.argCh[i] = newChannel(valueBits(f_.arg(i)), ChannelInfo::Purpose::Arg,
                                  fn + ":arg" + std::to_string(i) + to);
      if (p != parts_.master) {
        n.startCh = newChannel(1, ChannelInfo::Purpose::Start, fn + ":start" + to);
        n.doneCh = newChannel(1, ChannelInfo::Purpose::Done, fn + ":done<-" + std::to_string(p));
      }
    }
  }

  // --- Phase 3: emission ------------------------------------------------------
  BasicBlock* retarget(BasicBlock* s, unsigned p, const std::vector<BasicBlock*>& blockMap) {
    const PartitionNeeds& n = needs_[p];
    while (!n.blocks[s->id()]) {
      BasicBlock* next = pdg_.postDomTree().idom(s);
      if (!next) return blockMap[exitBlock_->id()];  // virtual root: fall to exit
      s = next;
    }
    return blockMap[s->id()];
  }

  Function* emitPartition(unsigned p, bool guarded, int semId) {
    const PartitionNeeds& n = needs_[p];
    const bool isMaster = p == parts_.master;
    Function* np = m_.createFunction(f_.name() + "_dswp_" + std::to_string(p),
                                     isMaster ? f_.retType() : m_.types().voidTy());
    // Original-value -> clone maps: instructions by id, arguments by index.
    std::vector<Value*> instMap(f_.numValueSlots(), nullptr);
    std::vector<Value*> argMap(f_.numArgs(), nullptr);
    if (isMaster)
      for (unsigned i = 0; i < f_.numArgs(); ++i)
        argMap[i] = np->addArg(f_.arg(i)->type(), f_.arg(i)->name());

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

    // Clone included blocks in original order (block id -> clone).
    std::vector<BasicBlock*> blockMap(f_.numBlocks(), nullptr);
    for (auto& bb : f_.blocks())
      if (n.blocks[bb->id()])
        blockMap[bb->id()] = np->createBlock(bb->name() + ".p" + std::to_string(p));
    if (!isMaster) finish = np->createBlock("finish");

    if (!isMaster) {
      b.setInsertPoint(dispatch);
      b.consume(n.startCh, m_.types().i1());
      b.br(blockMap[f_.entry()->id()]);
      b.setInsertPoint(finish);
      b.produce(n.doneCh, m_.i1Const(false));
      b.br(dispatch);
    }

    // Emit blocks.
    auto same = [](Value* v) { return v; };
    for (auto& bbPtr : f_.blocks()) {
      BasicBlock* bb = bbPtr;
      if (!n.blocks[bb->id()]) continue;
      BasicBlock* cb = blockMap[bb->id()];
      b.setInsertPoint(cb);

      // Entry-block prologue.
      if (bb == f_.entry()) {
        if (isMaster) {
          if (guarded) b.semLower(semId, m_.i32Const(1));
          for (unsigned sp = 0; sp < K_; ++sp)
            if (sp != parts_.master) b.produce(needs_[sp].startCh, m_.i1Const(true));
          // Arguments, in (argIndex, partition) order for determinism.
          for (unsigned i = 0; i < f_.numArgs(); ++i) {
            for (unsigned sp = 0; sp < K_; ++sp) {
              const int ch = needs_[sp].argCh[i];
              if (ch < 0) continue;
              Value* v = argMap[i];
              if (v->type()->isPtr()) v = b.castTo(Opcode::PtrToInt, v, m_.types().i32());
              b.produce(ch, v);
            }
          }
        } else {
          // Slave: consume the arguments it needs (arg definition site).
          for (unsigned i = 0; i < f_.numArgs(); ++i) {
            const int ch = n.argCh[i];
            if (ch < 0) continue;
            Type* t = f_.arg(i)->type();
            if (t->isPtr()) {
              Instruction* raw = b.consume(ch, m_.types().i32());
              argMap[i] = b.castTo(Opcode::IntToPtr, raw, t);
            } else {
              argMap[i] = b.consume(ch, t);
            }
          }
        }
      }

      // Pass 1: clone owned PHIs (must stay first in the block) with the
      // original operands; a final fixup pass remaps them.
      for (auto& inst : *bb) {
        if (!inst->isPhi()) break;
        if (owner(inst) != p) continue;
        instMap[inst->id()] = cb->append(cloneInstruction(m_, inst, same));
      }
      b.setInsertPoint(cb);

      // Pass 2: everything else in original order.
      for (auto& instPtr : *bb) {
        Instruction* inst = instPtr;
        if (inst->isTerminator()) break;  // handled below
        const unsigned id = inst->id();
        bool ownedPhi = inst->isPhi() && owner(inst) == p;
        if (!ownedPhi) {
          if (owner(inst) == p) {
            // Clone with original operands; a final fixup pass remaps them.
            instMap[id] = cb->append(cloneInstruction(m_, inst, same));
            b.setInsertPoint(cb);
          } else {
            if (n.valueCh[id] >= 0) {
              // Consume the producer's value at its replicated site.
              if (inst->type()->isPtr()) {
                Instruction* raw = b.consume(n.valueCh[id], m_.types().i32());
                instMap[id] = b.castTo(Opcode::IntToPtr, raw, inst->type());
              } else {
                instMap[id] = b.consume(n.valueCh[id], inst->type());
              }
            }
            if (n.tokenCh[id] >= 0) b.consume(n.tokenCh[id], m_.types().i1());
          }
        }
        // Producer side: emit produces right after the defining instruction
        // (for owned PHIs: after the block's PHI group), in consumer-partition
        // order, data before token.
        if (owner(inst) == p) {
          for (const PartitionNeeds& c : needs_) {
            if (c.valueCh[id] >= 0) {
              Value* v = instMap[id];
              if (inst->type()->isPtr()) v = b.castTo(Opcode::PtrToInt, v, m_.types().i32());
              b.produce(c.valueCh[id], v);
            }
            if (c.tokenCh[id] >= 0) b.produce(c.tokenCh[id], m_.i1Const(true));
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
              if (sp != parts_.master) b.consume(needs_[sp].doneCh, m_.types().i1());
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

    // Fixup pass: remap every operand and PHI incoming of the original
    // function through instMap/argMap/blockMap.
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
          } else if (auto* a = dyn_cast<Argument>(op)) {
            if (a->parent() == &f_ && argMap[a->index()]) inst->setOperand(i, argMap[a->index()]);
          }
        }
        if (inst->isPhi()) {
          for (unsigned i = 0; i < inst->numIncoming(); ++i) {
            BasicBlock* in = inst->incomingBlock(i);
            assert(in->parent() == &f_ && blockMap[in->id()] && "phi predecessor not replicated");
            inst->setIncomingBlock(i, blockMap[in->id()]);
          }
        }
      }
    }
    return np;
  }

  Module& m_;
  Function& f_;
  const PDG& pdg_;
  const PartitionResult& parts_;
  int& channelCounter_;
  std::vector<ChannelInfo>& channels_;
  unsigned K_ = 1;
  BasicBlock* exitBlock_ = nullptr;
  std::vector<PartitionNeeds> needs_;
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

  std::vector<Function*> createdFns;  // partition functions needing cleanup
  // Bottom-up over the call graph (no recursion in the input language).
  for (Function* f : calleesFirst(m)) {
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
