#include "src/frontend/lower.h"

#include <algorithm>

#include "src/frontend/lexer.h"
#include "src/frontend/parser.h"
#include "src/obs/trace.h"

namespace twill {
namespace {
uint32_t maskToUInt(unsigned bits, uint32_t v) {
  return bits >= 32 ? v : (v & ((1u << bits) - 1));
}
}  // namespace

// ---------------------------------------------------------------------------
// Environment and helpers
// ---------------------------------------------------------------------------

Lowerer::LocalVar* Lowerer::findLocal(const std::string& name) {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    auto f = it->find(name);
    if (f != it->end()) return &f->second;
  }
  return nullptr;
}

Type* Lowerer::irType(const CType& t) {
  switch (t.k) {
    case CType::K::Void: return m_.types().voidTy();
    case CType::K::Int: return m_.types().intTy(t.bits);
    case CType::K::Ptr:
    case CType::K::Array: return m_.types().ptrTy(t.bits);
  }
  return m_.types().voidTy();
}

Value* Lowerer::entryAlloca(unsigned elemBits, uint32_t count, const std::string& name) {
  // All allocas live at the top of the entry block so mem2reg sees them.
  IRBuilder eb(m_);
  eb.setInsertPoint(entryBlock_, entryBlock_->begin());
  return eb.alloca_(elemBits, count, name);
}

BasicBlock* Lowerer::newBlock(const std::string& hint) {
  return curFn_->createBlock(hint + "." + std::to_string(blockCounter_++));
}

void Lowerer::ensureTerminated(BasicBlock* bb) {
  if (bb->terminator()) return;
  IRBuilder tb(m_);
  tb.setInsertPoint(bb);
  if (curFn_->retType()->isVoid()) tb.retVoid();
  else tb.ret(m_.constant(curFn_->retType(), 0));
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

Lowerer::RV Lowerer::promote(RV v) {
  if (!v.t.isInt() || v.t.bits >= 32) return v;
  // C integer promotion: char/short (of either signedness) become signed int.
  Opcode ext = v.t.isSigned ? Opcode::SExt : Opcode::ZExt;
  Value* w = b_.castTo(ext, v.v, m_.types().i32());
  return {w, CType::intTy(32, true)};
}

Lowerer::RV Lowerer::convert(RV v, const CType& to, SourceLoc loc) {
  if (v.t.sameAs(to)) return v;
  if (to.isInt() && v.t.isInt()) {
    if (to.bits == v.t.bits) return {v.v, to};  // signedness-only change
    if (to.bits < v.t.bits) return {b_.castTo(Opcode::Trunc, v.v, m_.types().intTy(to.bits)), to};
    Opcode ext = v.t.isSigned ? Opcode::SExt : Opcode::ZExt;
    return {b_.castTo(ext, v.v, m_.types().intTy(to.bits)), to};
  }
  if (to.isPtr() && v.t.isPtr()) {
    if (to.bits == v.t.bits) return {v.v, to};
    // Reinterpret through the integer domain (e.g. (char*)wordptr).
    Value* i = b_.castTo(Opcode::PtrToInt, v.v, m_.types().i32());
    return {b_.castTo(Opcode::IntToPtr, i, m_.types().ptrTy(to.bits)), to};
  }
  if (to.isPtr() && v.t.isInt()) {
    RV wide = convert(v, CType::intTy(32, v.t.isSigned), loc);
    return {b_.castTo(Opcode::IntToPtr, wide.v, m_.types().ptrTy(to.bits)), to};
  }
  if (to.isInt() && v.t.isPtr()) {
    Value* i = b_.castTo(Opcode::PtrToInt, v.v, m_.types().i32());
    return convert({i, CType::intTy(32, false)}, to, loc);
  }
  error(loc, "cannot convert " + v.t.str() + " to " + to.str());
  return {m_.constant(irType(to.isVoid() ? CType::intTy(32, true) : to), 0), to};
}

Lowerer::RV Lowerer::loadLV(const LV& lv) {
  if (lv.t.isPtr()) {
    // Pointer variables are stored as i32 addresses.
    Value* raw = b_.load(lv.addr);
    Value* p = b_.castTo(Opcode::IntToPtr, raw, m_.types().ptrTy(lv.t.bits));
    return {p, lv.t};
  }
  return {b_.load(lv.addr), lv.t};
}

void Lowerer::storeLV(const LV& lv, RV v, SourceLoc loc) {
  if (lv.t.isPtr()) {
    RV p = convert(v, lv.t, loc);
    Value* raw = b_.castTo(Opcode::PtrToInt, p.v, m_.types().i32());
    b_.store(raw, lv.addr);
    return;
  }
  RV c = convert(v, lv.t, loc);
  b_.store(c.v, lv.addr);
}

Value* Lowerer::toI1(RV v) {
  if (v.t.isInt() && v.t.bits == 1) return v.v;
  Value* zero = v.t.isPtr() ? static_cast<Value*>(b_.castTo(Opcode::PtrToInt, v.v, m_.types().i32()))
                            : v.v;
  Type* t = zero->type();
  return b_.cmp(Opcode::CmpNE, zero, m_.constant(t, 0));
}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

void Lowerer::declareGlobal(const GlobalDecl& g) {
  if (globals_.count(g.name)) {
    error(g.loc, "redefinition of global '" + g.name + "'");
    return;
  }
  uint32_t count = g.type.isArray() ? g.type.count : 1;
  unsigned bits = g.type.isPtr() ? 32 : g.type.bits;
  GlobalVar* gv = m_.createGlobal(g.name, bits, count, g.isConst);
  std::vector<uint32_t> init = g.init;
  for (auto& v : init) v = maskToUInt(bits, v);
  gv->setInit(std::move(init));
  globals_[g.name] = {gv, g.type};
}

void Lowerer::declareFunction(const FunctionDecl& fd) {
  auto known = funcDecls_.find(fd.name);
  if (known != funcDecls_.end()) {
    const FunctionDecl* prev = known->second;
    if (prev->params.size() != fd.params.size() || !prev->retType.sameAs(fd.retType))
      error(fd.loc, "conflicting declaration of '" + fd.name + "'");
    if (fd.body) funcDecls_[fd.name] = &fd;  // definition wins
    if (m_.findFunction(fd.name)) return;    // signature already materialized
  } else {
    funcDecls_[fd.name] = &fd;
  }
  Function* f = m_.createFunction(fd.name, irType(fd.retType));
  for (const auto& p : fd.params) f->addArg(irType(p.type.decayed()), p.name);
}

void Lowerer::lowerFunctionBody(const FunctionDecl& fd) {
  curFn_ = m_.findFunction(fd.name);
  curDecl_ = &fd;
  if (!curFn_) {
    // declareFunction refused the signature (e.g. a conflicting earlier
    // declaration kept the name without a materialized function). A plain
    // diagnostic keeps untrusted input from reaching the old assert.
    error(fd.loc, "cannot lower '" + fd.name + "': no declared function with this name");
    return;
  }
  if (curFn_->entry()) {
    error(fd.loc, "redefinition of function '" + fd.name + "'");
    return;
  }
  blockCounter_ = 0;
  entryBlock_ = curFn_->createBlock("entry");
  b_.setInsertPoint(entryBlock_);
  scopes_.clear();
  pushScope();
  // Spill parameters to allocas so they are ordinary mutable locals.
  for (unsigned i = 0; i < fd.params.size(); ++i) {
    const ParamDecl& p = fd.params[i];
    CType t = p.type.decayed();
    unsigned slotBits = t.isPtr() ? 32 : t.bits;
    Value* slot = entryAlloca(slotBits, 1, p.name);
    b_.setInsertPoint(b_.block());  // re-sync end iterator after entryAlloca
    Value* incoming = curFn_->arg(i);
    if (t.isPtr()) incoming = b_.castTo(Opcode::PtrToInt, incoming, m_.types().i32());
    b_.store(incoming, slot);
    scopes_.back()[p.name] = {slot, t};
  }
  lowerStmt(*fd.body);
  popScope();
  // Terminate every dangling block (implicit `return 0` / `return`).
  for (auto& bb : curFn_->blocks()) ensureTerminated(bb);
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

void Lowerer::lowerStmt(const Stmt& s) {
  // Statements after a terminator (e.g. code after `return`) go into a fresh
  // unreachable block, exactly like Clang; simplifycfg removes it later.
  if (terminated() && s.kind != StmtKind::Empty) b_.setInsertPoint(newBlock("dead"));
  switch (s.kind) {
    case StmtKind::Compound: lowerCompound(s); break;
    case StmtKind::Decl: lowerDecl(s); break;
    case StmtKind::If: lowerIf(s); break;
    case StmtKind::While: lowerWhile(s); break;
    case StmtKind::DoWhile: lowerDoWhile(s); break;
    case StmtKind::For: lowerFor(s); break;
    case StmtKind::Switch: lowerSwitch(s); break;
    case StmtKind::Return: lowerReturn(s); break;
    case StmtKind::Break:
      if (breakTargets_.empty()) error(s.loc, "'break' outside of a loop or switch");
      else b_.br(breakTargets_.back());
      break;
    case StmtKind::Continue:
      if (continueTargets_.empty()) error(s.loc, "'continue' outside of a loop");
      else b_.br(continueTargets_.back());
      break;
    case StmtKind::ExprStmt: lowerExpr(*s.cond); break;
    case StmtKind::Empty: break;
    case StmtKind::Case:
    case StmtKind::Default:
      error(s.loc, "case label outside of a switch body");
      break;
  }
}

void Lowerer::lowerCompound(const Stmt& s) {
  pushScope();
  for (const auto& st : s.body) lowerStmt(*st);
  popScope();
}

void Lowerer::lowerDecl(const Stmt& s) {
  for (const auto& d : s.decls) {
    if (scopes_.back().count(d.name)) {
      error(d.loc, "redefinition of '" + d.name + "' in the same scope");
      continue;
    }
    uint32_t count = d.type.isArray() ? d.type.count : 1;
    unsigned bits = d.type.isPtr() ? 32 : d.type.bits;
    Value* slot = entryAlloca(bits, count, d.name);
    scopes_.back()[d.name] = {slot, d.type};
    if (d.hasInitList) {
      if (!d.type.isArray()) {
        error(d.loc, "brace initializer on a non-array local");
        continue;
      }
      for (size_t i = 0; i < d.initList.size(); ++i) {
        RV v = lowerExpr(*d.initList[i]);
        Value* p = b_.gep(slot, b_.i32(static_cast<uint32_t>(i)));
        storeLV({p, CType::intTy(d.type.bits, d.type.isSigned)}, v, d.loc);
      }
    } else if (d.init) {
      RV v = lowerExpr(*d.init);
      storeLV({slot, d.type.isArray() ? CType::intTy(d.type.bits, d.type.isSigned) : d.type}, v,
              d.loc);
    }
  }
}

void Lowerer::lowerIf(const Stmt& s) {
  Value* cond = lowerCond(*s.cond);
  BasicBlock* thenBB = newBlock("if.then");
  BasicBlock* exitBB = newBlock("if.end");
  BasicBlock* elseBB = s.elseS ? newBlock("if.else") : exitBB;
  b_.condBr(cond, thenBB, elseBB);
  b_.setInsertPoint(thenBB);
  lowerStmt(*s.thenS);
  if (!terminated()) b_.br(exitBB);
  if (s.elseS) {
    b_.setInsertPoint(elseBB);
    lowerStmt(*s.elseS);
    if (!terminated()) b_.br(exitBB);
  }
  b_.setInsertPoint(exitBB);
}

void Lowerer::lowerWhile(const Stmt& s) {
  BasicBlock* condBB = newBlock("while.cond");
  BasicBlock* bodyBB = newBlock("while.body");
  BasicBlock* exitBB = newBlock("while.end");
  b_.br(condBB);
  b_.setInsertPoint(condBB);
  Value* c = lowerCond(*s.cond);
  b_.condBr(c, bodyBB, exitBB);
  b_.setInsertPoint(bodyBB);
  breakTargets_.push_back(exitBB);
  continueTargets_.push_back(condBB);
  lowerStmt(*s.thenS);
  breakTargets_.pop_back();
  continueTargets_.pop_back();
  if (!terminated()) b_.br(condBB);
  b_.setInsertPoint(exitBB);
}

void Lowerer::lowerDoWhile(const Stmt& s) {
  BasicBlock* bodyBB = newBlock("do.body");
  BasicBlock* condBB = newBlock("do.cond");
  BasicBlock* exitBB = newBlock("do.end");
  b_.br(bodyBB);
  b_.setInsertPoint(bodyBB);
  breakTargets_.push_back(exitBB);
  continueTargets_.push_back(condBB);
  lowerStmt(*s.thenS);
  breakTargets_.pop_back();
  continueTargets_.pop_back();
  if (!terminated()) b_.br(condBB);
  b_.setInsertPoint(condBB);
  Value* c = lowerCond(*s.cond);
  b_.condBr(c, bodyBB, exitBB);
  b_.setInsertPoint(exitBB);
}

void Lowerer::lowerFor(const Stmt& s) {
  pushScope();
  if (s.declStmt) lowerStmt(*s.declStmt);
  else if (s.init) lowerExpr(*s.init);
  BasicBlock* condBB = newBlock("for.cond");
  BasicBlock* bodyBB = newBlock("for.body");
  BasicBlock* stepBB = newBlock("for.step");
  BasicBlock* exitBB = newBlock("for.end");
  b_.br(condBB);
  b_.setInsertPoint(condBB);
  if (s.cond) {
    Value* c = lowerCond(*s.cond);
    b_.condBr(c, bodyBB, exitBB);
  } else {
    b_.br(bodyBB);
  }
  b_.setInsertPoint(bodyBB);
  breakTargets_.push_back(exitBB);
  continueTargets_.push_back(stepBB);
  lowerStmt(*s.thenS);
  breakTargets_.pop_back();
  continueTargets_.pop_back();
  if (!terminated()) b_.br(stepBB);
  b_.setInsertPoint(stepBB);
  if (s.step) lowerExpr(*s.step);
  b_.br(condBB);
  b_.setInsertPoint(exitBB);
  popScope();
}

void Lowerer::lowerSwitch(const Stmt& s) {
  RV v = promote(lowerExpr(*s.cond));
  BasicBlock* exitBB = newBlock("sw.end");
  // First pass: a block per label, in source order. A case value is
  // interned in the selector's type, so duplicates compare after that
  // conversion (C11 6.8.4.2p3).
  struct CaseEntry {
    Constant* value = nullptr;  // null for `default`
    BasicBlock* block = nullptr;
    size_t firstStmt = 0;  // index into s.thenS->body
  };
  std::vector<CaseEntry> cases;
  std::vector<Constant*> values;
  BasicBlock* defaultBB = nullptr;
  size_t numLabels = 0;
  const auto& body = s.thenS->body;
  for (size_t i = 0; i < body.size(); ++i) {
    const Stmt& st = *body[i];
    if (st.kind != StmtKind::Case && st.kind != StmtKind::Default) continue;
    CaseEntry ce;
    ce.firstStmt = i + 1;
    if (st.kind == StmtKind::Default) {
      if (defaultBB) error(st.loc, "multiple default labels in one switch");
      ce.block = defaultBB = newBlock("sw.default");
    } else {
      ce.block = newBlock("sw.case");
      ce.value = m_.constant(v.v->type(), st.caseValue);
      if (std::find(values.begin(), values.end(), ce.value) != values.end())
        error(st.loc, "duplicate case value");
      values.push_back(ce.value);
      ++numLabels;
    }
    cases.push_back(ce);
  }
  if (!defaultBB) defaultBB = exitBB;
  // Dispatch (the thesis's "lowerswitch" step, §5.1): one compare per case
  // label in source order, each failing over to the next compare's chain
  // block; the last one falls to the default (or out of the switch).
  if (numLabels == 0) b_.br(defaultBB);
  size_t chain = 0;
  for (const CaseEntry& ce : cases) {
    if (!ce.value) continue;
    Value* eq = b_.cmp(Opcode::CmpEQ, v.v, ce.value);
    if (++chain == numLabels) {
      b_.condBr(eq, ce.block, defaultBB);
      break;
    }
    BasicBlock* next =
        curFn_->createBlockAfter(b_.block(), "sw.chain." + std::to_string(chain - 1));
    b_.condBr(eq, ce.block, next);
    b_.setInsertPoint(next);
  }
  // Second pass: lower the statements between labels; fallthrough chains to
  // the next case block. Statements before the first label go into a block
  // no edge reaches: their declarations are in scope for the whole body, and
  // nothing there runs (C11 6.8.4.2p7).
  breakTargets_.push_back(exitBB);
  pushScope();
  const size_t firstLabel = cases.empty() ? body.size() : cases[0].firstStmt - 1;
  if (firstLabel > 0) {
    b_.setInsertPoint(newBlock("dead"));
    for (size_t i = 0; i < firstLabel; ++i) lowerStmt(*body[i]);
  }
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    b_.setInsertPoint(cases[ci].block);
    size_t endStmt = ci + 1 < cases.size() ? cases[ci + 1].firstStmt - 1 : body.size();
    for (size_t i = cases[ci].firstStmt; i < endStmt; ++i) lowerStmt(*body[i]);
    if (!terminated()) b_.br(ci + 1 < cases.size() ? cases[ci + 1].block : exitBB);
  }
  popScope();
  breakTargets_.pop_back();
  b_.setInsertPoint(exitBB);
}

void Lowerer::lowerReturn(const Stmt& s) {
  if (curFn_->retType()->isVoid()) {
    if (s.cond) error(s.loc, "void function returns a value");
    b_.retVoid();
    return;
  }
  if (!s.cond) {
    error(s.loc, "non-void function returns nothing");
    b_.ret(m_.constant(curFn_->retType(), 0));
    return;
  }
  RV v = lowerExpr(*s.cond);
  RV c = convert(v, curDecl_->retType, s.loc);
  b_.ret(c.v);
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Value* Lowerer::lowerCond(const Expr& e) {
  // Fast paths that produce i1 directly, avoiding zext/recompare churn.
  if (e.kind == ExprKind::Binary) {
    switch (e.binOp) {
      case BinOp::Lt: case BinOp::Le: case BinOp::Gt: case BinOp::Ge:
      case BinOp::Eq: case BinOp::Ne: {
        RV r = lowerBinary(e);
        // lowerBinary zexts compares to i32; reuse the underlying i1.
        auto* zi = dyn_cast<Instruction>(r.v);
        if (zi && zi->op() == Opcode::ZExt) {
          auto* inner = dyn_cast<Instruction>(zi->operand(0));
          if (inner && isCompareOp(inner->op())) return inner;
        }
        return toI1(r);
      }
      case BinOp::LogAnd: case BinOp::LogOr: {
        // Short-circuit directly at i1.
        BasicBlock* rhsBB = newBlock(e.binOp == BinOp::LogAnd ? "land.rhs" : "lor.rhs");
        BasicBlock* endBB = newBlock(e.binOp == BinOp::LogAnd ? "land.end" : "lor.end");
        Value* lhs = lowerCond(*e.a);
        BasicBlock* lhsExit = b_.block();
        if (e.binOp == BinOp::LogAnd) b_.condBr(lhs, rhsBB, endBB);
        else b_.condBr(lhs, endBB, rhsBB);
        b_.setInsertPoint(rhsBB);
        Value* rhs = lowerCond(*e.b);
        BasicBlock* rhsExit = b_.block();
        b_.br(endBB);
        b_.setInsertPoint(endBB);
        Instruction* phi = b_.phi(m_.types().i1());
        phi->addIncoming(m_.i1Const(e.binOp == BinOp::LogOr), lhsExit);
        phi->addIncoming(rhs, rhsExit);
        b_.setInsertPoint(endBB);
        return phi;
      }
      default: break;
    }
  }
  if (e.kind == ExprKind::Unary && e.unOp == UnOp::Not) {
    Value* inner = lowerCond(*e.a);
    return b_.binary(Opcode::Xor, inner, m_.i1Const(true));
  }
  return toI1(lowerExpr(e));
}

Lowerer::RV Lowerer::lowerExpr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::IntLit: {
      bool uns = e.isUnsignedLit;
      return {m_.i32Const(static_cast<uint32_t>(e.intValue)), CType::intTy(32, !uns)};
    }
    case ExprKind::Ident: {
      if (LocalVar* lv = findLocal(e.name)) {
        if (lv->type.isArray())
          return {lv->addr, lv->type.decayed()};  // decay: alloca pointer value
        return loadLV({lv->addr, lv->type});
      }
      auto g = globals_.find(e.name);
      if (g != globals_.end()) {
        const CType& t = g->second.second;
        if (t.isArray()) return {g->second.first, t.decayed()};
        if (t.isPtr()) {
          // Global pointer variable: slot holds an i32 address.
          Value* raw = b_.load(g->second.first);
          return {b_.castTo(Opcode::IntToPtr, raw, m_.types().ptrTy(t.bits)), t};
        }
        return {b_.load(g->second.first), t};
      }
      error(e.loc, "use of undeclared identifier '" + e.name + "'");
      return {m_.i32Const(0), CType::intTy(32, true)};
    }
    case ExprKind::Unary: {
      switch (e.unOp) {
        case UnOp::Plus: return promote(lowerExpr(*e.a));
        case UnOp::Neg: {
          RV v = promote(lowerExpr(*e.a));
          return {b_.sub(m_.constant(v.v->type(), 0), v.v), v.t};
        }
        case UnOp::BitNot: {
          RV v = promote(lowerExpr(*e.a));
          return {b_.binary(Opcode::Xor, v.v, m_.constant(v.v->type(), ~0ull)), v.t};
        }
        case UnOp::Not: {
          Value* c = lowerCond(*e.a);
          Value* inv = b_.binary(Opcode::Xor, c, m_.i1Const(true));
          return {b_.castTo(Opcode::ZExt, inv, m_.types().i32()), CType::intTy(32, true)};
        }
        case UnOp::Deref: {
          RV p = lowerExpr(*e.a);
          if (!p.t.isPtr()) {
            error(e.loc, "dereference of a non-pointer");
            return {m_.i32Const(0), CType::intTy(32, true)};
          }
          return {b_.load(p.v), CType::intTy(p.t.bits, p.t.isSigned)};
        }
        case UnOp::AddrOf: {
          LV lv = lowerLValue(*e.a);
          if (!lv.addr) return {m_.i32Const(0), CType::intTy(32, true)};
          if (lv.t.isPtr()) {
            error(e.loc, "address of a pointer variable (pointer-to-pointer) is not supported");
            return {m_.i32Const(0), CType::intTy(32, true)};
          }
          return {lv.addr, CType::ptrTo(lv.t.bits, lv.t.isSigned)};
        }
        case UnOp::PreInc:
        case UnOp::PreDec: {
          LV lv = lowerLValue(*e.a);
          if (!lv.addr) return {m_.i32Const(0), CType::intTy(32, true)};
          RV old = loadLV(lv);
          RV next;
          if (lv.t.isPtr()) {
            next = {b_.gep(old.v, b_.i32(e.unOp == UnOp::PreInc ? 1u : ~0u)), lv.t};
          } else {
            RV p = promote(old);
            Value* delta = m_.constant(p.v->type(), 1);
            Value* nv = e.unOp == UnOp::PreInc ? b_.add(p.v, delta) : b_.sub(p.v, delta);
            next = {nv, p.t};
          }
          storeLV(lv, next, e.loc);
          return lv.t.isPtr() ? next : convert(next, lv.t, e.loc);
        }
      }
      break;
    }
    case ExprKind::PostIncDec: {
      LV lv = lowerLValue(*e.a);
      if (!lv.addr) return {m_.i32Const(0), CType::intTy(32, true)};
      RV old = loadLV(lv);
      RV next;
      if (lv.t.isPtr()) {
        next = {b_.gep(old.v, b_.i32(e.incDelta > 0 ? 1u : ~0u)), lv.t};
      } else {
        RV p = promote(old);
        Value* delta = m_.constant(p.v->type(), 1);
        Value* nv = e.incDelta > 0 ? b_.add(p.v, delta) : b_.sub(p.v, delta);
        next = {nv, p.t};
      }
      storeLV(lv, next, e.loc);
      return old;  // value before the update
    }
    case ExprKind::Binary:
      return lowerBinary(e);
    case ExprKind::Assign:
      return lowerAssign(e);
    case ExprKind::Cond:
      return lowerCondExpr(e);
    case ExprKind::Call:
      return lowerCall(e);
    case ExprKind::Index: {
      LV lv = lowerLValue(e);
      if (!lv.addr) return {m_.i32Const(0), CType::intTy(32, true)};
      return loadLV(lv);
    }
    case ExprKind::Cast: {
      RV v = lowerExpr(*e.a);
      if (e.castType.isVoid()) return {nullptr, CType::voidTy()};
      return convert(v, e.castType, e.loc);
    }
    case ExprKind::Comma: {
      lowerExpr(*e.a);
      return lowerExpr(*e.b);
    }
  }
  error(e.loc, "unsupported expression");
  return {m_.i32Const(0), CType::intTy(32, true)};
}

Lowerer::LV Lowerer::lowerLValue(const Expr& e) {
  switch (e.kind) {
    case ExprKind::Ident: {
      if (LocalVar* lv = findLocal(e.name)) {
        if (lv->type.isArray()) {
          error(e.loc, "array '" + e.name + "' is not assignable");
          return {};
        }
        return {lv->addr, lv->type};
      }
      auto g = globals_.find(e.name);
      if (g != globals_.end()) {
        const CType& t = g->second.second;
        if (t.isArray()) {
          error(e.loc, "array '" + e.name + "' is not assignable");
          return {};
        }
        return {g->second.first, t};
      }
      error(e.loc, "use of undeclared identifier '" + e.name + "'");
      return {};
    }
    case ExprKind::Index: {
      RV base = lowerExpr(*e.a);
      if (!base.t.isPtr()) {
        error(e.loc, "subscript of a non-pointer");
        return {};
      }
      RV idx = promote(lowerExpr(*e.b));
      if (idx.t.isPtr()) {
        error(e.loc, "pointer used as array index");
        return {};
      }
      Value* p = b_.gep(base.v, idx.v);
      return {p, CType::intTy(base.t.bits, base.t.isSigned)};
    }
    case ExprKind::Unary:
      if (e.unOp == UnOp::Deref) {
        RV p = lowerExpr(*e.a);
        if (!p.t.isPtr()) {
          error(e.loc, "dereference of a non-pointer");
          return {};
        }
        return {p.v, CType::intTy(p.t.bits, p.t.isSigned)};
      }
      break;
    default:
      break;
  }
  error(e.loc, "expression is not assignable");
  return {};
}

Lowerer::RV Lowerer::lowerBinary(const Expr& e) {
  if (e.binOp == BinOp::LogAnd || e.binOp == BinOp::LogOr) return lowerShortCircuit(e);

  RV a = lowerExpr(*e.a);
  RV v = lowerExpr(*e.b);

  // Pointer arithmetic: ptr +/- int scales by the element size via gep.
  if ((e.binOp == BinOp::Add || e.binOp == BinOp::Sub) && (a.t.isPtr() || v.t.isPtr())) {
    if (a.t.isPtr() && v.t.isPtr()) {
      error(e.loc, "pointer - pointer is not supported");
      return {m_.i32Const(0), CType::intTy(32, true)};
    }
    RV p = a.t.isPtr() ? a : v;
    RV i = promote(a.t.isPtr() ? v : a);
    Value* idx = i.v;
    if (e.binOp == BinOp::Sub) idx = b_.sub(m_.i32Const(0), idx);
    return {b_.gep(p.v, idx), p.t};
  }

  // Pointer comparisons.
  if (a.t.isPtr() && v.t.isPtr()) {
    Opcode pred;
    switch (e.binOp) {
      case BinOp::Eq: pred = Opcode::CmpEQ; break;
      case BinOp::Ne: pred = Opcode::CmpNE; break;
      case BinOp::Lt: pred = Opcode::CmpULT; break;
      case BinOp::Le: pred = Opcode::CmpULE; break;
      case BinOp::Gt: pred = Opcode::CmpUGT; break;
      case BinOp::Ge: pred = Opcode::CmpUGE; break;
      default:
        error(e.loc, "invalid operation on pointers");
        return {m_.i32Const(0), CType::intTy(32, true)};
    }
    RV v2 = convert(v, a.t, e.loc);
    Value* c = b_.cmp(pred, a.v, v2.v);
    return {b_.castTo(Opcode::ZExt, c, m_.types().i32()), CType::intTy(32, true)};
  }

  a = promote(a);
  v = promote(v);
  if (a.t.isPtr() || v.t.isPtr()) {
    error(e.loc, "invalid mixed pointer/integer operation");
    return {m_.i32Const(0), CType::intTy(32, true)};
  }
  const IntBinaryOp bin = intBinaryOp(e.binOp, a.t.isSigned, v.t.isSigned);
  if (bin.isCmp) {
    Value* c = b_.cmp(bin.op, a.v, v.v);
    return {b_.castTo(Opcode::ZExt, c, m_.types().i32()), CType::intTy(32, true)};
  }
  return {b_.binary(bin.op, a.v, v.v), CType::intTy(32, bin.isSigned)};
}

Lowerer::RV Lowerer::lowerShortCircuit(const Expr& e) {
  Value* c = lowerCond(e);
  return {b_.castTo(Opcode::ZExt, c, m_.types().i32()), CType::intTy(32, true)};
}

Lowerer::RV Lowerer::lowerAssign(const Expr& e) {
  LV lv = lowerLValue(*e.a);
  if (!lv.addr) return {m_.i32Const(0), CType::intTy(32, true)};
  RV rhs;
  if (e.hasBinOp) {
    // Compound assignment: materialize `lhs op rhs` with promotion.
    RV old = promote(loadLV(lv));
    RV r = lowerExpr(*e.b);
    if (lv.t.isPtr()) {
      if (e.binOp == BinOp::Add || e.binOp == BinOp::Sub) {
        RV i = promote(r);
        Value* idx = i.v;
        if (e.binOp == BinOp::Sub) idx = b_.sub(m_.i32Const(0), idx);
        RV oldPtr = loadLV(lv);
        rhs = {b_.gep(oldPtr.v, idx), lv.t};
      } else {
        error(e.loc, "invalid compound assignment on a pointer");
        return {m_.i32Const(0), CType::intTy(32, true)};
      }
    } else {
      r = promote(r);
      bool isUnsigned = !old.t.isSigned || !r.t.isSigned;
      Opcode op;
      switch (e.binOp) {
        case BinOp::Add: op = Opcode::Add; break;
        case BinOp::Sub: op = Opcode::Sub; break;
        case BinOp::Mul: op = Opcode::Mul; break;
        case BinOp::Div: op = isUnsigned || !lv.t.isSigned ? Opcode::UDiv : Opcode::SDiv; break;
        case BinOp::Rem: op = isUnsigned || !lv.t.isSigned ? Opcode::URem : Opcode::SRem; break;
        case BinOp::And: op = Opcode::And; break;
        case BinOp::Or: op = Opcode::Or; break;
        case BinOp::Xor: op = Opcode::Xor; break;
        case BinOp::Shl: op = Opcode::Shl; break;
        case BinOp::Shr: op = lv.t.isSigned ? Opcode::AShr : Opcode::LShr; break;
        default:
          error(e.loc, "unsupported compound assignment");
          return {m_.i32Const(0), CType::intTy(32, true)};
      }
      rhs = {b_.binary(op, old.v, r.v), CType::intTy(32, !isUnsigned)};
    }
  } else {
    rhs = lowerExpr(*e.b);
  }
  storeLV(lv, rhs, e.loc);
  // The value of the assignment is the stored value at the lvalue's type.
  return lv.t.isPtr() ? convert(rhs, lv.t, e.loc) : convert(rhs, lv.t, e.loc);
}

Lowerer::RV Lowerer::lowerCondExpr(const Expr& e) {
  Value* c = lowerCond(*e.a);
  BasicBlock* thenBB = newBlock("cond.then");
  BasicBlock* elseBB = newBlock("cond.else");
  BasicBlock* endBB = newBlock("cond.end");
  b_.condBr(c, thenBB, elseBB);
  b_.setInsertPoint(thenBB);
  RV tv = lowerExpr(*e.b);
  if (tv.t.isInt()) tv = promote(tv);
  BasicBlock* thenExit = b_.block();
  b_.setInsertPoint(elseBB);
  RV fv = lowerExpr(*e.c);
  if (fv.t.isInt()) fv = promote(fv);
  BasicBlock* elseExit = b_.block();
  // Unify types (pointer vs int mismatches are errors).
  CType rt = tv.t;
  if (!tv.t.sameAs(fv.t)) {
    if (tv.t.isInt() && fv.t.isInt()) {
      rt = CType::intTy(32, tv.t.isSigned && fv.t.isSigned);
    } else if (tv.t.isPtr() && fv.t.isPtr()) {
      b_.setInsertPoint(elseExit);
      fv = convert(fv, tv.t, e.loc);
      elseExit = b_.block();
      rt = tv.t;
    } else {
      error(e.loc, "incompatible arms in conditional expression");
    }
  }
  IRBuilder tb(m_);
  tb.setInsertPoint(thenExit);
  tb.br(endBB);
  tb.setInsertPoint(elseExit);
  tb.br(endBB);
  b_.setInsertPoint(endBB);
  Instruction* phi = b_.phi(irType(rt));
  phi->addIncoming(tv.v, thenExit);
  phi->addIncoming(fv.v, elseExit);
  b_.setInsertPoint(endBB);
  return {phi, rt};
}

Lowerer::RV Lowerer::lowerCall(const Expr& e) {
  auto it = funcDecls_.find(e.name);
  if (it == funcDecls_.end()) {
    error(e.loc, "call to undeclared function '" + e.name + "'");
    return {m_.i32Const(0), CType::intTy(32, true)};
  }
  const FunctionDecl* fd = it->second;
  Function* callee = m_.findFunction(e.name);
  if (e.args.size() != fd->params.size()) {
    error(e.loc, "wrong number of arguments to '" + e.name + "'");
    return {m_.i32Const(0), CType::intTy(32, true)};
  }
  std::vector<Value*> args;
  for (size_t i = 0; i < e.args.size(); ++i) {
    RV v = lowerExpr(*e.args[i]);
    RV c = convert(v, fd->params[i].type.decayed(), e.loc);
    args.push_back(c.v);
  }
  Instruction* inst = m_.createInstruction(Opcode::Call, callee->retType());
  for (Value* a : args) inst->addOperand(a);
  inst->setCallee(callee);
  Instruction* call = b_.block()->insert(b_.block()->end(), inst);
  b_.setInsertPoint(b_.block());
  if (fd->retType.isVoid()) return {nullptr, CType::voidTy()};
  return {call, fd->retType};
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

bool Lowerer::run(const TranslationUnit& tu) {
  for (const auto& g : tu.globals) declareGlobal(g);
  for (const auto& f : tu.functions) declareFunction(*f);
  for (const auto& f : tu.functions)
    if (f->body) lowerFunctionBody(*f);
  return !diag_.hasErrors();
}

bool compileC(const std::string& source, Module& m, DiagEngine& diag, CompileTimes* times,
              const ResourceLimits* limits) {
  const ResourceLimits lim = limits ? *limits : ResourceLimits{};
  StageSpan parseSpan("parse");
  Lexer lexer(source, diag, &lim);
  std::vector<Token> toks = lexer.tokenize();
  if (diag.hasErrors()) return false;
  Parser parser(std::move(toks), diag, &lim);
  TranslationUnit tu = parser.parse();
  const double parseMs = parseSpan.closeMs();
  if (times) times->parseMs = parseMs;
  if (diag.hasErrors()) return false;
  StageSpan lowerSpan("lower");
  Lowerer lower(m, diag);
  bool ok = lower.run(tu);
  const double lowerMs = lowerSpan.closeMs();
  if (times) times->lowerMs = lowerMs;
  if (ok && m.instructionCount() > lim.maxIrInstructions) {
    diag.resourceError({}, "lowered module exceeds the resource limit of " +
                               std::to_string(lim.maxIrInstructions) + " IR instructions (" +
                               std::to_string(m.instructionCount()) + ")");
    return false;
  }
  return ok;
}

}  // namespace twill
