#include "src/frontend/parser.h"

#include <cassert>

#include "src/ir/eval.h"

namespace twill {

std::string CType::str() const {
  switch (k) {
    case K::Void: return "void";
    case K::Int: return (isSigned ? "i" : "u") + std::to_string(bits);
    case K::Ptr: return (isSigned ? "i" : "u") + std::to_string(bits) + "*";
    case K::Array:
      return (isSigned ? "i" : "u") + std::to_string(bits) + "[" + std::to_string(count) + "]";
  }
  return "?";
}

IntBinaryOp intBinaryOp(BinOp op, bool lhsSigned, bool rhsSigned) {
  const bool isUnsigned = !lhsSigned || !rhsSigned;
  auto arith = [&](Opcode o) { return IntBinaryOp{o, false, !isUnsigned}; };
  auto cmp = [](Opcode o) { return IntBinaryOp{o, true, true}; };
  switch (op) {
    case BinOp::Add: return arith(Opcode::Add);
    case BinOp::Sub: return arith(Opcode::Sub);
    case BinOp::Mul: return arith(Opcode::Mul);
    case BinOp::Div: return arith(isUnsigned ? Opcode::UDiv : Opcode::SDiv);
    case BinOp::Rem: return arith(isUnsigned ? Opcode::URem : Opcode::SRem);
    case BinOp::And: return arith(Opcode::And);
    case BinOp::Or: return arith(Opcode::Or);
    case BinOp::Xor: return arith(Opcode::Xor);
    case BinOp::Shl: return arith(Opcode::Shl);
    case BinOp::Shr: return arith(lhsSigned ? Opcode::AShr : Opcode::LShr);
    case BinOp::Lt: return cmp(isUnsigned ? Opcode::CmpULT : Opcode::CmpSLT);
    case BinOp::Le: return cmp(isUnsigned ? Opcode::CmpULE : Opcode::CmpSLE);
    case BinOp::Gt: return cmp(isUnsigned ? Opcode::CmpUGT : Opcode::CmpSGT);
    case BinOp::Ge: return cmp(isUnsigned ? Opcode::CmpUGE : Opcode::CmpSGE);
    case BinOp::Eq: return cmp(Opcode::CmpEQ);
    case BinOp::Ne: return cmp(Opcode::CmpNE);
    case BinOp::LogAnd:
    case BinOp::LogOr: break;
  }
  assert(false && "&& and || short-circuit; they have no single operation");
  return arith(Opcode::Add);
}

const Token& Parser::peek(int off) const {
  size_t p = pos_ + static_cast<size_t>(off);
  if (p >= toks_.size()) p = toks_.size() - 1;  // End token
  return toks_[p];
}

Token Parser::advance() {
  Token t = cur();
  if (pos_ + 1 < toks_.size()) ++pos_;
  return t;
}

bool Parser::accept(Tok k) {
  if (check(k)) {
    advance();
    return true;
  }
  return false;
}

Token Parser::expect(Tok k, const char* what) {
  if (check(k)) return advance();
  error(std::string("expected ") + what + " but found " + tokName(cur().kind) +
        (cur().kind == Tok::Ident ? " '" + cur().text + "'" : ""));
  return cur();
}

void Parser::error(const std::string& msg) { diag_.error(cur().loc, msg); }

bool Parser::atLimit() {
  if (limitHit_) return true;
  if (depth_ <= limits_.maxNestingDepth && nodeCount_ <= limits_.maxAstNodes) return false;
  if (depth_ > limits_.maxNestingDepth)
    diag_.resourceError(cur().loc, "nesting exceeds the resource limit of " +
                                       std::to_string(limits_.maxNestingDepth) + " levels");
  else
    diag_.resourceError(cur().loc, "AST size exceeds the resource limit of " +
                                       std::to_string(limits_.maxAstNodes) + " nodes");
  limitHit_ = true;
  pos_ = toks_.size() - 1;  // jump to End; every parse loop terminates there
  return true;
}

ExprPtr Parser::zeroExpr(SourceLoc loc) {
  auto node = std::make_unique<Expr>(ExprKind::IntLit, loc);
  node->intValue = 0;
  return node;
}

void Parser::synchronizeToSemi() {
  while (!check(Tok::End) && !check(Tok::Semi) && !check(Tok::RBrace)) advance();
  accept(Tok::Semi);
}

// --- Types ---------------------------------------------------------------------

bool Parser::startsType() const {
  switch (cur().kind) {
    case Tok::KwVoid:
    case Tok::KwChar:
    case Tok::KwShort:
    case Tok::KwInt:
    case Tok::KwLong:
    case Tok::KwSigned:
    case Tok::KwUnsigned:
    case Tok::KwConst:
    case Tok::KwStatic:
      return true;
    default:
      return false;
  }
}

CType Parser::parseTypeSpec(bool* isConst) {
  bool constQual = false;
  bool sawUnsigned = false;
  bool sawSigned = false;
  int width = -1;  // -1 = unset; encoded as bit count
  bool isVoid = false;
  bool any = true;
  while (any) {
    switch (cur().kind) {
      case Tok::KwConst: constQual = true; advance(); break;
      case Tok::KwStatic: advance(); break;  // accepted and ignored (file-scope model)
      case Tok::KwUnsigned: sawUnsigned = true; advance(); break;
      case Tok::KwSigned: sawSigned = true; advance(); break;
      case Tok::KwVoid: isVoid = true; advance(); break;
      case Tok::KwChar: width = 8; advance(); break;
      case Tok::KwShort:
        width = 16;
        advance();
        accept(Tok::KwInt);
        break;
      case Tok::KwLong:
        width = 32;
        advance();
        accept(Tok::KwLong);  // "long long" is an error on this 32-bit target
        accept(Tok::KwInt);
        break;
      case Tok::KwInt: width = 32; advance(); break;
      default: any = false; break;
    }
  }
  (void)sawSigned;
  if (isConst) *isConst = constQual;
  CType t;
  if (isVoid) {
    t = CType::voidTy();
  } else {
    if (width < 0) width = 32;  // bare unsigned/signed
    t = CType::intTy(static_cast<unsigned>(width), !sawUnsigned);
  }
  if (accept(Tok::Star)) {
    if (t.isVoid()) {
      error("void* is not supported");
      t = CType::intTy(32, true);
    }
    if (accept(Tok::Star)) error("pointer-to-pointer is not supported");
    t = CType::ptrTo(t.bits, t.isSigned);
  }
  return t;
}

// --- Constant expressions --------------------------------------------------------

Parser::Folded Parser::evalConstExpr(const Expr& e) {
  const CType kInt = CType::intTy(32, true);
  // Integer promotion, as Lowerer::promote: narrower ints widen to int.
  auto promote = [&](Folded x) -> Folded {
    if (x.type.bits >= 32) return x;
    return {evalCast(x.type.isSigned ? Opcode::SExt : Opcode::ZExt, x.value, x.type.bits, 32),
            kInt};
  };
  switch (e.kind) {
    case ExprKind::IntLit:
      return {static_cast<uint32_t>(e.intValue), CType::intTy(32, !e.isUnsignedLit)};
    case ExprKind::Unary: {
      const Folded v = promote(evalConstExpr(*e.a));
      switch (e.unOp) {
        case UnOp::Neg: return {evalBinary(Opcode::Sub, 0, v.value, 32), v.type};
        case UnOp::BitNot: return {evalBinary(Opcode::Xor, v.value, ~0u, 32), v.type};
        case UnOp::Not: return {v.value == 0, kInt};
        case UnOp::Plus: return v;
        default: break;
      }
      break;
    }
    case ExprKind::Binary: {
      const Folded a = promote(evalConstExpr(*e.a));
      const Folded b = promote(evalConstExpr(*e.b));
      if (e.binOp == BinOp::LogAnd) return {a.value && b.value, kInt};
      if (e.binOp == BinOp::LogOr) return {a.value || b.value, kInt};
      const IntBinaryOp bin = intBinaryOp(e.binOp, a.type.isSigned, b.type.isSigned);
      if (bin.isCmp) return {evalCompare(bin.op, a.value, b.value, 32), kInt};
      return {evalBinary(bin.op, a.value, b.value, 32), CType::intTy(32, bin.isSigned)};
    }
    case ExprKind::Cond: {
      // As Lowerer::lowerCondExpr: both arms promoted, unsigned if either is.
      const Folded c = evalConstExpr(*e.a);
      const Folded t = promote(evalConstExpr(*e.b));
      const Folded f = promote(evalConstExpr(*e.c));
      return {c.value ? t.value : f.value, CType::intTy(32, t.type.isSigned && f.type.isSigned)};
    }
    case ExprKind::Cast: {
      // As Lowerer::convert; a pointer is a 32-bit unsigned address.
      const Folded v = evalConstExpr(*e.a);
      const CType& to = e.castType;
      if (!to.isInt()) return {v.value, CType::intTy(32, false)};
      if (to.bits < v.type.bits) return {evalCast(Opcode::Trunc, v.value, v.type.bits, to.bits), to};
      const Opcode ext = v.type.isSigned ? Opcode::SExt : Opcode::ZExt;
      return {evalCast(ext, v.value, v.type.bits, to.bits), to};
    }
    default:
      break;
  }
  diag_.error(e.loc, "expression is not a compile-time constant");
  return {0, kInt};
}

// --- Top level -------------------------------------------------------------------

TranslationUnit Parser::parse() {
  TranslationUnit tu;
  while (!check(Tok::End)) {
    if (!startsType()) {
      error("expected a declaration");
      advance();
      continue;
    }
    parseTopLevel(tu);
  }
  return tu;
}

void Parser::parseTopLevel(TranslationUnit& tu) {
  bool isConst = false;
  CType base = parseTypeSpec(&isConst);
  Token nameTok = expect(Tok::Ident, "a declaration name");
  if (check(Tok::LParen)) {
    tu.functions.push_back(parseFunction(base, nameTok.text, nameTok.loc));
    return;
  }
  parseGlobal(tu, base, isConst, nameTok.text, nameTok.loc);
}

void Parser::parseGlobal(TranslationUnit& tu, CType base, bool isConst, std::string name,
                         SourceLoc loc) {
  for (;;) {
    GlobalDecl g;
    g.name = std::move(name);
    g.isConst = isConst;
    g.loc = loc;
    g.type = base;
    if (accept(Tok::LBracket)) {
      if (base.isPtr()) error("array of pointers is not supported");
      uint32_t n = 0;
      if (!check(Tok::RBracket)) {
        ExprPtr sz = parseConstExprNode();
        n = evalConstExpr(*sz).value;
      }
      expect(Tok::RBracket, "']'");
      g.type = CType::arrayOf(base.bits, base.isSigned, n);
    }
    if (accept(Tok::Assign)) {
      if (accept(Tok::LBrace)) {
        if (!g.type.isArray()) error("brace initializer on a non-array global");
        std::vector<uint32_t> vals;
        if (!check(Tok::RBrace)) {
          do {
            ExprPtr e = parseConstExprNode();
            vals.push_back(evalConstExpr(*e).value);
          } while (accept(Tok::Comma) && !check(Tok::RBrace));
        }
        expect(Tok::RBrace, "'}'");
        if (g.type.count == 0) g.type.count = static_cast<uint32_t>(vals.size());
        if (vals.size() > g.type.count) error("too many initializers for global array");
        g.init = std::move(vals);
      } else {
        ExprPtr e = parseConstExprNode();
        g.init.push_back(evalConstExpr(*e).value);
      }
    }
    if (g.type.isArray() && g.type.count == 0) error("global array needs a size or initializer");
    if (g.type.isVoid()) error("global of type void");
    tu.globals.push_back(std::move(g));
    if (accept(Tok::Comma)) {
      Token nt = expect(Tok::Ident, "a declaration name");
      name = nt.text;
      loc = nt.loc;
      continue;
    }
    expect(Tok::Semi, "';'");
    return;
  }
}

std::unique_ptr<FunctionDecl> Parser::parseFunction(CType retType, std::string name,
                                                    SourceLoc loc) {
  auto fn = std::make_unique<FunctionDecl>();
  fn->name = std::move(name);
  fn->retType = retType;
  fn->loc = loc;
  expect(Tok::LParen, "'('");
  if (!check(Tok::RParen)) {
    if (check(Tok::KwVoid) && peek(1).kind == Tok::RParen) {
      advance();  // (void)
    } else {
      do {
        ParamDecl p;
        p.type = parseTypeSpec();
        if (p.type.isVoid()) error("parameter of type void");
        Token nt = expect(Tok::Ident, "a parameter name");
        p.name = nt.text;
        p.loc = nt.loc;
        if (accept(Tok::LBracket)) {
          // `int a[]` / `int a[N]` parameters decay to pointers.
          if (!check(Tok::RBracket)) {
            ExprPtr sz = parseConstExprNode();
            (void)evalConstExpr(*sz);
          }
          expect(Tok::RBracket, "']'");
          p.type = CType::ptrTo(p.type.bits, p.type.isSigned);
        }
        fn->params.push_back(std::move(p));
      } while (accept(Tok::Comma));
    }
  }
  expect(Tok::RParen, "')'");
  if (accept(Tok::Semi)) return fn;  // prototype
  fn->body = parseCompound();
  return fn;
}

// --- Statements -------------------------------------------------------------------

StmtPtr Parser::parseCompound() {
  auto s = std::make_unique<Stmt>(StmtKind::Compound, cur().loc);
  expect(Tok::LBrace, "'{'");
  while (!check(Tok::RBrace) && !check(Tok::End)) s->body.push_back(parseStmt());
  expect(Tok::RBrace, "'}'");
  return s;
}

StmtPtr Parser::parseDeclStmt() {
  auto s = std::make_unique<Stmt>(StmtKind::Decl, cur().loc);
  bool isConst = false;
  CType base = parseTypeSpec(&isConst);
  (void)isConst;  // const locals are just locals
  do {
    Declarator d;
    // Each declarator may carry its own '*'.
    CType t = base;
    if (accept(Tok::Star)) {
      if (t.isPtr()) error("pointer-to-pointer is not supported");
      t = CType::ptrTo(t.bits, t.isSigned);
    }
    Token nt = expect(Tok::Ident, "a variable name");
    d.name = nt.text;
    d.loc = nt.loc;
    d.type = t;
    if (accept(Tok::LBracket)) {
      if (t.isPtr()) error("array of pointers is not supported");
      uint32_t n = 0;
      if (!check(Tok::RBracket)) {
        ExprPtr sz = parseConstExprNode();
        n = evalConstExpr(*sz).value;
      }
      expect(Tok::RBracket, "']'");
      d.type = CType::arrayOf(t.bits, t.isSigned, n);
    }
    if (accept(Tok::Assign)) {
      if (accept(Tok::LBrace)) {
        d.hasInitList = true;
        if (!check(Tok::RBrace)) {
          do {
            d.initList.push_back(parseAssign());
          } while (accept(Tok::Comma) && !check(Tok::RBrace));
        }
        expect(Tok::RBrace, "'}'");
        if (d.type.isArray() && d.type.count == 0)
          d.type.count = static_cast<uint32_t>(d.initList.size());
      } else {
        d.init = parseAssign();
      }
    }
    if (d.type.isArray() && d.type.count == 0)
      diag_.error(d.loc, "local array needs a size or initializer");
    s->decls.push_back(std::move(d));
  } while (accept(Tok::Comma));
  expect(Tok::Semi, "';'");
  return s;
}

StmtPtr Parser::parseStmt() {
  SourceLoc loc = cur().loc;
  DepthScope scope(*this);
  if (atLimit()) return std::make_unique<Stmt>(StmtKind::Empty, loc);
  switch (cur().kind) {
    case Tok::LBrace:
      return parseCompound();
    case Tok::Semi: {
      advance();
      return std::make_unique<Stmt>(StmtKind::Empty, loc);
    }
    case Tok::KwIf: {
      advance();
      auto s = std::make_unique<Stmt>(StmtKind::If, loc);
      expect(Tok::LParen, "'('");
      s->cond = parseExpr();
      expect(Tok::RParen, "')'");
      s->thenS = parseStmt();
      if (accept(Tok::KwElse)) s->elseS = parseStmt();
      return s;
    }
    case Tok::KwWhile: {
      advance();
      auto s = std::make_unique<Stmt>(StmtKind::While, loc);
      expect(Tok::LParen, "'('");
      s->cond = parseExpr();
      expect(Tok::RParen, "')'");
      s->thenS = parseStmt();
      return s;
    }
    case Tok::KwDo: {
      advance();
      auto s = std::make_unique<Stmt>(StmtKind::DoWhile, loc);
      s->thenS = parseStmt();
      expect(Tok::KwWhile, "'while'");
      expect(Tok::LParen, "'('");
      s->cond = parseExpr();
      expect(Tok::RParen, "')'");
      expect(Tok::Semi, "';'");
      return s;
    }
    case Tok::KwFor: {
      advance();
      auto s = std::make_unique<Stmt>(StmtKind::For, loc);
      expect(Tok::LParen, "'('");
      if (!check(Tok::Semi)) {
        if (startsType()) {
          s->declStmt = parseDeclStmt();  // consumes ';'
        } else {
          s->init = parseExpr();
          expect(Tok::Semi, "';'");
        }
      } else {
        advance();
      }
      if (!check(Tok::Semi)) s->cond = parseExpr();
      expect(Tok::Semi, "';'");
      if (!check(Tok::RParen)) s->step = parseExpr();
      expect(Tok::RParen, "')'");
      s->thenS = parseStmt();
      return s;
    }
    case Tok::KwReturn: {
      advance();
      auto s = std::make_unique<Stmt>(StmtKind::Return, loc);
      if (!check(Tok::Semi)) s->cond = parseExpr();
      expect(Tok::Semi, "';'");
      return s;
    }
    case Tok::KwBreak: {
      advance();
      expect(Tok::Semi, "';'");
      return std::make_unique<Stmt>(StmtKind::Break, loc);
    }
    case Tok::KwContinue: {
      advance();
      expect(Tok::Semi, "';'");
      return std::make_unique<Stmt>(StmtKind::Continue, loc);
    }
    case Tok::KwSwitch: {
      advance();
      auto s = std::make_unique<Stmt>(StmtKind::Switch, loc);
      expect(Tok::LParen, "'('");
      s->cond = parseExpr();
      expect(Tok::RParen, "')'");
      s->thenS = parseCompound();
      return s;
    }
    case Tok::KwCase: {
      advance();
      auto s = std::make_unique<Stmt>(StmtKind::Case, loc);
      s->caseValue = evalConstExpr(*parseConstExprNode()).value;
      expect(Tok::Colon, "':'");
      // The labeled statement is parsed as a sibling in the switch body.
      return s;
    }
    case Tok::KwDefault: {
      advance();
      expect(Tok::Colon, "':'");
      return std::make_unique<Stmt>(StmtKind::Default, loc);
    }
    default:
      break;
  }
  if (startsType()) return parseDeclStmt();
  auto s = std::make_unique<Stmt>(StmtKind::ExprStmt, loc);
  s->cond = parseExpr();
  expect(Tok::Semi, "';'");
  return s;
}

// --- Expressions --------------------------------------------------------------------

ExprPtr Parser::parseExpr() {
  ExprPtr e = parseAssign();
  while (check(Tok::Comma)) {
    SourceLoc loc = advance().loc;
    auto node = std::make_unique<Expr>(ExprKind::Comma, loc);
    node->a = std::move(e);
    node->b = parseAssign();
    e = std::move(node);
  }
  return e;
}

ExprPtr Parser::parseAssign() {
  ExprPtr lhs = parseCond();
  auto makeAssign = [&](bool compound, BinOp op) {
    SourceLoc loc = advance().loc;
    auto node = std::make_unique<Expr>(ExprKind::Assign, loc);
    node->hasBinOp = compound;
    node->binOp = op;
    node->a = std::move(lhs);
    node->b = parseAssign();  // right-associative
    return node;
  };
  switch (cur().kind) {
    case Tok::Assign: return makeAssign(false, BinOp::Add);
    case Tok::PlusAssign: return makeAssign(true, BinOp::Add);
    case Tok::MinusAssign: return makeAssign(true, BinOp::Sub);
    case Tok::StarAssign: return makeAssign(true, BinOp::Mul);
    case Tok::SlashAssign: return makeAssign(true, BinOp::Div);
    case Tok::PercentAssign: return makeAssign(true, BinOp::Rem);
    case Tok::AmpAssign: return makeAssign(true, BinOp::And);
    case Tok::PipeAssign: return makeAssign(true, BinOp::Or);
    case Tok::CaretAssign: return makeAssign(true, BinOp::Xor);
    case Tok::ShlAssign: return makeAssign(true, BinOp::Shl);
    case Tok::ShrAssign: return makeAssign(true, BinOp::Shr);
    default: return lhs;
  }
}

ExprPtr Parser::parseCond() {
  DepthScope scope(*this);
  if (atLimit()) return zeroExpr(cur().loc);
  ExprPtr c = parseBinary(0);
  if (!check(Tok::Question)) return c;
  SourceLoc loc = advance().loc;
  auto node = std::make_unique<Expr>(ExprKind::Cond, loc);
  node->a = std::move(c);
  node->b = parseExpr();
  expect(Tok::Colon, "':'");
  node->c = parseCond();
  return node;
}

namespace {
struct BinInfo {
  int prec;
  BinOp op;
};
// C precedence table (higher binds tighter).
bool binaryInfo(Tok t, BinInfo& out) {
  switch (t) {
    case Tok::PipePipe: out = {1, BinOp::LogOr}; return true;
    case Tok::AmpAmp: out = {2, BinOp::LogAnd}; return true;
    case Tok::Pipe: out = {3, BinOp::Or}; return true;
    case Tok::Caret: out = {4, BinOp::Xor}; return true;
    case Tok::Amp: out = {5, BinOp::And}; return true;
    case Tok::EqEq: out = {6, BinOp::Eq}; return true;
    case Tok::NotEq: out = {6, BinOp::Ne}; return true;
    case Tok::Lt: out = {7, BinOp::Lt}; return true;
    case Tok::Le: out = {7, BinOp::Le}; return true;
    case Tok::Gt: out = {7, BinOp::Gt}; return true;
    case Tok::Ge: out = {7, BinOp::Ge}; return true;
    case Tok::Shl: out = {8, BinOp::Shl}; return true;
    case Tok::Shr: out = {8, BinOp::Shr}; return true;
    case Tok::Plus: out = {9, BinOp::Add}; return true;
    case Tok::Minus: out = {9, BinOp::Sub}; return true;
    case Tok::Star: out = {10, BinOp::Mul}; return true;
    case Tok::Slash: out = {10, BinOp::Div}; return true;
    case Tok::Percent: out = {10, BinOp::Rem}; return true;
    default: return false;
  }
}
}  // namespace

ExprPtr Parser::parseBinary(int minPrec) {
  ExprPtr lhs = parseUnary();
  for (;;) {
    BinInfo info;
    if (!binaryInfo(cur().kind, info) || info.prec < minPrec) return lhs;
    SourceLoc loc = advance().loc;
    ExprPtr rhs = parseBinary(info.prec + 1);
    auto node = std::make_unique<Expr>(ExprKind::Binary, loc);
    node->binOp = info.op;
    node->a = std::move(lhs);
    node->b = std::move(rhs);
    lhs = std::move(node);
  }
}

ExprPtr Parser::parseUnary() {
  SourceLoc loc = cur().loc;
  DepthScope scope(*this);
  if (atLimit()) return zeroExpr(loc);
  auto mk = [&](UnOp op) {
    advance();
    auto node = std::make_unique<Expr>(ExprKind::Unary, loc);
    node->unOp = op;
    node->a = parseUnary();
    return node;
  };
  switch (cur().kind) {
    case Tok::Bang: return mk(UnOp::Not);
    case Tok::Tilde: return mk(UnOp::BitNot);
    case Tok::Minus: return mk(UnOp::Neg);
    case Tok::Plus: return mk(UnOp::Plus);
    case Tok::Star: return mk(UnOp::Deref);
    case Tok::Amp: return mk(UnOp::AddrOf);
    case Tok::PlusPlus: return mk(UnOp::PreInc);
    case Tok::MinusMinus: return mk(UnOp::PreDec);
    case Tok::LParen: {
      // Cast or parenthesized expression: lookahead for a type keyword.
      bool nextIsType = false;
      switch (peek(1).kind) {
        case Tok::KwVoid: case Tok::KwChar: case Tok::KwShort: case Tok::KwInt:
        case Tok::KwLong: case Tok::KwSigned: case Tok::KwUnsigned: case Tok::KwConst:
          nextIsType = true;
          break;
        default:
          break;
      }
      if (nextIsType) {
        advance();  // '('
        CType t = parseTypeSpec();
        expect(Tok::RParen, "')'");
        auto node = std::make_unique<Expr>(ExprKind::Cast, loc);
        node->castType = t;
        node->a = parseUnary();
        return node;
      }
      return parsePostfix();
    }
    default:
      return parsePostfix();
  }
}

ExprPtr Parser::parsePostfix() {
  ExprPtr e = parsePrimary();
  for (;;) {
    SourceLoc loc = cur().loc;
    if (accept(Tok::LBracket)) {
      auto node = std::make_unique<Expr>(ExprKind::Index, loc);
      node->a = std::move(e);
      node->b = parseExpr();
      expect(Tok::RBracket, "']'");
      e = std::move(node);
    } else if (check(Tok::LParen) && e->kind == ExprKind::Ident) {
      advance();
      auto node = std::make_unique<Expr>(ExprKind::Call, loc);
      node->name = e->name;
      if (!check(Tok::RParen)) {
        do {
          node->args.push_back(parseAssign());
        } while (accept(Tok::Comma));
      }
      expect(Tok::RParen, "')'");
      e = std::move(node);
    } else if (check(Tok::PlusPlus) || check(Tok::MinusMinus)) {
      int delta = check(Tok::PlusPlus) ? 1 : -1;
      advance();
      auto node = std::make_unique<Expr>(ExprKind::PostIncDec, loc);
      node->incDelta = delta;
      node->a = std::move(e);
      e = std::move(node);
    } else {
      return e;
    }
  }
}

ExprPtr Parser::parsePrimary() {
  SourceLoc loc = cur().loc;
  if (check(Tok::IntLit)) {
    Token t = advance();
    auto node = std::make_unique<Expr>(ExprKind::IntLit, loc);
    node->intValue = t.intValue;
    node->isUnsignedLit = t.isUnsignedLit;
    return node;
  }
  if (check(Tok::Ident)) {
    Token t = advance();
    auto node = std::make_unique<Expr>(ExprKind::Ident, loc);
    node->name = t.text;
    return node;
  }
  if (accept(Tok::LParen)) {
    ExprPtr e = parseExpr();
    expect(Tok::RParen, "')'");
    return e;
  }
  error("expected an expression");
  advance();
  auto node = std::make_unique<Expr>(ExprKind::IntLit, loc);
  node->intValue = 0;
  return node;
}

}  // namespace twill
