// Abstract syntax tree for the C subset.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/frontend/token.h"
#include "src/ir/instruction.h"

namespace twill {

/// Frontend-side type: carries signedness, which the signedness-agnostic IR
/// does not (signedness selects opcodes during lowering, as in LLVM).
struct CType {
  enum class K : uint8_t { Void, Int, Ptr, Array };
  K k = K::Int;
  unsigned bits = 32;      // element width for Ptr/Array
  bool isSigned = true;    // element signedness for Ptr/Array
  uint32_t count = 0;      // Array only

  bool isVoid() const { return k == K::Void; }
  bool isInt() const { return k == K::Int; }
  bool isPtr() const { return k == K::Ptr; }
  bool isArray() const { return k == K::Array; }

  static CType voidTy() { return {K::Void, 0, true, 0}; }
  static CType intTy(unsigned bits, bool isSigned) { return {K::Int, bits, isSigned, 0}; }
  static CType ptrTo(unsigned bits, bool isSigned) { return {K::Ptr, bits, isSigned, 0}; }
  static CType arrayOf(unsigned bits, bool isSigned, uint32_t n) {
    return {K::Array, bits, isSigned, n};
  }
  /// Array-to-pointer decay (identity for non-arrays).
  CType decayed() const { return isArray() ? ptrTo(bits, isSigned) : *this; }

  bool sameAs(const CType& o) const {
    return k == o.k && bits == o.bits && isSigned == o.isSigned && count == o.count;
  }
  std::string str() const;
};

// --- Expressions -------------------------------------------------------------

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind : uint8_t {
  IntLit,
  Ident,
  Unary,    // op in unaryOp: ! ~ - + * & ++pre --pre
  Binary,   // op in binOp
  Assign,   // op: '=' or compound (binOp applied before store); lhs is lvalue
  Cond,     // c ? a : b
  Call,
  Index,    // base[index]
  Cast,     // (type)operand
  PostIncDec,  // x++ / x-- ; delta +1/-1
  Comma,
};

enum class UnOp : uint8_t { Not, BitNot, Neg, Plus, Deref, AddrOf, PreInc, PreDec };
enum class BinOp : uint8_t {
  Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr,
  Lt, Le, Gt, Ge, Eq, Ne, LogAnd, LogOr,
};

/// The IR operation of binary operator `op` (not && or ||) on two integer
/// operands already promoted to 32 bits, by C's usual arithmetic conversions
/// at rank 32: unsigned when either operand is unsigned, except that `>>` is
/// arithmetic exactly when its left operand is signed. Lowering and the
/// constant evaluator both pick their operation here.
struct IntBinaryOp {
  Opcode op;
  bool isCmp;     // a comparison: the result is a signed int 0 or 1
  bool isSigned;  // signedness of a non-comparison result
};
IntBinaryOp intBinaryOp(BinOp op, bool lhsSigned, bool rhsSigned);

struct Expr {
  ExprKind kind;
  SourceLoc loc;
  // IntLit
  uint64_t intValue = 0;
  bool isUnsignedLit = false;
  // Ident / Call
  std::string name;
  // Unary / Binary / Assign payloads
  UnOp unOp = UnOp::Plus;
  BinOp binOp = BinOp::Add;
  bool hasBinOp = false;  // Assign: compound assignment applies binOp
  int incDelta = 0;       // PostIncDec
  CType castType;         // Cast
  ExprPtr a, b, c;        // operands
  std::vector<ExprPtr> args;  // Call

  explicit Expr(ExprKind k, SourceLoc l) : kind(k), loc(l) {}
};

// --- Statements ---------------------------------------------------------------

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

enum class StmtKind : uint8_t {
  Compound,
  If,
  While,
  DoWhile,
  For,
  Return,
  Break,
  Continue,
  ExprStmt,
  Decl,
  Switch,
  Case,     // labeled statement inside a switch body
  Default,
  Empty,
};

/// One declarator in a local declaration: `int x = e;` / `int a[4] = {..};`
struct Declarator {
  std::string name;
  CType type;
  ExprPtr init;                   // scalar initializer
  std::vector<ExprPtr> initList;  // array initializer list
  bool hasInitList = false;
  SourceLoc loc;
};

struct Stmt {
  StmtKind kind;
  SourceLoc loc;
  std::vector<StmtPtr> body;  // Compound
  ExprPtr cond;               // If/While/DoWhile/For/Switch/Return/ExprStmt value
  StmtPtr thenS, elseS;       // If; For: thenS = body
  ExprPtr init, step;         // For (init may also be a Decl in declStmt)
  StmtPtr declStmt;           // For init declaration
  std::vector<Declarator> decls;  // Decl
  uint32_t caseValue = 0;     // Case label value, folded by the parser
  StmtPtr inner;              // Case/Default labeled statement (may be null)

  explicit Stmt(StmtKind k, SourceLoc l) : kind(k), loc(l) {}
};

// --- Top level ------------------------------------------------------------------

struct ParamDecl {
  std::string name;
  CType type;
  SourceLoc loc;
};

struct FunctionDecl {
  std::string name;
  CType retType;
  std::vector<ParamDecl> params;
  StmtPtr body;  // null for a prototype
  SourceLoc loc;
};

struct GlobalDecl {
  std::string name;
  CType type;
  bool isConst = false;
  std::vector<uint32_t> init;  // evaluated constant initializer elements
  SourceLoc loc;
};

struct TranslationUnit {
  std::vector<GlobalDecl> globals;
  std::vector<std::unique_ptr<FunctionDecl>> functions;
};

}  // namespace twill
