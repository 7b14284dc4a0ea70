// Recursive-descent parser for the C subset.
#pragma once

#include <memory>

#include "src/frontend/ast.h"
#include "src/support/limits.h"

namespace twill {

class Parser {
public:
  /// `limits` bounds recursion depth and (approximately) AST size so
  /// adversarial nesting cannot overflow the native stack in the parser or
  /// any recursive AST walk downstream; null means ResourceLimits defaults.
  Parser(std::vector<Token> tokens, DiagEngine& diag, const ResourceLimits* limits = nullptr)
      : toks_(std::move(tokens)), diag_(diag), limits_(limits ? *limits : ResourceLimits{}) {}

  /// Parses a whole translation unit. On errors, returns what was parsed;
  /// callers must check diag.hasErrors().
  TranslationUnit parse();

private:
  // Token stream helpers.
  const Token& peek(int off = 0) const;
  const Token& cur() const { return peek(0); }
  Token advance();
  bool check(Tok k) const { return cur().kind == k; }
  bool accept(Tok k);
  Token expect(Tok k, const char* what);
  void error(const std::string& msg);

  // Types.
  bool startsType() const;
  /// Parses a declaration-specifier + optional '*'. `isConst` out-param.
  CType parseTypeSpec(bool* isConst = nullptr);

  // Top level.
  void parseTopLevel(TranslationUnit& tu);
  void parseGlobal(TranslationUnit& tu, CType base, bool isConst, std::string name, SourceLoc loc);
  std::unique_ptr<FunctionDecl> parseFunction(CType retType, std::string name, SourceLoc loc);

  // Statements.
  StmtPtr parseStmt();
  StmtPtr parseCompound();
  StmtPtr parseDeclStmt();

  // Expressions (precedence climbing).
  ExprPtr parseExpr();            // includes comma operator
  ExprPtr parseAssign();
  ExprPtr parseCond();
  ExprPtr parseBinary(int minPrec);
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();

  /// A folded constant expression: its 32-bit value and its C type (an
  /// integer type).
  struct Folded {
    uint32_t value;
    CType type;
  };
  /// Evaluates a constant expression (literals, unary/binary arithmetic,
  /// casts, `?:`) with the semantics lowering gives the same expression at
  /// run time; reports an error and returns 0 if not constant.
  Folded evalConstExpr(const Expr& e);
  ExprPtr parseConstExprNode() { return parseCond(); }

  /// RAII depth/node accounting for the recursive-descent entry points
  /// (parseStmt, parseCond, parseUnary — the only self-recursive paths).
  /// Node counting is approximate (one per entry), which is proportional to
  /// real AST size; the exact blow-up vector (macro amplification) is
  /// already bounded by the lexer's token cap.
  struct DepthScope {
    Parser& p;
    explicit DepthScope(Parser& parser) : p(parser) {
      ++p.depth_;
      ++p.nodeCount_;
    }
    ~DepthScope() { --p.depth_; }
  };
  /// True when a resource limit is (or was) breached. The first breach
  /// emits one diagnostic and fast-forwards to the End token, so every
  /// parse loop unwinds without further recursion.
  bool atLimit();
  ExprPtr zeroExpr(SourceLoc loc);

  std::vector<Token> toks_;
  size_t pos_ = 0;
  DiagEngine& diag_;
  ResourceLimits limits_;
  uint32_t depth_ = 0;
  uint64_t nodeCount_ = 0;
  bool limitHit_ = false;
};

}  // namespace twill
