// Frontend tests: lexer, parser and lowering, checked end-to-end by
// compiling C-subset programs and executing them with the golden interpreter.
#include <gtest/gtest.h>

#include "src/frontend/lexer.h"
#include "src/frontend/lower.h"
#include "src/ir/interp.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"

namespace twill {
namespace {

// Compiles and runs `main()`; fails the test on compile errors.
uint32_t runC(const std::string& src, std::vector<uint32_t> args = {}) {
  Module m;
  DiagEngine diag;
  bool ok = compileC(src, m, diag);
  EXPECT_TRUE(ok) << diag.str();
  if (!ok) return 0xDEADBEEF;
  DiagEngine vdiag;
  EXPECT_TRUE(verifyModule(m, vdiag)) << vdiag.str() << "\n" << printModule(m);
  Interp in(m);
  return in.run("main", std::move(args));
}

// Expects compilation to fail.
void expectError(const std::string& src, const std::string& fragment = "") {
  Module m;
  DiagEngine diag;
  bool ok = compileC(src, m, diag);
  EXPECT_FALSE(ok);
  if (!fragment.empty())
    EXPECT_NE(diag.str().find(fragment), std::string::npos)
        << "diagnostics were: " << diag.str();
}

// --- Lexer ---------------------------------------------------------------------

TEST(LexerTest, TokensAndLiterals) {
  DiagEngine d;
  Lexer lx("int x = 0x1F + 42 - 'A';", d);
  auto toks = lx.tokenize();
  ASSERT_FALSE(d.hasErrors()) << d.str();
  ASSERT_GE(toks.size(), 9u);
  EXPECT_EQ(toks[0].kind, Tok::KwInt);
  EXPECT_EQ(toks[1].kind, Tok::Ident);
  EXPECT_EQ(toks[1].text, "x");
  EXPECT_EQ(toks[3].kind, Tok::IntLit);
  EXPECT_EQ(toks[3].intValue, 0x1Fu);
  EXPECT_EQ(toks[5].intValue, 42u);
  EXPECT_EQ(toks[7].intValue, static_cast<uint64_t>('A'));
}

TEST(LexerTest, CommentsAreSkipped) {
  DiagEngine d;
  Lexer lx("int /* blk */ x; // line\nint y;", d);
  auto toks = lx.tokenize();
  ASSERT_FALSE(d.hasErrors());
  // int x ; int y ; END
  EXPECT_EQ(toks.size(), 7u);
}

TEST(LexerTest, Defines) {
  DiagEngine d;
  Lexer lx("#define N 16\n#define M N\nint a = N + M;", d);
  auto toks = lx.tokenize();
  ASSERT_FALSE(d.hasErrors()) << d.str();
  // int a = 16 + 16 ; END
  ASSERT_EQ(toks.size(), 8u);
  EXPECT_EQ(toks[3].intValue, 16u);
  EXPECT_EQ(toks[5].intValue, 16u);
}

TEST(LexerTest, UnsignedSuffix) {
  DiagEngine d;
  Lexer lx("4294967295u 0xFFFFFFFF 10L", d);
  auto toks = lx.tokenize();
  ASSERT_FALSE(d.hasErrors());
  EXPECT_TRUE(toks[0].isUnsignedLit);
  EXPECT_EQ(toks[0].intValue, 0xFFFFFFFFull);
  EXPECT_TRUE(toks[1].isUnsignedLit);  // hex > INT32_MAX
  EXPECT_EQ(toks[2].intValue, 10u);
}

TEST(LexerTest, MultiCharOperators) {
  DiagEngine d;
  Lexer lx("<<= >>= ++ -- && || == != <= >=", d);
  auto toks = lx.tokenize();
  ASSERT_FALSE(d.hasErrors());
  EXPECT_EQ(toks[0].kind, Tok::ShlAssign);
  EXPECT_EQ(toks[1].kind, Tok::ShrAssign);
  EXPECT_EQ(toks[2].kind, Tok::PlusPlus);
  EXPECT_EQ(toks[3].kind, Tok::MinusMinus);
  EXPECT_EQ(toks[4].kind, Tok::AmpAmp);
  EXPECT_EQ(toks[5].kind, Tok::PipePipe);
  EXPECT_EQ(toks[6].kind, Tok::EqEq);
  EXPECT_EQ(toks[7].kind, Tok::NotEq);
  EXPECT_EQ(toks[8].kind, Tok::Le);
  EXPECT_EQ(toks[9].kind, Tok::Ge);
}

// --- Basic programs ---------------------------------------------------------------

TEST(FrontendTest, MinimalMain) {
  EXPECT_EQ(runC("int main(void) { return 7; }"), 7u);
}

TEST(FrontendTest, ArithmeticPrecedence) {
  EXPECT_EQ(runC("int main() { return 2 + 3 * 4; }"), 14u);
  EXPECT_EQ(runC("int main() { return (2 + 3) * 4; }"), 20u);
  EXPECT_EQ(runC("int main() { return 20 / 3 % 4; }"), 2u);
  EXPECT_EQ(runC("int main() { return 1 << 4 | 3; }"), 19u);
  EXPECT_EQ(runC("int main() { return 0xF0 & 0x3C ^ 0xFF; }"), 0xCFu);
}

TEST(FrontendTest, LocalsAndAssignment) {
  EXPECT_EQ(runC("int main() { int x = 5; int y; y = x * 2; x += y; return x; }"), 15u);
  EXPECT_EQ(runC("int main() { int x = 10; x -= 3; x *= 2; x /= 7; return x; }"), 2u);
  EXPECT_EQ(runC("int main() { int x = 0xFF; x &= 0x0F; x |= 0x30; x ^= 0x01; return x; }"),
            0x3Eu);
  EXPECT_EQ(runC("int main() { int x = 3; x <<= 2; x >>= 1; return x; }"), 6u);
}

TEST(FrontendTest, IncrementDecrement) {
  EXPECT_EQ(runC("int main() { int x = 5; int y = x++; return x * 10 + y; }"), 65u);
  EXPECT_EQ(runC("int main() { int x = 5; int y = ++x; return x * 10 + y; }"), 66u);
  EXPECT_EQ(runC("int main() { int x = 5; int y = x--; return x * 10 + y; }"), 45u);
  EXPECT_EQ(runC("int main() { int x = 5; int y = --x; return x * 10 + y; }"), 44u);
}

TEST(FrontendTest, ControlFlow) {
  EXPECT_EQ(runC("int main() { int x = 3; if (x > 2) return 1; else return 0; }"), 1u);
  EXPECT_EQ(runC("int main() { int i; int s = 0; for (i = 0; i < 10; i++) s += i; return s; }"),
            45u);
  EXPECT_EQ(runC("int main() { int s = 0; int i = 0; while (i < 5) { s += i; i++; } return s; }"),
            10u);
  EXPECT_EQ(runC("int main() { int s = 0; int i = 0; do { s += i; i++; } while (i < 5); return s; }"),
            10u);
}

TEST(FrontendTest, BreakContinue) {
  EXPECT_EQ(runC("int main() { int s = 0; for (int i = 0; i < 100; i++) {"
                 "  if (i == 5) break; s += i; } return s; }"),
            10u);
  EXPECT_EQ(runC("int main() { int s = 0; for (int i = 0; i < 10; i++) {"
                 "  if (i % 2) continue; s += i; } return s; }"),
            20u);
}

TEST(FrontendTest, NestedLoops) {
  EXPECT_EQ(runC("int main() { int s = 0;"
                 "for (int i = 0; i < 4; i++) for (int j = 0; j <= i; j++) s += j;"
                 "return s; }"),
            10u);
}

TEST(FrontendTest, ShortCircuit) {
  // The second operand must not be evaluated (division by zero would trap the
  // value to 0; we detect evaluation with a side effect instead).
  EXPECT_EQ(runC("int g = 0;"
                 "int touch() { g = 1; return 1; }"
                 "int main() { int a = 0; if (a && touch()) return 9; return g; }"),
            0u);
  EXPECT_EQ(runC("int g = 0;"
                 "int touch() { g = 1; return 0; }"
                 "int main() { int a = 1; if (a || touch()) return g; return 9; }"),
            0u);
  EXPECT_EQ(runC("int main() { return (1 && 2) * 10 + (0 || 3); }"), 11u);
}

TEST(FrontendTest, ConditionalExpr) {
  EXPECT_EQ(runC("int main() { int x = 7; return x > 5 ? 100 : 200; }"), 100u);
  EXPECT_EQ(runC("int main() { int x = 1; return x > 5 ? 100 : 200; }"), 200u);
  EXPECT_EQ(runC("int main() { int a = 3; int b = 9; return (a > b ? a : b) - (a < b ? a : b); }"),
            6u);
}

TEST(FrontendTest, CommaOperator) {
  EXPECT_EQ(runC("int main() { int a = 0; int b = 0; for (int i = 0; i < 3; i++, a++) b += 2;"
                 "return a * 10 + b; }"),
            36u);
}

// --- Functions --------------------------------------------------------------------

TEST(FrontendTest, FunctionsAndCalls) {
  EXPECT_EQ(runC("int add(int a, int b) { return a + b; }"
                 "int main() { return add(add(1, 2), add(3, 4)); }"),
            10u);
}

TEST(FrontendTest, Prototypes) {
  EXPECT_EQ(runC("int f(int x);"
                 "int main() { return f(4); }"
                 "int f(int x) { return x * x; }"),
            16u);
}

TEST(FrontendTest, VoidFunctions) {
  EXPECT_EQ(runC("int g;"
                 "void set(int v) { g = v; }"
                 "int main() { set(42); return g; }"),
            42u);
}

TEST(FrontendTest, ImplicitReturnZero) {
  EXPECT_EQ(runC("int main() { int x = 5; }"), 0u);
}

// --- Arrays and pointers -------------------------------------------------------------

TEST(FrontendTest, LocalArrays) {
  EXPECT_EQ(runC("int main() { int a[4]; a[0] = 1; a[1] = 2; a[2] = a[0] + a[1];"
                 "return a[2]; }"),
            3u);
  EXPECT_EQ(runC("int main() { int a[] = {5, 6, 7}; return a[0] + a[1] * a[2]; }"), 47u);
}

TEST(FrontendTest, GlobalArrays) {
  EXPECT_EQ(runC("int tab[4] = {10, 20, 30, 40};"
                 "int main() { int s = 0; for (int i = 0; i < 4; i++) s += tab[i]; return s; }"),
            100u);
  EXPECT_EQ(runC("const unsigned char sbox[3] = {0xAB, 0xCD, 0xEF};"
                 "int main() { return sbox[1]; }"),
            0xCDu);
}

TEST(FrontendTest, GlobalScalars) {
  EXPECT_EQ(runC("int counter = 5;"
                 "int main() { counter += 3; return counter; }"),
            8u);
}

TEST(FrontendTest, PointerBasics) {
  EXPECT_EQ(runC("int main() { int x = 11; int *p = &x; *p = 22; return x; }"), 22u);
  EXPECT_EQ(runC("int main() { int a[3] = {1, 2, 3}; int *p = a; p++; return *p; }"), 2u);
  EXPECT_EQ(runC("int main() { int a[4] = {1, 2, 3, 4}; int *p = a + 1; return p[2]; }"), 4u);
}

TEST(FrontendTest, PointerArgs) {
  EXPECT_EQ(runC("void fill(int *dst, int n) { for (int i = 0; i < n; i++) dst[i] = i * i; }"
                 "int main() { int a[5]; fill(a, 5); return a[4] + a[3]; }"),
            25u);
  EXPECT_EQ(runC("void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }"
                 "int main() { int x = 3; int y = 4; swap(&x, &y); return x * 10 + y; }"),
            43u);
}

TEST(FrontendTest, ArrayParamSyntax) {
  EXPECT_EQ(runC("int sum(int a[], int n) { int s = 0; for (int i = 0; i < n; i++) s += a[i];"
                 "return s; }"
                 "int main() { int v[3] = {7, 8, 9}; return sum(v, 3); }"),
            24u);
}

// --- Narrow types and signedness -----------------------------------------------------

TEST(FrontendTest, CharAndShortTypes) {
  EXPECT_EQ(runC("int main() { char c = 200; return c < 0 ? 1 : 0; }"), 1u);  // signed char
  EXPECT_EQ(runC("int main() { unsigned char c = 200; return c + 100; }"), 300u);  // promoted
  EXPECT_EQ(runC("int main() { unsigned char c = 255; c++; return c; }"), 0u);     // wraps
  EXPECT_EQ(runC("int main() { short s = 0x7FFF; s++; return s < 0 ? 1 : 0; }"), 1u);
}

TEST(FrontendTest, UnsignedArithmetic) {
  EXPECT_EQ(runC("int main() { unsigned x = 0xFFFFFFFFu; return x / 2 > 0x70000000u ? 1 : 0; }"),
            1u);
  EXPECT_EQ(runC("int main() { int x = -8; return x / 2; }"), static_cast<uint32_t>(-4));
  EXPECT_EQ(runC("int main() { int x = -8; return x >> 1; }"), static_cast<uint32_t>(-4));
  EXPECT_EQ(runC("int main() { unsigned x = 0x80000000u; return x >> 31; }"), 1u);
}

TEST(FrontendTest, SignedUnsignedCompare) {
  // -1 compared against an unsigned value uses unsigned comparison in C.
  EXPECT_EQ(runC("int main() { int a = -1; unsigned b = 1; return a > b ? 1 : 0; }"), 1u);
}

TEST(FrontendTest, Casts) {
  EXPECT_EQ(runC("int main() { int x = 0x12345678; return (unsigned char)x; }"), 0x78u);
  EXPECT_EQ(runC("int main() { char c = -1; return (unsigned char)c; }"), 255u);
  EXPECT_EQ(runC("int main() { unsigned short s = 0xBEEF; return (int)s; }"), 0xBEEFu);
}

TEST(FrontendTest, ByteArrays) {
  EXPECT_EQ(runC("unsigned char buf[4];"
                 "int main() { buf[0] = 0x11; buf[1] = 0x22;"
                 "return (buf[1] << 8) | buf[0]; }"),
            0x2211u);
}

TEST(FrontendTest, ShortArrays) {
  EXPECT_EQ(runC("short h[3] = {1000, 2000, 3000};"
                 "int main() { return h[0] + h[1] + h[2]; }"),
            6000u);
}

// --- Switch ---------------------------------------------------------------------------

TEST(FrontendTest, SwitchBasic) {
  const char* prog =
      "int classify(int x) { switch (x) {"
      "  case 1: return 10;"
      "  case 2: return 20;"
      "  case 3: case 4: return 34;"
      "  default: return 99;"
      "} }"
      "int main() { return classify(1) + classify(2) + classify(3) + classify(4) + classify(7); }";
  EXPECT_EQ(runC(prog), 10u + 20 + 34 + 34 + 99);
}

TEST(FrontendTest, SwitchFallthroughAndBreak) {
  const char* prog =
      "int main() { int s = 0; int x = 2; switch (x) {"
      "  case 1: s += 1;"
      "  case 2: s += 2;"  // falls through to case 3
      "  case 3: s += 4; break;"
      "  case 4: s += 8;"
      "} return s; }";
  EXPECT_EQ(runC(prog), 6u);
}

TEST(FrontendTest, SwitchNoDefaultFallsOut) {
  EXPECT_EQ(runC("int main() { int x = 9; int r = 5; switch (x) { case 1: r = 1; } return r; }"),
            5u);
}

TEST(FrontendTest, SwitchLowersToCompareChain) {
  // The frontend performs the thesis's "lowerswitch" step: every case label
  // becomes one CmpEQ that ends its block in a condbr, in source order, and
  // no terminator has more than two successors.
  Module m;
  DiagEngine diag;
  ASSERT_TRUE(compileC("int main() { int x = 3; int r; switch (x) {"
                       "case 1: r = 10; break; case 3: r = 30; break; default: r = 99; }"
                       "return r; }",
                       m, diag))
      << diag.str();
  std::vector<uint64_t> labels;
  for (auto& bb : m.findFunction("main")->blocks()) {
    Instruction* term = bb->terminator();
    ASSERT_NE(term, nullptr) << printModule(m);
    EXPECT_LE(term->numSuccessors(), 2u) << printModule(m);
    for (auto& inst : *bb) {
      if (inst->op() != Opcode::CmpEQ) continue;
      EXPECT_EQ(term->op(), Opcode::CondBr);
      EXPECT_EQ(term->operand(0), inst);
      labels.push_back(cast<Constant>(inst->operand(1))->zext());
    }
  }
  EXPECT_EQ(labels, (std::vector<uint64_t>{1, 3})) << printModule(m);
  Interp in(m);
  EXPECT_EQ(in.run("main"), 30u);
}

// --- Declarations with defines, recursion guard, errors ------------------------------

TEST(FrontendTest, DefinesInArraysAndLoops) {
  EXPECT_EQ(runC("#define N 8\n"
                 "int a[N];"
                 "int main() { for (int i = 0; i < N; i++) a[i] = i; return a[N-1]; }"),
            7u);
}

TEST(FrontendTest, ErrorDuplicateCaseValue) {
  // C11 6.8.4.2p3: no two case constants of one switch may be equal after
  // conversion to the promoted selector type; the error is at the label.
  expectError("int main() { int x = 1; int r = 0; switch (x) {\n"
              "case 1: r = 10; break;\n"
              "case 1: r = 20; break; } return r; }",
              "3:1: error: duplicate case value");
  expectError("int main() { int x = -1; switch (x) {"
              "case -1: return 1; case 0xFFFFFFFF: return 2; } return 0; }",
              "duplicate case value");
  // A label that does not fold is its own error, not a duplicate of another.
  Module m;
  DiagEngine diag;
  EXPECT_FALSE(compileC("int main() { int x = 4; int y = 2; switch (x) {"
                        "case x: return 1; case y: return 2; case 0: return 3; }"
                        "return 0; }",
                        m, diag));
  EXPECT_EQ(diag.errorCount(), 2u) << diag.str();
  EXPECT_EQ(diag.str().find("duplicate"), std::string::npos) << diag.str();
}

TEST(FrontendTest, ConstantExpressionsFoldLikeRunTime) {
  // A global initializer and a case label fold each expression with the
  // operation lowering gives it at run time: signed or unsigned by the
  // usual arithmetic conversions, `>>` arithmetic on a signed left operand,
  // casts truncating and extending.
  for (const char* e : {"-8 >> 1", "-7 / 2", "-7 % 2", "0xFFFFFFFF > 1", "-1 < 0u", "8 >> 1",
                        "(6 & 3)", "(char)200 + 0", "(unsigned char)-1 >> 1",
                        "(short)70000 / 3", "~0u / 2", "1 ? -1 : 0u"}) {
    const std::string expr = e;
    // 1 when the global matches, 2 when the case label does.
    const std::string prog = "int g = " + expr + ";" +
                             "int main() { int x = " + expr + "; int r = 0;" +
                             "switch (x) { case " + expr + ": r = 2; }" +
                             "return (g == x) + r; }";
    EXPECT_EQ(runC(prog), 3u) << expr;
  }
}

TEST(FrontendTest, SwitchDeclarationBeforeFirstLabel) {
  // C11 6.8.4.2p7: a declaration ahead of the first label is in scope for
  // the whole body, and nothing ahead of the first label runs.
  EXPECT_EQ(runC("int main() { int x = 1; int s = 0; switch (x) {"
                 "int y; s = 100;"
                 "case 1: y = 7; s += y; break;"
                 "case 2: s = 2; }"
                 "return s; }"),
            7u);
  EXPECT_EQ(runC("int main() { int s = 5; switch (s) { s = 100; } return s; }"), 5u);
}

TEST(FrontendTest, ErrorSecondDefaultLabel) {
  expectError("int main() { int x = 5; int r = 0; switch (x) {\n"
              "default: r = 30; break;\n"
              "default: r = 40; } return r; }",
              "3:1: error: multiple default labels in one switch");
}

TEST(FrontendTest, ErrorUndeclaredVariable) {
  expectError("int main() { return zz; }", "undeclared identifier");
}

TEST(FrontendTest, ErrorUndeclaredFunction) {
  expectError("int main() { return f(1); }", "undeclared function");
}

TEST(FrontendTest, ErrorArgCount) {
  expectError("int f(int a) { return a; } int main() { return f(1, 2); }",
              "wrong number of arguments");
}

TEST(FrontendTest, ErrorPointerToPointer) {
  expectError("int main() { int x; int *p = &x; int q = &p; return 0; }");
}

TEST(FrontendTest, ErrorBreakOutsideLoop) {
  expectError("int main() { break; return 0; }", "outside");
}

TEST(FrontendTest, ErrorAssignToArray) {
  expectError("int main() { int a[3]; int b[3]; a = b; return 0; }", "not assignable");
}

// --- Regression-style programs ---------------------------------------------------------

TEST(FrontendTest, FibonacciIterative) {
  EXPECT_EQ(runC("int main() { int a = 0; int b = 1;"
                 "for (int i = 0; i < 10; i++) { int t = a + b; a = b; b = t; }"
                 "return a; }"),
            55u);
}

TEST(FrontendTest, GcdLoop) {
  EXPECT_EQ(runC("int gcd(int a, int b) { while (b) { int t = a % b; a = b; b = t; } return a; }"
                 "int main() { return gcd(48, 36); }"),
            12u);
}

TEST(FrontendTest, Crc8Style) {
  const char* prog =
      "unsigned crc(unsigned char d) {"
      "  unsigned c = d;"
      "  for (int i = 0; i < 8; i++) {"
      "    if (c & 1) c = (c >> 1) ^ 0x8C; else c >>= 1;"
      "  }"
      "  return c;"
      "}"
      "int main() { return crc(0x42); }";
  Module m;
  DiagEngine diag;
  ASSERT_TRUE(compileC(prog, m, diag)) << diag.str();
  Interp in(m);
  uint32_t got = in.run("main");
  // Reference computation.
  uint32_t c = 0x42;
  for (int i = 0; i < 8; i++) c = (c & 1) ? ((c >> 1) ^ 0x8C) : (c >> 1);
  EXPECT_EQ(got, c);
}

TEST(FrontendTest, MatrixMultiply3x3Flat) {
  const char* prog =
      "int a[9] = {1,2,3,4,5,6,7,8,9};"
      "int bm[9] = {9,8,7,6,5,4,3,2,1};"
      "int c[9];"
      "int main() {"
      "  for (int i = 0; i < 3; i++)"
      "    for (int j = 0; j < 3; j++) {"
      "      int s = 0;"
      "      for (int k = 0; k < 3; k++) s += a[i*3+k] * bm[k*3+j];"
      "      c[i*3+j] = s;"
      "    }"
      "  return c[0] + c[4] + c[8];"
      "}";
  // Reference: row0.col0=1*9+2*6+3*3=30 ; c[4]=4*8+5*5+6*2=69 ; c[8]=7*7+8*4+9*1=90
  EXPECT_EQ(runC(prog), 30u + 69u + 90u);
}

}  // namespace
}  // namespace twill
