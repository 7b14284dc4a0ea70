#include "src/fuzz/progen.h"

#include <vector>

namespace twill {
namespace {

/// splitmix64: tiny, fully deterministic, platform-independent. The
/// generator must not depend on libc rand() or std::mt19937 distribution
/// details, or checked-in seeds would replay differently across toolchains.
class Rng {
public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n). n == 0 is treated as 1.
  uint32_t below(uint32_t n) { return n ? static_cast<uint32_t>(next() % n) : 0; }

  bool chance(uint32_t percent) { return below(100) < percent; }

private:
  uint64_t state_;
};

struct Var {
  std::string name;
  unsigned arraySize = 0;  // 0 = scalar; otherwise a power of two
  bool writable = true;    // loop induction variables are read-only
};

class Generator {
public:
  Generator(uint64_t seed, const ProgenOptions& opts) : rng_(seed), opts_(opts) {}

  std::string run() {
    emitGlobals();
    const unsigned nFuncs = 1 + rng_.below(opts_.maxFunctions);
    for (unsigned i = 0; i < nFuncs; ++i) emitFunction("f" + std::to_string(i));
    emitMain();
    return out_;
  }

private:
  // --- expressions ---------------------------------------------------------

  /// A variable readable in the current scope (globals + locals).
  const Var* pickReadable() {
    const size_t total = globals_.size() + locals_.size();
    if (total == 0) return nullptr;
    const size_t k = rng_.below(static_cast<uint32_t>(total));
    return k < globals_.size() ? &globals_[k] : &locals_[k - globals_.size()];
  }

  const Var* pickWritable() {
    std::vector<const Var*> cand;
    for (const Var& v : globals_)
      if (v.writable) cand.push_back(&v);
    for (const Var& v : locals_)
      if (v.writable) cand.push_back(&v);
    if (cand.empty()) return nullptr;
    return cand[rng_.below(static_cast<uint32_t>(cand.size()))];
  }

  /// Reference to `v` as an rvalue; array elements are index-masked so the
  /// access is in range whatever the index expression computes.
  std::string varRead(const Var& v, unsigned depth) {
    if (v.arraySize == 0) return v.name;
    return v.name + "[(" + expr(depth) + ") & " + std::to_string(v.arraySize - 1) + "]";
  }

  std::string expr(unsigned depth) {
    if (depth >= opts_.maxExprDepth || rng_.chance(30)) {
      // Leaf: a literal or a variable read.
      const Var* v = rng_.chance(60) ? pickReadable() : nullptr;
      if (v) return varRead(*v, opts_.maxExprDepth);  // index exprs stay leaf-ish
      return std::to_string(rng_.below(1000));
    }
    switch (rng_.below(10)) {
      case 0: return "(-" + expr(depth + 1) + ")";
      case 1: return "(~" + expr(depth + 1) + ")";
      case 2: return "(!" + expr(depth + 1) + ")";
      case 3: {
        // Conditional expression.
        return "(" + expr(depth + 1) + " ? " + expr(depth + 1) + " : " + expr(depth + 1) + ")";
      }
      case 4:
        if (!funcs_.empty() && callBudget_ > 0) {
          --callBudget_;
          const std::string& f = funcs_[rng_.below(static_cast<uint32_t>(funcs_.size()))];
          return f + "(" + expr(depth + 1) + ", " + expr(depth + 1) + ")";
        }
        [[fallthrough]];
      default: {
        static const char* const kOps[] = {"+",  "-",  "*",  "/",  "%",  "&",  "|", "^",
                                           "<<", ">>", "<",  ">",  "<=", ">=", "==",
                                           "!=", "&&", "||"};
        const char* op = kOps[rng_.below(sizeof(kOps) / sizeof(kOps[0]))];
        return "(" + expr(depth + 1) + " " + op + " " + expr(depth + 1) + ")";
      }
    }
  }

  // --- statements ----------------------------------------------------------

  void indent() { out_.append(indent_ * 2, ' '); }

  void stmtAssign() {
    const Var* v = pickWritable();
    if (!v) return;
    indent();
    if (v->arraySize == 0) {
      out_ += v->name;
    } else {
      out_ += v->name + "[(" + expr(1) + ") & " + std::to_string(v->arraySize - 1) + "]";
    }
    static const char* const kAssignOps[] = {" = ", " += ", " ^= "};
    out_ += kAssignOps[rng_.below(3)];
    out_ += expr(0);
    out_ += ";\n";
  }

  void stmtIf(unsigned depth) {
    indent();
    out_ += "if (" + expr(1) + ") {\n";
    block(depth + 1);
    if (rng_.chance(50)) {
      indent();
      out_ += "} else {\n";
      block(depth + 1);
    }
    indent();
    out_ += "}\n";
  }

  void stmtFor(unsigned depth) {
    // Counted loop with a fresh read-only induction variable: the body can
    // read it but never write it, so termination is structural.
    const std::string iv = "i" + std::to_string(loopCounter_++);
    const unsigned trip = 1 + rng_.below(opts_.maxLoopTrip);
    indent();
    out_ += "for (int " + iv + " = 0; " + iv + " < " + std::to_string(trip) + "; " + iv +
            " = " + iv + " + 1) {\n";
    locals_.push_back({iv, 0, /*writable=*/false});
    block(depth + 1);
    locals_.pop_back();
    indent();
    out_ += "}\n";
  }

  void stmtSwitch(unsigned depth) {
    // Dense switch over a masked selector: every case value is reachable and
    // every arm breaks, so control flow stays structural. The frontend
    // lowers the case list to a compare/branch chain — the most blocks and
    // edges a frontend construct can generate.
    const unsigned nCases = 2 + rng_.below(opts_.maxSwitchCases - 1);
    indent();
    out_ += "switch ((" + expr(1) + ") & 7) {\n";
    for (unsigned c = 0; c < nCases; ++c) {
      indent();
      out_ += "case " + std::to_string(c) + ":\n";
      block(depth + 1);
      ++indent_;
      indent();
      out_ += "break;\n";
      --indent_;
    }
    indent();
    out_ += "default:\n";
    block(depth + 1);
    indent();
    out_ += "}\n";
  }

  void stmtWhile(unsigned depth, bool doWhile) {
    // Counted while/do-while: the generator owns the counter (declared here,
    // bumped as the body's last statement, read-only inside the body), so
    // termination stays structural just like stmtFor.
    const std::string iv = "w" + std::to_string(loopCounter_++);
    const unsigned trip = 1 + rng_.below(opts_.maxLoopTrip);
    indent();
    out_ += "int " + iv + " = 0;\n";
    indent();
    out_ += doWhile ? "do {\n" : ("while (" + iv + " < " + std::to_string(trip) + ") {\n");
    locals_.push_back({iv, 0, /*writable=*/false});
    block(depth + 1);
    locals_.pop_back();
    ++indent_;
    indent();
    out_ += iv + " = " + iv + " + 1;\n";
    --indent_;
    indent();
    out_ += doWhile ? ("} while (" + iv + " < " + std::to_string(trip) + ");\n") : "}\n";
  }

  void nestedStmt(unsigned depth) {
    const bool canSwitch = opts_.maxSwitchCases >= 2;
    switch (rng_.below(6)) {
      case 0:
      case 1: stmtIf(depth); return;
      case 2:
      case 3: stmtFor(depth); return;
      case 4:
        if (canSwitch) {
          stmtSwitch(depth);
          return;
        }
        [[fallthrough]];
      default:
        if (opts_.genWhileLoops) {
          stmtWhile(depth, /*doWhile=*/rng_.chance(50));
          return;
        }
        stmtFor(depth);
    }
  }

  void block(unsigned depth) {
    ++indent_;
    const size_t scopeMark = locals_.size();
    const unsigned n = 1 + rng_.below(opts_.maxStmtsPerBlock);
    for (unsigned s = 0; s < n; ++s) {
      if (depth < opts_.maxBlockDepth && rng_.chance(25)) {
        nestedStmt(depth);
      } else if (rng_.chance(20)) {
        // Fresh initialized local scoped to this block.
        const std::string name = "t" + std::to_string(localCounter_++);
        indent();
        out_ += "int " + name + " = " + expr(1) + ";\n";
        locals_.push_back({name, 0, true});
      } else {
        stmtAssign();
      }
    }
    --indent_;
    locals_.resize(scopeMark);
  }

  // --- top level -----------------------------------------------------------

  void emitGlobals() {
    const unsigned n = 1 + rng_.below(opts_.maxGlobals);
    for (unsigned i = 0; i < n; ++i) {
      const std::string name = "g" + std::to_string(i);
      if (rng_.chance(40)) {
        const unsigned size = 1u << (2 + rng_.below(4));  // 4..32 elements
        out_ += "int " + name + "[" + std::to_string(size) + "];\n";
        globals_.push_back({name, size, true});
      } else {
        out_ += "int " + name + " = " + std::to_string(rng_.below(1000)) + ";\n";
        globals_.push_back({name, 0, true});
      }
    }
    out_ += "\n";
  }

  void emitFunction(const std::string& name) {
    out_ += "int " + name + "(int a, int b) {\n";
    locals_.clear();
    locals_.push_back({"a", 0, true});
    locals_.push_back({"b", 0, true});
    locals_.push_back({"r", 0, true});
    indent_ = 1;
    indent();
    out_ += "int r = a ^ b;\n";
    callBudget_ = 4;  // calls per function body; callees are all earlier-defined
    indent_ = 0;
    block(0);
    indent_ = 1;
    indent();
    out_ += "return r;\n";
    indent_ = 0;
    out_ += "}\n\n";
    funcs_.push_back(name);  // published after emission: no self-calls
  }

  void emitMain() {
    out_ += "int main() {\n";
    locals_.clear();
    locals_.push_back({"sum", 0, true});
    indent_ = 1;
    indent();
    out_ += "int sum = 0;\n";
    callBudget_ = 6;
    indent_ = 0;
    block(0);
    indent_ = 1;
    // Fold every global into the checksum so stores anywhere are observable.
    for (const Var& g : globals_) {
      if (g.arraySize == 0) {
        indent();
        out_ += "sum = sum * 31 + " + g.name + ";\n";
      } else {
        const std::string iv = "i" + std::to_string(loopCounter_++);
        indent();
        out_ += "for (int " + iv + " = 0; " + iv + " < " + std::to_string(g.arraySize) + "; " +
                iv + " = " + iv + " + 1) sum = sum * 31 + " + g.name + "[" + iv + "];\n";
      }
    }
    indent();
    out_ += "return sum;\n";
    indent_ = 0;
    out_ += "}\n";
  }

  Rng rng_;
  ProgenOptions opts_;
  std::string out_;
  std::vector<Var> globals_;
  std::vector<Var> locals_;
  std::vector<std::string> funcs_;
  unsigned indent_ = 0;
  unsigned loopCounter_ = 0;
  unsigned localCounter_ = 0;
  int callBudget_ = 0;
};

}  // namespace

std::string generateProgram(uint64_t seed, const ProgenOptions& opts) {
  return Generator(seed, opts).run();
}

}  // namespace twill
