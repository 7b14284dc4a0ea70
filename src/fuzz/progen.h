// Deterministic random-program generator for the differential fuzzing
// harness (tests) and the libFuzzer pipeline harness (fuzz/).
//
// Programs are valid by construction in the supported C subset and free of
// the language's only runtime traps (out-of-range memory access, call-depth
// blowup): every variable is initialized before use, every array index is
// masked to the array's power-of-two size, loops are bounded counted `for`
// loops whose induction variable the body never writes, and calls only name
// earlier-defined functions (no recursion). Division and shifts need no
// guarding — the language defines x/0 == x%0 == 0 and masks shift amounts
// (src/exec/eval.h). A generated program therefore terminates and computes
// a checksum on every conforming engine; any divergence between engines is
// an engine bug, not an input quirk.
#pragma once

#include <cstdint>
#include <string>

namespace twill {

struct ProgenOptions {
  unsigned maxFunctions = 4;    // helper functions besides main
  unsigned maxGlobals = 4;      // global scalars + arrays
  unsigned maxStmtsPerBlock = 5;
  unsigned maxBlockDepth = 3;   // if/for/switch/while statement nesting
  unsigned maxExprDepth = 4;
  unsigned maxLoopTrip = 8;     // constant trip count per counted loop
  /// Dense-`switch` emission: up to this many consecutive cases over a
  /// masked selector (0 disables). The frontend lowers these to long
  /// compare/branch chains, the densest block and edge traffic the
  /// frontend can produce.
  unsigned maxSwitchCases = 6;
  /// Counted `while`/`do` loops alongside `for` (their exit tests sit at
  /// opposite ends, so both rotation shapes reach the loop passes).
  bool genWhileLoops = true;
};

/// Generates one self-checking program (main returns a checksum) from
/// `seed`. Same seed + options => byte-identical source, on every platform.
std::string generateProgram(uint64_t seed, const ProgenOptions& opts = {});

}  // namespace twill
