// IR verifier: structural and SSA well-formedness checks.
#pragma once

#include <string>

#include "src/ir/function.h"
#include "src/support/diag.h"

namespace twill {

/// Verifies one function; reports problems to `diag`. Returns true if clean.
bool verifyFunction(Function& f, DiagEngine& diag);

/// Verifies every function in the module.
bool verifyModule(Module& m, DiagEngine& diag);

/// Convenience: verify and return the diagnostics text ("" when clean).
std::string verifyToString(Module& m);

/// True when pass-by-pass IR verification is on: the TWILL_VERIFY_IR
/// environment variable is set to a non-empty value other than "0". The
/// ctest environment sets it so every suite exercises the verifier after
/// every transform pass and after DSWP extraction.
bool verifyAfterPassesEnabled();

/// When enabled, verifies and aborts with diagnostics on stderr naming the
/// pass that broke the invariant. No-ops (and costs one flag test) when
/// disabled, so pipelines call it unconditionally.
void verifyAfterPass(Module& m, const char* passName);
void verifyAfterPass(Function& f, const char* passName);

}  // namespace twill
