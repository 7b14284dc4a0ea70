#include "src/fuzz/differential.h"

#include "src/exec/superblock.h"
#include "src/frontend/lower.h"
#include "src/ir/interp.h"
#include "src/transforms/passes.h"

namespace twill {
namespace {

struct EngineRun {
  bool done = false;      // reached Finished or Trapped within the budget
  bool finished = false;  // Finished (else trapped)
  uint32_t result = 0;
  uint64_t retired = 0;
  std::string trap;
};

EngineRun runReference(Module& m, uint64_t stepBudget) {
  EngineRun r;
  Memory mem;
  Layout lay;
  if (!lay.build(m, mem)) return r;
  FunctionalChannels chans;
  RefExecState st(m, lay, mem, chans, m.findFunction("main"));
  StepResult sr{};
  for (uint64_t guard = 0; guard < stepBudget; ++guard) {
    sr = st.step();
    if (sr.status != StepStatus::Ran) break;
  }
  if (sr.status == StepStatus::Finished || sr.status == StepStatus::Trapped) {
    r.done = true;
    r.finished = sr.status == StepStatus::Finished;
    r.result = r.finished ? st.result() : 0;
    r.retired = st.retired();
    r.trap = r.finished ? std::string() : st.trapMessage();
  }
  return r;
}

EngineRun runDecoded(Module& m, uint64_t stepBudget) {
  EngineRun r;
  Memory mem;
  Layout lay;
  if (!lay.build(m, mem)) return r;
  DecodedProgram prog(m, lay);
  FunctionalChannels chans;
  ExecState st(prog, mem, chans, m.findFunction("main"));
  StepResult sr{};
  for (uint64_t guard = 0; guard < stepBudget; ++guard) {
    sr = st.step();
    if (sr.status != StepStatus::Ran) break;
  }
  if (sr.status == StepStatus::Finished || sr.status == StepStatus::Trapped) {
    r.done = true;
    r.finished = sr.status == StepStatus::Finished;
    r.result = r.finished ? st.result() : 0;
    r.retired = st.retired();
    r.trap = r.finished ? std::string() : st.trapMessage();
  }
  return r;
}

EngineRun runSuperblock(Module& m, uint64_t stepBudget, uint64_t budgetPerCall) {
  EngineRun r;
  Memory mem;
  Layout lay;
  if (!lay.build(m, mem)) return r;
  DecodedProgram prog(m, lay);
  FunctionalChannels chans;
  ExecState st(prog, mem, chans, m.findFunction("main"));
  while (st.retired() < stepBudget) {
    FunctionalSuperModel model{budgetPerCall};
    switch (st.runSuper(model)) {
      case SuperRunStatus::kFinished:
        r.done = true;
        r.finished = true;
        r.result = st.result();
        r.retired = st.retired();
        return r;
      case SuperRunStatus::kTrapped:
        r.done = true;
        r.finished = false;
        r.retired = st.retired();
        r.trap = st.trapMessage();
        return r;
      case SuperRunStatus::kNeedStep: {
        // Channel op (absorbed by FunctionalChannels here) or a poisoned
        // record: one per-inst step, then back to the trace runner.
        StepResult sr = st.step();
        if (sr.status == StepStatus::Finished || sr.status == StepStatus::Trapped) {
          r.done = true;
          r.finished = sr.status == StepStatus::Finished;
          r.result = r.finished ? st.result() : 0;
          r.retired = st.retired();
          r.trap = r.finished ? std::string() : st.trapMessage();
          return r;
        }
        if (sr.status == StepStatus::Blocked) return r;  // cannot happen: no fabric
        break;
      }
      case SuperRunStatus::kBudget:
        break;  // resume with a fresh per-call budget
    }
  }
  return r;
}

std::string describe(const char* name, const EngineRun& r) {
  if (!r.done) return std::string(name) + ": did not finish within the step budget";
  std::string s = std::string(name) + ": ";
  if (r.finished)
    s += "result=" + std::to_string(r.result);
  else
    s += "trap='" + r.trap + "'";
  s += " retired=" + std::to_string(r.retired);
  return s;
}

bool sameRun(const EngineRun& a, const EngineRun& b) {
  return a.done && b.done && a.finished == b.finished && a.result == b.result &&
         a.retired == b.retired && a.trap == b.trap;
}

}  // namespace

DifferentialResult runDifferential(const std::string& source, uint64_t stepBudget) {
  DifferentialResult out;
  Module m;
  DiagEngine diag;
  if (!compileC(source, m, diag)) {
    out.detail = "compile failed:\n" + diag.str();
    return out;
  }
  runDefaultPipeline(m);
  if (!m.findFunction("main")) {
    out.detail = "no main function";
    return out;
  }
  out.compiled = true;

  const EngineRun ref = runReference(m, stepBudget);
  const EngineRun dec = runDecoded(m, stepBudget);
  const EngineRun supFull = runSuperblock(m, stepBudget, UINT64_MAX);
  // A 3-op budget forces a stop/resume at nearly every op boundary,
  // exercising the kBudget pc/frame write-back paths.
  const EngineRun supResume = runSuperblock(m, stepBudget, 3);

  if (sameRun(ref, dec) && sameRun(ref, supFull) && sameRun(ref, supResume)) {
    out.agree = true;
    out.finished = ref.finished;
    if (!out.finished) out.detail = describe("every engine", ref);
    return out;
  }
  out.detail = describe("reference", ref) + "\n" + describe("decoded", dec) + "\n" +
               describe("superblock", supFull) + "\n" + describe("superblock(resume)", supResume);
  return out;
}

}  // namespace twill
