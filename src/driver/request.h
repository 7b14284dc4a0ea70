// CompileRequest — the v1 JSON request document over DriverOptions.
//
// One config surface for every machine-facing entry point: twilld's
// `POST /v1/jobs` body and `twillc --request FILE.json` parse the same
// document through parseCompileRequest, so the CLI is the daemon's test
// oracle (same knobs in, byte-identical report out, modulo wall clocks).
//
// Document shape (every group and every field optional; exactly one of
// "source"/"kernel" required; unknown keys are rejected — v1 is strict so
// a typo'd knob cannot silently run with defaults):
//
//   {
//     "schema_version": 1,
//     "name": "mips",                      // report name
//     "kernel": "mips",                    // built-in CHStone kernel, or
//     "source": "int main() { ... }",      // C source in the subset
//     "flows":   {"sw": true, "hw": true, "twill": true},
//     "compile": {"inline_threshold": 100, "partitions": 0,
//                 "max_partitions": 6, "min_instructions": 12,
//                 "sw_fraction": 0.1},
//     "sim":     {"queue_capacity": 8, "queue_latency": 2, "processors": 1,
//                 "sched_quantum": 2000, "max_cycles": 1099511627776},
//     "hls":     {"max_chain_depth": 4, "mem_ports_per_state": 1,
//                 "queue_ports_per_state": 1, "multipliers_per_state": 2,
//                 "dividers_per_state": 1},
//     "verify":  {"partition": true, "only": false,
//                 "unseed_semaphores": false},
//     "limits":  {"timeout_ms": 0, "max_memory_mb": 4, "max_tokens": ...,
//                 "max_ast_nodes": ..., "max_nesting_depth": ...,
//                 "max_ir_instructions": ..., "max_interp_steps": ...}
//   }
//
// The response to a request is the BenchmarkReport document reportToJson
// emits (schema_version 1, driver.h).
//
// The 28 knobs of the groups above are rows of one table (kKnobs in
// request.cpp), the only knob list: each row names the field, its value kind
// and range, whether it is a Twill-only sim axis, and whether twillc has a
// flag for it. The parser, both cache keys and applyKnobFlag loop over it.
#pragma once

#include <string>

#include "src/driver/driver.h"

namespace twill {

class JsonValue;

/// Nesting cap for request documents: far deeper than the schema (three
/// levels) but bounded, so hostile nesting is a parse error, not a native
/// stack overflow. Mirrors ResourceLimits::maxNestingDepth in spirit.
inline constexpr uint32_t kRequestMaxJsonDepth = 64;

struct CompileRequest {
  std::string name = "request";
  std::string source;  // resolved C source (kernel lookup already applied)
  std::string kernel;  // built-in kernel name when the document used one
  DriverOptions options;
};

/// Parses and validates one CompileRequest document from `text`. On failure
/// returns false with a one-line `error` (parse errors carry byte offsets;
/// validation errors name the offending field).
bool parseCompileRequest(const std::string& text, CompileRequest& out, std::string& error,
                         uint32_t maxDepth = kRequestMaxJsonDepth);

/// Same, over an already-parsed document.
bool compileRequestFromJson(const JsonValue& doc, CompileRequest& out, std::string& error);

/// Outcome of applyKnobFlag.
enum class KnobFlag : uint8_t { NotAKnob, Set, BadValue };

/// twillc's valued knob flags: each is the request field of the same name
/// (`--queue-capacity` is sim.queue_capacity, `--timeout-ms` is
/// limits.timeout_ms) and accepts exactly that field's range. `text` is
/// parsed as decimal, not JSON, so `--sw-fraction .5` works. Returns
/// NotAKnob when `flag` is no knob flag; BadValue with a one-line `error`
/// when `text` is null (the value is missing), malformed or out of range.
KnobFlag applyKnobFlag(const std::string& flag, const char* text, DriverOptions& opts,
                       std::string& error);

/// Cache key over the request's compile axes: the source text (hashed, and
/// verified against the stored source on lookup) plus every document knob
/// except the four Twill-only sim axes (queue capacity/latency, processors,
/// sched quantum): requests differing only in those re-simulate a cached
/// compile's kept artifacts, the way the explorer's sim points reuse their
/// group's decode. sim.max_cycles is in the key, as the pure flows observe
/// it. Also excludes `name` (presentation only).
std::string compileCacheKey(const CompileRequest& req);

/// Full-request key: compileCacheKey plus the Twill-only sim axes and the
/// report name. Two requests with equal full keys produce byte-identical
/// reports modulo wall clocks, so the daemon answers repeats straight from
/// its response cache.
std::string requestCacheKey(const CompileRequest& req);

/// Runs the request through the driver (the CompileResponse is the returned
/// report; serialize with reportToJson).
BenchmarkReport runCompileRequest(const CompileRequest& req);

}  // namespace twill
