#include "src/driver/request.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <variant>

#include "src/chstone/kernels.h"
#include "src/support/json.h"

namespace twill {
namespace {

/// How a knob's value maps onto its DriverOptions field.
enum KnobKind : uint8_t {
  kBool,      // JSON boolean
  kCount,     // unsigned integer in [lo, hi], stored as is
  kFraction,  // number in [lo, hi]
  kMiB,       // unsigned integer in [lo, hi] MiB, stored in bytes
  kMs,        // unsigned integer in [lo, hi] milliseconds, stored as a double
};

/// Typed pointer to the DriverOptions field a knob sets.
using KnobField = std::variant<bool*, uint32_t*, uint64_t*, double*>;

/// One knob of the v1 document: the field `group.key`.
struct Knob {
  const char* group;
  const char* key;
  KnobKind kind;
  uint64_t lo, hi;  // accepted range
  /// A Twill-only sim axis: compileCacheKey leaves it out, so requests that
  /// differ only here re-simulate one compile's kept artifacts.
  bool simAxis;
  /// twillc takes it as the flag of the same name: `--queue-capacity` for
  /// key "queue_capacity".
  bool flag;
  KnobField (*field)(DriverOptions&);
};

constexpr uint64_t kU32 = UINT32_MAX;
constexpr uint64_t kU64 = UINT64_MAX;

/// Every knob of the document, in document order. The parser, both cache
/// keys and twillc's valued flags loop over these rows, so a new knob is one
/// row and cannot reach the document without reaching the keys.
// clang-format off
const Knob kKnobs[] = {
    // group     key                      kind       lo  hi     sim axis  flag
    {"flows",   "sw",                    kBool,     0,  1,     false,    false,
     [](DriverOptions& o) -> KnobField { return &o.runPureSW; }},
    {"flows",   "hw",                    kBool,     0,  1,     false,    false,
     [](DriverOptions& o) -> KnobField { return &o.runPureHW; }},
    {"flows",   "twill",                 kBool,     0,  1,     false,    false,
     [](DriverOptions& o) -> KnobField { return &o.runTwill; }},
    {"compile", "inline_threshold",      kCount,    0,  kU32,  false,    true,
     [](DriverOptions& o) -> KnobField { return &o.inlineThreshold; }},
    {"compile", "partitions",            kCount,    0,  kU32,  false,    true,
     [](DriverOptions& o) -> KnobField { return &o.dswp.numPartitions; }},
    {"compile", "max_partitions",        kCount,    1,  kU32,  false,    true,
     [](DriverOptions& o) -> KnobField { return &o.dswp.maxPartitions; }},
    {"compile", "min_instructions",      kCount,    0,  kU32,  false,    true,
     [](DriverOptions& o) -> KnobField { return &o.dswp.minInstructions; }},
    {"compile", "sw_fraction",           kFraction, 0,  1,     false,    true,
     [](DriverOptions& o) -> KnobField { return &o.dswp.swFraction; }},
    {"sim",     "queue_capacity",        kCount,    1,  kU32,  true,     true,
     [](DriverOptions& o) -> KnobField { return &o.sim.queueCapacity; }},
    {"sim",     "queue_latency",         kCount,    0,  kU32,  true,     true,
     [](DriverOptions& o) -> KnobField { return &o.sim.queueLatency; }},
    {"sim",     "processors",            kCount,    1,  kU32,  true,     true,
     [](DriverOptions& o) -> KnobField { return &o.sim.numProcessors; }},
    {"sim",     "sched_quantum",         kCount,    0,  kU32,  true,     true,
     [](DriverOptions& o) -> KnobField { return &o.sim.schedQuantum; }},
    // The pure flows read maxCycles (sim/system.cpp runPureLoop), so it is a
    // compile-group axis, not a Twill-only one.
    {"sim",     "max_cycles",            kCount,    1,  kU64,  false,    true,
     [](DriverOptions& o) -> KnobField { return &o.sim.maxCycles; }},
    {"hls",     "max_chain_depth",       kCount,    1,  kU32,  false,    false,
     [](DriverOptions& o) -> KnobField { return &o.hls.maxChainDepth; }},
    {"hls",     "mem_ports_per_state",   kCount,    1,  kU32,  false,    false,
     [](DriverOptions& o) -> KnobField { return &o.hls.memPortsPerState; }},
    {"hls",     "queue_ports_per_state", kCount,    1,  kU32,  false,    false,
     [](DriverOptions& o) -> KnobField { return &o.hls.queuePortsPerState; }},
    {"hls",     "multipliers_per_state", kCount,    1,  kU32,  false,    false,
     [](DriverOptions& o) -> KnobField { return &o.hls.multipliersPerState; }},
    {"hls",     "dividers_per_state",    kCount,    1,  kU32,  false,    false,
     [](DriverOptions& o) -> KnobField { return &o.hls.dividersPerState; }},
    {"verify",  "partition",             kBool,     0,  1,     false,    false,
     [](DriverOptions& o) -> KnobField { return &o.verifyPartition; }},
    {"verify",  "only",                  kBool,     0,  1,     false,    false,
     [](DriverOptions& o) -> KnobField { return &o.verifyOnly; }},
    {"verify",  "unseed_semaphores",     kBool,     0,  1,     false,    false,
     [](DriverOptions& o) -> KnobField { return &o.unseedSemaphores; }},
    {"limits",  "timeout_ms",            kMs,       0,  kU32,  false,    true,
     [](DriverOptions& o) -> KnobField { return &o.limits.stageTimeoutMs; }},
    {"limits",  "max_memory_mb",         kMiB,      1,  2048,  false,    true,
     [](DriverOptions& o) -> KnobField { return &o.limits.memLimitBytes; }},
    {"limits",  "max_tokens",            kCount,    1,  kU64,  false,    false,
     [](DriverOptions& o) -> KnobField { return &o.limits.maxTokens; }},
    {"limits",  "max_ast_nodes",         kCount,    1,  kU64,  false,    false,
     [](DriverOptions& o) -> KnobField { return &o.limits.maxAstNodes; }},
    {"limits",  "max_nesting_depth",     kCount,    1,  kU32,  false,    false,
     [](DriverOptions& o) -> KnobField { return &o.limits.maxNestingDepth; }},
    {"limits",  "max_ir_instructions",   kCount,    1,  kU64,  false,    false,
     [](DriverOptions& o) -> KnobField { return &o.limits.maxIrInstructions; }},
    {"limits",  "max_interp_steps",      kCount,    1,  kU64,  false,    false,
     [](DriverOptions& o) -> KnobField { return &o.limits.maxInterpSteps; }},
};
// clang-format on

bool failField(std::string& error, const std::string& field, const char* what) {
  error = "field '" + field + "': " + what;
  return false;
}

const char* expectedValue(KnobKind kind) {
  switch (kind) {
    case kBool: return "a boolean";
    case kFraction: return "a number in [0, 1]";
    default: return "an unsigned integer";
  }
}

/// Range-checks a parsed value (`u` for kBool and the unsigned kinds, `f`
/// for kFraction) and stores it. `what` names the value's origin in errors.
bool storeKnob(const Knob& k, uint64_t u, double f, const std::string& what, DriverOptions& opts,
               std::string& error) {
  if (k.kind == kFraction) {
    if (!(f >= static_cast<double>(k.lo) && f <= static_cast<double>(k.hi))) {
      error = what + ": expected " + expectedValue(k.kind);
      return false;
    }
  } else if (u < k.lo || u > k.hi) {
    error = what + ": value " + std::to_string(u) + " out of range [" + std::to_string(k.lo) +
            ", " + std::to_string(k.hi) + "]";
    return false;
  }
  std::visit(
      [&](auto* p) {
        using T = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_floating_point_v<T>)
          *p = k.kind == kFraction ? f : static_cast<T>(u);
        else
          *p = static_cast<T>(k.kind == kMiB ? u << 20 : u);
      },
      k.field(opts));
  return true;
}

/// Type-checks one document value (`what` is "field 'group.key'") and
/// stores it.
bool setFromJson(const Knob& k, const JsonValue& v, const std::string& what, DriverOptions& opts,
                 std::string& error) {
  switch (k.kind) {
    case kBool:
      if (v.isBool()) return storeKnob(k, v.asBool(), 0, what, opts, error);
      break;
    case kFraction:
      if (v.isNumber()) return storeKnob(k, 0, v.asDouble(), what, opts, error);
      break;
    default:
      if (v.isUnsigned()) return storeKnob(k, v.asUnsigned(), 0, what, opts, error);
      break;
  }
  error = what + ": expected " + expectedValue(k.kind);
  return false;
}

bool isKnobGroup(const std::string& group) {
  for (const Knob& k : kKnobs)
    if (group == k.group) return true;
  return false;
}

/// One nested knob group: checks it is an object and that every key is a
/// row of the table.
bool parseGroup(const JsonValue& v, const std::string& group, DriverOptions& opts,
                std::string& error) {
  if (!v.isObject()) return failField(error, group, "expected an object");
  for (const auto& [key, val] : v.members()) {
    const Knob* knob = nullptr;
    for (const Knob& k : kKnobs)
      if (group == k.group && key == k.key) knob = &k;
    if (!knob) return failField(error, group + "." + key, "unknown field");
    if (!setFromJson(*knob, val, "field '" + group + "." + key + "'", opts, error)) return false;
  }
  return true;
}

}  // namespace

bool compileRequestFromJson(const JsonValue& doc, CompileRequest& out, std::string& error) {
  out = CompileRequest();
  if (!doc.isObject()) {
    error = "request document must be a JSON object";
    return false;
  }
  bool haveSource = false, haveKernel = false, haveName = false;
  for (const auto& [key, val] : doc.members()) {
    if (key == "schema_version") {
      if (!val.isUnsigned() || val.asUnsigned() != static_cast<uint64_t>(kReportSchemaVersion)) {
        error = "field 'schema_version': this server speaks version " +
                std::to_string(kReportSchemaVersion);
        return false;
      }
    } else if (key == "name") {
      if (!val.isString()) return failField(error, "name", "expected a string");
      out.name = val.asString();
      haveName = true;
    } else if (key == "source") {
      if (!val.isString()) return failField(error, "source", "expected a string");
      out.source = val.asString();
      haveSource = true;
    } else if (key == "kernel") {
      if (!val.isString()) return failField(error, "kernel", "expected a string");
      out.kernel = val.asString();
      haveKernel = true;
    } else if (isKnobGroup(key)) {
      if (!parseGroup(val, key, out.options, error)) return false;
    } else {
      error = "field '" + key + "': unknown field";
      return false;
    }
  }
  if (haveSource == haveKernel) {
    error = haveSource ? "'source' and 'kernel' are mutually exclusive"
                       : "exactly one of 'source' or 'kernel' is required";
    return false;
  }
  if (haveKernel) {
    const KernelInfo* k = findKernel(out.kernel);
    if (!k) {
      error = "field 'kernel': unknown kernel '" + out.kernel + "'";
      return false;
    }
    out.source = k->source;
    if (!haveName) out.name = k->name;
  }
  return true;
}

bool parseCompileRequest(const std::string& text, CompileRequest& out, std::string& error,
                         uint32_t maxDepth) {
  JsonValue doc;
  if (!parseJson(text, doc, error, maxDepth)) {
    error = "request is not valid JSON: " + error;
    return false;
  }
  return compileRequestFromJson(doc, out, error);
}

KnobFlag applyKnobFlag(const std::string& flag, const char* text, DriverOptions& opts,
                       std::string& error) {
  const Knob* knob = nullptr;
  for (const Knob& k : kKnobs) {
    std::string name = std::string("--") + k.key;
    std::replace(name.begin(), name.end(), '_', '-');
    if (k.flag && name == flag) knob = &k;
  }
  if (!knob) return KnobFlag::NotAKnob;
  if (!text) {
    error = flag + " requires a value";
    return KnobFlag::BadValue;
  }
  // Plain decimal text: strtoull alone would skip blanks and wrap "-1".
  // strtod's "nan" and "inf" parse, and fail storeKnob's range check.
  uint64_t u = 0;
  double f = 0;
  char* end = nullptr;
  errno = 0;
  if (knob->kind == kFraction)
    f = std::strtod(text, &end);
  else if (std::isdigit(static_cast<unsigned char>(text[0])))
    u = std::strtoull(text, &end, 10);
  if (end == nullptr || end == text || *end != '\0' || errno == ERANGE) {
    error = flag + ": expected " + expectedValue(knob->kind) + ", got '" + text + "'";
    return KnobFlag::BadValue;
  }
  return storeKnob(*knob, u, f, flag, opts, error) ? KnobFlag::Set : KnobFlag::BadValue;
}

namespace {

/// FNV-1a 64 over the source text. The cache stores the full source and
/// re-compares it on lookup, so the hash only sizes the key; a collision
/// degrades to a cache miss, never to a wrong answer.
uint64_t fnv1a64(const std::string& s) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Appends the key terms (`|sim.queue_capacity=8`) of the knobs whose
/// simAxis equals `simAxes`. A term carries the field's value, not the
/// document's (bytes for max_memory_mb): twilld clamps the limits after
/// parsing, to values no document spells.
void appendKnobTerms(std::string& key, const DriverOptions& opts, bool simAxes) {
  // The accessors only form a pointer; nothing is written through it here.
  DriverOptions& o = const_cast<DriverOptions&>(opts);
  for (const Knob& k : kKnobs) {
    if (k.simAxis != simAxes) continue;
    key += '|';
    key += k.group;
    key += '.';
    key += k.key;
    key += '=';
    std::visit(
        [&key](const auto* p) {
          if constexpr (std::is_floating_point_v<std::remove_pointer_t<decltype(p)>>) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", *p);
            key += buf;
          } else {
            key += std::to_string(static_cast<uint64_t>(*p));
          }
        },
        k.field(o));
  }
}

}  // namespace

std::string compileCacheKey(const CompileRequest& req) {
  char head[32];
  std::snprintf(head, sizeof(head), "v1|src=%016llx",
                static_cast<unsigned long long>(fnv1a64(req.source)));
  std::string key = head;
  appendKnobTerms(key, req.options, /*simAxes=*/false);
  return key;
}

std::string requestCacheKey(const CompileRequest& req) {
  std::string key = compileCacheKey(req);
  appendKnobTerms(key, req.options, /*simAxes=*/true);
  key += "|name=";
  key += req.name;
  return key;
}

BenchmarkReport runCompileRequest(const CompileRequest& req) {
  return runBenchmark(req.name, req.source, req.options);
}

}  // namespace twill
