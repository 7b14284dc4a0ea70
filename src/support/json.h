// Minimal JSON support shared by the machine-readable surfaces.
//
// Two halves:
//  * JsonWriter — streaming emitter for the report outputs (`twillc --json`,
//    bench_main's BENCH_*.json, twilld responses). Scope-based with
//    automatic comma/indent handling.
//  * JsonValue / parseJson — small recursive-descent reader for the inputs
//    (twilld's CompileRequest bodies, `twillc --request`). Full scalar set
//    (objects/arrays/strings/numbers/bools/null), depth-capped in the
//    ResourceLimits spirit so hostile nesting cannot blow the native stack,
//    whole-document (trailing bytes are an error), byte-offset diagnostics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace twill {

/// Returns `s` as a double-quoted JSON string literal (quotes included),
/// escaping control characters, quotes and backslashes.
std::string jsonQuote(const std::string& s);

class JsonWriter {
 public:
  explicit JsonWriter(int indentWidth = 2) : indentWidth_(indentWidth) {}

  void beginObject();
  void endObject();
  void beginArray();
  void endArray();

  /// Emits the key of the next field; must be inside an object and followed
  /// by exactly one value()/begin*() call.
  void key(const std::string& k);

  void value(const std::string& v);
  void value(const char* v);
  void value(bool v);
  void value(double v);
  void value(uint64_t v);
  void value(int64_t v);
  void value(unsigned v) { value(static_cast<uint64_t>(v)); }
  void value(int v) { value(static_cast<int64_t>(v)); }

  template <typename T>
  void field(const std::string& k, T v) {
    key(k);
    value(v);
  }

  /// The document built so far (complete once every scope is closed).
  const std::string& str() const { return out_; }

 private:
  void beforeValue();
  void newlineIndent();

  std::string out_;
  int indentWidth_;
  int depth_ = 0;
  bool firstInScope_ = true;
  bool afterKey_ = false;
};

/// One parsed JSON value. Objects keep member insertion order (duplicate
/// keys are rejected by the parser, so lookup order never matters); numbers
/// are stored as double plus an exact-integer flag wide enough for every
/// knob in the request schema.
class JsonValue {
 public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return kind_; }
  bool isNull() const { return kind_ == Kind::Null; }
  bool isBool() const { return kind_ == Kind::Bool; }
  bool isNumber() const { return kind_ == Kind::Number; }
  bool isString() const { return kind_ == Kind::String; }
  bool isArray() const { return kind_ == Kind::Array; }
  bool isObject() const { return kind_ == Kind::Object; }

  bool asBool() const { return bool_; }
  double asDouble() const { return number_; }
  const std::string& asString() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const { return members_; }

  /// True when the number was written without fraction/exponent and fits
  /// uint64_t exactly (the request parser wants knob values bit-exact, not
  /// rounded through double).
  bool isUnsigned() const { return kind_ == Kind::Number && exactUnsigned_; }
  uint64_t asUnsigned() const { return unsigned_; }

  /// Object member lookup; nullptr when absent or this is not an object.
  const JsonValue* get(const std::string& key) const;

 private:
  friend class JsonParser;
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  bool exactUnsigned_ = false;
  double number_ = 0;
  uint64_t unsigned_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses `text` as one complete JSON document into `out`. On failure
/// returns false and sets `error` to "offset N: <what>". `maxDepth` bounds
/// array/object nesting (the parser recurses once per level); callers
/// feeding untrusted bytes derive it from their ResourceLimits-style caps.
bool parseJson(const std::string& text, JsonValue& out, std::string& error,
               uint32_t maxDepth = 64);

}  // namespace twill
