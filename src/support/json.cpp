#include "src/support/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace twill {

std::string jsonQuote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void JsonWriter::newlineIndent() {
  out_.push_back('\n');
  out_.append(static_cast<size_t>(depth_ * indentWidth_), ' ');
}

void JsonWriter::beforeValue() {
  if (afterKey_) {
    afterKey_ = false;
    return;
  }
  if (depth_ == 0) return;  // document root
  if (!firstInScope_) out_.push_back(',');
  firstInScope_ = false;
  newlineIndent();
}

void JsonWriter::beginObject() {
  beforeValue();
  out_.push_back('{');
  ++depth_;
  firstInScope_ = true;
}

void JsonWriter::endObject() {
  --depth_;
  if (!firstInScope_) newlineIndent();
  firstInScope_ = false;
  out_.push_back('}');
}

void JsonWriter::beginArray() {
  beforeValue();
  out_.push_back('[');
  ++depth_;
  firstInScope_ = true;
}

void JsonWriter::endArray() {
  --depth_;
  if (!firstInScope_) newlineIndent();
  firstInScope_ = false;
  out_.push_back(']');
}

void JsonWriter::key(const std::string& k) {
  if (!firstInScope_) out_.push_back(',');
  firstInScope_ = false;
  newlineIndent();
  out_ += jsonQuote(k);
  out_ += ": ";
  afterKey_ = true;
}

void JsonWriter::value(const std::string& v) {
  beforeValue();
  out_ += jsonQuote(v);
}

void JsonWriter::value(const char* v) { value(std::string(v)); }

void JsonWriter::value(bool v) {
  beforeValue();
  out_ += v ? "true" : "false";
}

void JsonWriter::value(double v) {
  beforeValue();
  if (!std::isfinite(v)) {
    out_ += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out_ += buf;
}

void JsonWriter::value(uint64_t v) {
  beforeValue();
  out_ += std::to_string(v);
}

void JsonWriter::value(int64_t v) {
  beforeValue();
  out_ += std::to_string(v);
}

// --- reader ----------------------------------------------------------------

const JsonValue* JsonValue::get(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

/// Recursive-descent parser over a byte range. Recursion depth equals
/// document nesting depth and is capped before every descent, so the native
/// stack stays bounded for any input.
class JsonParser {
 public:
  JsonParser(const std::string& text, uint32_t maxDepth) : text_(text), maxDepth_(maxDepth) {}

  bool parse(JsonValue& out, std::string& error) {
    skipWs();
    if (!parseValue(out, 0)) {
      error = "offset " + std::to_string(pos_) + ": " + error_;
      return false;
    }
    skipWs();
    if (pos_ != text_.size()) {
      error = "offset " + std::to_string(pos_) + ": trailing bytes after the document";
      return false;
    }
    return true;
  }

 private:
  bool fail(const char* what) {
    error_ = what;
    return false;
  }

  bool atEnd() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skipWs() {
    while (!atEnd()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
      ++pos_;
    }
  }

  bool consume(char c, const char* what) {
    if (atEnd() || text_[pos_] != c) return fail(what);
    ++pos_;
    return true;
  }

  bool parseValue(JsonValue& out, uint32_t depth) {
    if (atEnd()) return fail("unexpected end of document");
    switch (peek()) {
      case '{': return parseObject(out, depth);
      case '[': return parseArray(out, depth);
      case '"': {
        out.kind_ = JsonValue::Kind::String;
        return parseString(out.string_);
      }
      case 't':
      case 'f': return parseKeyword(out);
      case 'n': return parseKeyword(out);
      default: return parseNumber(out);
    }
  }

  bool parseKeyword(JsonValue& out) {
    auto match = [&](const char* word) {
      size_t n = std::char_traits<char>::length(word);
      if (text_.compare(pos_, n, word) != 0) return false;
      pos_ += n;
      return true;
    };
    if (match("true")) {
      out.kind_ = JsonValue::Kind::Bool;
      out.bool_ = true;
      return true;
    }
    if (match("false")) {
      out.kind_ = JsonValue::Kind::Bool;
      out.bool_ = false;
      return true;
    }
    if (match("null")) {
      out.kind_ = JsonValue::Kind::Null;
      return true;
    }
    return fail("expected a JSON value");
  }

  bool parseNumber(JsonValue& out) {
    const size_t start = pos_;
    if (!atEnd() && peek() == '-') ++pos_;
    if (atEnd() || peek() < '0' || peek() > '9') {
      pos_ = start;
      return fail("expected a JSON value");
    }
    // Grammar check (JSON is stricter than strtod: no hex, no leading '+',
    // no bare '.5', no '01'), then one strtod over the validated span.
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!atEnd() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    bool integral = true;
    if (!atEnd() && peek() == '.') {
      integral = false;
      ++pos_;
      if (atEnd() || peek() < '0' || peek() > '9') return fail("digit required after '.'");
      while (!atEnd() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!atEnd() && (peek() == '+' || peek() == '-')) ++pos_;
      if (atEnd() || peek() < '0' || peek() > '9') return fail("digit required in exponent");
      while (!atEnd() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string span = text_.substr(start, pos_ - start);
    out.kind_ = JsonValue::Kind::Number;
    out.number_ = std::strtod(span.c_str(), nullptr);
    if (!std::isfinite(out.number_)) return fail("number out of range");
    if (integral && span[0] != '-' && span.size() <= 20) {
      // Exact unsigned path: strtoull never overflows silently here because
      // a 20-char-or-less digit string is checked via errno-free compare.
      errno = 0;
      char* end = nullptr;
      unsigned long long u = std::strtoull(span.c_str(), &end, 10);
      if (errno == 0 && end && *end == '\0') {
        out.exactUnsigned_ = true;
        out.unsigned_ = u;
      }
    }
    return true;
  }

  /// Appends the UTF-8 encoding of `cp` (already range-checked <= 0x10FFFF).
  static void appendUtf8(std::string& s, uint32_t cp) {
    if (cp < 0x80) {
      s.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      s.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parseHex4(uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      uint32_t d;
      if (c >= '0' && c <= '9')
        d = static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        d = static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        d = static_cast<uint32_t>(c - 'A' + 10);
      else
        return fail("bad hex digit in \\u escape");
      out = (out << 4) | d;
    }
    return true;
  }

  bool parseString(std::string& out) {
    if (!consume('"', "expected '\"'")) return false;
    out.clear();
    for (;;) {
      if (atEnd()) return fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (atEnd()) return fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          uint32_t cp;
          if (!parseHex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must pair with a \uDC00..\uDFFF low half.
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
              pos_ += 2;
              uint32_t lo;
              if (!parseHex4(lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF) return fail("unpaired surrogate in \\u escape");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              return fail("unpaired surrogate in \\u escape");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate in \\u escape");
          }
          appendUtf8(out, cp);
          break;
        }
        default: return fail("unknown escape character");
      }
    }
  }

  bool parseArray(JsonValue& out, uint32_t depth) {
    if (depth >= maxDepth_) return fail("nesting depth limit exceeded");
    ++pos_;  // '['
    out.kind_ = JsonValue::Kind::Array;
    skipWs();
    if (!atEnd() && peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue item;
      skipWs();
      if (!parseValue(item, depth + 1)) return false;
      out.items_.push_back(std::move(item));
      skipWs();
      if (atEnd()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parseObject(JsonValue& out, uint32_t depth) {
    if (depth >= maxDepth_) return fail("nesting depth limit exceeded");
    ++pos_;  // '{'
    out.kind_ = JsonValue::Kind::Object;
    skipWs();
    if (!atEnd() && peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skipWs();
      std::string key;
      if (!parseString(key)) return false;
      // Duplicate keys are always a request-document bug; rejecting them
      // here keeps get()'s first-match lookup unambiguous.
      for (const auto& [k, v] : out.members_)
        if (k == key) return fail("duplicate object key");
      skipWs();
      if (!consume(':', "expected ':' after object key")) return false;
      skipWs();
      JsonValue val;
      if (!parseValue(val, depth + 1)) return false;
      out.members_.emplace_back(std::move(key), std::move(val));
      skipWs();
      if (atEnd()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  uint32_t maxDepth_;
  size_t pos_ = 0;
  std::string error_;
};

bool parseJson(const std::string& text, JsonValue& out, std::string& error, uint32_t maxDepth) {
  out = JsonValue();
  return JsonParser(text, maxDepth).parse(out, error);
}

}  // namespace twill
