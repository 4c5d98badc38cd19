#include "util/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace tsmo {

std::string JsonWriter::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void JsonWriter::newline_indent() {
  *os_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    for (int k = 0; k < indent_; ++k) *os_ << ' ';
  }
}

void JsonWriter::before_value() {
  started_ = true;
  if (expecting_value_) {
    expecting_value_ = false;
    return;
  }
  if (!stack_.empty()) {
    if (has_items_.back()) *os_ << ',';
    has_items_.back() = true;
    newline_indent();
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  *os_ << '{';
  stack_.push_back(Scope::Object);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  const bool had = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had) newline_indent();
  *os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  *os_ << '[';
  stack_.push_back(Scope::Array);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  const bool had = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had) newline_indent();
  *os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  if (has_items_.back()) *os_ << ',';
  has_items_.back() = true;
  newline_indent();
  *os_ << '"' << escape(name) << "\": ";
  expecting_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  before_value();
  *os_ << '"' << escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    *os_ << "null";  // JSON has no Inf/NaN
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  *os_ << buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  *os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  *os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  *os_ << "null";
  return *this;
}

std::int64_t JsonValue::as_int64(std::int64_t fallback) const noexcept {
  if (!is_number()) return fallback;
  // Integer tokens (no '.', 'e', 'E') re-parse exactly; doubles lose
  // precision above 2^53, which matters for 64-bit fingerprints.
  if (string_.find_first_of(".eE") == std::string::npos) {
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(string_.c_str(), &end, 10);
    if (end != string_.c_str() && errno == 0) return v;
  }
  // 2^63 is exact as a double; casting anything outside [-2^63, 2^63) is
  // undefined, so out-of-range numbers saturate instead.
  constexpr double kTwo63 = 9223372036854775808.0;
  if (number_ >= kTwo63) return std::numeric_limits<std::int64_t>::max();
  if (number_ < -kTwo63) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(number_);
}

const JsonValue* JsonValue::find(const std::string& key) const noexcept {
  if (!is_object()) return nullptr;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return &items_[i];
  }
  return nullptr;
}

/// Recursive-descent parser.  Depth-limited so a hostile body cannot blow
/// the stack (the job plane feeds it network input).
class JsonParser {
 public:
  JsonParser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  std::unique_ptr<JsonValue> parse() {
    auto root = std::make_unique<JsonValue>();
    if (!parse_value(*root, 0)) return nullptr;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return nullptr;
    }
    return root;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const std::string& what) {
    if (error_ != nullptr) {
      *error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) return fail("invalid literal");
    pos_ += len;
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) break;
        const char esc = text_[++pos_];
        ++pos_;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("invalid \\u escape");
            }
            pos_ += 4;
            // UTF-8 encode the BMP code point (surrogate pairs are kept as
            // two 3-byte sequences — lossless for our round-trip needs).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return fail("invalid escape");
        }
        continue;
      }
      if (c < 0x20) return fail("unescaped control character in string");
      out += static_cast<char>(c);
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty()) {
      pos_ = start;
      return fail("invalid number");
    }
    out.kind_ = JsonValue::Kind::Number;
    out.number_ = v;
    out.string_ = token;
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind_ = JsonValue::Kind::Object;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != '"') {
          return fail("expected object key");
        }
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return fail("expected ':'");
        }
        ++pos_;
        JsonValue member;
        if (!parse_value(member, depth + 1)) return false;
        out.keys_.push_back(std::move(key));
        out.items_.push_back(std::move(member));
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos_;
      out.kind_ = JsonValue::Kind::Array;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        JsonValue element;
        if (!parse_value(element, depth + 1)) return false;
        out.items_.push_back(std::move(element));
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out.kind_ = JsonValue::Kind::String;
      return parse_string(out.string_);
    }
    if (c == 't') {
      if (!literal("true", 4)) return false;
      out.kind_ = JsonValue::Kind::Bool;
      out.bool_ = true;
      return true;
    }
    if (c == 'f') {
      if (!literal("false", 5)) return false;
      out.kind_ = JsonValue::Kind::Bool;
      out.bool_ = false;
      return true;
    }
    if (c == 'n') {
      if (!literal("null", 4)) return false;
      out.kind_ = JsonValue::Kind::Null;
      return true;
    }
    return parse_number(out);
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

std::unique_ptr<JsonValue> json_parse(const std::string& text,
                                      std::string* error) {
  return JsonParser(text, error).parse();
}

}  // namespace tsmo
