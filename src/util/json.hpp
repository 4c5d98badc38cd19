#pragma once

// Minimal streaming JSON writer (objects, arrays, scalars, correct string
// escaping) plus a small recursive-descent parser (JsonValue/json_parse).
// Used to export run results for external tooling and to accept job
// submissions on the HTTP job plane (DESIGN.md §12) without any
// third-party dependency.

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace tsmo {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os, int indent = 2)
      : os_(&os), indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Writes a key inside an object; must be followed by a value or a
  /// begin_object/begin_array.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// True when all opened scopes are closed again.
  bool complete() const noexcept { return stack_.empty() && started_; }

  /// Escapes a string for embedding in JSON (exposed for tests).
  static std::string escape(const std::string& s);

 private:
  enum class Scope { Object, Array };
  void before_value();
  void newline_indent();

  std::ostream* os_;
  int indent_;
  std::vector<Scope> stack_;
  std::vector<bool> has_items_;
  bool expecting_value_ = false;  // a key was just written
  bool started_ = false;
};

/// An immutable parsed JSON document node.  Numbers are stored as double
/// (plus the raw text so exact 64-bit integers survive via as_int64);
/// objects keep their keys in input order.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::Null; }
  bool is_bool() const noexcept { return kind_ == Kind::Bool; }
  bool is_number() const noexcept { return kind_ == Kind::Number; }
  bool is_string() const noexcept { return kind_ == Kind::String; }
  bool is_array() const noexcept { return kind_ == Kind::Array; }
  bool is_object() const noexcept { return kind_ == Kind::Object; }

  bool as_bool(bool fallback = false) const noexcept {
    return is_bool() ? bool_ : fallback;
  }
  double as_double(double fallback = 0.0) const noexcept {
    return is_number() ? number_ : fallback;
  }
  /// Exact for integers the input spelled without fraction/exponent (the
  /// raw token is re-parsed); otherwise the double is truncated.  Values
  /// beyond the int64 range saturate at its ends.
  std::int64_t as_int64(std::int64_t fallback = 0) const noexcept;
  const std::string& as_string() const noexcept { return string_; }

  const std::vector<JsonValue>& items() const noexcept { return items_; }
  std::size_t size() const noexcept {
    return is_object() ? keys_.size() : items_.size();
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const noexcept;
  /// Object keys, in input order (empty unless is_object()).
  const std::vector<std::string>& keys() const noexcept { return keys_; }

 private:
  friend class JsonParser;
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  ///< String value, or the raw number token
  std::vector<JsonValue> items_;   ///< array elements / object values
  std::vector<std::string> keys_;  ///< object keys, parallel to items_
};

/// Parses a complete JSON document.  Returns nullptr and fills `error`
/// (position-annotated) on malformed input or trailing garbage.
std::unique_ptr<JsonValue> json_parse(const std::string& text,
                                      std::string* error = nullptr);

}  // namespace tsmo
