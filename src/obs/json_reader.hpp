#pragma once
// Streaming JSON *reader* — the parse-side twin of obs::JsonWriter.
//
// Parses a complete JSON document into a small value tree (JsonValue).
// Object members preserve insertion order, numbers are doubles (plus an
// exact-integer fast path for values that fit), and errors carry the
// line/column of the offending byte so ScenarioSpec diagnostics can point
// an operator at the exact place a spec file went wrong.
//
// Scope: strict JSON (RFC 8259) minus \u surrogate-pair validation —
// escapes decode to UTF-8, lone surrogates are passed through as the
// replacement sequence. Depth is bounded to keep hostile inputs from
// recursing the stack away.

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mars::obs {

/// Parse failure: `what()` is "line L, column C: message".
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(std::size_t line, std::size_t column,
                 const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ", column " +
                           std::to_string(column) + ": " + message),
        line_(line),
        column_(column) {}

  [[nodiscard]] std::size_t line() const { return line_; }
  [[nodiscard]] std::size_t column() const { return column_; }

 private:
  std::size_t line_, column_;
};

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  using Member = std::pair<std::string, JsonValue>;

  /// Parse one complete document; trailing non-whitespace is an error.
  /// Throws JsonParseError.
  [[nodiscard]] static JsonValue parse(std::string_view text);

  JsonValue() = default;  // null

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }

  /// Typed accessors; throw std::runtime_error on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// Throws on a fraction or a value outside [-2^63, 2^63).
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const;

  // ---- arrays ----
  [[nodiscard]] std::size_t size() const { return array_.size(); }
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] const JsonValue& at(std::size_t index) const;

  // ---- objects (insertion-ordered) ----
  [[nodiscard]] const std::vector<Member>& members() const;
  /// nullptr when absent (or when this value is not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  [[nodiscard]] bool contains(std::string_view key) const {
    return find(key) != nullptr;
  }

  [[nodiscard]] const char* kind_name() const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<Member> object_;
};

}  // namespace mars::obs
