#include "obs/json_reader.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace mars::obs {

namespace {

[[noreturn]] void type_error(const JsonValue& v, const char* wanted) {
  throw std::runtime_error(std::string("expected ") + wanted + ", got " +
                           v.kind_name());
}

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue root = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return root;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw JsonParseError(line, column, message);
  }

  [[nodiscard]] bool done() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_whitespace() {
    while (!done()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (done() || peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    if (done()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return parse_string_value();
      case 't': return parse_literal("true", JsonValue::Kind::kBool, true);
      case 'f': return parse_literal("false", JsonValue::Kind::kBool, false);
      case 'n': return parse_literal("null", JsonValue::Kind::kNull, false);
      default: return parse_number();
    }
  }

  JsonValue parse_literal(std::string_view word, JsonValue::Kind kind,
                          bool value) {
    if (text_.substr(pos_, word.size()) != word) {
      fail("invalid literal");
    }
    pos_ += word.size();
    JsonValue v;
    v.kind_ = kind;
    v.bool_ = value;
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!done() && peek() == '-') ++pos_;
    while (!done() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                       peek() == '.' || peek() == 'e' || peek() == 'E' ||
                       peek() == '+' || peek() == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.number_ = value;
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (done()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (done()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(out, parse_hex4()); break;
        default: fail("invalid escape");
      }
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      if (done()) fail("unterminated \\u escape");
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return cp;
  }

  JsonValue parse_string_value() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kString;
    v.string_ = parse_string();
    return v;
  }

  JsonValue parse_array(std::size_t depth) {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    skip_whitespace();
    if (!done() && peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(parse_value(depth + 1));
      skip_whitespace();
      if (done()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parse_object(std::size_t depth) {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    skip_whitespace();
    if (!done() && peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      for (const auto& [existing, unused] : v.object_) {
        if (existing == key) fail("duplicate key '" + key + "'");
      }
      skip_whitespace();
      expect(':');
      v.object_.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      if (done()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).run();
}

const char* JsonValue::kind_name() const {
  switch (kind_) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "bool";
    case Kind::kNumber: return "number";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "?";
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) type_error(*this, "bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) type_error(*this, "number");
  return number_;
}

// Casting a double outside the target's range to an integer is undefined
// behaviour, so the accessor checks the range before the cast.

std::int64_t JsonValue::as_int() const {
  const double n = as_number();
  if (n != std::floor(n)) throw std::runtime_error("expected an integer");
  if (n < -0x1p63 || n >= 0x1p63) {
    throw std::runtime_error(
        "integer out of range: expected [-2^63, 2^63 - 1]");
  }
  return static_cast<std::int64_t>(n);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) type_error(*this, "string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::kArray) type_error(*this, "array");
  return array_;
}

const JsonValue& JsonValue::at(std::size_t index) const {
  return items().at(index);
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (kind_ != Kind::kObject) type_error(*this, "object");
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace mars::obs
