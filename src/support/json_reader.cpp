#include "support/json_reader.hpp"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <stdexcept>

namespace avglocal::support {

namespace {

[[noreturn]] void fail(const std::string& what) { throw std::runtime_error("json: " + what); }

}  // namespace

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) fail("expected a boolean");
  return bool_;
}

std::uint64_t JsonValue::as_u64() const {
  if (type_ != Type::kNumber) fail("expected a number");
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(scalar_.data(), scalar_.data() + scalar_.size(), value);
  if (ec != std::errc{} || ptr != scalar_.data() + scalar_.size()) {
    fail("number '" + scalar_ + "' is not an unsigned 64-bit integer");
  }
  return value;
}

double JsonValue::as_double() const {
  if (type_ != Type::kNumber) fail("expected a number");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(scalar_.c_str(), &end);
  if (errno != 0 || end != scalar_.c_str() + scalar_.size()) {
    fail("number '" + scalar_ + "' is not a double");
  }
  return value;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) fail("expected a string");
  return scalar_;
}

std::size_t JsonValue::size() const {
  if (type_ != Type::kArray) fail("expected an array");
  return items_.size();
}

const JsonValue& JsonValue::operator[](std::size_t index) const {
  if (type_ != Type::kArray) fail("expected an array");
  if (index >= items_.size()) fail("array index out of range");
  return items_[index];
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) fail("expected an object");
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) fail("missing key '" + std::string(key) + "'");
  return *value;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  if (type_ != Type::kObject) fail("expected an object");
  return members_;
}

/// Deepest array/object nesting a document may use. The parser recurses
/// once per level, so an unbounded depth lets one hostile line overflow
/// the stack; every document the project writes nests at most 4 deep.
constexpr std::size_t kMaxDepth = 64;

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) error("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void error(const std::string& what) const {
    fail(what + " at offset " + std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) error("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) error(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  /// `depth` = containers enclosing this value.
  JsonValue parse_value(std::size_t depth = 0) {
    const char c = peek();
    if ((c == '{' || c == '[') && depth >= kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    switch (c) {
      case '{':
        return parse_object(depth + 1);
      case '[':
        return parse_array(depth + 1);
      case '"': {
        JsonValue value;
        value.type_ = JsonValue::Type::kString;
        value.scalar_ = parse_string();
        return value;
      }
      case 't': {
        if (!consume_literal("true")) error("bad literal");
        JsonValue value;
        value.type_ = JsonValue::Type::kBool;
        value.bool_ = true;
        return value;
      }
      case 'f': {
        if (!consume_literal("false")) error("bad literal");
        JsonValue value;
        value.type_ = JsonValue::Type::kBool;
        return value;
      }
      case 'n': {
        if (!consume_literal("null")) error("bad literal");
        return JsonValue{};
      }
      default:
        return parse_number();
    }
  }

  JsonValue parse_object(std::size_t depth) {
    expect('{');
    JsonValue value;
    value.type_ = JsonValue::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      if (peek() != '"') error("expected a member name");
      std::string name = parse_string();
      expect(':');
      value.members_.emplace_back(std::move(name), parse_value(depth));
      const char next = peek();
      ++pos_;
      if (next == '}') return value;
      if (next != ',') error("expected ',' or '}'");
    }
  }

  JsonValue parse_array(std::size_t depth) {
    expect('[');
    JsonValue value;
    value.type_ = JsonValue::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.items_.push_back(parse_value(depth));
      const char next = peek();
      ++pos_;
      if (next == ']') return value;
      if (next != ',') error("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          // Artefacts are ASCII; accept \u00XX and reject anything wider so
          // the reader stays honest about what it supports.
          if (pos_ + 4 > text_.size()) error("truncated \\u escape");
          const std::string_view hex = text_.substr(pos_, 4);
          pos_ += 4;
          unsigned code = 0;
          const auto [ptr, ec] = std::from_chars(hex.data(), hex.data() + 4, code, 16);
          if (ec != std::errc{} || ptr != hex.data() + 4) error("bad \\u escape");
          if (code > 0x7F) error("non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          error("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    skip_whitespace();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) error("expected a value");
    JsonValue value;
    value.type_ = JsonValue::Type::kNumber;
    value.scalar_.assign(text_.substr(start, pos_ - start));
    // Validate the token now so malformed numbers fail at parse time.
    errno = 0;
    char* end = nullptr;
    std::strtod(value.scalar_.c_str(), &end);
    if (errno != 0 || end != value.scalar_.c_str() + value.scalar_.size()) {
      error("malformed number '" + value.scalar_ + "'");
    }
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(std::string_view text) { return JsonParser(text).parse_document(); }

}  // namespace avglocal::support
