// Minimal JSON reader for machine-readable artefacts (shard merge).
//
// Counterpart of json_writer: a recursive-descent parser over the JSON
// grammar with no external dependency. Numbers keep their source text so
// 64-bit integers round-trip exactly - as_u64/as_i64 parse the token
// directly instead of going through a double. Malformed input and type or
// key lookup mismatches throw std::runtime_error with a position.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace avglocal::support {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }

  /// Scalar accessors; each throws std::runtime_error on a type mismatch
  /// (and, for the integer accessors, on range or syntax errors).
  bool as_bool() const;
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  double as_double() const;
  const std::string& as_string() const;

  /// Array element count / access (throws unless an array).
  std::size_t size() const;
  const JsonValue& operator[](std::size_t index) const;

  /// Object member lookup: find returns nullptr when absent, at throws.
  const JsonValue* find(std::string_view key) const;
  const JsonValue& at(std::string_view key) const;

  /// Object members in document order (throws unless an object).
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

 private:
  friend JsonValue parse_json(std::string_view);
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::string scalar_;  ///< number token or string payload
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses one JSON document (surrounding whitespace allowed; trailing
/// non-whitespace rejected). Throws std::runtime_error on malformed input,
/// including arrays and objects nested deeper than 64 levels.
JsonValue parse_json(std::string_view text);

}  // namespace avglocal::support
