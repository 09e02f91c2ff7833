// Minimal JSON value, parser and writer.
//
// The bulk checkpoint manifest and the bench baseline gate read back
// documents the tool itself wrote, so this is a small, dependency-free JSON
// implementation tuned for that: a variant value type, a strict
// recursive-descent parser with line/column error reporting, and a compact
// (single-line) writer that composes with base/strings.h json_escape.
//
// Numbers are stored as double (integers up to 2^53 round-trip exactly,
// which covers every counter this tool emits). Object member order is
// preserved, so write(parse(x)) is stable.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace mcrt {

class Json;

struct JsonParseError {
  std::size_t offset = 0;  ///< byte offset of the offending character
  std::string message;
};

/// A JSON value: null, bool, number, string, array or object.
class Json {
 public:
  using Array = std::vector<Json>;
  /// Insertion-ordered members; duplicate keys keep the last value on
  /// lookup but all entries on iteration.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double n) : value_(n) {}
  Json(std::int64_t n) : value_(static_cast<double>(n)) {}
  Json(int n) : value_(static_cast<double>(n)) {}
  Json(std::size_t n) : value_(static_cast<double>(n)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  [[nodiscard]] static Json array() { return Json(Array{}); }
  [[nodiscard]] static Json object() { return Json(Object{}); }

  [[nodiscard]] bool is_null() const { return holds<std::nullptr_t>(); }
  [[nodiscard]] bool is_bool() const { return holds<bool>(); }
  [[nodiscard]] bool is_number() const { return holds<double>(); }
  [[nodiscard]] bool is_string() const { return holds<std::string>(); }
  [[nodiscard]] bool is_array() const { return holds<Array>(); }
  [[nodiscard]] bool is_object() const { return holds<Object>(); }

  // Typed accessors; defaults returned on type mismatch, so readers of
  // machine-generated documents stay terse.
  [[nodiscard]] bool as_bool(bool fallback = false) const {
    return is_bool() ? std::get<bool>(value_) : fallback;
  }
  [[nodiscard]] double as_number(double fallback = 0) const {
    return is_number() ? std::get<double>(value_) : fallback;
  }
  [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const {
    return is_number() ? static_cast<std::int64_t>(std::get<double>(value_))
                       : fallback;
  }
  [[nodiscard]] const std::string& as_string() const {
    static const std::string empty;
    return is_string() ? std::get<std::string>(value_) : empty;
  }
  [[nodiscard]] const Array& as_array() const {
    static const Array empty;
    return is_array() ? std::get<Array>(value_) : empty;
  }
  [[nodiscard]] const Object& as_object() const {
    static const Object empty;
    return is_object() ? std::get<Object>(value_) : empty;
  }

  /// Object member lookup (last entry wins); nullptr when absent or when
  /// this value is not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// find(), but a missing member reads as a null Json.
  [[nodiscard]] const Json& at(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const {
    return find(key) != nullptr;
  }

  /// Appends/overwrites an object member (keeps first-set order).
  void set(std::string key, Json value);
  /// Appends an array element.
  void push_back(Json value);

  /// Compact single-line serialization (no insignificant whitespace).
  [[nodiscard]] std::string write() const;

  /// Strict parse of a complete document (trailing garbage is an error).
  [[nodiscard]] static std::variant<Json, JsonParseError> parse(
      std::string_view text);

 private:
  template <typename T>
  [[nodiscard]] bool holds() const {
    return std::holds_alternative<T>(value_);
  }

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

}  // namespace mcrt
