// Dependency-free JSON value, parser and writer.
//
// The campaign subsystem declares whole experiment grids in JSON files, so
// the simulator needs to read and emit JSON without dragging in an external
// library. This is a small, strict RFC-8259 implementation with two
// properties the campaign files rely on:
//   * object members keep insertion order (stable, diffable emission), and
//   * integers up to the full uint64 range round-trip exactly (workload
//     seeds are SplitMix64 outputs, which double would silently mangle).
// Parse errors carry line:column positions; path-aware error messages are
// layered on top by campaign/spec_io.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace secbus::util {

class Json {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;  // insertion-ordered

  Json() = default;  // null

  // --- constructors ------------------------------------------------------
  [[nodiscard]] static Json null() { return Json(); }
  [[nodiscard]] static Json boolean(bool v);
  [[nodiscard]] static Json number(double v);
  [[nodiscard]] static Json number(std::uint64_t v);
  [[nodiscard]] static Json number(std::int64_t v);
  [[nodiscard]] static Json string(std::string v);
  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();

  // --- inspection ---------------------------------------------------------
  [[nodiscard]] Kind kind() const noexcept {
    return static_cast<Kind>(value_.index());
  }
  [[nodiscard]] bool is_null() const noexcept { return kind() == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind() == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind() == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind() == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return kind() == Kind::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return kind() == Kind::kObject;
  }
  // Number parsed from an integer lexeme (no fraction/exponent) that fits
  // the int64/uint64 range; such numbers round-trip bit-exactly.
  [[nodiscard]] bool is_integer() const noexcept {
    const Number* n = std::get_if<Number>(&value_);
    return n != nullptr && n->int_exact;
  }

  // --- value access (callers check the kind first) ------------------------
  // The const accessors return false / 0 / empty values on a kind mismatch;
  // the mutable items() and members() require the matching kind.
  [[nodiscard]] bool as_bool() const noexcept {
    const bool* b = std::get_if<bool>(&value_);
    return b != nullptr && *b;
  }
  [[nodiscard]] double as_double() const noexcept;
  // False when not an integer-exact number in the target range.
  [[nodiscard]] bool to_u64(std::uint64_t& out) const noexcept;
  [[nodiscard]] bool to_i64(std::int64_t& out) const noexcept;
  [[nodiscard]] const std::string& as_string() const noexcept;
  [[nodiscard]] const Array& items() const noexcept;
  [[nodiscard]] Array& items() { return std::get<Array>(value_); }
  [[nodiscard]] const Object& members() const noexcept;
  [[nodiscard]] Object& members() { return std::get<Object>(value_); }
  [[nodiscard]] std::size_t size() const noexcept {
    return is_array() ? items().size() : members().size();
  }

  // --- building -----------------------------------------------------------
  // Appends (or replaces) a member; keeps this value an object.
  Json& set(std::string key, Json value);
  // Appends to an array; keeps this value an array.
  Json& push(Json value);
  // First member with `key`; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;

  // --- text ---------------------------------------------------------------
  // Strict parse of a complete JSON document (trailing whitespace allowed).
  // On failure returns false and, when `error` is non-null, stores a
  // "line L, column C: message" description.
  [[nodiscard]] static bool parse(std::string_view text, Json& out,
                                  std::string* error = nullptr);

  // Serializes; `indent` > 0 pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 2) const;

  // RFC-8259 string escaping of `s` (quotes included).
  [[nodiscard]] static std::string quote(std::string_view s);

 private:
  void write(std::string& out, int indent, int depth) const;

  // Integer-exact numbers live in (neg, mag); others in dbl.
  struct Number {
    union {
      std::uint64_t mag = 0;
      double dbl;
    };
    bool int_exact = false;
    bool neg = false;
  };

  // One alternative per Kind, in Kind order, so index() is the kind. A
  // single variant keeps a value at 40 bytes; documents with many small
  // values (per-job timing arrays) are dominated by that size.
  std::variant<std::monostate, bool, Number, std::string, Array, Object>
      value_;
};

}  // namespace secbus::util
