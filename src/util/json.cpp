#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

namespace secbus::util {

Json Json::boolean(bool v) {
  Json j;
  j.value_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  Number n;
  n.dbl = v;
  j.value_ = n;
  return j;
}

Json Json::number(std::uint64_t v) {
  Json j;
  Number n;
  n.int_exact = true;
  n.mag = v;
  j.value_ = n;
  return j;
}

Json Json::number(std::int64_t v) {
  Json j;
  Number n;
  n.int_exact = true;
  n.neg = v < 0;
  n.mag = n.neg ? ~static_cast<std::uint64_t>(v) + 1
                : static_cast<std::uint64_t>(v);
  j.value_ = n;
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.value_ = std::move(v);
  return j;
}

Json Json::array() {
  Json j;
  j.value_ = Array();
  return j;
}

Json Json::object() {
  Json j;
  j.value_ = Object();
  return j;
}

double Json::as_double() const noexcept {
  const Number* n = std::get_if<Number>(&value_);
  if (n == nullptr) return 0.0;
  if (!n->int_exact) return n->dbl;
  const double mag = static_cast<double>(n->mag);
  return n->neg ? -mag : mag;
}

bool Json::to_u64(std::uint64_t& out) const noexcept {
  const Number* n = std::get_if<Number>(&value_);
  if (n == nullptr || !n->int_exact || n->neg) return false;
  out = n->mag;
  return true;
}

bool Json::to_i64(std::int64_t& out) const noexcept {
  const Number* n = std::get_if<Number>(&value_);
  if (n == nullptr || !n->int_exact) return false;
  if (n->neg) {
    if (n->mag > 0x8000'0000'0000'0000ULL) return false;
    out = static_cast<std::int64_t>(~n->mag + 1);
  } else {
    if (n->mag > 0x7FFF'FFFF'FFFF'FFFFULL) return false;
    out = static_cast<std::int64_t>(n->mag);
  }
  return true;
}

const std::string& Json::as_string() const noexcept {
  static const std::string kEmpty;
  const std::string* s = std::get_if<std::string>(&value_);
  return s != nullptr ? *s : kEmpty;
}

const Json::Array& Json::items() const noexcept {
  static const Array kEmpty;
  const Array* a = std::get_if<Array>(&value_);
  return a != nullptr ? *a : kEmpty;
}

const Json::Object& Json::members() const noexcept {
  static const Object kEmpty;
  const Object* o = std::get_if<Object>(&value_);
  return o != nullptr ? *o : kEmpty;
}

Json& Json::set(std::string key, Json value) {
  if (!is_object()) value_ = Object();
  for (Member& m : members()) {
    if (m.first == key) {
      m.second = std::move(value);
      return *this;
    }
  }
  members().emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (!is_array()) value_ = Array();
  items().push_back(std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  for (const Member& m : members()) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

namespace {

// RFC-8259 escaping of `s`, quotes included, appended to `out`. Runs of
// bytes that need no escape are copied with one append each.
void append_quoted(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

// Shortest of "%.15g" and "%.17g" that round-trips, as std::to_chars
// (specified to print exactly what printf does for the same format and
// precision) without printf's format parsing and locale.
void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no Inf/NaN; emit null like most writers
    out += "null";
    return;
  }
  char buf[32];
  char* end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 15)
          .ptr;
  double back = 0.0;
  const std::from_chars_result read = std::from_chars(buf, end, back);
  if (read.ec != std::errc{}) {  // out of range: strtod's answer decides
    *end = '\0';
    back = std::strtod(buf, nullptr);
  }
  if (back != v) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        17)
              .ptr;
  }
  out.append(buf, end);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

std::string Json::quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_quoted(out, s);
  return out;
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline_indent = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * d, ' ');
  };
  switch (kind()) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += as_bool() ? "true" : "false";
      break;
    case Kind::kNumber: {
      const Number& n = std::get<Number>(value_);
      if (n.int_exact) {
        if (n.neg) out += '-';
        append_u64(out, n.mag);
      } else {
        append_double(out, n.dbl);
      }
      break;
    }
    case Kind::kString:
      append_quoted(out, as_string());
      break;
    case Kind::kArray: {
      if (items().empty()) {
        out += "[]";
        break;
      }
      out += '[';
      bool first = true;
      for (const Json& item : items()) {
        if (!first) out += ',';
        first = false;
        newline_indent(depth + 1);
        item.write(out, indent, depth + 1);
      }
      newline_indent(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (members().empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const Member& m : members()) {
        if (!first) out += ',';
        first = false;
        newline_indent(depth + 1);
        append_quoted(out, m.first);
        out += indent > 0 ? ": " : ":";
        m.second.write(out, indent, depth + 1);
      }
      newline_indent(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

// --- parser -----------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool run(Json& out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 128;

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

  char advance() noexcept { return text_[pos_++]; }

  void skip_ws() noexcept {
    while (!at_end()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      advance();
    }
  }

  // The position is worked out here, from the text before pos_, so the
  // success path never tracks lines and columns (columns count bytes).
  bool fail(const std::string& message) {
    if (error_ != nullptr && error_->empty()) {
      const std::string_view before = text_.substr(0, pos_);
      const std::size_t line =
          1 + static_cast<std::size_t>(
                  std::count(before.begin(), before.end(), '\n'));
      const std::size_t last_newline = before.rfind('\n');
      const std::size_t col = last_newline == std::string_view::npos
                                  ? pos_ + 1
                                  : pos_ - last_newline;
      *error_ = "line " + std::to_string(line) + ", column " +
                std::to_string(col) + ": " + message;
    }
    return false;
  }

  bool expect(char c) {
    if (at_end() || peek() != c) {
      return fail(std::string("expected '") + c + "'");
    }
    advance();
    return true;
  }

  bool literal(const char* word, Json value, Json& out) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (at_end() || peek() != *p) return fail("invalid literal");
      advance();
    }
    out = std::move(value);
    return true;
  }

  bool parse_value(Json& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case 'n': return literal("null", Json::null(), out);
      case 't': return literal("true", Json::boolean(true), out);
      case 'f': return literal("false", Json::boolean(false), out);
      case '"': return parse_string_value(out);
      case '[': return parse_array(out, depth);
      case '{': return parse_object(out, depth);
      default: return parse_number(out);
    }
  }

  bool parse_array(Json& out, int depth) {
    advance();  // '['
    out = Json::array();
    skip_ws();
    if (!at_end() && peek() == ']') {
      advance();
      return true;
    }
    while (true) {
      Json item;
      skip_ws();
      if (!parse_value(item, depth + 1)) return false;
      out.push(std::move(item));
      skip_ws();
      if (at_end()) return fail("unterminated array");
      if (peek() == ',') {
        advance();
        continue;
      }
      if (peek() == ']') {
        advance();
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_object(Json& out, int depth) {
    advance();  // '{'
    out = Json::object();
    skip_ws();
    if (!at_end() && peek() == '}') {
      advance();
      return true;
    }
    while (true) {
      skip_ws();
      if (at_end() || peek() != '"') return fail("expected object key string");
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      Json value;
      if (!parse_value(value, depth + 1)) return false;
      // Duplicate keys are a spec error in campaign files; reject early so
      // a typo'd second value can't silently win.
      if (out.find(key) != nullptr) {
        return fail("duplicate object key \"" + key + "\"");
      }
      out.members().emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (at_end()) return fail("unterminated object");
      if (peek() == ',') {
        advance();
        continue;
      }
      if (peek() == '}') {
        advance();
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_string_value(Json& out) {
    std::string s;
    if (!parse_string(s)) return false;
    out = Json::string(std::move(s));
    return true;
  }

  bool hex4(std::uint32_t& out) {
    out = 0;
    for (int i = 0; i < 4; ++i) {
      if (at_end()) return fail("truncated \\u escape");
      const char c = advance();
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<std::uint32_t>(c - 'A' + 10);
      else return fail("invalid \\u escape digit");
    }
    return true;
  }

  static void append_utf8(std::string& s, std::uint32_t cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_string(std::string& out) {
    advance();  // '"'
    out.clear();
    while (true) {
      // Bulk-copy the run up to the next quote, escape or control byte.
      const std::size_t run = pos_;
      while (!at_end()) {
        const auto c = static_cast<unsigned char>(peek());
        if (c < 0x20 || c == '"' || c == '\\') break;
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (at_end()) return fail("unterminated string");
      const char c = advance();
      if (c == '"') return true;
      if (c != '\\') return fail("raw control character in string");
      if (at_end()) return fail("truncated escape");
      const char e = advance();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // surrogate pair
            if (at_end() || peek() != '\\') return fail("unpaired surrogate");
            advance();
            if (at_end() || peek() != 'u') return fail("unpaired surrogate");
            advance();
            std::uint32_t low = 0;
            if (!hex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) return fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: return fail("invalid escape character");
      }
    }
  }

  bool parse_number(Json& out) {
    const std::size_t start = pos_;
    bool neg = false;
    if (!at_end() && peek() == '-') {
      neg = true;
      advance();
    }
    if (at_end() || peek() < '0' || peek() > '9') {
      return fail("invalid number");
    }
    bool int_overflow = false;
    std::uint64_t mag = 0;
    if (peek() == '0') {
      advance();
      if (!at_end() && peek() >= '0' && peek() <= '9') {
        return fail("leading zero in number");
      }
    } else {
      while (!at_end() && peek() >= '0' && peek() <= '9') {
        const std::uint64_t digit = static_cast<std::uint64_t>(advance() - '0');
        if (mag > (0xFFFF'FFFF'FFFF'FFFFULL - digit) / 10) {
          int_overflow = true;
        } else {
          mag = mag * 10 + digit;
        }
      }
    }
    bool is_int = !int_overflow;
    if (!at_end() && peek() == '.') {
      is_int = false;
      advance();
      if (at_end() || peek() < '0' || peek() > '9') {
        return fail("digit required after decimal point");
      }
      while (!at_end() && peek() >= '0' && peek() <= '9') advance();
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      is_int = false;
      advance();
      if (!at_end() && (peek() == '+' || peek() == '-')) advance();
      if (at_end() || peek() < '0' || peek() > '9') {
        return fail("digit required in exponent");
      }
      while (!at_end() && peek() >= '0' && peek() <= '9') advance();
    }
    if (is_int && neg && mag > 0x8000'0000'0000'0000ULL) is_int = false;
    if (is_int) {
      if (neg) {
        out = Json::number(static_cast<std::int64_t>(~mag + 1));
      } else {
        out = Json::number(mag);
      }
      return true;
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double value = 0.0;
    const std::from_chars_result r = std::from_chars(first, last, value);
    if (r.ec != std::errc{} || r.ptr != last) {
      // Out of range (1e400, 1e-400): keep strtod's inf / zero.
      const std::string lexeme(first, last);
      value = std::strtod(lexeme.c_str(), nullptr);
    }
    out = Json::number(value);
    return true;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Json::parse(std::string_view text, Json& out, std::string* error) {
  if (error != nullptr) error->clear();
  Parser p(text, error);
  Json value;
  if (!p.run(value)) {
    if (error != nullptr && error->empty()) *error = "invalid JSON";
    return false;
  }
  out = std::move(value);
  return true;
}

}  // namespace secbus::util
