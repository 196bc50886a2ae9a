// util::Json: parsing, exact-integer round trips, emission, and error
// positions — the substrate campaign files stand on. The number writer and
// reader are pinned against a printf/strtod oracle, since every checkpoint,
// shard file and fingerprint depends on their exact bytes.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <utility>
#include <vector>

namespace secbus::util {
namespace {

Json parse_ok(const std::string& text) {
  Json j;
  std::string error;
  EXPECT_TRUE(Json::parse(text, j, &error)) << error;
  return j;
}

std::string parse_error(const std::string& text) {
  Json j;
  std::string error;
  EXPECT_FALSE(Json::parse(text, j, &error)) << "parsed: " << text;
  EXPECT_FALSE(error.empty());
  return error;
}

TEST(Json, ParsesPrimitives) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok("true").as_bool());
  EXPECT_FALSE(parse_ok("false").as_bool());
  EXPECT_EQ(parse_ok("\"hi\"").as_string(), "hi");
  EXPECT_DOUBLE_EQ(parse_ok("1.5").as_double(), 1.5);
  EXPECT_DOUBLE_EQ(parse_ok("-2e3").as_double(), -2000.0);
}

TEST(Json, IntegersAreExact) {
  // Full uint64 range: doubles would mangle this seed-sized value.
  const Json j = parse_ok("18446744073709551615");
  EXPECT_TRUE(j.is_integer());
  std::uint64_t u = 0;
  EXPECT_TRUE(j.to_u64(u));
  EXPECT_EQ(u, 18446744073709551615ULL);

  std::int64_t i = 0;
  EXPECT_TRUE(parse_ok("-9223372036854775808").to_i64(i));
  EXPECT_EQ(i, std::numeric_limits<std::int64_t>::min());

  // Fractions and exponents are not integers.
  EXPECT_FALSE(parse_ok("1.0").is_integer());
  EXPECT_FALSE(parse_ok("1e2").is_integer());
  EXPECT_FALSE(parse_ok("-1").to_u64(u));
}

TEST(Json, IntegerDumpRoundTrips) {
  const std::string text = "18446744073709551615";
  EXPECT_EQ(parse_ok(text).dump(0), text);
  EXPECT_EQ(Json::number(std::uint64_t{42}).dump(0), "42");
  EXPECT_EQ(Json::number(std::int64_t{-7}).dump(0), "-7");
}

TEST(Json, ObjectsKeepInsertionOrderAndSupportLookup) {
  const Json j = parse_ok(R"({"b": 1, "a": 2, "c": [1, 2, 3]})");
  ASSERT_TRUE(j.is_object());
  ASSERT_EQ(j.size(), 3u);
  EXPECT_EQ(j.members()[0].first, "b");
  EXPECT_EQ(j.members()[1].first, "a");
  ASSERT_NE(j.find("c"), nullptr);
  EXPECT_EQ(j.find("c")->items().size(), 3u);
  EXPECT_EQ(j.find("missing"), nullptr);
}

TEST(Json, StringEscapes) {
  const Json j = parse_ok(R"("a\"b\\c\ndAé")");
  EXPECT_EQ(j.as_string(), "a\"b\\c\nd" "A" "\xc3\xa9");
  // Surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(parse_ok(R"("😀")").as_string(), "\xf0\x9f\x98\x80");
}

TEST(Json, DumpParsesBack) {
  const std::string text =
      R"({"name":"x","n":3,"f":0.25,"flag":true,"none":null,)"
      R"("arr":[1,"two",{"k":"v"}]})";
  const Json j = parse_ok(text);
  const Json again = parse_ok(j.dump());       // pretty
  const Json compact = parse_ok(j.dump(0));    // compact
  EXPECT_EQ(again.dump(0), compact.dump(0));
  EXPECT_EQ(again.find("arr")->items()[2].find("k")->as_string(), "v");
}

TEST(Json, ErrorsCarryLineAndColumn) {
  EXPECT_NE(parse_error("{\n  \"a\": 1,\n  bad\n}").find("line 3"),
            std::string::npos);
  EXPECT_NE(parse_error("[1, 2,]").find("column"), std::string::npos);
}

TEST(Json, RejectsMalformedDocuments) {
  parse_error("");
  parse_error("{");
  parse_error("[1 2]");
  parse_error("{\"a\" 1}");
  parse_error("{\"a\": 1} extra");
  parse_error("01");
  parse_error("1.");
  parse_error("\"unterminated");
  parse_error("nulL");
  parse_error("{\"a\": 1, \"a\": 2}");  // duplicate keys rejected
}

// The writer's number format, spelled with printf and strtod: "%.15g" when
// that reads back to the same double, else "%.17g"; non-finite -> null.
std::string oracle_number(double v) {
  if (!std::isfinite(v)) return "null";
  char longer[32];
  std::snprintf(longer, sizeof longer, "%.17g", v);
  char shorter[32];
  std::snprintf(shorter, sizeof shorter, "%.15g", v);
  return std::strtod(shorter, nullptr) == v ? shorter : longer;
}

std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

double from_bits(std::uint64_t u) {
  double v = 0.0;
  std::memcpy(&v, &u, sizeof v);
  return v;
}

// Parsing `text` yields bit-for-bit the double strtod reads from it.
void expect_parses_like_strtod(const std::string& text) {
  const double expected = std::strtod(text.c_str(), nullptr);
  const Json j = parse_ok(text);
  ASSERT_TRUE(j.is_number()) << text;
  EXPECT_EQ(bits_of(j.as_double()), bits_of(expected)) << text;
}

TEST(JsonNumbers, EdgeDoublesMatchThePrintfOracle) {
  const double min_sub = std::numeric_limits<double>::denorm_min();
  std::vector<double> edges = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 2.0 / 3.0, 0.25,
      DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, DBL_EPSILON, min_sub, -min_sub,
      DBL_MIN - min_sub, 2.5e-310, 123456789012345.0, 1234567890123456.0,
      12345678901234567.0, 9007199254740993.0, 1.5e300, 4.35, 0.3,
  };
  // "%g" switches between fixed and exponent notation at 1e-5 and at the
  // precision (1e15 for 15 digits, 1e17 for 17); probe each side.
  for (const double pivot : {1e-5, 1e-4, 1e15, 1e16, 1e17}) {
    double below = pivot;
    double above = pivot;
    for (int step = 0; step < 4; ++step) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, DBL_MAX);
      edges.push_back(below);
      edges.push_back(above);
    }
    edges.push_back(pivot);
    edges.push_back(-pivot);
    edges.push_back(pivot * 0.999999999999999);
    edges.push_back(pivot * 1.000000000000001);
  }
  for (const double v : edges) {
    EXPECT_EQ(Json::number(v).dump(0), oracle_number(v))
        << "bits " << bits_of(v);
  }
}

TEST(JsonNumbers, NonFiniteBecomesNull) {
  for (const double v : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(Json::number(v).dump(0), "null");
  }
}

// Seeded sweep of 2^20 doubles: half uniform bit patterns (every exponent,
// subnormals, the odd NaN), half short decimals of the kind the simulator
// reports (ratios, means, rates), where "%.15g" usually wins.
TEST(JsonNumbers, RandomSweepMatchesThePrintfOracle) {
  std::mt19937_64 rng(0x5ec0b05u);
  std::uniform_int_distribution<int> digits(1, 17);
  std::uniform_int_distribution<int> exponent(-30, 30);
  std::size_t mismatches = 0;
  const std::size_t kCount = std::size_t{1} << 20;
  for (std::size_t i = 0; i < kCount; ++i) {
    double v = 0.0;
    if (i % 2 == 0) {
      v = from_bits(rng());
    } else {
      const int d = digits(rng);
      const double mantissa = static_cast<double>(
          rng() % static_cast<std::uint64_t>(std::pow(10.0, d)));
      v = mantissa * std::pow(10.0, exponent(rng) - d);
    }
    const std::string got = Json::number(v).dump(0);
    const std::string want = oracle_number(v);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << bits_of(v) << ": got " << got << ", want "
                    << want;
    }
    // A fraction or exponent lexeme reads back exactly as strtod reads it.
    if (want.find_first_of(".en") != std::string::npos && want != "null") {
      Json back;
      ASSERT_TRUE(Json::parse(got, back)) << got;
      if (bits_of(back.as_double()) !=
              bits_of(std::strtod(want.c_str(), nullptr)) &&
          ++mismatches <= 5) {
        ADD_FAILURE() << "parse of " << got << " differs from strtod";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonNumbers, ParsesLikeStrtodAtTheRangeEdges) {
  for (const char* text :
       {"1e400", "-1e400", "1e-400", "-1e-400", "4.9e-324", "5e-324",
        "2.4703282292062327e-324", "2.4703282292062328e-324",
        "2.2250738585072011e-308", "2.2250738585072014e-308",
        "1.7976931348623157e308", "1.7976931348623159e308", "0.0", "-0.0",
        "18446744073709551616", "-9223372036854775809",
        "0.1000000000000000055511151231257827", "123456789e-300", "1E5",
        "-2.5E-3", "1e+2"}) {
    expect_parses_like_strtod(text);
  }
  // Out of range keeps strtod's answer: inf (written as null) and zero.
  EXPECT_TRUE(std::isinf(parse_ok("1e400").as_double()));
  EXPECT_EQ(parse_ok("1e400").dump(0), "null");
  EXPECT_EQ(parse_ok("1e-400").as_double(), 0.0);
}

TEST(JsonErrors, MessagesAndPositionsArePinned) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", "line 1, column 1: unexpected end of input"},
      {"{", "line 1, column 2: expected object key string"},
      {"[1 2]", "line 1, column 4: expected ',' or ']' in array"},
      {"{\"a\" 1}", "line 1, column 6: expected ':'"},
      {"{\"a\": 1} extra",
       "line 1, column 10: trailing characters after document"},
      {"01", "line 1, column 2: leading zero in number"},
      {"1.", "line 1, column 3: digit required after decimal point"},
      {"-", "line 1, column 2: invalid number"},
      {"1e", "line 1, column 3: digit required in exponent"},
      {"1e+", "line 1, column 4: digit required in exponent"},
      {"\"unterminated", "line 1, column 14: unterminated string"},
      {"nulL", "line 1, column 4: invalid literal"},
      {"{\"a\": 1, \"a\": 2}",
       "line 1, column 16: duplicate object key \"a\""},
      {"{\n  \"a\": 1,\n  bad\n}",
       "line 3, column 3: expected object key string"},
      {"[1, 2,]", "line 1, column 7: invalid number"},
      {"\"a\nb\"", "line 2, column 1: raw control character in string"},
      {"[\"ok\",\n \"tab\there\"]",
       "line 2, column 7: raw control character in string"},
      {"\"\\x\"", "line 1, column 4: invalid escape character"},
      {"\"abc\\", "line 1, column 6: truncated escape"},
      {"\"\\u12", "line 1, column 6: truncated \\u escape"},
      {"\"\\u12G4\"", "line 1, column 7: invalid \\u escape digit"},
      {"\"\\ud800\"", "line 1, column 8: unpaired surrogate"},
      {"\"\\ud800x\"", "line 1, column 8: unpaired surrogate"},
      {"\"\\ud800\\u0041\"", "line 1, column 14: invalid low surrogate"},
      {"\"\\udc00\"", "line 1, column 8: unpaired surrogate"},
      {"[\n\n   1,\n  }", "line 4, column 3: invalid number"},
      {"{\"k\":\"v\"\n,\"k\":1}",
       "line 2, column 7: duplicate object key \"k\""},
      {"\t[1,\r\n 2 x]", "line 2, column 4: expected ',' or ']' in array"},
      {"{\"a\":\n  [true, fals]}", "line 2, column 14: invalid literal"},
      {"{1: 2}", "line 1, column 2: expected object key string"},
      {"[1,\n2\n", "line 3, column 1: unterminated array"},
      {std::string(200, '['), "line 1, column 130: nesting too deep"},
  };
  for (const auto& [text, message] : cases) {
    EXPECT_EQ(parse_error(text), message) << text;
  }
}

TEST(Json, QuoteEscapesControlBytesAndKeepsTheRest) {
  EXPECT_EQ(Json::quote("plain"), "\"plain\"");
  EXPECT_EQ(Json::quote(std::string("a\0b\x1f\x7f", 5)),
            "\"a\\u0000b\\u001f\x7f\"");
  EXPECT_EQ(Json::quote("q\"b\\\b\f\n\r\t\xc3\xa9"),
            "\"q\\\"b\\\\\\b\\f\\n\\r\\t\xc3\xa9\"");
  // Members and values take the same path as quote().
  Json j = Json::object();
  j.set("k\n", Json::string("v\x01"));
  EXPECT_EQ(j.dump(0), "{\"k\\n\":\"v\\u0001\"}");
}

TEST(Json, BuilderApi) {
  Json j = Json::object();
  j.set("x", Json::number(std::uint64_t{1}));
  j.set("x", Json::number(std::uint64_t{2}));  // replaces
  Json arr = Json::array();
  arr.push(Json::string("a"));
  j.set("list", std::move(arr));
  EXPECT_EQ(j.dump(0), R"({"x":2,"list":["a"]})");
}

}  // namespace
}  // namespace secbus::util
