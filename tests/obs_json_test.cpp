#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/json_reader.hpp"
#include "obs/json_writer.hpp"

namespace {

using namespace mars;
using obs::JsonValue;
using obs::JsonWriter;

TEST(JsonEscape, QuotesBackslashAndShortEscapes) {
  EXPECT_EQ(JsonWriter::escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
}

TEST(JsonEscape, ControlCharactersBecomeUnicodeEscapes) {
  EXPECT_EQ(JsonWriter::escape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(JsonWriter::escape(std::string("\x1f", 1)), "\\u001f");
  EXPECT_EQ(JsonWriter::escape(std::string("a\x00z", 3)), "a\\u0000z");
}

TEST(JsonEscape, Utf8BytesPassThrough) {
  EXPECT_EQ(JsonWriter::escape("héllo→"), "héllo→");
}

TEST(JsonWriter, CompactObjectWithNestingAndCommas) {
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  w.member("a", std::uint64_t{1});
  w.key("arr").begin_array().value(std::int64_t{-2}).value("x").end_array();
  w.key("nested").begin_object().member("b", true).member_null("c")
      .end_object();
  w.end_object();
  EXPECT_EQ(out.str(),
            R"({"a":1,"arr":[-2,"x"],"nested":{"b":true,"c":null}})");
  EXPECT_EQ(w.depth(), 0u);
}

TEST(JsonWriter, EmptyContainersHaveNoInnerWhitespace) {
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/2);
  w.begin_object();
  w.key("empty_obj").begin_object().end_object();
  w.key("empty_arr").begin_array().end_array();
  w.end_object();
  EXPECT_NE(out.str().find("{}"), std::string::npos);
  EXPECT_NE(out.str().find("[]"), std::string::npos);
}

TEST(JsonWriter, IndentedOutputNestsByDepth) {
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/2);
  w.begin_object().key("k").begin_array().value(std::uint64_t{7}).end_array()
      .end_object();
  EXPECT_EQ(out.str(), "{\n  \"k\": [\n    7\n  ]\n}");
}

TEST(JsonWriter, DoublesRoundTripAndStayShort) {
  const auto render = [](double v) {
    std::ostringstream out;
    JsonWriter(out, 0).value(v);
    return out.str();
  };
  EXPECT_EQ(render(0.1), "0.1");
  EXPECT_EQ(render(2.0), "2");
  EXPECT_EQ(render(-1.5), "-1.5");
  // An awkward double must still parse back to the identical bits.
  const double ugly = 0.1 + 0.2;
  EXPECT_EQ(std::stod(render(ugly)), ugly);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream out;
  JsonWriter w(out, 0);
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(out.str(), "[null,null,null]");
}

TEST(JsonWriter, KeysAreEscaped) {
  std::ostringstream out;
  JsonWriter w(out, 0);
  w.begin_object().member("we\"ird\n", std::uint64_t{1}).end_object();
  EXPECT_EQ(out.str(), R"({"we\"ird\n":1})");
}

TEST(JsonReader, IntegerAccessorsRejectDoublesOutOfRange) {
  // 1e20, 2^64 and 2^63 are past every int64; casting them would be
  // undefined behaviour.
  EXPECT_THROW((void)JsonValue::parse("1e20").as_int(), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("18446744073709551616").as_int(),
               std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("9223372036854775808").as_int(),
               std::runtime_error);
  // -2^63 - 1 has no double: it parses to -2^63 itself, which fits. The
  // next double below it, -2^63 - 2048, does not.
  EXPECT_EQ(JsonValue::parse("-9223372036854775809").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW((void)JsonValue::parse("-9223372036854777856").as_int(),
               std::runtime_error);
  // The largest double below 2^63 still converts exactly; the largest
  // below 2^64 is out of range.
  EXPECT_EQ(JsonValue::parse("9223372036854774784").as_int(),
            std::int64_t{9223372036854774784});
  EXPECT_THROW((void)JsonValue::parse("18446744073709549568").as_int(),
               std::runtime_error);
  // Negative integers convert; fractions are rejected.
  EXPECT_EQ(JsonValue::parse("-1").as_int(), -1);
  EXPECT_THROW((void)JsonValue::parse("1.5").as_int(), std::runtime_error);
}

}  // namespace
