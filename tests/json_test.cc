// Unit tests for util/json.h: the streaming writer (compact + pretty +
// fixed-precision bench style) and the DOM parser used by the serving
// protocol.
#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace graphite {
namespace {

TEST(JsonWriterTest, CompactObject) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a").Int(1);
  w.Key("b").String("x");
  w.Key("c").Bool(true);
  w.Key("d").Null();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"a\": 1, \"b\": \"x\", \"c\": true, \"d\": null}");
}

TEST(JsonWriterTest, NestedArrays) {
  JsonWriter w;
  w.BeginArray();
  w.BeginArray().Int(1).Int(2).EndArray();
  w.BeginArray().EndArray();
  w.Int(-3);
  w.EndArray();
  EXPECT_EQ(w.str(), "[[1, 2], [], -3]");
}

TEST(JsonWriterTest, FixedMatchesBenchStyle) {
  JsonWriter w;
  w.BeginObject();
  w.Key("wall_ms").Fixed(3.25, 3);
  w.Key("ratio").Fixed(2.0, 2);
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"wall_ms\": 3.250, \"ratio\": 2.00}");
}

TEST(JsonWriterTest, DoubleShortestRoundTrip) {
  JsonWriter w;
  w.BeginArray();
  w.Double(0.5);
  w.Double(3.0);  // integral doubles keep a ".0" marker
  w.Double(1.0 / 3.0);
  w.EndArray();
  auto doc = ParseJson(w.str());
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ(doc->items()[0].AsDouble(), 0.5);
  EXPECT_DOUBLE_EQ(doc->items()[1].AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(doc->items()[2].AsDouble(), 1.0 / 3.0);
  EXPECT_NE(w.str().find("3.0"), std::string::npos);
}

TEST(JsonWriterTest, NonFiniteBecomesNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.Double(std::numeric_limits<double>::infinity());
  w.EndArray();
  EXPECT_EQ(w.str(), "[null, null]");
}

TEST(JsonWriterTest, StringEscapes) {
  JsonWriter w;
  w.String("a\"b\\c\n\t\x01");
  EXPECT_EQ(w.str(), "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(JsonWriterTest, RawEmbedsVerbatim) {
  JsonWriter w;
  w.BeginObject();
  w.Key("result").Raw("{\"x\": [1, 2]}");
  w.Key("after").Int(9);
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"result\": {\"x\": [1, 2]}, \"after\": 9}");
}

TEST(JsonWriterTest, PrettyMode) {
  JsonWriter w(2);
  w.BeginObject();
  w.Key("a").Int(1);
  w.Key("b").BeginArray().Int(2).EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_EQ(ParseJson("true")->AsBool(), true);
  EXPECT_EQ(ParseJson("-42")->AsInt(), -42);
  EXPECT_DOUBLE_EQ(ParseJson("2.5e3")->AsDouble(), 2500.0);
  EXPECT_EQ(ParseJson("\"hi\"")->AsString(), "hi");
}

TEST(JsonParseTest, BigIntegersStayExact) {
  const int64_t big = 9007199254740993;  // not representable as double
  auto doc = ParseJson(std::to_string(big));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->AsInt(), big);
}

// AsInt truncates a double only inside int64 range; NaN and doubles
// outside it (2^63 parses as one) give the default instead of an
// undefined cast.
TEST(JsonTest, AsIntCastsOnlyDoublesInInt64Range) {
  EXPECT_EQ(ParseJson("3.9")->AsInt(), 3);
  EXPECT_EQ(ParseJson("-3.9")->AsInt(), -3);
  EXPECT_EQ(ParseJson("-9223372036854775808.0")->AsInt(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(ParseJson("9223372036854775807")->AsInt(),
            std::numeric_limits<int64_t>::max());
  for (const char* text : {"9223372036854775808", "-9223372036854775809.5e3",
                           "1e300", "-1e300"}) {
    const auto doc = ParseJson(text);
    ASSERT_TRUE(doc.ok()) << text;
    EXPECT_EQ(doc->type(), JsonValue::Type::kDouble) << text;
    EXPECT_EQ(doc->AsInt(-7), -7) << text;
  }
  EXPECT_EQ(JsonValue::MakeDouble(std::nan("")).AsInt(-7), -7);
  EXPECT_EQ(JsonValue::MakeDouble(
                std::numeric_limits<double>::infinity()).AsInt(-7), -7);
}

TEST(JsonParseTest, ObjectLookups) {
  auto doc = ParseJson(
      "{\"op\": \"run\", \"source\": 3, \"cache\": false, "
      "\"scale\": 0.5, \"window\": [2, 8]}");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetString("op"), "run");
  EXPECT_EQ(doc->GetInt("source", -1), 3);
  EXPECT_EQ(doc->GetBool("cache", true), false);
  EXPECT_DOUBLE_EQ(doc->GetDouble("scale"), 0.5);
  EXPECT_EQ(doc->GetInt("missing", 7), 7);
  const JsonValue* win = doc->Find("window");
  ASSERT_NE(win, nullptr);
  ASSERT_EQ(win->items().size(), 2u);
  EXPECT_EQ(win->items()[1].AsInt(), 8);
}

TEST(JsonParseTest, UnicodeEscapes) {
  auto doc = ParseJson("\"a\\u00e9\\u20ac\\ud83d\\ude00b\"");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->AsString(), "a\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80"
                             "b");
}

TEST(JsonParseTest, Errors) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());  // trailing characters
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  EXPECT_FALSE(ParseJson(deep).ok());  // depth cap
}

TEST(JsonParseTest, RoundTripThroughWriter) {
  const std::string text =
      "{\"a\": [1, 2.5, \"x\"], \"b\": {\"c\": null, \"d\": false}}";
  auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok());
  JsonWriter w;
  doc->WriteTo(&w);
  EXPECT_EQ(w.str(), text);  // key order preserved, same compact style
}

}  // namespace
}  // namespace graphite
