#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "core/sequential_tsmo.hpp"
#include "harness/report.hpp"
#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

TEST(JsonWriter, ScalarObject) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.key("a").value(1);
  w.key("b").value("x");
  w.key("c").value(true);
  w.key("d").null();
  w.end_object();
  EXPECT_TRUE(w.complete());
  const std::string s = os.str();
  EXPECT_NE(s.find("\"a\": 1"), std::string::npos);
  EXPECT_NE(s.find("\"b\": \"x\""), std::string::npos);
  EXPECT_NE(s.find("\"c\": true"), std::string::npos);
  EXPECT_NE(s.find("\"d\": null"), std::string::npos);
}

TEST(JsonWriter, ArraysAndNesting) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.key("xs").begin_array();
  w.value(1);
  w.value(2);
  w.begin_object();
  w.key("y").value(3.5);
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_TRUE(w.complete());
  // Commas between siblings, none before the first element.
  const std::string s = os.str();
  EXPECT_NE(s.find("1,"), std::string::npos);
  EXPECT_EQ(s.find(",1"), std::string::npos);
}

TEST(JsonWriter, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::escape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonWriter::escape("a\tb"), "a\\tb");
  EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_array();
  w.value(std::nan(""));
  w.value(1.0 / 0.0);
  w.end_array();
  const std::string s = os.str();
  EXPECT_NE(s.find("null"), std::string::npos);
  EXPECT_EQ(s.find("nan"), std::string::npos);
  EXPECT_EQ(s.find("inf"), std::string::npos);
}

TEST(JsonWriter, EmptyContainers) {
  std::ostringstream os;
  JsonWriter w(os, 2);
  w.begin_object();
  w.key("empty_arr").begin_array().end_array();
  w.key("empty_obj").begin_object().end_object();
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_NE(os.str().find("[]"), std::string::npos);
  EXPECT_NE(os.str().find("{}"), std::string::npos);
}

TEST(WriteRunJson, ProducesWellFormedDocument) {
  const Instance inst = generate_named("R1_1_1");
  TsmoParams p;
  p.max_evaluations = 800;
  p.neighborhood_size = 40;
  p.seed = 3;
  const RunResult r = SequentialTsmo(inst, p).run();

  std::ostringstream os;
  write_run_json(os, inst, r);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"algorithm\": \"sequential\""), std::string::npos);
  EXPECT_NE(s.find("\"customers\": 100"), std::string::npos);
  EXPECT_NE(s.find("\"front\""), std::string::npos);
  EXPECT_NE(s.find("\"routes\""), std::string::npos);
  // Balanced braces/brackets (crude well-formedness check).
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['),
            std::count(s.begin(), s.end(), ']'));
}

TEST(WriteRunJson, RoutesOptional) {
  const Instance inst = generate_named("R1_1_1");
  TsmoParams p;
  p.max_evaluations = 400;
  p.neighborhood_size = 40;
  p.seed = 3;
  const RunResult r = SequentialTsmo(inst, p).run();
  std::ostringstream os;
  write_run_json(os, inst, r, /*include_routes=*/false);
  EXPECT_EQ(os.str().find("\"routes\""), std::string::npos);
}

// ==========================================================================
// JsonValue / json_parse (the job-plane request parser)
// ==========================================================================

TEST(JsonParse, ScalarsAndContainers) {
  const auto doc = json_parse(
      "{\"a\": 1, \"b\": -2.5, \"c\": \"hi\", \"d\": true, \"e\": null, "
      "\"f\": [1, 2, 3], \"g\": {\"nested\": \"yes\"}}");
  ASSERT_NE(doc, nullptr);
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->size(), 7u);
  EXPECT_EQ(doc->find("a")->as_int64(), 1);
  EXPECT_DOUBLE_EQ(doc->find("b")->as_double(), -2.5);
  EXPECT_EQ(doc->find("c")->as_string(), "hi");
  EXPECT_TRUE(doc->find("d")->as_bool());
  EXPECT_TRUE(doc->find("e")->is_null());
  ASSERT_TRUE(doc->find("f")->is_array());
  ASSERT_EQ(doc->find("f")->size(), 3u);
  EXPECT_EQ(doc->find("f")->items()[2].as_int64(), 3);
  ASSERT_TRUE(doc->find("g")->is_object());
  EXPECT_EQ(doc->find("g")->find("nested")->as_string(), "yes");
  EXPECT_EQ(doc->find("absent"), nullptr);
}

TEST(JsonParse, KeysKeepInputOrderAndLookupIsTyped) {
  const auto doc = json_parse("{\"z\": 1, \"a\": 2, \"m\": 3}");
  ASSERT_NE(doc, nullptr);
  const std::vector<std::string> want = {"z", "a", "m"};
  EXPECT_EQ(doc->keys(), want);
  // Typed accessors fall back instead of crashing on kind mismatches
  // (numbers keep their raw token in as_string(), by design).
  EXPECT_EQ(doc->find("z")->as_string(), "1");
  EXPECT_FALSE(doc->find("z")->as_bool());
  EXPECT_EQ(doc->find("z")->find("sub"), nullptr);
}

TEST(JsonParse, Int64StaysExactAboveDoublePrecision) {
  // 2^53 + 1 is not representable as a double; the raw token must be.
  const auto doc = json_parse("{\"big\": 9007199254740993, \"neg\": -42}");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->find("big")->as_int64(), 9007199254740993LL);
  EXPECT_EQ(doc->find("neg")->as_int64(), -42);
  // A fractional number truncates instead of re-parsing the raw token.
  const auto frac = json_parse("[2.9]");
  ASSERT_NE(frac, nullptr);
  EXPECT_EQ(frac->items()[0].as_int64(), 2);
}

TEST(JsonParse, Int64SaturatesOutsideItsRange) {
  const auto doc =
      json_parse("[1e300, -1e300, 99999999999999999999, "
                 "-99999999999999999999, 1e999]");
  ASSERT_NE(doc, nullptr);
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(doc->items()[0].as_int64(), kMax);
  EXPECT_EQ(doc->items()[1].as_int64(), kMin);
  EXPECT_EQ(doc->items()[2].as_int64(), kMax);
  EXPECT_EQ(doc->items()[3].as_int64(), kMin);
  EXPECT_EQ(doc->items()[4].as_int64(), kMax);
}

TEST(JsonParse, StringEscapesRoundTripThroughWriter) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("s").value(std::string("tab\there \"quoted\" back\\slash\nnl"));
  w.end_object();
  const auto doc = json_parse(os.str());
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->find("s")->as_string(),
            "tab\there \"quoted\" back\\slash\nnl");
  // \uXXXX escapes decode too (UTF-8 output).
  const auto uni = json_parse("{\"u\": \"a\\u00e9b\"}");
  ASSERT_NE(uni, nullptr);
  EXPECT_EQ(uni->find("u")->as_string(), "a\xc3\xa9" "b");
}

TEST(JsonParse, MalformedInputsReturnNullWithError) {
  const char* bad[] = {
      "",
      "{",
      "{\"a\": }",
      "{\"a\": 1,}",
      "[1, 2",
      "{\"a\" 1}",
      "tru",
      "\"unterminated",
      "{\"a\": 1} trailing",
      "[1 2]",
      "{\"bad\\u00\": 1}",
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_EQ(json_parse(text, &error), nullptr) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

}  // namespace
}  // namespace tsmo
