// Contract of the shard codec's JSON reader (sweep/json_value): the flat
// document layout, string views and escapes, exact numbers, and the inputs
// it must refuse.

#include "sweep/json_value.h"

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/status.h"

namespace emsim::sweep {
namespace {

using Kind = JsonNode::Kind;

constexpr double kInf = std::numeric_limits<double>::infinity();

JsonDocument MustParse(std::string_view text) {
  Result<JsonDocument> doc = ParseJson(text);
  EXPECT_TRUE(doc.ok()) << text << ": " << doc.status().ToString();
  return doc.ok() ? std::move(doc).value() : JsonDocument();
}

std::string ParseError(std::string_view text) {
  Result<JsonDocument> doc = ParseJson(text);
  EXPECT_FALSE(doc.ok()) << text;
  return doc.ok() ? std::string() : doc.status().message();
}

TEST(SweepJsonTest, NodesAreFlatInDocumentOrder) {
  const std::string text = R"({"a": [1, {"b": true}, "s"], "c": null})";
  JsonDocument doc = MustParse(text);
  // {} a:[] 1 {} b:true "s" c:null
  ASSERT_EQ(doc.size(), 7u);
  const JsonNode& root = doc.root();
  EXPECT_EQ(root.kind, Kind::kObject);
  EXPECT_EQ(root.end, 7u);
  const JsonNode* a = root.Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, &root + 1);
  EXPECT_EQ(a->end, 5u);
  std::vector<Kind> kinds;
  for (const JsonNode& item : a->children()) {
    kinds.push_back(item.kind);
    EXPECT_TRUE(item.key.empty());
  }
  EXPECT_EQ(kinds, (std::vector<Kind>{Kind::kNumber, Kind::kObject, Kind::kString}));
  const JsonNode* c = root.Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c, a + a->end);
  EXPECT_EQ(c->kind, Kind::kNull);
  EXPECT_EQ(c->end, 1u);
  int scalar_children = 0;
  for ([[maybe_unused]] const JsonNode& child : c->children()) {
    ++scalar_children;
  }
  EXPECT_EQ(scalar_children, 0);
}

TEST(SweepJsonTest, PlainStringsViewTheInput) {
  const std::string text = R"({"name": "fig32"})";
  JsonDocument doc = MustParse(text);
  const JsonNode* name = doc.root().Find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->string, "fig32");
  EXPECT_GE(name->string.data(), text.data());
  EXPECT_LT(name->string.data(), text.data() + text.size());
  EXPECT_EQ(name->key.data(), text.data() + 2);
}

TEST(SweepJsonTest, EscapedKeysAndStringsAreUnescaped) {
  const std::string text =
      R"({"a\"b\\c\/d": "tab\there\nnl", "ctl\u001f": "\u0041\u00e9\u00FF", "e\bf\fr\r": ""})";
  JsonDocument doc = MustParse(text);
  const JsonNode* first = doc.root().Find("a\"b\\c/d");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->string, "tab\there\nnl");
  const JsonNode* second = doc.root().Find("ctl\x1f");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->string, "A\xe9\xff");
  const JsonNode* third = doc.root().Find("e\bf\fr\r");
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third->string, "");

  // The unescaped copies belong to the document and survive a move.
  JsonDocument moved = std::move(doc);
  EXPECT_EQ(moved.root().Find("ctl\x1f")->string, "A\xe9\xff");
}

TEST(SweepJsonTest, RejectsBadEscapes) {
  EXPECT_NE(ParseError(R"(["\u0100"])").find("above U+00FF"), std::string::npos);
  EXPECT_NE(ParseError(R"(["\u00g0"])").find("invalid \\u escape"), std::string::npos);
  EXPECT_NE(ParseError(R"(["\u00)").find("truncated \\u escape"), std::string::npos);
  EXPECT_NE(ParseError(R"(["\x"])").find("invalid escape"), std::string::npos);
  EXPECT_NE(ParseError(R"(["abc)").find("unterminated string"), std::string::npos);
  EXPECT_NE(ParseError(R"(["a\)").find("unterminated string"), std::string::npos);
}

TEST(SweepJsonTest, DepthGuardCountsEveryValue) {
  // 64 nested arrays are fine; a value inside the 64th is the 65th level.
  std::string deepest_ok = std::string(64, '[') + std::string(64, ']');
  EXPECT_TRUE(ParseJson(deepest_ok).ok());
  std::string scalar_inside = std::string(63, '[') + "1" + std::string(63, ']');
  EXPECT_TRUE(ParseJson(scalar_inside).ok());
  std::string too_deep = std::string(64, '[') + "1" + std::string(64, ']');
  EXPECT_NE(ParseError(too_deep).find("nesting too deep"), std::string::npos);
  std::string hostile(100000, '[');
  EXPECT_NE(ParseError(hostile).find("nesting too deep"), std::string::npos);
}

TEST(SweepJsonTest, NumbersKeepDoubleAndExactMagnitude) {
  JsonDocument doc = MustParse(
      R"([-0, 1e+20, 18446744073709551615, -9223372036854775808, 0.1, 2.5E-3, 1e-400, -1e-400])");
  std::vector<const JsonNode*> n;
  for (const JsonNode& item : doc.root().children()) {
    ASSERT_EQ(item.kind, Kind::kNumber);
    n.push_back(&item);
  }
  ASSERT_EQ(n.size(), 8u);

  EXPECT_TRUE(n[0]->is_integral);
  EXPECT_TRUE(n[0]->is_negative);
  EXPECT_EQ(n[0]->magnitude, 0u);
  EXPECT_EQ(1.0 / n[0]->number, -kInf);  // -0.0, as decimal parsing gives.

  EXPECT_FALSE(n[1]->is_integral);
  EXPECT_EQ(n[1]->number, 1e20);

  EXPECT_TRUE(n[2]->is_integral);
  EXPECT_EQ(n[2]->magnitude, UINT64_MAX);
  EXPECT_EQ(n[2]->number, 18446744073709551615.0);

  EXPECT_TRUE(n[3]->is_negative);
  EXPECT_EQ(n[3]->magnitude, uint64_t{1} << 63);
  EXPECT_EQ(n[3]->number, -9223372036854775808.0);

  EXPECT_EQ(n[4]->number, 0.1);
  EXPECT_EQ(n[5]->number, 2.5e-3);

  // Underflow reads as a zero of the token's sign.
  EXPECT_EQ(1.0 / n[6]->number, kInf);
  EXPECT_EQ(1.0 / n[7]->number, -kInf);
}

TEST(SweepJsonTest, IntegralTokensConvertLikeDecimalParsing) {
  // Above 2^53 the double is the integer rounded to nearest, ties to even.
  JsonDocument doc = MustParse("[9007199254740993, 9007199254740995, 18446744073709551614]");
  std::vector<double> values;
  for (const JsonNode& item : doc.root().children()) {
    values.push_back(item.number);
  }
  EXPECT_EQ(values, (std::vector<double>{9007199254740992.0, 9007199254740996.0,
                                         18446744073709551616.0}));
}

TEST(SweepJsonTest, RejectsNumbersOutOfRange) {
  EXPECT_NE(ParseError("18446744073709551616").find("integer out of range"), std::string::npos);
  EXPECT_NE(ParseError("-99999999999999999999").find("integer out of range"),
            std::string::npos);
  EXPECT_NE(ParseError(R"({"total_ms": 1e400})").find("number out of range"),
            std::string::npos);
  EXPECT_NE(ParseError("-1.5e309").find("number out of range"), std::string::npos);
  EXPECT_NE(ParseError("1e99999999999999999999999").find("number out of range"),
            std::string::npos);
  // Four hundred digits overflow without an exponent; the same digits after
  // the point underflow to zero despite a positive exponent.
  EXPECT_NE(ParseError("1" + std::string(400, '0') + ".5").find("number out of range"),
            std::string::npos);
  JsonDocument tiny = MustParse("0." + std::string(400, '0') + "1e5");
  EXPECT_EQ(1.0 / tiny.root().number, kInf);
  // The largest finite double still parses.
  EXPECT_EQ(MustParse("1.7976931348623157e308").root().number, 1.7976931348623157e308);
}

TEST(SweepJsonTest, RejectsMalformedNumbers) {
  for (const char* bad : {"+5", "-", "--1", "1e5e5", "1-2", "1e", "[+1]"}) {
    EXPECT_NE(ParseError(bad).find("invalid number"), std::string::npos) << bad;
  }
}

TEST(SweepJsonTest, TrailingGarbageIsAnError) {
  EXPECT_NE(ParseError("{} x").find("trailing characters after document at offset 3"),
            std::string::npos);
  EXPECT_NE(ParseError("[1]]").find("trailing characters"), std::string::npos);
  EXPECT_NE(ParseError("truex").find("trailing characters"), std::string::npos);
  EXPECT_TRUE(ParseJson(" {\"a\": 1} \n\t\r ").ok());
}

TEST(SweepJsonTest, RejectsStructuralErrors) {
  EXPECT_NE(ParseError("").find("unexpected end of input"), std::string::npos);
  EXPECT_NE(ParseError("{").find("expected object key"), std::string::npos);
  EXPECT_NE(ParseError(R"({"a" 1})").find("expected ':'"), std::string::npos);
  EXPECT_NE(ParseError(R"({"a": 1 "b": 2})").find("expected ',' or '}'"), std::string::npos);
  EXPECT_NE(ParseError("[1 2]").find("expected ',' or ']'"), std::string::npos);
  EXPECT_NE(ParseError("[tru]").find("invalid literal"), std::string::npos);
  EXPECT_NE(ParseError("nul").find("invalid literal"), std::string::npos);
}

TEST(SweepJsonTest, FindReturnsTheFirstOfDuplicateKeys) {
  JsonDocument doc = MustParse(R"({"k": 1, "x": {"k": 9}, "k": 2})");
  const JsonNode* k = doc.root().Find("k");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->magnitude, 1u);
  // Members of nested objects are not members of the root.
  EXPECT_EQ(doc.root().Find("x")->Find("k")->magnitude, 9u);
  EXPECT_EQ(doc.root().Find("missing"), nullptr);
}

TEST(SweepJsonTest, FindOnNonObjectsIsNull) {
  JsonDocument doc = MustParse(R"([{"k": 1}, "k", 3, null, true, []])");
  for (const JsonNode& item : doc.root().children()) {
    if (item.kind != Kind::kObject) {
      EXPECT_EQ(item.Find("k"), nullptr);
    }
  }
  EXPECT_EQ(doc.root().Find("k"), nullptr);  // An array holding an object.
  EXPECT_EQ(MustParse("{}").root().Find(""), nullptr);
  EXPECT_NE(MustParse(R"({"": 0})").root().Find(""), nullptr);
}

}  // namespace
}  // namespace emsim::sweep
