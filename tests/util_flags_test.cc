#include "util/flags.h"
#include "util/status.h"

#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace emsim {
namespace {

TEST(FlagSetTest, ParsesEveryType) {
  FlagSet flags("t");
  int i = 1;
  int64_t big = 2;
  double d = 3.5;
  std::string s = "x";
  bool b = false;
  flags.AddInt("i", &i, "int");
  flags.AddInt64("big", &big, "int64");
  flags.AddDouble("d", &d, "double");
  flags.AddString("s", &s, "string");
  flags.AddBool("b", &b, "bool");

  const char* argv[] = {"t", "--i", "42", "--big=9000000000", "--d", "2.25",
                        "--s=hello", "--b"};
  ASSERT_TRUE(flags.Parse(8, argv).ok());
  EXPECT_EQ(i, 42);
  EXPECT_EQ(big, 9000000000LL);
  EXPECT_DOUBLE_EQ(d, 2.25);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(b);
}

TEST(FlagSetTest, DefaultsSurviveWhenUnset) {
  FlagSet flags("t");
  int i = 7;
  flags.AddInt("i", &i, "int");
  const char* argv[] = {"t"};
  ASSERT_TRUE(flags.Parse(1, argv).ok());
  EXPECT_EQ(i, 7);
}

TEST(FlagSetTest, UnknownFlagIsError) {
  FlagSet flags("t");
  const char* argv[] = {"t", "--nope", "1"};
  Status s = flags.Parse(3, argv);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("nope"), std::string::npos);
}

TEST(FlagSetTest, MissingValueIsError) {
  FlagSet flags("t");
  int i = 0;
  flags.AddInt("i", &i, "int");
  const char* argv[] = {"t", "--i"};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
}

TEST(FlagSetTest, BadNumberIsError) {
  FlagSet flags("t");
  int i = 0;
  double d = 0;
  flags.AddInt("i", &i, "int");
  flags.AddDouble("d", &d, "double");
  const char* argv1[] = {"t", "--i", "abc"};
  EXPECT_FALSE(flags.Parse(3, argv1).ok());
  const char* argv2[] = {"t", "--d", "1.2.3"};
  EXPECT_FALSE(flags.Parse(3, argv2).ok());
}

TEST(FlagSetTest, IntOutsideIntRangeIsErrorNamingTheFlag) {
  for (const char* text : {"4294967297", "-2147483649", "9223372036854775807"}) {
    SCOPED_TRACE(text);
    FlagSet flags("t");
    int threads = 7;
    flags.AddInt("threads", &threads, "int");
    const char* argv[] = {"t", "--threads", text};
    Status s = flags.Parse(3, argv);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("--threads"), std::string::npos) << s.message();
    EXPECT_EQ(threads, 7);
  }
  FlagSet flags("t");
  int edge = 0;
  flags.AddInt("edge", &edge, "int");
  const char* argv[] = {"t", "--edge", "-2147483648"};
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_EQ(edge, std::numeric_limits<int>::min());
}

TEST(FlagSetTest, NonFiniteDoubleIsErrorNamingTheFlag) {
  for (const char* text : {"nan", "inf", "-inf"}) {
    SCOPED_TRACE(text);
    FlagSet flags("t");
    double d = 1.5;
    flags.AddDouble("timeout_ms", &d, "double");
    const char* argv[] = {"t", "--timeout_ms", text};
    Status s = flags.Parse(3, argv);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("--timeout_ms"), std::string::npos) << s.message();
    EXPECT_EQ(d, 1.5);
  }
}

TEST(FlagSetTest, BoolForms) {
  FlagSet flags("t");
  bool a = false;
  bool b = true;
  bool c = false;
  flags.AddBool("a", &a, "");
  flags.AddBool("b", &b, "");
  flags.AddBool("c", &c, "");
  const char* argv[] = {"t", "--a", "--b=false", "--c=1"};
  ASSERT_TRUE(flags.Parse(4, argv).ok());
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);
  EXPECT_TRUE(c);
}

TEST(FlagSetTest, PositionalArgumentsCollected) {
  FlagSet flags("t");
  int i = 0;
  flags.AddInt("i", &i, "");
  const char* argv[] = {"t", "one", "--i", "5", "two"};
  ASSERT_TRUE(flags.Parse(5, argv).ok());
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "one");
  EXPECT_EQ(flags.positional()[1], "two");
}

TEST(FlagSetTest, UsageListsFlagsWithDefaults) {
  FlagSet flags("prog");
  int i = 9;
  flags.AddInt("alpha", &i, "the alpha knob");
  std::string usage = flags.Usage();
  EXPECT_NE(usage.find("prog"), std::string::npos);
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("the alpha knob"), std::string::npos);
  EXPECT_NE(usage.find("9"), std::string::npos);
}

}  // namespace
}  // namespace emsim
