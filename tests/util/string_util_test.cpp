#include "util/string_util.hpp"

#include <gtest/gtest.h>

namespace iobts {
namespace {

TEST(StartsWith, Basic) {
  EXPECT_TRUE(startsWith("--csv=out", "--csv"));
  EXPECT_FALSE(startsWith("-c", "--csv"));
  EXPECT_TRUE(startsWith("abc", ""));
}

TEST(ParseNumber, ReadsTheWholeTokenWithinTheRange) {
  EXPECT_EQ(parseNumber<std::size_t>("4096", 1, 1 << 26), 4096u);
  EXPECT_EQ(parseNumber<int>("-3", -5, 5), -3);
  EXPECT_EQ(parseNumber<double>("2.5e-1", 0.0, 1.0), 0.25);
  EXPECT_EQ(parseNumber<double>("8", 0.0, 8.0), 8.0);  // bounds included
  EXPECT_EQ(parseNumber<double>("-1.5E3", -2e3, 0.0), -1500.0);
  EXPECT_EQ(parseNumber<double>(".5", 0.0, 1.0), 0.5);
}

TEST(ParseNumber, RejectsGarbageOverflowAndOutOfRange) {
  for (const char* text : {"", "abc", "12abc", " 12", "12 ", "+12", "0x10",
                           "1.5", "-1", "99999999999999999999999"}) {
    SCOPED_TRACE(text);
    EXPECT_FALSE(parseNumber<std::size_t>(text, 0, 1 << 26).has_value());
  }
  EXPECT_FALSE(
      parseNumber<std::size_t>("99999999999999", 1, 1 << 26).has_value());
  EXPECT_FALSE(parseNumber<std::size_t>("0", 1, 1 << 26).has_value());
  EXPECT_FALSE(parseNumber<int>("-6", -5, 5).has_value());
  for (const char* text : {"", "abc", "1.5x", "inf", "nan", "1e999", "1e-400",
                           "-0.5", " 1", "\t1", "+1", "1 ", "0x1p3", "-"}) {
    SCOPED_TRACE(text);
    EXPECT_FALSE(parseNumber<double>(text, 0.0, 1e9).has_value());
  }
}

TEST(Pad, LeftAndRight) {
  EXPECT_EQ(padLeft("7", 3), "  7");
  EXPECT_EQ(padRight("7", 3), "7  ");
  EXPECT_EQ(padLeft("long", 2), "long");
}

TEST(Strfmt, FormatsLikePrintf) {
  EXPECT_EQ(strfmt("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(strfmt("no args"), "no args");
}

TEST(Strfmt, LongOutput) {
  const std::string s = strfmt("%0512d", 7);
  EXPECT_EQ(s.size(), 512u);
  EXPECT_EQ(s.back(), '7');
}

}  // namespace
}  // namespace iobts
