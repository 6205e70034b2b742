#include "util/units.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace iobts {
namespace {

TEST(Units, FormatBytesPicksScale) {
  EXPECT_EQ(formatBytes(0), "0 B");
  EXPECT_EQ(formatBytes(999), "999 B");
  EXPECT_EQ(formatBytes(1000), "1 kB");
  EXPECT_EQ(formatBytes(1500), "1.50 kB");
  EXPECT_EQ(formatBytes(38 * kMB), "38 MB");
  EXPECT_EQ(formatBytes(120 * kGB), "120 GB");
  EXPECT_EQ(formatBytes(2 * kTB), "2 TB");
}

TEST(Units, FormatBandwidth) {
  EXPECT_EQ(formatBandwidth(0.0), "0 B/s");
  EXPECT_EQ(formatBandwidth(106e9), "106 GB/s");
  EXPECT_EQ(formatBandwidth(1.5e6), "1.50 MB/s");
}

TEST(Units, FormatDuration) {
  EXPECT_EQ(formatDuration(126.6), "127 s");
  EXPECT_EQ(formatDuration(1.9), "1.90 s");
  EXPECT_EQ(formatDuration(0.45), "450 ms");
  EXPECT_EQ(formatDuration(5e-7), "500 ns");
}

TEST(Units, ParseBytesPlain) {
  EXPECT_EQ(parseBytes("64"), 64u);
  EXPECT_EQ(parseBytes("0"), 0u);
}

TEST(Units, ParseBytesBinarySuffixes) {
  EXPECT_EQ(parseBytes("4MiB"), 4u * kMiB);
  EXPECT_EQ(parseBytes("64KiB"), 64u * kKiB);
  EXPECT_EQ(parseBytes("1GiB"), kGiB);
}

TEST(Units, ParseBytesDecimalSuffixes) {
  EXPECT_EQ(parseBytes("1.5GB"), 1500000000u);
  EXPECT_EQ(parseBytes("120GB"), 120u * kGB);
  EXPECT_EQ(parseBytes("2kb"), 2000u);
  EXPECT_EQ(parseBytes("120GB/s"), 120u * kGB);  // a trailing "/s" is ignored
}

TEST(Units, ParseAcceptsWhitespaceAndCase) {
  EXPECT_EQ(parseBytes("4 mib"), 4u * kMiB);
  EXPECT_EQ(parseBytes("10 GB"), 10u * kGB);
}

TEST(Units, ParseRejectsGarbage) {
  EXPECT_THROW(parseBytes("abc"), CheckError);
  EXPECT_THROW(parseBytes("12 parsecs"), CheckError);
  EXPECT_THROW(parseBytes(""), CheckError);
}

TEST(Units, ParseScientificNotation) {
  EXPECT_EQ(parseBytes("1e9"), 1000000000u);
  EXPECT_EQ(parseBytes("2.5e3 MB"), 2500000000u);
}

}  // namespace
}  // namespace iobts
