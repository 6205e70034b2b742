#include "util/units.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace iobts
