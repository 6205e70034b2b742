#include "util/units.hpp"

#include <cmath>
#include <cstdio>

namespace iobts {

namespace {

std::string formatScaled(double value, const char* unit) {
  char buf[64];
  if (value >= 100.0 || value == std::floor(value)) {
    std::snprintf(buf, sizeof(buf), "%.0f %s", value, unit);
  } else if (value >= 10.0) {
    std::snprintf(buf, sizeof(buf), "%.1f %s", value, unit);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", value, unit);
  }
  return buf;
}

}  // namespace

std::string formatBytes(Bytes bytes) {
  const double b = static_cast<double>(bytes);
  if (b >= static_cast<double>(kTB)) return formatScaled(b / static_cast<double>(kTB), "TB");
  if (b >= static_cast<double>(kGB)) return formatScaled(b / static_cast<double>(kGB), "GB");
  if (b >= static_cast<double>(kMB)) return formatScaled(b / static_cast<double>(kMB), "MB");
  if (b >= static_cast<double>(kKB)) return formatScaled(b / static_cast<double>(kKB), "kB");
  return formatScaled(b, "B");
}

std::string formatBandwidth(BytesPerSec rate) {
  if (rate >= static_cast<double>(kTB)) return formatScaled(rate / static_cast<double>(kTB), "TB/s");
  if (rate >= static_cast<double>(kGB)) return formatScaled(rate / static_cast<double>(kGB), "GB/s");
  if (rate >= static_cast<double>(kMB)) return formatScaled(rate / static_cast<double>(kMB), "MB/s");
  if (rate >= static_cast<double>(kKB)) return formatScaled(rate / static_cast<double>(kKB), "kB/s");
  return formatScaled(rate, "B/s");
}

std::string formatDuration(Seconds seconds) {
  const double s = seconds;
  if (s >= 1.0) return formatScaled(s, "s");
  if (s >= 1e-3) return formatScaled(s * 1e3, "ms");
  if (s >= 1e-6) return formatScaled(s * 1e6, "us");
  return formatScaled(s * 1e9, "ns");
}

}  // namespace iobts
