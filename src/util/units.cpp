#include "util/units.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/check.hpp"

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

namespace {

double parseScaled(std::string_view text) {
  // number part
  size_t i = 0;
  while (i < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '.' ||
          text[i] == '+' || text[i] == '-' || text[i] == 'e' || text[i] == 'E')) {
    // stop 'e'/'E' from eating a unit like "EB"; only treat as exponent if
    // followed by a digit or sign
    if ((text[i] == 'e' || text[i] == 'E') &&
        !(i + 1 < text.size() &&
          (std::isdigit(static_cast<unsigned char>(text[i + 1])) ||
           text[i + 1] == '+' || text[i + 1] == '-'))) {
      break;
    }
    ++i;
  }
  IOBTS_CHECK(i > 0, "no numeric prefix in '" + std::string(text) + "'");
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + i, value);
  IOBTS_CHECK(ec == std::errc() && ptr == text.data() + i,
              "malformed number in '" + std::string(text) + "'");

  // unit part
  std::string unit;
  for (size_t k = i; k < text.size(); ++k) {
    const char c = text[k];
    if (c == ' ' || c == '\t') continue;
    unit.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (unit.size() >= 2 && unit.substr(unit.size() - 2) == "/s") {
    unit.resize(unit.size() - 2);
  }
  if (unit.empty() || unit == "b") return value;
  struct Suffix {
    const char* name;
    double mult;
  };
  static constexpr std::array<Suffix, 14> kSuffixes{{
      {"kib", 1024.0},
      {"mib", 1024.0 * 1024},
      {"gib", 1024.0 * 1024 * 1024},
      {"tib", 1024.0 * 1024 * 1024 * 1024},
      {"kb", 1e3},
      {"mb", 1e6},
      {"gb", 1e9},
      {"tb", 1e12},
      {"k", 1e3},
      {"m", 1e6},
      {"g", 1e9},
      {"t", 1e12},
      {"ki", 1024.0},
      {"mi", 1024.0 * 1024},
  }};
  for (const auto& s : kSuffixes) {
    if (unit == s.name) return value * s.mult;
  }
  IOBTS_CHECK(false, "unknown unit suffix '" + unit + "'");
  return 0.0;  // unreachable
}

}  // namespace

Bytes parseBytes(std::string_view text) {
  const double v = parseScaled(text);
  IOBTS_CHECK(v >= 0.0, "byte count must be non-negative");
  return static_cast<Bytes>(v + 0.5);
}

}  // namespace iobts
