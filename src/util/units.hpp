// Units used throughout the library.
//
// Conventions (match the paper):
//   * byte counts       -> Bytes     (std::uint64_t)
//   * bandwidth / rate  -> double bytes-per-second (BytesPerSec)
//   * simulated time    -> double seconds
//
// Helpers format values the way the paper's plots do (MB/s, GB/s, ...).
// Scenario documents spell byte counts with unit suffixes ("4MiB"); the
// DSL lexer reads those itself (src/scenario/parser.cpp).
#pragma once

#include <cstdint>
#include <string>

namespace iobts {

using Bytes = std::uint64_t;
using BytesPerSec = double;
using Seconds = double;

// Decimal units (used for bandwidth, as in the paper: 120 GB/s).
inline constexpr Bytes kKB = 1000ULL;
inline constexpr Bytes kMB = 1000ULL * kKB;
inline constexpr Bytes kGB = 1000ULL * kMB;
inline constexpr Bytes kTB = 1000ULL * kGB;

// Binary units (used for request/sub-request sizes: 4 MiB chunks).
inline constexpr Bytes kKiB = 1024ULL;
inline constexpr Bytes kMiB = 1024ULL * kKiB;
inline constexpr Bytes kGiB = 1024ULL * kMiB;

/// "1.50 GB", "37 MB", "128 B" -- decimal, two significant decimals.
std::string formatBytes(Bytes bytes);

/// "1.50 GB/s", "850 MB/s".
std::string formatBandwidth(BytesPerSec rate);

/// "12.3 s", "450 ms", "8.1 us".
std::string formatDuration(Seconds seconds);

}  // namespace iobts
