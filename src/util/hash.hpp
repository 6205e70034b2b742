// FNV-1a (64-bit), the one hash behind every seed, digest and checksum
// word in the repository: per-stream RNG seeds (hashName), checkpoint
// section and file checksums, run and summary digests, the kernel's
// pending-schedule digest, and the binlog's lane combine and trailer.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace iobts {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// One FNV-1a step: fold `unit` (a byte, or a whole 64-bit word for the
/// binlog's word-wise trailer) into `h`.
constexpr std::uint64_t fnvStep(std::uint64_t h, std::uint64_t unit) noexcept {
  return (h ^ unit) * kFnvPrime;
}

/// FNV-1a over bytes: stream-name seeds, checksums, text digests.
constexpr std::uint64_t hashName(std::string_view bytes) noexcept {
  std::uint64_t h = kFnvOffset;
  for (const char c : bytes) h = fnvStep(h, static_cast<std::uint8_t>(c));
  return h;
}

/// FNV-1a over the little-endian bytes of a sequence of 64-bit words (a
/// double contributes its bit pattern): digests large per-rank or
/// per-record tables without rendering them as text.
class WordDigest {
 public:
  constexpr void mix(std::uint64_t word) noexcept {
    for (int i = 0; i < 8; ++i) h_ = fnvStep(h_, (word >> (8 * i)) & 0xffU);
  }
  void mix(double value) noexcept { mix(std::bit_cast<std::uint64_t>(value)); }
  constexpr std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = kFnvOffset;
};

}  // namespace iobts
