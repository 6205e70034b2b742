// Little-endian integer and IEEE-754 I/O for the on-disk containers (binlog,
// checkpoint) and the tools that build or tamper with them. The encoding is
// identical on every host; on little-endian hosts the wire layout *is* the
// in-memory layout and the memcpy forms compile to single loads and stores,
// while the byte-shift fallbacks keep big-endian hosts correct.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

namespace iobts::le {

inline constexpr bool kHostLittleEndian =
    std::endian::native == std::endian::little;

inline void putU32(char* out, std::uint32_t v) noexcept {
  if constexpr (kHostLittleEndian) {
    std::memcpy(out, &v, sizeof(v));
  } else {
    for (int i = 0; i < 4; ++i) {
      out[i] = static_cast<char>((v >> (8 * i)) & 0xffU);
    }
  }
}

inline void putU64(char* out, std::uint64_t v) noexcept {
  if constexpr (kHostLittleEndian) {
    std::memcpy(out, &v, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) {
      out[i] = static_cast<char>((v >> (8 * i)) & 0xffU);
    }
  }
}

inline void putF64(char* out, double v) noexcept {
  putU64(out, std::bit_cast<std::uint64_t>(v));
}

inline void appendU32(std::string& out, std::uint32_t v) {
  char buf[4];
  putU32(buf, v);
  out.append(buf, sizeof(buf));
}

inline void appendU64(std::string& out, std::uint64_t v) {
  char buf[8];
  putU64(buf, v);
  out.append(buf, sizeof(buf));
}

inline std::uint32_t readU32(const char* data) noexcept {
  std::uint32_t out = 0;
  if constexpr (kHostLittleEndian) {
    std::memcpy(&out, data, sizeof(out));
  } else {
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<std::uint32_t>(static_cast<unsigned char>(data[i]))
             << (8 * i);
    }
  }
  return out;
}

inline std::uint64_t readU64(const char* data) noexcept {
  std::uint64_t out = 0;
  if constexpr (kHostLittleEndian) {
    std::memcpy(&out, data, sizeof(out));
  } else {
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[i]))
             << (8 * i);
    }
  }
  return out;
}

inline double readF64(const char* data) noexcept {
  return std::bit_cast<double>(readU64(data));
}

}  // namespace iobts::le
