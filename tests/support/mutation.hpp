// Building blocks of the seeded mutation sweeps over binary containers
// (tests/obs/binlog_mutation_test.cpp, tests/ckpt/ckpt_mutation_test.cpp):
// a generator that yields the same mutants on every standard library,
// little-endian field access, and the extreme values overwrites draw from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>

namespace iobts::testsupport {

/// splitmix64: a tiny deterministic generator, identical on every standard
/// library (std distributions are not).
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
};

// Field access at a byte offset; little-endian hosts only, like the
// containers' own encoders.
inline std::uint32_t loadU32(const std::string& s, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, s.data() + at, sizeof(v));
  return v;
}

inline std::uint64_t loadU64(const std::string& s, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, s.data() + at, sizeof(v));
  return v;
}

inline void storeU32(std::string& s, std::size_t at, std::uint32_t v) {
  std::memcpy(s.data() + at, &v, sizeof(v));
}

inline void storeU64(std::string& s, std::size_t at, std::uint64_t v) {
  std::memcpy(s.data() + at, &v, sizeof(v));
}

/// A length, offset or count a corrupted u64 field might hold.
inline std::uint64_t extremeU64(SplitMix64& rng, std::size_t file_size) {
  const std::uint64_t values[] = {0,
                                  1,
                                  0x7fffffffffffffffULL,
                                  0x8000000000000000ULL,
                                  0xffffffffffffffffULL,
                                  0xfffffffffffffff0ULL,
                                  0xffffffffULL,
                                  0x100000000ULL,
                                  file_size,
                                  file_size - 1,
                                  file_size + 1};
  return values[rng.below(std::size(values))];
}

/// A length or count a corrupted u32 field might hold.
inline std::uint32_t extremeU32(SplitMix64& rng) {
  const std::uint32_t values[] = {0,           1,          2,
                                  0x7fffffffU, 0x80000000U, 0xfffffffeU,
                                  0xffffffffU, 0x10000U,    20000000U};
  return values[rng.below(std::size(values))];
}

}  // namespace iobts::testsupport
