// Deterministic random-number generation.
//
// Every stochastic element of the simulation (PFS slowdown noise, compute
// jitter) draws from its own named stream so experiments replay bit-exactly
// regardless of event interleaving. Streams are derived from a master seed
// with SplitMix64; the generator itself is xoshiro256**.
#pragma once

#include <cstdint>
#include <string_view>

#include "util/hash.hpp"

namespace iobts {

/// SplitMix64 step -- used for seeding and hashing stream names.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 -- fast, high-quality, 2^256-1 period.
class Rng {
 public:
  /// Construct from a raw 64-bit seed (expanded via SplitMix64).
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    reseed(seed);
  }

  /// Construct a named sub-stream: seed ^ hash(name) -> independent stream.
  Rng(std::uint64_t master_seed, std::string_view stream_name) noexcept {
    reseed(master_seed ^ hashName(stream_name));
  }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniformInt(std::uint64_t n) noexcept {
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto low = static_cast<std::uint64_t>(m);
    if (low < n) {
      const std::uint64_t threshold = (0ULL - n) % n;
      while (low < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * n;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Exponential with given mean (> 0).
  double exponential(double mean) noexcept;

  /// Standard normal via Box-Muller (no cached spare: keeps replay simple).
  double normal() noexcept;

  /// Normal with mean/stddev.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Lognormal such that the *median* multiplier is 1 and sigma controls the
  /// spread -- used for I/O slowdown noise (always >= 0).
  double lognormalFactor(double sigma) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace iobts
