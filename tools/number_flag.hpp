// Strict numeric flags for the command-line tools. parseNumber reads the
// whole token and checks its range; anything else -- garbage, trailing
// characters, overflow, a value out of range -- is a usage error: the tool
// names the flag and its range on stderr and exits 2.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <type_traits>

#include "util/string_util.hpp"

template <typename T>
T numberFlag(const char* tool, const char* flag, const char* text, T lo,
             T hi) {
  if (const auto value = iobts::parseNumber<T>(text, lo, hi)) return *value;
  if constexpr (std::is_floating_point_v<T>) {
    std::fprintf(stderr, "%s: %s takes a number in [%g, %g], got '%s'\n",
                 tool, flag, static_cast<double>(lo), static_cast<double>(hi),
                 text);
  } else if constexpr (std::is_signed_v<T>) {
    std::fprintf(stderr, "%s: %s takes a whole number in [%lld, %lld], "
                 "got '%s'\n", tool, flag, static_cast<long long>(lo),
                 static_cast<long long>(hi), text);
  } else {
    std::fprintf(stderr, "%s: %s takes a whole number in [%llu, %llu], "
                 "got '%s'\n", tool, flag, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), text);
  }
  std::exit(2);
}
