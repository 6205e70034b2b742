// Small string helpers shared by the CLI-ish bench/example front-ends.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace iobts {

bool startsWith(std::string_view text, std::string_view prefix);

/// All of `text` as a double: a decimal number, optionally with a fraction
/// and an exponent (or inf/nan, which a caller's range check rejects);
/// nullopt on anything else, on overflow and on underflow. Reads with
/// std::strtod: libc++ has no floating-point std::from_chars before LLVM 20.
std::optional<double> parseDouble(std::string_view text);

/// All of `text` as a T (a decimal integer, or a double) within [lo, hi];
/// nullopt on garbage, trailing characters, overflow or a value out of
/// range (NaN included). Strict on purpose: no leading whitespace, '+' or
/// hex, and a negative token never wraps into an unsigned T.
template <typename T>
std::optional<T> parseNumber(std::string_view text, T lo, T hi) {
  static_assert(std::is_integral_v<T> || std::is_same_v<T, double>);
  T value{};
  if constexpr (std::is_integral_v<T>) {
    const char* const end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end) return std::nullopt;
  } else {
    const std::optional<double> parsed = parseDouble(text);
    if (!parsed) return std::nullopt;
    value = *parsed;
  }
  if (!(value >= lo && value <= hi)) return std::nullopt;
  return value;
}

/// Left-pad with spaces to at least `width` characters.
std::string padLeft(std::string_view text, std::size_t width);

/// Right-pad with spaces to at least `width` characters.
std::string padRight(std::string_view text, std::size_t width);

/// printf-style formatting into a std::string.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace iobts
