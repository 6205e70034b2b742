#include "util/string_util.hpp"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace iobts {

bool startsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::optional<double> parseDouble(std::string_view text) {
  // strtod would also skip leading whitespace and take '+' and hex floats.
  if (text.empty() || text.front() == '+' ||
      std::isspace(static_cast<unsigned char>(text.front())) != 0 ||
      text.find_first_of("xX") != text.npos) {
    return std::nullopt;
  }
  const std::string token(text);  // strtod reads up to a terminating NUL
  char* stop = nullptr;
  errno = 0;
  const double value = std::strtod(token.c_str(), &stop);
  if (errno != 0 || stop != token.c_str() + token.size()) return std::nullopt;
  return value;
}

std::string padLeft(std::string_view text, std::size_t width) {
  if (text.size() >= width) return std::string(text);
  return std::string(width - text.size(), ' ') + std::string(text);
}

std::string padRight(std::string_view text, std::size_t width) {
  std::string out(text);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::string strfmt(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace iobts
