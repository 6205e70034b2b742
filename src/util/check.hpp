// Lightweight runtime-check macros used across the library.
//
// IOBTS_CHECK(cond, msg)   -- always-on invariant check; throws CheckError.
// IOBTS_DCHECK(cond, msg)  -- debug-only (compiled out in NDEBUG builds).
//
// We throw instead of aborting so that tests can assert on failure paths and
// so that long simulation campaigns can report which experiment tripped.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace iobts {

/// Error thrown by IOBTS_CHECK on a violated invariant.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what, std::string reason = {})
      : std::logic_error(what), reason_(std::move(reason)) {}

  /// The check's message alone, without the expression and source location
  /// that what() carries: what a front end (the scenario parser) reports.
  const std::string& reason() const noexcept { return reason_; }

 private:
  std::string reason_;
};

namespace detail {
[[noreturn]] inline void checkFailed(const char* expr, const char* file,
                                     int line, const std::string& msg) {
  std::ostringstream os;
  os << "IOBTS_CHECK failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " -- " << msg;
  throw CheckError(os.str(), msg);
}
}  // namespace detail

}  // namespace iobts

#define IOBTS_CHECK(cond, msg)                                            \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::iobts::detail::checkFailed(#cond, __FILE__, __LINE__,             \
                                   std::string(msg));                     \
    }                                                                     \
  } while (false)

#ifdef NDEBUG
#define IOBTS_DCHECK(cond, msg) \
  do {                          \
  } while (false)
#else
#define IOBTS_DCHECK(cond, msg) IOBTS_CHECK(cond, msg)
#endif
