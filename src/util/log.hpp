// Minimal thread-safe leveled logger.
//
// Levels: Trace < Debug < Info < Warn < Error < Off.
// The global level defaults to Warn and can be overridden with the
// IOBTS_LOG_LEVEL environment variable (trace|debug|info|warn|error|off).
//
// Usage:
//   IOBTS_LOG_INFO() << "solved " << n << " regions";
//
// The streamed message is assembled in a thread-local buffer and emitted
// atomically, so interleaved lines never mix.
#pragma once

#include <iosfwd>
#include <sstream>
#include <string>

namespace iobts::log {

enum class Level : int { Trace = 0, Debug, Info, Warn, Error, Off };

/// Current global log level (reads the environment on first use).
Level level() noexcept;

/// The level the environment requests right now: IOBTS_LOG_LEVEL, falling
/// back to Warn. Does not touch the cached global level.
Level levelFromEnv() noexcept;

/// Override the global level programmatically (tests use this).
void setLevel(Level lvl) noexcept;

/// Redirect output (default: stderr). Pass nullptr to restore stderr.
void setSink(std::ostream* sink) noexcept;

/// Parse a level name; returns Warn for unknown names.
Level parseLevel(std::string_view name) noexcept;

const char* levelName(Level lvl) noexcept;

namespace detail {

/// RAII line builder: accumulates one message, emits it on destruction.
class LineBuilder {
 public:
  LineBuilder(Level lvl, const char* file, int line);
  LineBuilder(const LineBuilder&) = delete;
  LineBuilder& operator=(const LineBuilder&) = delete;
  ~LineBuilder();

  template <class T>
  LineBuilder& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  Level level_;
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace iobts::log

#define IOBTS_LOG_AT(lvl)                          \
  if (::iobts::log::level() > (lvl)) {             \
  } else                                           \
    ::iobts::log::detail::LineBuilder((lvl), __FILE__, __LINE__)

#define IOBTS_LOG_TRACE() IOBTS_LOG_AT(::iobts::log::Level::Trace)
#define IOBTS_LOG_DEBUG() IOBTS_LOG_AT(::iobts::log::Level::Debug)
#define IOBTS_LOG_INFO() IOBTS_LOG_AT(::iobts::log::Level::Info)
#define IOBTS_LOG_WARN() IOBTS_LOG_AT(::iobts::log::Level::Warn)
#define IOBTS_LOG_ERROR() IOBTS_LOG_AT(::iobts::log::Level::Error)
