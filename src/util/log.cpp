#include "util/log.hpp"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace iobts::log {

namespace {

std::atomic<Level> g_level{Level::Off};  // Off means "not initialised yet"
std::atomic<bool> g_initialised{false};
std::atomic<std::ostream*> g_sink{nullptr};
std::mutex g_emit_mutex;

}  // namespace

Level levelFromEnv() noexcept {
  if (const char* env = std::getenv("IOBTS_LOG_LEVEL")) {
    return parseLevel(env);
  }
  return Level::Warn;
}

Level parseLevel(std::string_view name) noexcept {
  if (name == "trace") return Level::Trace;
  if (name == "debug") return Level::Debug;
  if (name == "info") return Level::Info;
  if (name == "warn") return Level::Warn;
  if (name == "error") return Level::Error;
  if (name == "off") return Level::Off;
  return Level::Warn;
}

const char* levelName(Level lvl) noexcept {
  switch (lvl) {
    case Level::Trace: return "TRACE";
    case Level::Debug: return "DEBUG";
    case Level::Info: return "INFO";
    case Level::Warn: return "WARN";
    case Level::Error: return "ERROR";
    case Level::Off: return "OFF";
  }
  return "?";
}

Level level() noexcept {
  if (!g_initialised.load(std::memory_order_acquire)) {
    g_level.store(levelFromEnv(), std::memory_order_relaxed);
    g_initialised.store(true, std::memory_order_release);
  }
  return g_level.load(std::memory_order_relaxed);
}

void setLevel(Level lvl) noexcept {
  g_level.store(lvl, std::memory_order_relaxed);
  g_initialised.store(true, std::memory_order_release);
}

void setSink(std::ostream* sink) noexcept { g_sink.store(sink); }

namespace detail {

LineBuilder::LineBuilder(Level lvl, const char* file, int line) : level_(lvl) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << '[' << levelName(lvl) << "] " << base << ':' << line << ": ";
}

LineBuilder::~LineBuilder() {
  std::ostream* sink = g_sink.load();
  std::lock_guard<std::mutex> lock(g_emit_mutex);
  (sink ? *sink : std::cerr) << stream_.str() << '\n';
}

}  // namespace detail
}  // namespace iobts::log
