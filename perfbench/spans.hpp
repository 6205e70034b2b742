// Host-time spans of the benchmark's traced run.
//
// The benchmark measures each layer from outside: it times its own calls
// into the layer's public functions. A span is one such call (name, start,
// end, parent). Spans are kept in memory and written out once, at exit, so
// recording never touches the file system while a case runs.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class SpanLog {
 public:
  /// Span ids are 1-based indices into the log; 0 means "no parent".
  using Id = std::size_t;

  SpanLog() : origin_(Clock::now()) {}

  /// Open a span as a child of the innermost open span.
  Id open(std::string name, Clock::time_point start);
  /// Close the innermost open span, which is `id`.
  void close(Id id, Clock::time_point end);

  /// One aggregated record for calls too frequent to log one by one (the
  /// tmio hooks): `count` calls totalling `total_s`, under the innermost
  /// open span.
  void addAggregate(std::string name, std::uint64_t count, double total_s);

  /// Write every span and aggregate as one JSON document.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    Id parent = 0;
    double start_s = 0.0;
    double end_s = -1.0;
  };
  struct Aggregate {
    std::string name;
    Id parent = 0;
    std::uint64_t count = 0;
    double total_s = 0.0;
  };

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;
  std::vector<Id> open_;
};

/// Times one scope. The duration is always added to `*seconds` (when
/// given), because layer timings feed the metrics of every run; a span is
/// recorded only when `log` is non-null, i.e. in the traced run.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, double* seconds = nullptr)
      : log_(log), seconds_(seconds), start_(Clock::now()) {
    if (log_ != nullptr) id_ = log_->open(name, start_);
  }
  ~Scope() {
    const Clock::time_point end = Clock::now();
    if (seconds_ != nullptr) *seconds_ += secondsBetween(start_, end);
    if (log_ != nullptr) log_->close(id_, end);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  double* seconds_;
  Clock::time_point start_;
  SpanLog::Id id_ = 0;
};

/// Run `call` inside a Scope and return its result.
template <class F>
decltype(auto) timed(SpanLog* log, const char* name, double& seconds,
                     F&& call) {
  Scope scope(log, name, &seconds);
  return call();
}

}  // namespace perfbench
