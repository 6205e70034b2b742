#include "obs/trace.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace iobts::obs {

namespace {

std::uint64_t steadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TraceSink::TraceSink(TraceSinkConfig config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  ring_.resize(config_.capacity);
  if (config_.capture_wall_time) wall_epoch_ns_ = steadyNowNs();
}

std::uint64_t TraceSink::wallNowNs() const noexcept {
  if (!config_.capture_wall_time) return 0;
  return steadyNowNs() - wall_epoch_ns_;
}

void TraceSink::recordSpanStatLocked(const TraceEvent& event) {
  const auto key = reinterpret_cast<std::uintptr_t>(event.name);
  std::size_t i = static_cast<std::size_t>(
                      (static_cast<std::uint64_t>(key) *
                       0x9e3779b97f4a7c15ULL) >> 32) &
                  (kSpanSlots - 1);
  for (std::size_t probe = 0; probe < kSpanSlots; ++probe) {
    SpanStat& slot = span_stats_[i];
    if (slot.name == nullptr) {
      slot.name = event.name;
      slot.category = event.category;
    }
    if (slot.name == event.name) {
      ++slot.count;
      slot.sum += event.dur;
      std::size_t b = 0;
      while (b < 8 && event.dur > kSpanStatBounds[b]) ++b;
      ++slot.buckets[b];
      return;
    }
    i = (i + 1) & (kSpanSlots - 1);
  }
  ++span_stat_overflow_;
}

void TraceSink::push(const TraceEvent& event) {
  void (*hook)(void*) = nullptr;
  void* ctx = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_[head_] = event;
    head_ = head_ + 1 == config_.capacity ? 0 : head_ + 1;
    ++recorded_;
    if (count_ < config_.capacity) {
      ++count_;
    } else {
      ++dropped_;
    }
    if (event.phase == Phase::Complete) recordSpanStatLocked(event);
    if (drain_hook_ != nullptr && count_ >= drain_trigger_count_) {
      hook = drain_hook_;
      ctx = drain_ctx_;
    }
  }
  // The hook runs outside the sink lock so it may drain the ring.
  if (hook != nullptr) hook(ctx);
}

void TraceSink::complete(const char* category, const char* name,
                         std::uint32_t pid, std::uint32_t tid, sim::Time ts,
                         sim::Time dur, double value, std::uint64_t wall_ns) {
  TraceEvent ev;
  ev.ts = ts;
  ev.dur = dur;
  ev.category = category;
  ev.name = name;
  ev.pid = pid;
  ev.tid = tid;
  ev.phase = Phase::Complete;
  ev.value = value;
  ev.wall_ns = wall_ns;
  push(ev);
}

void TraceSink::instant(const char* category, const char* name,
                        std::uint32_t pid, std::uint32_t tid, sim::Time ts,
                        double value) {
  TraceEvent ev;
  ev.ts = ts;
  ev.category = category;
  ev.name = name;
  ev.pid = pid;
  ev.tid = tid;
  ev.phase = Phase::Instant;
  ev.value = value;
  push(ev);
}

void TraceSink::counter(const char* category, const char* name,
                        std::uint32_t pid, std::uint32_t tid, sim::Time ts,
                        double value) {
  TraceEvent ev;
  ev.ts = ts;
  ev.category = category;
  ev.name = name;
  ev.pid = pid;
  ev.tid = tid;
  ev.phase = Phase::Counter;
  ev.value = value;
  push(ev);
}

void TraceSink::flow(Phase phase, const char* category, const char* name,
                     std::uint32_t pid, std::uint32_t tid, sim::Time ts,
                     std::uint64_t journey) {
  TraceEvent ev;
  ev.ts = ts;
  ev.category = category;
  ev.name = name;
  ev.pid = pid;
  ev.tid = tid;
  ev.phase = phase;
  ev.flow = journey;
  push(ev);
}

void TraceSink::flowStart(const char* category, const char* name,
                          std::uint32_t pid, std::uint32_t tid, sim::Time ts,
                          std::uint64_t journey) {
  flow(Phase::FlowStart, category, name, pid, tid, ts, journey);
}

void TraceSink::flowStep(const char* category, const char* name,
                         std::uint32_t pid, std::uint32_t tid, sim::Time ts,
                         std::uint64_t journey) {
  flow(Phase::FlowStep, category, name, pid, tid, ts, journey);
}

void TraceSink::flowEnd(const char* category, const char* name,
                        std::uint32_t pid, std::uint32_t tid, sim::Time ts,
                        std::uint64_t journey) {
  flow(Phase::FlowEnd, category, name, pid, tid, ts, journey);
}

std::size_t TraceSink::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

std::uint64_t TraceSink::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::uint64_t TraceSink::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::uint64_t TraceSink::streamed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return streamed_;
}

std::size_t TraceSink::drainSegments(DrainSegmentFn fn, void* ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t n = count_;
  if (n == 0) return 0;
  const std::size_t start =
      count_ == config_.capacity ? head_ : (head_ + config_.capacity - count_) %
                                               config_.capacity;
  // The retained window is either one contiguous run or wraps once past the
  // end of the ring; hand it over without copying.
  const std::size_t first =
      n < config_.capacity - start ? n : config_.capacity - start;
  fn(ctx, ring_.data() + start, first);
  if (first < n) fn(ctx, ring_.data(), n - first);
  count_ = 0;
  streamed_ += n;
  return n;
}

void TraceSink::setDrainHook(void (*hook)(void*), void* ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  drain_hook_ = hook;
  drain_ctx_ = ctx;
  drain_trigger_count_ = std::max<std::size_t>(config_.capacity / 2, 1);
}

void TraceSink::clearDrainHook() {
  std::lock_guard<std::mutex> lock(mutex_);
  drain_hook_ = nullptr;
  drain_ctx_ = nullptr;
  drain_trigger_count_ = 0;
}

std::vector<SpanStat> TraceSink::spanStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<SpanStat>(span_stats_, span_stats_ + kSpanSlots);
}

std::uint64_t TraceSink::spanStatOverflow() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return span_stat_overflow_;
}

void TraceSink::exportMetrics(MetricsRegistry& registry) const {
  std::lock_guard<std::mutex> lock(mutex_);
  registry.addCounter("obs.trace.recorded_events", recorded_);
  registry.addCounter("obs.trace.dropped_events", dropped_);
  registry.addCounter("obs.trace.streamed_events", streamed_);
  registry.addCounter("obs.trace.span_stat_overflow", span_stat_overflow_);
  registry.setGauge("obs.trace.retained_events",
                    static_cast<double>(count_));
  registry.setGauge("obs.trace.capacity",
                    static_cast<double>(config_.capacity));
  const std::vector<double> bounds(kSpanStatBounds,
                                   kSpanStatBounds + 8);
  for (const SpanStat& s : span_stats_) {
    if (s.name == nullptr) continue;
    std::string name = "obs.span.";
    name += s.category;
    name += '.';
    name += s.name;
    registry.mergeHistogram(name, bounds, s.buckets, s.count, s.sum);
  }
}

std::vector<TraceEvent> TraceSink::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(count_);
  // Oldest event sits at head_ once the ring has wrapped, else at 0.
  const std::size_t start =
      count_ == config_.capacity ? head_ : (head_ + config_.capacity - count_) %
                                               config_.capacity;
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % config_.capacity]);
  }
  return out;
}

void TraceSink::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  head_ = 0;
  count_ = 0;
}

void TraceSink::setProcessName(std::uint32_t pid, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  process_names_[pid] = std::move(name);
}

void TraceSink::setThreadName(std::uint32_t pid, std::uint32_t tid,
                              std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  thread_names_[{pid, tid}] = std::move(name);
}

std::map<std::uint32_t, std::string> TraceSink::processNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return process_names_;
}

std::map<std::pair<std::uint32_t, std::uint32_t>, std::string>
TraceSink::threadNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return thread_names_;
}

namespace detail {
std::atomic<TraceSink*> g_trace_sink{nullptr};
thread_local TraceSink* t_trace_sink_override = nullptr;
}  // namespace detail

void installTraceSink(TraceSink* sink) noexcept {
  detail::g_trace_sink.store(sink, std::memory_order_release);
}

TraceSink* installThreadTraceSink(TraceSink* sink) noexcept {
  return std::exchange(detail::t_trace_sink_override, sink);
}

std::uint64_t parseJourneySampleStride(const char* text) noexcept {
  if (text == nullptr || *text == '\0') return 0;
  // Require a plain positive decimal integer. strtoull would silently
  // accept leading whitespace, a sign (wrapping "-3" to a huge stride), and
  // hex prefixes -- reject all of those up front.
  if (*text < '0' || *text > '9') return 0;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return 0;
  if (errno == ERANGE) return 0;
  if (parsed == 0) return 0;
  return static_cast<std::uint64_t>(parsed);
}

namespace {

std::uint64_t journeyStrideFromEnv() noexcept {
  const char* const value = std::getenv("IOBTS_TRACE_JOURNEY_SAMPLE");
  if (value == nullptr || *value == '\0') return 1;
  const std::uint64_t parsed = parseJourneySampleStride(value);
  if (parsed == 0) {
    IOBTS_LOG_WARN() << "IOBTS_TRACE_JOURNEY_SAMPLE='" << value
                     << "' is not a positive integer; recording every "
                        "journey (stride 1)";
    return 1;
  }
  return parsed;
}

/// 0 = "use the environment value"; set via setJourneySampleStride().
std::atomic<std::uint64_t> g_journey_stride_override{0};

}  // namespace

std::uint64_t journeySampleStride() noexcept {
  const std::uint64_t forced =
      g_journey_stride_override.load(std::memory_order_relaxed);
  if (forced != 0) return forced;
  static const std::uint64_t env_stride = journeyStrideFromEnv();
  return env_stride;
}

void setJourneySampleStride(std::uint64_t stride) noexcept {
  g_journey_stride_override.store(stride, std::memory_order_relaxed);
}

std::uint64_t sampledJourney(std::uint64_t journey) noexcept {
  const std::uint64_t stride = journeySampleStride();
  if (stride <= 1) return journey;
  return journey % stride == 0 ? journey : 0;
}

}  // namespace iobts::obs
