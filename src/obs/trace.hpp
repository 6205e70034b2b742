// Structured event tracing for the simulator substrate.
//
// The paper's whole point is making I/O *visible*; this module makes the
// simulator itself visible. A TraceSink is a fixed-capacity ring buffer of
// POD trace events stamped with virtual sim::Time (and, optionally, real
// wall-clock durations). Instrumentation points throughout the stack --
// the event kernel, the SharedLink resolve path, the ADIO engine's
// sub-request pacing, the real-time I/O thread, the cluster scheduler --
// emit events here and nowhere else.
//
// Design constraints (see DESIGN.md "Observability plane"):
//
//   * Off by default, a single null-check when off. The sink is installed
//     through a global pointer; every instrumentation point loads it once
//     and skips all work when it is null. Simulation results are
//     bit-identical with tracing on or off -- recording never feeds back
//     into the model.
//   * Zero allocation per event. Events are PODs referencing static string
//     literals; the ring is allocated once at construction. When the ring
//     is full the *oldest* event is overwritten (the most recent window is
//     retained) and a drop counter records the loss.
//   * Deterministic recordings. Event content is derived purely from
//     simulation state (virtual times, stable ids), so two identical runs
//     produce byte-identical binary traces (and the Chrome JSON derived
//     from them) as long as wall-clock capture stays off (its default).
//
// Track convention (Chrome trace "pid"/"tid"): one process per simulated
// subsystem, one thread per node/stream/channel within it -- see the
// obs::track constants. Thread/process display names can be registered at
// setup time (allocation there is fine; the per-event path stays POD).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace iobts::obs {

/// Chrome-trace-style event phases. Complete events carry a duration
/// (possibly zero: a synchronous step in virtual time); instants mark a
/// point; counters sample a value over time. Flow events ("s"/"t"/"f")
/// correlate spans across tracks into one request journey: each carries a
/// stable journey id in TraceEvent::flow and binds to the enclosing slice
/// on its (pid, tid) track, so Perfetto renders one arrow chain from an
/// MPI-IO submit through its paced sub-requests to the PFS transfer settle.
enum class Phase : std::uint8_t {
  Complete = 0,
  Instant = 1,
  Counter = 2,
  FlowStart = 3,
  FlowStep = 4,
  FlowEnd = 5,
};

/// Fixed "process" ids, one per simulated subsystem. Thread ids within a
/// process are stable simulation-state ids (channel index, stream id, job
/// id), never global mutable counters -- so two identical runs in the same
/// OS process still produce identical traces.
namespace track {
inline constexpr std::uint32_t kKernel = 1;    // sim event kernel (tid 0)
inline constexpr std::uint32_t kLink = 2;      // pfs::SharedLink (tid=channel)
inline constexpr std::uint32_t kStreams = 3;   // per-stream transfers (tid=stream)
inline constexpr std::uint32_t kAdio = 4;      // mpisim::AdioEngine (tid=stream)
inline constexpr std::uint32_t kCluster = 5;   // cluster scheduler (tid=job)
inline constexpr std::uint32_t kRtio = 6;      // rtio::IoThread (tid=op serial)
inline constexpr std::uint32_t kTmio = 7;      // tmio tracer B_req (tid=rank)
}  // namespace track

/// One recorded event. POD; `category` and `name` must point at storage
/// that outlives the sink (instrumentation sites use string literals).
struct TraceEvent {
  sim::Time ts = 0.0;    // virtual seconds (rtio: wall seconds since epoch)
  sim::Time dur = 0.0;   // virtual duration; Complete events only
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  Phase phase = Phase::Instant;
  double value = 0.0;        // counter value / generic numeric argument
  std::uint64_t wall_ns = 0; // real duration (0 unless wall capture is on)
  std::uint64_t flow = 0;    // journey id; flow events only (0 = none)
  const char* category = "";
  const char* name = "";
};

struct TraceSinkConfig {
  /// Ring capacity in events; allocated once up front.
  std::size_t capacity = 1 << 16;
  /// Stamp Complete events with real wall-clock durations. Off by default:
  /// wall times differ between runs, so leaving this off keeps exports
  /// byte-identical across identical runs.
  bool capture_wall_time = false;
};

class MetricsRegistry;

/// Per-(category, name) duration statistics for closed spans, accumulated
/// allocation-free on the recording path. Bucket edges are fixed
/// (kSpanStatBounds); the slots merge into MetricsRegistry histograms at
/// export time, where matching string *contents* (not just pointers)
/// collapse into one histogram.
struct SpanStat {
  const char* category = nullptr;
  const char* name = nullptr;
  std::uint64_t count = 0;
  double sum = 0.0;  // virtual seconds
  std::uint64_t buckets[9] = {};
};

/// Upper bucket edges (seconds) for span-duration histograms; one overflow
/// bucket above the last edge brings the count to 9.
inline constexpr double kSpanStatBounds[8] = {1e-6, 1e-5, 1e-4, 1e-3,
                                              1e-2, 1e-1, 1.0,  10.0};

/// Fixed-capacity, thread-safe ring buffer of trace events.
class TraceSink {
 public:
  explicit TraceSink(TraceSinkConfig config = {});
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  // --- Recording (thread-safe, allocation-free) ---------------------------

  void complete(const char* category, const char* name, std::uint32_t pid,
                std::uint32_t tid, sim::Time ts, sim::Time dur,
                double value = 0.0, std::uint64_t wall_ns = 0);
  void instant(const char* category, const char* name, std::uint32_t pid,
               std::uint32_t tid, sim::Time ts, double value = 0.0);
  void counter(const char* category, const char* name, std::uint32_t pid,
               std::uint32_t tid, sim::Time ts, double value);

  /// Flow events correlating spans across tracks into one journey.
  /// `journey` must be nonzero and stable across identical runs (derive it
  /// from simulation state: rank/request ids, never global counters). The
  /// exporter binds each flow event to the enclosing slice on its
  /// (pid, tid) track -- emit them at a timestamp inside the span they
  /// should attach to.
  void flowStart(const char* category, const char* name, std::uint32_t pid,
                 std::uint32_t tid, sim::Time ts, std::uint64_t journey);
  void flowStep(const char* category, const char* name, std::uint32_t pid,
                std::uint32_t tid, sim::Time ts, std::uint64_t journey);
  void flowEnd(const char* category, const char* name, std::uint32_t pid,
               std::uint32_t tid, sim::Time ts, std::uint64_t journey);

  bool captureWallTime() const noexcept { return config_.capture_wall_time; }

  /// Monotonic wall clock in nanoseconds since sink construction; returns 0
  /// when wall capture is off so callers can subtract unconditionally.
  std::uint64_t wallNowNs() const noexcept;

  // --- Introspection ------------------------------------------------------

  std::size_t capacity() const noexcept { return config_.capacity; }
  /// Events currently retained (<= capacity).
  std::size_t size() const;
  /// Total events ever recorded (retained + dropped).
  std::uint64_t recorded() const;
  /// Events overwritten after the ring wrapped.
  std::uint64_t dropped() const;
  /// Events drained out of the ring (drainSegments).
  std::uint64_t streamed() const;

  /// Copy of the retained events, oldest first.
  std::vector<TraceEvent> snapshot() const;

  /// Drop all retained events (drop/record counters keep counting).
  void clear();

  // --- Streaming drain (see obs/binlog.hpp) -------------------------------

  /// Zero-copy drain: hand the retained events to `fn` as at most two
  /// contiguous ring segments (oldest first), then mark them streamed.
  /// `fn` runs *under the sink lock* directly against ring storage -- no
  /// copy into a staging vector -- so it must be quick, must not record
  /// into this sink, and must not call back into any sink method. The
  /// binary trace writer (obs/binlog.hpp) encodes straight out of the ring
  /// through this path. Returns the number of events handed over.
  using DrainSegmentFn = void (*)(void* ctx, const TraceEvent* events,
                                  std::size_t count);
  std::size_t drainSegments(DrainSegmentFn fn, void* ctx);

  /// Install a drain trigger: after recording an event, `hook(ctx)` fires
  /// (outside the sink lock) when ring occupancy reaches half the capacity
  /// (at least one event), so an attached recorder drains long before the
  /// ring could overwrite anything. The hook typically calls
  /// drainSegments(); it must tolerate reentrant recording only if its own
  /// sink does. One hook at a time.
  void setDrainHook(void (*hook)(void*), void* ctx);
  void clearDrainHook();

  // --- Metrics export -----------------------------------------------------

  /// Publish recording counters (obs.trace.recorded_events /
  /// dropped_events / streamed_events, retained/capacity gauges) and the
  /// per-span duration histograms ("obs.span.<category>.<name>") into
  /// `registry`. Span stats cover every Complete event ever recorded,
  /// including dropped and streamed ones.
  void exportMetrics(MetricsRegistry& registry) const;

  /// Read-only view of the accumulated span-duration stats (unused slots
  /// have null names). `spanStatOverflow` counts Complete events whose
  /// (category, name) could not claim a slot in the fixed table.
  std::vector<SpanStat> spanStats() const;
  std::uint64_t spanStatOverflow() const;

  // --- Track names (setup-time; allocation allowed) -----------------------

  void setProcessName(std::uint32_t pid, std::string name);
  void setThreadName(std::uint32_t pid, std::uint32_t tid, std::string name);
  std::map<std::uint32_t, std::string> processNames() const;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> threadNames()
      const;

 private:
  static constexpr std::size_t kSpanSlots = 64;

  void push(const TraceEvent& event);
  void flow(Phase phase, const char* category, const char* name,
            std::uint32_t pid, std::uint32_t tid, sim::Time ts,
            std::uint64_t journey);
  void recordSpanStatLocked(const TraceEvent& event);

  TraceSinkConfig config_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;   // next write position
  std::size_t count_ = 0;  // retained events
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t streamed_ = 0;
  std::map<std::uint32_t, std::string> process_names_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> thread_names_;
  std::uint64_t wall_epoch_ns_ = 0;
  // Span-stat table: open addressing keyed on the name pointer (string
  // literals make pointer identity a near-perfect key; export merges by
  // content anyway).
  SpanStat span_stats_[kSpanSlots] = {};
  std::uint64_t span_stat_overflow_ = 0;
  // Drain trigger (null hook = streaming off).
  void (*drain_hook_)(void*) = nullptr;
  void* drain_ctx_ = nullptr;
  std::size_t drain_trigger_count_ = 0;
};

namespace detail {
/// The installed sink. Read via obs::traceSink() on every instrumentation
/// point; null means "tracing off" and costs exactly one relaxed load plus
/// a branch.
extern std::atomic<TraceSink*> g_trace_sink;
/// Per-thread override consulted before the global sink. A sharded
/// simulation worker recording through a ShardedBinaryWriter points this at
/// the staging sink of the shard it is running, so instrumentation emitted
/// on that worker lands in the shard's own recorder stream (see
/// sim/sharded.hpp). Null everywhere else; the cost when unused is one
/// thread-local load and a predictable branch.
extern thread_local TraceSink* t_trace_sink_override;
}  // namespace detail

inline TraceSink* traceSink() noexcept {
  TraceSink* const override_sink = detail::t_trace_sink_override;
  if (override_sink != nullptr) return override_sink;
  return detail::g_trace_sink.load(std::memory_order_relaxed);
}

/// Install (or uninstall, with nullptr) the global sink. The sink must
/// outlive its installation; install before constructing instrumented
/// components if you want their setup-time track names registered.
void installTraceSink(TraceSink* sink) noexcept;

/// Install (or clear, with nullptr) this thread's override sink; returns
/// the previous override. Used by sharded-simulation workers around each
/// recorded shard run; normal code never needs it.
TraceSink* installThreadTraceSink(TraceSink* sink) noexcept;

// --- Journey sampling -------------------------------------------------------
//
// Flow-event chains ("request journeys") are the densest trace traffic a
// large run emits: every MPI-IO request adds a flowStart, one flowStep per
// paced sub-request and backoff, and a flowEnd. IOBTS_TRACE_JOURNEY_SAMPLE=N
// keeps every Nth journey and drops the rest *at journey-id level*: the
// decision is a pure function of the stable journey id (journey % N == 0),
// never of an RNG or a counter, so sampled traces are identical across
// reruns and across thread counts, and a kept journey is always complete
// (all of its flow events share the id, so they all pass the same test).

/// Parse an IOBTS_TRACE_JOURNEY_SAMPLE-style stride string. Returns the
/// stride for a plain positive decimal integer and 0 for anything else:
/// empty, signed ("-3", "+2"), zero, trailing garbage ("12x"), non-numeric,
/// or out of uint64 range. Exposed so the rejection matrix is unit-testable
/// without mutating the process environment.
std::uint64_t parseJourneySampleStride(const char* text) noexcept;

/// Current stride: 1 records every journey (the default). Reads
/// IOBTS_TRACE_JOURNEY_SAMPLE once; invalid values (zero, negative,
/// garbage, overflow) fall back to 1 with a single warning.
/// setJourneySampleStride() overrides it.
std::uint64_t journeySampleStride() noexcept;

/// Programmatic override for benchmarks/tests; 0 restores the environment
/// value. Not thread-safe against concurrent recording -- call at setup.
void setJourneySampleStride(std::uint64_t stride) noexcept;

/// Maps a journey id to itself when the journey is sampled, else to 0 (the
/// instrumentation sites' "no journey" value, which suppresses the whole
/// flow chain downstream).
std::uint64_t sampledJourney(std::uint64_t journey) noexcept;

/// RAII installation for tests and examples.
class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(TraceSink& sink) : previous_(traceSink()) {
    installTraceSink(&sink);
  }
  ~ScopedTraceSink() { installTraceSink(previous_); }
  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;

 private:
  TraceSink* previous_;
};

}  // namespace iobts::obs
