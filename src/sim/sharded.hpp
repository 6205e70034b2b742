// Independent-shard executor.
//
// A ShardedSimulation holds S independent simulations, one per shard, each a
// full sim::Simulation (its own event heap, callback-slot pool, clock and
// coroutine processes), and runs them on a pool of worker threads. Shards
// never talk: every component (SharedLink, World, Cluster, scenario
// Instance, ...) binds to exactly one shard's Simulation and only ever
// touches that shard's state. This is the shape of the paper's evaluation
// -- one application run per strategy x rank count, one cluster per
// contention scenario -- and it makes each shard's results a pure function
// of its own setup, whatever the worker count.
//
// run(threads) starts min(threads, shards) workers with a static shard ->
// worker map (worker w runs shards w, w + workers, ...). Each worker runs
// its shards' Simulations to completion, one after another; then the
// workers join. A shard's fatal process error is captured on its worker
// and the other shards still finish; after the join the lowest failing
// shard's error is rethrown, so the error that surfaces never depends on
// timing. threads == 1 runs every shard on the calling thread.
//
// Tracing has one lossless path per mode:
//   * setTraceRecorder(writer): each shard records into a private staging
//     sink (installed as a thread-local override, so no instrumentation
//     point changes) whose drain hook encodes into the ShardedBinaryWriter
//     from the worker that produced the events;
//   * a global obs::TraceSink and no recorder: run() drains the shards on
//     the calling thread, in shard order, straight into that sink.
// Either way the decoded reports are identical at every thread count.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace iobts::obs {
class MetricsRegistry;
class ShardedBinaryWriter;
class TraceSink;
}  // namespace iobts::obs

namespace iobts::sim {

struct ShardedConfig {
  /// Number of shards (>= 1): one per independent run, cluster or sweep
  /// point.
  std::uint32_t shards = 1;
  /// Shards are always independent, so the only accepted value is
  /// kInfiniteTime. The field stays because the benchmark definition sets
  /// it; drop it at the next benchmark-definition change.
  Time lookahead = kInfiniteTime;
  /// Default worker count for run(); 1 runs on the calling thread.
  unsigned threads = 1;
};

class ShardedSimulation {
 public:
  /// Execution counters; identical for identical setups at any thread
  /// count.
  struct Stats {
    /// Shards that had no event to run when run() started.
    std::uint64_t window_stalls = 0;
    /// Trace events encoded by the direct recorder (setTraceRecorder).
    std::uint64_t trace_events_recorded = 0;
  };

  explicit ShardedSimulation(ShardedConfig config);
  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;
  ~ShardedSimulation();

  std::uint32_t shardCount() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }

  Simulation& shard(ShardId id) {
    IOBTS_CHECK(id < shards_.size(), "shard id out of range");
    return shards_[id]->sim;
  }
  const Simulation& shard(ShardId id) const {
    IOBTS_CHECK(id < shards_.size(), "shard id out of range");
    return shards_[id]->sim;
  }

  /// Run every shard to exhaustion with the configured (or given) number of
  /// workers; rethrows the lowest failing shard's fatal process error.
  /// Returns the final virtual time (max over shards).
  Time run() { return run(config_threads_); }
  Time run(unsigned threads);

  /// Latest shard clock.
  Time now() const noexcept;

  std::uint64_t eventsProcessed() const noexcept;
  const Stats& stats() const noexcept { return stats_; }

  /// Publish "sim.parallel.*" totals and per-shard dispatch counts under
  /// "sim.shard.<id>.*". Excludes the worker count: exports must not depend
  /// on it.
  void exportMetrics(obs::MetricsRegistry& registry) const;

  /// Record shard trace events directly into a sharded binary writer: each
  /// shard's staging sink gets the writer's drain hook, so events are
  /// encoded into shard-tagged chunks from the worker that produced them.
  /// The per-shard chunk sequence is a pure function of the shard's event
  /// stream, so decoded reports are identical across thread counts even
  /// though chunk interleaving in the file is not. The recorder must
  /// outlive every run(); pass nullptr to detach. A global sink, if
  /// installed, still provides track names but receives no events.
  void setTraceRecorder(obs::ShardedBinaryWriter* recorder) {
    recorder_ = recorder;
  }

 private:
  struct Shardlet {
    Simulation sim;
    /// Recorder staging ring (only during a recorded run()).
    std::unique_ptr<obs::TraceSink> staging;
  };

  void runShard(Shardlet& shard, std::exception_ptr& error);

  unsigned config_threads_ = 1;
  std::vector<std::unique_ptr<Shardlet>> shards_;
  obs::ShardedBinaryWriter* recorder_ = nullptr;
  Stats stats_{};
};

}  // namespace iobts::sim
