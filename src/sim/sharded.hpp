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
// run(threads) starts min(threads, shards) workers that claim shards
// longest first: the shards are ordered once by pending events, most first
// (ties by shard id), and each worker takes the next one from a shared
// cursor and runs its Simulation to completion before claiming again; then
// the workers join. A shard's fatal process error is captured on its worker
// and the other shards still finish; after the join the lowest failing
// shard's error is rethrown, so the error that surfaces never depends on
// timing. threads == 1 runs every shard on the calling thread, in shard
// order.
//
// Tracing has one path: with a global obs::TraceSink installed, run()
// drains the shards on the calling thread, in shard order, straight into
// that sink. One sink is one ordered stream, so the recording loses no
// event and is byte-identical at every thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace iobts::obs {
class MetricsRegistry;
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
  };

  explicit ShardedSimulation(ShardedConfig config);
  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  std::uint32_t shardCount() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }

  Simulation& shard(ShardId id) {
    IOBTS_CHECK(id < shards_.size(), "shard id out of range");
    return *shards_[id];
  }
  const Simulation& shard(ShardId id) const {
    IOBTS_CHECK(id < shards_.size(), "shard id out of range");
    return *shards_[id];
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

 private:
  unsigned config_threads_ = 1;
  std::vector<std::unique_ptr<Simulation>> shards_;
  Stats stats_{};
};

}  // namespace iobts::sim
