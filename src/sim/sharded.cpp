#include "sim/sharded.hpp"

#include <algorithm>
#include <string>
#include <thread>

#include "obs/binlog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace iobts::sim {

ShardedSimulation::ShardedSimulation(ShardedConfig config)
    : config_threads_(config.threads) {
  IOBTS_CHECK(config.shards >= 1, "a sharded simulation needs >= 1 shard");
  IOBTS_CHECK(config.lookahead == kInfiniteTime,
              "shards are independent: lookahead must be kInfiniteTime");
  shards_.reserve(config.shards);
  for (std::uint32_t s = 0; s < config.shards; ++s) {
    auto shard = std::make_unique<Shardlet>();
    shard->sim.shard_id_ = s;
    shard->sim.sharded_ = true;
    shards_.push_back(std::move(shard));
  }
}

ShardedSimulation::~ShardedSimulation() = default;

void ShardedSimulation::runShard(Shardlet& shard, std::exception_ptr& error) {
  obs::TraceSink* previous = nullptr;
  if (shard.staging != nullptr) {
    previous = obs::installThreadTraceSink(shard.staging.get());
  }
  try {
    shard.sim.run();
  } catch (...) {
    error = std::current_exception();
  }
  if (shard.staging != nullptr) obs::installThreadTraceSink(previous);
}

Time ShardedSimulation::run(unsigned threads) {
  for (const auto& shard : shards_) {
    if (shard->sim.pendingEvents() == 0) ++stats_.window_stalls;
  }
  obs::TraceSink* const global_sink = obs::traceSink();
  if (recorder_ != nullptr) {
    obs::TraceSinkConfig config;
    if (global_sink != nullptr) {
      config.capacity = global_sink->capacity();
      config.capture_wall_time = global_sink->captureWallTime();
      recorder_->setNameSource(*global_sink);
    }
    for (auto& shard : shards_) {
      shard->staging = std::make_unique<obs::TraceSink>(config);
      recorder_->attachShard(shard->sim.shardId(), *shard->staging);
    }
  } else if (global_sink != nullptr) {
    // One sink is one ordered stream: drain the shards into it on this
    // thread, in shard order.
    threads = 1;
  }

  std::vector<std::exception_ptr> errors(shards_.size());
  std::exception_ptr start_error;
  const std::size_t workers =
      std::min<std::size_t>(std::max(threads, 1u), shards_.size());
  if (workers == 1) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      runShard(*shards_[s], errors[s]);
    }
  } else {
    std::vector<std::thread> pool;
    try {
      pool.reserve(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        // Static map: a shard runs on exactly one worker, start to finish.
        pool.emplace_back([this, w, workers, &errors] {
          for (std::size_t s = w; s < shards_.size(); s += workers) {
            runShard(*shards_[s], errors[s]);
          }
        });
      }
    } catch (...) {
      // A thread failed to start: join the ones that did before unwinding.
      start_error = std::current_exception();
    }
    for (auto& worker : pool) worker.join();
  }

  if (recorder_ != nullptr) {
    // The recorder's hooks point into the staging sinks: final-drain and
    // uninstall them before the sinks die.
    recorder_->detachAll();
    stats_.trace_events_recorded = recorder_->events();
    for (auto& shard : shards_) shard->staging.reset();
  }
  if (start_error) std::rethrow_exception(start_error);
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return now();
}

Time ShardedSimulation::now() const noexcept {
  Time latest = 0.0;
  for (const auto& shard : shards_) {
    latest = std::max(latest, shard->sim.now());
  }
  return latest;
}

std::uint64_t ShardedSimulation::eventsProcessed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->sim.eventsProcessed();
  return total;
}

void ShardedSimulation::exportMetrics(obs::MetricsRegistry& registry) const {
  registry.setGauge("sim.parallel.shards",
                    static_cast<double>(shards_.size()));
  if (stats_.trace_events_recorded > 0) {
    registry.addCounter("sim.parallel.trace_events_recorded",
                        stats_.trace_events_recorded);
  }
  registry.addCounter("sim.parallel.events_dispatched", eventsProcessed());
  for (const auto& shard : shards_) {
    const std::string prefix =
        "sim.shard." + std::to_string(shard->sim.shardId());
    registry.addCounter(prefix + ".events_dispatched",
                        shard->sim.eventsProcessed());
    registry.setGauge(prefix + ".pending_events",
                      static_cast<double>(shard->sim.pendingEvents()));
  }
}

}  // namespace iobts::sim
