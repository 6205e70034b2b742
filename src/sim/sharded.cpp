#include "sim/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <numeric>
#include <string>
#include <thread>

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
    auto shard = std::make_unique<Simulation>();
    shard->shard_id_ = s;
    shard->sharded_ = true;
    shards_.push_back(std::move(shard));
  }
}

namespace {

void runShard(Simulation& shard, std::exception_ptr& error) {
  try {
    shard.run();
  } catch (...) {
    error = std::current_exception();
  }
}

}  // namespace

Time ShardedSimulation::run(unsigned threads) {
  for (const auto& shard : shards_) {
    if (shard->pendingEvents() == 0) ++stats_.window_stalls;
  }
  // One sink is one ordered stream: drain the shards into it on this
  // thread, in shard order.
  if (obs::traceSink() != nullptr) threads = 1;

  std::vector<std::exception_ptr> errors(shards_.size());
  std::exception_ptr start_error;
  const std::size_t workers =
      std::min<std::size_t>(std::max(threads, 1u), shards_.size());
  if (workers == 1) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      runShard(*shards_[s], errors[s]);
    }
  } else {
    // Longest first: a shard's pending events (two per rank after launch)
    // stand in for its cost, ties in shard order. Each worker claims the
    // next shard from one cursor and runs it to completion, so a shard's
    // frames never change threads.
    std::vector<std::size_t> order(shards_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return shards_[a]->pendingEvents() >
                              shards_[b]->pendingEvents();
                     });
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    try {
      pool.reserve(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([this, &order, &next, &errors] {
          std::size_t i;
          while ((i = next.fetch_add(1, std::memory_order_relaxed)) <
                 order.size()) {
            runShard(*shards_[order[i]], errors[order[i]]);
          }
        });
      }
    } catch (...) {
      // A thread failed to start: join the ones that did before unwinding.
      start_error = std::current_exception();
    }
    for (auto& worker : pool) worker.join();
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
    latest = std::max(latest, shard->now());
  }
  return latest;
}

std::uint64_t ShardedSimulation::eventsProcessed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->eventsProcessed();
  return total;
}

void ShardedSimulation::exportMetrics(obs::MetricsRegistry& registry) const {
  registry.setGauge("sim.parallel.shards",
                    static_cast<double>(shards_.size()));
  registry.addCounter("sim.parallel.events_dispatched", eventsProcessed());
  for (const auto& shard : shards_) {
    const std::string prefix =
        "sim.shard." + std::to_string(shard->shardId());
    registry.addCounter(prefix + ".events_dispatched",
                        shard->eventsProcessed());
    registry.setGauge(prefix + ".pending_events",
                      static_cast<double>(shard->pendingEvents()));
  }
}

}  // namespace iobts::sim
