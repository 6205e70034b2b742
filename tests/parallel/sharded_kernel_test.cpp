// Unit tests for the independent-shard executor: shard identity, worker
// pools of every size, the longest-first claim order, fatal-error
// collection, and the idle-shard counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/sharded.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace iobts::sim {
namespace {

TEST(ShardedKernel, SingleShardMatchesPlainSimulation) {
  std::vector<int> plain_order;
  {
    Simulation sim;
    sim.post(2.0, [&] { plain_order.push_back(2); });
    sim.post(1.0, [&] { plain_order.push_back(1); });
    sim.post(1.0, [&] { plain_order.push_back(10); });
    EXPECT_DOUBLE_EQ(sim.run(), 2.0);
  }

  std::vector<int> sharded_order;
  ShardedSimulation sharded({.shards = 1});
  sharded.shard(0).post(2.0, [&] { sharded_order.push_back(2); });
  sharded.shard(0).post(1.0, [&] { sharded_order.push_back(1); });
  sharded.shard(0).post(1.0, [&] { sharded_order.push_back(10); });
  EXPECT_DOUBLE_EQ(sharded.run(), 2.0);

  EXPECT_EQ(plain_order, sharded_order);
  EXPECT_EQ(sharded.eventsProcessed(), 3u);
}

TEST(ShardedKernel, LookaheadOtherThanInfiniteIsRejected) {
  EXPECT_THROW(ShardedSimulation({.shards = 2, .lookahead = 0.5}),
               CheckError);
  EXPECT_THROW(ShardedSimulation({.shards = 2, .lookahead = 0.0}),
               CheckError);
}

TEST(ShardedKernel, FatalErrorLowestShardWinsDeterministically) {
  for (unsigned threads : {1u, 2u, 4u}) {
    ShardedSimulation sharded({.shards = 4});
    for (ShardId s = 0; s < 4; ++s) {
      sharded.shard(s).spawn([](Simulation&, ShardId shard) -> Task<void> {
        throw std::runtime_error("boom shard " + std::to_string(shard));
        co_return;  // unreachable
      }(sharded.shard(s), s));
    }
    try {
      sharded.run(threads);
      FAIL() << "expected a rethrown fatal error";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "boom shard 0") << "threads=" << threads;
    }
  }
}

// Shard s holds s + 1 events; its first one records when the shard
// started. The first `workers` starters wait inside that event until every
// worker has started a shard, so no worker can claim a second shard before
// each has claimed one: the first `workers` starters are the first claims.
// Returns the shards in start order.
std::vector<ShardId> shardStartOrder(unsigned threads) {
  constexpr ShardId kShards = 4;
  const int workers = static_cast<int>(std::min<unsigned>(threads, kShards));
  ShardedSimulation sharded({.shards = kShards});
  std::atomic<int> started{0};
  std::vector<int> start_rank(kShards, -1);
  for (ShardId s = 0; s < kShards; ++s) {
    sharded.shard(s).post(1.0, [&started, &start_rank, s, workers] {
      start_rank[s] = started.fetch_add(1);
      while (started.load() < workers) std::this_thread::yield();
    });
    for (ShardId e = 1; e <= s; ++e) {
      sharded.shard(s).post(1.0 + e, [] {});
    }
  }
  sharded.run(threads);
  std::vector<ShardId> order(kShards);
  for (ShardId s = 0; s < kShards; ++s) order[start_rank[s]] = s;
  return order;
}

TEST(ShardedKernel, WorkersClaimTheShardsWithTheMostPendingEventsFirst) {
  const std::vector<ShardId> two = shardStartOrder(2);
  EXPECT_EQ((std::set<ShardId>{two[0], two[1]}), (std::set<ShardId>{3, 2}));
  EXPECT_EQ(shardStartOrder(1), (std::vector<ShardId>{0, 1, 2, 3}));
}

TEST(ShardedKernel, LowestFailingShardWinsWhenTheLongestShardFails) {
  // Shard 3 holds the most events, so with two or more workers it is
  // claimed first; the error that surfaces is still the lowest failing
  // shard's.
  for (unsigned threads : {1u, 2u, 4u}) {
    ShardedSimulation sharded({.shards = 4});
    for (const ShardId s : {ShardId{1}, ShardId{3}}) {
      sharded.shard(s).spawn([](Simulation&, ShardId shard) -> Task<void> {
        throw std::runtime_error("boom shard " + std::to_string(shard));
        co_return;  // unreachable
      }(sharded.shard(s), s));
    }
    for (int i = 1; i <= 8; ++i) {
      sharded.shard(3).post(static_cast<Time>(i), [] {});
    }
    for (const ShardId s : {ShardId{0}, ShardId{2}}) {
      sharded.shard(s).post(1.0, [] {});
    }
    try {
      sharded.run(threads);
      FAIL() << "expected a rethrown fatal error";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "boom shard 1") << "threads=" << threads;
    }
  }
}

TEST(ShardedKernel, FailingShardDoesNotStopTheOthers) {
  // Shard 1 dies at t=0; shard 0 and shard 2 still run every event, on
  // whichever worker owns them, before the error surfaces.
  for (unsigned threads : {1u, 2u, 3u}) {
    ShardedSimulation sharded({.shards = 3});
    sharded.shard(1).spawn([]() -> Task<void> {
      throw std::runtime_error("boom");
      co_return;  // unreachable
    }());
    for (const ShardId s : {ShardId{0}, ShardId{2}}) {
      for (int i = 1; i <= 3; ++i) {
        sharded.shard(s).post(static_cast<Time>(i), [] {});
      }
    }
    EXPECT_THROW(sharded.run(threads), std::runtime_error)
        << "threads=" << threads;
    EXPECT_EQ(sharded.shard(0).eventsProcessed(), 3u);
    EXPECT_EQ(sharded.shard(2).eventsProcessed(), 3u);
    EXPECT_DOUBLE_EQ(sharded.shard(2).now(), 3.0);
  }
}

TEST(ShardedKernel, StallCounterCountsIdleShardWindows) {
  ShardedSimulation sharded({.shards = 2});
  // Only shard 0 has work: shard 1 is idle, and counts once.
  for (int i = 0; i < 5; ++i) {
    sharded.shard(0).post(static_cast<Time>(i + 1), [] {});
  }
  sharded.run();
  EXPECT_EQ(sharded.stats().window_stalls, 1u);
  EXPECT_EQ(sharded.eventsProcessed(), 5u);
}

TEST(ShardedKernel, InfiniteLookaheadRunsIndependentShardsInOneWindow) {
  // The configuration the benchmark definition pins: every shard runs to
  // completion in one run() call, each on its own clock.
  ShardedSimulation sharded({.shards = 3, .lookahead = kInfiniteTime});
  std::atomic<int> done{0};
  for (ShardId s = 0; s < 3; ++s) {
    for (int i = 0; i < 100; ++i) {
      sharded.shard(s).post(0.01 * i * (s + 1), [&] { done.fetch_add(1); });
    }
  }
  EXPECT_DOUBLE_EQ(sharded.run(2), 0.99 * 3);
  EXPECT_EQ(done.load(), 300);
  EXPECT_EQ(sharded.stats().window_stalls, 0u);
  for (ShardId s = 0; s < 3; ++s) {
    EXPECT_EQ(sharded.shard(s).pendingEvents(), 0u);
    EXPECT_DOUBLE_EQ(sharded.shard(s).now(), 0.99 * (s + 1));
  }
}

}  // namespace
}  // namespace iobts::sim
