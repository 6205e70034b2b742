// Checkpoint/restore of independent shards: a set of generated scenario
// instances, one per shard, is parked shard by shard with
// Simulation::runUntil() (a quiescent point: between events), captured per
// shard, rebuilt in a fresh ShardedSimulation, replayed to the same
// watermark, verified section by section, and resumed with 1, 2 and 4
// worker threads. Every resumed digest must equal the straight threads=1
// run -- the same bar the plain sharded determinism suite sets, now with a
// checkpoint/restore in the middle.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/capture.hpp"
#include "scenario/generator.hpp"
#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "sim/sharded.hpp"
#include "util/rng.hpp"

namespace iobts::ckpt {
namespace {

constexpr std::uint32_t kShards = 4;
constexpr unsigned kThreadCounts[] = {1, 2, 4};

/// Generated scenario instances, one per shard.
struct ShardedInstances {
  ShardedInstances(std::uint64_t seed, unsigned threads)
      : sharded({.shards = kShards, .threads = threads}) {
    for (sim::ShardId s = 0; s < kShards; ++s) {
      scenario::ScenarioSpec spec = scenario::parseScenario(
          scenario::generateScenario(scenario::GeneratorConfig{},
                                     seed * 16 + s));
      instances.push_back(std::make_unique<scenario::Instance>(
          sharded.shard(s), std::move(spec)));
      instances.back()->launch();
    }
  }

  /// Park every shard at `watermark`.
  void park(sim::Time watermark) {
    for (sim::ShardId s = 0; s < kShards; ++s) {
      sharded.shard(s).runUntil(watermark);
    }
  }

  /// Each shard's state sections.
  std::vector<std::vector<Section>> capture() {
    std::vector<std::vector<Section>> sections;
    for (const auto& instance : instances) {
      sections.push_back(captureInstanceState(*instance));
    }
    return sections;
  }

  std::uint64_t finalDigest() {
    std::string canon;
    for (const auto& instance : instances) {
      instance->requireFinished();
      CaptureOptions opt;
      opt.include_clock = false;
      canon += joinSections(captureInstanceState(*instance, opt));
    }
    return hashName(canon);
  }

  sim::ShardedSimulation sharded;
  std::vector<std::unique_ptr<scenario::Instance>> instances;
};

TEST(CkptShardedResume, WindowBarrierCheckpointAcrossThreadCounts) {
  for (const std::uint64_t seed : {std::uint64_t{2}, std::uint64_t{5}}) {
    // Reference: straight single-threaded run to completion.
    ShardedInstances straight(seed, 1);
    const double t_end = straight.sharded.run(1);
    const std::uint64_t reference = straight.finalDigest();
    ASSERT_GT(t_end, 0.0);

    for (const double frac : {0.3, 0.6}) {
      const double watermark = t_end * frac;
      // "Writer" process: park every shard at the watermark, capture.
      ShardedInstances writer(seed, 1);
      writer.park(watermark);
      const std::vector<std::vector<Section>> snapshot = writer.capture();

      for (const unsigned threads : kThreadCounts) {
        // "Resumer" process: rebuild, replay to the same watermark, verify
        // bit-for-bit, then finish with `threads` workers.
        ShardedInstances resumer(seed, threads);
        resumer.park(watermark);
        const std::vector<std::vector<Section>> replayed = resumer.capture();
        for (sim::ShardId s = 0; s < kShards; ++s) {
          ASSERT_NO_THROW(requireSectionsEqual(snapshot[s], replayed[s],
                                               "<shard " + std::to_string(s) +
                                                   ">"))
              << "seed=" << seed << " frac=" << frac
              << " threads=" << threads;
        }
        resumer.sharded.run(threads);
        EXPECT_EQ(resumer.finalDigest(), reference)
            << "seed=" << seed << " frac=" << frac
            << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace iobts::ckpt
