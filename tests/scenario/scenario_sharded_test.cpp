// Sharded-executor equivalence for compiled scenarios: a set of generated
// scenario instances (one per shard, including streaming two-world and
// fault-plan documents) must produce byte-identical canonical output at
// threads in {1, 2, 4}. The threads=1 run is the reference digest; any
// divergence means the scenario runtime shares state across shards.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/generator.hpp"
#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "sim/sharded.hpp"
#include "util/rng.hpp"

namespace iobts::scenario {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34};
constexpr unsigned kThreadCounts[] = {1, 2, 4};
constexpr std::uint32_t kShards = 4;

void appendNumber(std::string& out, const std::string& key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s=%a\n", key.c_str(), value);
  out += buf;
}

std::uint64_t runScenarioFleet(unsigned threads, std::uint64_t seed) {
  sim::ShardedSimulation sharded({.shards = kShards, .threads = threads});

  std::vector<std::unique_ptr<Instance>> instances;
  for (sim::ShardId s = 0; s < kShards; ++s) {
    // Per-shard seed drawn from the fleet seed; every document class the
    // generator knows (phased, streaming, faulted, burst-buffered) ends up
    // in some shard across the seed set. A multi-world streaming instance
    // shares its link and file store between its worlds, so the whole
    // instance lives on one shard.
    const GeneratorConfig config;
    const std::uint64_t doc_seed = seed * 16 + s;
    ScenarioSpec spec = parseScenario(generateScenario(config, doc_seed));
    instances.push_back(
        std::make_unique<Instance>(sharded.shard(s), std::move(spec)));
    instances.back()->launch();
  }

  const double t_end = sharded.run(threads);

  std::string canon = "scenario-fleet\n";
  appendNumber(canon, "t_end", t_end);
  for (sim::ShardId s = 0; s < kShards; ++s) {
    Instance& inst = *instances[s];
    inst.requireFinished();
    const std::string p = std::string("i").append(std::to_string(s));
    appendNumber(canon, p + ".elapsed", inst.elapsed());
    for (std::size_t w = 0; w < inst.worldCount(); ++w) {
      appendNumber(canon, p + ".w" + std::to_string(w) + ".elapsed",
                   inst.world(w).elapsed());
    }
    appendNumber(canon, p + ".bytes_write",
                 static_cast<double>(inst.link().bytesMoved(
                     pfs::Channel::Write)));
    appendNumber(canon, p + ".bytes_read",
                 static_cast<double>(inst.link().bytesMoved(
                     pfs::Channel::Read)));
    appendNumber(canon, p + ".ops", static_cast<double>(inst.stats().ops));
    appendNumber(canon, p + ".verified",
                 static_cast<double>(inst.stats().verified));
    appendNumber(canon, p + ".events",
                 static_cast<double>(sharded.shard(s).eventsProcessed()));
    EXPECT_TRUE(inst.stats().time_monotone)
        << "shard " << s << " seed " << seed;
    EXPECT_EQ(inst.stats().verify_failures, 0u);
  }
  return hashName(canon);
}

TEST(ScenarioSharded, GeneratedFleetAcrossThreadsAndSeeds) {
  // The fleets below include burst-buffer worlds.
  int buffered = 0;
  for (const std::uint64_t seed : kSeeds) {
    for (sim::ShardId s = 0; s < kShards; ++s) {
      buffered += generateScenario(GeneratorConfig{}, seed * 16 + s)
                      .find("burst_buffer = 1") != std::string::npos;
    }
  }
  EXPECT_GE(buffered, 1);
  for (const std::uint64_t seed : kSeeds) {
    const std::uint64_t reference = runScenarioFleet(1, seed);
    for (const unsigned threads : kThreadCounts) {
      if (threads == 1) continue;
      EXPECT_EQ(runScenarioFleet(threads, seed), reference)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace iobts::scenario
