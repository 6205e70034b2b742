// Differential scenario fuzzing: >= 512 seeded generator documents, each
// pushed through the full lexer -> parser -> validator -> compiler -> run
// pipeline, with structural invariants asserted on every run:
//
//   * termination: sim.run() returns and every world/channel drains
//     (Instance::requireFinished throws otherwise);
//   * monotone virtual time across every interpreted statement;
//   * conservation of bytes: exactly the bytes the program requested cross
//     the SharedLink, per channel (generated fault plans only degrade or
//     blackout -- transfers slow down or stall but never fail);
//   * no faulted transfers (resolve-stats introspection) and no failed
//     requests under these fault-free/degrade-only plans;
//   * every generated verify succeeds (the generator only re-checks a
//     blocking write it just made);
//   * re-running the same seed reproduces the identical observable digest;
//   * the interpreter's work counters over seeds 0-511 fold into a pinned
//     digest, so a change to scoping, control flow or op charging shows up
//     even when every run stays self-consistent.
//
// The suite is split into seed blocks so each TEST stays far inside the
// per-test ctest timeout even under TSan.
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "scenario/generator.hpp"
#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace iobts::scenario {
namespace {

struct RunDigest {
  double elapsed = 0.0;
  Bytes write_moved = 0;
  Bytes read_moved = 0;
  std::uint64_t digest = 0;
  RunStats stats;
};

/// Parse + run one generated scenario and check every invariant. Returns a
/// digest of the observable outputs for the same-seed determinism check.
RunDigest runSeed(std::uint64_t seed) {
  const GeneratorConfig config;
  const std::string document = generateScenario(config, seed);
  SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + document);

  // The generator must emit only valid documents: a parse failure here is a
  // generator bug, and the error message (with line info) names it.
  ScenarioSpec spec;
  try {
    spec = parseScenario(document);
  } catch (const ScenarioError& e) {
    ADD_FAILURE() << "generated document failed to parse: " << e.what();
    return {};
  }

  sim::Simulation sim;
  Instance instance(sim, std::move(spec));
  instance.launch();
  const double t_end = sim.run();
  instance.requireFinished();

  const RunStats& stats = instance.stats();
  EXPECT_TRUE(stats.time_monotone) << "virtual time moved backwards";

  // Conservation of bytes: everything requested crossed the link, nothing
  // more (collectives use the analytic cost model, not the link).
  EXPECT_EQ(instance.link().bytesMoved(pfs::Channel::Write),
            stats.write_bytes_requested);
  EXPECT_EQ(instance.link().bytesMoved(pfs::Channel::Read),
            stats.read_bytes_requested);

  // Degrade/blackout-only plans never fail a transfer.
  const pfs::SharedLink::ResolveStats rs_w =
      instance.link().resolveStats(pfs::Channel::Write);
  const pfs::SharedLink::ResolveStats rs_r =
      instance.link().resolveStats(pfs::Channel::Read);
  EXPECT_EQ(rs_w.faulted_transfers, 0u);
  EXPECT_EQ(rs_r.faulted_transfers, 0u);
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_EQ(stats.verify_failures, 0u);

  // Sanity on the introspection counters themselves: submitting I/O must
  // execute resolves on at least one channel.
  if (stats.io_submitted > 0) {
    EXPECT_GT(rs_w.executed + rs_r.executed, 0u);
  }

  // Streaming scenarios must balance their channels.
  EXPECT_GE(stats.signals, stats.recvs);

  RunDigest digest;
  digest.elapsed = t_end;
  digest.write_moved = instance.link().bytesMoved(pfs::Channel::Write);
  digest.read_moved = instance.link().bytesMoved(pfs::Channel::Read);
  digest.stats = stats;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%a|%llu|%llu|%llu|%llu|%llu",
                t_end, static_cast<unsigned long long>(digest.write_moved),
                static_cast<unsigned long long>(digest.read_moved),
                static_cast<unsigned long long>(stats.ops),
                static_cast<unsigned long long>(stats.collectives),
                static_cast<unsigned long long>(stats.verified));
  digest.digest = hashName(buf);
  return digest;
}

void runSeedBlock(std::uint64_t first, std::uint64_t count) {
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    runSeed(seed);
    if (::testing::Test::HasFailure()) {
      // One broken seed is enough signal; do not flood the log with the
      // remaining block.
      return;
    }
  }
}

TEST(ScenarioFuzz, SeedBlock0) { runSeedBlock(0, 128); }
TEST(ScenarioFuzz, SeedBlock1) { runSeedBlock(128, 128); }
TEST(ScenarioFuzz, SeedBlock2) { runSeedBlock(256, 128); }
TEST(ScenarioFuzz, SeedBlock3) { runSeedBlock(384, 128); }

TEST(ScenarioFuzz, SameSeedIsDeterministic) {
  // Re-running a seed reproduces the identical observable digest, including
  // fault-plan and streaming seeds.
  for (const std::uint64_t seed : {0ULL, 3ULL, 4ULL, 12ULL, 97ULL, 300ULL}) {
    const RunDigest first = runSeed(seed);
    const RunDigest second = runSeed(seed);
    EXPECT_EQ(first.digest, second.digest) << "seed " << seed;
    EXPECT_EQ(first.elapsed, second.elapsed) << "seed " << seed;
  }
}

// hashName over eight RunStats counters of seeds 0-511, one line per seed.
// Integers only: generated sizes are whole KiB, so the value is the same on
// every platform; elapsed time is pinned by the fig10/fig13 twin digests.
constexpr std::uint64_t kCorpusCountersDigest = 0x4f23223e7ff403aaULL;

TEST(ScenarioFuzz, CorpusCountersArePinned) {
  std::string folded;
  for (std::uint64_t seed = 0; seed < 512; ++seed) {
    const RunStats stats = runSeed(seed).stats;
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%llu|%llu|%llu|%llu|%llu|%llu|%llu|%llu\n",
                  static_cast<unsigned long long>(stats.ops),
                  static_cast<unsigned long long>(stats.io_submitted),
                  static_cast<unsigned long long>(stats.write_bytes_requested),
                  static_cast<unsigned long long>(stats.read_bytes_requested),
                  static_cast<unsigned long long>(stats.collectives),
                  static_cast<unsigned long long>(stats.signals),
                  static_cast<unsigned long long>(stats.recvs),
                  static_cast<unsigned long long>(stats.verified));
    folded += line;
  }
  EXPECT_EQ(hashName(folded), kCorpusCountersDigest)
      << std::hex << "0x" << hashName(folded);
}

TEST(ScenarioFuzz, GeneratorIsPureInSeed) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const GeneratorConfig config;
    EXPECT_EQ(generateScenario(config, seed), generateScenario(config, seed))
        << "seed " << seed;
  }
}

TEST(ScenarioFuzz, GeneratorCoversScenarioClasses) {
  // The corpus the blocks above run must actually contain the interesting
  // classes: streaming pipelines, fault plans, phased programs, burst
  // buffers.
  int streaming = 0, faulted = 0, phased = 0, buffered = 0;
  const GeneratorConfig config;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const std::string doc = generateScenario(config, seed);
    if (doc.find("program consumer") != std::string::npos) ++streaming;
    if (doc.find("faults {") != std::string::npos) ++faulted;
    if (doc.find("phase p0") != std::string::npos) ++phased;
    if (doc.find("burst_buffer = 1") != std::string::npos) ++buffered;
  }
  EXPECT_GE(streaming, 8);
  EXPECT_GE(faulted, 8);
  EXPECT_GE(phased, 24);
  EXPECT_GE(buffered, 8);
}

}  // namespace
}  // namespace iobts::scenario
