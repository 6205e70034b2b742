// Corpus sweep: every checked-in scenario under scenarios/ must parse,
// compile and run to completion with the structural invariants intact, and
// every file under scenarios/invalid/ must be rejected with a ScenarioError
// (never a crash). The CI scenario-corpus leg runs this suite on both the
// Release and Sanitize builds; tools/run_scenario_corpus.sh drives the same
// sweep through the iobts_run CLI.
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulation.hpp"

namespace iobts::scenario {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> listScn(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".scn") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(ScenarioCorpus, EveryValidScenarioRunsClean) {
  const std::vector<fs::path> files = listScn(IOBTS_SCENARIO_DIR);
  // The corpus is a checked-in artifact: shrinking it silently would gut
  // the CI leg, so pin a floor.
  ASSERT_GE(files.size(), 12u);
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    ScenarioSpec spec;
    ASSERT_NO_THROW(spec = loadScenarioFile(file.string()));
    sim::Simulation sim;
    Instance instance(sim, std::move(spec));
    instance.launch();
    ASSERT_NO_THROW(sim.run());
    ASSERT_NO_THROW(instance.requireFinished());
    const RunStats& stats = instance.stats();
    EXPECT_TRUE(stats.time_monotone);
    EXPECT_EQ(stats.verify_failures, 0u);
    EXPECT_EQ(stats.failed_requests, 0u);
    EXPECT_EQ(instance.link().bytesMoved(pfs::Channel::Write),
              stats.write_bytes_requested);
    EXPECT_EQ(instance.link().bytesMoved(pfs::Channel::Read),
              stats.read_bytes_requested);
    EXPECT_EQ(
        instance.link().resolveStats(pfs::Channel::Write).faulted_transfers,
        0u);
    EXPECT_EQ(
        instance.link().resolveStats(pfs::Channel::Read).faulted_transfers,
        0u);
  }
}

TEST(ScenarioCorpus, EveryInvalidScenarioIsRejected) {
  const std::vector<fs::path> files =
      listScn(fs::path(IOBTS_SCENARIO_DIR) / "invalid");
  ASSERT_GE(files.size(), 7u);
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    try {
      ScenarioSpec spec = loadScenarioFile(file.string());
      ADD_FAILURE() << "invalid scenario parsed cleanly";
    } catch (const ScenarioError& e) {
      // Diagnostics must name the offending file and the line at fault.
      EXPECT_NE(e.field().find(file.filename().string()), std::string::npos)
          << e.what();
      EXPECT_GT(e.line(), 0) << e.what();
    }
  }
}

TEST(ScenarioCorpus, StreamingPipelineCouplesWorlds) {
  // The walkthrough scenario really is a two-world pipeline: producer
  // signals match consumer recvs and the consumer reads every byte the
  // producer wrote.
  ScenarioSpec spec = loadScenarioFile(
      (fs::path(IOBTS_SCENARIO_DIR) / "streaming_pipeline.scn").string());
  ASSERT_EQ(spec.worlds.size(), 2u);
  sim::Simulation sim;
  Instance instance(sim, std::move(spec));
  instance.launch();
  sim.run();
  instance.requireFinished();
  const RunStats& stats = instance.stats();
  EXPECT_EQ(stats.signals, stats.recvs);
  EXPECT_GT(stats.signals, 0u);
  EXPECT_EQ(stats.write_bytes_requested, stats.read_bytes_requested);
  // The consumer drains after the producer fills: it cannot finish before
  // the producer's last signal, so it bounds the instance span.
  EXPECT_GE(instance.world("consumer").elapsed() + 1e-9,
            instance.world("producer").elapsed());
  EXPECT_GE(instance.elapsed() + 1e-9, instance.world("consumer").elapsed());
}

}  // namespace
}  // namespace iobts::scenario
