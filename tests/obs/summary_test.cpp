// Run-summary artifact tests: canonical sections in deterministic order,
// byte-identical renders across repeated runs, independence from whether
// tracing was enabled, row-capped tables that still digest the full data,
// and atomic file writes.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/summary.hpp"
#include "obs/trace.hpp"
#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulation.hpp"

namespace iobts::obs {
namespace {

std::string scenarioPath(const char* file) {
  return std::string(IOBTS_SCENARIO_DIR) + "/" + file;
}

/// Run fig10_quick to completion and summarize it. `traced` installs a
/// live sink for the run -- the summary must not care.
RunSummary summarizedRun(const SummaryOptions& options, bool traced = false) {
  scenario::ScenarioSpec spec =
      scenario::loadScenarioFile(scenarioPath("fig10_quick.scn"));
  sim::Simulation sim;
  scenario::Instance instance(sim, std::move(spec));
  TraceSink sink;
  std::unique_ptr<ScopedTraceSink> scoped;
  if (traced) scoped = std::make_unique<ScopedTraceSink>(sink);
  instance.launch();
  sim.run();
  instance.requireFinished();
  return summarizeInstance(instance, options);
}

TEST(RunSummary, SectionsInDeterministicOrderWithByteIdenticalRenders) {
  SummaryOptions options;
  options.scenario_name = "fig10-quick";
  const RunSummary first = summarizedRun(options);
  const RunSummary second = summarizedRun(options);

  ASSERT_EQ(first.sections.size(), 5u);
  EXPECT_EQ(first.sections[0].name, "meta");
  EXPECT_EQ(first.sections[1].name, "phases.0");
  EXPECT_EQ(first.sections[2].name, "stalls.0");
  EXPECT_EQ(first.sections[3].name, "link");
  EXPECT_EQ(first.sections[4].name, "metrics");

  EXPECT_EQ(first.render(), second.render());
  EXPECT_EQ(first.digest(), second.digest());
  ASSERT_GT(first.render().size(), 500u);

  const std::string meta = first.sections[0].payload;
  EXPECT_NE(meta.find("scenario=fig10-quick\n"), std::string::npos);
  EXPECT_NE(meta.find("run_digest=0x"), std::string::npos);
  EXPECT_NE(meta.find("worlds=1\n"), std::string::npos);

  // Stall attribution rolls the split up into the two headline numbers.
  const std::string stalls = first.sections[2].payload;
  EXPECT_NE(stalls.find("compute_overlapped="), std::string::npos);
  EXPECT_NE(stalls.find("io_blocked="), std::string::npos);

  // Link section carries both timelines for each channel.
  const std::string link = first.sections[3].payload;
  EXPECT_NE(link.find("write.utilization.steps="), std::string::npos);
  EXPECT_NE(link.find("write.backlog.max="), std::string::npos);
  EXPECT_NE(link.find("write.utilization.at="), std::string::npos);
}

TEST(RunSummary, IdenticalWhetherOrNotTheRunWasTraced) {
  SummaryOptions options;
  options.scenario_name = "fig10-quick";
  const RunSummary untraced = summarizedRun(options, /*traced=*/false);
  const RunSummary traced = summarizedRun(options, /*traced=*/true);
  EXPECT_EQ(untraced.render(), traced.render());
}

TEST(RunSummary, ScenarioTextIsDigestedNotStored) {
  SummaryOptions options;
  options.scenario_name = "fig10-quick";
  options.scenario_text = "SCENARIO-SOURCE-SENTINEL world { }";
  const RunSummary summary = summarizedRun(options);
  const std::string render = summary.render();
  EXPECT_EQ(render.find("SCENARIO-SOURCE-SENTINEL"), std::string::npos);
  char expected[48];
  std::snprintf(expected, sizeof(expected), "scenario_digest=0x%016llx",
                static_cast<unsigned long long>(
                    ckpt::fnv1a(options.scenario_text)));
  EXPECT_NE(render.find(expected), std::string::npos);
}

TEST(RunSummary, PhaseRowCapElidesRowsButDigestsAllOfThem) {
  SummaryOptions full;
  full.scenario_name = "fig10-quick";
  full.max_phase_rows = 1u << 20;  // large enough that nothing is elided
  SummaryOptions capped = full;
  capped.max_phase_rows = 1;
  const std::string full_phases = summarizedRun(full).sections[1].payload;
  const std::string capped_phases = summarizedRun(capped).sections[1].payload;

  EXPECT_EQ(full_phases.find("rows_elided="), std::string::npos);
  EXPECT_NE(capped_phases.find("rows_elided="), std::string::npos);
  EXPECT_LT(capped_phases.size(), full_phases.size());

  // The digest covers every row regardless of the render cap.
  const auto digestLine = [](const std::string& payload) {
    const std::size_t at = payload.find("rows_digest=");
    EXPECT_NE(at, std::string::npos);
    return payload.substr(at, payload.find('\n', at) - at);
  };
  EXPECT_EQ(digestLine(full_phases), digestLine(capped_phases));
}

TEST(RunSummary, WriteIsAtomicAndFaithful) {
  SummaryOptions options;
  options.scenario_name = "fig10-quick";
  const RunSummary summary = summarizedRun(options);
  const std::string path = ::testing::TempDir() + "/run_summary.txt";
  ASSERT_TRUE(writeRunSummary(summary, path));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), summary.render());
  // No .tmp residue after a successful rename.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  EXPECT_FALSE(writeRunSummary(
      summary, ::testing::TempDir() + "/no_such_dir/run_summary.txt"));
}

}  // namespace
}  // namespace iobts::obs
