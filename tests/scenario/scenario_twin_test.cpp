// DSL twin equivalence: the checked-in fig10/fig13 scenario files must
// reproduce the hand-coded workload programs *byte-identically* -- the
// canonical hexfloat serialization of each run hashes to the same golden
// constant the integration suite pins for the C++ originals
// (workloads/quick.hpp). This is the strongest possible claim about the
// scenario compiler's arithmetic: one ULP of drift anywhere (expression
// evaluation, statement ordering, collective payloads, tag computation)
// flips the digest.
#include <string>

#include <gtest/gtest.h>

#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulation.hpp"
#include "tmio/strategy.hpp"
#include "workloads/quick.hpp"

#include "../support/golden.hpp"

namespace iobts::scenario {
namespace {

using testsupport::appendLost;
using testsupport::appendTracedCase;
using testsupport::checkDigest;

std::string scenarioPath(const char* file) {
  return std::string(IOBTS_SCENARIO_DIR) + "/" + file;
}

/// Run one world-spec strategy variant of a parsed scenario to completion.
void runWithStrategy(ScenarioSpec spec, const std::string& strategy,
                     std::string& canon, const char* label) {
  ASSERT_EQ(spec.worlds.size(), 1u);
  spec.worlds[0].tracer.strategy = tmio::parseStrategy(strategy);
  sim::Simulation sim;
  Instance instance(sim, std::move(spec));
  instance.launch();
  sim.run();
  instance.requireFinished();
  appendTracedCase(canon, label, instance.world(0), instance.tracer(0),
                   instance.link());
}

TEST(ScenarioTwin, Fig10DslMatchesHandCodedDigest) {
  const ScenarioSpec spec = loadScenarioFile(scenarioPath("fig10_quick.scn"));
  EXPECT_EQ(spec.name, "fig10-quick");
  EXPECT_EQ(spec.worlds[0].config.ranks, workloads::kFig10QuickRanks);

  // Same canonical layout as GoldenDigest.Fig10WacommPipeline: the header
  // line, then the up-only and none cases in that order.
  std::string canon = "fig10-mini\n";
  runWithStrategy(spec, "up-only", canon, "up-only");
  runWithStrategy(spec, "none", canon, "none");
  checkDigest("fig10_mini(dsl)", canon, workloads::kFig10QuickDigest);
}

TEST(ScenarioTwin, Fig13DslMatchesHandCodedDigest) {
  const ScenarioSpec spec = loadScenarioFile(scenarioPath("fig13_quick.scn"));
  EXPECT_EQ(spec.name, "fig13-quick");
  EXPECT_EQ(spec.worlds[0].config.ranks, workloads::kFig13QuickRanks);

  std::string canon = "fig13-mini\n";
  for (const char* label : {"direct", "up-only", "adaptive", "none"}) {
    ScenarioSpec variant = spec;
    variant.worlds[0].tracer.strategy = tmio::parseStrategy(label);
    sim::Simulation sim;
    Instance instance(sim, std::move(variant));
    instance.launch();
    sim.run();
    instance.requireFinished();
    appendTracedCase(canon, label, instance.world(0), instance.tracer(0),
                     instance.link());
    appendLost(canon, instance.tracer(0), workloads::kFig13QuickRanks);
  }
  checkDigest("fig13_mini(dsl)", canon, workloads::kFig13QuickDigest);
}

TEST(ScenarioTwin, Fig13VerifiesEveryLoop) {
  // The digest proves timing identity; this pins the data-integrity side:
  // every rank's read-back verify succeeds in both in-loop and trailing
  // positions (2 loops x 32 ranks).
  ScenarioSpec spec = loadScenarioFile(scenarioPath("fig13_quick.scn"));
  sim::Simulation sim;
  Instance instance(sim, std::move(spec));
  instance.launch();
  sim.run();
  instance.requireFinished();
  const RunStats& stats = instance.stats();
  EXPECT_EQ(stats.verified, 2u * workloads::kFig13QuickRanks);
  EXPECT_EQ(stats.verify_failures, 0u);
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_TRUE(stats.time_monotone);
}

}  // namespace
}  // namespace iobts::scenario
