// One rule per scenario value. Every value rule a document can reach lives
// in the module that owns the value -- SharedLink's config check, the
// FaultPlan builders, World's config check, tmio's strategy table and its
// tolerance check -- and both entry points run that same rule:
//
//   * the C++ API rejects the bad value with CheckError when the object is
//     constructed (or the plan builder is called);
//   * a document setting that value fails with a ScenarioError at the
//     key's line, naming the key, with the module's reason as its message.
//
// Negative link numbers, fault times and jitter are not in the table: the
// DSL's header values are bare literals, so a document cannot spell them.
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/plan.hpp"
#include "mpisim/world.hpp"
#include "pfs/file_store.hpp"
#include "pfs/shared_link.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulation.hpp"
#include "tmio/strategy.hpp"
#include "util/check.hpp"

namespace iobts::scenario {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct RuleCase {
  std::string rule;
  std::string document;
  int line = 0;               // the key's line in `document`
  std::string field;          // the key the diagnostic names
  std::function<void()> api;  // the same value through the C++ API
};

// Each document puts the bad value on line 4 (line 5 for faults, after a
// valid blackout the overlap case collides with).
std::string linkDoc(const std::string& assignment) {
  return "scenario \"t\"\nlink {\n  write = 2e9\n  " + assignment +
         "\n}\nworld main { ranks = 2 }\nprogram main { barrier }\n";
}

std::string faultsDoc(const std::string& declaration) {
  return "scenario \"t\"\nfaults {\n  seed = 3\n"
         "  blackout from 1.0 to 2.0\n  " +
         declaration +
         "\n}\nworld main { ranks = 2 }\nprogram main { compute 0.1 }\n";
}

std::string worldDoc(const std::string& assignment) {
  return "scenario \"t\"\nworld main {\n  ranks = 2\n  " + assignment +
         "\n}\nprogram main { barrier }\n";
}

RuleCase linkCase(const std::string& key, const std::string& value,
                  void (*set)(pfs::LinkConfig&)) {
  return {"link." + key + " = " + value, linkDoc(key + " = " + value), 4,
          "link." + key, [set] {
            pfs::LinkConfig config;
            config.write_capacity = 2e9;
            set(config);
            sim::Simulation sim;
            pfs::SharedLink link(sim, config);
          }};
}

RuleCase faultCase(const std::string& declaration, const std::string& field,
                   void (*add)(fault::FaultPlan&)) {
  return {declaration, faultsDoc(declaration), 5, field, [add] {
            fault::FaultPlan plan(3);
            plan.addBlackout({1.0, 2.0});
            add(plan);
          }};
}

RuleCase worldCase(const std::string& key, const std::string& value,
                   void (*set)(mpisim::WorldConfig&)) {
  return {"world." + key + " = " + value, worldDoc(key + " = " + value), 4,
          "world." + key, [set] {
            mpisim::WorldConfig config;
            config.ranks = 2;
            set(config);
            sim::Simulation sim;
            pfs::SharedLink link(sim, pfs::LinkConfig{});
            pfs::FileStore store;
            mpisim::World world(sim, link, store, config);
          }};
}

std::vector<RuleCase> ruleCases() {
  using pfs::LinkConfig;
  using mpisim::WorldConfig;
  using fault::FaultPlan;
  return {
      // SharedLink: capacities positive and finite, the rest non-negative
      // and finite. 1e999 overflows a double and lexes as inf.
      linkCase("write", "0", [](LinkConfig& c) { c.write_capacity = 0.0; }),
      linkCase("write", "1e999",
               [](LinkConfig& c) { c.write_capacity = kInf; }),
      linkCase("read", "0", [](LinkConfig& c) { c.read_capacity = 0.0; }),
      linkCase("read", "1e999",
               [](LinkConfig& c) { c.read_capacity = kInf; }),
      linkCase("client_cap", "1e999",
               [](LinkConfig& c) { c.client_rate_cap = kInf; }),
      linkCase("congestion", "1e999",
               [](LinkConfig& c) { c.congestion_gamma = kInf; }),
      linkCase("noise", "1e999", [](LinkConfig& c) { c.noise_sigma = kInf; }),
      linkCase("noise_ref", "1e999",
               [](LinkConfig& c) { c.noise_reference_rate = kInf; }),
      linkCase("quantum", "1e999",
               [](LinkConfig& c) { c.recompute_quantum = kInf; }),

      // FaultPlan builders: windows, factor, probability, fraction and
      // blackout overlap.
      faultCase("degrade write 0.5 from 3.0 to 3.0", "faults.degrade",
                [](FaultPlan& p) {
                  p.degradeChannel(pfs::Channel::Write, 0.5, {3.0, 3.0});
                }),
      faultCase("outage 0.5 from 1e999 to 1e999", "faults.outage",
                [](FaultPlan& p) { p.addOutage(0.5, {kInf, kInf}); }),
      faultCase("blackout from 3.0 to 2.5", "faults.blackout",
                [](FaultPlan& p) { p.addBlackout({3.0, 2.5}); }),
      faultCase("degrade read 0 from 3.0 to 4.0", "faults.degrade",
                [](FaultPlan& p) {
                  p.degradeChannel(pfs::Channel::Read, 0.0, {3.0, 4.0});
                }),
      faultCase("degrade read 1.5 from 3.0 to 4.0", "faults.degrade",
                [](FaultPlan& p) {
                  p.degradeChannel(pfs::Channel::Read, 1.5, {3.0, 4.0});
                }),
      faultCase("transfer_fault any 1.5 from 3.0 to 4.0",
                "faults.transfer_fault",
                [](FaultPlan& p) {
                  fault::TransferFaultRule rule;
                  rule.window = {3.0, 4.0};
                  rule.probability = 1.5;
                  p.addTransferFault(rule);
                }),
      faultCase("outage 0 from 3.0 to 4.0", "faults.outage",
                [](FaultPlan& p) { p.addOutage(0.0, {3.0, 4.0}); }),
      faultCase("outage 1.5 from 3.0 to 4.0", "faults.outage",
                [](FaultPlan& p) { p.addOutage(1.5, {3.0, 4.0}); }),
      faultCase("blackout from 1.5 to 2.5", "faults.blackout",
                [](FaultPlan& p) { p.addBlackout({1.5, 2.5}); }),

      // World: at least one rank, jitter finite and within the overflow
      // bound (ln(DBL_MAX) / sqrt(106 ln 2) = 82.8056...).
      worldCase("ranks", "0", [](WorldConfig& c) { c.ranks = 0; }),
      worldCase("jitter", "82.806",
                [](WorldConfig& c) { c.compute_jitter_sigma = 82.806; }),
      worldCase("jitter", "1e10",
                [](WorldConfig& c) { c.compute_jitter_sigma = 1e10; }),
      worldCase("jitter", "1e999",
                [](WorldConfig& c) { c.compute_jitter_sigma = kInf; }),

      // tmio: the strategy table and the tolerance check.
      {"world.tolerance = 0", worldDoc("tolerance = 0"), 4, "world.tolerance",
       [] {
         tmio::StrategyParams params;
         params.tolerance = 0.0;
         tmio::makeStrategy(tmio::StrategyKind::None, params);
       }},
      {"world.strategy = \"uponly\"", worldDoc("strategy = \"uponly\""), 4,
       "world.strategy", [] { tmio::parseStrategy("uponly"); }},
      {"world.strategy = \"turbo\"", worldDoc("strategy = \"turbo\""), 4,
       "world.strategy", [] { tmio::parseStrategy("turbo"); }},
  };
}

TEST(ScenarioValueRules, EachRuleRejectsThroughTheApiAndTheDocument) {
  for (const RuleCase& c : ruleCases()) {
    SCOPED_TRACE(c.rule);
    std::string reason;
    try {
      c.api();
      ADD_FAILURE() << "the C++ API accepted the value";
    } catch (const CheckError& e) {
      reason = e.reason();
    }
    try {
      parseScenario(c.document);
      ADD_FAILURE() << "the document parsed:\n" << c.document;
    } catch (const ScenarioError& e) {
      EXPECT_EQ(e.line(), c.line) << e.what();
      EXPECT_EQ(e.field(), c.field) << e.what();
      EXPECT_EQ(e.message(), reason) << e.what();
    }
  }
}

// The same rules accept the values just inside them, through both entry
// points: a document at each bound parses and constructs.
TEST(ScenarioValueRules, BoundaryValuesPassBothEntryPoints) {
  const ScenarioSpec spec = parseScenario(
      "scenario \"t\"\n"
      "link { write = 1e300  read = 1  client_cap = 0  quantum = 0 }\n"
      "faults { degrade write 1 from 0 to 1e999\n"
      "         transfer_fault any 0 from 0 to 1\n"
      "         outage 1 from 1 to 2\n"
      "         blackout from 2 to 3  blackout from 3 to 4 }\n"
      "world main { ranks = 2  jitter = 82.805  tolerance = 1e-9 }\n"
      "program main { barrier }\n");
  EXPECT_EQ(spec.faults.blackouts().size(), 2u);
  EXPECT_NO_THROW({
    sim::Simulation sim;
    pfs::SharedLink link(sim, spec.link);
    pfs::FileStore store;
    mpisim::World world(sim, link, store, spec.worlds[0].config);
    tmio::makeStrategy(spec.worlds[0].tracer.strategy,
                       spec.worlds[0].tracer.params);
  });
}

}  // namespace
}  // namespace iobts::scenario
