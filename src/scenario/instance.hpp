// Scenario execution harness.
//
// An Instance owns the full simulation stack for one parsed scenario. The
// spec already holds the simulator's own configs, each checked by its
// module as the document was read, so the Instance converts nothing: it
// builds the SharedLink from the spec's LinkConfig and installs the spec's
// FaultPlan on it, a FileStore, and -- per `world` -- a tmio::Tracer from
// the world's TracerConfig and an mpisim::World from its WorldConfig,
// whose rank program is the compiled DSL program. All worlds share the
// link and store, so multi-world scenarios (the streaming-pipeline class)
// contend for the same PFS exactly like the paper's co-running jobs.
//
// The caller drives the simulation:
//
//   sim::Simulation sim;
//   scenario::Instance instance(sim, scenario::loadScenarioFile(path));
//   instance.launch();
//   sim.run();
//   instance.requireFinished();   // diagnoses blocked worlds/channels
//
// The harness mirrors the figure pipelines' TracedRun wiring (link ->
// tracer -> world, tracer attached before launch), which is what makes a
// DSL twin's run byte-identical to its hand-written counterpart.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mpisim/world.hpp"
#include "pfs/file_store.hpp"
#include "pfs/shared_link.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "tmio/tracer.hpp"

namespace iobts::scenario {

/// Aggregate counters over every rank of every world of one Instance.
/// The simulation drives all of an instance's worlds on one shard, so plain
/// counters suffice (the sharded tests run one Instance per shard).
struct RunStats {
  std::uint64_t ops = 0;              // interpreted statements
  std::uint64_t io_submitted = 0;     // write/read/iwrite/iread statements
  Bytes write_bytes_requested = 0;
  Bytes read_bytes_requested = 0;
  std::uint64_t collectives = 0;      // barrier/bcast/allreduce
  std::uint64_t signals = 0;          // tokens released
  std::uint64_t recvs = 0;            // tokens consumed
  std::uint64_t verified = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t failed_requests = 0;  // async requests with error status
  /// Cleared if any rank ever observed virtual time moving backwards across
  /// a statement (the fuzz suite's monotone-time invariant).
  bool time_monotone = true;
};

class Instance {
 public:
  /// Takes the spec by value; it must come from parseScenario and is
  /// immutable afterwards (compiled programs and the link's installed
  /// fault plan point into it).
  Instance(sim::Simulation& simulation, ScenarioSpec spec);
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance();

  /// Launch every world's compiled program (call once, before sim.run()).
  void launch();

  /// After sim.run(): throw ScenarioError naming each world that did not
  /// finish and each channel still holding blocked receivers -- the
  /// runtime deadlock diagnostic for unbalanced signal/recv scenarios.
  void requireFinished() const;

  const ScenarioSpec& spec() const noexcept { return spec_; }
  sim::Simulation& sim() noexcept { return sim_; }
  pfs::SharedLink& link() noexcept { return link_; }
  pfs::FileStore& store() noexcept { return store_; }
  RunStats& stats() noexcept { return stats_; }
  const RunStats& stats() const noexcept { return stats_; }

  std::size_t worldCount() const noexcept { return worlds_.size(); }
  mpisim::World& world(std::size_t index);
  mpisim::World& world(const std::string& name);
  const tmio::Tracer& tracer(std::size_t index) const;
  const tmio::Tracer& tracer(const std::string& name) const;

  /// Virtual elapsed time of the slowest world (valid once finished).
  Seconds elapsed() const;

  /// Where world `index`'s records go when a run's records are written to
  /// `path` (a JSONL file or a CSV prefix): `path` itself in a one-world
  /// document, else `path` with ".<world name>" inserted before the
  /// extension of its last component ("run.jsonl" -> "run.producer.jsonl",
  /// "out/run" -> "out/run.producer").
  std::string recordPath(const std::string& path, std::size_t index) const;

  /// The rendezvous semaphore behind `signal`/`recv` statements. Channels
  /// are per (name, rank): producer rank r feeds consumer rank r. Created
  /// on first use (deterministic: one shard drives all of the instance's
  /// worlds).
  sim::Semaphore& channel(const std::string& name, int rank);

 private:
  struct WorldEntry {
    const WorldSpec* spec = nullptr;
    std::unique_ptr<tmio::Tracer> tracer;
    std::unique_ptr<mpisim::World> world;
  };

  sim::Simulation& sim_;
  ScenarioSpec spec_;
  pfs::SharedLink link_;
  pfs::FileStore store_;
  std::vector<WorldEntry> worlds_;
  std::map<std::pair<std::string, int>, sim::Semaphore> channels_;
  RunStats stats_;
  bool launched_ = false;
};

/// Compile one world's DSL program into a rank program running against
/// `instance` (shared stats/channels). Exposed for the twin and fuzz tests;
/// Instance::launch uses it for every world.
mpisim::World::RankProgram compileProgram(Instance& instance,
                                          const WorldSpec& world);

}  // namespace iobts::scenario
