#include "scenario/instance.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "tmio/strategy.hpp"

namespace iobts::scenario {
namespace {

pfs::LinkConfig toLinkConfig(const LinkSpec& spec) {
  pfs::LinkConfig cfg;
  cfg.write_capacity = spec.write_capacity;
  cfg.read_capacity = spec.read_capacity;
  cfg.client_rate_cap = spec.client_rate_cap;
  cfg.congestion_gamma = spec.congestion_gamma;
  cfg.noise_sigma = spec.noise_sigma;
  cfg.noise_reference_rate = spec.noise_reference_rate;
  cfg.recompute_quantum = spec.recompute_quantum;
  cfg.seed = spec.seed;
  return cfg;
}

fault::FaultPlan toFaultPlan(const FaultSpec& spec) {
  fault::FaultPlan plan(spec.seed);
  for (const FaultDecl& decl : spec.decls) {
    const fault::TimeWindow window{decl.begin, decl.end};
    switch (decl.kind) {
      case FaultDecl::Kind::Degrade:
        plan.degradeChannel(*decl.channel, decl.value, window);
        break;
      case FaultDecl::Kind::Blackout:
        plan.addBlackout(window);
        break;
      case FaultDecl::Kind::Outage:
        plan.addOutage(decl.value, window);
        break;
      case FaultDecl::Kind::TransferFault: {
        fault::TransferFaultRule rule;
        rule.channel = decl.channel;
        rule.window = window;
        rule.probability = decl.value;
        plan.addTransferFault(rule);
        break;
      }
    }
  }
  return plan;
}

tmio::TracerConfig toTracerConfig(const WorldSpec& world) {
  tmio::TracerConfig cfg;
  cfg.strategy = tmio::parseStrategy(world.strategy);
  cfg.params.tolerance = world.tolerance;
  return cfg;
}

mpisim::WorldConfig toWorldConfig(const WorldSpec& world) {
  mpisim::WorldConfig cfg;
  cfg.ranks = world.ranks;
  cfg.compute_jitter_sigma = world.jitter;
  cfg.seed = world.seed;
  cfg.name = world.name;
  if (world.burst_buffer) cfg.burst_buffer = pfs::BurstBufferConfig{};
  return cfg;
}

}  // namespace

Instance::Instance(sim::Simulation& simulation, ScenarioSpec spec)
    : sim_(simulation),
      spec_(std::move(spec)),
      fault_plan_(spec_.faults ? toFaultPlan(*spec_.faults)
                               : fault::FaultPlan()),
      link_(simulation, toLinkConfig(spec_.link)) {
  if (!fault_plan_.empty()) link_.installFaultPlan(fault_plan_);
  worlds_.reserve(spec_.worlds.size());
  for (const WorldSpec& world_spec : spec_.worlds) {
    WorldEntry entry;
    entry.spec = &world_spec;
    entry.tracer = std::make_unique<tmio::Tracer>(toTracerConfig(world_spec));
    entry.world = std::make_unique<mpisim::World>(
        sim_, link_, store_, toWorldConfig(world_spec), entry.tracer.get());
    entry.tracer->attach(*entry.world);
    worlds_.push_back(std::move(entry));
  }
}

Instance::~Instance() = default;

void Instance::launch() {
  if (launched_) {
    throw ScenarioError(0, spec_.name, "instance launched twice");
  }
  launched_ = true;
  for (WorldEntry& entry : worlds_) {
    entry.world->launch(compileProgram(*this, *entry.spec));
  }
}

void Instance::requireFinished() const {
  std::string stuck;
  for (const WorldEntry& entry : worlds_) {
    if (!entry.world->finished()) {
      if (!stuck.empty()) stuck += ", ";
      stuck += "world '" + entry.spec->name + "'";
    }
  }
  for (const auto& [key, semaphore] : channels_) {
    if (semaphore.waiting() > 0) {
      if (!stuck.empty()) stuck += ", ";
      stuck += "channel '" + key.first + "' rank " +
               std::to_string(key.second) + " (" +
               std::to_string(semaphore.waiting()) + " blocked receiver(s))";
    }
  }
  if (!stuck.empty()) {
    throw ScenarioError(0, spec_.name,
                        "scenario did not run to completion: " + stuck);
  }
}

mpisim::World& Instance::world(std::size_t index) {
  return *worlds_.at(index).world;
}

mpisim::World& Instance::world(const std::string& name) {
  for (WorldEntry& entry : worlds_) {
    if (entry.spec->name == name) return *entry.world;
  }
  throw ScenarioError(0, spec_.name, "no world named '" + name + "'");
}

const tmio::Tracer& Instance::tracer(std::size_t index) const {
  return *worlds_.at(index).tracer;
}

const tmio::Tracer& Instance::tracer(const std::string& name) const {
  for (const WorldEntry& entry : worlds_) {
    if (entry.spec->name == name) return *entry.tracer;
  }
  throw ScenarioError(0, spec_.name, "no world named '" + name + "'");
}

Seconds Instance::elapsed() const {
  Seconds max_elapsed = 0.0;
  for (const WorldEntry& entry : worlds_) {
    max_elapsed = std::max(max_elapsed, entry.world->elapsed());
  }
  return max_elapsed;
}

std::string Instance::recordPath(const std::string& path,
                                 std::size_t index) const {
  const std::string& name = worlds_.at(index).spec->name;
  if (worlds_.size() == 1) return path;
  const std::size_t base = path.find_last_of('/') + 1;  // npos + 1 == 0
  std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || dot <= base) dot = path.size();
  return path.substr(0, dot) + "." + name + path.substr(dot);
}

sim::Semaphore& Instance::channel(const std::string& name, int rank) {
  auto it = channels_.find({name, rank});
  if (it == channels_.end()) {
    it = channels_
             .try_emplace(std::make_pair(name, rank), sim_, std::size_t{0})
             .first;
  }
  return it->second;
}

}  // namespace iobts::scenario
