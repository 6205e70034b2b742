#include "scenario/instance.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace iobts::scenario {

Instance::Instance(sim::Simulation& simulation, ScenarioSpec spec)
    : sim_(simulation),
      spec_(std::move(spec)),
      link_(simulation, spec_.link) {
  if (!spec_.faults.empty()) link_.installFaultPlan(spec_.faults);
  worlds_.reserve(spec_.worlds.size());
  for (const WorldSpec& world_spec : spec_.worlds) {
    WorldEntry entry;
    entry.spec = &world_spec;
    entry.tracer = std::make_unique<tmio::Tracer>(world_spec.tracer);
    entry.world = std::make_unique<mpisim::World>(
        sim_, link_, store_, world_spec.config, entry.tracer.get());
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
      stuck += "world '" + entry.spec->config.name + "'";
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
    if (entry.spec->config.name == name) return *entry.world;
  }
  throw ScenarioError(0, spec_.name, "no world named '" + name + "'");
}

const tmio::Tracer& Instance::tracer(std::size_t index) const {
  return *worlds_.at(index).tracer;
}

const tmio::Tracer& Instance::tracer(const std::string& name) const {
  for (const WorldEntry& entry : worlds_) {
    if (entry.spec->config.name == name) return *entry.tracer;
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
  const std::string& name = worlds_.at(index).spec->config.name;
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
