#include "ckpt/runner.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/file_io.hpp"
#include "util/rng.hpp"

namespace iobts::ckpt {
namespace {

std::string checkpointFileName(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%06zu.ckpt", index);
  return buf;
}

void publishLatest(const std::string& dir, const std::string& name) {
  // Same atomic publish as the checkpoint itself: a crash between the two
  // leaves `latest` pointing at the previous (complete) checkpoint.
  std::string error;
  if (!publishFile(dir + "/latest", name + "\n", &error)) {
    throw CheckpointError(ErrorKind::Io, error);
  }
}

std::string cadenceTooFine(sim::Time every, sim::Time next) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "checkpoint cadence %g s is too fine to count its intervals "
                "up to virtual time %g s",
                every, next);
  return buf;
}

}  // namespace

Snapshot captureSnapshot(scenario::Instance& instance,
                         const std::string& scenario_text,
                         sim::Time watermark) {
  Snapshot snapshot;
  snapshot.scenario_name = instance.spec().name;
  snapshot.scenario_text = scenario_text;
  snapshot.scenario_digest = hashName(scenario_text);
  snapshot.watermark = watermark;
  snapshot.state = captureInstanceState(instance);
  return snapshot;
}

std::vector<CheckpointRecord> runWithCheckpoints(
    scenario::Instance& instance, const std::string& scenario_text,
    const CheckpointPolicy& policy) {
  IOBTS_CHECK(policy.every > 0.0, "checkpoint interval must be positive");
  IOBTS_CHECK(!policy.dir.empty(), "checkpoint directory must be set");
  std::error_code ec;
  std::filesystem::create_directories(policy.dir, ec);
  if (ec) {
    throw CheckpointError(ErrorKind::Io,
                          policy.dir + ": cannot create checkpoint directory: " +
                              ec.message());
  }

  sim::Simulation& sim = instance.sim();
  std::vector<CheckpointRecord> records;
  // k counts cadence intervals in a double: every integer below 2^53 is
  // exact there and k + 1 steps, and the skip-ahead converts nothing out of
  // range. Each pass runs at least the event at `next`, so the loop ends.
  constexpr double kMaxIntervals = 9007199254740992.0;  // 2^53
  for (double k = 1.0;; k += 1.0) {
    sim::Time target = policy.every * k;
    const sim::Time next = sim.nextEventTime();
    if (next == sim::kInfiniteTime) break;  // drained: nothing left to park
    if (next > target) {
      // Empty interval: skip ahead to the first multiple past `next`, so a
      // cadence much finer than the event spacing does not walk every
      // empty interval.
      k = std::floor(next / policy.every) + 1.0;
      while (k < kMaxIntervals && policy.every * k < next) k += 1.0;
      target = policy.every * k;
    }
    IOBTS_CHECK(k < kMaxIntervals, cadenceTooFine(policy.every, next));
    sim.runUntil(target);
    if (sim.nextEventTime() == sim::kInfiniteTime) break;  // finished inside
    const auto wall_start = std::chrono::steady_clock::now();
    const Snapshot snapshot =
        captureSnapshot(instance, scenario_text, target);
    CheckpointRecord record;
    record.watermark = target;
    const std::string name = checkpointFileName(records.size() + 1);
    record.path = policy.dir + "/" + name;
    record.file_bytes =
        writeCheckpointFile(record.path, encodeSnapshot(snapshot));
    publishLatest(policy.dir, name);
    record.capture_wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    if (obs::TraceSink* sink = obs::traceSink()) {
      sink->instant("ckpt", "capture", obs::track::kKernel, 0, target,
                    static_cast<double>(record.file_bytes));
    }
    records.push_back(std::move(record));
  }
  sim.run();
  return records;
}

RestoredRun::RestoredRun(Snapshot snapshot, const std::string& origin) {
  scenario::ScenarioSpec spec;
  try {
    spec = scenario::parseScenario(snapshot.scenario_text);
  } catch (const std::exception& e) {
    // The embedded text matched its digest, so this is a build whose
    // scenario language rejects what the writer accepted -- version skew
    // below the container version.
    throw CheckpointError(ErrorKind::Malformed,
                          origin +
                              ": embedded scenario no longer parses in this "
                              "build: " +
                              e.what());
  }
  if (spec.name != snapshot.scenario_name) {
    throw CheckpointError(ErrorKind::ScenarioMismatch,
                          origin + ": embedded scenario is named '" +
                              spec.name + "' but the checkpoint declares '" +
                              snapshot.scenario_name + "'");
  }
  watermark_ = snapshot.watermark;
  scenario_text_ = std::move(snapshot.scenario_text);
  sim_ = std::make_unique<sim::Simulation>();
  instance_ = std::make_unique<scenario::Instance>(*sim_, std::move(spec));
  instance_->launch();
  sim_->runUntil(watermark_);
  const std::vector<Section> actual = captureInstanceState(*instance_);
  requireSectionsEqual(snapshot.state, actual, origin);
  if (obs::TraceSink* sink = obs::traceSink()) {
    sink->instant("ckpt", "restore", obs::track::kKernel, 0, watermark_,
                  static_cast<double>(sim_->eventsProcessed()));
  }
}

RestoredRun restoreScenarioCheckpoint(const std::string& path) {
  const CheckpointFile file = readCheckpointFile(path);
  Snapshot snapshot = decodeSnapshot(file, path);
  return RestoredRun(std::move(snapshot), path);
}

std::string latestCheckpointPath(const std::string& dir) {
  const std::optional<std::string> text = readFile(dir + "/latest");
  const std::string name = text ? text->substr(0, text->find('\n')) : "";
  if (name.empty()) return {};
  return dir + "/" + name;
}

}  // namespace iobts::ckpt
