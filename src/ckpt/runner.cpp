#include "ckpt/runner.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace iobts::ckpt {
namespace {

std::string checkpointFileName(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%06zu.ckpt", index);
  return buf;
}

void publishLatest(const std::string& dir, const std::string& name) {
  // Same atomic-rename discipline as the checkpoint itself: a crash between
  // the two leaves `latest` pointing at the previous (complete) checkpoint.
  const std::string tmp = dir + "/latest.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      throw CheckpointError(ErrorKind::Io,
                            tmp + ": cannot write latest pointer");
    }
    out << name << "\n";
  }
  std::error_code ec;
  std::filesystem::rename(tmp, dir + "/latest", ec);
  if (ec) {
    throw CheckpointError(ErrorKind::Io,
                          dir + "/latest: cannot publish pointer: " +
                              ec.message());
  }
}

}  // namespace

Snapshot captureSnapshot(scenario::Instance& instance,
                         const std::string& scenario_text, sim::Time watermark,
                         bool finished) {
  Snapshot snapshot;
  snapshot.scenario_name = instance.spec().name;
  snapshot.scenario_text = scenario_text;
  snapshot.scenario_digest = hashName(scenario_text);
  snapshot.watermark = watermark;
  snapshot.finished = finished;
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
  for (std::uint64_t k = 1;; ++k) {
    const sim::Time target = policy.every * static_cast<double>(k);
    const sim::Time next = sim.nextEventTime();
    if (next == sim::kInfiniteTime) break;  // drained: nothing left to park
    if (next > target) {
      // Empty interval: skip ahead so a cadence much finer than the event
      // spacing does not spin (the loop's ++k lands the next target at or
      // past `next`).
      k = static_cast<std::uint64_t>(next / policy.every);
      continue;
    }
    sim.runUntil(target);
    if (sim.nextEventTime() == sim::kInfiniteTime) break;  // finished inside
    const auto wall_start = std::chrono::steady_clock::now();
    const Snapshot snapshot =
        captureSnapshot(instance, scenario_text, target, /*finished=*/false);
    CheckpointRecord record;
    record.watermark = target;
    const std::string name = checkpointFileName(records.size() + 1);
    record.path = policy.dir + "/" + name;
    const std::string bytes = encodeCheckpoint(encodeSnapshot(snapshot));
    record.file_bytes = bytes.size();
    // Re-use writeCheckpointFile's atomic publish but avoid double-encoding.
    {
      const std::string tmp = record.path + ".tmp";
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) {
        throw CheckpointError(ErrorKind::Io,
                              tmp + ": cannot open checkpoint for writing");
      }
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      if (!out) {
        throw CheckpointError(ErrorKind::Io, tmp + ": short checkpoint write");
      }
      out.close();
      std::filesystem::rename(tmp, record.path, ec);
      if (ec) {
        throw CheckpointError(ErrorKind::Io,
                              record.path + ": cannot publish checkpoint: " +
                                  ec.message());
      }
    }
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
  finished_ = snapshot.finished;
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
  std::ifstream in(dir + "/latest");
  if (!in) return {};
  std::string name;
  std::getline(in, name);
  if (name.empty()) return {};
  return dir + "/" + name;
}

}  // namespace iobts::ckpt
