// Checkpoint-driven scenario execution and restore.
//
// runWithCheckpoints() drives a launched Instance exactly like a plain
// sim.run(), but parks the kernel at every multiple of `policy.every`
// virtual seconds (a quiescent point: between events), captures a snapshot
// and publishes it atomically into `policy.dir` as ckpt-NNNNNN.ckpt plus a
// `latest` pointer file. The dispatch sequence is byte-identical to an
// uncheckpointed run -- runUntil() executes the same events in the same
// order and only parks the clock -- so the end-of-run digest (see
// capture.hpp) is the same either way.
//
// restoreScenarioCheckpoint() is the other half: rebuild the stack from the
// snapshot's embedded scenario, deterministically replay to the watermark,
// verify every captured section bit-for-bit, and hand back a live
// Simulation + Instance parked exactly where the checkpoint was taken.
// Replay cost is bounded by the watermark (never more than the work the
// original run had already done); what a crash costs is therefore at most
// one checkpoint interval of *lost* progress plus the replay. Inside a
// cluster, JobSpec::checkpoint_interval additionally lets a requeued job
// skip the loops it already finished.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/capture.hpp"
#include "ckpt/snapshot.hpp"
#include "scenario/instance.hpp"
#include "sim/simulation.hpp"

namespace iobts::ckpt {

struct CheckpointPolicy {
  /// Destination directory (created if absent).
  std::string dir;
  /// Virtual-time capture cadence (must be > 0).
  sim::Time every = 0.0;
};

/// One published checkpoint.
struct CheckpointRecord {
  std::string path;
  sim::Time watermark = 0.0;
  std::uint64_t file_bytes = 0;
  /// Wall-clock cost of capture + encode + atomic publish (bench surface;
  /// never feeds back into simulation state).
  double capture_wall_ms = 0.0;
};

/// Snapshot `instance` at its current quiescent point. `scenario_text` is
/// the exact source the instance was parsed from (embedded for restore);
/// `watermark` is the runUntil() limit the kernel is parked at.
Snapshot captureSnapshot(scenario::Instance& instance,
                         const std::string& scenario_text, sim::Time watermark,
                         bool finished);

/// Run a launched instance to completion, checkpointing per `policy`.
/// Returns the published checkpoints in capture order. No checkpoint is
/// written for intervals the run finished before reaching.
std::vector<CheckpointRecord> runWithCheckpoints(
    scenario::Instance& instance, const std::string& scenario_text,
    const CheckpointPolicy& policy);

/// A restored run: the rebuilt kernel + instance, replayed to the snapshot
/// watermark and verified. Continue with sim().run().
class RestoredRun {
 public:
  /// Throws CheckpointError (Malformed / ScenarioMismatch /
  /// StateDivergence) when the snapshot cannot be faithfully restored.
  RestoredRun(Snapshot snapshot, const std::string& origin);

  sim::Simulation& sim() noexcept { return *sim_; }
  scenario::Instance& instance() noexcept { return *instance_; }
  sim::Time watermark() const noexcept { return watermark_; }
  bool finished() const noexcept { return finished_; }

 private:
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<scenario::Instance> instance_;
  sim::Time watermark_ = 0.0;
  bool finished_ = false;
};

/// readCheckpointFile + decodeSnapshot + RestoredRun.
RestoredRun restoreScenarioCheckpoint(const std::string& path);

/// The `latest` pointer inside a checkpoint directory, or an empty string
/// when none has been published yet.
std::string latestCheckpointPath(const std::string& dir);

}  // namespace iobts::ckpt
