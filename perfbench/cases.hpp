// The benchmark's workloads, run in-process through the simulator's public
// API (the calls iobts_run and the fig harnesses make), with the
// correctness gate every case must pass.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Full is the benchmark; Tiny runs the same code paths in well under a
/// second per case, for the self-tests.
enum class Scale { Full, Tiny };

/// Host-side counters and timings of one case, read from each layer's
/// public stats and from the benchmark's own timers around its calls.
struct LayerStats {
  double parse_s = 0.0;    // scenario::parseScenario
  double compile_s = 0.0;  // scenario::Instance construction
  double launch_s = 0.0;   // World::launch / Instance::launch
  double run_s = 0.0;      // Simulation::run / ShardedSimulation::run
  double report_s = 0.0;   // tmio reports rendered into the canonical text
  double close_s = 0.0;    // BinaryTraceWriter::close
  double hooks_s = 0.0;    // inside tmio hooks (hook-timed cases only)
  std::uint64_t ops = 0;   // scenario RunStats.ops
  std::uint64_t events = 0;
  std::uint64_t requests = 0;  // MPI-IO calls issued
  std::uint64_t subrequests = 0;
  std::uint64_t pace_sleeps = 0;
  std::uint64_t io_retries = 0;
  std::uint64_t io_failures = 0;
  std::uint64_t resolves = 0;
  std::uint64_t resolves_skipped = 0;
  std::uint64_t full_solves = 0;
  std::uint64_t bytes_moved = 0;
  std::uint64_t phases = 0;
  std::uint64_t limit_changes = 0;
  std::uint64_t hook_calls = 0;
  std::uint64_t obs_events = 0;
  std::uint64_t obs_bytes = 0;
  std::uint64_t window_stalls = 0;
};

struct CaseResult {
  double wall_s = 0.0;   // start of setup to the end of the digest check
  double setup_s = 0.0;  // start of setup to the first event
  double cpu_s = 0.0;    // process CPU time (all threads), same interval
  /// Hash of the canonical text of the golden-digest fields; the value the
  /// pinned digests and the twin comparisons check.
  std::uint64_t digest = 0;
  /// ckpt::runDigest of each scenario instance (empty for hand-coded runs).
  std::vector<std::uint64_t> state_digests;
  std::vector<std::string> failures;
  LayerStats layer;
  /// Recorded cases: the binlog, re-read against layer.obs_events.
  std::string trace_path;
};

struct CaseConfig {
  Scale scale = Scale::Full;
  std::uint64_t seed = 1;
  /// Non-null only in the traced run.
  SpanLog* spans = nullptr;
  /// Directory for the recorded binlog.
  std::string scratch_dir = ".";
};

/// HACC-IO at paper scale, hand-coded, direct strategy, clean link. With
/// `time_hooks` the tmio tracer times every hook call.
CaseResult runHacc(const CaseConfig& config, bool time_hooks);

enum class WacommVariant { Recorded, Unrecorded, HandCoded };
/// The Fig. 10 WaComM++ shape as a generated DSL document (Recorded: with
/// the v2 binary flight recorder on), or as the hand-coded twin.
CaseResult runWacomm(const CaseConfig& config, WacommVariant variant);

/// The Fig. 14 noisy HACC-IO case as a generated DSL document.
CaseResult runHaccNoisy(const CaseConfig& config);

enum class SweepVariant { Sharded, SerialPoints };
/// Eight HACC-IO DSL sweep points: one independent shard each of one
/// ShardedSimulation (Sharded), or each alone on a plain Simulation, one
/// after the other (SerialPoints).
CaseResult runSweep(const CaseConfig& config, SweepVariant variant);

/// Worker threads of the sharded sweep: min(4, cores).
unsigned sweepWorkers();

/// Strict re-read of a recorded case's binlog, which is then deleted; a
/// decode error or an event count that differs from the writer's is
/// recorded as a failure.
void checkRecordedTrace(CaseResult& result);

/// The digest pinned for (workload, scale, seed), if any.
std::optional<std::uint64_t> pinnedDigest(const std::string& workload,
                                          Scale scale, std::uint64_t seed);

}  // namespace perfbench
