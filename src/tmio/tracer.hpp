// TMIO -- Tracing MPI-IO (the paper's core library).
//
// The tracer hooks the runtime's PMPI-style seam (mpisim::IoHooks) and, per
// rank and per phase:
//
//   (1) traces the required bandwidth B_ij (Eq. 1: bytes over the window
//       from submit to the matching wait being *reached*) and the
//       throughput T_ij (Eq. 2: bytes over the I/O thread's actual window);
//   (2) computes the next-phase limit with the configured strategy
//       (direct / up-only / adaptive, Sec. IV-B) and pushes it to the MPI
//       extension (World::setRankLimit) -- the "bandwidth limitation";
//   (3) aggregates records and writes them out (JSONL/CSV), charging a
//       modelled peri-run intercept overhead and a post-run finalize
//       (gather) overhead -- the quantities of Figs. 5/6.
//
// Application-level series (Eq. 3) are produced by appRequiredSeries /
// appThroughputSeries / appLimitSeries.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mpisim/world.hpp"
#include "tmio/publisher.hpp"
#include "tmio/records.hpp"
#include "tmio/regions.hpp"
#include "tmio/strategy.hpp"

namespace iobts::tmio {

/// When does a phase's bandwidth window end if several requests were
/// submitted in the same phase?
enum class PhaseEndMode : int {
  /// te = when the *first* queued request reaches its wait (paper's choice:
  /// yields higher, safer requirements).
  FirstWait,
  /// te = when the *last* queued request reaches its wait (TMIO option).
  LastWait,
};

/// Models TMIO's own cost (Sec. IV-D).
struct OverheadModel {
  /// Peri-run: virtual seconds charged per intercepted MPI call.
  Seconds intercept_per_call = 0.5e-6;
  /// Post-run (MPI_Finalize): fixed cost plus a tree-gather term that grows
  /// with log2(ranks) plus a per-record serialization term.
  Seconds finalize_base = 2e-3;
  Seconds finalize_per_stage = 12e-3;  // x ceil(log2 ranks)
  Seconds finalize_per_record = 1e-6;
  /// Root-gather volume term: the rank-0 gather receives every rank's
  /// records, so each rank's finalize grows linearly with the rank count.
  /// Calibrated to the paper's Fig. 5/6: post-run overhead reaches a few
  /// percent of the ~1000 s run at 9216 ranks.
  Seconds finalize_per_rank = 5e-3;
};

struct TracerConfig {
  StrategyKind strategy = StrategyKind::None;
  StrategyParams params{};
  PhaseEndMode phase_end = PhaseEndMode::FirstWait;
  OverheadModel overhead{};
  /// When false, B/T are traced but no limit is ever applied (the paper's
  /// "without limit" baseline runs still preload TMIO).
  bool apply_limits = true;
  /// Optional online streaming: every record is published the moment it is
  /// produced (the paper's ZeroMQ/TCP path). Not owned; must outlive the
  /// tracer.
  MetricsPublisher* publisher = nullptr;
};

class Tracer : public mpisim::IoHooks {
 public:
  explicit Tracer(TracerConfig config);
  ~Tracer() override;

  /// Bind to the world whose hooks we are (call before World::launch). The
  /// tracer applies limits through this world.
  void attach(mpisim::World& world);

  // --- IoHooks --------------------------------------------------------------
  Seconds interceptOverhead() const override;
  void onSubmit(const mpisim::RequestInfo& info) override;
  void onComplete(const mpisim::RequestInfo& info) override;
  void onWaitEnter(const mpisim::RequestInfo& info) override;
  void onWaitExit(const mpisim::RequestInfo& info, Seconds blocked) override;
  void onSyncStart(const mpisim::RequestInfo& info) override;
  void onSyncEnd(const mpisim::RequestInfo& info) override;
  Seconds onFinalize(int rank) override;

  // --- Results ---------------------------------------------------------------
  const TracerConfig& config() const noexcept { return config_; }
  const std::vector<PhaseRecord>& phaseRecords() const noexcept {
    return phases_;
  }
  const std::vector<ThroughputRecord>& throughputRecords() const noexcept {
    return throughputs_;
  }
  const std::vector<LimitChange>& limitChanges() const noexcept {
    return limit_changes_;
  }

  /// Time when any rank first applied a limit (the figures' purple marker);
  /// kNoTime if never.
  sim::Time firstLimitTime() const noexcept;

  /// Async/sync time classification of one rank (exploit/lost/sync).
  const AsyncTimeSplit& rankSplit(int rank) const;

  /// Application-level required bandwidth B (Eq. 3 over B_ij intervals).
  StepSeries appRequiredSeries(std::optional<pfs::Channel> channel = {}) const;

  /// Application-level throughput T (Eq. 3 over T_ij windows).
  StepSeries appThroughputSeries(
      std::optional<pfs::Channel> channel = {}) const;

  /// Application-level applied limit B_L (Eq. 3 over phases' applied limits).
  StepSeries appLimitSeries(std::optional<pfs::Channel> channel = {}) const;

  /// max over regions of B -- the minimal application-level bandwidth with
  /// zero waiting (Sec. IV-C).
  BytesPerSec minimalRequiredBandwidth() const;

  /// Dump all records as JSON Lines (to `path`) or CSV (to
  /// `prefix`_phases.csv and `prefix`_throughput.csv), each file published
  /// atomically. False when a file cannot be written.
  bool writeJsonl(const std::string& path) const;
  bool writeCsv(const std::string& prefix) const;

 private:
  struct OpenPhase;
  struct RankState;

  RankState& state(int rank);
  sim::Time now() const;
  void closePhase(RankState& rank_state, OpenPhase& phase, int rank);

  TracerConfig config_;
  mpisim::World* world_ = nullptr;
  std::vector<std::unique_ptr<RankState>> ranks_;

  std::vector<PhaseRecord> phases_;
  std::vector<ThroughputRecord> throughputs_;
  std::vector<LimitChange> limit_changes_;
};

}  // namespace iobts::tmio
