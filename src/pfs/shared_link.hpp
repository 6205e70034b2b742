// Shared parallel-file-system bandwidth model.
//
// The SharedLink stands in for the cluster's PFS (the paper's IBM Spectrum
// Scale at 106 GB/s write / 120 GB/s read). Concurrent transfers share each
// channel's capacity by weighted max-min fairness (see fair_share.hpp), with
// three cap sources:
//
//   * stream caps    -- e.g. a QoS/limiter cap on a job's or rank's traffic;
//   * transfer noise -- optional lognormal per-transfer slowdown modelling
//                       stragglers/congestion (Fig. 14's "I/O variability");
//   * channel capacity itself.
//
// Streams group transfers for accounting and capping: the cluster simulator
// uses one stream per job; the MPI runtime uses one stream per rank. Stream
// weight models the "fair distribution according to the number of nodes"
// from the paper's Fig. 1.
//
// Rate bookkeeping is event-driven: on every join/leave/cap change the link
// settles elapsed progress, re-solves the allocation, and reschedules the
// next completion sweep. An optional recompute quantum batches rate updates
// for very large rank counts (documented accuracy/performance knob).
//
// Each channel keeps its active transfers in one contiguous table, in
// admission order, holding only what a resolve touches (remaining bytes,
// rate, last settle time, noise cap, stream, and a pointer to the transfer's
// cold record, which lives in the suspended transfer() coroutine frame). A
// resolve settles, completes drained transfers and compacts the table in
// one pass. The solve groups the table by stream only while some stream
// holds two or more of the channel's transfers; otherwise the table rows
// are the level-1 items themselves, and the solve is two more walks over
// the table. The first writes the level-1 items and folds in the demand and
// fair-share's validation scan (FairShareClass); the second writes the rates
// and folds in their total, the time of the next completion sweep and the
// next-interesting-time bound (below). When the all-saturating rule decides
// the level-1 solve (every stream gets its cap) nothing runs between the
// walks; otherwise fairShareAllocate does.
//
// Each channel additionally tracks a "next interesting time": the earliest
// virtual time at which any active transfer could cross the drain threshold
// under the current rates. A resolve that arrives strictly before that bound
// with unchanged solve inputs is a provable no-op (no transfer can complete,
// no rate can change) and returns in O(1) without settling. The
// force_full_resolve reference mode takes the identical skip but verifies
// the no-op claim with a non-mutating projection check, so both modes keep
// bit-identical state and event sequences (see resolve-equivalence tests).
//
// Fault plane (src/fault): faults reach the link only through
// installFaultPlan(fault::FaultPlan). The plan's degradations, blackouts
// (factor 0 on both channels) and outages (factor 1 - fraction on both
// channels) become per-channel degradation windows, and its transfer-fault
// rules give per-transfer EIO-like verdicts evaluated at settle time. Window
// edges are posted as resolve-triggering events, so a degradation edge is an
// "interesting time" for the lazy-settle machinery like any other
// solve-input change. A null plan schedules nothing and the solve arithmetic
// is bit-identical to a fault-free link.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "pfs/channel.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace iobts::obs {
class MetricsRegistry;
}  // namespace iobts::obs

namespace iobts::pfs {

struct LinkConfig {
  BytesPerSec read_capacity = 120.0e9;   // Lichtenberg: 120 GB/s reads
  BytesPerSec write_capacity = 106.0e9;  // Lichtenberg: 106 GB/s writes
  /// Lognormal sigma for per-transfer slowdown; 0 disables noise.
  double noise_sigma = 0.0;
  /// Rate the noise factor scales (a transfer's private cap is
  /// factor * noise_reference_rate). 0 = the channel capacity; set it near
  /// the expected per-client rate to model per-client stragglers ("slow
  /// I/O", Fig. 14) rather than whole-link slowdowns.
  BytesPerSec noise_reference_rate = 0.0;
  /// Per-client injection limit: a stream of weight w never receives more
  /// than w * client_rate_cap (a single node cannot drive the whole PFS).
  /// 0 disables.
  BytesPerSec client_rate_cap = 0.0;
  /// Congestion model: with k concurrently active transfers the channel
  /// delivers capacity / (1 + gamma * (k - 1)). Models the aggregate
  /// efficiency loss of a PFS under many concurrent writers (metadata and
  /// lock traffic, client-side interference). 0 disables. Note the
  /// asymmetry this creates for the paper's mechanism: paced transfers
  /// sleep between sub-requests, so they lower the *instantaneous*
  /// concurrency even when the same ranks are writing.
  double congestion_gamma = 0.0;
  /// Minimum virtual-time spacing between allocation re-solves triggered by
  /// joins/caps (completions always re-solve exactly). 0 = exact mode.
  sim::Time recompute_quantum = 0.0;
  std::uint64_t seed = 1;
  /// Record the total allocated rate per channel as a StepSeries (Fig. 2).
  bool record_total = true;
  /// Debug/test knob: disable the incremental-resolve short-circuit so every
  /// resolve re-runs the full two-level solve even when no stream's
  /// membership, cap, or weight changed since the last solve. The
  /// equivalence test suite runs both settings against identical op
  /// sequences and asserts identical allocations and event ordering.
  bool force_full_resolve = false;
};

/// The link's value rules, which the SharedLink constructor runs: both
/// capacities positive and finite, every other number non-negative and
/// finite (an infinite quantum would defer every re-solve forever). Throws
/// CheckError naming the first value that breaks them.
void checkLinkConfig(const LinkConfig& config);

/// Outcome of a transfer. Faulted transfers run to their full (fair-share)
/// duration and consume bandwidth, but the payload is lost -- the EIO-class
/// error a client sees when an OST fails the request at completion.
enum class TransferStatus : int { Ok = 0, Faulted = 1 };

struct TransferResult {
  sim::Time start = 0.0;
  sim::Time end = 0.0;
  Bytes bytes = 0;
  TransferStatus status = TransferStatus::Ok;

  bool ok() const noexcept { return status == TransferStatus::Ok; }
  Seconds duration() const noexcept { return end - start; }
  BytesPerSec averageRate() const noexcept {
    const Seconds d = duration();
    return d > 0.0 ? static_cast<double>(bytes) / d
                   : std::numeric_limits<double>::infinity();
  }
};

class SharedLink {
 public:
  SharedLink(sim::Simulation& simulation, LinkConfig config);
  SharedLink(const SharedLink&) = delete;
  SharedLink& operator=(const SharedLink&) = delete;
  ~SharedLink();

  /// Register a traffic stream (a rank or a job). Weight scales the fair
  /// share relative to other streams; it must be positive and finite, here
  /// and in setStreamWeight.
  StreamId createStream(std::string name, double weight = 1.0);

  /// Set or clear the stream's aggregate rate cap (applies to each channel
  /// independently). Takes effect at the current virtual time.
  void setStreamCap(StreamId stream, std::optional<BytesPerSec> cap);
  std::optional<BytesPerSec> streamCap(StreamId stream) const;

  void setStreamWeight(StreamId stream, double weight);
  double streamWeight(StreamId stream) const;
  const std::string& streamName(StreamId stream) const;

  /// Opt in to recording this stream's allocated rate over time (Fig. 2's
  /// per-job series). Off by default to keep 10k-rank runs lean.
  void setRecordStream(StreamId stream, bool record);

  /// Move `bytes` through `channel` on behalf of `stream`; completes when the
  /// bytes have drained at the evolving fair-share rate. Check the result's
  /// status: with a fault plan installed, a transfer may complete Faulted.
  /// A nonzero `journey` id ties the settled transfer span into the
  /// caller's flow chain (obs::TraceSink flow events); 0 records nothing.
  sim::Task<TransferResult> transfer(Channel channel, StreamId stream,
                                     Bytes bytes, std::uint64_t journey = 0);

  // --- Fault plane ---------------------------------------------------------

  /// Install a fault plan: schedules its degradation/blackout/outage windows
  /// as per-channel degradation windows (overlapping windows compound
  /// multiplicatively; both edges re-solve the rates exactly) and enables
  /// its per-transfer fault verdicts at settle time. Call at most once; no
  /// window may start before the current virtual time (a rejected plan
  /// leaves the link untouched). The plan must outlive the link. An empty
  /// plan is a provable no-op.
  void installFaultPlan(const fault::FaultPlan& plan);

  // --- Introspection -------------------------------------------------------

  /// The channel's capacity after degradation/blackout windows active at the
  /// current virtual time (== capacity() on an undegraded link).
  BytesPerSec effectiveCapacity(Channel channel) const noexcept;

  BytesPerSec capacity(Channel channel) const noexcept;
  std::size_t activeTransfers(Channel channel) const noexcept;
  Bytes bytesMoved(Channel channel) const noexcept;
  Bytes streamBytes(StreamId stream) const;
  std::size_t streamCount() const noexcept;

  /// Sum of allocated rates over time (recorded when record_total is set).
  const StepSeries& totalRateSeries(Channel channel) const;

  /// Number of live transfers over time (the channel's backlog), recorded at
  /// the same solve points as totalRateSeries when record_total is set.
  const StepSeries& activeTransferSeries(Channel channel) const;

  /// Per-stream allocated-rate series; requires setRecordStream(stream,true).
  const StepSeries& streamRateSeries(StreamId stream, Channel channel) const;

  /// True if current total demand exceeds capacity on the channel, i.e. at
  /// least one transfer is held below its cap-free fair share ("contention"
  /// in the sense of Fig. 1's limit-during-contention policy).
  bool contended(Channel channel) const noexcept;

  /// Request a resolve of the channel at the current virtual time without
  /// changing any solve input (subject to the recompute quantum, like any
  /// other dirty notification). With unchanged inputs and `now` before the
  /// channel's next-interesting-time bound this is an O(1) lazy skip; tests
  /// and benchmarks use it to exercise exactly that path.
  void poke(Channel channel);

  /// Counters for the lazy-settle resolve path (test/bench introspection).
  struct ResolveStats {
    /// Resolves that ran the settle/complete/sweep machinery.
    std::uint64_t executed = 0;
    /// Resolves proven no-ops by the next-interesting-time bound. The
    /// force_full_resolve reference mode takes the identical skip but
    /// additionally verifies (without mutating state) that no transfer
    /// could have drained, so the counters match across modes.
    std::uint64_t lazy_skipped = 0;
    /// Two-level solves actually run (<= executed).
    std::uint64_t full_solves = 0;
    /// Of those, the ones whose level-1 solve the all-saturating rule
    /// decided (FairShareClass::allSaturating: every stream got its cap).
    /// Kept out of exportMetrics, checkpoints and run summaries.
    std::uint64_t all_saturating_solves = 0;
    /// Transfers that completed with a Faulted status (fault plan verdicts).
    std::uint64_t faulted_transfers = 0;
    /// Effective-capacity changes applied (degradation/blackout edges).
    std::uint64_t capacity_edges = 0;
  };
  ResolveStats resolveStats(Channel channel) const noexcept;

  /// The channel's current next-interesting-time bound: the earliest virtual
  /// time at which an active transfer could cross the drain threshold under
  /// current rates (+inf when none can, -inf before the first resolve).
  sim::Time nextInterestingTime(Channel channel) const noexcept;

  /// Publish per-channel resolve counters and traffic totals into `registry`
  /// under "pfs.<channel>.*".
  void exportMetrics(obs::MetricsRegistry& registry) const;

 private:
  struct TransferRecord;
  struct Transfer;
  struct StreamInputs;
  struct Stream;
  struct ChannelState;
  struct SweepBounds;

  ChannelState& chan(Channel channel) noexcept;
  const ChannelState& chan(Channel channel) const noexcept;

  /// Settle progress, complete drained transfers, re-solve rates (skipped
  /// when nothing changed since the last solve), reschedule the completion
  /// sweep.
  void resolve(Channel channel);

  /// The two-level weighted max-min solve over the channel's active
  /// transfers (allocation-free: reuses the channel's scratch buffers).
  /// Folds every row's sweep bounds under its new rate into `bounds`.
  /// Returns the number of level-1 items (streams with active transfers).
  std::size_t solveRates(ChannelState& cs, Channel channel, sim::Time now,
                         SweepBounds& bounds);

  /// Request a (possibly quantized) resolve.
  void markDirty(Channel channel);

  /// Record that the channel's solve inputs changed (membership, caps,
  /// weights); the next resolve must re-run the full solve.
  void noteSolveInputChanged(Channel channel);

  /// Recompute a channel's compound degradation factor from its active
  /// windows at `now` (from-scratch product: fp-exact and order-independent).
  void refreshChannelFactor(Channel channel, sim::Time now);

  /// Record a degradation window on the channel and post resolve-triggering
  /// events at its begin/end edges that refresh the channel's factor before
  /// the solve runs.
  void addDegradation(Channel channel, double factor,
                      fault::TimeWindow window);

  sim::Simulation& sim_;
  LinkConfig config_;
  Rng noise_rng_;
  std::vector<std::unique_ptr<Stream>> streams_;
  /// Each stream's solve inputs (weight, cap, record flag), by stream id.
  std::vector<StreamInputs> stream_inputs_;
  /// Streams with setRecordStream(.., true); lets the per-resolve
  /// zero-rate recording loop skip the (possibly huge) non-recorded rest.
  std::vector<StreamId> recorded_streams_;
  std::unique_ptr<ChannelState> channels_[kChannels];

  // --- Fault-plane state ---------------------------------------------------
  /// Installed plan (null on a fault-free link); supplies transfer verdicts.
  const fault::FaultPlan* fault_plan_ = nullptr;
  /// Monotone id handed to each transfer; keys the deterministic verdict.
  std::uint64_t next_transfer_serial_ = 0;
  /// Degradation windows per channel (blackouts appear on both channels with
  /// factor 0). Kept for from-scratch factor refresh at window edges.
  std::vector<fault::DegradationEvent> degradations_[kChannels];
};

}  // namespace iobts::pfs
