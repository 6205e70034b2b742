// Seeded, deterministic fault-injection plane.
//
// The paper's premise is that asynchronous I/O only pays off when the PFS
// actually delivers the required bandwidth; real Spectrum-Scale-class
// systems see OST degradation windows, outages and transient EIO-class
// errors. A FaultPlan is a declarative schedule of such events, and
// SharedLink::installFaultPlan is the one way it reaches a link:
//
//   * degradation windows -- a channel's effective capacity is multiplied by
//     a factor in (0, 1] for [begin, end);
//   * transfer faults     -- transfers completing inside the window fail
//     with an EIO-like error status, always or with a probability;
//   * blackouts           -- both channels deliver zero bandwidth for the
//     window (transfers stall and resume, they are not failed);
//   * outages             -- both channels lose the same capacity fraction
//     for the window.
//
// Everything is deterministic: window edges are virtual-time events, and
// probabilistic verdicts are a pure hash of (plan seed, transfer serial,
// rule index) -- no RNG state is consumed, so verdicts are independent of
// event interleaving and two runs with the same seed and plan produce
// bit-identical traces. An empty ("null") plan is provably a no-op: it
// schedules no events and every verdict is "no fault".
//
// Inputs are validated eagerly with util::check-style errors (factors must
// lie in (0, 1], probabilities in [0, 1], windows must be non-empty with a
// finite begin, blackout windows must not overlap).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "pfs/channel.hpp"
#include "sim/time.hpp"

namespace iobts::obs {
class TraceSink;
}  // namespace iobts::obs

namespace iobts::fault {

/// Half-open virtual-time interval [begin, end).
struct TimeWindow {
  sim::Time begin = 0.0;
  sim::Time end = std::numeric_limits<double>::infinity();

  bool contains(sim::Time t) const noexcept { return t >= begin && t < end; }
  bool overlaps(const TimeWindow& other) const noexcept {
    return begin < other.end && other.begin < end;
  }
};

/// Channel capacity scaled by `factor` during `window`.
struct DegradationEvent {
  pfs::Channel channel = pfs::Channel::Write;
  double factor = 1.0;  // in (0, 1]
  TimeWindow window{};
};

/// Transfers completing inside `window` (on the matching channel) fail with
/// probability `probability`.
struct TransferFaultRule {
  std::optional<pfs::Channel> channel{};  // nullopt = both channels
  TimeWindow window{};                    // matched against completion time
  double probability = 1.0;               // in [0, 1]
};

/// Both channels deliver zero bandwidth during `window`.
struct BlackoutEvent {
  TimeWindow window{};
};

/// Correlated whole-outage: a `fraction` of the link's capacity (both
/// channels simultaneously -- the paper's "whole-OST outage" shape, where
/// one failed server takes the same slice of read and write bandwidth with
/// it) disappears for the window. fraction == 1 is a full correlated
/// blackout: transfers stall and resume, exactly like BlackoutEvent.
struct OutageEvent {
  double fraction = 1.0;  // in (0, 1]
  TimeWindow window{};
};

class FaultPlan {
 public:
  /// A default-constructed plan is the null plan: no events, no verdicts.
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  /// Builders validate eagerly and return *this for chaining.
  FaultPlan& degradeChannel(pfs::Channel channel, double factor,
                            TimeWindow window);
  FaultPlan& addTransferFault(TransferFaultRule rule);
  FaultPlan& addBlackout(TimeWindow window);
  FaultPlan& addOutage(double fraction, TimeWindow window);

  bool empty() const noexcept {
    return degradations_.empty() && faults_.empty() && blackouts_.empty() &&
           outages_.empty();
  }
  bool hasTransferFaults() const noexcept { return !faults_.empty(); }

  const std::vector<DegradationEvent>& degradations() const noexcept {
    return degradations_;
  }
  const std::vector<TransferFaultRule>& transferFaults() const noexcept {
    return faults_;
  }
  const std::vector<BlackoutEvent>& blackouts() const noexcept {
    return blackouts_;
  }
  const std::vector<OutageEvent>& outages() const noexcept {
    return outages_;
  }

  /// Deterministic fault verdict for the transfer with serial number
  /// `serial` completing at `completion` on `channel`. Pure function of the
  /// plan -- safe to call in any order, any number of times, and across
  /// reruns.
  bool faultVerdict(pfs::Channel channel, std::uint64_t serial,
                    sim::Time completion) const noexcept;

  std::uint64_t seed() const noexcept { return seed_; }
  /// Verdicts read the seed when asked, so it may be set after the windows
  /// (a document's `faults` block may name its seed last).
  void setSeed(std::uint64_t seed) noexcept { seed_ = seed; }

  /// Emit one instant event per planned window edge into `sink` (category
  /// "fault", link track): the *planned* schedule, distinct from the edges
  /// the link actually applies at runtime. Called by
  /// SharedLink::installFaultPlan when a sink is installed.
  void annotate(obs::TraceSink& sink) const;

 private:
  static void validateWindow(const TimeWindow& window);

  std::uint64_t seed_ = 1;
  std::vector<DegradationEvent> degradations_;
  std::vector<TransferFaultRule> faults_;
  std::vector<BlackoutEvent> blackouts_;
  std::vector<OutageEvent> outages_;
};

}  // namespace iobts::fault
