// The paper's bandwidth-limitation algorithm (Sec. V), engine-agnostic.
//
// The MPICH/ROMIO extension limits an I/O request's throughput like this:
//
//   1. split the request into sub-requests of a predefined size S;
//   2. per sub-request compute the required time  dt = S / L  from the
//      current limit L;
//   3. execute the sub-request as a blocking operation and compare the
//      actual execution time with the required time:
//        Case A: actual < required -> sleep the remainder;
//        Case B: actual > required -> accumulate the overshoot as a deficit
//                that reduces future sleeps.
//
// The Pacer implements steps 1-3 as pure bookkeeping so the *same* algorithm
// drives both the simulated ADIO driver (virtual clock) and the real I/O
// thread in rtio (steady_clock). The caller owns the clock: it reports each
// sub-request's actual duration and receives the sleep to perform.
//
// Retry interplay (see retry.hpp): a failed attempt's wire time and the
// backoff slept before the next attempt are banked as Case-B deficit via
// onSubrequestDone(0, duration), so a paced operation's elapsed time stays
// ~max(required, actual) across retries instead of paying twice.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "util/units.hpp"

namespace iobts::throttle {

struct PacerConfig {
  /// Sub-request size (the paper's "predefined size"); requests smaller than
  /// this are executed whole.
  Bytes subrequest_size = 4 * kMiB;
};

/// Lifetime totals of the pacing algorithm's decisions, for the
/// observability plane (exported into a MetricsRegistry by the engines that
/// own a Pacer). Plain increments on the pacing path; never reset by
/// setLimit so they survive limit changes.
struct PacerStats {
  std::uint64_t subrequests = 0;   // onSubrequestDone calls under a limit
  std::uint64_t sleeps = 0;        // Case-A outcomes with a positive sleep
  Seconds slept = 0.0;             // total sleep returned (post-deficit)
  Seconds deficit_banked = 0.0;    // total Case-B overshoot banked
  Bytes paced_bytes = 0;           // payload bytes reported under a limit
};

/// The sub-request sizes of one request (step 1) as an allocation-free
/// range: pieces of a fixed chunk size, the final one holding the remainder.
/// The chunk size is fixed when the range is made, so a limit change while
/// the request is in flight does not re-split it.
class Subrequests {
 public:
  struct Iterator {
    Bytes remaining;
    Bytes chunk;

    Bytes operator*() const noexcept { return std::min(remaining, chunk); }
    Iterator& operator++() noexcept {
      remaining -= **this;
      return *this;
    }
    bool operator==(const Iterator&) const noexcept = default;
  };

  Subrequests(Bytes total, Bytes chunk) noexcept
      : total_(total), chunk_(chunk) {}

  Iterator begin() const noexcept { return {total_, chunk_}; }
  Iterator end() const noexcept { return {0, chunk_}; }

 private:
  Bytes total_;
  Bytes chunk_;
};

class Pacer {
 public:
  Pacer() = default;
  explicit Pacer(PacerConfig config);

  /// Set or clear the throughput limit. Clearing also clears the deficit
  /// (the old debt is meaningless under a new regime).
  void setLimit(std::optional<BytesPerSec> limit);
  std::optional<BytesPerSec> limit() const noexcept { return limit_; }
  bool limited() const noexcept { return limit_.has_value(); }

  const PacerConfig& config() const noexcept { return config_; }

  /// Split a request into sub-request sizes (step 1) under the current
  /// limit. The final chunk holds the remainder. Unlimited requests, and
  /// requests no larger than the sub-request size, are not split.
  Subrequests subrequests(Bytes total) const noexcept;

  /// Required execution time for a sub-request under the current limit
  /// (step 2); zero when unlimited.
  Seconds requiredTime(Bytes bytes) const noexcept;

  /// Report a finished sub-request (step 3). Returns the sleep duration to
  /// apply now (Case A), possibly shortened by accumulated deficit (Case B).
  Seconds onSubrequestDone(Bytes bytes, Seconds actual);

  /// Outstanding Case-B debt in seconds.
  Seconds deficit() const noexcept { return deficit_; }
  void resetDeficit() noexcept { deficit_ = 0.0; }

  const PacerStats& stats() const noexcept { return stats_; }

 private:
  PacerConfig config_{};
  std::optional<BytesPerSec> limit_{};
  Seconds deficit_ = 0.0;
  PacerStats stats_{};
};

}  // namespace iobts::throttle
