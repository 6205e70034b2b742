#include "throttle/pacer.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace iobts::throttle {

Pacer::Pacer(PacerConfig config) : config_(config) {
  IOBTS_CHECK(config_.subrequest_size > 0, "sub-request size must be > 0");
}

void Pacer::setLimit(std::optional<BytesPerSec> limit) {
  IOBTS_CHECK(!limit || *limit > 0.0, "limit must be positive");
  limit_ = limit;
  deficit_ = 0.0;
}

Subrequests Pacer::subrequests(Bytes total) const noexcept {
  const bool split = limit_ && total > config_.subrequest_size;
  return Subrequests(total, split ? config_.subrequest_size : total);
}

Seconds Pacer::requiredTime(Bytes bytes) const noexcept {
  if (!limit_) return 0.0;
  return static_cast<double>(bytes) / *limit_;
}

Seconds Pacer::onSubrequestDone(Bytes bytes, Seconds actual) {
  IOBTS_CHECK(actual >= 0.0, "durations must be non-negative");
  if (!limit_) return 0.0;
  ++stats_.subrequests;
  stats_.paced_bytes += bytes;
  const Seconds required = requiredTime(bytes);
  if (actual >= required) {
    // Case B: too slow -- bank the overshoot to shorten future sleeps.
    deficit_ += actual - required;
    stats_.deficit_banked += actual - required;
    return 0.0;
  }
  // Case A: too fast -- sleep the remainder, minus any banked deficit.
  Seconds sleep = required - actual;
  const Seconds offset = std::min(sleep, deficit_);
  sleep -= offset;
  deficit_ -= offset;
  if (sleep > 0.0) {
    ++stats_.sleeps;
    stats_.slept += sleep;
  }
  return sleep;
}

}  // namespace iobts::throttle
