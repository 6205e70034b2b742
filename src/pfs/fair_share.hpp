// Weighted max-min fair allocation with per-item rate caps.
//
// This is the bandwidth-sharing model of the simulated parallel file system:
// concurrent transfers (or streams) receive a weighted fair share of the
// channel capacity, except that no item ever receives more than its cap
// (caps come from the user-level limiter, per-transfer noise, or job QoS).
//
// Algorithm: progressive filling. Sort items by cap/weight; raise the fill
// level lambda; items whose cap is below lambda*weight saturate at their cap;
// the rest receive lambda*weight. Work-conserving: the full capacity is
// distributed unless every item is cap-saturated.
//
// Two pre-passes skip the sort when its outcome is known in advance, and
// both return the sorted walk's exact bits:
//   * no-saturation: no item saturates at the initial fill level, so every
//     item gets min(lambda0 * weight, cap);
//   * all-saturating: every positive-weight item is capped and the caps sum
//     below capacity by a rounding-proof margin, so every item gets its cap.
//
// Entry points:
//   * fairShare()       -- convenience API returning freshly allocated vectors;
//   * fairShareInto()   -- hot-path API writing into caller-owned buffers;
//   * fairShareSingle() -- one weight-1 item, no buffers at all.
// The hot path (SharedLink::resolve) re-solves on every transfer join /
// completion / cap change, so fairShareInto keeps per-call allocations at
// zero: the caller passes a FairShareScratch whose buffers (sort order,
// precomputed cap/weight ratios) are reused across solves; only the sorting
// path fills them, so a solve that a pre-pass decides computes no ratio at
// all. All three produce bit-identical allocations.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/check.hpp"
#include "util/units.hpp"

namespace iobts::pfs {

struct FairShareItem {
  double weight = 1.0;                      // > 0
  std::optional<BytesPerSec> cap{};         // nullopt = uncapped
};

struct FairShareResult {
  std::vector<BytesPerSec> allocation;  // same order as input
  BytesPerSec total = 0.0;              // sum of allocations
  double fill_level = 0.0;              // final lambda (rate per unit weight)
};

/// Reusable buffers for fairShareInto; grows to the largest item count seen
/// and never shrinks, so steady-state solves do not allocate.
struct FairShareScratch {
  std::vector<std::uint32_t> order;  // item indices sorted by cap/weight
  std::vector<double> ratio;         // cap/weight per capped item
};

/// Totals of a solve performed by fairShareInto (the allocations themselves
/// land in the caller's buffer).
struct FairShareStats {
  BytesPerSec total = 0.0;
  double fill_level = 0.0;
};

/// Allocate `capacity` across `items`, writing per-item allocations into
/// `allocation` (resized to items.size(); existing capacity is reused).
/// Weights and caps must be non-negative and non-NaN; zero-weight items
/// receive 0. Allocation-free once scratch/output capacities are warm.
FairShareStats fairShareInto(std::span<const FairShareItem> items,
                             BytesPerSec capacity, FairShareScratch& scratch,
                             std::vector<BytesPerSec>& allocation);

/// The allocation fairShareInto gives a single item of weight 1 and cap
/// `cap`, bit for bit, with the same checks on capacity and cap. Its lambda0
/// is capacity / 1, so the walk either pins cap <= capacity or hands out
/// capacity * 1. fairShareInto's total equals this value too, except that
/// a cap of -0.0 allocates -0.0 and totals +0.0.
inline BytesPerSec fairShareSingle(std::optional<BytesPerSec> cap,
                                   BytesPerSec capacity) {
  IOBTS_CHECK(capacity >= 0.0, "capacity must be non-negative");
  if (capacity == 0.0) return 0.0;
  if (!cap) return capacity;
  IOBTS_CHECK(!std::isnan(*cap), "caps must not be NaN");
  IOBTS_CHECK(*cap >= 0.0, "caps must be non-negative");
  return std::min(*cap, capacity);
}

/// Convenience wrapper over fairShareInto returning owned vectors.
FairShareResult fairShare(const std::vector<FairShareItem>& items,
                          BytesPerSec capacity);

}  // namespace iobts::pfs
