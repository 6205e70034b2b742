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
// A solve is two steps. The validation scan checks every item and folds it
// into a FairShareClass (weight sum, capped count, cap sum and smallest
// weight of the positive-weight items, whether all of those are capped);
// the allocation step reads that classification. Two pre-passes of the
// allocation step skip the sort when its outcome is known in advance, and
// both return the sorted walk's exact bits:
//   * no-saturation: no item saturates at the initial fill level, so every
//     item gets min(lambda0 * weight, cap);
//   * all-saturating: every positive-weight item is capped and the caps sum
//     below capacity by a rounding-proof margin, so every item gets its cap.
//     FairShareClass::allSaturating is that rule, the one place its margin
//     is written.
//
// Entry points:
//   * fairShare()         -- convenience API returning freshly allocated
//                            vectors;
//   * fairShareInto()     -- hot-path API writing into caller-owned buffers:
//                            the scan, then fairShareAllocate();
//   * FairShareClass::add() + fairShareAllocate() -- the same two steps for
//                            a caller that already walks its items (the
//                            SharedLink level-1 pass folds the scan into its
//                            own walk, and decides all-saturating solves
//                            itself without an allocation vector);
//   * fairShareSingle()   -- one weight-1 item, no buffers at all.
// The hot path (SharedLink::resolve) re-solves on every transfer join /
// completion / cap change, so fairShareInto keeps per-call allocations at
// zero: the caller passes a FairShareScratch whose buffers (sort order,
// precomputed cap/weight ratios) are reused across solves; only the sorting
// path fills them, so a solve that a pre-pass decides computes no ratio at
// all. All of them produce bit-identical allocations and reject the same
// inputs: every item is checked, even at capacity 0.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
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
  /// The all-saturating rule decided the solve: every item got its cap.
  bool all_saturating = false;
};

/// What the validation scan learns about a solve's items, folded in input
/// order: the classification both pre-passes of the allocation step read.
struct FairShareClass {
  std::size_t n_items = 0;
  std::size_t n_capped = 0;
  /// Sum of all weights, in input order.
  double active_weight = 0.0;
  /// Sum of the positive-weight items' caps, in input order.
  double cap_sum = 0.0;
  /// Smallest positive weight (+inf when there is none).
  double min_weight = std::numeric_limits<double>::infinity();
  /// Every positive-weight item is capped.
  bool all_capped = true;

  /// Check one item and fold it in: weights must be non-negative and
  /// finite, caps non-negative, neither NaN. `cap` is read only when
  /// `capped`.
  void add(double weight, bool capped, BytesPerSec cap) {
    IOBTS_CHECK(!std::isnan(weight), "weights must not be NaN");
    IOBTS_CHECK(weight >= 0.0, "weights must be non-negative");
    IOBTS_CHECK(!std::isinf(weight), "weights must be finite");
    if (capped) {
      IOBTS_CHECK(!std::isnan(cap), "caps must not be NaN");
      IOBTS_CHECK(cap >= 0.0, "caps must be non-negative");
    }
    ++n_items;
    active_weight += weight;
    if (capped) ++n_capped;
    if (weight > 0.0) {
      min_weight = std::min(min_weight, weight);
      if (capped) {
        cap_sum += cap;
      } else {
        all_capped = false;
      }
    }
  }
  void add(const FairShareItem& item) {
    add(item.weight, item.cap.has_value(), item.cap.value_or(0.0));
  }

  /// The all-saturating rule: when it holds for `capacity`, the sorted walk
  /// pins every positive-weight item at its cap (zero-weight items get 0),
  /// with fill level 0, and the caps sum to at most `capacity`. False for a
  /// zero or negative capacity.
  bool allSaturating(BytesPerSec capacity) const;
};

/// The allocation step of fairShareInto, given the classification of
/// `items` (every item folded in, in order): allocates `capacity` across
/// them into `allocation` (resized to items.size(); existing capacity is
/// reused). Zero-weight items receive 0. Allocation-free once
/// scratch/output capacities are warm.
FairShareStats fairShareAllocate(std::span<const FairShareItem> items,
                                 BytesPerSec capacity,
                                 const FairShareClass& classification,
                                 FairShareScratch& scratch,
                                 std::vector<BytesPerSec>& allocation);

/// Check and classify `items`, then allocate `capacity` across them with
/// fairShareAllocate.
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
  if (cap) {
    IOBTS_CHECK(!std::isnan(*cap), "caps must not be NaN");
    IOBTS_CHECK(*cap >= 0.0, "caps must be non-negative");
  }
  IOBTS_CHECK(capacity >= 0.0, "capacity must be non-negative");
  if (capacity == 0.0) return 0.0;
  if (!cap) return capacity;
  return std::min(*cap, capacity);
}

/// Convenience wrapper over fairShareInto returning owned vectors.
FairShareResult fairShare(const std::vector<FairShareItem>& items,
                          BytesPerSec capacity);

}  // namespace iobts::pfs
