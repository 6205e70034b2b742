#include "pfs/fair_share.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/check.hpp"

namespace iobts::pfs {

bool FairShareClass::allSaturating(BytesPerSec capacity) const {
  // The mirror of the bucket pre-pass below. When every positive-weight
  // item is capped and the caps sum to S <= C(1 - d), the sorted walk pins
  // every item at its cap, ends with lambda = 0 and never breaks, so the
  // caps are the answer and the sort is pure overhead. The margin d must
  // absorb the walk's rounding. Exactly, step k offers
  // lambda_k * w_k >= cap_k + (C - S) * w_k / active_k (the items still
  // active have ratios >= cap_k / w_k). In floating point `remaining`
  // carries at most about (N + k) eps C of absolute error and
  // `active_weight` at most about 2N eps W, and the last items' active
  // weight can be as small as w_min, so keeping the computed
  // lambda_k * w_k >= cap_k at every step needs
  // d >= 2 (N + 1)(1 + W / w_min) eps to first order; d is 4x that.
  // d < 1/2 keeps `active_weight` positive to the end. A fill level or
  // product in the subnormal range carries absolute rather than relative
  // error, so the smallest fill level the walk can reach, d C / W, times
  // min(1, w_min) must also stay normal. Seeded near-boundary fuzzing found
  // no mismatch against the sorted walk even at 1/32 of this d (DESIGN.md
  // section 6). The caps then sum to at most C (1 - d) <= C, so the
  // overshoot guard never scales them.
  if (!all_capped || !std::isfinite(min_weight) || !std::isfinite(capacity) ||
      !std::isfinite(cap_sum)) {
    return false;
  }
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  const double margin = 8.0 * static_cast<double>(n_items + 1) *
                        (1.0 + active_weight / min_weight) * kEps;
  return margin < 0.5 && cap_sum <= capacity * (1.0 - margin) &&
         margin * capacity / active_weight * std::min(1.0, min_weight) >=
             2.0 * std::numeric_limits<double>::min();
}

FairShareStats fairShareInto(std::span<const FairShareItem> items,
                             BytesPerSec capacity, FairShareScratch& scratch,
                             std::vector<BytesPerSec>& allocation) {
  FairShareClass classification;
  for (const auto& item : items) classification.add(item);
  return fairShareAllocate(items, capacity, classification, scratch,
                           allocation);
}

FairShareStats fairShareAllocate(std::span<const FairShareItem> items,
                                 BytesPerSec capacity,
                                 const FairShareClass& classification,
                                 FairShareScratch& scratch,
                                 std::vector<BytesPerSec>& allocation) {
  IOBTS_CHECK(capacity >= 0.0, "capacity must be non-negative");
  IOBTS_CHECK(classification.n_items == items.size(),
              "the classification must cover every item");
  FairShareStats stats;
  allocation.assign(items.size(), 0.0);
  if (items.empty() || capacity == 0.0) return stats;

  double active_weight = classification.active_weight;
  const std::size_t n_capped = classification.n_capped;
  const bool all_saturating = classification.allSaturating(capacity);

  // Bucket pre-pass. Progressive filling saturates items in ascending
  // cap/weight order and its fill level only ever rises, so when no
  // positive-weight item saturates at the *initial* level
  // capacity / total_weight, the sorted walk would break at its very first
  // positive-weight item and the sort is pure overhead. That covers the
  // common all-uncapped and under-demand (contention-free) solves. The
  // fast path reuses the identical division, so allocations stay
  // bit-identical to the sorted walk's. The two pre-passes exclude each
  // other: the all-saturating margin makes the walk's first item saturate.
  const double lambda0 = active_weight > 0.0 ? capacity / active_weight : 0.0;
  bool any_saturating = all_saturating;
  if (!all_saturating && n_capped > 0) {
    for (const auto& item : items) {
      if (item.weight > 0.0 && item.cap &&
          *item.cap <= lambda0 * item.weight) {
        any_saturating = true;
        break;
      }
    }
  }

  double lambda = 0.0;
  if (all_saturating) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].weight > 0.0) allocation[i] = *items[i].cap;
    }
  } else if (!any_saturating) {
    lambda = lambda0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto& item = items[i];
      if (item.weight <= 0.0) continue;  // allocation stays 0
      double alloc = lambda * item.weight;
      if (item.cap) alloc = std::min(alloc, *item.cap);
      allocation[i] = alloc;
    }
  } else {
    // Order item indices for the saturating walk: capped items ascending by
    // cap/weight ratio, then uncapped items in input order. Only the capped
    // bucket is ever sorted -- uncapped items can never join the saturating
    // prefix, and once the walk breaks, the remaining items' allocations are
    // order-independent (each is min(lambda * weight, cap)). When all capped
    // items share one ratio class their input order is already sorted and
    // even that sort is skipped. Each capped item's ratio is computed once
    // here: the comparator would otherwise recompute two divisions per
    // comparison (uncapped items have none; the sort never reads theirs).
    // Validated inputs keep every ratio non-NaN, as the strict weak ordering
    // needs.
    scratch.order.resize(items.size());
    scratch.ratio.resize(items.size());
    bool single_ratio_class = true;
    {
      std::size_t capped_pos = 0;
      std::size_t uncapped_pos = n_capped;
      double first_ratio = 0.0;
      for (std::size_t i = 0; i < items.size(); ++i) {
        const auto& item = items[i];
        if (item.cap) {
          // Zero weight saturates at once.
          const double ratio =
              item.weight <= 0.0 ? 0.0 : *item.cap / item.weight;
          scratch.ratio[i] = ratio;
          if (capped_pos == 0) {
            first_ratio = ratio;
          } else if (ratio != first_ratio) {
            single_ratio_class = false;
          }
          scratch.order[capped_pos++] = static_cast<std::uint32_t>(i);
        } else {
          scratch.order[uncapped_pos++] = static_cast<std::uint32_t>(i);
        }
      }
    }
    if (!single_ratio_class) {
      // std::sort with an index tie-breaker, not std::stable_sort: the
      // entries are distinct indices, so breaking ratio ties by index yields
      // exactly the stable order while staying in-place (stable_sort
      // allocates a temporary merge buffer on every call, which would break
      // the zero-allocation steady state of the resolve path).
      std::sort(scratch.order.begin(), scratch.order.begin() + n_capped,
                [&ratio = scratch.ratio](std::uint32_t a, std::uint32_t b) {
                  return ratio[a] != ratio[b] ? ratio[a] < ratio[b] : a < b;
                });
    }

    double remaining = capacity;

    // Progressive filling: walk items in ratio order; an item saturates at
    // its cap when cap <= lambda * weight for the prospective lambda.
    std::size_t k = 0;
    for (; k < scratch.order.size(); ++k) {
      const std::size_t i = scratch.order[k];
      const auto& item = items[i];
      if (item.weight <= 0.0) {
        allocation[i] = 0.0;
        continue;
      }
      const double prospective_lambda =
          active_weight > 0.0 ? remaining / active_weight : 0.0;
      if (item.cap && *item.cap <= prospective_lambda * item.weight) {
        // Saturates below the fill level: pin at cap.
        allocation[i] = *item.cap;
        remaining -= *item.cap;
        active_weight -= item.weight;
        if (remaining < 0.0) remaining = 0.0;
      } else {
        // This and all later items (larger ratios) are lambda-bound.
        lambda = prospective_lambda;
        break;
      }
    }
    for (; k < scratch.order.size(); ++k) {
      const std::size_t i = scratch.order[k];
      const auto& item = items[i];
      if (item.weight <= 0.0) {
        allocation[i] = 0.0;
        continue;
      }
      double alloc = lambda * item.weight;
      if (item.cap) alloc = std::min(alloc, *item.cap);
      allocation[i] = alloc;
    }
  }

  stats.fill_level = lambda;
  stats.all_saturating = all_saturating;
  stats.total = std::accumulate(allocation.begin(), allocation.end(), 0.0);
  // Guard against floating-point overshoot.
  if (stats.total > capacity && stats.total > 0.0) {
    const double scale = capacity / stats.total;
    for (auto& a : allocation) a *= scale;
    stats.total = capacity;
  }
  return stats;
}

FairShareResult fairShare(const std::vector<FairShareItem>& items,
                          BytesPerSec capacity) {
  FairShareResult result;
  FairShareScratch scratch;
  const FairShareStats stats =
      fairShareInto(items, capacity, scratch, result.allocation);
  result.total = stats.total;
  result.fill_level = stats.fill_level;
  return result;
}

}  // namespace iobts::pfs
