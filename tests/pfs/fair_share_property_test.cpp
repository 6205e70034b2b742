// Property/fuzz layer for the weighted max-min fair-share solver.
//
// fairShareInto() gained a bucket pre-pass (no-saturation fast path,
// capped-only sort, single-ratio-class sort skip) that must not change a
// single bit of any allocation. Two lines of defence:
//
//   1. A differential oracle: referenceFairShare() below is the plain
//      progressive-filling implementation (full stable_sort over all items,
//      no pre-pass) and every fuzzed instance must match it bit-for-bit.
//   2. Analytic invariants that hold regardless of implementation:
//      conservation, work conservation under excess demand, per-item cap
//      respect, weight proportionality among uncapped items, and
//      permutation invariance.
//
// Instances are drawn from seeded util/rng streams across several shape
// classes (all-uncapped, mixed, single ratio class, under-demand, heavy
// contention, degenerate) so both pre-pass branches and the sort fallback
// are exercised; >= 1000 seeds per suite run.
//
// The all-saturating pre-pass returns the caps unsorted only when they sum
// below capacity by a rounding margin; a separate generator draws instances
// within a few margins of that boundary on both sides, and the single-item
// helper fairShareSingle() is checked against fairShareInto() over random
// and extreme values.
//
// The split entry (FairShareClass + fairShareAllocate) runs beside
// fairShareInto() the way SharedLink's level-1 pass drives it: when the
// all-saturating rule holds it takes the caps with no allocation step. Its
// allocations must match bit for bit, its rule must decide exactly the
// instances fairShareInto()'s pre-pass decides, and it must reject the same
// inputs.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pfs/fair_share.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace iobts::pfs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The pre-bucket-pre-pass progressive-filling solver, kept verbatim as the
// differential oracle: stable_sort *all* item indices by cap/weight ratio,
// then run the saturating walk. Any arithmetic divergence from
// fairShareInto() is a bug in the pre-pass.
struct ReferenceResult {
  std::vector<double> allocation;
  double total = 0.0;
  double fill_level = 0.0;
};

ReferenceResult referenceFairShare(const std::vector<FairShareItem>& items,
                                   double capacity) {
  ReferenceResult result;
  result.allocation.assign(items.size(), 0.0);
  if (items.empty() || capacity == 0.0) return result;

  std::vector<double> ratio(items.size());
  double active_weight = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& item = items[i];
    active_weight += item.weight;
    if (!item.cap) {
      ratio[i] = kInf;
    } else if (item.weight <= 0.0) {
      ratio[i] = 0.0;
    } else {
      ratio[i] = *item.cap / item.weight;
    }
  }

  std::vector<std::uint32_t> order(items.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&ratio](std::uint32_t a, std::uint32_t b) {
                     return ratio[a] < ratio[b];
                   });

  double remaining = capacity;
  double lambda = 0.0;
  std::size_t k = 0;
  for (; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const auto& item = items[i];
    if (item.weight <= 0.0) {
      result.allocation[i] = 0.0;
      continue;
    }
    const double prospective_lambda =
        active_weight > 0.0 ? remaining / active_weight : 0.0;
    if (item.cap && *item.cap <= prospective_lambda * item.weight) {
      result.allocation[i] = *item.cap;
      remaining -= *item.cap;
      active_weight -= item.weight;
      if (remaining < 0.0) remaining = 0.0;
    } else {
      lambda = prospective_lambda;
      break;
    }
  }
  for (; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const auto& item = items[i];
    if (item.weight <= 0.0) {
      result.allocation[i] = 0.0;
      continue;
    }
    double alloc = lambda * item.weight;
    if (item.cap) alloc = std::min(alloc, *item.cap);
    result.allocation[i] = alloc;
  }

  result.fill_level = lambda;
  result.total =
      std::accumulate(result.allocation.begin(), result.allocation.end(), 0.0);
  if (result.total > capacity && result.total > 0.0) {
    const double scale = capacity / result.total;
    for (auto& a : result.allocation) a *= scale;
    result.total = capacity;
  }
  return result;
}

std::uint64_t bitsOf(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

// The split entry as SharedLink's level-1 pass drives it: fold each item
// into a FairShareClass; when the all-saturating rule holds, give every
// positive-weight item its cap (zero-weight items 0) without an allocation
// step, otherwise hand the classification to fairShareAllocate. Returns
// whether the rule decided.
bool splitFairShare(const std::vector<FairShareItem>& items, double capacity,
                    FairShareScratch& scratch,
                    std::vector<double>& allocation) {
  FairShareClass classification;
  for (const auto& item : items) classification.add(item);
  if (classification.allSaturating(capacity)) {
    allocation.assign(items.size(), 0.0);
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].weight > 0.0) allocation[i] = *items[i].cap;
    }
    return true;
  }
  fairShareAllocate(items, capacity, classification, scratch, allocation);
  return false;
}

struct Instance {
  std::vector<FairShareItem> items;
  double capacity = 0.0;
  std::string shape;
};

// Draw one fuzz instance. The shape class rotates with the seed so every
// pre-pass branch sees hundreds of instances across the suite.
Instance drawInstance(std::uint64_t seed) {
  Rng rng(seed, "fair-share-fuzz");
  Instance inst;
  const std::size_t n = 1 + rng.uniformInt(96);
  inst.items.resize(n);
  inst.capacity = rng.uniform(1.0, 1000.0) * std::pow(10.0, rng.uniformInt(9));

  const std::uint64_t shape = seed % 6;
  switch (shape) {
    case 0: {  // all uncapped -> no-saturation fast path
      inst.shape = "all-uncapped";
      for (auto& item : inst.items) item.weight = rng.uniform(0.1, 8.0);
      break;
    }
    case 1: {  // mixed caps, generic fallback
      inst.shape = "mixed";
      for (auto& item : inst.items) {
        item.weight = rng.uniform(0.1, 8.0);
        if (rng.uniform() < 0.5) {
          item.cap = rng.uniform(0.0, 2.0) * inst.capacity /
                     static_cast<double>(inst.items.size());
        }
      }
      break;
    }
    case 2: {  // all capped, one shared cap/weight ratio -> sort skip
      inst.shape = "single-ratio-class";
      const double shared_ratio =
          rng.uniform(0.1, 3.0) * inst.capacity / static_cast<double>(n);
      for (auto& item : inst.items) {
        item.weight = rng.uniform(0.5, 4.0);
        item.cap = shared_ratio * item.weight;
      }
      break;
    }
    case 3: {  // under-demand: sum of caps below capacity
      inst.shape = "under-demand";
      for (auto& item : inst.items) {
        item.weight = rng.uniform(0.1, 8.0);
        item.cap =
            rng.uniform(0.0, 0.9) * inst.capacity / static_cast<double>(n);
      }
      break;
    }
    case 4: {  // heavy contention, zero weights sprinkled in
      inst.shape = "contended";
      for (auto& item : inst.items) {
        item.weight = rng.uniform() < 0.15 ? 0.0 : rng.uniform(0.1, 8.0);
        if (rng.uniform() < 0.8) {
          item.cap = rng.uniform(0.0, 8.0) * inst.capacity /
                     static_cast<double>(inst.items.size());
        }
      }
      break;
    }
    default: {  // degenerate values: zero/inf caps, zero weights
      inst.shape = "degenerate";
      for (auto& item : inst.items) {
        const std::uint64_t kind = rng.uniformInt(5);
        item.weight = kind == 0 ? 0.0 : rng.uniform(0.0, 4.0);
        if (kind == 1) item.cap = 0.0;
        else if (kind == 2) item.cap = kInf;
        else if (kind == 3) item.cap = rng.uniform(0.0, inst.capacity);
      }
      if (rng.uniform() < 0.1) inst.capacity = 0.0;
      break;
    }
  }
  return inst;
}

double demandOf(const Instance& inst) {
  double demand = 0.0;
  for (const auto& item : inst.items) {
    if (item.weight <= 0.0) continue;
    demand += item.cap ? std::min(*item.cap, inst.capacity) : inst.capacity;
  }
  return demand;
}

constexpr std::uint64_t kSeeds = 1200;

TEST(FairShareProperty, MatchesReferenceBitForBitAcrossSeeds) {
  FairShareScratch scratch;
  std::vector<double> allocation;
  std::vector<double> split_allocation;
  std::size_t decided = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Instance inst = drawInstance(seed);
    const FairShareStats stats =
        fairShareInto(inst.items, inst.capacity, scratch, allocation);
    const ReferenceResult ref = referenceFairShare(inst.items, inst.capacity);
    const bool rule =
        splitFairShare(inst.items, inst.capacity, scratch, split_allocation);
    ASSERT_EQ(rule, stats.all_saturating)
        << "seed " << seed << " shape " << inst.shape;
    if (rule) ++decided;
    ASSERT_EQ(stats.total, ref.total)
        << "seed " << seed << " shape " << inst.shape;
    ASSERT_EQ(stats.fill_level, ref.fill_level)
        << "seed " << seed << " shape " << inst.shape;
    ASSERT_EQ(allocation.size(), ref.allocation.size());
    ASSERT_EQ(split_allocation.size(), ref.allocation.size());
    for (std::size_t i = 0; i < allocation.size(); ++i) {
      ASSERT_EQ(allocation[i], ref.allocation[i])
          << "seed " << seed << " shape " << inst.shape << " item " << i;
      ASSERT_EQ(bitsOf(split_allocation[i]), bitsOf(allocation[i]))
          << "seed " << seed << " shape " << inst.shape << " item " << i;
      ASSERT_EQ(bitsOf(split_allocation[i]), bitsOf(ref.allocation[i]))
          << "seed " << seed << " shape " << inst.shape << " item " << i;
    }
  }
  // The rule decides some instances (234 of the 1,200), not most.
  EXPECT_GT(decided, 0u);
  EXPECT_LT(decided, kSeeds / 2);
}

TEST(FairShareProperty, ConservationAndCapRespectAcrossSeeds) {
  FairShareScratch scratch;
  std::vector<double> allocation;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Instance inst = drawInstance(seed);
    fairShareInto(inst.items, inst.capacity, scratch, allocation);

    double total = 0.0;
    for (std::size_t i = 0; i < allocation.size(); ++i) {
      const auto& item = inst.items[i];
      ASSERT_GE(allocation[i], 0.0) << "seed " << seed << " item " << i;
      if (item.weight <= 0.0) {
        // Zero-weight items receive exactly nothing.
        ASSERT_EQ(allocation[i], 0.0) << "seed " << seed << " item " << i;
      }
      if (item.cap) {
        // Cap respect is exact: allocations are min()'d against the cap and
        // the overshoot rescale only ever shrinks them.
        ASSERT_LE(allocation[i], *item.cap) << "seed " << seed << " item "
                                            << i << " shape " << inst.shape;
      }
      total += allocation[i];
    }
    ASSERT_LE(total, inst.capacity * (1.0 + 1e-9) + 1e-9)
        << "seed " << seed << " shape " << inst.shape;

    // Work conservation: when demand strictly exceeds capacity the solver
    // must hand out the whole channel.
    const double demand = demandOf(inst);
    if (demand > inst.capacity * (1.0 + 1e-6)) {
      ASSERT_NEAR(total, inst.capacity, inst.capacity * 1e-9)
          << "seed " << seed << " shape " << inst.shape;
    }
  }
}

TEST(FairShareProperty, UncappedAllocationsProportionalToWeights) {
  FairShareScratch scratch;
  std::vector<double> allocation;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Instance inst = drawInstance(seed);
    fairShareInto(inst.items, inst.capacity, scratch, allocation);

    // All uncapped positive-weight items sit at the same fill level, so
    // alloc_i / w_i must agree pairwise (up to FP rounding).
    std::optional<std::size_t> first;
    for (std::size_t i = 0; i < inst.items.size(); ++i) {
      const auto& item = inst.items[i];
      if (item.cap || item.weight <= 0.0) continue;
      if (!first) {
        first = i;
        continue;
      }
      const double lhs = allocation[*first] * item.weight;
      const double rhs = allocation[i] * inst.items[*first].weight;
      ASSERT_NEAR(lhs, rhs, 1e-9 * std::max(std::abs(lhs), 1.0))
          << "seed " << seed << " items " << *first << "," << i;
    }
  }
}

TEST(FairShareProperty, PermutationInvariantAcrossSeeds) {
  FairShareScratch scratch;
  std::vector<double> allocation;
  std::vector<double> shuffled_allocation;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Instance inst = drawInstance(seed);
    fairShareInto(inst.items, inst.capacity, scratch, allocation);

    Rng rng(seed, "fair-share-perm");
    std::vector<std::size_t> perm(inst.items.size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.uniformInt(i)]);
    }
    std::vector<FairShareItem> shuffled(inst.items.size());
    for (std::size_t i = 0; i < perm.size(); ++i) {
      shuffled[i] = inst.items[perm[i]];
    }
    fairShareInto(shuffled, inst.capacity, scratch, shuffled_allocation);

    // The total weight is summed in input order, so permuting items can
    // shift the fill level by FP rounding -- invariance holds to relative
    // tolerance, not bit-exactly (the bit-exact guarantee is against the
    // reference implementation at equal input order).
    for (std::size_t i = 0; i < perm.size(); ++i) {
      const double a = allocation[perm[i]];
      const double b = shuffled_allocation[i];
      ASSERT_NEAR(a, b, 1e-9 * std::max(std::abs(a), 1.0))
          << "seed " << seed << " item " << perm[i] << " shape " << inst.shape;
    }
  }
}

TEST(FairShareProperty, RejectsNegativeAndNonFiniteWeights) {
  // Regression: negative weights must be rejected on every path (including
  // the pre-pass fast paths), and infinite weights -- which would silently
  // zero the fill level -- are now rejected too. fairShare and the split
  // entry reject the same inputs.
  FairShareScratch scratch;
  std::vector<double> allocation;
  const auto split = [&](const std::vector<FairShareItem>& items,
                         double capacity) {
    splitFairShare(items, capacity, scratch, allocation);
  };
  for (const double capacity : {100.0, 0.0}) {
    // Every item is checked, also at capacity 0 where nothing is allocated.
    EXPECT_THROW(fairShare({{-1.0, {}}}, capacity), CheckError);
    EXPECT_THROW(split({{-1.0, {}}}, capacity), CheckError);
    EXPECT_THROW(fairShare({{1.0, {}}, {-0.5, 10.0}}, capacity), CheckError);
    EXPECT_THROW(split({{1.0, {}}, {-0.5, 10.0}}, capacity), CheckError);
    EXPECT_THROW(fairShare({{kInf, {}}}, capacity), CheckError);
    EXPECT_THROW(split({{kInf, {}}}, capacity), CheckError);
    EXPECT_THROW(fairShare({{1.0, 5.0}, {kInf, 10.0}}, capacity), CheckError);
    EXPECT_THROW(split({{1.0, 5.0}, {kInf, 10.0}}, capacity), CheckError);
    EXPECT_THROW(fairShare({{std::nan(""), {}}}, capacity), CheckError);
    EXPECT_THROW(split({{std::nan(""), {}}}, capacity), CheckError);
    EXPECT_THROW(fairShare({{1.0, -5.0}}, capacity), CheckError);
    EXPECT_THROW(split({{1.0, -5.0}}, capacity), CheckError);
    EXPECT_THROW(fairShare({{1.0, std::nan("")}}, capacity), CheckError);
    EXPECT_THROW(split({{1.0, std::nan("")}}, capacity), CheckError);
  }
  EXPECT_THROW(fairShare({{1.0, {}}}, -1.0), CheckError);
  EXPECT_THROW(split({{1.0, {}}}, -1.0), CheckError);
  // A capped item below a negative capacity is no all-saturating solve.
  EXPECT_THROW(fairShare({{1.0, 0.0}}, -1.0), CheckError);
  EXPECT_THROW(split({{1.0, 0.0}}, -1.0), CheckError);
  // +inf caps stay legal: they mean "uncapped" and must not throw.
  const FairShareResult r = fairShare({{1.0, kInf}, {1.0, {}}}, 100.0);
  EXPECT_DOUBLE_EQ(r.total, 100.0);
  EXPECT_NO_THROW(split({{1.0, kInf}, {1.0, {}}}, 100.0));
}

// The all-saturating pre-pass margin, restated: 8 (N + 1)(1 + W / w_min) eps
// over the positive weights (infinite when there are none).
double saturationMargin(const std::vector<FairShareItem>& items) {
  double weight_sum = 0.0;
  double min_weight = kInf;
  for (const auto& item : items) {
    weight_sum += item.weight;
    if (item.weight > 0.0) min_weight = std::min(min_weight, item.weight);
  }
  if (min_weight == kInf) return kInf;
  return 8.0 * static_cast<double>(items.size() + 1) *
         (1.0 + weight_sum / min_weight) *
         std::numeric_limits<double>::epsilon();
}

// Draw an instance whose cap sum S straddles the all-saturating pre-pass
// boundary S <= C (1 - d): every positive-weight item capped (one left
// uncapped now and then), C at S, one ULP above S, at the threshold itself,
// within 1e-6 relative of S, or a log-uniform eps..4d relative gap away on
// either side. Weights are equal, skewed over 1e-3..1e3, zero-sprinkled,
// integer, or near 1 with one light item; some caps are zero, and a few
// instances sit in the subnormal range or carry huge weights.
Instance drawBoundaryInstance(std::uint64_t seed) {
  Rng rng(seed, "fair-share-boundary");
  Instance inst;
  const auto n = static_cast<std::size_t>(std::exp2(rng.uniform(0.0, 10.0)));
  inst.items.resize(n);
  double cap_scale =
      rng.uniform(1.0, 1000.0) * std::pow(10.0, rng.uniformInt(9));
  double weight_scale = 1.0;
  const std::uint64_t range = rng.uniformInt(20);
  if (range == 0) cap_scale = 1e-312;  // subnormal capacity and caps
  if (range == 1) weight_scale = 1e300;
  const std::uint64_t weights = seed % 5;
  inst.shape = weights == 0   ? "equal"
               : weights == 1 ? "skewed"
               : weights == 2 ? "zero-sprinkled"
               : weights == 3 ? "integer"
                              : "light-tail";
  for (auto& item : inst.items) {
    switch (weights) {
      case 0: item.weight = 1.0; break;
      case 1: item.weight = std::pow(10.0, rng.uniform(-3.0, 3.0)); break;
      case 2:
        item.weight = rng.uniform() < 0.2 ? 0.0 : rng.uniform(0.1, 8.0);
        break;
      case 3:
        item.weight = static_cast<double>(1 + rng.uniformInt(8));
        break;
      default: item.weight = rng.uniform(0.5, 2.0); break;
    }
    item.weight *= weight_scale;
    item.cap = rng.uniform() < 0.05 ? 0.0 : cap_scale * rng.uniform(0.01, 1.0);
  }
  if (weights == 4) {
    // One light item with the largest cap comes last in the walk, at the
    // highest fill level: the worst case for the active-weight rounding.
    auto& light = inst.items[rng.uniformInt(n)];
    light.weight = weight_scale * std::pow(10.0, rng.uniform(-6.0, -2.0));
    light.cap = cap_scale;
  }
  if (rng.uniform() < 0.1) inst.items[rng.uniformInt(n)].cap.reset();

  double cap_sum = 0.0;
  for (const auto& item : inst.items) {
    if (item.weight > 0.0 && item.cap) cap_sum += *item.cap;
  }
  const double margin = std::min(0.25, saturationMargin(inst.items));
  switch (rng.uniformInt(8)) {
    case 0: inst.capacity = cap_sum; break;
    case 1: inst.capacity = std::nextafter(cap_sum, kInf); break;
    case 2: inst.capacity = cap_sum / (1.0 - margin); break;
    case 3:
      inst.capacity = cap_sum * (1.0 + rng.uniform(-1e-6, 1e-6));
      break;
    default: {
      const double lo = std::log10(std::numeric_limits<double>::epsilon());
      const double gap =
          std::pow(10.0, rng.uniform(lo, std::log10(4.0 * margin)));
      inst.capacity =
          cap_sum * (rng.uniform() < 0.5 ? 1.0 - gap : 1.0 + gap);
      break;
    }
  }
  if (!(inst.capacity > 0.0)) inst.capacity = cap_scale;
  return inst;
}

TEST(FairShareProperty, AllSaturatingBoundaryMatchesReferenceBitForBit) {
  constexpr std::uint64_t kBoundarySeeds = 2500;
  FairShareScratch scratch;
  std::vector<double> allocation;
  std::vector<double> split_allocation;
  std::size_t mismatches = 0;
  std::size_t all_pinned = 0;
  std::size_t decided = 0;
  std::string first_mismatch;
  for (std::uint64_t seed = 0; seed < kBoundarySeeds; ++seed) {
    const Instance inst = drawBoundaryInstance(seed);
    const FairShareStats stats =
        fairShareInto(inst.items, inst.capacity, scratch, allocation);
    const ReferenceResult ref = referenceFairShare(inst.items, inst.capacity);
    const bool rule =
        splitFairShare(inst.items, inst.capacity, scratch, split_allocation);
    if (rule) ++decided;
    bool match = rule == stats.all_saturating &&
                 split_allocation.size() == allocation.size() &&
                 bitsOf(stats.total) == bitsOf(ref.total) &&
                 bitsOf(stats.fill_level) == bitsOf(ref.fill_level);
    bool pinned = ref.fill_level == 0.0;
    for (std::size_t i = 0; match && i < allocation.size(); ++i) {
      match = bitsOf(allocation[i]) == bitsOf(ref.allocation[i]) &&
              bitsOf(split_allocation[i]) == bitsOf(ref.allocation[i]);
    }
    for (std::size_t i = 0; i < allocation.size(); ++i) {
      const auto& item = inst.items[i];
      if (item.weight > 0.0) {
        pinned = pinned && item.cap && ref.allocation[i] == *item.cap;
      }
    }
    if (pinned) ++all_pinned;
    if (!match && mismatches++ == 0) {
      first_mismatch = "seed " + std::to_string(seed) + " shape " +
                       inst.shape + " n " + std::to_string(inst.items.size());
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch: " << first_mismatch;
  // The generator must straddle the boundary: plenty of instances on each
  // side of it. The rule decides 424 of them, all pinned ones.
  EXPECT_GT(all_pinned, kBoundarySeeds / 4);
  EXPECT_LT(all_pinned, kBoundarySeeds * 3 / 4);
  EXPECT_GT(decided, kBoundarySeeds / 8);
}

TEST(FairShareProperty, SingleItemHelperMatchesFairShareInto) {
  FairShareScratch scratch;
  std::vector<double> allocation;
  std::vector<FairShareItem> one(1);
  // Both throw CheckError, or the helper's value has the solver's
  // allocation bits and equals its total (a -0.0 cap allocates -0.0 and
  // totals +0.0).
  const auto same = [&](std::optional<double> cap, double capacity) {
    one[0] = {1.0, cap};
    std::optional<double> single;
    std::optional<FairShareStats> stats;
    try {
      single = fairShareSingle(cap, capacity);
    } catch (const CheckError&) {
    }
    try {
      stats = fairShareInto(one, capacity, scratch, allocation);
    } catch (const CheckError&) {
    }
    if (single.has_value() != stats.has_value()) return false;
    return !stats || (bitsOf(*single) == bitsOf(allocation[0]) &&
                      *single == stats->total);
  };

  const double extremes[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             1e-310,
                             std::numeric_limits<double>::min(),
                             1e-3,
                             1.0,
                             5.76e6,
                             1.06e11,
                             1e300,
                             std::numeric_limits<double>::max(),
                             kInf,
                             -1.0,
                             std::nan("")};
  for (const double capacity : extremes) {
    EXPECT_TRUE(same(std::nullopt, capacity)) << "capacity " << capacity;
    for (const double cap :
         {std::nextafter(capacity, -kInf), capacity,
          std::nextafter(capacity, kInf)}) {
      EXPECT_TRUE(same(cap, capacity))
          << "capacity " << capacity << " cap " << cap;
    }
    for (const double cap : extremes) {
      EXPECT_TRUE(same(cap, capacity))
          << "capacity " << capacity << " cap " << cap;
    }
  }

  Rng rng(7, "fair-share-single");
  for (int draw = 0; draw < 20000; ++draw) {
    const double capacity = std::pow(10.0, rng.uniform(-320.0, 308.0));
    std::optional<double> cap;
    switch (rng.uniformInt(4)) {
      case 0: break;  // uncapped
      case 1: cap = capacity * std::pow(10.0, rng.uniform(-3.0, 3.0)); break;
      case 2: {
        double near = capacity;
        const std::uint64_t ulps = rng.uniformInt(3);
        const double toward = rng.uniform() < 0.5 ? -kInf : kInf;
        for (std::uint64_t u = 0; u < ulps; ++u) {
          near = std::nextafter(near, toward);
        }
        cap = near;
        break;
      }
      default: cap = rng.uniform(0.0, 1.0) * capacity; break;
    }
    ASSERT_TRUE(same(cap, capacity))
        << "draw " << draw << " capacity " << capacity << " cap "
        << cap.value_or(kInf);
  }
}

}  // namespace
}  // namespace iobts::pfs
