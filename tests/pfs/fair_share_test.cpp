#include "pfs/fair_share.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace iobts::pfs {
namespace {

TEST(FairShare, EmptyInput) {
  const auto r = fairShare({}, 100.0);
  EXPECT_TRUE(r.allocation.empty());
  EXPECT_DOUBLE_EQ(r.total, 0.0);
}

TEST(FairShare, SingleUncappedItemGetsEverything) {
  const auto r = fairShare({{1.0, std::nullopt}}, 100.0);
  ASSERT_EQ(r.allocation.size(), 1u);
  EXPECT_DOUBLE_EQ(r.allocation[0], 100.0);
}

TEST(FairShare, EqualWeightsSplitEvenly) {
  const auto r = fairShare({{1.0, {}}, {1.0, {}}, {1.0, {}}, {1.0, {}}},
                           120.0);
  for (const double a : r.allocation) EXPECT_DOUBLE_EQ(a, 30.0);
  EXPECT_DOUBLE_EQ(r.total, 120.0);
}

TEST(FairShare, WeightsScaleShares) {
  // Paper Fig. 1: "fair bandwidth distribution according to the number of
  // nodes" -- weights 16, 32, 96 on 120 GB/s.
  const auto r = fairShare({{16.0, {}}, {32.0, {}}, {96.0, {}}}, 144.0);
  EXPECT_DOUBLE_EQ(r.allocation[0], 16.0);
  EXPECT_DOUBLE_EQ(r.allocation[1], 32.0);
  EXPECT_DOUBLE_EQ(r.allocation[2], 96.0);
}

TEST(FairShare, CapBindsAndSurplusRedistributes) {
  const auto r = fairShare({{1.0, 10.0}, {1.0, {}}, {1.0, {}}}, 100.0);
  EXPECT_DOUBLE_EQ(r.allocation[0], 10.0);
  EXPECT_DOUBLE_EQ(r.allocation[1], 45.0);
  EXPECT_DOUBLE_EQ(r.allocation[2], 45.0);
}

TEST(FairShare, LooseCapDoesNotBind) {
  const auto r = fairShare({{1.0, 80.0}, {1.0, {}}}, 100.0);
  EXPECT_DOUBLE_EQ(r.allocation[0], 50.0);
  EXPECT_DOUBLE_EQ(r.allocation[1], 50.0);
}

TEST(FairShare, AllCappedBelowCapacityNotWorkConserving) {
  const auto r = fairShare({{1.0, 10.0}, {1.0, 20.0}}, 100.0);
  EXPECT_DOUBLE_EQ(r.allocation[0], 10.0);
  EXPECT_DOUBLE_EQ(r.allocation[1], 20.0);
  EXPECT_DOUBLE_EQ(r.total, 30.0);
}

TEST(FairShare, ZeroCapacity) {
  const auto r = fairShare({{1.0, {}}, {1.0, {}}}, 0.0);
  EXPECT_DOUBLE_EQ(r.allocation[0], 0.0);
  EXPECT_DOUBLE_EQ(r.allocation[1], 0.0);
}

TEST(FairShare, ZeroCapItemStarved) {
  const auto r = fairShare({{1.0, 0.0}, {1.0, {}}}, 100.0);
  EXPECT_DOUBLE_EQ(r.allocation[0], 0.0);
  EXPECT_DOUBLE_EQ(r.allocation[1], 100.0);
}

TEST(FairShare, ZeroWeightItemGetsNothing) {
  const auto r = fairShare({{0.0, {}}, {1.0, {}}}, 100.0);
  EXPECT_DOUBLE_EQ(r.allocation[0], 0.0);
  EXPECT_DOUBLE_EQ(r.allocation[1], 100.0);
}

TEST(FairShare, NegativeInputsThrow) {
  EXPECT_THROW(fairShare({{-1.0, {}}}, 100.0), CheckError);
  EXPECT_THROW(fairShare({{1.0, -5.0}}, 100.0), CheckError);
  EXPECT_THROW(fairShare({{1.0, {}}}, -1.0), CheckError);
}

TEST(FairShare, CascadingCaps) {
  // Three caps that saturate one after another.
  const auto r =
      fairShare({{1.0, 5.0}, {1.0, 20.0}, {1.0, 50.0}, {1.0, {}}}, 100.0);
  EXPECT_DOUBLE_EQ(r.allocation[0], 5.0);
  EXPECT_DOUBLE_EQ(r.allocation[1], 20.0);
  // Remaining 75 across two items -> 37.5 each; 37.5 < 50 so cap 3 not bound.
  EXPECT_DOUBLE_EQ(r.allocation[2], 37.5);
  EXPECT_DOUBLE_EQ(r.allocation[3], 37.5);
}

// ---- Property sweep over random instances --------------------------------

struct FairShareCase {
  std::uint64_t seed;
};

class FairShareProperty : public ::testing::TestWithParam<FairShareCase> {};

TEST_P(FairShareProperty, InvariantsHold) {
  Rng rng(GetParam().seed, "fair-share-prop");
  const std::size_t n = 1 + rng.uniformInt(40);
  const double capacity = rng.uniform(0.0, 1000.0);
  std::vector<FairShareItem> items(n);
  for (auto& item : items) {
    item.weight = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.1, 10.0);
    if (rng.uniform() < 0.5) item.cap = rng.uniform(0.0, 400.0);
  }
  const auto r = fairShare(items, capacity);

  // 1. Feasibility: total <= capacity (+eps), each item within its cap.
  EXPECT_LE(r.total, capacity * (1.0 + 1e-9) + 1e-9);
  double sum = 0.0;
  bool all_capped = true;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(r.allocation[i], 0.0);
    if (items[i].cap) {
      EXPECT_LE(r.allocation[i], *items[i].cap + 1e-9);
    }
    const bool saturated =
        items[i].cap && r.allocation[i] >= *items[i].cap - 1e-9;
    if (!saturated && items[i].weight > 0.0) all_capped = false;
    sum += r.allocation[i];
  }
  EXPECT_NEAR(sum, r.total, 1e-6);

  // 2. Work conservation: if some item is not cap-saturated, the capacity is
  // fully used.
  if (!all_capped && capacity > 0.0) {
    bool any_positive_weight = false;
    for (const auto& item : items) {
      any_positive_weight |= item.weight > 0.0;
    }
    if (any_positive_weight) {
      EXPECT_NEAR(r.total, capacity, capacity * 1e-9 + 1e-9);
    }
  }

  // 3. Weighted fairness among unsaturated items: allocation/weight equal.
  double lambda = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (items[i].weight <= 0.0) continue;
    const bool saturated =
        items[i].cap && r.allocation[i] >= *items[i].cap - 1e-9;
    if (saturated) continue;
    const double per_weight = r.allocation[i] / items[i].weight;
    if (lambda < 0.0) {
      lambda = per_weight;
    } else {
      EXPECT_NEAR(per_weight, lambda, std::max(1e-9, lambda * 1e-9));
    }
  }

  // 4. No envy: a saturated item's cap is <= its weight-fair entitlement.
  if (lambda >= 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!items[i].cap || items[i].weight <= 0.0) continue;
      const bool saturated = r.allocation[i] >= *items[i].cap - 1e-9;
      if (saturated) {
        EXPECT_LE(*items[i].cap,
                  lambda * items[i].weight + std::max(1e-6, lambda * 1e-6));
      }
    }
  }
}

std::vector<FairShareCase> makeCases() {
  std::vector<FairShareCase> cases;
  for (std::uint64_t s = 0; s < 64; ++s) cases.push_back({s});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, FairShareProperty,
                         ::testing::ValuesIn(makeCases()),
                         [](const auto& param_info) {
                           return "seed" +
                                  std::to_string(param_info.param.seed);
                         });

}  // namespace
}  // namespace iobts::pfs
