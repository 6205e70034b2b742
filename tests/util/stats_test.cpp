#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace iobts {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(3.14);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.14);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(31);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(10.0, 3.0);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(StepSeries, AtBeforeFirstSampleIsZero) {
  StepSeries s;
  s.add(1.0, 5.0);
  EXPECT_DOUBLE_EQ(s.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.at(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.at(100.0), 5.0);
}

TEST(StepSeries, HoldsValueBetweenSamples) {
  StepSeries s;
  s.add(0.0, 1.0);
  s.add(2.0, 3.0);
  s.add(5.0, 0.0);
  EXPECT_DOUBLE_EQ(s.at(1.999), 1.0);
  EXPECT_DOUBLE_EQ(s.at(2.0), 3.0);
  EXPECT_DOUBLE_EQ(s.at(4.0), 3.0);
  EXPECT_DOUBLE_EQ(s.at(5.0), 0.0);
}

TEST(StepSeries, SameInstantLastWriteWins) {
  StepSeries s;
  s.add(1.0, 5.0);
  s.add(1.0, 7.0);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.at(1.0), 7.0);
}

TEST(StepSeries, OutOfOrderThrows) {
  StepSeries s;
  s.add(2.0, 1.0);
  EXPECT_THROW(s.add(1.0, 1.0), CheckError);
}

TEST(StepSeries, IntegrateRectangles) {
  StepSeries s;
  s.add(0.0, 2.0);
  s.add(1.0, 4.0);
  // [0,1) at 2, [1,3] at 4 -> 2 + 8 = 10
  EXPECT_DOUBLE_EQ(s.integrate(0.0, 3.0), 10.0);
  // Partial windows.
  EXPECT_DOUBLE_EQ(s.integrate(0.5, 1.5), 0.5 * 2.0 + 0.5 * 4.0);
  // Before the series starts contributes nothing.
  EXPECT_DOUBLE_EQ(s.integrate(-2.0, 0.0), 0.0);
}

TEST(StepSeries, MaxValue) {
  StepSeries s;
  EXPECT_DOUBLE_EQ(s.maxValue(), 0.0);
  s.add(0.0, 3.0);
  s.add(1.0, 7.0);
  s.add(2.0, 1.0);
  EXPECT_DOUBLE_EQ(s.maxValue(), 7.0);
}


TEST(StepSeries, ResampleMaxKeepsShortBursts) {
  StepSeries s;
  s.add(0.0, 1.0);
  s.add(5.3, 100.0);   // a 0.01-long burst off the sampling grid...
  s.add(5.31, 1.0);
  s.add(10.0, 0.0);
  // ...invisible to point sampling on a coarse grid, visible to max.
  const auto pts = s.resample(0.0, 10.0, 11);
  const auto maxed = s.resampleMax(0.0, 10.0, 11);
  double point_peak = 0.0;
  double max_peak = 0.0;
  for (const auto& [t, v] : pts) point_peak = std::max(point_peak, v);
  for (const auto& [t, v] : maxed) max_peak = std::max(max_peak, v);
  EXPECT_LT(point_peak, 100.0);
  EXPECT_DOUBLE_EQ(max_peak, 100.0);
}

TEST(StepSeries, ResampleMaxMatchesResampleOnSmoothSeries) {
  StepSeries s;
  s.add(0.0, 2.0);
  s.add(10.0, 2.0);
  const auto maxed = s.resampleMax(0.0, 10.0, 5);
  for (const auto& [t, v] : maxed) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(StepSeries, ResampleUniformGrid) {
  StepSeries s;
  s.add(0.0, 1.0);
  s.add(5.0, 2.0);
  const auto grid = s.resample(0.0, 10.0, 11);
  ASSERT_EQ(grid.size(), 11u);
  EXPECT_DOUBLE_EQ(grid[0].second, 1.0);
  EXPECT_DOUBLE_EQ(grid[4].second, 1.0);
  EXPECT_DOUBLE_EQ(grid[5].second, 2.0);
  EXPECT_DOUBLE_EQ(grid[10].second, 2.0);
}

}  // namespace
}  // namespace iobts
