// Online and batch statistics.
//
// RunningStats  -- Welford mean/variance/min/max, O(1) memory.
// StepSeries    -- (t, value) samples; supports step-function integration and
//                  resampling, used for the bandwidth-vs-time figures.
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace iobts {

/// Welford online accumulator for mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 for < 2 samples).
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

  /// Merge another accumulator (parallel Welford / Chan et al.).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Piecewise-constant time series: value holds from sample i until sample
/// i+1. Used for B_r / T / B_L step functions.
class StepSeries {
 public:
  void add(double t, double value);
  std::size_t size() const noexcept { return points_.size(); }
  bool empty() const noexcept { return points_.empty(); }
  const std::vector<std::pair<double, double>>& points() const noexcept {
    return points_;
  }

  /// Value at time t (0 before the first sample).
  double at(double t) const noexcept;

  /// Integral of the step function over [t0, t1].
  double integrate(double t0, double t1) const noexcept;

  /// Maximum sampled value (0 if empty).
  double maxValue() const noexcept;

  /// Resample onto a uniform grid of n points spanning [t0, t1].
  std::vector<std::pair<double, double>> resample(double t0, double t1,
                                                  std::size_t n) const;

  /// Like resample, but each grid point carries the *maximum* value attained
  /// in its bin -- keeps short bursts visible on coarse grids.
  std::vector<std::pair<double, double>> resampleMax(double t0, double t1,
                                                     std::size_t n) const;

 private:
  std::vector<std::pair<double, double>> points_;  // sorted by construction
};

}  // namespace iobts
