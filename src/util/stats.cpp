#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace iobts {

void RunningStats::add(double x) noexcept {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void StepSeries::add(double t, double value) {
  IOBTS_CHECK(points_.empty() || t >= points_.back().first,
              "StepSeries samples must be time-ordered");
  if (!points_.empty() && points_.back().first == t) {
    points_.back().second = value;  // same instant: last write wins
    return;
  }
  points_.emplace_back(t, value);
}

double StepSeries::at(double t) const noexcept {
  if (points_.empty() || t < points_.front().first) return 0.0;
  // Last sample with time <= t.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](double lhs, const std::pair<double, double>& rhs) {
        return lhs < rhs.first;
      });
  return std::prev(it)->second;
}

double StepSeries::integrate(double t0, double t1) const noexcept {
  if (points_.empty() || t1 <= t0) return 0.0;
  double area = 0.0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const double seg_start = points_[i].first;
    const double seg_end =
        (i + 1 < points_.size()) ? points_[i + 1].first : t1;
    const double a = std::max(seg_start, t0);
    const double b = std::min(seg_end, t1);
    if (b > a) area += points_[i].second * (b - a);
  }
  return area;
}

double StepSeries::maxValue() const noexcept {
  double best = 0.0;
  for (const auto& [t, v] : points_) {
    (void)t;
    best = std::max(best, v);
  }
  return best;
}

std::vector<std::pair<double, double>> StepSeries::resample(
    double t0, double t1, std::size_t n) const {
  IOBTS_CHECK(n >= 2, "resample needs at least two points");
  IOBTS_CHECK(t1 > t0, "resample window must be non-empty");
  std::vector<std::pair<double, double>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t =
        t0 + (t1 - t0) * static_cast<double>(i) / static_cast<double>(n - 1);
    out.emplace_back(t, at(t));
  }
  return out;
}

std::vector<std::pair<double, double>> StepSeries::resampleMax(
    double t0, double t1, std::size_t n) const {
  IOBTS_CHECK(n >= 2, "resample needs at least two points");
  IOBTS_CHECK(t1 > t0, "resample window must be non-empty");
  std::vector<std::pair<double, double>> out;
  out.reserve(n);
  const double bin = (t1 - t0) / static_cast<double>(n - 1);
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = t0 + bin * (static_cast<double>(i) - 0.5);
    const double hi = lo + bin;
    // Value entering the bin plus every sample inside it.
    double value = at(lo);
    while (cursor < points_.size() && points_[cursor].first < lo) ++cursor;
    for (std::size_t k = cursor; k < points_.size() && points_[k].first < hi;
         ++k) {
      value = std::max(value, points_[k].second);
    }
    out.emplace_back(t0 + bin * static_cast<double>(i), value);
  }
  return out;
}

}  // namespace iobts
