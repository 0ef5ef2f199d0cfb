#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace qopt {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() noexcept { *this = RunningStats{}; }

double RunningStats::variance() const noexcept {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

MovingAverage::MovingAverage(std::size_t window)
    : window_(window ? window : 1) {}

void MovingAverage::add(double x) {
  samples_.push_back(x);
  sum_ += x;
  if (samples_.size() > window_) {
    sum_ -= samples_.front();
    samples_.pop_front();
  }
}

double MovingAverage::mean() const noexcept {
  return samples_.empty() ? 0.0
                          : sum_ / static_cast<double>(samples_.size());
}

void MovingAverage::reset() {
  samples_.clear();
  sum_ = 0.0;
}

double exact_percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double clamped = std::clamp(pct, 0.0, 100.0);
  const double rank =
      clamped / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace qopt
