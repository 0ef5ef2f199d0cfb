// Small online-statistics toolkit used by metrics collection, the autonomic
// manager's KPI tracking, and the benchmark harnesses.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

namespace qopt {

/// Numerically stable streaming mean/variance (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept;

  std::size_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;  // population variance
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Simple moving average over the most recent `window` samples; used by the
/// Autonomic Manager to smooth throughput readings (the paper uses a 30 s
/// moving-average window).
class MovingAverage {
 public:
  explicit MovingAverage(std::size_t window);

  void add(double x);
  bool full() const noexcept { return samples_.size() == window_; }
  std::size_t size() const noexcept { return samples_.size(); }
  double mean() const noexcept;
  void reset();

 private:
  std::size_t window_;
  std::deque<double> samples_;
  double sum_ = 0.0;
};

/// Exact percentile over a materialized vector (benchmark post-processing).
double exact_percentile(std::vector<double> values, double pct);

}  // namespace qopt
