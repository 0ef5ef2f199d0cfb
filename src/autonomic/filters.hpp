// Robust signal-processing components for the autonomic loop.
//
// Section 4 of the paper: "the system may be made more robust by
// introducing techniques to filter out outliers [20], detect statistically
// relevant shifts of system's metrics [32], or predict future workload
// trends [22]". This module provides the first two, which the Autonomic
// Manager uses:
//
//  * OutlierFilter   — Hampel-style rejector: samples further than
//    `threshold` scaled MADs from the rolling median are replaced by the
//    median (momentary spikes never reach the optimizer);
//  * ShiftDetector   — two-sided Page-Hinkley test: flags a statistically
//    sustained change of the monitored metric's mean, far more robust than
//    a single-sample threshold.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

namespace qopt::autonomic {

class OutlierFilter {
 public:
  /// `window` is the rolling window size; `threshold` the number of scaled
  /// median-absolute-deviations beyond which a sample is an outlier. The
  /// defaults give a <1% false-positive rate on uniform noise (the worst
  /// case for a MAD estimate) while still catching 3x spikes.
  explicit OutlierFilter(std::size_t window = 15, double threshold = 4.0);

  /// Feeds one sample; returns the filtered value (the sample itself, or
  /// the rolling median if the sample is an outlier).
  double filter(double sample);

  /// Whether the most recent call to filter() rejected its sample.
  bool last_was_outlier() const noexcept { return last_was_outlier_; }
  std::size_t outliers_rejected() const noexcept { return rejected_; }
  void reset();

 private:
  double rolling_median() const;
  double rolling_mad(double median) const;

  std::size_t window_;
  double threshold_;
  std::deque<double> samples_;
  bool last_was_outlier_ = false;
  std::size_t rejected_ = 0;
  std::size_t consecutive_rejects_ = 0;
};

class ShiftDetector {
 public:
  /// `delta` is the magnitude of drift considered negligible (as a fraction
  /// of the running mean); `lambda` the detection threshold (same units).
  /// Larger lambda = fewer false alarms, slower detection.
  explicit ShiftDetector(double delta = 0.05, double lambda = 0.5);

  /// Feeds one sample; returns true when a sustained shift (up or down) is
  /// detected. Detection resets the statistic (ready to detect the next
  /// shift).
  bool update(double sample);

  std::size_t shifts_detected() const noexcept { return shifts_; }
  double running_mean() const noexcept { return mean_; }
  void reset();

 private:
  double delta_;
  double lambda_;
  double mean_ = 0;
  std::size_t count_ = 0;
  double cum_up_ = 0;    // cumulative deviation statistic, upward
  double cum_down_ = 0;  // downward
  double min_up_ = 0;
  double max_down_ = 0;
  std::size_t shifts_ = 0;
};

}  // namespace qopt::autonomic
