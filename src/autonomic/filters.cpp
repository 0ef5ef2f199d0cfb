#include "autonomic/filters.hpp"

#include <algorithm>
#include <cmath>

namespace qopt::autonomic {

// ----------------------------------------------------------- OutlierFilter

OutlierFilter::OutlierFilter(std::size_t window, double threshold)
    : window_(window < 3 ? 3 : window), threshold_(threshold) {}

double OutlierFilter::rolling_median() const {
  std::vector<double> sorted(samples_.begin(), samples_.end());
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  return sorted[sorted.size() / 2];
}

double OutlierFilter::rolling_mad(double median) const {
  std::vector<double> deviations;
  deviations.reserve(samples_.size());
  for (double s : samples_) deviations.push_back(std::abs(s - median));
  std::nth_element(deviations.begin(),
                   deviations.begin() + deviations.size() / 2,
                   deviations.end());
  // 1.4826 scales MAD to the stddev of a normal distribution.
  return 1.4826 * deviations[deviations.size() / 2];
}

double OutlierFilter::filter(double sample) {
  last_was_outlier_ = false;
  // Rejection requires a full window: small warm-up windows have unstable
  // MADs and would reject legitimate samples.
  if (samples_.size() >= window_ && consecutive_rejects_ < window_) {
    const double median = rolling_median();
    const double mad = rolling_mad(median);
    // Guard against a degenerate zero-MAD window (constant history): treat
    // any deviation beyond a small relative epsilon as an outlier there.
    const double scale =
        mad > 0 ? mad : std::max(1e-9, std::abs(median) * 1e-3);
    if (std::abs(sample - median) > threshold_ * scale) {
      last_was_outlier_ = true;
      ++rejected_;
      ++consecutive_rejects_;
      // The outlier is excluded from the window so a burst of spikes cannot
      // drag the median toward itself. The consecutive-rejection cap above
      // is the safety valve: a window-long run of "outliers" is a genuine
      // regime change and must pass through.
      return median;
    }
  }
  consecutive_rejects_ = 0;
  samples_.push_back(sample);
  if (samples_.size() > window_) samples_.pop_front();
  return sample;
}

void OutlierFilter::reset() {
  samples_.clear();
  last_was_outlier_ = false;
  rejected_ = 0;
  consecutive_rejects_ = 0;
}

// ----------------------------------------------------------- ShiftDetector

ShiftDetector::ShiftDetector(double delta, double lambda)
    : delta_(delta), lambda_(lambda) {}

bool ShiftDetector::update(double sample) {
  ++count_;
  mean_ += (sample - mean_) / static_cast<double>(count_);
  const double scale = std::abs(mean_) > 1e-12 ? std::abs(mean_) : 1.0;
  const double normalized = (sample - mean_) / scale;

  // Two-sided Page-Hinkley statistics.
  cum_up_ += normalized - delta_;
  min_up_ = std::min(min_up_, cum_up_);
  cum_down_ += normalized + delta_;
  max_down_ = std::max(max_down_, cum_down_);

  const bool up = cum_up_ - min_up_ > lambda_;
  const bool down = max_down_ - cum_down_ > lambda_;
  if (up || down) {
    ++shifts_;
    // Restart the statistics around the new regime.
    mean_ = sample;
    count_ = 1;
    cum_up_ = cum_down_ = min_up_ = max_down_ = 0;
    return true;
  }
  return false;
}

void ShiftDetector::reset() {
  mean_ = 0;
  count_ = 0;
  cum_up_ = cum_down_ = min_up_ = max_down_ = 0;
}

}  // namespace qopt::autonomic
