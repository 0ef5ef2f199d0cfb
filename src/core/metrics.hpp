// Experiment metrics: end-to-end operation latencies and a bucketed
// throughput timeline (used for adaptation traces and all benchmark
// harnesses).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "proxy/proxy.hpp"
#include "util/histogram.hpp"
#include "util/time.hpp"

namespace qopt {

class Metrics {
 public:
  struct Bucket {
    std::uint64_t ops = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
  };

  explicit Metrics(Duration bucket_width = milliseconds(100));

  void record(const proxy::OpRecord& record);
  void reset();
  /// Sizes the throughput timeline for completions up to `end`, so that
  /// recording them never grows it (Cluster::run_for reserves its horizon).
  void reserve_until(Time end) {
    buckets_.reserve(static_cast<std::size_t>(end / bucket_width_) + 1);
  }

  std::uint64_t total_ops() const noexcept { return total_ops_; }
  std::uint64_t total_reads() const noexcept { return total_reads_; }
  std::uint64_t total_writes() const noexcept { return total_writes_; }

  const LatencyHistogram& read_latency() const noexcept { return read_lat_; }
  const LatencyHistogram& write_latency() const noexcept {
    return write_lat_;
  }

  /// Completed operations in [t0, t1), resolved to bucket granularity.
  std::uint64_t ops_between(Time t0, Time t1) const;
  std::uint64_t reads_between(Time t0, Time t1) const;
  std::uint64_t writes_between(Time t0, Time t1) const;

  /// Throughput (ops/s) over [t0, t1).
  double throughput(Time t0, Time t1) const;

  Duration bucket_width() const noexcept { return bucket_width_; }
  const std::vector<Bucket>& buckets() const noexcept { return buckets_; }

 private:
  template <typename F>
  std::uint64_t sum_between(Time t0, Time t1, F pick) const {
    if (t1 <= t0 || buckets_.empty()) return 0;
    const auto first =
        static_cast<std::size_t>(std::max<Time>(t0, 0) / bucket_width_);
    const auto last =
        static_cast<std::size_t>(std::max<Time>(t1 - 1, 0) / bucket_width_);
    std::uint64_t total = 0;
    for (std::size_t i = first; i <= last && i < buckets_.size(); ++i) {
      total += pick(buckets_[i]);
    }
    return total;
  }

  Duration bucket_width_;
  std::vector<Bucket> buckets_;
  std::uint64_t total_ops_ = 0;
  std::uint64_t total_reads_ = 0;
  std::uint64_t total_writes_ = 0;
  LatencyHistogram read_lat_;
  LatencyHistogram write_lat_;
};

}  // namespace qopt
