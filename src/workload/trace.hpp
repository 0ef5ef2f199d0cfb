// Workload trace capture and replay.
//
// Records the operation stream a generator (or a production system) emits
// and replays it later — the standard methodology for benchmarking against
// captured traces (e.g. the Dropbox traces of [14]) and for reproducing a
// problematic workload exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace qopt::workload {

struct TraceEntry {
  Time at = 0;  // virtual time the operation was issued
  Operation op;
};

/// Decorator: passes through an inner source while recording every emitted
/// operation with its issue time.
class RecordingSource final : public OperationSource {
 public:
  explicit RecordingSource(std::shared_ptr<OperationSource> inner);

  Operation next(Rng& rng, Time now) override;
  std::string describe() const override;

  const std::vector<TraceEntry>& trace() const noexcept { return trace_; }

 private:
  std::shared_ptr<OperationSource> inner_;
  std::vector<TraceEntry> trace_;
};

/// Replays a recorded trace in order. With `loop` set the trace wraps
/// around once exhausted; otherwise the final operation repeats (keeping
/// closed-loop clients well defined).
class TraceSource final : public OperationSource {
 public:
  explicit TraceSource(std::vector<TraceEntry> trace, bool loop = true);

  Operation next(Rng& rng, Time now) override;
  std::string describe() const override;

  std::size_t position() const noexcept { return position_; }
  std::size_t size() const noexcept { return trace_.size(); }

 private:
  std::vector<TraceEntry> trace_;
  bool loop_;
  std::size_t position_ = 0;
};

/// CSV persistence (at_ns,oid,is_write,size_bytes).
void save_trace(const std::string& path,
                const std::vector<TraceEntry>& trace);
std::vector<TraceEntry> load_trace(const std::string& path);

}  // namespace qopt::workload
