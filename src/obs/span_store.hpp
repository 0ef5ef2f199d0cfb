// Bounded deterministic span collector.
//
// Producers (proxies, storage nodes, the RM, the replicator) open and close
// spans against the store; when a trace's root ends, the whole trace moves
// into a bounded completed ring that exporters and the critical-path
// analyzer read. Rare events no span records (crashes, suspicions, drops,
// AM decisions) are kept beside the traces as instant events. Design rules:
//
//  * Sampling is per trace kind: "every Nth trace", decided by the
//    monotonically assigned trace id, so it is deterministic for a
//    deterministic run and independent of wall time.
//  * Everything is off by default. An unsampled operation gets a zero
//    `SpanContext` and every subsequent call on it is a cheap no-op.
//  * Bounded everywhere, never silently: a hard cap on spans held by live
//    traces (`obs.spans_dropped` counts refused opens) and a cap on
//    completed traces (`obs.traces_evicted` counts ring evictions). Instant
//    events keep one ring per category under the same completed cap, each
//    with its own eviction count, so a frequent category (message drops)
//    never evicts a rare one (crashes).
//  * Late closes tolerated: once a trace ends (its open spans force-closed
//    at the trace end), a straggler reply's close is a no-op.
//  * Deterministic storage: live traces in an ordered map keyed by trace
//    id, completed traces and instants in arrival order.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/histogram.hpp"
#include "util/time.hpp"

namespace qopt::obs {

/// A finished trace: `spans[i]` has span_id i+1; `spans[0]` is the root.
struct CompletedTrace {
  TraceKind kind = TraceKind::kRead;
  std::uint64_t trace_id = 0;
  std::vector<Span> spans;
  std::uint32_t forced_closes = 0;  // spans still open when the trace ended
};

class SpanStore {
 public:
  /// The store counts in `registry`, which must outlive it:
  /// `obs.spans_dropped`, `obs.traces_completed`, `obs.traces_evicted` and
  /// `obs.spans_forced_closed`, plus a per-phase duration histogram
  /// (`obs.phase.<phase>_ns`) recorded on every span close.
  explicit SpanStore(MetricRegistry& registry);

  // ------------------------------------------------------------- sampling
  /// 0 disables the kind (default); N samples every Nth trace, decided by
  /// the trace id (`id % N == 0`), so same seed => same sampled set.
  void set_sampling(TraceKind kind, std::uint32_t every_nth);
  std::uint32_t sampling(TraceKind kind) const noexcept;
  void enable_all(std::uint32_t every_nth = 1);
  void disable_all();
  /// True when any kind samples (cheap "is the layer on at all" test).
  bool active() const noexcept { return active_; }

  // --------------------------------------------------------------- bounds
  /// `max_live_spans` caps spans held by not-yet-ended traces (opens beyond
  /// it are refused and counted); `max_completed` caps the finished ring
  /// (oldest evicted and counted) and each instant-event ring.
  void set_limits(std::size_t max_live_spans, std::size_t max_completed);

  // ------------------------------------------------------------ recording
  /// Opens a trace root. Returns a zero context when the kind is not
  /// sampled or the live-span cap is hit.
  SpanContext start_trace(TraceKind kind, std::string_view name,
                          std::string_view node, Time at);
  /// Opens a child span. No-op (zero return) on an invalid parent, an
  /// already-ended trace, or when the live-span cap is hit.
  SpanContext open_span(SpanContext parent, Phase phase, std::string_view name,
                        std::string_view node, Time at);
  /// Closes a span, attaching annotations. No-op on an invalid context, an
  /// ended trace, or an already-closed span (late storage replies).
  void close_span(SpanContext span, Time at, std::uint64_t a = 0,
                  std::uint64_t b = 0);
  /// Ends a trace: force-closes every still-open span at `at` (so completed
  /// traces are always balanced) and moves it to the completed ring.
  void end_trace(SpanContext root, Time at);
  /// Records a zero-duration event in `category`'s ring. No-op unless
  /// active(): the sampling switch turns instants on and off with spans.
  void instant(Category category, std::string_view name, std::string_view node,
               Time at, std::uint64_t a = 0, std::uint64_t b = 0,
               std::string_view detail = {});

  // ----------------------------------------------------------- inspection
  const std::deque<CompletedTrace>& completed() const noexcept {
    return completed_;
  }
  /// Buffered instants of one category, oldest first.
  const std::deque<Instant>& instants(Category category) const noexcept {
    return instants_[static_cast<std::size_t>(category)];
  }
  /// Instants of `category` pushed out of its full ring.
  std::uint64_t instants_evicted(Category category) const noexcept {
    return instants_evicted_[static_cast<std::size_t>(category)];
  }
  std::size_t live_traces() const noexcept { return live_.size(); }
  std::size_t live_spans() const noexcept { return live_spans_; }
  std::uint64_t traces_completed() const noexcept {
    return completed_counter_->value();
  }
  std::uint64_t traces_evicted() const noexcept {
    return evicted_counter_->value();
  }
  std::uint64_t spans_dropped() const noexcept {
    return dropped_counter_->value();
  }
  std::uint64_t spans_forced_closed() const noexcept {
    return forced_counter_->value();
  }

  /// Drops all live and completed traces and buffered instants (sampling
  /// config and counters survive).
  void clear();

 private:
  struct LiveTrace {
    TraceKind kind = TraceKind::kRead;
    std::vector<Span> spans;
  };

  // Ordered by trace id: exports and diagnostics enumerate
  // deterministically.
  std::map<std::uint64_t, LiveTrace> live_;
  std::deque<CompletedTrace> completed_;
  std::array<std::deque<Instant>, kNumCategories> instants_;
  std::array<std::uint64_t, kNumCategories> instants_evicted_{};
  std::uint64_t next_trace_id_ = 1;
  std::array<std::uint32_t, kNumTraceKinds> every_{};  // 0 = off
  bool active_ = false;

  std::size_t max_live_spans_ = 8192;
  std::size_t max_completed_ = 4096;
  std::size_t live_spans_ = 0;

  // The store's counters, owned by the registry.
  Counter* dropped_counter_ = nullptr;
  Counter* completed_counter_ = nullptr;
  Counter* evicted_counter_ = nullptr;
  Counter* forced_counter_ = nullptr;
  std::array<LatencyHistogram*, kNumPhases> phase_hist_{};

  void note_closed(const Span& span);
};

}  // namespace qopt::obs
