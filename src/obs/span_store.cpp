#include "obs/span_store.hpp"

#include <string>
#include <utility>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/histogram.hpp"
#include "util/time.hpp"

namespace qopt::obs {

SpanStore::SpanStore(MetricRegistry& registry)
    : dropped_counter_(&registry.counter("obs.spans_dropped")),
      completed_counter_(&registry.counter("obs.traces_completed")),
      evicted_counter_(&registry.counter("obs.traces_evicted")),
      forced_counter_(&registry.counter("obs.spans_forced_closed")) {
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    const std::string name =
        std::string("obs.phase.") + to_string(static_cast<Phase>(p)) + "_ns";
    phase_hist_[p] = &registry.histogram(name);
  }
}

void SpanStore::set_sampling(TraceKind kind, std::uint32_t every_nth) {
  every_[static_cast<std::size_t>(kind)] = every_nth;
  active_ = false;
  for (const std::uint32_t every : every_) active_ |= every != 0;
}

std::uint32_t SpanStore::sampling(TraceKind kind) const noexcept {
  return every_[static_cast<std::size_t>(kind)];
}

void SpanStore::enable_all(std::uint32_t every_nth) {
  every_.fill(every_nth);
  active_ = every_nth != 0;
}

void SpanStore::disable_all() {
  every_.fill(0);
  active_ = false;
}

void SpanStore::set_limits(std::size_t max_live_spans,
                           std::size_t max_completed) {
  max_live_spans_ = max_live_spans;
  max_completed_ = max_completed;
}

SpanContext SpanStore::start_trace(TraceKind kind, std::string_view name,
                                   std::string_view node, Time at) {
  const std::uint32_t every = every_[static_cast<std::size_t>(kind)];
  if (every == 0) return {};
  const std::uint64_t id = next_trace_id_++;
  if (id % every != 0) return {};
  if (live_spans_ >= max_live_spans_) {
    dropped_counter_->inc();
    return {};
  }
  LiveTrace trace;
  trace.kind = kind;
  Span root;
  root.trace_id = id;
  root.span_id = 1;
  root.parent_id = 0;
  root.phase = Phase::kOp;
  root.name = name;
  root.node = node;
  root.start = at;
  root.end = at;
  trace.spans.push_back(std::move(root));
  live_.emplace(id, std::move(trace));
  ++live_spans_;
  return SpanContext{id, 1};
}

SpanContext SpanStore::open_span(SpanContext parent, Phase phase,
                                 std::string_view name, std::string_view node,
                                 Time at) {
  if (!parent.valid()) return {};
  const auto it = live_.find(parent.trace_id);
  if (it == live_.end()) return {};  // trace already ended
  LiveTrace& trace = it->second;
  if (parent.span_id == 0 || parent.span_id > trace.spans.size()) return {};
  if (live_spans_ >= max_live_spans_) {
    dropped_counter_->inc();
    return {};
  }
  Span span;
  span.trace_id = parent.trace_id;
  span.span_id = static_cast<std::uint32_t>(trace.spans.size() + 1);
  span.parent_id = parent.span_id;
  span.phase = phase;
  span.name = name;
  span.node = node;
  span.start = at;
  span.end = at;
  trace.spans.push_back(std::move(span));
  ++live_spans_;
  return SpanContext{parent.trace_id, trace.spans.back().span_id};
}

void SpanStore::close_span(SpanContext span, Time at, std::uint64_t a,
                           std::uint64_t b) {
  if (!span.valid()) return;
  const auto it = live_.find(span.trace_id);
  if (it == live_.end()) return;  // late close after end_trace
  LiveTrace& trace = it->second;
  if (span.span_id == 0 || span.span_id > trace.spans.size()) return;
  Span& target = trace.spans[span.span_id - 1];
  if (!target.open) return;
  target.open = false;
  target.end = at >= target.start ? at : target.start;
  target.a = a;
  target.b = b;
  note_closed(target);
}

void SpanStore::note_closed(const Span& span) {
  phase_hist_[static_cast<std::size_t>(span.phase)]->record(
      static_cast<double>(span.duration()));
}

void SpanStore::end_trace(SpanContext root, Time at) {
  if (!root.valid()) return;
  const auto it = live_.find(root.trace_id);
  if (it == live_.end()) return;
  LiveTrace& trace = it->second;

  CompletedTrace done;
  done.kind = trace.kind;
  done.trace_id = root.trace_id;
  // Balance guarantee: whatever is still open (straggler RPCs, the armed
  // fallback window, the root itself) closes at the trace end.
  for (Span& span : trace.spans) {
    if (!span.open) continue;
    span.open = false;
    span.end = at >= span.start ? at : span.start;
    if (span.span_id != 1) {
      ++done.forced_closes;
      forced_counter_->inc();
    }
    note_closed(span);
  }
  live_spans_ -= trace.spans.size();
  done.spans = std::move(trace.spans);
  live_.erase(it);

  completed_.push_back(std::move(done));
  completed_counter_->inc();
  while (completed_.size() > max_completed_) {
    completed_.pop_front();
    evicted_counter_->inc();
  }
}

void SpanStore::instant(Category category, std::string_view name,
                        std::string_view node, Time at, std::uint64_t a,
                        std::uint64_t b, std::string_view detail) {
  if (!active_) return;
  const auto c = static_cast<std::size_t>(category);
  std::deque<Instant>& ring = instants_[c];
  ring.push_back(Instant{at, std::string(name), std::string(node), a, b,
                         std::string(detail)});
  while (ring.size() > max_completed_) {
    ring.pop_front();
    ++instants_evicted_[c];
  }
}

void SpanStore::clear() {
  live_.clear();
  completed_.clear();
  for (std::deque<Instant>& ring : instants_) ring.clear();
  live_spans_ = 0;
}

}  // namespace qopt::obs
