// Observability bundle: one MetricRegistry + one SpanStore + one engine
// profiler, shared by every component of a deployment. `qopt::Cluster` owns
// one and threads it through the network, proxies, storage nodes, RM and AM;
// stand-alone component tests construct their own and pass a pointer.
#pragma once

#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/span_store.hpp"

namespace qopt::obs {

class Observability {
 public:
  MetricRegistry& registry() noexcept { return registry_; }
  const MetricRegistry& registry() const noexcept { return registry_; }
  SpanStore& spans() noexcept { return spans_; }
  const SpanStore& spans() const noexcept { return spans_; }
  /// Engine self-profiler (off until enabled; see docs/OBSERVABILITY.md).
  EngineProfiler& profiler() noexcept { return profiler_; }
  const EngineProfiler& profiler() const noexcept { return profiler_; }

 private:
  // Registry first: the span store mirrors its counters there.
  MetricRegistry registry_;
  SpanStore spans_{&registry_};
  EngineProfiler profiler_;
};

}  // namespace qopt::obs
