// Causal span layer: SpanStore invariants, critical-path decomposition, and
// whole-cluster tracing determinism.
//
// The load-bearing guarantees under test:
//  * sampling is decided by trace id, so it is deterministic and exact;
//  * the live-span cap refuses opens loudly (obs.spans_dropped), never grows;
//  * every completed trace is balanced (end_trace force-closes stragglers);
//  * span ids are assigned in open order, so parentage is acyclic;
//  * the critical-path sweep attributes every nanosecond exactly once —
//    phase contributions sum to the root duration with no rounding slack;
//  * two same-seed runs export byte-identical Chrome / CSV traces.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/cluster.hpp"
#include "obs/critical_path.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/span_export.hpp"
#include "obs/span_store.hpp"
#include "util/histogram.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace qopt {
namespace {

using obs::CompletedTrace;
using obs::Phase;
using obs::SpanContext;
using obs::SpanStore;
using obs::TraceKind;

// ---------------------------------------------------------------- SpanStore

TEST(SpanStore, SamplesEveryNthTraceByTraceId) {
  obs::MetricRegistry registry;
  SpanStore store(registry);
  store.enable_all(3);
  std::set<std::uint64_t> sampled;
  for (int i = 0; i < 9; ++i) {
    const SpanContext root = store.start_trace(TraceKind::kRead, "op", "n", 0);
    if (root.valid()) sampled.insert(root.trace_id);
    store.end_trace(root, 1);
  }
  // Trace ids are assigned 1..9; exactly ids 3, 6, 9 satisfy id % 3 == 0.
  EXPECT_EQ(sampled, (std::set<std::uint64_t>{3, 6, 9}));
  EXPECT_EQ(store.traces_completed(), 3u);
}

TEST(SpanStore, DisabledKindCostsNothing) {
  obs::MetricRegistry registry;
  SpanStore store(registry);
  store.set_sampling(TraceKind::kWrite, 1);
  EXPECT_TRUE(store.active());
  const SpanContext read = store.start_trace(TraceKind::kRead, "op", "n", 0);
  EXPECT_FALSE(read.valid());
  // Every downstream call on the zero context is a no-op.
  const SpanContext child =
      store.open_span(read, Phase::kQuorumWait, "qw", "n", 0);
  EXPECT_FALSE(child.valid());
  store.close_span(child, 5);
  store.end_trace(read, 5);
  EXPECT_EQ(store.traces_completed(), 0u);
  store.disable_all();
  EXPECT_FALSE(store.active());
}

TEST(SpanStore, LiveCapRefusesOpensAndCountsDrops) {
  obs::MetricRegistry registry;
  SpanStore store(registry);
  store.enable_all(1);
  store.set_limits(/*max_live_spans=*/2, /*max_completed=*/16);
  const SpanContext root = store.start_trace(TraceKind::kRead, "op", "n", 0);
  ASSERT_TRUE(root.valid());
  const SpanContext first =
      store.open_span(root, Phase::kQuorumWait, "qw", "n", 1);
  ASSERT_TRUE(first.valid());  // 2 live spans: at the cap now
  const SpanContext refused =
      store.open_span(root, Phase::kReplicaRead, "rpc", "n", 1);
  EXPECT_FALSE(refused.valid());
  EXPECT_EQ(store.spans_dropped(), 1u);
  // A whole new trace is refused too (its root would exceed the cap).
  EXPECT_FALSE(store.start_trace(TraceKind::kWrite, "op", "n", 2).valid());
  EXPECT_EQ(store.spans_dropped(), 2u);
  // The registry is the only store of the count.
  EXPECT_EQ(registry.counter_value("obs.spans_dropped"), 2u);
  // Ending the trace frees the budget again.
  store.end_trace(root, 3);
  EXPECT_EQ(store.live_spans(), 0u);
  EXPECT_TRUE(store.start_trace(TraceKind::kWrite, "op", "n", 4).valid());
}

TEST(SpanStore, EndTraceForceClosesAndBalances) {
  obs::MetricRegistry registry;
  SpanStore store(registry);
  store.enable_all(1);
  const SpanContext root = store.start_trace(TraceKind::kWrite, "op", "n", 10);
  const SpanContext wait =
      store.open_span(root, Phase::kQuorumWait, "qw", "n", 12);
  const SpanContext rpc =
      store.open_span(wait, Phase::kReplicaWrite, "rpc", "n", 13);
  store.close_span(wait, 40, /*a=*/2, /*b=*/7);
  // `rpc` (a straggler reply) is never closed by the producer.
  store.end_trace(root, 50);

  ASSERT_EQ(store.completed().size(), 1u);
  const CompletedTrace& trace = store.completed().front();
  ASSERT_EQ(trace.spans.size(), 3u);
  for (const obs::Span& span : trace.spans) {
    EXPECT_FALSE(span.open);
    EXPECT_GE(span.end, span.start);
    EXPECT_LT(span.parent_id, span.span_id);  // acyclic by construction
  }
  // Root closes at trace end but does not count as a forced close; the
  // straggler RPC does.
  EXPECT_EQ(trace.forced_closes, 1u);
  EXPECT_EQ(store.spans_forced_closed(), 1u);
  EXPECT_EQ(trace.spans[0].end, 50);
  EXPECT_EQ(trace.spans[2].end, 50);
  // Annotations from the explicit close survive.
  EXPECT_EQ(trace.spans[1].a, 2u);
  EXPECT_EQ(trace.spans[1].b, 7u);
  // Late closes against the ended trace are no-ops.
  store.close_span(rpc, 60);
  EXPECT_EQ(store.completed().front().spans[2].end, 50);
}

TEST(SpanStore, CompletedRingEvictsOldest) {
  obs::MetricRegistry registry;
  SpanStore store(registry);
  store.enable_all(1);
  store.set_limits(64, /*max_completed=*/2);
  for (int i = 0; i < 5; ++i) {
    const SpanContext root = store.start_trace(TraceKind::kRead, "op", "n", i);
    store.end_trace(root, i + 1);
  }
  EXPECT_EQ(store.completed().size(), 2u);
  EXPECT_EQ(store.traces_evicted(), 3u);
  EXPECT_EQ(store.completed().front().trace_id, 4u);
}

// ------------------------------------------------------------ critical path

TEST(CriticalPath, DeepestSpanWinsAndPhasesSumExactly) {
  obs::MetricRegistry registry;
  SpanStore store(registry);
  store.enable_all(1);
  // root [0,100] -> quorum_wait [10,60] -> replica_read [20,40].
  const SpanContext root = store.start_trace(TraceKind::kRead, "op", "p", 0);
  const SpanContext wait =
      store.open_span(root, Phase::kQuorumWait, "qw", "p", 10);
  const SpanContext rpc =
      store.open_span(wait, Phase::kReplicaRead, "rpc", "p", 20);
  store.close_span(rpc, 40);
  store.close_span(wait, 60);
  store.end_trace(root, 100);

  const obs::TraceBreakdown breakdown =
      obs::critical_path(store.completed().front());
  EXPECT_EQ(breakdown.total, 100);
  EXPECT_EQ(breakdown.phase(Phase::kOp), 50);          // [0,10) + [60,100)
  EXPECT_EQ(breakdown.phase(Phase::kQuorumWait), 30);  // [10,20) + [40,60)
  EXPECT_EQ(breakdown.phase(Phase::kReplicaRead), 20);
  EXPECT_EQ(breakdown.phase_sum(), breakdown.total);
  EXPECT_FALSE(to_string(breakdown).empty());
}

TEST(CriticalPath, StragglerComesFromSlowestQuorumWait) {
  obs::MetricRegistry registry;
  SpanStore store(registry);
  store.enable_all(1);
  const SpanContext root = store.start_trace(TraceKind::kRead, "op", "p", 0);
  const SpanContext first =
      store.open_span(root, Phase::kQuorumWait, "qw", "p", 0);
  store.close_span(first, 30, /*a=*/1, /*b=*/5);
  const SpanContext repair =
      store.open_span(root, Phase::kReadRepair, "rr", "p", 30);
  store.close_span(repair, 90, /*a=*/4, /*b=*/25);
  store.end_trace(root, 95);

  const obs::TraceBreakdown breakdown =
      obs::critical_path(store.completed().front());
  EXPECT_TRUE(breakdown.has_straggler);
  EXPECT_EQ(breakdown.straggler_replica, 1u);
  EXPECT_EQ(breakdown.straggler_excess, 5);
  EXPECT_EQ(breakdown.phase_sum(), breakdown.total);
}

// ------------------------------------------------------- cluster-level runs

ClusterConfig traced_config(std::uint32_t sample_every) {
  ClusterConfig config;
  config.num_storage = 6;
  config.num_proxies = 2;
  config.clients_per_proxy = 3;
  config.replication = 5;
  config.initial_quorum = {2, 4};
  config.seed = 7;
  config.span_sample_every = sample_every;
  return config;
}

TEST(ClusterTracing, EveryCompletedTraceIsBalancedAcyclicAndExact) {
  Cluster cluster(traced_config(1));
  cluster.preload(300, 2048);
  cluster.set_workload(workload::ycsb_a(300));
  cluster.run_for(seconds(5));

  const SpanStore& store = cluster.obs().spans();
  ASSERT_GT(store.traces_completed(), 0u);
  bool saw_quorum_wait = false;
  bool saw_storage = false;
  for (const CompletedTrace& trace : store.completed()) {
    for (const obs::Span& span : trace.spans) {
      EXPECT_FALSE(span.open);
      EXPECT_LT(span.parent_id, span.span_id);
      EXPECT_GE(span.end, span.start);
      saw_quorum_wait |= span.phase == Phase::kQuorumWait;
      saw_storage |= span.phase == Phase::kStorageRead ||
                     span.phase == Phase::kStorageWrite;
    }
    const obs::TraceBreakdown breakdown = obs::critical_path(trace);
    EXPECT_EQ(breakdown.phase_sum(), breakdown.total)
        << "trace " << trace.trace_id;
  }
  EXPECT_TRUE(saw_quorum_wait);
  EXPECT_TRUE(saw_storage);  // wire propagation reached the storage nodes
  // Registry mirrors are live.
  const obs::MetricRegistry& reg = cluster.obs().registry();
  EXPECT_EQ(reg.counter_value("obs.traces_completed"),
            store.traces_completed());
  const LatencyHistogram* hist =
      reg.find_histogram("obs.phase.quorum_wait_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_GT(hist->count(), 0u);
  // The cluster report surfaces the totals.
  const obs::RunReport report = cluster.report(0, cluster.now());
  EXPECT_EQ(report.traces_completed, store.traces_completed());
}

TEST(ClusterTracing, SamplingReducesTraceCountDeterministically) {
  Cluster full(traced_config(1));
  full.preload(300, 2048);
  full.set_workload(workload::ycsb_a(300));
  full.run_for(seconds(5));

  Cluster sampled(traced_config(4));
  sampled.preload(300, 2048);
  sampled.set_workload(workload::ycsb_a(300));
  sampled.run_for(seconds(5));

  EXPECT_GT(full.obs().spans().traces_completed(),
            sampled.obs().spans().traces_completed());
  EXPECT_GT(sampled.obs().spans().traces_completed(), 0u);
}

std::string chrome_export(std::uint32_t sample_every) {
  Cluster cluster(traced_config(sample_every));
  cluster.preload(300, 2048);
  cluster.set_workload(workload::ycsb_a(300));
  cluster.run_for(seconds(5));
  return obs::to_chrome_json(cluster.obs().spans());
}

std::string csv_export(std::uint32_t sample_every) {
  Cluster cluster(traced_config(sample_every));
  cluster.preload(300, 2048);
  cluster.set_workload(workload::ycsb_a(300));
  cluster.run_for(seconds(5));
  return obs::to_span_csv(cluster.obs().spans().completed());
}

TEST(ClusterTracing, SameSeedByteIdenticalExports) {
  EXPECT_EQ(chrome_export(1), chrome_export(1));
  EXPECT_EQ(csv_export(1), csv_export(1));
  EXPECT_EQ(csv_export(4), csv_export(4));
}

TEST(ClusterTracing, ReconfigurationProducesAnnotatedRoundTrace) {
  Cluster cluster(traced_config(1));
  cluster.preload(300, 2048);
  cluster.set_workload(workload::ycsb_a(300));
  cluster.run_for(seconds(2));
  cluster.reconfigure({4, 2});
  cluster.run_for(seconds(3));

  bool saw_reconfig = false;
  bool saw_newq = false;
  bool saw_drain = false;
  for (const CompletedTrace& trace : cluster.obs().spans().completed()) {
    if (trace.kind != TraceKind::kReconfig) continue;
    saw_reconfig = true;
    for (const obs::Span& span : trace.spans) {
      saw_newq |= span.phase == Phase::kRmNewq;
      // Proxy drain spans parent under the RM's NEWQ phase via the wire
      // context — cross-node causality in one trace.
      saw_drain |= span.phase == Phase::kProxyDrain;
    }
  }
  EXPECT_TRUE(saw_reconfig);
  EXPECT_TRUE(saw_newq);
  EXPECT_TRUE(saw_drain);
}

}  // namespace
}  // namespace qopt
