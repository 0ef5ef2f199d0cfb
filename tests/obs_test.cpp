// Unit tests for the observability layer (src/obs): registry snapshot and
// delta semantics, export determinism, per-category instant-event rings, and
// the end-to-end same-seed guarantee — byte-identical trace and RunReport
// JSON.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/cluster.hpp"
#include "obs/obs.hpp"
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

// ---------------------------------------------------------------- registry

TEST(MetricRegistryTest, FindOrCreateReturnsStableReferences) {
  obs::MetricRegistry reg;
  obs::Counter& c1 = reg.counter("proxy.0.client_reads");
  c1.inc();
  // Creating unrelated instruments must not move existing ones (node-based
  // map): cached pointers stay valid.
  obs::Counter* cached = &c1;
  for (int i = 0; i < 64; ++i) {
    reg.counter(obs::instrument_name("proxy", static_cast<std::uint32_t>(i),
                                     "client_reads"));
  }
  cached->inc(2);
  EXPECT_EQ(&reg.counter("proxy.0.client_reads"), cached);
  EXPECT_EQ(reg.counter_value("proxy.0.client_reads"), 3u);
  EXPECT_EQ(reg.instrument_count(), 64u);  // i=0 finds the existing counter
}

TEST(MetricRegistryTest, QueriesOnMissingInstrumentsAreZero) {
  obs::MetricRegistry reg;
  EXPECT_EQ(reg.counter_value("no.such.counter"), 0u);
  EXPECT_EQ(reg.gauge_value("no.such.gauge"), 0.0);
  EXPECT_EQ(reg.find_histogram("no.such.histogram"), nullptr);
  // const queries must not create instruments as a side effect.
  EXPECT_EQ(reg.instrument_count(), 0u);
}

TEST(MetricRegistryTest, InstrumentNameComposesHierarchically) {
  EXPECT_EQ(obs::instrument_name("rm", "epoch_changes"), "rm.epoch_changes");
  EXPECT_EQ(obs::instrument_name("proxy", 2, "reads_completed"),
            "proxy.2.reads_completed");
}

TEST(MetricRegistryTest, SnapshotCapturesAllInstrumentKinds) {
  obs::MetricRegistry reg;
  reg.counter("net.messages_sent").inc(5);
  reg.gauge("rm.epoch").set(3.0);
  LatencyHistogram& h = reg.histogram("proxy.0.read_latency_ns");
  h.record(1'000'000.0);
  h.record(2'000'000.0);

  const obs::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters.at("net.messages_sent"), 5u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges.at("rm.epoch"), 3.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms.at("proxy.0.read_latency_ns").count, 2u);
  EXPECT_GT(snap.histograms.at("proxy.0.read_latency_ns").p99, 0.0);
}

TEST(MetricRegistryTest, DeltaSubtractsCountersAndKeepsGauges) {
  obs::MetricRegistry reg;
  obs::Counter& reads = reg.counter("proxy.0.reads_completed");
  obs::Gauge& epoch = reg.gauge("rm.epoch");
  LatencyHistogram& h = reg.histogram("proxy.0.read_latency_ns");
  reads.inc(10);
  epoch.set(1.0);
  h.record(5'000.0);

  const obs::Snapshot before = reg.snapshot();
  reads.inc(7);
  epoch.set(4.0);
  h.record(6'000.0);
  h.record(7'000.0);
  // An instrument born inside the window counts from zero.
  reg.counter("proxy.0.writes_completed").inc(2);

  const obs::Snapshot delta = reg.snapshot().delta_since(before);
  EXPECT_EQ(delta.counters.at("proxy.0.reads_completed"), 7u);
  EXPECT_EQ(delta.counters.at("proxy.0.writes_completed"), 2u);
  EXPECT_EQ(delta.gauges.at("rm.epoch"), 4.0);  // gauges: current value
  EXPECT_EQ(delta.histograms.at("proxy.0.read_latency_ns").count, 2u);
}

TEST(MetricRegistryTest, DeltaClampsRegressionsAtZero) {
  obs::MetricRegistry reg;
  reg.counter("c").inc(9);
  const obs::Snapshot before = reg.snapshot();
  reg.reset();  // counter drops below the earlier snapshot
  reg.counter("c").inc(1);
  const obs::Snapshot delta = reg.snapshot().delta_since(before);
  EXPECT_EQ(delta.counters.at("c"), 0u);
}

TEST(MetricRegistryTest, ResetZeroesButKeepsInstruments) {
  obs::MetricRegistry reg;
  obs::Counter& c = reg.counter("c");
  obs::Gauge& g = reg.gauge("g");
  c.inc(4);
  g.set(2.5);
  reg.reset();
  EXPECT_EQ(reg.instrument_count(), 2u);
  EXPECT_EQ(c.value(), 0u);  // cached reference still valid and zeroed
  EXPECT_EQ(g.value(), 0.0);
}

TEST(MetricRegistryTest, ExportsEnumerateInNameOrder) {
  obs::MetricRegistry reg;
  reg.counter("z.last").inc(1);
  reg.counter("a.first").inc(2);
  reg.gauge("m.middle").set(1.5);

  const obs::Snapshot snap = reg.snapshot();
  const std::string json = snap.to_json();
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);

  const std::string csv = snap.to_csv();
  EXPECT_LT(csv.find("a.first"), csv.find("z.last"));
  EXPECT_NE(csv.find("a.first,counter,2"), std::string::npos);

  // Identical registry state → byte-identical exports.
  EXPECT_EQ(json, reg.snapshot().to_json());
  EXPECT_EQ(csv, reg.snapshot().to_csv());
}

// ---------------------------------------------------------- instant events

TEST(InstantEventTest, OffWhileTheStoreIsInactive) {
  obs::SpanStore store;
  store.instant(obs::Category::kMembership, "crash", "proxy.1", 5);
  EXPECT_TRUE(store.instants(obs::Category::kMembership).empty());

  // Sampling any trace kind turns instants on, whatever their category.
  store.set_sampling(obs::TraceKind::kWrite, 1);
  store.instant(obs::Category::kMembership, "crash", "proxy.1", 6, 2, 3,
                "why");
  ASSERT_EQ(store.instants(obs::Category::kMembership).size(), 1u);
  const obs::Instant& event = store.instants(obs::Category::kMembership)[0];
  EXPECT_EQ(event.at, 6);
  EXPECT_EQ(event.name, "crash");
  EXPECT_EQ(event.node, "proxy.1");
  EXPECT_EQ(event.a, 2u);
  EXPECT_EQ(event.b, 3u);
  EXPECT_EQ(event.detail, "why");

  store.disable_all();
  store.instant(obs::Category::kMembership, "restart", "proxy.1", 7);
  EXPECT_EQ(store.instants(obs::Category::kMembership).size(), 1u);
}

TEST(InstantEventTest, FloodInOneCategoryNeverEvictsAnother) {
  obs::SpanStore store;
  store.enable_all();
  store.set_limits(/*max_live_spans=*/16, /*max_completed=*/4);
  store.instant(obs::Category::kMembership, "crash", "proxy.1", 1);
  for (int i = 0; i < 10; ++i) {
    store.instant(obs::Category::kNet, "drop_link_loss", "proxy.0", 2 + i,
                  static_cast<std::uint64_t>(i));
  }
  ASSERT_EQ(store.instants(obs::Category::kMembership).size(), 1u);
  EXPECT_EQ(store.instants_evicted(obs::Category::kMembership), 0u);
  // The flooded ring keeps its newest `max_completed` events, oldest first,
  // and counts what it lost.
  const auto& drops = store.instants(obs::Category::kNet);
  ASSERT_EQ(drops.size(), 4u);
  EXPECT_EQ(store.instants_evicted(obs::Category::kNet), 6u);
  for (std::size_t i = 0; i < drops.size(); ++i) {
    EXPECT_EQ(drops[i].a, 6u + i);
  }
  const std::string json = obs::to_chrome_json(store);
  EXPECT_NE(json.find("\"name\":\"crash\""), std::string::npos);
  EXPECT_EQ(json, obs::to_chrome_json(store));  // stable across calls

  store.clear();
  EXPECT_TRUE(store.instants(obs::Category::kNet).empty());
}

ClusterConfig small_config(std::uint64_t seed) {
  ClusterConfig config;
  config.num_storage = 5;
  config.num_proxies = 2;
  config.clients_per_proxy = 2;
  config.replication = 3;
  config.initial_quorum = {2, 2};
  config.seed = seed;
  return config;
}

TEST(InstantEventTest, LossyRunKeepsAnEarlyProxyCrash) {
  ClusterConfig config = small_config(5);
  config.net_loss = 0.1;
  config.client_retry_timeout = milliseconds(1000);
  config.span_sample_every = 10;
  config.span_completed_limit = 16;
  Cluster cluster(config);
  cluster.preload(200, 1024);
  cluster.set_workload(workload::ycsb_a(200));
  cluster.simulator().at(milliseconds(200),
                         [&cluster] { cluster.crash_proxy(1); });
  cluster.run_for(seconds(5));

  // Message drops overflowed their ring; the crash is still there.
  const obs::SpanStore& spans = cluster.obs().spans();
  EXPECT_GT(spans.instants_evicted(obs::Category::kNet), 0u);
  const std::string json = obs::to_chrome_json(spans);
  EXPECT_NE(json.find("\"ph\":\"i\",\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"crash\""), std::string::npos);
}

// --------------------------------------------------- same-seed determinism

struct RunArtifacts {
  std::string trace_json;
  std::string report_json;
  std::string instruments_csv;
};

RunArtifacts run_and_export(std::uint64_t seed) {
  ClusterConfig config = small_config(seed);
  config.span_sample_every = 10;
  Cluster cluster(config);
  cluster.preload(200, 1024);
  cluster.set_workload(workload::ycsb_b(200));
  cluster.enable_autotuning({});
  cluster.run_for(seconds(5));
  cluster.reconfigure({1, 3});
  cluster.run_for(seconds(2));
  RunArtifacts out;
  out.trace_json = obs::to_chrome_json(cluster.obs().spans());
  out.report_json = cluster.report().to_json();
  out.instruments_csv = cluster.obs().registry().snapshot().to_csv();
  return out;
}

TEST(ObservabilityDeterminismTest, SameSeedYieldsByteIdenticalExports) {
  const RunArtifacts a = run_and_export(42);
  const RunArtifacts b = run_and_export(42);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.report_json, b.report_json);
  EXPECT_EQ(a.instruments_csv, b.instruments_csv);
  // The run actually produced traffic and instant events (AM decisions) —
  // the comparison is not vacuous.
  EXPECT_NE(a.trace_json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(a.report_json.find("\"ops\""), std::string::npos);
}

TEST(ObservabilityDeterminismTest, DifferentSeedsDiverge) {
  const RunArtifacts a = run_and_export(42);
  const RunArtifacts b = run_and_export(43);
  EXPECT_NE(a.report_json, b.report_json);
}

// ------------------------------------------------------------- run report

TEST(RunReportTest, ReportAggregatesClusterActivity) {
  Cluster cluster(small_config(7));
  cluster.preload(100, 512);
  cluster.set_workload(workload::ycsb_a(100));
  cluster.run_for(seconds(3));

  const obs::RunReport report = cluster.report();
  EXPECT_EQ(report.seed, 7u);
  EXPECT_EQ(report.num_storage, 5u);
  EXPECT_EQ(report.num_proxies, 2u);
  EXPECT_GT(report.ops, 0u);
  EXPECT_EQ(report.ops, report.reads + report.writes);
  EXPECT_GT(report.throughput_ops, 0.0);
  EXPECT_GT(report.read_latency.count, 0u);
  EXPECT_GT(report.messages_sent, 0u);
  EXPECT_EQ(report.consistency_violations, 0u);
  EXPECT_FALSE(report.throughput_timeline.empty());
  // Instruments snapshot rides along for drill-down.
  EXPECT_GT(report.instruments.counters.size(), 0u);

  const std::string rendered = report.render();
  EXPECT_NE(rendered.find("throughput"), std::string::npos);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"seed\":7"), std::string::npos);
}

TEST(RunReportTest, WindowedReportRestrictsWorkloadTotals) {
  Cluster cluster(small_config(9));
  cluster.preload(100, 512);
  cluster.set_workload(workload::ycsb_b(100));
  cluster.run_for(seconds(4));

  const obs::RunReport full = cluster.report();
  const obs::RunReport tail = cluster.report(seconds(2), cluster.now());
  EXPECT_LT(tail.ops, full.ops);
  EXPECT_GT(tail.ops, 0u);
  EXPECT_EQ(tail.window_start, seconds(2));
}

}  // namespace
}  // namespace qopt
