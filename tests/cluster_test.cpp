// Integration tests for the Cluster facade: end-to-end data path, metrics,
// preload, workload assignment, and the performance trends from Section 2.2.
#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "workload/workload.hpp"

namespace qopt {
namespace {

ClusterConfig tiny() {
  ClusterConfig config;
  config.num_storage = 5;
  config.num_proxies = 2;
  config.clients_per_proxy = 3;
  config.replication = 3;
  config.initial_quorum = {2, 2};
  config.seed = 5;
  return config;
}

TEST(ClusterTest, InvalidConfigurationThrows) {
  ClusterConfig config = tiny();
  config.initial_quorum = {1, 2};  // 1+2 == N
  EXPECT_THROW(Cluster{config}, std::invalid_argument);
  config = tiny();
  config.num_proxies = 0;
  EXPECT_THROW(Cluster{config}, std::invalid_argument);
  config = tiny();
  config.replication = 7;  // > storage nodes
  EXPECT_THROW(Cluster{config}, std::invalid_argument);
  config = tiny();
  config.num_proxies = 1u << 16;  // past the store's 16-bit proxy field
  EXPECT_THROW(Cluster{config}, std::invalid_argument);
}

TEST(ClusterTest, ClosedLoopClientsCompleteOps) {
  Cluster cluster(tiny());
  cluster.preload(100, 1024);
  cluster.set_workload(workload::ycsb_a(100));
  cluster.run_for(seconds(2));
  EXPECT_GT(cluster.metrics().total_ops(), 100u);
  EXPECT_GT(cluster.metrics().total_reads(), 0u);
  EXPECT_GT(cluster.metrics().total_writes(), 0u);
  for (std::uint32_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_GT(cluster.client(i).ops_completed(), 0u) << "client " << i;
  }
}

TEST(ClusterTest, PreloadMakesReadsFindData) {
  Cluster cluster(tiny());
  cluster.preload(50, 2048);
  // Read-only workload: every read must find a preloaded version.
  workload::WorkloadSpec spec;
  spec.write_ratio = 0.0;
  spec.keys = std::make_shared<workload::UniformKeys>(50);
  spec.name = "read-only";
  cluster.set_workload(std::make_shared<workload::BasicWorkload>(spec));
  cluster.run_for(seconds(1));
  EXPECT_GT(cluster.metrics().total_reads(), 0u);
  for (std::uint32_t i = 0; i < 2; ++i) {
    EXPECT_EQ(cluster.obs().registry().counter_value(obs::instrument_name("proxy", i, "not_found_reads")), 0u);
  }
}

TEST(ClusterTest, WithoutPreloadReadsMissGracefully) {
  Cluster cluster(tiny());
  workload::WorkloadSpec spec;
  spec.write_ratio = 0.0;
  spec.keys = std::make_shared<workload::UniformKeys>(50);
  cluster.set_workload(std::make_shared<workload::BasicWorkload>(spec));
  cluster.run_for(milliseconds(200));
  EXPECT_GT(cluster.metrics().total_reads(), 0u);  // not-found still completes
}

TEST(ClusterTest, MetricsTimelineBucketsSum) {
  Cluster cluster(tiny());
  cluster.preload(100, 1024);
  cluster.set_workload(workload::ycsb_a(100));
  cluster.run_for(seconds(2));
  const std::uint64_t total = cluster.metrics().total_ops();
  EXPECT_EQ(cluster.metrics().ops_between(0, cluster.now() + 1), total);
  const double tput = cluster.metrics().throughput(0, cluster.now());
  EXPECT_GT(tput, 0.0);
}

TEST(ClusterTest, LatencyHistogramsPopulated) {
  Cluster cluster(tiny());
  cluster.preload(100, 1024);
  cluster.set_workload(workload::ycsb_a(100));
  cluster.run_for(seconds(1));
  EXPECT_GT(cluster.metrics().read_latency().count(), 0u);
  EXPECT_GT(cluster.metrics().write_latency().count(), 0u);
  // End-to-end latency at least the network round trips.
  EXPECT_GT(cluster.metrics().read_latency().percentile(50),
            static_cast<double>(2 * cluster.config().network.base));
}

TEST(ClusterTest, PerProxyWorkloadAssignment) {
  Cluster cluster(tiny());
  cluster.preload(200, 1024);
  // Proxy 0's tenant: objects 0..99 write-only; proxy 1: 100..199 read-only.
  workload::WorkloadSpec writes;
  writes.write_ratio = 1.0;
  writes.keys = std::make_shared<workload::UniformKeys>(100);
  cluster.set_workload_for_proxy(
      0, std::make_shared<workload::BasicWorkload>(writes));
  workload::WorkloadSpec reads;
  reads.write_ratio = 0.0;
  reads.keys = std::make_shared<workload::UniformKeys>(100);
  reads.key_offset = 100;
  cluster.set_workload_for_proxy(
      1, std::make_shared<workload::BasicWorkload>(reads));
  cluster.run_for(seconds(1));
  EXPECT_EQ(cluster.obs().registry().counter_value(obs::instrument_name("proxy", 0, "client_reads")), 0u);
  EXPECT_GT(cluster.obs().registry().counter_value(obs::instrument_name("proxy", 0, "client_writes")), 0u);
  EXPECT_EQ(cluster.obs().registry().counter_value(obs::instrument_name("proxy", 1, "client_writes")), 0u);
  EXPECT_GT(cluster.obs().registry().counter_value(obs::instrument_name("proxy", 1, "client_reads")), 0u);
}

TEST(ClusterTest, StopClientsHaltsTraffic) {
  Cluster cluster(tiny());
  cluster.preload(100, 1024);
  cluster.set_workload(workload::ycsb_a(100));
  cluster.run_for(seconds(1));
  cluster.stop_clients();
  cluster.run_for(milliseconds(500));
  const std::uint64_t ops = cluster.metrics().total_ops();
  cluster.run_for(seconds(1));
  EXPECT_EQ(cluster.metrics().total_ops(), ops);
}

TEST(ClusterTest, DeterministicForSameSeed) {
  auto run = [] {
    Cluster cluster(tiny());
    cluster.preload(100, 1024);
    cluster.set_workload(workload::ycsb_a(100));
    cluster.run_for(seconds(2));
    return cluster.metrics().total_ops();
  };
  EXPECT_EQ(run(), run());
}

TEST(ClusterTest, SeedChangesExecution) {
  auto run = [](std::uint64_t seed) {
    ClusterConfig config = tiny();
    config.seed = seed;
    Cluster cluster(config);
    cluster.preload(100, 1024);
    cluster.set_workload(workload::ycsb_a(100));
    cluster.run_for(seconds(2));
    return cluster.metrics().total_ops();
  };
  EXPECT_NE(run(1), run(2));
}

TEST(ClusterTest, CrashStorageWithinQuorumToleranceKeepsServing) {
  ClusterConfig config = tiny();
  config.initial_quorum = {2, 2};  // N=3: tolerate 1 storage crash
  Cluster cluster(config);
  cluster.preload(100, 1024);
  cluster.set_workload(workload::ycsb_a(100));
  cluster.run_for(seconds(1));
  cluster.crash_storage(0);
  const std::uint64_t ops = cluster.metrics().total_ops();
  cluster.run_for(seconds(2));
  EXPECT_GT(cluster.metrics().total_ops(), ops);
  EXPECT_TRUE(cluster.checker().clean());
}

// ------------------------------------------------- Section 2.2 trends

struct QuorumTrendTest : ::testing::Test {
  ExperimentSpec spec;
  void SetUp() override {
    spec.cluster.num_storage = 10;
    spec.cluster.num_proxies = 2;
    spec.cluster.clients_per_proxy = 10;
    spec.cluster.replication = 5;
    spec.cluster.seed = 9;
    spec.preload_objects = 2000;
    spec.warmup = seconds(1);
    spec.measure = seconds(5);
  }
};

TEST_F(QuorumTrendTest, ReadHeavyPrefersSmallReadQuorum) {
  spec.workload = workload::ycsb_b(2000);
  const ExperimentResult small_r = run_static(spec, {1, 5});
  const ExperimentResult large_r = run_static(spec, {5, 1});
  EXPECT_GT(small_r.throughput_ops, large_r.throughput_ops * 1.2)
      << "R=1 should clearly beat R=5 on a 95%-read workload";
}

TEST_F(QuorumTrendTest, WriteHeavyPrefersSmallWriteQuorum) {
  spec.workload = workload::backup_c(2000);
  const ExperimentResult small_w = run_static(spec, {5, 1});
  const ExperimentResult large_w = run_static(spec, {1, 5});
  EXPECT_GT(small_w.throughput_ops, large_w.throughput_ops * 1.5)
      << "W=1 should clearly beat W=5 on a 99%-write workload";
}

TEST_F(QuorumTrendTest, SweepCoversAllStrictConfigs) {
  spec.workload = workload::ycsb_a(2000);
  spec.measure = seconds(2);
  const auto results = sweep_quorums(spec);
  ASSERT_EQ(results.size(), 5u);
  for (int w = 1; w <= 5; ++w) {
    EXPECT_EQ(results[static_cast<size_t>(w - 1)].quorum.write_q, w);
    EXPECT_TRUE(results[static_cast<size_t>(w - 1)].consistent);
    EXPECT_GT(results[static_cast<size_t>(w - 1)].throughput_ops, 0.0);
  }
}

TEST_F(QuorumTrendTest, OptimalWriteQuorumMatchesWorkloadDirection) {
  spec.workload = workload::ycsb_b(2000);
  spec.measure = seconds(4);
  EXPECT_GE(optimal_write_quorum(spec), 4);
  spec.workload = workload::backup_c(2000);
  EXPECT_LE(optimal_write_quorum(spec), 2);
}

}  // namespace
}  // namespace qopt
