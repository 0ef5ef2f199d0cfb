// Topology generality: the core invariants (quorum fan-out, consistency,
// reconfiguration, self-tuning direction) must hold across replication
// degrees and cluster shapes, not just the paper's N=5 testbed.
#include <gtest/gtest.h>

#include <tuple>

#include "autonomic/autonomic_manager.hpp"
#include "core/cluster.hpp"
#include "kv/types.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace qopt {
namespace {

// (replication, storage nodes, proxies)
using Topology = std::tuple<int, std::uint32_t, std::uint32_t>;

class TopologyMatrix : public ::testing::TestWithParam<Topology> {
 protected:
  ClusterConfig make_config() const {
    const auto [replication, storage, proxies] = GetParam();
    ClusterConfig config;
    config.replication = replication;
    config.num_storage = storage;
    config.num_proxies = proxies;
    config.clients_per_proxy = 3;
    config.initial_quorum = {replication / 2 + 1, replication / 2 + 1};
    config.seed = 7 + replication;
    return config;
  }
};

TEST_P(TopologyMatrix, DataPathAndConsistency) {
  Cluster cluster(make_config());
  cluster.preload(300, 1024);
  cluster.set_workload(workload::ycsb_a(300));
  cluster.run_for(seconds(3));
  EXPECT_GT(cluster.metrics().total_ops(), 500u);
  EXPECT_TRUE(cluster.checker().clean());
  for (std::uint32_t c = 0; c < cluster.num_clients(); ++c) {
    EXPECT_GT(cluster.client(c).ops_completed(), 0u);
  }
}

TEST_P(TopologyMatrix, EveryStrictQuorumWorks) {
  const auto [replication, storage, proxies] = GetParam();
  Cluster cluster(make_config());
  cluster.preload(200, 1024);
  cluster.set_workload(workload::ycsb_a(200));
  cluster.run_for(milliseconds(500));
  for (int w = 1; w <= replication; ++w) {
    cluster.reconfigure({replication - w + 1, w});
    cluster.run_for(seconds(1));
    EXPECT_EQ(cluster.rm().config().default_q.write_footprint(), w);
  }
  EXPECT_EQ(cluster.obs().registry().counter_value("rm.reconfigurations_completed"),
            static_cast<std::uint64_t>(replication));
  EXPECT_TRUE(cluster.checker().clean());
}

TEST_P(TopologyMatrix, WriteLandsOnExactlyWriteQuorumReplicas) {
  const auto [replication, storage, proxies] = GetParam();
  ClusterConfig config = make_config();
  const int w = std::max(1, replication - 1);
  config.initial_quorum = {replication - w + 1, w};
  Cluster cluster(config);
  // One client, write-only, tiny keyspace: inspect replica counts.
  workload::WorkloadSpec spec;
  spec.write_ratio = 1.0;
  spec.keys = std::make_shared<workload::UniformKeys>(20);
  cluster.set_workload(std::make_shared<workload::BasicWorkload>(spec));
  cluster.run_for(seconds(1));
  cluster.stop_clients();
  cluster.run_for(seconds(1));
  for (kv::ObjectId oid = 0; oid < 20; ++oid) {
    int holders = 0;
    for (std::uint32_t replica : cluster.placement().replicas(oid)) {
      holders += cluster.storage(replica).peek(oid).has_value();
    }
    if (holders == 0) continue;  // key never written by the workload
    EXPECT_GE(holders, w) << "oid " << oid;
    EXPECT_LE(holders, replication) << "oid " << oid;
  }
}

TEST_P(TopologyMatrix, AutotuningMovesInTheRightDirection) {
  const auto [replication, storage, proxies] = GetParam();
  Cluster cluster(make_config());
  cluster.preload(1000, 4096);
  cluster.set_workload(workload::ycsb_b(1000));  // read-heavy
  autonomic::AutonomicOptions tuning;
  tuning.round_window = seconds(2);
  tuning.quarantine = seconds(1);
  cluster.enable_autotuning(tuning);
  cluster.run_for(seconds(45));
  // Read-heavy: the tuned default must have a read quorum no larger than
  // the balanced start (and typically R=1).
  EXPECT_LE(cluster.rm().config().default_q.read_footprint(),
            replication / 2 + 1);
  EXPECT_TRUE(cluster.checker().clean());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyMatrix,
    ::testing::Values(Topology{3, 5, 1}, Topology{3, 9, 3},
                      Topology{5, 7, 2}, Topology{5, 16, 4},
                      Topology{7, 9, 2}, Topology{9, 12, 3}),
    [](const auto& param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "_s" +
             std::to_string(std::get<1>(param_info.param)) + "_p" +
             std::to_string(std::get<2>(param_info.param));
    });

// ---------------------------------------------------- inserting workload

TEST(InsertingWorkloadTest, KeyspaceGrows) {
  workload::InsertingWorkload::Spec spec;
  spec.insert_ratio = 0.5;
  spec.initial_keys = 10;
  workload::InsertingWorkload load(spec);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) load.next(rng, 0);
  EXPECT_NEAR(static_cast<double>(load.keys_inserted()), 500.0, 60.0);
  EXPECT_EQ(load.key_count(), 10 + load.keys_inserted());
}

TEST(InsertingWorkloadTest, NonInsertOpsSkewTowardRecentKeys) {
  workload::InsertingWorkload::Spec spec;
  spec.insert_ratio = 0.0;  // fixed keyspace to measure the skew
  spec.initial_keys = 10'000;
  workload::InsertingWorkload load(spec);
  Rng rng(5);
  int in_newest_decile = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    if (load.next(rng, 0).oid >= 9'000) ++in_newest_decile;
  }
  EXPECT_GT(in_newest_decile, n * 0.8)
      << "latest distribution not recency-skewed";
}

TEST(InsertingWorkloadTest, InsertsAreWritesWithFreshKeys) {
  workload::InsertingWorkload::Spec spec;
  spec.insert_ratio = 1.0;
  spec.initial_keys = 5;
  spec.key_offset = 1'000;
  workload::InsertingWorkload load(spec);
  Rng rng(7);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const workload::Operation op = load.next(rng, 0);
    EXPECT_TRUE(op.is_write);
    EXPECT_EQ(op.oid, 1'005 + i);  // strictly appending
  }
}

TEST(InsertingWorkloadTest, ZeroInitialKeysThrows) {
  workload::InsertingWorkload::Spec spec;
  spec.initial_keys = 0;
  EXPECT_THROW(workload::InsertingWorkload{spec}, std::invalid_argument);
}

TEST(InsertingWorkloadTest, EndToEndUploadScenario) {
  // Upload-dominated personal storage: inserts + recent reads; the cluster
  // serves it consistently and Q-OPT tunes toward small write quorums.
  ClusterConfig config;
  config.num_storage = 5;
  config.num_proxies = 2;
  config.clients_per_proxy = 4;
  config.replication = 5;
  config.initial_quorum = {3, 3};
  config.seed = 77;
  Cluster cluster(config);
  workload::InsertingWorkload::Spec spec;
  spec.insert_ratio = 0.7;
  spec.write_ratio = 0.3;
  spec.initial_keys = 100;
  cluster.preload(100, 4096);
  auto load = std::make_shared<workload::InsertingWorkload>(spec);
  cluster.set_workload(load);
  autonomic::AutonomicOptions tuning;
  tuning.round_window = seconds(2);
  tuning.quarantine = seconds(1);
  cluster.enable_autotuning(tuning);
  cluster.run_for(seconds(40));
  EXPECT_GT(load->keys_inserted(), 1'000u);
  EXPECT_TRUE(cluster.checker().clean());
  // ~80% of operations are writes: small W wins.
  EXPECT_LE(cluster.rm().config().default_q.write_footprint(), 2);
}

}  // namespace
}  // namespace qopt
