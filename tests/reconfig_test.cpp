// Tests for the Reconfiguration Manager's two-phase non-blocking protocol
// (Algorithm 2), including the failure-suspicion / epoch-change paths,
// exercised through a full (small) cluster.
#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "kv/types.hpp"
#include "workload/workload.hpp"

namespace qopt {
namespace {

ClusterConfig small_config() {
  ClusterConfig config;
  config.num_storage = 5;
  config.num_proxies = 3;
  config.clients_per_proxy = 2;
  config.replication = 5;
  config.initial_quorum = {1, 5};
  config.seed = 11;
  return config;
}

TEST(ReconfigTest, GlobalReconfigurationCompletes) {
  Cluster cluster(small_config());
  bool done = false;
  bool ok = false;
  cluster.reconfigure({4, 2}, [&](bool success) {
    done = true;
    ok = success;
  });
  cluster.run_for(seconds(1));
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_EQ(cluster.rm().config().default_q, (kv::QuorumConfig::of(4, 2)));
  EXPECT_EQ(cluster.rm().config().cfno, 1u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.proxy(i).default_quorum(), (kv::QuorumConfig::of(4, 2)));
    EXPECT_FALSE(cluster.proxy(i).in_transition());
  }
  EXPECT_EQ(cluster.obs().registry().counter_value("rm.epoch_changes"), 0u);
}

TEST(ReconfigTest, InvalidChangeRejected) {
  Cluster cluster(small_config());
  bool ok = true;
  cluster.reconfigure({2, 3}, [&](bool success) { ok = success; });  // 2+3=5
  cluster.run_for(seconds(1));
  EXPECT_FALSE(ok);
  EXPECT_EQ(cluster.obs().registry().counter_value("rm.rejected_invalid"), 1u);
  EXPECT_EQ(cluster.rm().config().default_q, (kv::QuorumConfig::of(1, 5)));
}

TEST(ReconfigTest, EmptyPerObjectChangeRejected) {
  Cluster cluster(small_config());
  bool ok = true;
  cluster.reconfigure_objects({}, [&](bool success) { ok = success; });
  cluster.run_for(seconds(1));
  EXPECT_FALSE(ok);
}

TEST(ReconfigTest, ReconfigurationsSerialize) {
  for (const std::uint32_t replicas : {1u, 3u}) {
    SCOPED_TRACE(testing::Message() << "rm_replicas=" << replicas);
    ClusterConfig config = small_config();
    config.rm_replicas = replicas;
    Cluster cluster(config);
    std::vector<int> completion_order;
    cluster.reconfigure({4, 2}, [&](bool) { completion_order.push_back(1); });
    cluster.reconfigure({3, 3}, [&](bool) { completion_order.push_back(2); });
    cluster.reconfigure({2, 4}, [&](bool) { completion_order.push_back(3); });
    if (replicas == 1) {
      // The inline log queues every request before reconfigure() returns.
      EXPECT_GE(cluster.rm().queued() + (cluster.rm().busy() ? 1u : 0u), 3u);
    }
    cluster.run_for(seconds(2));
    EXPECT_EQ(completion_order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(cluster.rm().config().default_q, (kv::QuorumConfig::of(2, 4)));
    EXPECT_EQ(cluster.rm().config().cfno, 3u);
  }
}

TEST(ReconfigTest, CompletionCallbackMayReconfigureWhileAnotherIsQueued) {
  // The first round's callback submits a third request while the second
  // still waits in the queue. With one replica that request applies
  // inline, re-entering the log from inside the first commit's apply.
  for (const std::uint32_t replicas : {1u, 3u}) {
    SCOPED_TRACE(testing::Message() << "rm_replicas=" << replicas);
    ClusterConfig config = small_config();
    config.rm_replicas = replicas;
    Cluster cluster(config);
    std::vector<int> completion_order;
    cluster.reconfigure({4, 2}, [&](bool ok) {
      EXPECT_TRUE(ok);
      completion_order.push_back(1);
      cluster.reconfigure({2, 4}, [&](bool ok3) {
        EXPECT_TRUE(ok3);
        completion_order.push_back(3);
      });
    });
    cluster.reconfigure({3, 3}, [&](bool ok) {
      EXPECT_TRUE(ok);
      completion_order.push_back(2);
    });
    cluster.run_for(seconds(2));
    EXPECT_EQ(completion_order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(cluster.rm().config().default_q, (kv::QuorumConfig::of(2, 4)));
    EXPECT_EQ(cluster.rm().config().cfno, 3u);
    EXPECT_FALSE(cluster.rm().busy());
  }
}

TEST(ReconfigTest, OneReplicaRmFaultsAreNoOps) {
  // A lone RM replica has no group to fail over in: the RM fault hooks
  // leave it running and reachable.
  Cluster cluster(small_config());
  cluster.crash_rm(0);
  cluster.restart_rm(0);
  EXPECT_EQ(cluster.isolate_rm(0), 0u);
  bool ok = false;
  cluster.reconfigure({4, 2}, [&](bool success) { ok = success; });
  cluster.run_for(seconds(1));
  EXPECT_TRUE(ok);
  EXPECT_EQ(cluster.rm().config().cfno, 1u);
  EXPECT_FALSE(cluster.report().has_rm_failover);
}

TEST(ReconfigTest, PerObjectOverridesInstalled) {
  Cluster cluster(small_config());
  cluster.reconfigure_objects({{100, {5, 1}}, {200, {3, 3}}});
  cluster.run_for(seconds(1));
  EXPECT_EQ(cluster.rm().config().strategy_for(100),
            (kv::QuorumConfig::of(5, 1)));
  EXPECT_EQ(cluster.rm().config().strategy_for(200),
            (kv::QuorumConfig::of(3, 3)));
  EXPECT_EQ(cluster.rm().config().strategy_for(300),
            (kv::QuorumConfig::of(1, 5)));
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.proxy(i).effective_quorum(100),
              (kv::QuorumConfig::of(5, 1)));
  }
}

TEST(ReconfigTest, OverrideReplacedByLaterChange) {
  Cluster cluster(small_config());
  cluster.reconfigure_objects({{100, {5, 1}}});
  cluster.reconfigure_objects({{100, {2, 4}}});
  cluster.run_for(seconds(1));
  EXPECT_EQ(cluster.rm().config().strategy_for(100),
            (kv::QuorumConfig::of(2, 4)));
  // The canonical override list must not contain duplicates.
  EXPECT_EQ(cluster.rm().config().overrides.size(), 1u);
}

TEST(ReconfigTest, GlobalChangeKeepsOverrides) {
  Cluster cluster(small_config());
  cluster.reconfigure_objects({{100, {5, 1}}});
  cluster.reconfigure({3, 3});
  cluster.run_for(seconds(1));
  EXPECT_EQ(cluster.rm().config().strategy_for(100),
            (kv::QuorumConfig::of(5, 1)));
  EXPECT_EQ(cluster.rm().config().default_q, (kv::QuorumConfig::of(3, 3)));
}

TEST(ReconfigTest, CrashedProxyTriggersEpochChangeAndCompletes) {
  Cluster cluster(small_config());
  cluster.crash_proxy(2);
  bool ok = false;
  cluster.reconfigure({4, 2}, [&](bool success) { ok = success; });
  cluster.run_for(seconds(5));
  EXPECT_TRUE(ok) << "reconfiguration must terminate despite a crashed proxy";
  EXPECT_GE(cluster.obs().registry().counter_value("rm.epoch_changes"), 1u);
  // Live proxies reach the new configuration.
  EXPECT_EQ(cluster.proxy(0).default_quorum(), (kv::QuorumConfig::of(4, 2)));
  EXPECT_EQ(cluster.proxy(1).default_quorum(), (kv::QuorumConfig::of(4, 2)));
  // Storage nodes advanced their epoch.
  EXPECT_GE(cluster.storage(0).epoch(), 1u);
}

TEST(ReconfigTest, FalselySuspectedProxyRecoversViaNack) {
  Cluster cluster(small_config());
  cluster.preload(100, 1024);
  cluster.set_workload(workload::ycsb_a(100));
  cluster.run_for(seconds(1));

  // Indefinite false suspicion: the RM proceeds without proxy 2 and fences
  // the old epoch; proxy 2 (alive!) must learn the new configuration from
  // storage NACKs and keep serving (indulgence, Section 5.3).
  cluster.inject_false_suspicion(2, seconds(30));
  bool ok = false;
  cluster.reconfigure({4, 2}, [&](bool success) { ok = success; });
  cluster.run_for(seconds(10));
  EXPECT_TRUE(ok);
  EXPECT_GE(cluster.obs().registry().counter_value("rm.epoch_changes"), 1u);
  EXPECT_EQ(cluster.proxy(2).default_quorum(), (kv::QuorumConfig::of(4, 2)))
      << "falsely suspected proxy failed to resynchronize";
  EXPECT_GE(cluster.obs().registry().counter_value(obs::instrument_name("proxy", 2, "nacks_received")), 1u);
  EXPECT_TRUE(cluster.checker().clean());
  // Clients of the suspected proxy kept completing operations.
  EXPECT_GT(cluster.client(4).ops_completed(), 0u);
}

TEST(ReconfigTest, ReconfigurationUnderLoadPreservesConsistency) {
  ClusterConfig config = small_config();
  Cluster cluster(config);
  cluster.preload(500, 1024);
  cluster.set_workload(workload::ycsb_a(500));
  cluster.run_for(seconds(1));
  // Ping-pong between extreme configurations while traffic flows.
  for (const kv::QuorumConfig q :
       {kv::QuorumConfig::of(5, 1), kv::QuorumConfig::of(1, 5), kv::QuorumConfig::of(3, 3),
        kv::QuorumConfig::of(2, 4)}) {
    cluster.reconfigure(q);
    cluster.run_for(seconds(2));
  }
  EXPECT_TRUE(cluster.checker().clean())
      << cluster.checker().violations().size() << " violations";
  EXPECT_GT(cluster.checker().reads_checked(), 1000u);
  EXPECT_EQ(cluster.obs().registry().counter_value("rm.reconfigurations_completed"), 4u);
}

TEST(ReconfigTest, NonBlockingDuringReconfiguration) {
  // Operations must keep completing *during* the transition window.
  ClusterConfig config = small_config();
  config.network.base = milliseconds(5);  // slow control plane
  Cluster cluster(config);
  cluster.preload(100, 1024);
  cluster.set_workload(workload::ycsb_a(100));
  cluster.run_for(seconds(1));
  const std::uint64_t ops_before = cluster.metrics().total_ops();
  cluster.reconfigure({4, 2});
  // A handful of milliseconds in: reconfig still in flight.
  cluster.run_for(milliseconds(8));
  EXPECT_TRUE(cluster.rm().busy());
  cluster.run_for(milliseconds(100));
  EXPECT_GT(cluster.metrics().total_ops(), ops_before)
      << "operations blocked during reconfiguration";
}

TEST(ReconfigTest, EpochChangeQuorumReachesEnoughStorageNodes) {
  Cluster cluster(small_config());
  cluster.crash_proxy(0);
  cluster.reconfigure({3, 3});
  cluster.run_for(seconds(5));
  int advanced = 0;
  for (std::uint32_t i = 0; i < 5; ++i) {
    if (cluster.storage(i).epoch() >= 1) ++advanced;
  }
  // Epoch-change quorum after phase 1 is max(oldR, oldW) = 5 here.
  EXPECT_GE(advanced, 5);
}

TEST(ReconfigTest, ManyReconfigurationsAccumulateHistory) {
  Cluster cluster(small_config());
  for (int i = 0; i < 10; ++i) {
    cluster.reconfigure(i % 2 ? kv::QuorumConfig::of(5, 1)
                              : kv::QuorumConfig::of(1, 5));
  }
  cluster.run_for(seconds(5));
  EXPECT_EQ(cluster.rm().config().cfno, 10u);
  EXPECT_EQ(cluster.obs().registry().counter_value("rm.reconfigurations_completed"), 10u);
  // History covers every installed configuration (prunable per the paper).
  EXPECT_GE(cluster.rm().config().read_q_history.size(), 10u);
}

}  // namespace
}  // namespace qopt
