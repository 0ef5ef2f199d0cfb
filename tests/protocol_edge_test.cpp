// Deeper edge cases of the reconfiguration and data-path protocols that the
// main suites do not reach: NACKs landing mid-repair, reconfigurations
// queued behind epoch changes, drain interaction with retried operations,
// storage-side write NACKs, and monitoring isolation from internal traffic.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/cluster.hpp"
#include "kv/quorum.hpp"
#include "kv/storage_node.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "proxy/proxy.hpp"
#include "qopt_proto/proto.hpp"
#include "sim/ids.hpp"
#include "workload/workload.hpp"

namespace qopt {
namespace {

ClusterConfig small_config() {
  ClusterConfig config;
  config.num_storage = 5;
  config.num_proxies = 2;
  config.clients_per_proxy = 2;
  config.replication = 5;
  config.initial_quorum = {3, 3};
  config.seed = 31;
  return config;
}

TEST(ProtocolEdgeTest, ReconfigQueuedDuringSuspicionDrivenEpochChange) {
  Cluster cluster(small_config());
  cluster.preload(100, 1024);
  cluster.set_workload(workload::ycsb_a(100));
  cluster.run_for(milliseconds(500));
  cluster.inject_false_suspicion(1, seconds(5));
  int completed = 0;
  // Three reconfigurations queued while the first triggers epoch changes.
  cluster.reconfigure({5, 1}, [&](bool ok) { completed += ok; });
  cluster.reconfigure({1, 5}, [&](bool ok) { completed += ok; });
  cluster.reconfigure({4, 2}, [&](bool ok) { completed += ok; });
  cluster.run_for(seconds(10));
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(cluster.rm().config().default_q, (kv::QuorumConfig::of(4, 2)));
  EXPECT_GE(cluster.obs().registry().counter_value("rm.epoch_changes"), 2u);
  EXPECT_TRUE(cluster.checker().clean());
}

TEST(ProtocolEdgeTest, BackToBackSuspicionsOfDifferentProxies) {
  Cluster cluster(small_config());
  cluster.preload(100, 1024);
  cluster.set_workload(workload::ycsb_a(100));
  cluster.run_for(milliseconds(500));
  cluster.inject_false_suspicion(0, seconds(2));
  cluster.reconfigure({5, 1});
  cluster.run_for(seconds(3));
  cluster.inject_false_suspicion(1, seconds(2));
  cluster.reconfigure({1, 5});
  cluster.run_for(seconds(5));
  EXPECT_EQ(cluster.obs().registry().counter_value("rm.reconfigurations_completed"), 2u);
  // Both proxies converged to the final configuration.
  EXPECT_EQ(cluster.proxy(0).default_quorum(), (kv::QuorumConfig::of(1, 5)));
  EXPECT_EQ(cluster.proxy(1).default_quorum(), (kv::QuorumConfig::of(1, 5)));
  EXPECT_TRUE(cluster.checker().clean());
}

TEST(ProtocolEdgeTest, EpochsAreMonotoneAcrossStorageNodes) {
  Cluster cluster(small_config());
  cluster.preload(50, 1024);
  cluster.set_workload(workload::ycsb_a(50));
  cluster.run_for(milliseconds(300));
  for (int round = 0; round < 4; ++round) {
    cluster.inject_false_suspicion(round % 2, milliseconds(800));
    cluster.reconfigure(round % 2 ? kv::QuorumConfig::of(1, 5)
                                  : kv::QuorumConfig::of(5, 1));
    cluster.run_for(seconds(2));
  }
  const std::uint64_t rm_epoch = cluster.rm().config().epno;
  EXPECT_GE(rm_epoch, 4u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_LE(cluster.storage(i).epoch(), rm_epoch);
  }
  EXPECT_TRUE(cluster.checker().clean());
}

TEST(ProtocolEdgeTest, WritebacksInvisibleToMonitoringAndClients) {
  // Force read repairs, then verify the repair write-backs neither reach
  // clients nor inflate the op metrics.
  Cluster cluster(small_config());
  cluster.preload(50, 1024);
  workload::WorkloadSpec spec;
  spec.write_ratio = 0.5;
  spec.keys = std::make_shared<workload::UniformKeys>(50);
  cluster.set_workload(std::make_shared<workload::BasicWorkload>(spec));
  cluster.run_for(seconds(1));
  cluster.reconfigure({5, 1});
  cluster.run_for(seconds(2));
  cluster.reconfigure({1, 5});
  cluster.run_for(seconds(3));
  std::uint64_t repairs = 0;
  std::uint64_t writebacks = 0;
  for (std::uint32_t i = 0; i < 2; ++i) {
    repairs += cluster.obs().registry().counter_value(obs::instrument_name("proxy", i, "repair_reads"));
    writebacks += cluster.obs().registry().counter_value(obs::instrument_name("proxy", i, "writebacks"));
  }
  EXPECT_GT(repairs, 0u) << "scenario failed to trigger read repair";
  EXPECT_GT(writebacks, 0u);
  // Client-visible op count equals client ops (no write-back leakage):
  std::uint64_t client_ops = 0;
  for (std::uint32_t c = 0; c < cluster.num_clients(); ++c) {
    client_ops += cluster.client(c).ops_completed();
  }
  EXPECT_EQ(cluster.metrics().total_ops(), client_ops);
  EXPECT_TRUE(cluster.checker().clean());
}

TEST(ProtocolEdgeTest, StorageWriteNackAlsoResynchronizes) {
  // Direct wire-level check that the *write* NACK path works (the proxy
  // suite covers reads in detail): advance storage epochs behind a
  // write-only workload's back.
  Cluster cluster(small_config());
  cluster.preload(10, 1024);
  workload::WorkloadSpec spec;
  spec.write_ratio = 1.0;
  spec.keys = std::make_shared<workload::UniformKeys>(10);
  cluster.set_workload(std::make_shared<workload::BasicWorkload>(spec));
  cluster.run_for(milliseconds(500));
  cluster.inject_false_suspicion(0, seconds(3));
  cluster.reconfigure({2, 4});
  cluster.run_for(seconds(5));
  EXPECT_GE(cluster.obs().registry().counter_value(obs::instrument_name("proxy", 0, "nacks_received")), 1u);
  EXPECT_EQ(cluster.proxy(0).default_quorum(), (kv::QuorumConfig::of(2, 4)));
  // The falsely suspected proxy's clients never stalled.
  EXPECT_GT(cluster.client(0).ops_completed(), 100u);
  EXPECT_TRUE(cluster.checker().clean());
}

TEST(ProtocolEdgeTest, PerObjectAndGlobalChangesInterleavedUnderLoad) {
  Cluster cluster(small_config());
  cluster.preload(100, 1024);
  cluster.set_workload(workload::ycsb_a(100));
  cluster.run_for(milliseconds(300));
  cluster.reconfigure_objects({{1, {5, 1}}, {2, {1, 5}}});
  cluster.reconfigure({4, 2});
  cluster.reconfigure_objects({{1, {3, 3}}});
  cluster.reconfigure({2, 4});
  cluster.run_for(seconds(5));
  EXPECT_EQ(cluster.rm().config().strategy_for(1),
            (kv::QuorumConfig::of(3, 3)));
  EXPECT_EQ(cluster.rm().config().strategy_for(2),
            (kv::QuorumConfig::of(1, 5)));
  EXPECT_EQ(cluster.rm().config().default_q, (kv::QuorumConfig::of(2, 4)));
  for (std::uint32_t i = 0; i < 2; ++i) {
    EXPECT_EQ(cluster.proxy(i).effective_quorum(1), (kv::QuorumConfig::of(3, 3)));
    EXPECT_EQ(cluster.proxy(i).effective_quorum(2), (kv::QuorumConfig::of(1, 5)));
    EXPECT_EQ(cluster.proxy(i).effective_quorum(99),
              (kv::QuorumConfig::of(2, 4)));
  }
  EXPECT_TRUE(cluster.checker().clean());
}

TEST(ProtocolEdgeTest, ReadRepairAcrossManyConfigGenerations) {
  // A version written many configurations ago must still be repaired using
  // the max historical read quorum, even after the config history grows.
  Cluster cluster(small_config());
  cluster.preload(20, 1024);
  // One write burst at W=5 (visible everywhere), then none.
  workload::WorkloadSpec writes;
  writes.write_ratio = 1.0;
  writes.keys = std::make_shared<workload::UniformKeys>(20);
  cluster.reconfigure({1, 5});
  cluster.set_workload(std::make_shared<workload::BasicWorkload>(writes));
  cluster.run_for(seconds(1));
  cluster.stop_clients();
  cluster.run_for(milliseconds(500));
  // Now a W=1 write generation, pinning fresh versions to single replicas.
  cluster.reconfigure({5, 1});
  for (std::uint32_t c = 0; c < cluster.num_clients(); ++c) {
    cluster.client(c).set_source(
        std::make_shared<workload::BasicWorkload>(writes));
    cluster.client(c).start();
  }
  cluster.run_for(seconds(1));
  cluster.stop_clients();
  cluster.run_for(milliseconds(500));
  // Several no-op config flips to deepen the history, then read at R=1.
  cluster.reconfigure({3, 3});
  cluster.run_for(seconds(1));
  cluster.reconfigure({1, 5});
  cluster.run_for(seconds(1));
  workload::WorkloadSpec reads;
  reads.write_ratio = 0.0;
  reads.keys = std::make_shared<workload::UniformKeys>(20);
  for (std::uint32_t c = 0; c < cluster.num_clients(); ++c) {
    cluster.client(c).set_source(
        std::make_shared<workload::BasicWorkload>(reads));
    cluster.client(c).start();
  }
  cluster.run_for(seconds(3));
  EXPECT_TRUE(cluster.checker().clean())
      << "stale read: historical-quorum repair failed across generations";
  EXPECT_GT(cluster.checker().reads_checked(), 100u);
}

// ------------------------------------------------- wire-evolution symmetry
//
// Driven by the committed protocol manifest: every message recorded as
// `versioned = true` in docs/PROTOCOL.toml must have a driver below proving
// (a) the message survives the wire round trip unchanged and (b) a frame
// stamped with a future version is dropped by its handler without touching
// receiver state — while the same frame with the current version applies.
// The closing assertion compares the driver set against the manifest, so a
// newly versioned message fails this test until it gains a driver here.

TEST(WireSymmetryTest, VersionedMessagesRoundTripAndDropFutureFrames) {
  const proto::Manifest manifest = proto::load_manifest(
      std::string(QOPT_SOURCE_ROOT) + "/docs/PROTOCOL.toml");
  ASSERT_TRUE(manifest.errors.empty())
      << proto::format_finding(manifest.errors.front());
  std::set<std::string> versioned;
  for (const auto& message : manifest.messages) {
    if (message.versioned) versioned.insert(message.name);
  }
  ASSERT_FALSE(versioned.empty());

  // One quiescent cluster provides wired-up receivers for the drop checks.
  Cluster cluster(small_config());
  cluster.run_for(milliseconds(100));
  std::set<std::string> covered;

  {  // NewQuorumMsg — RM -> proxy, phase 1 of the two-phase install.
    covered.insert("NewQuorumMsg");
    proxy::Proxy& proxy = cluster.proxy(0);
    kv::NewQuorumMsg msg;
    msg.epno = proxy.epoch();
    msg.cfno = 100;  // far beyond anything the quiescent cluster installed
    msg.change.is_global = true;
    msg.change.global = kv::QuorumStrategy::majority(4, 2, 5);
    msg.config = cluster.rm().config().with_pending(msg.change, msg.cfno);
    ASSERT_TRUE(msg.config.transitional);

    kv::Message frame = msg;        // onto the wire
    const kv::Message copy = frame;  // delivery copies the frame
    const auto* decoded = std::get_if<kv::NewQuorumMsg>(&copy);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->epno, msg.epno);
    EXPECT_EQ(decoded->cfno, msg.cfno);
    EXPECT_EQ(decoded->change, msg.change);
    EXPECT_EQ(decoded->config, msg.config);
    EXPECT_EQ(decoded->strategy_version, kv::QuorumStrategy::kWireVersion);

    const kv::QuorumConfig before = proxy.effective_quorum(0);
    kv::NewQuorumMsg future = msg;
    future.strategy_version = kv::QuorumStrategy::kWireVersion + 1;
    proxy.on_message(sim::rm_id(), kv::Message{future});
    EXPECT_EQ(proxy.effective_quorum(0), before)
        << "future-version NEWQ must be dropped";
    proxy.on_message(sim::rm_id(), kv::Message{msg});
    EXPECT_NE(proxy.effective_quorum(0), before)
        << "current-version NEWQ must apply (the drop above was the tag)";
  }

  {  // NewEpochMsg — RM -> storage, epoch installation.
    covered.insert("NewEpochMsg");
    kv::StorageNode& node = cluster.storage(0);
    kv::NewEpochMsg msg;
    msg.config.epno = node.epoch() + 5;
    msg.config.cfno = 100;
    msg.config.default_q = kv::QuorumStrategy::majority(4, 2, 5);

    kv::Message frame = msg;
    const kv::Message copy = frame;
    const auto* decoded = std::get_if<kv::NewEpochMsg>(&copy);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->config.epno, msg.config.epno);
    EXPECT_EQ(decoded->config.cfno, msg.config.cfno);
    EXPECT_EQ(decoded->config.default_q, msg.config.default_q);
    EXPECT_EQ(decoded->strategy_version, kv::QuorumStrategy::kWireVersion);

    const std::uint64_t before = node.epoch();
    kv::NewEpochMsg future = msg;
    future.strategy_version = kv::QuorumStrategy::kWireVersion + 1;
    node.on_message(sim::rm_id(), kv::Message{future});
    EXPECT_EQ(node.epoch(), before)
        << "future-version NEWEP must be dropped";
    node.on_message(sim::rm_id(), kv::Message{msg});
    EXPECT_EQ(node.epoch(), msg.config.epno)
        << "current-version NEWEP must apply (the drop above was the tag)";
  }

  EXPECT_EQ(covered, versioned)
      << "every `versioned = true` message in docs/PROTOCOL.toml needs a "
         "round-trip + future-version-drop driver in this test";
}

}  // namespace
}  // namespace qopt
