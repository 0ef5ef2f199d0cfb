// Robustness under an unreliable network: the link-fault plane (loss,
// duplication, delay spikes, partitions), at-least-once retransmits with
// storage-side dedup, crash-recovery, and the dense chaos acceptance scenario — all with the Dynamic Quorum
// Consistency checker as the safety oracle and "no stuck client operation"
// as the liveness oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "core/cluster.hpp"
#include "core/nemesis.hpp"
#include "kv/service_model.hpp"
#include "kv/storage_node.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace qopt {
namespace {

// ---------------------------------------------------- network fault plane

struct NetFixture : ::testing::Test {
  using Net = sim::Network<int>;

  /// The bound registry's `net.<name>` counter.
  std::uint64_t counter(const std::string& name) const {
    return telemetry.registry().counter_value("net." + name);
  }

  obs::Observability telemetry;
  sim::Simulator sim;
  Net net{sim, sim::LatencyModel{microseconds(100), 0}, Rng(42)};
  std::vector<int> inbox_a;
  std::vector<int> inbox_b;

  void SetUp() override {
    net.bind_observability(&telemetry);
    net.register_node(sim::storage_id(0),
                      [this](const sim::NodeId&, int m) {
                        inbox_a.push_back(m);
                      });
    net.register_node(sim::storage_id(1),
                      [this](const sim::NodeId&, int m) {
                        inbox_b.push_back(m);
                      });
  }
};

TEST_F(NetFixture, LinkLossDropsWithItsOwnReason) {
  net.set_loss(1.0);
  for (int i = 0; i < 10; ++i) {
    net.send(sim::storage_id(0), sim::storage_id(1), i);
  }
  sim.run();
  EXPECT_TRUE(inbox_b.empty());
  EXPECT_EQ(counter("dropped.link_loss"), 10u);
  EXPECT_EQ(counter("messages_delivered"), 0u);
  net.set_loss(0.0);
  net.send(sim::storage_id(0), sim::storage_id(1), 99);
  sim.run();
  EXPECT_EQ(inbox_b.size(), 1u);
}

TEST_F(NetFixture, DuplicationDeliversASecondCopyAfterTheFirst) {
  net.set_duplication(1.0);
  net.send(sim::storage_id(0), sim::storage_id(1), 7);
  sim.run();
  ASSERT_EQ(inbox_b.size(), 2u);
  EXPECT_EQ(inbox_b[0], 7);
  EXPECT_EQ(inbox_b[1], 7);
  EXPECT_EQ(counter("duplicated"), 1u);
  // Duplicates are deliveries, not drops: one send, two deliveries.
  EXPECT_EQ(counter("messages_sent"), 1u);
  EXPECT_EQ(counter("messages_delivered"), 2u);
}

TEST_F(NetFixture, DelaySpikeAddsLatencyWithoutLosingTheMessage) {
  net.set_delay_spike(1.0, milliseconds(50));
  const Time t0 = sim.now();
  Time delivered_at = 0;
  net.register_node(sim::storage_id(2),
                    [&](const sim::NodeId&, int) {
                      delivered_at = sim.now();
                    });
  net.send(sim::storage_id(0), sim::storage_id(2), 1);
  sim.run();
  EXPECT_GE(delivered_at - t0, milliseconds(50));
  EXPECT_EQ(counter("delay_spikes"), 1u);
  EXPECT_EQ(counter("messages_delivered"), 1u);
}

TEST_F(NetFixture, EachDelaySpikeIsCountedOnce) {
  // Spike-free networks register no `net.delay_spikes` at all.
  EXPECT_EQ(telemetry.registry().snapshot().counters.count("net.delay_spikes"),
            0u);
  net.set_delay_spike(0.5, milliseconds(5));
  std::uint64_t spiked = 0;
  for (int i = 0; i < 200; ++i) {
    // One message in the air at a time, so no FIFO clamp hides a spike.
    const Time sent = sim.now();
    net.send(sim::storage_id(0), sim::storage_id(1), i);
    sim.run();
    if (sim.now() - sent >= milliseconds(5)) ++spiked;
  }
  EXPECT_GT(spiked, 0u);
  EXPECT_LT(spiked, 200u);
  EXPECT_EQ(counter("delay_spikes"), spiked);
}

TEST(NetworkSpikeCounter, BindingAfterSpikesAreOnRegistersIt) {
  obs::Observability first;
  obs::Observability second;
  sim::Simulator sim;
  sim::Network<int> net{sim, sim::LatencyModel{microseconds(100), 0}, Rng(1)};
  net.register_node(sim::storage_id(1), [](const sim::NodeId&, int) {});
  net.set_delay_spike(1.0, milliseconds(5));
  net.bind_observability(&first);
  net.send(sim::storage_id(0), sim::storage_id(1), 1);
  sim.run();
  // Rebinding moves the spike count to the new bundle with the rest.
  net.bind_observability(&second);
  net.send(sim::storage_id(0), sim::storage_id(1), 2);
  sim.run();
  EXPECT_EQ(first.registry().counter_value("net.delay_spikes"), 1u);
  EXPECT_EQ(second.registry().counter_value("net.delay_spikes"), 1u);
}

TEST(ClusterNetworkCounters, SpikeFreeSnapshotHasNoDelaySpikeKey) {
  ClusterConfig config;
  config.num_storage = 3;
  config.num_proxies = 1;
  config.clients_per_proxy = 2;
  config.replication = 3;
  config.initial_quorum = kv::QuorumConfig::of(2, 2);
  config.net_loss = 0.01;
  const auto counters = [&config] {
    Cluster cluster(config);
    cluster.preload(100, 1024);
    cluster.set_workload(workload::ycsb_a(100));
    cluster.run_for(seconds(1));
    EXPECT_GT(cluster.report().messages_sent, 0u);
    return cluster.obs().registry().snapshot().counters;
  };
  EXPECT_EQ(counters().count("net.delay_spikes"), 0u);
  config.net_delay_spike_p = 0.1;
  const auto spiky = counters();
  ASSERT_EQ(spiky.count("net.delay_spikes"), 1u);
  EXPECT_GT(spiky.at("net.delay_spikes"), 0u);
  EXPECT_LT(spiky.at("net.delay_spikes"), spiky.at("net.messages_sent"));
}

TEST_F(NetFixture, SymmetricPartitionCutsBothDirectionsUntilHealed) {
  const std::uint64_t id = net.add_partition({sim::storage_id(0)},
                                             {sim::storage_id(1)},
                                             /*symmetric=*/true);
  net.send(sim::storage_id(0), sim::storage_id(1), 1);
  net.send(sim::storage_id(1), sim::storage_id(0), 2);
  sim.run();
  EXPECT_TRUE(inbox_a.empty());
  EXPECT_TRUE(inbox_b.empty());
  EXPECT_EQ(counter("dropped.partitioned"), 2u);
  EXPECT_TRUE(net.heal_partition(id));
  EXPECT_FALSE(net.heal_partition(id));  // already healed
  net.send(sim::storage_id(0), sim::storage_id(1), 3);
  sim.run();
  EXPECT_EQ(inbox_b.size(), 1u);
}

TEST_F(NetFixture, OneWayPartitionOnlyBlocksTheNamedDirection) {
  net.add_partition({sim::storage_id(0)}, {sim::storage_id(1)},
                    /*symmetric=*/false);
  net.send(sim::storage_id(0), sim::storage_id(1), 1);  // blocked
  net.send(sim::storage_id(1), sim::storage_id(0), 2);  // passes
  sim.run();
  EXPECT_TRUE(inbox_b.empty());
  ASSERT_EQ(inbox_a.size(), 1u);
  EXPECT_EQ(inbox_a[0], 2);
}

TEST_F(NetFixture, PartitionCutsMessagesAlreadyInFlight) {
  net.send(sim::storage_id(0), sim::storage_id(1), 1);
  // The partition lands while the message is still in the air (delivery
  // checks run at arrival time, like a crashed receiver).
  net.add_partition({sim::storage_id(0)}, {sim::storage_id(1)});
  sim.run();
  EXPECT_TRUE(inbox_b.empty());
  EXPECT_EQ(counter("dropped.partitioned"), 1u);
}

TEST(NetworkFaultDeterminism, SameSeedSameFaultSchedule) {
  const auto run = [] {
    obs::Observability telemetry;
    sim::Simulator sim;
    sim::Network<int> net{sim, sim::LatencyModel{microseconds(100),
                                                 microseconds(200)},
                          Rng(7)};
    net.bind_observability(&telemetry);
    std::uint64_t received = 0;
    net.register_node(sim::storage_id(1),
                      [&](const sim::NodeId&, int) { ++received; });
    net.set_loss(0.2);
    net.set_duplication(0.1);
    net.set_delay_spike(0.05, milliseconds(10));
    for (int i = 0; i < 500; ++i) {
      net.send(sim::storage_id(0), sim::storage_id(1), i);
    }
    sim.run();
    const obs::MetricRegistry& reg = telemetry.registry();
    return std::tuple{received, reg.counter_value("net.dropped.link_loss"),
                      reg.counter_value("net.duplicated"),
                      reg.counter_value("net.delay_spikes")};
  };
  EXPECT_EQ(run(), run());
}

// ------------------------------------------------ storage-side idempotence

struct DedupFixture : ::testing::Test {
  using Net = sim::Network<kv::Message>;

  obs::Observability telemetry;
  sim::Simulator sim;
  Net net{sim, sim::LatencyModel{microseconds(50), 0}, Rng(17)};
  kv::ServiceTimes service;
  std::unique_ptr<kv::StorageNode> node;
  std::vector<kv::Message> proxy_inbox;

  void SetUp() override {
    service.read_jitter = 0;
    service.write_jitter = 0;
    node = std::make_unique<kv::StorageNode>(sim, net, sim::storage_id(0),
                                             service, 2, Rng(1), telemetry);
    net.register_node(sim::storage_id(0),
                      [this](const sim::NodeId& from, const kv::Message& m) {
                        node->on_message(from, m);
                      });
    net.register_node(sim::proxy_id(0),
                      [this](const sim::NodeId&, const kv::Message& m) {
                        proxy_inbox.push_back(m);
                      });
  }

  std::uint64_t counter(const char* name) const {
    return telemetry.registry().counter_value(
        obs::instrument_name("storage", 0, name));
  }
};

TEST_F(DedupFixture, TwiceDeliveredWriteIsAppliedOnceAndAckedTwice) {
  kv::Version v;
  v.ts = {100, 0, 1};
  v.value = 5;
  const kv::StorageWriteReq req{7, /*op_id=*/1, /*epno=*/0, v, {}};
  net.send(sim::proxy_id(0), sim::storage_id(0), req);
  sim.run();
  net.send(sim::proxy_id(0), sim::storage_id(0), req);  // retransmit / dup
  sim.run();
  // Both copies answered (the proxy's reply may have been the lost one),
  // but the write ran once.
  ASSERT_EQ(proxy_inbox.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<kv::StorageWriteResp>(proxy_inbox[0]));
  EXPECT_TRUE(std::holds_alternative<kv::StorageWriteResp>(proxy_inbox[1]));
  EXPECT_EQ(counter("writes_applied"), 1u);
  EXPECT_EQ(counter("dup_writes_ignored"), 1u);
  ASSERT_NE(node->peek(7), nullptr);
  EXPECT_EQ(node->peek(7)->value, 5u);
}

TEST_F(DedupFixture, DedupIsPerProxyOpIdNotGlobal) {
  net.register_node(sim::proxy_id(1),
                    [](const sim::NodeId&, const kv::Message&) {});
  kv::Version v;
  v.ts = {100, 0, 1};
  v.value = 5;
  // Same op id from two different proxies: distinct operations, both run.
  net.send(sim::proxy_id(0), sim::storage_id(0),
           kv::StorageWriteReq{7, 1, 0, v, {}});
  sim.run();
  kv::Version newer = v;
  newer.ts = {200, 1, 1};
  newer.value = 6;
  net.send(sim::proxy_id(1), sim::storage_id(0),
           kv::StorageWriteReq{7, 1, 0, newer, {}});
  sim.run();
  EXPECT_EQ(counter("dup_writes_ignored"), 0u);
  EXPECT_EQ(counter("writes_applied"), 2u);
}

TEST_F(DedupFixture, CrashClearsTheDedupTableWithTheRam) {
  kv::Version v;
  v.ts = {100, 0, 1};
  v.value = 5;
  const kv::StorageWriteReq req{7, 1, 0, v, {}};
  net.send(sim::proxy_id(0), sim::storage_id(0), req);
  sim.run();
  node->crash();
  node->restart();
  // Post-restart re-delivery re-applies (freshest-wins keeps it harmless).
  net.send(sim::proxy_id(0), sim::storage_id(0), req);
  sim.run();
  EXPECT_EQ(counter("dup_writes_ignored"), 0u);
  EXPECT_EQ(counter("restarts"), 1u);
  ASSERT_NE(node->peek(7), nullptr);  // durable across the crash
  EXPECT_EQ(node->peek(7)->value, 5u);
}

// ---------------------------------------------------- cluster-level faults

ClusterConfig lossy_config(std::uint64_t seed) {
  ClusterConfig config;
  config.num_storage = 7;
  config.num_proxies = 3;
  config.clients_per_proxy = 3;
  config.replication = 5;
  config.initial_quorum = {3, 3};
  config.seed = seed;
  config.client_retry_timeout = milliseconds(500);
  return config;
}

// Every in-flight client operation must resolve: completed, or reported
// failed within the proxy's retry budget. Quiesce long enough for the
// slowest full backoff ladder (~16 s at the defaults) and check no client
// is still waiting.
void expect_no_stuck_clients(Cluster& cluster) {
  cluster.stop_clients();
  cluster.run_for(seconds(20));
  for (std::uint32_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_FALSE(cluster.client(i).op_in_flight())
        << "client " << i << " stuck mid-operation";
  }
}

TEST(LossyClusterTest, RetransmitsKeepEveryOperationLive) {
  ClusterConfig config = lossy_config(11);
  config.net_loss = 0.05;
  Cluster cluster(config);
  cluster.preload(500, 1024);
  cluster.set_workload(workload::ycsb_a(500));
  cluster.run_for(seconds(20));

  const obs::RunReport report = cluster.report();
  EXPECT_GT(report.dropped_link_loss, 0u);
  EXPECT_EQ(report.consistency_violations, 0u);
  std::uint64_t retries = 0;
  for (std::uint32_t i = 0; i < config.num_proxies; ++i) {
    retries += cluster.obs().registry().counter_value(
        obs::instrument_name("proxy", i, "retries"));
  }
  EXPECT_GT(retries, 0u) << "5% loss must trigger proxy retransmits";
  std::uint64_t completed = 0;
  for (std::uint32_t i = 0; i < cluster.num_clients(); ++i) {
    completed += cluster.client(i).ops_completed();
  }
  EXPECT_GT(completed, 1'000u);
  expect_no_stuck_clients(cluster);
}

TEST(LossyClusterTest, DuplicateDeliveryIsHarmlessEndToEnd) {
  ClusterConfig config = lossy_config(12);
  config.net_duplication = 0.05;
  Cluster cluster(config);
  cluster.preload(500, 1024);
  cluster.set_workload(workload::ycsb_a(500));
  cluster.run_for(seconds(15));

  const obs::RunReport report = cluster.report();
  EXPECT_GT(report.duplicates_delivered, 0u);
  EXPECT_EQ(report.consistency_violations, 0u);
  // Both dedup layers saw action: replicas ignoring replayed writes and
  // proxies ignoring replayed replies.
  std::uint64_t dup_replies = 0;
  for (std::uint32_t i = 0; i < config.num_proxies; ++i) {
    dup_replies += cluster.obs().registry().counter_value(
        obs::instrument_name("proxy", i, "duplicate_replies"));
  }
  EXPECT_GT(dup_replies, 0u);
  expect_no_stuck_clients(cluster);
}

TEST(CrashRecoveryTest, StorageNodeRejoinsWithDurableState) {
  ClusterConfig config = lossy_config(14);
  Cluster cluster(config);
  cluster.preload(500, 1024);
  cluster.set_workload(workload::ycsb_a(500));
  cluster.run_for(seconds(3));
  cluster.crash_storage(0);
  // A reconfiguration (with its epoch change) happens while the node is
  // down, so it rejoins with a stale epoch and resynchronizes via NACK.
  cluster.reconfigure({4, 2});
  cluster.run_for(seconds(3));
  const std::uint64_t reads_while_down =
      cluster.obs().registry().counter_value(
          obs::instrument_name("storage", 0, "reads_served"));
  cluster.restart_storage(0);
  cluster.run_for(seconds(5));

  EXPECT_EQ(cluster.obs().registry().counter_value(
                obs::instrument_name("storage", 0, "restarts")),
            1u);
  EXPECT_GT(cluster.obs().registry().counter_value(
                obs::instrument_name("storage", 0, "reads_served")),
            reads_while_down)
      << "restarted node never served again";
  EXPECT_EQ(cluster.report().consistency_violations, 0u);
  expect_no_stuck_clients(cluster);
}

TEST(CrashRecoveryTest, ProxyRelearnsTheEpochThroughTheNackPath) {
  ClusterConfig config = lossy_config(15);
  Cluster cluster(config);
  cluster.preload(500, 1024);
  cluster.set_workload(workload::ycsb_a(500));
  cluster.run_for(seconds(2));
  cluster.crash_proxy(0);
  bool reconfigured = false;
  cluster.reconfigure({4, 2}, [&](bool ok) { reconfigured = ok; });
  cluster.run_for(seconds(3));
  ASSERT_TRUE(reconfigured);
  cluster.restart_proxy(0);
  // Drive an operation through the restarted proxy directly: its epoch is
  // stale, so the first storage contact NACKs and resynchronizes it.
  cluster.network().send(sim::client_id(0), sim::proxy_id(0),
                         kv::Message{kv::ClientReadReq{1, 1 << 20}});
  cluster.run_for(seconds(3));

  const auto proxy_counter = [&](const char* name) {
    return cluster.obs().registry().counter_value(
        obs::instrument_name("proxy", 0, name));
  };
  EXPECT_EQ(proxy_counter("restarts"), 1u);
  EXPECT_GE(proxy_counter("nacks_received"), 1u)
      << "stale restarted proxy should have been NACKed into the new epoch";
  EXPECT_EQ(cluster.report().consistency_violations, 0u);
  expect_no_stuck_clients(cluster);
}

// ------------------------------------------------- acceptance: dense chaos

// The issue's acceptance scenario: 1% link loss, duplicate delivery, a
// partition/heal cycle and crash-recovery events in one schedule — zero
// violations, zero stuck clients, and a byte-identical report on rerun.
struct ChaosOutcome {
  std::string report_json;
  std::map<std::string, std::uint64_t> counters;  // registry, end of run
  bool clean = false;
  bool all_resolved = false;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
};

ChaosOutcome run_dense_chaos(std::uint64_t seed) {
  ClusterConfig config = lossy_config(seed);
  config.net_loss = 0.01;
  config.net_duplication = 0.005;
  Cluster cluster(config);
  cluster.preload(500, 1024);
  cluster.set_workload(workload::ycsb_a(500));

  NemesisOptions options;
  options.mean_interval = milliseconds(250);
  options.partition = 2.0;
  options.loss_burst = 1.0;
  options.restart = 4.0;
  options.seed = seed * 31 + 5;
  Nemesis nemesis(cluster, options);
  nemesis.start();
  cluster.run_for(seconds(30));
  nemesis.stop();
  cluster.heal_all_partitions();
  cluster.stop_clients();
  cluster.run_for(seconds(20));  // quiesce past the longest backoff ladder

  ChaosOutcome out;
  out.counters = cluster.obs().registry().snapshot().counters;
  out.clean = cluster.checker().clean();
  out.all_resolved = true;
  for (std::uint32_t i = 0; i < cluster.num_clients(); ++i) {
    out.all_resolved &= !cluster.client(i).op_in_flight();
    out.completed += cluster.client(i).ops_completed();
    out.failed += cluster.client(i).failures();
  }
  out.report_json = cluster.report().to_json();
  return out;
}

TEST(ChaosAcceptanceTest, DenseScheduleIsSafeLiveAndDeterministic) {
  const ChaosOutcome out = run_dense_chaos(3);
  EXPECT_TRUE(out.clean) << "consistency violations under dense chaos";
  EXPECT_TRUE(out.all_resolved) << "a client operation is stuck";
  EXPECT_GT(out.completed, 1'000u);
  // The schedule really exercised the new fault kinds.
  EXPECT_GE(out.counters.at("nemesis.partitions"), 1u);
  EXPECT_EQ(out.counters.at("nemesis.partitions"),
            out.counters.at("nemesis.heals"));
  EXPECT_GE(out.counters.at("nemesis.loss_bursts"), 1u);
  EXPECT_GE(out.counters.at("nemesis.restarts"), 2u);

  // Byte-identical rerun: the whole scenario, fault plane included, is a
  // pure function of the seed.
  const ChaosOutcome again = run_dense_chaos(3);
  EXPECT_EQ(out.report_json, again.report_json);
  EXPECT_EQ(out.completed, again.completed);
  EXPECT_EQ(out.failed, again.failed);
}

// ------------------------------------------- acceptance: RM leader chaos

// The replicated-RM acceptance scenario: the nemesis repeatedly crashes and
// partitions the RM leader while its own reconfiguration events keep rounds
// in flight — rounds must survive failovers (no lost or doubled commits),
// clients must never get stuck, and the whole run must replay byte-identical
// from the seed.
ChaosOutcome run_rm_chaos(std::uint64_t seed) {
  ClusterConfig config = lossy_config(seed);
  config.rm_replicas = 3;
  Cluster cluster(config);
  cluster.preload(500, 1024);
  cluster.set_workload(workload::ycsb_a(500));

  NemesisOptions options;
  options.mean_interval = milliseconds(250);
  options.rm_crash = 2.0;
  options.rm_partition = 2.0;
  options.max_rm_outage = seconds(1);
  options.seed = seed * 17 + 9;
  Nemesis nemesis(cluster, options);
  nemesis.start();
  cluster.run_for(seconds(30));
  nemesis.stop();
  cluster.stop_clients();
  cluster.run_for(seconds(20));  // pending RM restarts/heals fire in here

  ChaosOutcome out;
  out.counters = cluster.obs().registry().snapshot().counters;
  out.clean = cluster.checker().clean();
  out.all_resolved = true;
  for (std::uint32_t i = 0; i < cluster.num_clients(); ++i) {
    out.all_resolved &= !cluster.client(i).op_in_flight();
    out.completed += cluster.client(i).ops_completed();
    out.failed += cluster.client(i).failures();
  }
  out.report_json = cluster.report().to_json();
  return out;
}

TEST(RmChaosAcceptanceTest, LeaderFaultsAreSafeLiveAndDeterministic) {
  const ChaosOutcome out = run_rm_chaos(4);
  EXPECT_TRUE(out.clean) << "consistency violations under RM leader chaos";
  EXPECT_TRUE(out.all_resolved) << "a client operation is stuck";
  EXPECT_GT(out.completed, 1'000u);
  // The schedule really exercised both RM fault kinds, alongside the
  // reconfiguration traffic that keeps rounds in flight when they strike.
  EXPECT_GE(out.counters.at("nemesis.rm_crashes"), 1u);
  EXPECT_GE(out.counters.at("nemesis.rm_partitions"), 1u);
  EXPECT_GE(out.counters.at("nemesis.reconfigurations"), 1u);
  EXPECT_NE(out.report_json.find("\"rm_leader_changes\":"),
            std::string::npos);

  const ChaosOutcome again = run_rm_chaos(4);
  EXPECT_EQ(out.report_json, again.report_json);
  EXPECT_EQ(out.completed, again.completed);
  EXPECT_EQ(out.failed, again.failed);
}

}  // namespace
}  // namespace qopt
