// Unit tests for the proxy's quorum read/write logic (Algorithms 3-5),
// driven through a mini-harness: real storage nodes and a real proxy, with
// the client / RM ends faked by capturing raw wire messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "kv/placement.hpp"
#include "kv/quorum.hpp"
#include "kv/service_model.hpp"
#include "kv/storage_node.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "proxy/proxy.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace qopt::proxy {
namespace {

using kv::Message;
using kv::QuorumConfig;

constexpr std::uint32_t kStorage = 5;
constexpr int kReplication = 5;  // every object on every node: deterministic

struct ProxyHarness : ::testing::Test {
  using Net = sim::Network<Message>;

  sim::Simulator sim;
  Net net{sim, sim::LatencyModel{microseconds(100), 0}, Rng(1)};
  kv::Placement placement{kStorage, kReplication, 0};
  obs::Observability telemetry;  // shared by the proxy and all storage nodes
  std::vector<std::unique_ptr<kv::StorageNode>> storage;
  std::unique_ptr<Proxy> proxy;
  std::vector<Message> client_inbox;
  std::vector<Message> rm_inbox;
  /// The RM's committed configuration: the base every NEWQ carries.
  kv::FullConfig committed;

  void SetUp() override { build({1, 5}); }

  void build(QuorumConfig initial) {
    client_inbox.clear();
    rm_inbox.clear();
    committed = kv::FullConfig{};
    committed.default_q = initial;
    storage.clear();
    telemetry.registry().reset();
    kv::ServiceTimes service;
    service.read_jitter = 0;
    service.write_jitter = 0;
    for (std::uint32_t i = 0; i < kStorage; ++i) {
      storage.push_back(std::make_unique<kv::StorageNode>(
          sim, net, sim::storage_id(i), service, 2, Rng(100 + i),
          telemetry));
      kv::StorageNode* raw = storage.back().get();
      net.register_node(sim::storage_id(i),
                        [raw](const sim::NodeId& from, const Message& m) {
                          raw->on_message(from, m);
                        });
    }
    ProxyOptions options;
    options.initial = initial;
    proxy = std::make_unique<Proxy>(sim, net, sim::proxy_id(0), placement,
                                    options, telemetry);
    net.register_node(sim::proxy_id(0),
                      [this](const sim::NodeId& from, const Message& m) {
                        proxy->on_message(from, m);
                      });
    net.register_node(sim::client_id(0),
                      [this](const sim::NodeId&, const Message& m) {
                        client_inbox.push_back(m);
                      });
    net.register_node(sim::rm_id(),
                      [this](const sim::NodeId&, const Message& m) {
                        rm_inbox.push_back(m);
                      });
  }

  void client_write(kv::ObjectId oid, std::uint64_t req, std::uint64_t value,
                    std::uint64_t size = 1024) {
    net.send(sim::client_id(0), sim::proxy_id(0),
             kv::ClientWriteReq{oid, req, value, size});
  }

  void client_read(kv::ObjectId oid, std::uint64_t req) {
    net.send(sim::client_id(0), sim::proxy_id(0),
             kv::ClientReadReq{oid, req});
  }

  /// RM-side: the NEWQ installing `change` at `cfno`, built as the RM
  /// builds it. Every round a test starts commits (by CONFIRM or by an
  /// epoch change the proxy does not see), so `committed` moves on to it.
  kv::NewQuorumMsg newq(std::uint64_t epno, std::uint64_t cfno,
                        const kv::QuorumChange& change) {
    committed.epno = epno;
    kv::NewQuorumMsg msg{epno, cfno, change, {},
                         committed.with_pending(change, cfno)};
    committed.apply(change);
    committed.cfno = cfno;
    return msg;
  }

  void send_newq(std::uint64_t epno, std::uint64_t cfno,
                 const kv::QuorumChange& change) {
    net.send(sim::rm_id(), sim::proxy_id(0), newq(epno, cfno, change));
  }

  /// RM-side: run the full two-phase handshake for a change.
  void install(std::uint64_t epno, std::uint64_t cfno,
               const kv::QuorumChange& change) {
    send_newq(epno, cfno, change);
    sim.run();
    net.send(sim::rm_id(), sim::proxy_id(0), kv::ConfirmMsg{epno, cfno, {}});
    sim.run();
  }

  void install_global(std::uint64_t epno, std::uint64_t cfno,
                      QuorumConfig q) {
    install(epno, cfno, global(q));
  }

  static kv::QuorumChange global(QuorumConfig q) {
    kv::QuorumChange change;
    change.global = q;
    return change;
  }

  static kv::QuorumChange per_object(kv::ObjectId oid, QuorumConfig q) {
    kv::QuorumChange change;
    change.is_global = false;
    change.overrides = {{oid, q}};
    return change;
  }

  /// Registry value of the proxy's `proxy.0.<field>` counter.
  std::uint64_t proxy_metric(const char* field) const {
    return telemetry.registry().counter_value(
        obs::instrument_name("proxy", 0, field));
  }

  std::uint64_t total_reads_served() const {
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < kStorage; ++i) {
      total += telemetry.registry().counter_value(
          obs::instrument_name("storage", i, "reads_served"));
    }
    return total;
  }

  std::uint64_t replicas_holding(kv::ObjectId oid) const {
    std::uint64_t count = 0;
    for (const auto& node : storage) count += node->peek(oid) != nullptr;
    return count;
  }
};

TEST_F(ProxyHarness, WriteContactsExactlyWriteQuorum) {
  build({4, 2});
  client_write(7, 1, 99);
  sim.run();
  ASSERT_EQ(client_inbox.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<kv::ClientWriteResp>(client_inbox[0]));
  EXPECT_EQ(replicas_holding(7), 2u);  // W=2
}

TEST_F(ProxyHarness, ReadContactsExactlyReadQuorum) {
  build({3, 3});
  client_write(7, 1, 99);
  sim.run();
  const std::uint64_t reads_before = total_reads_served();
  client_read(7, 2);
  sim.run();
  EXPECT_EQ(total_reads_served() - reads_before, 3u);  // R=3
}

TEST_F(ProxyHarness, ReadReturnsFreshestVersionInQuorum) {
  build({5, 1});  // writes land on one replica; R=5 must find the freshest
  client_write(7, 1, 111);
  sim.run();
  client_write(7, 2, 222);
  sim.run();
  client_read(7, 3);
  sim.run();
  ASSERT_EQ(client_inbox.size(), 3u);
  const auto& resp = std::get<kv::ClientReadResp>(client_inbox[2]);
  EXPECT_TRUE(resp.found);
  EXPECT_EQ(resp.version.value, 222u);
}

TEST_F(ProxyHarness, ReadOfUnknownObjectNotFound) {
  client_read(42, 1);
  sim.run();
  const auto& resp = std::get<kv::ClientReadResp>(client_inbox.at(0));
  EXPECT_FALSE(resp.found);
  EXPECT_EQ(proxy_metric("not_found_reads"), 1u);
}

TEST_F(ProxyHarness, NewQuorumAckedAndConfirmedSwitchesConfig) {
  EXPECT_EQ(proxy->default_quorum(), (QuorumConfig::of(1, 5)));
  install_global(0, 1, {4, 2});
  EXPECT_EQ(proxy->default_quorum(), (QuorumConfig::of(4, 2)));
  EXPECT_EQ(proxy->cfno(), 1u);
  EXPECT_FALSE(proxy->in_transition());
  // Both an ACKNEWQ and an ACKCONFIRM must have reached the RM.
  bool acked_newq = false;
  bool acked_confirm = false;
  for (const Message& m : rm_inbox) {
    acked_newq |= std::holds_alternative<kv::AckNewQuorumMsg>(m);
    acked_confirm |= std::holds_alternative<kv::AckConfirmMsg>(m);
  }
  EXPECT_TRUE(acked_newq);
  EXPECT_TRUE(acked_confirm);
}

TEST_F(ProxyHarness, TransitionQuorumIsMaxOfOldAndNew) {
  build({1, 5});
  send_newq(0, 1, global(QuorumConfig::of(5, 1)));
  sim.run();
  EXPECT_TRUE(proxy->in_transition());
  // max(1,5)=5 reads, max(5,1)=5 writes during the transition.
  EXPECT_EQ(proxy->effective_quorum(7), (QuorumConfig::of(5, 5)));
  net.send(sim::rm_id(), sim::proxy_id(0), kv::ConfirmMsg{0, 1, {}});
  sim.run();
  EXPECT_EQ(proxy->effective_quorum(7), (QuorumConfig::of(5, 1)));
}

TEST_F(ProxyHarness, DrainDelaysAckUntilPendingOpsComplete) {
  build({1, 5});
  client_write(7, 1, 99);  // in flight once the proxy processes it
  // Let the proxy start the quorum phase but not finish (storage replies
  // take >= 200us round trip).
  sim.run(microseconds(450));
  EXPECT_EQ(proxy->pending_ops(), 1u);
  send_newq(0, 1, global(QuorumConfig::of(2, 4)));
  sim.run(microseconds(700));  // NEWQ delivered, op still pending
  bool acked = false;
  for (const Message& m : rm_inbox) {
    acked |= std::holds_alternative<kv::AckNewQuorumMsg>(m);
  }
  EXPECT_FALSE(acked) << "ACKNEWQ sent before the old-quorum op drained";
  sim.run();  // finish everything
  for (const Message& m : rm_inbox) {
    acked |= std::holds_alternative<kv::AckNewQuorumMsg>(m);
  }
  EXPECT_TRUE(acked);
  EXPECT_EQ(client_inbox.size(), 1u);
}

TEST_F(ProxyHarness, PerObjectOverrideApplied) {
  kv::QuorumChange change;
  change.is_global = false;
  change.overrides = {{7, QuorumConfig::of(5, 1)}, {8, QuorumConfig::of(3, 3)}};
  install(0, 1, change);
  EXPECT_EQ(proxy->effective_quorum(7), (QuorumConfig::of(5, 1)));
  EXPECT_EQ(proxy->effective_quorum(8), (QuorumConfig::of(3, 3)));
  EXPECT_EQ(proxy->effective_quorum(9), (QuorumConfig::of(1, 5)));  // default
  EXPECT_EQ(proxy->override_count(), 2u);
}

TEST_F(ProxyHarness, TransitionRunsTheEntryACommitKeepsForARepeatedObject) {
  // A per-object change may name one object twice; the commit keeps the
  // last entry (FullConfig::apply), so the transition must run under it
  // too. Under the first entry it would run R3/W5, and its R3 would not
  // meet the W1 of a proxy that already confirmed (3 + 1 <= 5).
  build({3, 3});
  kv::QuorumChange change;
  change.is_global = false;
  change.overrides = {{7, QuorumConfig::of(1, 5)}, {7, QuorumConfig::of(5, 1)}};
  send_newq(0, 1, change);
  sim.run();
  ASSERT_TRUE(proxy->in_transition());
  EXPECT_EQ(proxy->effective_quorum(7), (QuorumConfig::of(5, 3)));
  net.send(sim::rm_id(), sim::proxy_id(0), kv::ConfirmMsg{0, 1, {}});
  sim.run();
  EXPECT_FALSE(proxy->in_transition());
  EXPECT_EQ(proxy->effective_quorum(7), (QuorumConfig::of(5, 1)));
}

TEST_F(ProxyHarness, ReadRepairUsesHistoricalReadQuorum) {
  // cfno 0: {1,5}. Write under W=5. cfno 1: {5,1}: write lands on one
  // replica. cfno 2: {1,5} again: a read with R=1 may miss the cfno-1
  // version; the proxy must detect v.cfno < lcfno and re-read with the
  // largest historical read quorum (5), returning the fresh value.
  client_write(7, 1, 111);
  sim.run();
  install_global(0, 1, {5, 1});
  client_write(7, 2, 222);  // W=1
  sim.run();
  EXPECT_EQ(proxy->cfno(), 1u);
  install_global(0, 2, {1, 5});
  const auto repairs_before = proxy_metric("repair_reads");
  client_read(7, 3);
  sim.run();
  const auto& resp = std::get<kv::ClientReadResp>(client_inbox.back());
  ASSERT_TRUE(resp.found);
  EXPECT_EQ(resp.version.value, 222u) << "stale version returned";
  EXPECT_GE(proxy_metric("repair_reads"), repairs_before);
}

TEST_F(ProxyHarness, RepairedValueWrittenBackUnderCurrentConfig) {
  client_write(7, 1, 111);
  sim.run();
  install_global(0, 1, {5, 1});
  client_write(7, 2, 222);
  sim.run();
  install_global(0, 2, {1, 5});
  client_read(7, 3);
  sim.run();
  EXPECT_GE(proxy_metric("writebacks"), 1u);
  // After the write-back (W=5), the fresh value lives on all replicas with
  // the current cfno: a later R=1 read needs no repair.
  const auto repairs = proxy_metric("repair_reads");
  client_read(7, 4);
  sim.run();
  EXPECT_EQ(proxy_metric("repair_reads"), repairs);
  const auto& resp = std::get<kv::ClientReadResp>(client_inbox.back());
  EXPECT_EQ(resp.version.value, 222u);
}

TEST_F(ProxyHarness, NackResynchronizesAndRetries) {
  // Advance the storage nodes to epoch 3 with config {4,2} behind the
  // proxy's back (as an RM epoch change would).
  kv::FullConfig config;
  config.epno = 3;
  config.cfno = 2;
  config.default_q = QuorumConfig::of(4, 2);
  config.read_q_history = {{0, 1}, {1, 4}, {2, 4}};
  for (std::uint32_t i = 0; i < kStorage; ++i) {
    net.send(sim::rm_id(), sim::storage_id(i), kv::NewEpochMsg{config, {}});
  }
  sim.run();
  client_write(7, 1, 99);
  sim.run();
  // The operation was NACKed, the proxy adopted epoch 3 / config {4,2} and
  // re-executed; the client still gets exactly one reply.
  ASSERT_EQ(client_inbox.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<kv::ClientWriteResp>(client_inbox[0]));
  EXPECT_GE(proxy_metric("nacks_received"), 1u);
  EXPECT_EQ(proxy_metric("op_retries"), 1u);
  EXPECT_EQ(proxy->epoch(), 3u);
  EXPECT_EQ(proxy->default_quorum(), (QuorumConfig::of(4, 2)));
  EXPECT_EQ(replicas_holding(7), 2u);  // retried with W=2
}

TEST_F(ProxyHarness, FallbackContactsRemainingReplicasOnStorageCrash) {
  build({3, 3});
  client_write(7, 1, 99);
  sim.run();
  // Crash two storage nodes that serve the proxy's preferred read subset.
  // Whichever two we pick, R=3 of 5 replicas stays reachable.
  storage[0]->crash();
  storage[1]->crash();
  client_read(7, 2);
  sim.run();
  ASSERT_EQ(client_inbox.size(), 2u);
  const auto& resp = std::get<kv::ClientReadResp>(client_inbox[1]);
  EXPECT_TRUE(resp.found);
  EXPECT_EQ(resp.version.value, 99u);
}

TEST_F(ProxyHarness, StaleNewQuorumStillAcked) {
  const kv::NewQuorumMsg first = newq(0, 1, global(QuorumConfig::of(4, 2)));
  net.send(sim::rm_id(), sim::proxy_id(0), first);
  sim.run();
  net.send(sim::rm_id(), sim::proxy_id(0), kv::ConfirmMsg{0, 1, {}});
  sim.run();
  const std::size_t acks_before = rm_inbox.size();
  // Re-deliver the NEWQ (an RM retransmission): its payload, the R1/W5 base
  // with R4/W2 pending, must not be installed again, but the ACK must flow
  // for RM progress.
  net.send(sim::rm_id(), sim::proxy_id(0), first);
  sim.run();
  EXPECT_EQ(proxy->default_quorum(), (QuorumConfig::of(4, 2)));
  EXPECT_FALSE(proxy->in_transition());
  EXPECT_GT(rm_inbox.size(), acks_before);
}

TEST_F(ProxyHarness, BackToBackNewQuorumCommitsPrevious) {
  send_newq(0, 1, global(QuorumConfig::of(2, 4)));
  sim.run();
  EXPECT_TRUE(proxy->in_transition());
  // Second NEWQ arrives without an intervening CONFIRM (the RM finalized
  // round 1 via an epoch change we did not see); its base is round 1's.
  send_newq(1, 2, global(QuorumConfig::of(3, 3)));
  sim.run();
  EXPECT_TRUE(proxy->in_transition());
  // Transition base is the committed round-1 config {2,4}: max -> {3,4}.
  EXPECT_EQ(proxy->effective_quorum(7), (QuorumConfig::of(3, 4)));
  net.send(sim::rm_id(), sim::proxy_id(0), kv::ConfirmMsg{1, 2, {}});
  sim.run();
  EXPECT_EQ(proxy->default_quorum(), (QuorumConfig::of(3, 3)));
}

TEST_F(ProxyHarness, WritesDuringATransitionCarryTheCommittedCfno) {
  // While cfno 1 drains, a version is tagged with the committed cfno 0:
  // reads under cfno 1 then treat it as older than their configuration and
  // repair against cfno 0's write quorums instead of trusting it.
  send_newq(0, 1, global(QuorumConfig::of(5, 1)));
  sim.run();
  ASSERT_TRUE(proxy->in_transition());
  client_write(7, 1, 111);  // transition quorum {5,5}: every replica
  sim.run();
  ASSERT_EQ(replicas_holding(7), kStorage);
  for (const auto& node : storage) EXPECT_EQ(node->peek(7)->cfno, 0u);

  net.send(sim::rm_id(), sim::proxy_id(0), kv::ConfirmMsg{0, 1, {}});
  sim.run();
  ASSERT_FALSE(proxy->in_transition());
  client_write(7, 2, 222);  // W=1 under the committed cfno 1
  sim.run();
  int fresh = 0;
  for (const auto& node : storage) {
    if (node->peek(7)->value != 222u) continue;
    ++fresh;
    EXPECT_EQ(node->peek(7)->cfno, 1u);
  }
  EXPECT_EQ(fresh, 1);
}

TEST_F(ProxyHarness, NewqBaseReplacesTheOneAProxyMissedAnEpochChangeFor) {
  // The proxy missed round 1, which made R4/W2 the default through epoch
  // changes it never saw, and stayed at epoch 0 with R2/W4. The NEWQ of the
  // next round, a per-object change at epoch 2, carries round 1's base, so
  // objects the change leaves alone run R4/W2, not the stale R2/W4.
  build({2, 4});
  newq(1, 1, global(QuorumConfig::of(4, 2)));  // never delivered
  send_newq(2, 2, per_object(7, QuorumConfig::of(5, 1)));
  sim.run();
  EXPECT_EQ(proxy->epoch(), 2u);
  ASSERT_TRUE(proxy->in_transition());
  EXPECT_EQ(proxy->effective_quorum(8), (QuorumConfig::of(4, 2)));
  EXPECT_EQ(proxy->effective_quorum(7), (QuorumConfig::of(5, 2)));
  net.send(sim::rm_id(), sim::proxy_id(0), kv::ConfirmMsg{2, 2, {}});
  sim.run();
  EXPECT_FALSE(proxy->in_transition());
  EXPECT_EQ(proxy->default_quorum(), (QuorumConfig::of(4, 2)));
  EXPECT_EQ(proxy->effective_quorum(8), (QuorumConfig::of(4, 2)));
  EXPECT_EQ(proxy->effective_quorum(7), (QuorumConfig::of(5, 1)));
}

TEST_F(ProxyHarness, CrashedProxyStopsResponding) {
  proxy->crash();
  client_read(7, 1);
  sim.run();
  EXPECT_TRUE(client_inbox.empty());
}

TEST_F(ProxyHarness, MonitoringRoundReportsStats) {
  client_write(7, 1, 99, 2048);
  sim.run();
  net.send(sim::am_id(), sim::proxy_id(0),
           kv::NewTopKMsg{0, {7}});
  sim.run();
  std::vector<Message> am_inbox;
  net.register_node(sim::am_id(),
                    [&](const sim::NodeId&, const Message& m) {
                      am_inbox.push_back(m);
                    });
  net.send(sim::am_id(), sim::proxy_id(0),
           kv::NewRoundMsg{1, milliseconds(100)});
  sim.run(sim.now() + milliseconds(40));
  client_write(7, 2, 100, 2048);
  client_read(7, 3);
  client_read(8, 4);
  sim.run();
  ASSERT_EQ(am_inbox.size(), 1u);
  const auto& stats = std::get<kv::RoundStatsMsg>(am_inbox[0]);
  EXPECT_EQ(stats.round, 1u);
  ASSERT_EQ(stats.stats_topk.size(), 1u);
  EXPECT_EQ(stats.stats_topk[0].oid, 7u);
  EXPECT_EQ(stats.stats_topk[0].writes, 1u);
  EXPECT_EQ(stats.stats_topk[0].reads, 1u);
  EXPECT_GT(stats.stats_topk[0].avg_size_bytes, 0.0);
  // Object 8 (not monitored, no override) lands in the tail aggregate.
  EXPECT_GE(stats.stats_tail.reads, 1u);
  EXPECT_GT(stats.throughput_ops, 0.0);
  // Candidate hotspots exclude the already-monitored object 7.
  for (const auto& candidate : stats.topk) EXPECT_NE(candidate.oid, 7u);
}

// ------------------------------------------------------------- op table

TEST_F(ProxyHarness, DeadlineScanAndDrainFollowOpIdsAfterRecyclingAndRekey) {
  // Pending ops live in recycled slots, so slot order and op-id order
  // differ; the deadline scan and the NEWQ drain must still walk ops by id.
  build({1, 5});
  for (std::uint64_t r = 1; r <= 4; ++r) client_read(r, r);
  sim.run();  // four ops complete: four slots back on the free list
  ASSERT_EQ(client_inbox.size(), 4u);
  ASSERT_EQ(proxy->pending_ops(), 0u);

  // Storage goes silent: requests are recorded (arrival, op id), never
  // answered, so the ops below stay pending.
  std::vector<std::pair<Time, std::uint64_t>> sent;
  for (std::uint32_t i = 0; i < kStorage; ++i) {
    net.register_node(sim::storage_id(i),
                      [&](const sim::NodeId&, const Message& m) {
                        if (const auto* req =
                                std::get_if<kv::StorageReadReq>(&m)) {
                          sent.emplace_back(sim.now(), req->op_id);
                        }
                      });
  }
  // Op ids of the requests sent in one instant, in delivery order. They
  // arrive 100us later, a nanosecond apart where they share a link (the
  // network keeps each link FIFO).
  const auto ids_sent_at = [&](Time at) {
    std::vector<std::uint64_t> ids;
    for (const auto& [when, id] : sent) {
      const Duration after = when - at - microseconds(100);
      const bool in_instant = after >= 0 && after < microseconds(1);
      if (in_instant && (ids.empty() || ids.back() != id)) ids.push_back(id);
    }
    return ids;
  };

  client_read(10, 10);
  client_read(11, 11);
  sim.run(sim.now() + milliseconds(1));
  ASSERT_EQ(sent.size(), 2u);  // R=1: one request each
  const std::uint64_t nacked = sent[0].second;
  const std::uint64_t early = sent[1].second;

  // In one instant T: the NACK re-keys the first op (same slot, new id at
  // the tail of the index) and two new reads launch from recycled slots.
  // Client requests take 100us on the wire plus 60us of proxy CPU; the
  // NACK takes 100us on the wire.
  const Time t = sim.now() + milliseconds(1);
  sim.run(t - microseconds(60));
  client_read(12, 12);
  client_read(13, 13);
  sim.run(t);
  net.send(sim::storage_id(0), sim::proxy_id(0),
           kv::EpochNack{nacked, kv::FullConfig{}});
  const Time launched = t + microseconds(100);
  sim.run(launched + milliseconds(1));
  EXPECT_EQ(proxy_metric("op_retries"), 1u);
  const std::vector<std::uint64_t> relaunched = ids_sent_at(launched);
  ASSERT_EQ(relaunched.size(), 3u);
  EXPECT_TRUE(std::is_sorted(relaunched.begin(), relaunched.end()));
  EXPECT_GT(relaunched.front(), early);
  EXPECT_EQ(std::count(relaunched.begin(), relaunched.end(), nacked), 0);

  // Their fallback deadlines are due together: one scan contacts the
  // remaining replicas of all three, in op-id order.
  const Time scan = launched + Proxy::kFallbackTimeout;
  sim.run(scan + milliseconds(1));
  EXPECT_EQ(ids_sent_at(scan), relaunched);
  EXPECT_EQ(proxy_metric("fallbacks"), 4u);

  // The NEWQ drain counts exactly the four ops pending at its arrival; an
  // op issued afterwards does not hold the acknowledgement back.
  send_newq(0, 1, global(QuorumConfig::of(1, 5)));
  sim.run(sim.now() + milliseconds(1));
  client_read(14, 14);
  sim.run(sim.now() + milliseconds(1));
  ASSERT_EQ(proxy->pending_ops(), 5u);
  const auto acked = [&] {
    return std::any_of(rm_inbox.begin(), rm_inbox.end(), [](const Message& m) {
      return std::holds_alternative<kv::AckNewQuorumMsg>(m);
    });
  };
  std::vector<std::uint64_t> draining = {early};
  draining.insert(draining.end(), relaunched.begin(), relaunched.end());
  for (std::size_t i = 0; i < draining.size(); ++i) {
    EXPECT_FALSE(acked()) << "ACKNEWQ before op " << draining[i] << " drained";
    net.send(sim::storage_id(1), sim::proxy_id(0),
             kv::StorageReadResp{draining[i], false, {}});
    sim.run(sim.now() + milliseconds(1));
  }
  EXPECT_TRUE(acked());
  EXPECT_EQ(proxy->pending_ops(), 1u);  // the read issued after the NEWQ

  proxy->crash();
  EXPECT_EQ(proxy->pending_ops(), 0u);
}

TEST_F(ProxyHarness, RecycledSlotsCarryTenThousandOpsWithoutGrowingTheSlab) {
  build({3, 3});
  const auto burst = [&](std::uint64_t round) {
    // Four concurrent ops per round: two writes and two reads.
    client_write(round % 50, 4 * round, round);
    client_write(round % 50 + 50, 4 * round + 1, round);
    client_read(round % 50, 4 * round + 2);
    client_read(round % 50 + 100, 4 * round + 3);
    sim.run();
  };
  burst(0);
  const std::size_t slots = proxy->op_slots();
  EXPECT_GE(slots, 1u);
  EXPECT_LE(slots, 4u);
  for (std::uint64_t round = 1; round < 2500; ++round) burst(round);
  EXPECT_EQ(client_inbox.size(), 10'000u);
  EXPECT_EQ(proxy->pending_ops(), 0u);
  EXPECT_EQ(proxy->op_slots(), slots);
}

}  // namespace
}  // namespace qopt::proxy
