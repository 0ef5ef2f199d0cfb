// The proxy's per-proxy deadline index and the network's in-flight slab.
//
// Fallback and retransmit deadlines live on each pending operation, and a
// single simulator event per proxy stays armed at the earliest one, so a
// completed operation leaves nothing behind in the event queue. In-flight
// messages are staged in a per-network slab and scheduled as a two-word
// closure. These tests pin the queue bound, the virtual instants at which
// fallbacks and retransmits fire, the read-repair and crash/restart edge
// cases, and the slab's reuse and mid-delivery growth (run them under the
// asan-ubsan preset too: a stale slab reference is a heap-use-after-free).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/client.hpp"
#include "core/cluster.hpp"
#include "kv/placement.hpp"
#include "kv/quorum.hpp"
#include "kv/service_model.hpp"
#include "kv/storage_node.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "proxy/proxy.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace qopt {
namespace {

// ------------------------------------------------------------ queue bound

ClusterConfig small_cluster() {
  ClusterConfig config;
  config.num_storage = 5;
  config.num_proxies = 2;
  config.clients_per_proxy = 8;
  config.replication = 3;
  config.initial_quorum = kv::QuorumConfig::of(2, 2);
  config.check_consistency = false;
  config.seed = 3;
  return config;
}

TEST(DeadlineIndexTest, QueueDepthHasNoPerOpTimerTerm) {
  const ClusterConfig config = small_cluster();
  Cluster cluster(config);
  cluster.preload(512, 1024);
  cluster.set_workload(workload::ycsb_b(512));
  cluster.run_for(seconds(1));

  // Every pending event is a message in flight, one unit of queued proxy or
  // storage work (a closed-loop client has one op, fanned out to at most
  // `replication` replicas), or one of a constant number per proxy (its
  // armed deadline event). Dead per-op timers would add throughput x
  // timeout events: hundreds here.
  const std::size_t clients = cluster.num_clients();
  const std::size_t per_op_work =
      clients * static_cast<std::size_t>(config.replication);
  const std::size_t per_proxy = 2 * config.num_proxies;
  std::size_t max_excess = 0;
  for (int i = 0; i < 200; ++i) {
    cluster.run_for(milliseconds(5));
    const std::size_t pending = cluster.simulator().pending();
    const std::size_t in_flight = cluster.network().in_flight();
    ASSERT_GE(pending, in_flight);
    max_excess = std::max(max_excess, pending - in_flight);
  }
  EXPECT_LE(max_excess, per_op_work + per_proxy);

  // Once the clients stop and their last ops complete, only the armed
  // deadline events are left, and they retire without re-arming.
  cluster.stop_clients();
  cluster.run_for(milliseconds(100));
  EXPECT_EQ(cluster.network().in_flight(), 0u);
  EXPECT_LE(cluster.simulator().pending(), config.num_proxies);
  cluster.run_for(proxy::Proxy::kFallbackTimeout);
  EXPECT_EQ(cluster.simulator().pending(), 0u);
}

// ------------------------------------------------- timeout firing instants

/// Every fallback fan-out, retransmit round and client failover, folded in
/// event order as (instant, component, kind, counter value) into an FNV-1a
/// digest.
struct FaultTimeline {
  enum Kind : std::size_t { kFallback, kRetransmit, kFailover, kKinds };
  std::array<std::uint64_t, kKinds> count{};
  std::array<Time, kKinds> first{};
  std::uint64_t digest = 14695981039346656037ull;

  void note(Time now, std::uint64_t component, Kind kind,
            std::uint64_t value) {
    if (count[kind]++ == 0) first[kind] = now;
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(now), component,
          static_cast<std::uint64_t>(kind), value}) {
      for (int byte = 0; byte < 8; ++byte) {
        digest ^= (v >> (8 * byte)) & 0xFF;
        digest *= 1099511628211ull;
      }
    }
  }
};

FaultTimeline record_fault_timeline() {
  ClusterConfig config = small_cluster();
  config.clients_per_proxy = 4;
  config.net_loss = 0.01;
  config.client_retry_timeout = milliseconds(500);
  config.seed = 5;
  Cluster cluster(config);
  cluster.preload(256, 1024);
  cluster.set_workload(workload::ycsb_a(256));
  cluster.crash_storage(0);
  cluster.run_for(0);  // starts the clients

  struct Watched {
    std::uint64_t component;
    FaultTimeline::Kind kind;
    std::function<std::uint64_t()> read;
    std::uint64_t seen = 0;
  };
  std::vector<Watched> watched;
  obs::MetricRegistry& reg = cluster.obs().registry();
  for (std::uint32_t p = 0; p < config.num_proxies; ++p) {
    const obs::Counter* fallbacks =
        &reg.counter(obs::instrument_name("proxy", p, "fallbacks"));
    const obs::Counter* retries =
        &reg.counter(obs::instrument_name("proxy", p, "retries"));
    watched.push_back({p, FaultTimeline::kFallback,
                       [fallbacks] { return fallbacks->value(); }});
    watched.push_back({p, FaultTimeline::kRetransmit,
                       [retries] { return retries->value(); }});
  }
  for (std::uint32_t c = 0; c < cluster.num_clients(); ++c) {
    const Client* client = &cluster.client(c);
    watched.push_back({c, FaultTimeline::kFailover,
                       [client] { return client->retries(); }});
  }
  FaultTimeline timeline;
  sim::Simulator& sim = cluster.simulator();
  while (sim.now() < seconds(4) && sim.step()) {
    for (Watched& w : watched) {
      const std::uint64_t value = w.read();
      if (value == w.seen) continue;
      w.seen = value;
      timeline.note(sim.now(), w.component, w.kind, value);
    }
  }
  return timeline;
}

TEST(DeadlineIndexTest, TimeoutsFireAtTheRecordedInstants) {
  // Reference recorded with one timer event per op and per request (the
  // proxy's fallback and retransmit timers, the client's failover timer):
  // every timeout must fire at the same virtual instant, on the same
  // component, in the same order.
  const FaultTimeline t = record_fault_timeline();
  EXPECT_EQ(t.count[FaultTimeline::kFallback], 178u);
  EXPECT_EQ(t.count[FaultTimeline::kRetransmit], 14u);
  EXPECT_EQ(t.count[FaultTimeline::kFailover], 4u);
  EXPECT_EQ(t.first[FaultTimeline::kFallback], 150398170);
  EXPECT_EQ(t.first[FaultTimeline::kRetransmit], 392515865);
  EXPECT_EQ(t.first[FaultTimeline::kFailover], 1281876663);
  EXPECT_EQ(t.digest, 8992903806186042862ull);
}

// ------------------------------------------------------ proxy-level edges

constexpr std::uint32_t kStorage = 5;

/// One proxy over five full-replica storage nodes with fixed latency and
/// service times, so every deadline lands on a computable instant.
struct DeadlineHarness : ::testing::Test {
  using Net = sim::Network<kv::Message>;
  static constexpr Duration kLatency = microseconds(100);

  sim::Simulator sim;
  Net net{sim, sim::LatencyModel{kLatency, 0}, Rng(1)};
  kv::Placement placement{kStorage, static_cast<int>(kStorage), 0};
  obs::Observability telemetry;
  proxy::ProxyOptions options;
  std::vector<std::unique_ptr<kv::StorageNode>> storage;
  std::unique_ptr<proxy::Proxy> proxy;
  std::vector<kv::Message> client_inbox;
  kv::FullConfig committed;  // the RM's, the base every NEWQ carries

  void SetUp() override {
    kv::ServiceTimes service;
    service.read_jitter = 0;
    service.write_jitter = 0;
    for (std::uint32_t i = 0; i < kStorage; ++i) {
      storage.push_back(std::make_unique<kv::StorageNode>(
          sim, net, sim::storage_id(i), service, 2, Rng(100 + i),
          telemetry));
      kv::StorageNode* raw = storage.back().get();
      net.register_node(sim::storage_id(i),
                        [raw](const sim::NodeId& from, const kv::Message& m) {
                          raw->on_message(from, m);
                        });
    }
    options.initial = kv::QuorumConfig::of(1, 5);
    committed.default_q = options.initial;
    proxy = std::make_unique<proxy::Proxy>(sim, net, sim::proxy_id(0),
                                           placement, options, telemetry);
    net.register_node(sim::proxy_id(0),
                      [this](const sim::NodeId& from, const kv::Message& m) {
                        proxy->on_message(from, m);
                      });
    net.register_node(sim::client_id(0),
                      [this](const sim::NodeId&, const kv::Message& m) {
                        client_inbox.push_back(m);
                      });
    net.register_node(sim::rm_id(), [](const sim::NodeId&, const kv::Message&) {});
  }

  /// RM side: the two-phase install of `q` at `cfno`, the NEWQ built as
  /// the RM builds it from its committed configuration.
  void install_global(std::uint64_t cfno, kv::QuorumConfig q) {
    kv::QuorumChange change;
    change.global = q;
    net.send(sim::rm_id(), sim::proxy_id(0),
             kv::NewQuorumMsg{0, cfno, change, {},
                              committed.with_pending(change, cfno)});
    committed.apply(change);
    committed.cfno = cfno;
    sim.run();
    net.send(sim::rm_id(), sim::proxy_id(0), kv::ConfirmMsg{0, cfno, {}});
    sim.run();
  }

  std::uint64_t metric(const char* field) const {
    return telemetry.registry().counter_value(
        obs::instrument_name("proxy", 0, field));
  }

  /// Replica indices in the order the proxy contacts them for `oid`.
  std::vector<std::uint32_t> contact_order(kv::ObjectId oid) const {
    std::vector<std::uint32_t> order;
    placement.replicas_into(oid, order);
    std::rotate(order.begin(),
                order.begin() + static_cast<long>(mix64(0) % order.size()),
                order.end());
    return order;
  }

  /// Instant a client request sent now is launched by the proxy: one link
  /// latency plus the proxy's per-op CPU cost.
  Time launch_instant() const {
    return sim.now() + kLatency + options.op_cost;
  }

  /// Steps until `field` exceeds `before`; returns that instant.
  Time step_until_metric_exceeds(const char* field, std::uint64_t before) {
    while (metric(field) <= before && sim.step()) {
    }
    return sim.now();
  }
};

TEST_F(DeadlineHarness, ReadRepairKeepsTheLaunchFallbackDeadline) {
  // cfno 0 {1,5} writes v111 everywhere; cfno 1 {3,3} writes v222 on the
  // first three replicas in contact order; cfno 2 {1,5} reads one replica.
  // That replica holds the cfno-1 version, so Algorithm 4 re-reads with
  // R = 3 from the next two replicas. One of them is down: the repair
  // quorum needs the fallback to the remaining two.
  const kv::ObjectId oid = 7;
  const std::vector<std::uint32_t> order = contact_order(oid);
  net.send(sim::client_id(0), sim::proxy_id(0),
           kv::ClientWriteReq{oid, 1, 111, 1024});
  sim.run();
  install_global(1, kv::QuorumConfig::of(3, 3));
  net.send(sim::client_id(0), sim::proxy_id(0),
           kv::ClientWriteReq{oid, 2, 222, 1024});
  sim.run();
  install_global(2, kv::QuorumConfig::of(1, 5));
  storage[order[1]]->crash();

  const std::uint64_t repairs = metric("repair_reads");
  const std::uint64_t fallbacks = metric("fallbacks");
  const Time launched = launch_instant();
  net.send(sim::client_id(0), sim::proxy_id(0), kv::ClientReadReq{oid, 3});
  const Time repair_at = step_until_metric_exceeds("repair_reads", repairs);
  ASSERT_GT(repair_at, launched);
  const Time fallback_at = step_until_metric_exceeds("fallbacks", fallbacks);

  // The launch deadline stays live through the repair phase and fires
  // first; the repair phase's own deadline would be one round trip later.
  EXPECT_EQ(fallback_at, launched + proxy::Proxy::kFallbackTimeout);
  EXPECT_LT(fallback_at, repair_at + proxy::Proxy::kFallbackTimeout);
  sim.run();
  ASSERT_FALSE(client_inbox.empty());
  const auto& resp = std::get<kv::ClientReadResp>(client_inbox.back());
  ASSERT_TRUE(resp.found);
  EXPECT_EQ(resp.version.value, 222u);
  EXPECT_EQ(metric("fallbacks"), fallbacks + 1);
}

TEST_F(DeadlineHarness, CrashRetiresTheArmedEventAndRestartRearms) {
  options.initial = kv::QuorumConfig::of(3, 3);
  proxy = std::make_unique<proxy::Proxy>(sim, net, sim::proxy_id(0),
                                         placement, options, telemetry);
  const kv::ObjectId oid = 7;
  const std::vector<std::uint32_t> order = contact_order(oid);
  net.send(sim::client_id(0), sim::proxy_id(0),
           kv::ClientWriteReq{oid, 1, 111, 1024});
  sim.run();
  ASSERT_EQ(client_inbox.size(), 1u);

  // A read stuck on a down replica arms the proxy's deadline event; the
  // proxy then crashes and restarts before that event is due.
  storage[order[0]]->crash();
  const std::uint64_t fallbacks = metric("fallbacks");
  const Time stale_deadline =
      launch_instant() + proxy::Proxy::kFallbackTimeout;
  net.send(sim::client_id(0), sim::proxy_id(0), kv::ClientReadReq{oid, 2});
  sim.run(sim.now() + milliseconds(10));
  proxy->crash();
  sim.run(sim.now() + milliseconds(10));
  proxy->restart();
  EXPECT_EQ(proxy->pending_ops(), 0u);

  // A fresh read after the restart must get its own deadline event: the
  // stale one is a no-op and must not stand in for it.
  sim.run(sim.now() + milliseconds(10));
  const Time launched = launch_instant();
  net.send(sim::client_id(0), sim::proxy_id(0), kv::ClientReadReq{oid, 3});
  sim.run(stale_deadline);
  EXPECT_EQ(metric("fallbacks"), fallbacks);
  const Time fallback_at = step_until_metric_exceeds("fallbacks", fallbacks);
  EXPECT_EQ(fallback_at, launched + proxy::Proxy::kFallbackTimeout);
  sim.run();
  EXPECT_EQ(metric("fallbacks"), fallbacks + 1);
  ASSERT_EQ(client_inbox.size(), 2u);
  const auto& resp = std::get<kv::ClientReadResp>(client_inbox.back());
  EXPECT_EQ(resp.req_id, 3u);
  EXPECT_EQ(resp.version.value, 111u);
}

// ------------------------------------------------------- in-flight slab

struct SlabFixture : ::testing::Test {
  using Net = sim::Network<std::string>;

  SlabFixture() { net.bind_observability(&telemetry); }

  obs::Observability telemetry;
  sim::Simulator sim;
  Net net{sim, sim::LatencyModel{microseconds(100), microseconds(50)},
          Rng(9)};
  std::vector<std::string> inbox_b;

  static std::string payload(int i) {
    // Longer than any small-string buffer: a dangling slab reference reads
    // freed heap memory, which the sanitizer build reports.
    return "message-" + std::to_string(i) + std::string(48, 'x');
  }
};

TEST_F(SlabFixture, HandlerThatSendsDuringDeliveryGrowsTheSlabSafely) {
  // Each delivery to A fans out 100 sends from inside the handler, far more
  // than the slab holds, so the slab reallocates while a delivery runs.
  int fanned_out = 0;
  net.register_node(sim::storage_id(0),
                    [&](const sim::NodeId&, const std::string& m) {
                      for (int i = 0; i < 100; ++i) {
                        net.send(sim::storage_id(0), sim::storage_id(1),
                                 payload(fanned_out++));
                      }
                      // Read after the sends: the message must not live in
                      // the slab the sends just reallocated.
                      EXPECT_EQ(m, payload(-1));
                    });
  net.register_node(sim::storage_id(1),
                    [&](const sim::NodeId&, const std::string& m) {
                      inbox_b.push_back(m);
                    });
  for (int round = 0; round < 3; ++round) {
    net.send(sim::storage_id(1), sim::storage_id(0), payload(-1));
  }
  sim.run();
  ASSERT_EQ(inbox_b.size(), 300u);
  // FIFO per link, every payload intact.
  for (int i = 0; i < 300; ++i) EXPECT_EQ(inbox_b[i], payload(i));
  EXPECT_EQ(net.in_flight(), 0u);
  EXPECT_GE(net.slab_slots(), 100u);
}

TEST_F(SlabFixture, DuplicatesAndSlotReuseKeepEveryPayload) {
  net.register_node(sim::storage_id(1),
                    [&](const sim::NodeId&, const std::string& m) {
                      inbox_b.push_back(m);
                    });
  net.set_duplication(1.0);
  for (int i = 0; i < 10; ++i) {
    net.send(sim::storage_id(0), sim::storage_id(1), payload(i));
  }
  EXPECT_EQ(net.in_flight(), 20u);
  sim.run();
  ASSERT_EQ(inbox_b.size(), 20u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(std::count(inbox_b.begin(), inbox_b.end(), payload(i)), 2);
  }
  EXPECT_EQ(telemetry.registry().counter_value("net.duplicated"), 10u);
  EXPECT_EQ(net.in_flight(), 0u);

  // Later traffic reuses the freed slots: the slab stays at its high-water
  // mark however many messages pass through it.
  const std::size_t slots = net.slab_slots();
  net.set_duplication(0.0);
  inbox_b.clear();
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      net.send(sim::storage_id(0), sim::storage_id(1), payload(round * 20 + i));
    }
    sim.run();
  }
  EXPECT_EQ(net.slab_slots(), slots);
  ASSERT_EQ(inbox_b.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(inbox_b[i], payload(i));
}

TEST_F(SlabFixture, DroppedArrivalsFreeTheirSlots) {
  // Messages that die at arrival (crashed receiver, unroutable target)
  // still hand their slot back.
  net.register_node(sim::storage_id(1),
                    [&](const sim::NodeId&, const std::string& m) {
                      inbox_b.push_back(m);
                    });
  for (int i = 0; i < 8; ++i) {
    net.send(sim::storage_id(0), sim::storage_id(1), payload(i));
    net.send(sim::storage_id(0), sim::storage_id(7), payload(i));
  }
  net.set_crashed(sim::storage_id(1));
  sim.run();
  EXPECT_TRUE(inbox_b.empty());
  EXPECT_EQ(net.in_flight(), 0u);
  const std::size_t slots = net.slab_slots();
  net.set_crashed(sim::storage_id(1), false);
  for (int i = 0; i < 16; ++i) {
    net.send(sim::storage_id(0), sim::storage_id(1), payload(i));
  }
  sim.run();
  EXPECT_EQ(inbox_b.size(), 16u);
  EXPECT_EQ(net.slab_slots(), slots);
}

}  // namespace
}  // namespace qopt
