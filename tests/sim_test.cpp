#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "sim/failure_detector.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace qopt::sim {
namespace {

// -------------------------------------------------------------- simulator

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, SameTimeFifoBySchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, AfterSchedulesRelative) {
  Simulator sim;
  sim.at(100, [] {});
  sim.run();
  Time fired_at = -1;
  sim.after(50, [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(SimulatorTest, PastEventsClampToNow) {
  Simulator sim;
  sim.at(100, [] {});
  sim.run();
  Time fired_at = -1;
  sim.at(10, [&] { fired_at = sim.now(); });  // in the past
  sim.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(SimulatorTest, RunUntilHorizonStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(100, [&] { ++fired; });
  sim.run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);  // clock advanced to horizon
  sim.run(200);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.after(10, recurse);
  };
  sim.after(10, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] {
    ++fired;
    sim.stop();
  });
  sim.at(20, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StepProcessesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.at(1, [&] { ++fired; });
  sim.at(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

// ------------------------------------------------------------- event store

/// Heap object that counts its own destruction; held by std::unique_ptr so
/// a closure capturing it is move-only.
struct LifeProbe {
  LifeProbe(int* run_count, int* destroy_count)
      : runs(run_count), destroyed(destroy_count) {}
  ~LifeProbe() { ++*destroyed; }
  LifeProbe(const LifeProbe&) = delete;
  LifeProbe& operator=(const LifeProbe&) = delete;
  int* runs;
  int* destroyed;
};

TEST(EventStoreTest, MoveOnlyCaptureRunsOnceAndIsDestroyedOnce) {
  int runs = 0;
  int destroyed = 0;
  {
    Simulator sim;
    for (int i = 1; i <= 8; ++i) {
      auto probe = std::make_unique<LifeProbe>(&runs, &destroyed);
      sim.at(10 * i, [p = std::move(probe)] { ++*p->runs; });
    }
    sim.run(40);
    EXPECT_EQ(runs, 4);
    EXPECT_EQ(destroyed, 4);  // a closure is destroyed right after it runs
    // Growing the slab relocates the four pending closures; none is lost
    // or destroyed twice.
    for (int i = 0; i < 500; ++i) sim.at(1'000, [] {});
    EXPECT_EQ(destroyed, 4);
    EXPECT_EQ(sim.pending(), 504u);
  }
  // Destroying the simulator destroys the four pending closures unrun.
  EXPECT_EQ(runs, 4);
  EXPECT_EQ(destroyed, 8);
}

TEST(EventStoreTest, EventThatGrowsTheSlabRunsSafely) {
  Simulator sim;
  std::vector<int> order;
  std::array<int, 20> payload{};
  payload.fill(7);
  int sum = 0;
  sim.at(1, [&sim, &order, &sum, payload] {
    // Scheduling from inside the body grows (and relocates) the slab many
    // times over; the running closure was moved out of its slot first, so
    // its captures stay valid.
    for (int i = 0; i < 1'000; ++i) {
      sim.at(2, [&order, i] { order.push_back(i); });
    }
    for (const int v : payload) sum += v;
  });
  sim.run();
  EXPECT_EQ(sum, 140);
  ASSERT_EQ(order.size(), 1'000u);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventStoreTest, SameInstantOrderSurvivesSlotRecycling) {
  Simulator sim;
  // 37 and 64 are coprime, so these events run (and free their slots) in a
  // scrambled slot order, and the free list hands the slots back scrambled.
  for (int i = 0; i < 64; ++i) sim.at((i * 37) % 64, [] {});
  sim.run();
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    sim.at(100, [&order, i] { order.push_back(i); });
  }
  // Same-instant events scheduled from inside an event reuse the slot the
  // running event just released and still run after the earlier ones.
  sim.at(100, [&sim, &order] {
    order.push_back(64);
    sim.at(100, [&order] { order.push_back(65); });
  });
  sim.run();
  ASSERT_EQ(order.size(), 66u);
  for (int i = 0; i < 66; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

/// A callable of exactly N bytes.
template <std::size_t N>
struct Padded {
  std::array<std::byte, N> pad{};
  void operator()() const {}
};

template <typename F>
constexpr bool schedulable = requires(Simulator& sim, F a, F b) {
  sim.at(Time{0}, std::move(a));
  sim.after(Duration{0}, std::move(b));
};

TEST(EventStoreTest, InlineCapacityIsTheLimit) {
  static_assert(sizeof(Padded<kEventCapacity>) == kEventCapacity);
  static_assert(schedulable<Padded<kEventCapacity>>);
  static_assert(!schedulable<Padded<kEventCapacity + 1>>);
  Simulator sim;
  sim.at(5, Padded<kEventCapacity>{});
  EXPECT_EQ(sim.run(), 1u);
}

// ---------------------------------------------------------------- node ids

TEST(NodeIdTest, OrderingAndEquality) {
  EXPECT_EQ(proxy_id(1), proxy_id(1));
  EXPECT_NE(proxy_id(1), proxy_id(2));
  EXPECT_NE(proxy_id(1), storage_id(1));
  EXPECT_LT(client_id(0), proxy_id(0));  // enum order
}

TEST(NodeIdTest, ToString) {
  EXPECT_EQ(to_string(proxy_id(3)), "proxy-3");
  EXPECT_EQ(to_string(storage_id(0)), "storage-0");
  EXPECT_EQ(to_string(rm_id()), "rm-0");
  EXPECT_EQ(to_string(am_id()), "am-0");
  EXPECT_EQ(to_string(client_id(12)), "client-12");
}

// ---------------------------------------------------------------- network

using TestNet = Network<std::string>;

struct NetFixture : ::testing::Test {
  NetFixture() { net.bind_observability(&telemetry); }

  /// The bound registry's `net.<name>` counter.
  std::uint64_t counter(const std::string& name) const {
    return telemetry.registry().counter_value("net." + name);
  }
  /// Drops under every reason.
  std::uint64_t dropped() const {
    return counter("dropped.sender_crashed") +
           counter("dropped.receiver_crashed") +
           counter("dropped.unroutable") + counter("dropped.link_loss") +
           counter("dropped.partitioned");
  }

  obs::Observability telemetry;
  Simulator sim;
  Rng rng{99};
  LatencyModel latency{microseconds(100), microseconds(50)};
  TestNet net{sim, latency, rng};
};

TEST_F(NetFixture, DeliversToRegisteredHandler) {
  std::vector<std::string> received;
  net.register_node(proxy_id(0),
                    [&](const NodeId&, const std::string& m) {
                      received.push_back(m);
                    });
  net.send(client_id(0), proxy_id(0), "hello");
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "hello");
  EXPECT_EQ(counter("messages_delivered"), 1u);
}

TEST_F(NetFixture, DeliveryTakesLatency) {
  Time delivered_at = -1;
  net.register_node(proxy_id(0), [&](const NodeId&, const std::string&) {
    delivered_at = sim.now();
  });
  net.send(client_id(0), proxy_id(0), "x");
  sim.run();
  EXPECT_GE(delivered_at, microseconds(100));
  EXPECT_LT(delivered_at, microseconds(150) + 1);
}

TEST_F(NetFixture, FifoPerSenderReceiverPair) {
  std::vector<int> received;
  net.register_node(proxy_id(0), [&](const NodeId&, const std::string& m) {
    received.push_back(std::stoi(m));
  });
  for (int i = 0; i < 200; ++i) {
    net.send(client_id(0), proxy_id(0), std::to_string(i));
  }
  sim.run();
  ASSERT_EQ(received.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
}

TEST_F(NetFixture, CrashedReceiverDropsInFlight) {
  int received = 0;
  net.register_node(proxy_id(0),
                    [&](const NodeId&, const std::string&) { ++received; });
  net.send(client_id(0), proxy_id(0), "x");
  net.set_crashed(proxy_id(0));
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(dropped(), 1u);
  EXPECT_EQ(counter("dropped.receiver_crashed"), 1u);
  EXPECT_EQ(counter("dropped.sender_crashed"), 0u);
  EXPECT_EQ(counter("dropped.unroutable"), 0u);
}

TEST_F(NetFixture, CrashedSenderCannotSend) {
  int received = 0;
  net.register_node(proxy_id(0),
                    [&](const NodeId&, const std::string&) { ++received; });
  net.set_crashed(client_id(0));
  // The sender must be registered for crash state to apply.
  net.register_node(client_id(0), [](const NodeId&, const std::string&) {});
  net.set_crashed(client_id(0));
  net.send(client_id(0), proxy_id(0), "x");
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(counter("dropped.sender_crashed"), 1u);
  EXPECT_EQ(counter("dropped.receiver_crashed"), 0u);
}

TEST_F(NetFixture, BroadcastReachesAllTargets) {
  int received = 0;
  for (std::uint32_t i = 0; i < 5; ++i) {
    net.register_node(storage_id(i),
                      [&](const NodeId&, const std::string&) { ++received; });
  }
  std::vector<NodeId> targets;
  for (std::uint32_t i = 0; i < 5; ++i) targets.push_back(storage_id(i));
  net.broadcast(proxy_id(0), targets, "w");
  sim.run();
  EXPECT_EQ(received, 5);
}

TEST_F(NetFixture, SenderIdentityPassedToHandler) {
  NodeId seen_from{};
  net.register_node(proxy_id(0), [&](const NodeId& from, const std::string&) {
    seen_from = from;
  });
  net.send(client_id(7), proxy_id(0), "x");
  sim.run();
  EXPECT_EQ(seen_from, client_id(7));
}

TEST_F(NetFixture, UnregisteredTargetCountsAsDropped) {
  net.send(client_id(0), proxy_id(9), "x");
  sim.run();
  EXPECT_EQ(dropped(), 1u);
  EXPECT_EQ(counter("dropped.unroutable"), 1u);
}

TEST_F(NetFixture, DropReasonsSumToTotalAndMirrorIntoRegistry) {
  net.register_node(proxy_id(0), [](const NodeId&, const std::string&) {});
  net.register_node(client_id(0), [](const NodeId&, const std::string&) {});

  net.send(client_id(0), proxy_id(9), "unroutable");
  net.send(client_id(0), proxy_id(0), "in flight when receiver dies");
  net.set_crashed(proxy_id(0));
  net.set_crashed(client_id(0));
  net.send(client_id(0), proxy_id(0), "sender dead");
  sim.run();

  // Each drop lands under exactly one reason, so the reasons account for
  // every sent message that was not delivered.
  EXPECT_EQ(counter("dropped.unroutable"), 1u);
  EXPECT_EQ(counter("dropped.receiver_crashed"), 1u);
  EXPECT_EQ(counter("dropped.sender_crashed"), 1u);
  EXPECT_EQ(counter("dropped.link_loss"), 0u);
  EXPECT_EQ(counter("dropped.partitioned"), 0u);
  EXPECT_EQ(counter("messages_sent"), 3u);
  EXPECT_EQ(counter("messages_delivered"), 0u);
  EXPECT_EQ(counter("messages_sent") - counter("messages_delivered"),
            dropped());
}

TEST_F(NetFixture, NeverRegisteredEndpointsKeepFifoAndDropOnce) {
  std::vector<int> received;
  net.register_node(proxy_id(0), [&](const NodeId&, const std::string& m) {
    received.push_back(std::stoi(m));
  });
  // From a never-registered sender: delivered, in send order.
  for (int i = 0; i < 100; ++i) {
    net.send(client_id(3), proxy_id(0), std::to_string(i));
  }
  // To a never-registered receiver: each message is dropped exactly once.
  for (int i = 0; i < 50; ++i) net.send(client_id(3), proxy_id(9), "lost");
  for (int i = 0; i < 50; ++i) net.send(proxy_id(0), storage_id(4), "lost");
  sim.run();
  ASSERT_EQ(received.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
  EXPECT_EQ(counter("messages_delivered"), 100u);
  EXPECT_EQ(counter("dropped.unroutable"), 100u);
  EXPECT_EQ(dropped(), 100u);
}

TEST_F(NetFixture, FifoClampCarriesAcrossRegistration) {
  std::vector<int> received;
  int next = 0;
  const auto burst = [&] {
    for (int i = 0; i < 50; ++i) {
      net.send(client_id(5), storage_id(2), std::to_string(next++));
    }
  };
  burst();  // neither endpoint registered yet
  net.register_node(storage_id(2), [&](const NodeId&, const std::string& m) {
    received.push_back(std::stoi(m));
  });
  burst();  // the receiver registered while the first burst is in flight
  net.register_node(client_id(5), [](const NodeId&, const std::string&) {});
  burst();  // both registered
  sim.run();
  ASSERT_EQ(received.size(), 150u);
  for (int i = 0; i < 150; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
}

TEST_F(NetFixture, CrashCallsOnUnknownIdsAreNoOps) {
  const NodeId bogus{static_cast<NodeKind>(200), 0};
  net.set_crashed(proxy_id(7));
  net.set_crashed(client_id(100'000));
  net.set_crashed(bogus);
  EXPECT_FALSE(net.is_crashed(proxy_id(7)));
  EXPECT_FALSE(net.is_crashed(client_id(100'000)));
  EXPECT_FALSE(net.is_crashed(bogus));

  int received = 0;
  net.register_node(proxy_id(0),
                    [&](const NodeId&, const std::string&) { ++received; });
  net.send(proxy_id(7), proxy_id(0), "not refused");
  net.send(proxy_id(0), bogus, "unroutable");
  // Registering after the no-op crash starts the node alive.
  net.register_node(proxy_id(7),
                    [&](const NodeId&, const std::string&) { ++received; });
  EXPECT_FALSE(net.is_crashed(proxy_id(7)));
  net.send(proxy_id(0), proxy_id(7), "delivered");
  sim.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(counter("dropped.sender_crashed"), 0u);
  EXPECT_EQ(counter("dropped.unroutable"), 1u);
}

TEST_F(NetFixture, HandlerMayRegisterNodesWhileItRuns) {
  std::vector<int> seen;
  // Two pointers: small and trivially copyable, so std::function keeps the
  // closure inside the registered node's state rather than on the heap.
  net.register_node(proxy_id(0), [network = &net, out = &seen](
                                     const NodeId&, const std::string&) {
    for (std::uint32_t i = 0; i < 200; ++i) {
      network->register_node(storage_id(i),
                             [](const NodeId&, const std::string&) {});
    }
    out->push_back(1);  // reads this handler's captures after the growth
  });
  net.send(client_id(0), proxy_id(0), "x");
  sim.run();
  EXPECT_EQ(seen, std::vector<int>{1});
}

// -------------------------------------------------------- failure detector

TEST(FailureDetectorTest, SuspectsCrashedNodeAfterDelay) {
  Simulator sim;
  FailureDetector fd(sim, milliseconds(100));
  fd.node_crashed(proxy_id(0));
  EXPECT_FALSE(fd.suspects(proxy_id(0)));
  sim.run(milliseconds(50));
  EXPECT_FALSE(fd.suspects(proxy_id(0)));
  sim.run(milliseconds(200));
  EXPECT_TRUE(fd.suspects(proxy_id(0)));
}

TEST(FailureDetectorTest, FalseSuspicionClearsAfterDuration) {
  Simulator sim;
  FailureDetector fd(sim, milliseconds(100));
  fd.inject_false_suspicion(proxy_id(1), milliseconds(500));
  EXPECT_TRUE(fd.suspects(proxy_id(1)));
  sim.run(milliseconds(600));
  EXPECT_FALSE(fd.suspects(proxy_id(1)));
}

TEST(FailureDetectorTest, ManualClear) {
  Simulator sim;
  FailureDetector fd(sim, milliseconds(100));
  fd.inject_false_suspicion(proxy_id(1), 0);  // indefinite
  EXPECT_TRUE(fd.suspects(proxy_id(1)));
  fd.clear_suspicion(proxy_id(1));
  EXPECT_FALSE(fd.suspects(proxy_id(1)));
}

TEST(FailureDetectorTest, CrashOverridesFalseSuspicionClearing) {
  Simulator sim;
  FailureDetector fd(sim, milliseconds(100));
  fd.inject_false_suspicion(proxy_id(2), milliseconds(300));
  fd.node_crashed(proxy_id(2));
  sim.run(milliseconds(1000));
  // The scheduled un-suspect must not clear a real crash.
  EXPECT_TRUE(fd.suspects(proxy_id(2)));
}

TEST(FailureDetectorTest, ListenersNotifiedOnChange) {
  Simulator sim;
  FailureDetector fd(sim, milliseconds(10));
  std::vector<std::pair<NodeId, bool>> events;
  fd.subscribe([&](const NodeId& id, bool suspected) {
    events.emplace_back(id, suspected);
  });
  fd.inject_false_suspicion(proxy_id(0), milliseconds(100));
  sim.run(milliseconds(500));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], std::make_pair(proxy_id(0), true));
  EXPECT_EQ(events[1], std::make_pair(proxy_id(0), false));
}

TEST(FailureDetectorTest, UnknownNodeNotSuspected) {
  Simulator sim;
  FailureDetector fd(sim, milliseconds(10));
  EXPECT_FALSE(fd.suspects(proxy_id(9)));
}

TEST(FailureDetectorTest, FalseSuspicionOnCrashedNodeIgnored) {
  Simulator sim;
  FailureDetector fd(sim, milliseconds(10));
  fd.node_crashed(proxy_id(0));
  sim.run(milliseconds(50));
  EXPECT_TRUE(fd.suspects(proxy_id(0)));
  fd.inject_false_suspicion(proxy_id(0), milliseconds(10));
  sim.run(milliseconds(100));
  EXPECT_TRUE(fd.suspects(proxy_id(0)));  // stays suspected forever
}

}  // namespace
}  // namespace qopt::sim
