#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <set>
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

TEST(SimulatorTest, FarKeyRunsBeforeLaterKeysOfItsBucket) {
  // A key one ring span past the cursor waits in the far heap. Popping an
  // event one bucket later moves the cursor, which makes the far key's
  // bucket the ring's last: the far key must enter it before a later key
  // scheduled into the same bucket does.
  Simulator sim;
  const Time far = Simulator::kRingSpan;
  std::vector<int> order;
  sim.at(far, [&] { order.push_back(2); });
  sim.at(Simulator::kBucketWidth, [&] {
    order.push_back(1);
    sim.at(far + 1, [&] { order.push_back(3); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), far + 1);
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

// ------------------------------------------------------ queue order property
//
// The calendar queue against a sorted reference, driven through the public
// API: each step must run the (time, scheduling order)-least event, or with
// a chooser the picked one of the window of least events, and leave as many
// events pending as the reference holds. The delays straddle the ring's
// edges: zero, one bucket +-1 ns, the ring span +-1 ns, multiples of the
// span, up to ~10^15 ns; phases add many equal instants, at() in the past,
// at() between bounded runs and idle gaps where only far keys wait.

class QueueOrderDriver {
 public:
  QueueOrderDriver(std::uint64_t seed, bool with_chooser)
      : seed_(seed), rng_(seed), picks_(seed + 1000), with_chooser_(with_chooser) {}

  /// Runs phases until at least `events` events ran or a mismatch stopped
  /// the run; returns the number run.
  std::uint64_t drive(std::uint64_t events) {
    while (runs_ < events && !broken_) phase();
    return runs_;
  }

 private:
  static constexpr Duration kBucket = Simulator::kBucketWidth;
  static constexpr Duration kSpan = Simulator::kRingSpan;
  static constexpr Duration kHuge = 1'000'000'000'000'000;  // ~10^15 ns

  /// How a phase draws delays.
  enum class Regime { kMix, kEdges, kSameInstant, kFar };

  void phase() {
    regime_ = static_cast<Regime>(rng_.next_below(4));
    target_ = static_cast<std::size_t>(
        rng_.chance(0.2) ? rng_.next_below(4) : rng_.uniform_int(8, 1500));
    instant_ = ref_now_ + static_cast<Duration>(rng_.next_below(3)) * kBucket;
    if (with_chooser_) {
      if (rng_.chance(0.6)) {
        window_ = static_cast<std::size_t>(rng_.uniform_int(2, 4));
        sim_.set_schedule_chooser(
            [this](std::size_t staged) {
              staged_ = staged;
              picked_ = static_cast<std::size_t>(picks_.next_below(staged));
              return picked_;
            },
            window_);
      } else {
        window_ = 0;
        sim_.clear_schedule_chooser();
      }
    }
    const std::uint64_t end = runs_ + rng_.next_below(6000) + 500;
    while (runs_ < end && !broken_) {
      const std::uint64_t action = rng_.next_below(10);
      if (action == 0 || ref_.empty()) {
        schedule_batch();
      } else if (action <= 2) {
        run_until(ref_now_ + (rng_.chance(0.5) ? draw_delay()
                                                : rng_.uniform_int(0, kBucket)));
      } else {
        for (std::uint64_t n = rng_.next_below(50) + 1; n > 0 && !broken_; --n) {
          step();
        }
      }
    }
    if (rng_.chance(0.3) && !broken_) drain();
  }

  /// at() between runs: a burst at one instant, past instants or delays.
  void schedule_batch() {
    const std::uint64_t n = rng_.next_below(20) + 1;
    const std::uint64_t style = rng_.next_below(3);
    for (std::uint64_t i = 0; i < n; ++i) {
      if (style == 0) {
        schedule_at(instant_);
      } else if (style == 1) {
        schedule_at(ref_now_ - rng_.uniform_int(0, 2 * kSpan));
      } else {
        schedule_at(ref_now_ + draw_delay());
      }
    }
  }

  void step() {
    const std::uint64_t before = runs_;
    const bool ran = sim_.step();
    if (broken_) return;
    EXPECT_EQ(ran, runs_ == before + 1);
    check_pending("after step()");
  }

  void run_until(Time until) {
    const std::uint64_t before = runs_;
    const std::uint64_t ran = sim_.run(until);
    if (broken_) return;
    EXPECT_EQ(ran, runs_ - before);
    if (!ref_.empty() && ref_.begin()->first <= until) {
      fail("run(" + std::to_string(until) + ") left an event due at " +
           std::to_string(ref_.begin()->first));
      return;
    }
    if (until > ref_now_) ref_now_ = until;
    EXPECT_EQ(sim_.now(), ref_now_) << "after run(" << until << ")";
    check_pending("after run(until)");
  }

  /// Runs everything out with no successors.
  void drain() {
    target_ = 0;
    regime_ = Regime::kMix;
    while (!ref_.empty() && !broken_) {
      sim_.run();
      if (broken_) return;
      check_pending("after run()");
    }
    EXPECT_TRUE(sim_.empty());
  }

  Duration draw_delay() {
    switch (regime_) {
      case Regime::kMix: {
        const double u = rng_.next_double();
        if (u < 0.08) return microseconds(60);
        if (u < 0.75) return rng_.uniform_int(microseconds(300), microseconds(800) - 1);
        if (u < 0.753) return kSecond;
        return std::min<Duration>(
            static_cast<Duration>(rng_.exponential(5.0 * kMillisecond)),
            150 * kMillisecond);
      }
      case Regime::kEdges: {
        static constexpr std::array<Duration, 13> kEdges = {
            0,         1,         kBucket - 1, kBucket,      kBucket + 1,
            kSpan - 1, kSpan,     kSpan + 1,   2 * kSpan - 1, 2 * kSpan,
            2 * kSpan + 1, 5 * kSpan, 64 * kSpan};
        const std::uint64_t r = rng_.next_below(kEdges.size() + 3);
        if (r < kEdges.size()) return kEdges[r];
        if (r == kEdges.size()) {
          // To one ns either side of a bucket boundary ahead of the clock.
          const Time boundary =
              ((ref_now_ >> Simulator::kBucketBits) +
               rng_.uniform_int(1, Duration{1} << Simulator::kRingBits)) *
              kBucket;
          return boundary - ref_now_ + rng_.uniform_int(-1, 1);
        }
        if (r == kEdges.size() + 1) return rng_.uniform_int(0, 3 * kSpan);
        return rng_.uniform_int(0, kBucket);
      }
      case Regime::kSameInstant:
        if (instant_ >= ref_now_ && rng_.chance(0.7)) return instant_ - ref_now_;
        return rng_.chance(0.5) ? 0 : rng_.uniform_int(0, kBucket);
      case Regime::kFar:
        if (rng_.chance(0.05)) return rng_.uniform_int(kSpan, kHuge);
        return kSpan + rng_.uniform_int(0, 8 * kSpan);
    }
    return 0;
  }

  void schedule_at(Time t) {
    const std::uint64_t id = next_id_++;
    ref_.emplace(std::max(t, ref_now_), id);
    sim_.at(t, [this, id] { on_run(id); });
  }

  void on_run(std::uint64_t id) {
    if (broken_) return;
    // The reference's choice: the least key, or the chooser's pick among
    // the window of least keys; the others stay queued with their keys.
    auto expected = ref_.begin();
    if (window_ != 0 && ref_.size() >= 2) {
      const std::size_t staged = std::min(window_, ref_.size());
      if (staged_ != staged) {
        fail("chooser saw " + std::to_string(staged_) + " staged, reference " +
             std::to_string(staged));
        return;
      }
      std::advance(expected, static_cast<std::ptrdiff_t>(picked_));
    } else if (staged_ != 0) {
      fail("chooser ran with " + std::to_string(ref_.size()) + " pending");
      return;
    }
    staged_ = 0;
    if (expected->second != id) {
      fail("ran event " + std::to_string(id) + ", reference " +
           std::to_string(expected->second) + " at " +
           std::to_string(expected->first));
      return;
    }
    ref_now_ = std::max(ref_now_, expected->first);
    ref_.erase(expected);
    ++runs_;
    EXPECT_EQ(sim_.now(), ref_now_) << "event " << id;
    check_pending("inside an event");

    std::uint64_t children = 0;
    if (ref_.size() < target_) {
      children = rng_.chance(0.5) ? 2 : 1;
    } else {
      children = rng_.chance(0.4) ? 1 : 0;
    }
    for (; children > 0; --children) {
      const std::uint64_t how = rng_.next_below(8);
      if (how == 0) {
        // after(): a relative delay, negative ones clamped to now.
        const Duration d = rng_.chance(0.1) ? -rng_.uniform_int(1, kSpan)
                                            : draw_delay();
        const std::uint64_t child = next_id_++;
        ref_.emplace(ref_now_ + std::max<Duration>(d, 0), child);
        sim_.after(d, [this, child] { on_run(child); });
      } else if (how == 1) {
        schedule_at(ref_now_ - rng_.uniform_int(1, kSpan));  // in the past
      } else {
        schedule_at(ref_now_ + draw_delay());
      }
    }
    check_pending("after scheduling from an event");
  }

  void check_pending(const char* where) {
    EXPECT_EQ(sim_.pending(), ref_.size()) << where;
    // Only a chooser runs events out of order, and so only a chooser can
    // leave the clock behind the cursor and keys behind it.
    if (!with_chooser_) {
      EXPECT_EQ(sim_.behind_cursor(), 0u) << where;
    }
  }

  void fail(const std::string& what) {
    ADD_FAILURE() << "seed " << seed_ << ", after " << runs_
                  << " events: " << what;
    broken_ = true;
    sim_.stop();
  }

  const std::uint64_t seed_;
  Rng rng_;
  Rng picks_;
  const bool with_chooser_;
  Simulator sim_;
  std::set<std::pair<Time, std::uint64_t>> ref_;  // (time, scheduling order)
  Time ref_now_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t runs_ = 0;
  Regime regime_ = Regime::kMix;
  std::size_t target_ = 0;
  Time instant_ = 0;
  std::size_t window_ = 0;  // 0: no chooser installed
  std::size_t staged_ = 0;  // what the chooser last saw and picked
  std::size_t picked_ = 0;
  bool broken_ = false;
};

TEST(QueueOrderTest, MatchesSortedReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    QueueOrderDriver driver(seed, false);
    EXPECT_GE(driver.drive(50'000), 50'000u) << "seed " << seed;
  }
}

TEST(QueueOrderTest, ChooserMatchesStagedReference) {
  for (std::uint64_t seed = 101; seed <= 120; ++seed) {
    QueueOrderDriver driver(seed, true);
    EXPECT_GE(driver.drive(50'000), 50'000u) << "seed " << seed;
  }
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
