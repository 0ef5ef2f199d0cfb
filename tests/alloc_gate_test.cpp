// Dynamic complement to the qopt_perf static linter: a counting global
// operator new hook runs a steady-state cluster workload and asserts the
// exact number of heap allocations it makes. The static rules catch
// patterns; this gate catches what they cannot see (allocations behind
// aliases, library internals, growth that never plateaus).
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "kv/storage_node.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Replaceable global allocation functions: every `new` in the binary —
// engine, library internals, test harness — routes through here. Counting
// is gated so only the measurement window below is recorded.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

struct WindowCount {
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
  /// Doublings of the storage nodes' written-version tables in the window,
  /// read from their capacities before and after it.
  std::uint64_t table_doublings = 0;
};

/// Slot counts of every storage node's written-version table.
std::vector<std::size_t> table_capacities(qopt::Cluster& cluster,
                                          std::uint32_t nodes) {
  std::vector<std::size_t> capacities;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    capacities.push_back(cluster.storage(i).written().capacity());
  }
  return capacities;
}

/// Heap allocations over an 8 s steady-state `ycsb_b` window (span tracing
/// is off by default).
WindowCount steady_state_window(bool check_consistency) {
  qopt::ClusterConfig config;
  config.check_consistency = check_consistency;
  config.seed = 7;
  qopt::Cluster cluster(config);
  cluster.preload(1024, 4096);
  cluster.set_workload(qopt::workload::ycsb_b(1024));

  // Warm-up: dedup windows, pending-op slots, vector capacities and the
  // metrics reservoirs all reach their steady-state footprint, and every
  // storage node has written versions.
  cluster.run_for(qopt::seconds(2));
  const std::vector<std::size_t> before =
      table_capacities(cluster, config.num_storage);

  const std::uint64_t events_before = cluster.simulator().events_processed();
  g_alloc_count.store(0);
  g_counting.store(true);
  cluster.run_for(qopt::seconds(8));
  g_counting.store(false);
  WindowCount window{g_alloc_count.load(),
                     cluster.simulator().events_processed() - events_before};

  const std::vector<std::size_t> after =
      table_capacities(cluster, config.num_storage);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_GT(before[i], 0u) << "storage " << i << " wrote nothing in warm-up";
    window.table_doublings += static_cast<std::uint64_t>(
        std::countr_zero(after[i]) - std::countr_zero(before[i]));
  }
  return window;
}

TEST(AllocGateTest, SteadyStateStaysWithinPerEventBudget) {
  // Without the consistency checker, the window allocates once, plus once
  // per doubling of a storage node's written-version table. The one is not
  // per event: run_for sizes the metrics throughput timeline for the 8 s it
  // is about to simulate (one 100 ms bucket each) before the first event
  // runs. A node's table holds only the versions written after the bulk
  // load (the load itself is one bit per object), so it doubles as the
  // clients' writes reach new keys: 19 times in this window, nine nodes
  // going 64 to 256 slots and one 128 to 256. Every other simulated event
  // allocates nothing: closures live inline in simulator slots, messages
  // in the network's in-flight slab, pending ops in recycled proxy slots,
  // and dedup windows and the Space-Saving index in flat tables sized up
  // front. Any per-operation allocation adds thousands to this count.
  //
  // With the checker on (the default, so every bench and example runs it),
  // one more: its freshest-completed-write table doubles once (256 to 512
  // slots) as the clients' writes reach new keys. The checker's and the
  // nodes' tables grow with the keys written, never per operation.
  struct Input {
    bool check_consistency;
    std::uint64_t allocs;  // besides the written tables' doublings
  };
  for (const Input input : {Input{false, 1}, Input{true, 2}}) {
    SCOPED_TRACE(input.check_consistency ? "checker on" : "checker off");
    const WindowCount window = steady_state_window(input.check_consistency);
    ASSERT_GT(window.events, 10'000u) << "workload did not reach steady state";
    RecordProperty(input.check_consistency ? "allocations_checked"
                                           : "allocations",
                   std::to_string(window.allocs));
    std::printf(
        "[alloc-gate] checker %s: %llu allocations (%llu table doublings) / "
        "%llu events\n",
        input.check_consistency ? "on" : "off",
        static_cast<unsigned long long>(window.allocs),
        static_cast<unsigned long long>(window.table_doublings),
        static_cast<unsigned long long>(window.events));
    EXPECT_EQ(window.table_doublings, 19u);
    EXPECT_EQ(window.allocs, input.allocs + window.table_doublings)
        << window.allocs << " allocations over " << window.events
        << " events";
  }
}

TEST(AllocGateTest, InlineEventsScheduleAndRunWithoutAllocating) {
  qopt::sim::Simulator sim;
  std::uint64_t sum = 0;
  // Twelve words of payload plus two references: exactly the inline
  // capacity, the largest closure an event slot holds.
  std::array<std::uint64_t, 12> payload{};
  static_assert(sizeof(payload) + 2 * sizeof(void*) ==
                qopt::sim::kEventCapacity);
  const auto round = [&] {
    for (std::uint64_t i = 0; i < 10'000; ++i) {
      payload[0] = i;
      sim.after(static_cast<qopt::Duration>(i % 97),
                [&sim, &sum, payload] {
                  sum += payload[0];
                  // Events also schedule events from inside their bodies.
                  if (payload[0] % 2 == 0) {
                    sim.after(1, [&sum] { ++sum; });
                  }
                });
    }
    sim.run();
  };
  // Warm-up: the slab and the heap reach this pattern's high-water mark.
  round();
  const std::uint64_t events_before = sim.events_processed();
  g_alloc_count.store(0);
  g_counting.store(true);
  round();
  g_counting.store(false);
  EXPECT_EQ(sim.events_processed() - events_before, 15'000u);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "scheduling and running inline events allocated";
  EXPECT_GT(sum, 0u);
}

}  // namespace
