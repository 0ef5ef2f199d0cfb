// Dynamic complement to the qopt_perf static linter: a counting global
// operator new hook runs a steady-state cluster workload and asserts the
// engine's per-event allocation count stays under an explicit budget.
// The static rules catch patterns; this gate catches what they cannot see
// (allocations behind aliases, library internals, growth that never
// plateaus). The budget is amortized per simulator event over a long
// window, so one-off warm-up growth does not dominate.
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "core/cluster.hpp"
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

TEST(AllocGateTest, SteadyStateStaysWithinPerEventBudget) {
  qopt::ClusterConfig config;
  // The gate measures the engine, not the test harness: the consistency
  // checker's history log grows per operation by design and span tracing
  // is off by default.
  config.check_consistency = false;
  config.seed = 7;
  qopt::Cluster cluster(config);
  cluster.preload(1024, 4096);
  cluster.set_workload(qopt::workload::ycsb_b(1024));

  // Warm-up: dedup windows, vector capacities, metrics reservoirs, and the
  // placement scratch all reach their steady-state footprint.
  cluster.run_for(qopt::seconds(2));

  const std::uint64_t events_before = cluster.simulator().events_processed();
  g_alloc_count.store(0);
  g_counting.store(true);
  cluster.run_for(qopt::seconds(8));
  g_counting.store(false);

  const std::uint64_t events =
      cluster.simulator().events_processed() - events_before;
  const std::uint64_t allocs = g_alloc_count.load();
  ASSERT_GT(events, 10'000u) << "workload did not reach steady state";

  // Budget: at most 0.4 heap allocations per simulated event, amortized.
  // Today's engine measures ~0.29. Every event's closure lives inline in a
  // simulator slot and every message in the network's in-flight slab, so
  // neither scheduling nor delivery allocates; what remains is per-operation
  // bookkeeping in the components (the proxy's pending-op map node and its
  // per-op replica vectors, storage's applied-write set). The bound leaves
  // jitter headroom but a reintroduced per-message or per-event allocation
  // — a boxed callable, container churn, per-event formatting — fails the
  // gate.
  const double per_event =
      static_cast<double>(allocs) / static_cast<double>(events);
  RecordProperty("allocs_per_event", std::to_string(per_event));
  std::printf("[alloc-gate] %llu allocations / %llu events = %.3f per event\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(events), per_event);
  EXPECT_LE(per_event, 0.4)
      << allocs << " allocations over " << events << " events ("
      << per_event << " per event)";
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
