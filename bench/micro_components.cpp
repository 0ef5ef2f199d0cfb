// Component micro-benchmarks (google-benchmark): per-operation costs of the
// pieces Q-OPT puts on the data path or in the control loop — Space-Saving
// updates (every client access), decision-tree inference (per tuned object
// per round), replica placement, key sampling, and the simulation kernel.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "kv/placement.hpp"
#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "topk/space_saving.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace {

using namespace qopt;

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_ZipfianSample(benchmark::State& state) {
  workload::ZipfianKeys keys(static_cast<std::uint64_t>(state.range(0)));
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(keys.sample(rng));
}
BENCHMARK(BM_ZipfianSample)->Arg(1000)->Arg(100000);

void BM_SpaceSavingAdd(benchmark::State& state) {
  topk::SpaceSaving summary(static_cast<std::size_t>(state.range(0)));
  workload::ZipfianKeys keys(1'000'000);
  Rng rng(3);
  for (auto _ : state) summary.add(keys.sample(rng));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SpaceSavingAdd)->Arg(64)->Arg(1024);

void BM_SpaceSavingTop(benchmark::State& state) {
  topk::SpaceSaving summary(128);
  workload::ZipfianKeys keys(100'000);
  Rng rng(4);
  for (int i = 0; i < 100'000; ++i) summary.add(keys.sample(rng));
  for (auto _ : state) benchmark::DoNotOptimize(summary.top(16));
}
BENCHMARK(BM_SpaceSavingTop);

void BM_TreeTrain(benchmark::State& state) {
  ml::Dataset data({"write_ratio", "avg_size_kib", "ops_per_sec"});
  Rng rng(5);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    const double ratio = rng.next_double();
    const double size = rng.uniform(1, 512);
    const int label = ratio > 0.5 ? 1 : (size > 64 ? 2 : 5);
    data.add_row({ratio, size, rng.uniform(10, 5000)}, label);
  }
  for (auto _ : state) {
    ml::DecisionTree tree;
    tree.train(data);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_TreeTrain)->Arg(170)->Arg(1000);

void BM_TreePredict(benchmark::State& state) {
  ml::Dataset data({"write_ratio", "avg_size_kib", "ops_per_sec"});
  Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    const double ratio = rng.next_double();
    const double size = rng.uniform(1, 512);
    data.add_row({ratio, size, rng.uniform(10, 5000)},
                 ratio > 0.5 ? 1 : (size > 64 ? 2 : 5));
  }
  ml::DecisionTree tree;
  tree.train(data);
  std::vector<double> row{0.4, 32.0, 900.0};
  for (auto _ : state) benchmark::DoNotOptimize(tree.predict(row));
}
BENCHMARK(BM_TreePredict);

// One lookup of S nodes at replication degree N, into a warm vector as the
// proxy, the bulk load and the anti-entropy sweep do. The shapes straddle
// the two rank/insertion crossovers that kv::Placement::selects_by_rank
// encodes: 20 | 24 nodes at N = 5, 13 | 14 at N = 1.
void BM_PlacementReplicas(benchmark::State& state) {
  const kv::Placement placement(static_cast<std::uint32_t>(state.range(0)),
                                static_cast<int>(state.range(1)), 7);
  std::vector<std::uint32_t> out;
  std::uint64_t oid = 0;
  for (auto _ : state) {
    placement.replicas_into(++oid, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PlacementReplicas)
    ->ArgNames({"S", "N"})
    ->Args({5, 5})
    ->Args({10, 5})
    ->Args({14, 5})
    ->Args({20, 5})
    ->Args({24, 5})
    ->Args({30, 5})
    ->Args({100, 5})
    ->Args({10, 1})
    ->Args({13, 1})
    ->Args({14, 1})
    ->Args({10, 3});

void BM_SimulatorEventChain(benchmark::State& state) {
  // Cost of schedule + dispatch for a chain of dependent events. One
  // simulator serves every iteration, as one serves a whole run.
  sim::Simulator sim;
  for (auto _ : state) {
    int remaining = 1000;
    std::function<void()> step = [&] {
      if (--remaining > 0) sim.after(10, step);
    };
    sim.after(10, step);
    sim.run();
  }
  benchmark::DoNotOptimize(sim.events_processed());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorEventChain);

/// Event delays whose quantiles follow those recorded on the benchmark's
/// `ycsb_b` workload (p10 ~0.3 ms, p50 ~0.6 ms, p90 ~4.5 ms, max 150 ms,
/// rare 1 s timers), from a fixed seed.
std::vector<Duration> hold_delays() {
  Rng rng(42);
  std::vector<Duration> delays(std::size_t{1} << 12);
  for (Duration& d : delays) {
    const double u = rng.next_double();
    if (u < 0.08) {
      d = microseconds(60);  // the proxy's CPU step
    } else if (u < 0.75) {
      d = rng.uniform_int(microseconds(300), microseconds(800) - 1);
    } else if (u < 0.753) {
      d = kSecond;
    } else {
      d = std::min<Duration>(
          static_cast<Duration>(rng.exponential(5.0 * kMillisecond)),
          150 * kMillisecond);
    }
  }
  return delays;
}

/// One pending event of the hold model: when it runs it schedules its
/// successor after the next delay of the table.
struct HoldEvent {
  sim::Simulator* sim;
  const std::vector<Duration>* delays;
  std::size_t* next;
  void operator()() const {
    const Duration d = (*delays)[(*next)++ & (delays->size() - 1)];
    sim->after(d, *this);
  }
};

void BM_SimulatorHold(benchmark::State& state) {
  // The classic hold model: `depth` events stay pending, and each iteration
  // pops the least and schedules one successor, so it times one schedule
  // plus one pop of the event queue at that depth.
  const std::vector<Duration> delays = hold_delays();
  std::size_t next = 0;
  sim::Simulator sim;
  const HoldEvent event{&sim, &delays, &next};
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    sim.after(delays[next++], event);
  }
  for (auto _ : state) sim.step();
  benchmark::DoNotOptimize(sim.now());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorHold)->ArgName("depth")->Arg(90)->Arg(1000);

void BM_NetworkSendDeliver(benchmark::State& state) {
  sim::Simulator sim;
  Rng rng(8);
  sim::Network<int> net(sim, sim::LatencyModel{}, rng);
  std::uint64_t received = 0;
  net.register_node(sim::storage_id(0),
                    [&](const sim::NodeId&, const int&) { ++received; });
  for (auto _ : state) {
    net.send(sim::proxy_id(0), sim::storage_id(0), 1);
    sim.run();
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_NetworkSendDeliver);

}  // namespace

BENCHMARK_MAIN();
