// Eval-E — reconfiguration protocol micro-costs (Section 5): duration and
// message complexity of the two-phase protocol on an idle vs loaded store,
// per-object batches, and the failure-suspicion path with its epoch
// change(s), plus the impact on client throughput while reconfiguring.
#include <cstdio>
#include <functional>

#include "bench/bench_common.hpp"
#include "core/cluster.hpp"
#include "kv/types.hpp"
#include "util/time.hpp"

namespace {

using namespace qopt;

struct CostRow {
  const char* name = "";
  double avg_ms = 0;
  double messages = 0;
  std::uint64_t epoch_changes = 0;
  double tput_ratio = 1.0;  // during-reconfig vs steady throughput
  bool consistent = true;
};

ClusterConfig make_config() {
  ClusterConfig config;
  config.seed = 55;
  config.initial_quorum = {3, 3};
  return config;
}

CostRow run_scenario(const char* name, bool loaded,
                     const std::function<void(Cluster&)>& mutate,
                     int reconfigs,
                     const std::function<void(Cluster&, int)>& reconfigure) {
  Cluster cluster(make_config());
  cluster.preload(5'000, 4096);
  if (loaded) {
    cluster.set_workload(workload::ycsb_a(5'000));
    cluster.run_for(seconds(5));
  }
  mutate(cluster);
  const double steady =
      loaded ? cluster.metrics().throughput(cluster.now() - seconds(3),
                                            cluster.now())
             : 0;
  const auto& reg = cluster.obs().registry();
  const auto msg_before = reg.counter_value("net.messages_sent");
  const Time t0 = cluster.now();
  for (int i = 0; i < reconfigs; ++i) {
    reconfigure(cluster, i);
    cluster.run_for(seconds(2));
  }
  const Time t1 = cluster.now();

  CostRow row;
  row.name = name;
  row.avg_ms =
      static_cast<double>(reg.counter_value("rm.reconfig_time_ns")) / 1e6 /
      static_cast<double>(reg.counter_value("rm.reconfigurations_completed"));
  // Message cost attributable to the control plane: on an idle store every
  // message in the window is protocol traffic; under load we report the
  // total delta for context.
  row.messages =
      static_cast<double>(reg.counter_value("net.messages_sent") -
                          msg_before) /
      static_cast<double>(reconfigs);
  row.epoch_changes = reg.counter_value("rm.epoch_changes");
  if (loaded && steady > 0) {
    row.tput_ratio = cluster.metrics().throughput(t0, t1) / steady;
  }
  row.consistent = cluster.checker().clean();
  return row;
}

}  // namespace

int main() {
  bench::print_header(
      "Reconfiguration protocol cost (two-phase, non-blocking)",
      "reconfiguration completes in a few message delays; operations keep "
      "flowing; suspicions add epoch-change rounds but never block");

  auto flip = [](Cluster& cluster, int i) {
    cluster.reconfigure(i % 2 ? kv::QuorumConfig::of(1, 5)
                              : kv::QuorumConfig::of(5, 1));
  };
  auto per_object = [](Cluster& cluster, int i) {
    std::vector<std::pair<kv::ObjectId, kv::QuorumConfig>> overrides;
    for (kv::ObjectId oid = 0; oid < 8; ++oid) {
      overrides.emplace_back(oid + static_cast<kv::ObjectId>(i) * 8,
                             i % 2 ? kv::QuorumConfig::of(1, 5)
                                   : kv::QuorumConfig::of(5, 1));
    }
    cluster.reconfigure_objects(std::move(overrides));
  };
  auto nothing = [](Cluster&) {};

  const CostRow rows[] = {
      run_scenario("global, idle store", false, nothing, 10, flip),
      run_scenario("global, loaded store", true, nothing, 10, flip),
      run_scenario("per-object batch (8), loaded", true, nothing, 10,
                   per_object),
      run_scenario("global, loaded + false suspicion", true,
                   [](Cluster& cluster) {
                     cluster.inject_false_suspicion(1, seconds(60));
                   },
                   10, flip),
      run_scenario("global, loaded + crashed proxy", true,
                   [](Cluster& cluster) { cluster.crash_proxy(4); }, 10,
                   flip),
  };

  std::printf("%-34s %10s %10s %7s %12s %6s\n", "scenario", "avg ms",
              "msgs/rec", "epochs", "tput-ratio", "safe");
  for (const CostRow& row : rows) {
    std::printf("%-34s %10.2f %10.0f %7llu %11.2f%% %6s\n", row.name,
                row.avg_ms, row.messages,
                static_cast<unsigned long long>(row.epoch_changes),
                row.tput_ratio * 100, row.consistent ? "yes" : "NO");
  }
  std::printf("\n(tput-ratio: throughput during the reconfiguration window "
              "relative to steady state;\n msgs/rec under load includes "
              "data-plane traffic and is an upper bound)\n\n");
  return 0;
}
