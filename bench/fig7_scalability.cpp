// Eval-F — scalability of the data plane and of Q-OPT's control loop.
//
// Sweeps the cluster size (storage nodes + proxies scaled together) under a
// fixed per-proxy client population and reports raw throughput, throughput
// with Q-OPT's monitoring + tuning active, and the control-plane message
// overhead — Q-OPT's design goal i (Section 3) is that self-tuning must not
// impair scalability.
#include <cstdio>

#include "autonomic/autonomic_manager.hpp"
#include "bench/bench_common.hpp"
#include "core/cluster.hpp"
#include "util/time.hpp"

namespace {

using namespace qopt;

struct ScalePoint {
  double tput_static = 0;
  double tput_qopt = 0;
  double control_msgs_per_op = 0;
};

ScalePoint run_scale(std::uint32_t proxies, std::uint32_t storage,
                     bool autotune) {
  ClusterConfig config;
  config.num_proxies = proxies;
  config.num_storage = storage;
  config.clients_per_proxy = 10;
  config.replication = 5;
  config.initial_quorum = {3, 3};
  config.seed = 67;
  config.check_consistency = false;
  Cluster cluster(config);
  const std::uint64_t objects = 4'000ull * storage;
  cluster.preload(objects, 4096);
  cluster.set_workload(workload::ycsb_b(objects));
  if (autotune) {
    autonomic::AutonomicOptions tuning;
    tuning.round_window = seconds(5);
    cluster.enable_autotuning(tuning);
  }
  cluster.run_for(seconds(90));
  const Time t1 = cluster.now();
  ScalePoint point;
  const double tput = cluster.metrics().throughput(t1 - seconds(30), t1);
  if (autotune) {
    point.tput_qopt = tput;
  } else {
    point.tput_static = tput;
  }
  point.control_msgs_per_op =
      static_cast<double>(
          cluster.obs().registry().counter_value("net.messages_sent")) /
      static_cast<double>(cluster.metrics().total_ops());
  return point;
}

}  // namespace

int main() {
  bench::print_header(
      "Scalability: cluster size vs throughput, with and without Q-OPT",
      "self-tuning must preserve the system's scalability (design challenge "
      "i, Section 3): monitoring is probabilistic and per-round");

  std::printf("%-22s %12s %12s %10s %14s\n", "cluster", "static",
              "with Q-OPT", "ratio", "msgs/op(Q-OPT)");
  struct Size {
    std::uint32_t proxies;
    std::uint32_t storage;
  };
  for (const Size size : {Size{1, 5}, Size{2, 10}, Size{3, 15},
                          Size{5, 20}, Size{8, 30}}) {
    const ScalePoint without = run_scale(size.proxies, size.storage, false);
    const ScalePoint with = run_scale(size.proxies, size.storage, true);
    std::printf("%u proxies / %2u storage %12.0f %12.0f %9.2fx %14.2f\n",
                size.proxies, size.storage, without.tput_static,
                with.tput_qopt, with.tput_qopt / without.tput_static,
                with.control_msgs_per_op);
  }
  std::printf("\n(workload: YCSB-B from a mid-range R=3,W=3 start; Q-OPT's "
              "gain comes from tuning toward R=1;\n the msgs/op column "
              "includes all data-plane traffic — the control plane adds "
              "only the per-round NEWROUND/ROUNDSTATS/NEWTOPK exchanges "
              "per proxy)\n\n");
  return 0;
}
