// Eval-F — fault-tolerance degradation (beyond the paper's reliable-channel
// assumption, docs/ROBUSTNESS.md): throughput and tail latency as the link
// loss rate grows (0 / 0.1 / 1 / 5 %), with the proxies' timeout/retransmit
// plane keeping every operation live; and the throughput dip/recovery around
// a 2 s storage partition followed by a heal.
#include <cstdio>
#include <cstdint>

#include "bench/bench_common.hpp"
#include "core/cluster.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "sim/ids.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace {

using namespace qopt;

ClusterConfig make_config(double loss) {
  ClusterConfig config;
  config.num_storage = 10;
  config.num_proxies = 3;
  config.clients_per_proxy = 10;
  config.replication = 5;
  config.initial_quorum = {3, 3};
  config.seed = 88;
  config.net_loss = loss;
  // The client<->proxy hop is covered by the client's failover timer, the
  // proxy<->storage hop by the retransmit plane.
  config.client_retry_timeout = loss > 0 ? seconds(1) : Duration{0};
  return config;
}

struct LossRow {
  double loss = 0;
  double tput = 0;
  double read_p99 = 0;
  double write_p99 = 0;
  std::uint64_t lost = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  bool consistent = true;
};

LossRow run_loss_point(double loss) {
  const ClusterConfig config = make_config(loss);
  Cluster cluster(config);
  cluster.preload(10'000, 4096);
  cluster.set_workload(workload::ycsb_a(10'000, 4096));
  const obs::RunReport report =
      bench::run_and_report(cluster, seconds(2), seconds(12));

  LossRow row;
  row.loss = loss;
  row.tput = report.throughput_ops;
  row.read_p99 = report.read_latency.p99_ms;
  row.write_p99 = report.write_latency.p99_ms;
  row.lost = report.dropped_link_loss;
  for (std::uint32_t i = 0; i < config.num_proxies; ++i) {
    row.retries += cluster.obs().registry().counter_value(
        obs::instrument_name("proxy", i, "retries"));
    row.timeouts += cluster.obs().registry().counter_value(
        obs::instrument_name("proxy", i, "timeouts"));
  }
  row.consistent = report.consistency_violations == 0;
  return row;
}

void partition_degradation() {
  Cluster cluster(make_config(0.0));
  cluster.preload(10'000, 4096);
  cluster.set_workload(workload::ycsb_a(10'000, 4096));
  cluster.run_for(seconds(4));  // warmup

  const auto window_tput = [&](Duration length) {
    const Time t0 = cluster.now();
    cluster.run_for(length);
    return cluster.metrics().throughput(t0, cluster.now());
  };

  const double before = window_tput(seconds(4));
  const std::uint64_t id =
      cluster.isolate({sim::storage_id(0), sim::storage_id(1)});
  const double during = window_tput(seconds(2));
  cluster.heal_partition(id);
  const double after = window_tput(seconds(4));

  std::printf("\n2 s partition of storage {0,1} (symmetric), then heal:\n");
  std::printf("  %-22s %10.0f ops/s\n", "before", before);
  std::printf("  %-22s %10.0f ops/s  (%.0f%% of steady)\n", "during partition",
              during, before > 0 ? 100.0 * during / before : 0.0);
  std::printf("  %-22s %10.0f ops/s  (%.0f%% of steady)\n", "after heal",
              after, before > 0 ? 100.0 * after / before : 0.0);
  std::printf("  partition drops       %10llu messages\n",
              static_cast<unsigned long long>(
                  cluster.obs().registry().counter_value(
                      "net.dropped.partitioned")));
  std::printf("  consistency           %10s\n",
              cluster.checker().clean() ? "clean" : "VIOLATED");
}

// Replicated-RM failover cost: the same store-wide reconfiguration, once
// undisturbed and once with the RM leader crashed mid-round — the follower
// resumes the round from the replicated log, so the price of the failure is
// detection delay plus a re-driven phase, not a lost round.
struct RmFailoverRow {
  bool completed = false;
  double latency_ms = 0;
  std::uint64_t leader_changes = 0;
  std::uint64_t rounds_resumed = 0;
  bool consistent = true;
};

RmFailoverRow run_rm_failover_point(bool crash_leader) {
  ClusterConfig config = make_config(0.0);
  config.rm_replicas = 3;
  Cluster cluster(config);
  cluster.preload(10'000, 4096);
  cluster.set_workload(workload::ycsb_a(10'000, 4096));
  cluster.run_for(seconds(4));  // warmup

  RmFailoverRow row;
  const Time started = cluster.now();
  Time finished = started;
  cluster.reconfigure({4, 2}, [&](bool ok) {
    row.completed = ok;
    finished = cluster.now();
  });
  if (crash_leader) {
    cluster.simulator().after(milliseconds(4), [&cluster] {
      cluster.crash_rm(cluster.replicated_rm().leader());
    });
  }
  cluster.run_for(seconds(5));

  row.latency_ms = to_seconds(finished - started) * 1e3;
  auto& reg = cluster.obs().registry();
  row.leader_changes = reg.counter_value("rm.leader_changes");
  row.rounds_resumed = reg.counter_value("rm.rounds_resumed");
  row.consistent = cluster.report().consistency_violations == 0;
  return row;
}

void rm_failover_section() {
  std::printf("\nreplicated RM (3 replicas): store-wide reconfiguration "
              "latency, leader crashed 4 ms into the round:\n");
  std::printf("  %-22s %12s %9s %9s %6s\n", "scenario", "reconfig",
              "failover", "resumed", "safe");
  for (const bool crash : {false, true}) {
    const RmFailoverRow row = run_rm_failover_point(crash);
    std::printf("  %-22s %9.2f ms %9llu %9llu %6s\n",
                crash ? "leader crash mid-round" : "no failure",
                row.completed ? row.latency_ms : -1.0,
                static_cast<unsigned long long>(row.leader_changes),
                static_cast<unsigned long long>(row.rounds_resumed),
                row.consistent && row.completed ? "yes" : "NO");
  }
}

}  // namespace

int main() {
  bench::print_header(
      "Fault tolerance: throughput/latency vs link loss, partition recovery",
      "departure from Section 3's reliable channels — retransmits with "
      "backoff keep the store live and consistent on lossy links");

  std::printf("%-8s %10s %12s %12s %10s %9s %9s %6s\n", "loss", "ops/s",
              "read p99", "write p99", "lost", "retries", "timeouts", "safe");
  for (const double loss : {0.0, 0.001, 0.01, 0.05}) {
    const LossRow row = run_loss_point(loss);
    std::printf("%-8.3f %10.0f %9.2f ms %9.2f ms %10llu %9llu %9llu %6s\n",
                row.loss * 100.0, row.tput, row.read_p99, row.write_p99,
                static_cast<unsigned long long>(row.lost),
                static_cast<unsigned long long>(row.retries),
                static_cast<unsigned long long>(row.timeouts),
                row.consistent ? "yes" : "NO");
  }

  partition_degradation();
  rm_failover_section();
  return 0;
}
