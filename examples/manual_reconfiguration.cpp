// Manual reconfiguration walkthrough (the "Manual Reconfiguration" entry
// point of Figure 4): an administrator changes quorum sizes store-wide and
// per-object through the Reconfiguration Manager, with failure injection to
// demonstrate the epoch-change path and the protocol's indulgence to false
// suspicions.
//
// Build & run:   ./build/examples/manual_reconfiguration
#include <cstdio>

#include "core/cluster.hpp"
#include "kv/quorum.hpp"
#include "kv/types.hpp"
#include "workload/workload.hpp"

int main() {
  using namespace qopt;

  ClusterConfig config;
  config.seed = 4;
  config.initial_quorum = {1, 5};
  Cluster cluster(config);
  cluster.preload(5'000, 4096);
  cluster.set_workload(workload::ycsb_a(5'000));
  cluster.run_for(seconds(5));

  auto show = [&](const char* when) {
    const auto& rm_config = cluster.rm().config();
    std::printf("%-42s default R=%d,W=%d cfno=%llu epoch=%llu "
                "(epoch changes so far: %llu)\n",
                when, rm_config.default_q.read_footprint(), rm_config.default_q.write_footprint(),
                static_cast<unsigned long long>(rm_config.cfno),
                static_cast<unsigned long long>(rm_config.epno),
                static_cast<unsigned long long>(
                    cluster.obs().registry().counter_value("rm.epoch_changes")));
  };
  show("initial configuration:");

  // ---- store-wide change, failure free: two-phase NEWQ/CONFIRM.
  cluster.reconfigure({3, 3}, [&](bool ok) {
    std::printf("  -> store-wide change to R=3,W=3 %s\n",
                ok ? "committed" : "REJECTED");
  });
  cluster.run_for(seconds(2));
  show("after store-wide reconfiguration:");

  // ---- per-object overrides for a write-hot directory of objects.
  cluster.reconfigure_objects({{10, {5, 1}}, {11, {5, 1}}, {12, {5, 1}}},
                              [&](bool ok) {
                                std::printf("  -> per-object batch %s\n",
                                            ok ? "committed" : "REJECTED");
                              });
  cluster.run_for(seconds(2));
  const kv::FullConfig& installed = cluster.rm().config();
  const kv::QuorumConfig hot = installed.strategy_for(10).footprint();
  const kv::QuorumConfig cold = installed.strategy_for(99).footprint();
  std::printf("  object 10 now uses R=%d,W=%d; object 99 uses R=%d,W=%d\n",
              hot.read_q, hot.write_q, cold.read_q, cold.write_q);

  // ---- an invalid request (R + W <= N) is rejected up front.
  cluster.reconfigure({2, 3}, [&](bool ok) {
    std::printf("  -> invalid change R=2,W=3 (R+W<=N) %s\n",
                ok ? "committed?!" : "rejected as expected");
  });
  cluster.run_for(seconds(1));

  // ---- reconfiguration while a proxy is falsely suspected: the RM cannot
  // wait for it, fences the old epoch on the storage nodes, and the live
  // proxy resynchronizes from NACKs. Safety is never at risk.
  std::printf("\ninjecting a 20 s false suspicion of proxy 2, then "
              "reconfiguring...\n");
  cluster.inject_false_suspicion(2, seconds(20));
  cluster.reconfigure({4, 2}, [&](bool ok) {
    std::printf("  -> change to R=4,W=2 under suspicion %s\n",
                ok ? "committed" : "REJECTED");
  });
  cluster.run_for(seconds(5));
  show("after reconfiguration under suspicion:");
  std::printf("  proxy 2 view: R=%d,W=%d (resynced via %llu NACKs)\n",
              cluster.proxy(2).default_quorum().read_q,
              cluster.proxy(2).default_quorum().write_q,
              static_cast<unsigned long long>(
                  cluster.obs().registry().counter_value(obs::instrument_name("proxy", 2, "nacks_received"))));

  cluster.run_for(seconds(5));
  std::printf("\nops completed: %llu, consistency violations: %zu\n",
              static_cast<unsigned long long>(cluster.metrics().total_ops()),
              cluster.checker().violations().size());
  return cluster.checker().clean() ? 0 : 1;
}
