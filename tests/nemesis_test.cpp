// Nemesis-driven chaos testing: dense randomized schedules of
// reconfigurations, suspicions, heartbeat pauses, and bounded crashes, with
// the Dynamic Quorum Consistency checker as the oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "autonomic/autonomic_manager.hpp"
#include "core/cluster.hpp"
#include "core/nemesis.hpp"
#include "obs/registry.hpp"
#include "oracle/strategy_optimizer.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace qopt {
namespace {

ClusterConfig chaos_config(std::uint64_t seed, bool heartbeat) {
  ClusterConfig config;
  config.num_storage = 7;
  config.num_proxies = 3;
  config.clients_per_proxy = 3;
  config.replication = 5;
  config.initial_quorum = {3, 3};
  config.seed = seed;
  config.heartbeat_fd = heartbeat;
  config.client_retry_timeout = milliseconds(500);
  return config;
}

std::uint64_t nemesis_counter(const Cluster& cluster, const std::string& kind) {
  return cluster.obs().registry().counter_value("nemesis." + kind);
}

/// Events injected so far: every `nemesis.*` kind except `heals`, which
/// closes a partition rather than injecting a fault.
std::uint64_t nemesis_events(const Cluster& cluster) {
  std::uint64_t total = 0;
  for (const char* kind :
       {"reconfigurations", "per_object_reconfigurations", "false_suspicions",
        "heartbeat_pauses", "proxy_crashes", "storage_crashes", "partitions",
        "loss_bursts", "restarts", "rm_crashes", "rm_partitions"}) {
    total += nemesis_counter(cluster, kind);
  }
  return total;
}

TEST(NemesisTest, InjectsConfiguredEventMix) {
  Cluster cluster(chaos_config(3, false));
  cluster.preload(500, 1024);
  cluster.set_workload(workload::ycsb_a(500));
  NemesisOptions options;
  options.mean_interval = milliseconds(200);
  options.seed = 3;
  Nemesis nemesis(cluster, options);
  nemesis.start();
  cluster.run_for(seconds(20));
  nemesis.stop();
  EXPECT_GT(nemesis_events(cluster), 30u);
  EXPECT_GT(nemesis_counter(cluster, "reconfigurations"), 0u);
  EXPECT_GT(nemesis_counter(cluster, "false_suspicions"), 0u);
  EXPECT_LE(nemesis_counter(cluster, "proxy_crashes"), 1u);
  EXPECT_LE(nemesis_counter(cluster, "storage_crashes"), 1u);
}

TEST(NemesisTest, StopHaltsInjection) {
  Cluster cluster(chaos_config(5, false));
  cluster.preload(100, 1024);
  cluster.set_workload(workload::ycsb_a(100));
  NemesisOptions options;
  options.mean_interval = milliseconds(100);
  Nemesis nemesis(cluster, options);
  nemesis.start();
  cluster.run_for(seconds(2));
  nemesis.stop();
  const std::uint64_t events = nemesis_events(cluster);
  cluster.run_for(seconds(2));
  EXPECT_EQ(nemesis_events(cluster), events);
}

class NemesisChaos
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(NemesisChaos, ConsistencyAndLivenessUnderDenseChaos) {
  const auto [seed, heartbeat] = GetParam();
  Cluster cluster(chaos_config(seed, heartbeat));
  cluster.preload(500, 1024);
  workload::WorkloadSpec spec;
  spec.write_ratio = 0.5;
  spec.keys = std::make_shared<workload::ZipfianKeys>(500);
  cluster.set_workload(std::make_shared<workload::BasicWorkload>(spec));

  NemesisOptions options;
  options.mean_interval = milliseconds(250);
  options.seed = seed * 17 + 1;
  Nemesis nemesis(cluster, options);
  nemesis.start();
  cluster.run_for(seconds(25));
  nemesis.stop();
  cluster.run_for(seconds(5));  // quiesce

  // Safety: no stale read, ever.
  ASSERT_TRUE(cluster.checker().clean())
      << cluster.checker().violations().size() << " violations under chaos";
  EXPECT_GT(cluster.checker().reads_checked(), 1'000u);
  // Liveness: the RM drained its queue and clients kept making progress.
  EXPECT_FALSE(cluster.rm().busy());
  EXPECT_EQ(cluster.rm().queued(), 0u);
  const std::uint64_t ops_before = cluster.metrics().total_ops();
  cluster.run_for(seconds(2));
  EXPECT_GT(cluster.metrics().total_ops(), ops_before)
      << "cluster wedged after the chaos schedule";
}

// The explicit-strategy chaos command of CI with seed 6: the AM installs
// optimizer strategies (2 s rounds) while the nemesis reconfigures every
// ~250 ms. A write re-tagged on its NACK retry with the cfno of a draining
// change used to look current to reads under the new, smaller read quorum:
// they skipped the repair and missed a fresher write that another proxy
// completed under the committed write quorum, which gave two stale reads.
TEST(NemesisExplicitStrategy, SeedSixReadsStayFreshAcrossTransitions) {
  ClusterConfig config;
  config.seed = 6;
  Cluster cluster(config);
  cluster.preload(10'000, 4096);
  cluster.set_workload(workload::ycsb_a(10'000, 4096));
  autonomic::AutonomicOptions tuning;
  tuning.round_window = seconds(2);
  cluster.enable_autotuning(
      tuning, std::make_shared<oracle::StrategyOptimizer>(config.replication));
  NemesisOptions chaos;
  chaos.mean_interval = milliseconds(250);
  chaos.seed = config.seed;
  Nemesis nemesis(cluster, chaos);
  nemesis.start();
  cluster.run_for(seconds(27));

  EXPECT_GT(cluster.checker().reads_checked(), 10'000u);
  EXPECT_TRUE(cluster.checker().violations().empty())
      << cluster.checker().violations().size() << " stale reads";
  EXPECT_TRUE(cluster.checker().quorum_violations().empty())
      << cluster.checker().quorum_violations().size()
      << " intersection-audit violations";
}

// The CI chaos command (`qopt_cli --workload ycsb-a --duration 25 --warmup
// 2 --net-loss 0.01 --net-dup 0.005 --nemesis --nemesis-partitions
// --nemesis-interval 250`) with `seed`, autotuned with 2 s rounds
// (`--autotune --round-window 2`) when asked. After its 27 s the nemesis and
// the clients stop for 20 s. In both seeds below a proxy missed an epoch
// change and took a later NEWQ's change onto its stale base: its operations
// ran quorums that missed other proxies' (13 and 8 violations) until each
// NEWQ carried the RM's committed configuration.
void expect_fresh_and_drained(std::uint64_t seed, bool autotune) {
  ClusterConfig config;
  config.seed = seed;
  config.net_loss = 0.01;
  config.net_duplication = 0.005;
  config.client_retry_timeout = milliseconds(1000);
  Cluster cluster(config);
  cluster.preload(10'000, 4096);
  cluster.set_workload(workload::ycsb_a(10'000, 4096));
  if (autotune) {
    autonomic::AutonomicOptions tuning;
    tuning.round_window = seconds(2);
    cluster.enable_autotuning(tuning);
  }
  NemesisOptions chaos;
  chaos.mean_interval = milliseconds(250);
  chaos.seed = seed;
  chaos.partition = 1.0;
  chaos.loss_burst = 1.0;
  chaos.restart = 2.0;
  Nemesis nemesis(cluster, chaos);
  nemesis.start();
  cluster.run_for(seconds(27));
  nemesis.stop();
  cluster.stop_clients();
  cluster.run_for(seconds(20));

  EXPECT_GT(cluster.checker().reads_checked(), 5'000u);
  EXPECT_TRUE(cluster.checker().violations().empty())
      << cluster.checker().violations().size() << " stale reads";
  EXPECT_TRUE(cluster.checker().quorum_violations().empty())
      << cluster.checker().quorum_violations().size()
      << " intersection-audit violations";
  EXPECT_FALSE(cluster.rm().busy()) << "reconfiguration still in flight";
}

TEST(NemesisCiChaos, SeedSeventyFiveStaysFreshAndDrains) {
  expect_fresh_and_drained(75, /*autotune=*/false);
}

TEST(NemesisCiChaos, AutotunedSeedFortyStaysFreshAndDrains) {
  expect_fresh_and_drained(40, /*autotune=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, NemesisChaos,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 9),
                       ::testing::Bool()),
    [](const auto& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_hb" : "_oracle");
    });

}  // namespace
}  // namespace qopt
