// Property-based tests of Dynamic Quorum Consistency (Section 5): across
// randomized seeds, workloads, quorum ping-pong, per-object churn, crashes
// and false suspicions, every read must return a version at least as fresh
// as the last write that completed before it started. Parameterized gtest
// sweeps give wide schedule coverage.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "autonomic/autonomic_manager.hpp"
#include "core/cluster.hpp"
#include "kv/types.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace qopt {
namespace {

ClusterConfig base_config(std::uint64_t seed) {
  ClusterConfig config;
  config.num_storage = 5;
  config.num_proxies = 3;
  config.clients_per_proxy = 3;
  config.replication = 5;
  config.initial_quorum = {3, 3};
  config.seed = seed;
  config.check_consistency = true;
  return config;
}

void expect_clean(const Cluster& cluster) {
  const auto& violations = cluster.checker().violations();
  ASSERT_TRUE(violations.empty())
      << violations.size() << " consistency violations; first on object "
      << violations.front().oid << " at t=" << violations.front().read_start;
  EXPECT_GT(cluster.checker().reads_checked(), 100u);
}

// ----------------------------------------------------- reconfig ping-pong

class ReconfigPingPong
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(ReconfigPingPong, ReadsNeverStale) {
  const auto [seed, write_ratio] = GetParam();
  Cluster cluster(base_config(seed));
  cluster.preload(300, 1024);
  workload::WorkloadSpec spec;
  spec.write_ratio = write_ratio;
  spec.keys = std::make_shared<workload::ZipfianKeys>(300);
  cluster.set_workload(std::make_shared<workload::BasicWorkload>(spec));
  Rng rng(seed * 31 + 7);
  cluster.run_for(milliseconds(500));
  for (int i = 0; i < 8; ++i) {
    const int w = static_cast<int>(rng.next_below(5)) + 1;
    cluster.reconfigure({5 - w + 1, w});
    cluster.run_for(milliseconds(300 + rng.next_below(700)));
  }
  cluster.run_for(seconds(2));
  expect_clean(cluster);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ReconfigPingPong,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(0.1, 0.5, 0.9)),
    [](const auto& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) + "_w" +
             std::to_string(static_cast<int>(std::get<1>(param_info.param) * 100));
    });

// --------------------------------------------------- per-object churn

class PerObjectChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PerObjectChurn, OverridesPreserveConsistency) {
  const std::uint64_t seed = GetParam();
  Cluster cluster(base_config(seed));
  cluster.preload(100, 1024);
  workload::WorkloadSpec spec;
  spec.write_ratio = 0.5;
  spec.keys = std::make_shared<workload::UniformKeys>(100);
  cluster.set_workload(std::make_shared<workload::BasicWorkload>(spec));
  Rng rng(seed);
  cluster.run_for(milliseconds(300));
  for (int round = 0; round < 6; ++round) {
    std::vector<std::pair<kv::ObjectId, kv::QuorumConfig>> overrides;
    for (int i = 0; i < 5; ++i) {
      const kv::ObjectId oid = rng.next_below(100);
      const int w = static_cast<int>(rng.next_below(5)) + 1;
      overrides.emplace_back(oid, kv::QuorumConfig::of(5 - w + 1, w));
    }
    cluster.reconfigure_objects(std::move(overrides));
    cluster.run_for(milliseconds(200 + rng.next_below(500)));
  }
  cluster.run_for(seconds(2));
  expect_clean(cluster);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PerObjectChurn,
                         ::testing::Range<std::uint64_t>(10, 20));

// ------------------------------------------------ failures during reconfig

class FailureSchedule : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailureSchedule, FalseSuspicionsAndCrashesAreSafe) {
  const std::uint64_t seed = GetParam();
  Cluster cluster(base_config(seed));
  cluster.preload(200, 1024);
  workload::WorkloadSpec spec;
  spec.write_ratio = 0.4;
  spec.keys = std::make_shared<workload::ZipfianKeys>(200);
  cluster.set_workload(std::make_shared<workload::BasicWorkload>(spec));
  Rng rng(seed ^ 0xF00D);
  cluster.run_for(milliseconds(300));

  bool crashed_one = false;
  for (int i = 0; i < 6; ++i) {
    // Randomly interleave reconfigurations with failure events.
    const int w = static_cast<int>(rng.next_below(5)) + 1;
    cluster.reconfigure({5 - w + 1, w});
    const auto choice = rng.next_below(4);
    if (choice == 0) {
      cluster.inject_false_suspicion(
          static_cast<std::uint32_t>(rng.next_below(3)),
          milliseconds(200 + rng.next_below(800)));
    } else if (choice == 1 && !crashed_one) {
      // Crash at most one proxy (its clients stall, as in a real outage).
      cluster.crash_proxy(2);
      crashed_one = true;
    }
    cluster.run_for(milliseconds(300 + rng.next_below(700)));
  }
  cluster.run_for(seconds(3));
  expect_clean(cluster);
  // Liveness: reconfigurations terminated despite suspicions.
  EXPECT_EQ(cluster.obs().registry().counter_value("rm.reconfigurations_completed"), 6u);
  EXPECT_FALSE(cluster.rm().busy());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailureSchedule,
                         ::testing::Range<std::uint64_t>(30, 42));

// --------------------------------------------- autotuning under churn

class AutotunedChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AutotunedChurn, SelfTuningNeverViolatesConsistency) {
  const std::uint64_t seed = GetParam();
  Cluster cluster(base_config(seed));
  cluster.preload(1000, 2048);
  // Phase-shifting workload forces repeated adaptation.
  cluster.set_workload(std::make_shared<workload::PhasedWorkload>(
      std::vector<workload::PhasedWorkload::Phase>{
          {seconds(15), workload::ycsb_b(1000)},
          {seconds(15), workload::backup_c(1000)}}));
  autonomic::AutonomicOptions options;
  options.round_window = seconds(2);
  options.quarantine = milliseconds(500);
  cluster.enable_autotuning(options);
  cluster.run_for(seconds(70));
  expect_clean(cluster);
  EXPECT_GT(cluster.obs().registry().counter_value("rm.reconfigurations_completed"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutotunedChurn,
                         ::testing::Values(50, 51, 52, 53));

// ------------------------------------------------- storage-crash schedules

class StorageCrash : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StorageCrash, QuorumSurvivesMinorityStorageFailure) {
  const std::uint64_t seed = GetParam();
  ClusterConfig config = base_config(seed);
  config.num_storage = 6;
  config.initial_quorum = {3, 3};
  Cluster cluster(config);
  cluster.preload(200, 1024);
  workload::WorkloadSpec spec;
  spec.write_ratio = 0.5;
  spec.keys = std::make_shared<workload::UniformKeys>(200);
  cluster.set_workload(std::make_shared<workload::BasicWorkload>(spec));
  cluster.run_for(seconds(1));
  cluster.crash_storage(static_cast<std::uint32_t>(seed % 6));
  cluster.run_for(milliseconds(700));
  cluster.reconfigure({4, 2});
  cluster.run_for(seconds(3));
  expect_clean(cluster);
  EXPECT_EQ(cluster.obs().registry().counter_value("rm.reconfigurations_completed"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageCrash,
                         ::testing::Range<std::uint64_t>(60, 66));

}  // namespace
}  // namespace qopt
