// Whole-system determinism: identical seeds must give bit-identical
// executions across every feature combination. This is the regression net
// that keeps experiments reproducible (and is what makes the consistency
// property tests meaningful as evidence).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>

#include "autonomic/autonomic_manager.hpp"
#include "core/cluster.hpp"
#include "core/nemesis.hpp"
#include "kv/replicator.hpp"
#include "obs/span_export.hpp"
#include "workload/workload.hpp"

namespace qopt {
namespace {

struct Fingerprint {
  std::uint64_t ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t messages = 0;
  std::uint64_t reconfigs = 0;
  std::uint64_t cfno = 0;
  std::size_t overrides = 0;
  std::uint64_t nacks = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint run_scenario(std::uint64_t seed, bool autotune, bool anti_entropy,
                         bool failures) {
  ClusterConfig config;
  config.num_storage = 6;
  config.num_proxies = 3;
  config.clients_per_proxy = 3;
  config.replication = 5;
  config.initial_quorum = {3, 3};
  config.seed = seed;
  config.client_retry_timeout = failures ? milliseconds(300) : 0;
  Cluster cluster(config);
  cluster.preload(500, 2048);
  cluster.set_workload(workload::ycsb_a(500));
  if (autotune) {
    autonomic::AutonomicOptions tuning;
    tuning.round_window = seconds(2);
    tuning.quarantine = seconds(1);
    cluster.enable_autotuning(tuning);
  }
  if (anti_entropy) {
    kv::ReplicatorOptions options;
    options.interval = seconds(2);
    cluster.enable_anti_entropy(options);
  }
  cluster.run_for(seconds(3));
  if (failures) {
    cluster.inject_false_suspicion(1, seconds(2));
    cluster.reconfigure({4, 2});
    cluster.run_for(seconds(2));
    cluster.crash_proxy(2);
  }
  cluster.run_for(seconds(10));

  Fingerprint fp;
  fp.ops = cluster.metrics().total_ops();
  fp.reads = cluster.metrics().total_reads();
  fp.writes = cluster.metrics().total_writes();
  fp.messages = cluster.obs().registry().counter_value("net.messages_sent");
  fp.reconfigs = cluster.obs().registry().counter_value("rm.reconfigurations_completed");
  fp.cfno = cluster.rm().config().cfno;
  fp.overrides = cluster.rm().config().overrides.size();
  for (std::uint32_t i = 0; i < 3; ++i) {
    fp.nacks += cluster.obs().registry().counter_value(obs::instrument_name("proxy", i, "nacks_received"));
  }
  return fp;
}

class Determinism
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(Determinism, IdenticalSeedsIdenticalExecutions) {
  const auto [autotune, anti_entropy, failures] = GetParam();
  const Fingerprint a = run_scenario(99, autotune, anti_entropy, failures);
  const Fingerprint b = run_scenario(99, autotune, anti_entropy, failures);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.reconfigs, b.reconfigs);
  EXPECT_EQ(a.cfno, b.cfno);
  EXPECT_EQ(a.overrides, b.overrides);
  EXPECT_EQ(a.nacks, b.nacks);
  EXPECT_GT(a.ops, 0u);
}

TEST_P(Determinism, DifferentSeedsDiverge) {
  const auto [autotune, anti_entropy, failures] = GetParam();
  const Fingerprint a = run_scenario(99, autotune, anti_entropy, failures);
  const Fingerprint b = run_scenario(100, autotune, anti_entropy, failures);
  EXPECT_NE(a.messages, b.messages);
}

// Span exports are part of the determinism contract: the trace layer rides
// the same virtual clock and deterministic ids as everything else, so two
// same-seed runs — even under chaos injection — must produce byte-identical
// Chrome and CSV exports.
std::pair<std::string, std::string> traced_chaos_run(std::uint64_t seed) {
  ClusterConfig config;
  config.num_storage = 6;
  config.num_proxies = 3;
  config.clients_per_proxy = 3;
  config.replication = 5;
  config.initial_quorum = {3, 3};
  config.seed = seed;
  config.client_retry_timeout = milliseconds(300);
  config.span_sample_every = 1;
  Cluster cluster(config);
  cluster.preload(500, 2048);
  cluster.set_workload(workload::ycsb_a(500));
  NemesisOptions chaos;
  chaos.mean_interval = milliseconds(400);
  chaos.seed = seed;
  Nemesis nemesis(cluster, chaos);
  nemesis.start();
  cluster.run_for(seconds(8));
  return {obs::to_chrome_json(cluster.obs().spans()),
          obs::to_span_csv(cluster.obs().spans().completed())};
}

TEST(SpanDeterminism, ByteIdenticalExportsUnderNemesisFaults) {
  const auto [chrome_a, csv_a] = traced_chaos_run(23);
  const auto [chrome_b, csv_b] = traced_chaos_run(23);
  EXPECT_EQ(chrome_a, chrome_b);
  EXPECT_EQ(csv_a, csv_b);
  EXPECT_GT(csv_a.size(), csv_a.find('\n'));  // more than just the header
}

INSTANTIATE_TEST_SUITE_P(
    Features, Determinism,
    ::testing::Values(std::make_tuple(false, false, false),
                      std::make_tuple(true, false, false),
                      std::make_tuple(false, false, true),
                      std::make_tuple(true, true, false),
                      std::make_tuple(true, true, true)),
    [](const auto& param_info) {
      std::string name;
      name += std::get<0>(param_info.param) ? "tune" : "static";
      name += std::get<1>(param_info.param) ? "_ae" : "";
      name += std::get<2>(param_info.param) ? "_fail" : "";
      return name;
    });

}  // namespace
}  // namespace qopt
