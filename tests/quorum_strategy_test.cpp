// QuorumStrategy: the quorum-system algebra (footprints, intersection,
// transition), the property that every sampled read/write quorum pair
// intersects, byte-identical majority replay, explicit-strategy installs
// through the full protocol, and survival of the chaos schedule with the
// intersection audit as the safety oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "core/nemesis.hpp"
#include "kv/quorum.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "oracle/oracle.hpp"
#include "oracle/strategy_optimizer.hpp"
#include "sim/ids.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace qopt {
namespace {

using kv::QuorumConfig;
using kv::QuorumStrategy;
using kv::WeightedQuorum;

// ------------------------------------------------------------- the algebra

TEST(QuorumStrategyTest, MajorityEqualsConvertedConfig) {
  const QuorumStrategy a = QuorumStrategy::majority(3, 3, 5);
  const QuorumStrategy b = QuorumConfig::of(3, 3);  // implicit conversion
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.is_majority());
  EXPECT_EQ(a.footprint(), QuorumConfig::of(3, 3));
  EXPECT_EQ(a.min_read_size(), 3);
  EXPECT_EQ(a.min_write_size(), 3);
  EXPECT_TRUE(a.valid(5));
  EXPECT_FALSE(QuorumStrategy(QuorumConfig::of(2, 3)).valid(5));  // 2+3 == N
}

TEST(QuorumStrategyTest, ExplicitFootprintCountsOverlap) {
  // Rows {0,1},{2,3},{4} as reads; all 4 transversals of size 3 as writes.
  std::vector<WeightedQuorum> reads = {{{0, 1}, 1.0}, {{2, 3}, 1.0},
                                       {{4}, 1.0}};
  std::vector<WeightedQuorum> writes = {{{0, 2, 4}, 1.0}, {{0, 3, 4}, 1.0},
                                        {{1, 2, 4}, 1.0}, {{1, 3, 4}, 1.0}};
  const QuorumStrategy s = QuorumStrategy::explicit_sets(5, reads, writes);
  EXPECT_TRUE(s.valid(5));
  EXPECT_FALSE(s.is_majority());
  EXPECT_EQ(s.min_read_size(), 1);
  EXPECT_EQ(s.min_write_size(), 3);
  // Any n - min_write + 1 = 3 slots hit every write quorum; any
  // n - min_read + 1 = 5 slots hit every read quorum.
  EXPECT_EQ(s.read_footprint(), 3);
  EXPECT_EQ(s.write_footprint(), 5);
}

TEST(QuorumStrategyTest, ValidRejectsDisjointSystems) {
  // Read {0,1} and write {2,3} never meet.
  const QuorumStrategy s = QuorumStrategy::explicit_sets(
      5, {{{0, 1}, 1.0}}, {{{2, 3}, 1.0}});
  EXPECT_FALSE(s.valid(5));
}

TEST(QuorumStrategyTest, ValidRequiresCountingCompositionality) {
  // reads = writes = {[0,1,2]} passes pairwise intersection, but the proxy's
  // counting path would let a 1-reply write (footprint n - rmin + 1 = 1)
  // miss a 1-reply read entirely: rmin + wmin = 6 > n + 1 = 4.
  const QuorumStrategy s = QuorumStrategy::explicit_sets(
      3, {{{0, 1, 2}, 1.0}}, {{{0, 1, 2}, 1.0}});
  EXPECT_FALSE(s.valid(3));

  // Boundary case rmin + wmin == n + 1 is exactly admissible: footprints
  // 2 and 3 overlap in any pair of subsets of [4].
  const QuorumStrategy b = QuorumStrategy::explicit_sets(
      4, {{{0, 1}, 1.0}}, {{{1, 2, 3}, 1.0}});
  EXPECT_TRUE(b.valid(4));
  EXPECT_EQ(b.read_footprint() + b.write_footprint(), 4 + 1);
}

TEST(QuorumStrategyTest, EmptySidesAreInvalidButSafe) {
  const QuorumStrategy no_writes =
      QuorumStrategy::explicit_sets(5, {{{0, 1, 2}, 1.0}}, {});
  const QuorumStrategy no_reads =
      QuorumStrategy::explicit_sets(5, {}, {{{0, 1, 2}, 1.0}});
  const QuorumStrategy nothing = QuorumStrategy::explicit_sets(0, {}, {});
  for (const QuorumStrategy* s : {&no_writes, &no_reads, &nothing}) {
    for (int replication = 0; replication <= 5; ++replication) {
      EXPECT_FALSE(s->valid(replication)) << s->describe();
    }
    // Footprints stay conservative (full-set where defined) instead of
    // reflecting min_size() == 0 nonsense.
    EXPECT_GE(s->read_footprint(), 1);
    EXPECT_GE(s->write_footprint(), 1);
  }
  EXPECT_EQ(no_writes.read_footprint(), 5);
  EXPECT_EQ(no_reads.write_footprint(), 5);
  // The grid mirror keeps its default for malformed strategies.
  EXPECT_EQ(nothing.grid, QuorumConfig::of(1, 1));
}

TEST(QuorumStrategyTest, TransitionGeneralizesComponentwiseMax) {
  const QuorumStrategy a = QuorumStrategy::majority(2, 4, 5);
  const QuorumStrategy b = QuorumStrategy::majority(4, 2, 5);
  const QuorumStrategy t = kv::transition(a, b);
  EXPECT_TRUE(t.is_majority());
  EXPECT_EQ(t.grid, QuorumConfig::of(4, 4));  // the paper's max rule

  // Against an explicit strategy the rule maxes the footprints, so the
  // transition still intersects every quorum of both systems by counting.
  const QuorumStrategy e = QuorumStrategy::explicit_sets(
      5, {{{0, 1}, 1.0}, {{2, 3}, 1.0}, {{4}, 1.0}},
      {{{0, 2, 4}, 1.0}, {{1, 3, 4}, 1.0}});
  const QuorumStrategy t2 = kv::transition(a, e);
  EXPECT_TRUE(t2.is_majority());
  EXPECT_GE(t2.grid.read_q, e.read_footprint());
  EXPECT_GE(t2.grid.write_q, e.write_footprint());
}

// ------------------------------------------- the configuration algebra

TEST(FullConfigTest, ApplyFoldsAChangeInChangeOrder) {
  kv::FullConfig config;
  config.default_q = QuorumConfig::of(3, 3);
  kv::QuorumChange per_object;
  per_object.is_global = false;
  per_object.overrides = {{7, QuorumConfig::of(5, 1)},
                          {9, QuorumConfig::of(2, 4)},
                          {7, QuorumConfig::of(4, 2)}};  // a later entry wins
  config.apply(per_object);
  ASSERT_EQ(config.overrides.size(), 2u);
  EXPECT_EQ(config.overrides[0].first, 7u);
  EXPECT_EQ(config.strategy_for(7), QuorumConfig::of(4, 2));
  EXPECT_EQ(config.strategy_for(9), QuorumConfig::of(2, 4));
  EXPECT_EQ(config.strategy_for(8), QuorumConfig::of(3, 3));  // the default

  kv::QuorumChange replace;
  replace.is_global = false;
  replace.overrides = {{9, QuorumConfig::of(1, 5)}};
  config.apply(replace);  // in place: the list keeps its order
  EXPECT_EQ(config.overrides[1].first, 9u);
  EXPECT_EQ(config.strategy_for(9), QuorumConfig::of(1, 5));

  kv::QuorumChange global;
  global.global = QuorumConfig::of(2, 4);
  config.apply(global);  // replaces the default, keeps the overrides
  EXPECT_EQ(config.default_q, QuorumConfig::of(2, 4));
  EXPECT_EQ(config.overrides.size(), 2u);
}

TEST(FullConfigTest, FootprintsSpanTheDefaultAndEveryOverride) {
  kv::FullConfig config;
  config.default_q = QuorumConfig::of(2, 4);
  EXPECT_EQ(config.max_read_footprint(), 2);
  EXPECT_EQ(config.max_footprint(), 4);
  config.overrides = {{1, QuorumConfig::of(4, 2)}, {2, QuorumConfig::of(3, 3)}};
  EXPECT_EQ(config.max_read_footprint(), 4);
  EXPECT_EQ(config.max_footprint(), 4);
  config.overrides.emplace_back(3, QuorumConfig::of(1, 5));
  EXPECT_EQ(config.max_footprint(), 5);
}

TEST(FullConfigTest, ReadQuorumHistoryMergesAndQueriesSuffixes) {
  kv::FullConfig config;
  EXPECT_EQ(config.max_read_q_since(0), 1);  // never less than 1
  config.record_read_q(0, 2);
  config.record_read_q(4, 3);
  config.record_read_q(2, 5);  // out of order: inserted in cfno order
  config.record_read_q(4, 1);  // an existing entry keeps the larger value
  const std::vector<std::pair<std::uint64_t, int>> want = {
      {0, 2}, {2, 5}, {4, 3}};
  EXPECT_EQ(config.read_q_history, want);
  EXPECT_EQ(config.max_read_q_since(0), 5);
  EXPECT_EQ(config.max_read_q_since(3), 3);
  EXPECT_EQ(config.max_read_q_since(5), 1);
}

TEST(FullConfigTest, PerObjectNewqRecordsTheLargerOfBeforeAndAfter) {
  // A NEWQ payload's history entry: a per-object change records the larger
  // of the largest read footprint before and after it, so lowering object 7
  // from R=5 to R=1 at cfno 2 still records 5 there, and a version tagged 2
  // is repaired with R=5 once a later change lands.
  kv::FullConfig committed;
  committed.epno = 3;
  committed.cfno = 1;
  committed.default_q = QuorumConfig::of(1, 5);
  committed.overrides = {{7, QuorumConfig::of(5, 1)}};
  committed.read_q_history = {{0, 1}, {1, 5}};
  kv::QuorumChange lower;
  lower.is_global = false;
  lower.overrides = {{7, QuorumConfig::of(1, 5)}};
  const kv::FullConfig payload = committed.with_pending(lower, 2);
  const std::vector<std::pair<std::uint64_t, int>> want = {
      {0, 1}, {1, 5}, {2, 5}};
  EXPECT_EQ(payload.read_q_history, want);
  // Otherwise the payload is the committed state, with the change pending.
  EXPECT_EQ(payload.epno, 3u);
  EXPECT_EQ(payload.cfno, 2u);
  EXPECT_TRUE(payload.transitional);
  EXPECT_EQ(payload.pending, lower);
  EXPECT_EQ(payload.default_q, committed.default_q);
  EXPECT_EQ(payload.overrides, committed.overrides);

  // A global change records the largest read footprint after it only.
  kv::FullConfig tail;
  tail.default_q = QuorumConfig::of(4, 2);
  kv::QuorumChange global;
  global.global = QuorumConfig::of(2, 4);
  EXPECT_EQ(tail.with_pending(global, 1).max_read_q_since(1), 2);
}

// --------------------------------------------- property: sampling is safe

// Every sampled read quorum must intersect every sampled write quorum —
// across a spread of deterministic seeds and a family of explicit systems.
TEST(QuorumStrategyPropertyTest, SampledReadWritePairsAlwaysIntersect) {
  std::vector<QuorumStrategy> systems;
  // Rows/transversals at n = 5 with skewed weights.
  systems.push_back(QuorumStrategy::explicit_sets(
      5, {{{0, 1}, 0.7}, {{2, 3}, 0.2}, {{4}, 0.1}},
      {{{0, 2, 4}, 1.0}, {{0, 3, 4}, 2.0}, {{1, 2, 4}, 3.0},
       {{1, 3, 4}, 4.0}}));
  // Degenerate single-quorum system.
  systems.push_back(QuorumStrategy::explicit_sets(
      4, {{{0, 1}, 1.0}}, {{{1, 2, 3}, 1.0}}));
  // Majority grids expressed explicitly (every 2-subset vs every 2-subset
  // of [3] intersects).
  systems.push_back(QuorumStrategy::explicit_sets(
      3, {{{0, 1}, 1.0}, {{0, 2}, 2.0}, {{1, 2}, 3.0}},
      {{{0, 1}, 3.0}, {{0, 2}, 2.0}, {{1, 2}, 1.0}}));

  for (const QuorumStrategy& s : systems) {
    ASSERT_TRUE(s.valid(s.n)) << s.describe();
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      Rng rng(seed * 977);
      for (int i = 0; i < 200; ++i) {
        const WeightedQuorum& r = s.sample_read(rng);
        const WeightedQuorum& w = s.sample_write(rng);
        EXPECT_TRUE(kv::sets_intersect(r.members, w.members))
            << s.describe() << " seed=" << seed;
      }
    }
  }
}

// Weighted sampling respects the distribution (coarse check: a zero-ish
// weight is drawn essentially never, a dominant weight most of the time).
TEST(QuorumStrategyPropertyTest, SamplingFollowsWeights) {
  const QuorumStrategy s = QuorumStrategy::explicit_sets(
      5, {{{0, 1}, 1000.0}, {{2, 3}, 1.0}}, {{{0, 2, 4}, 1.0}});
  Rng rng(7);
  int dominant = 0;
  for (int i = 0; i < 1000; ++i) {
    if (s.sample_read(rng).members == std::vector<std::uint32_t>{0, 1}) {
      ++dominant;
    }
  }
  EXPECT_GT(dominant, 950);
}

// -------------------------------------- install through the full protocol

ClusterConfig small_cluster(std::uint64_t seed) {
  ClusterConfig config;
  config.num_storage = 10;
  config.num_proxies = 2;
  config.clients_per_proxy = 3;
  config.replication = 5;
  config.initial_quorum = QuorumConfig::of(3, 3);
  config.seed = seed;
  return config;
}

QuorumStrategy rows_and_transversals() {
  return QuorumStrategy::explicit_sets(
      5, {{{0, 1}, 1.0}, {{2, 3}, 1.0}},
      {{{0, 2, 4}, 1.0}, {{0, 3, 4}, 1.0}, {{1, 2, 4}, 1.0},
       {{1, 3, 4}, 1.0}});
}

TEST(StrategyInstallTest, ExplicitStrategyInstallsAndStaysConsistent) {
  Cluster cluster(small_cluster(91));
  cluster.preload(500, 2048);
  cluster.set_workload(workload::ycsb_a(500));
  cluster.run_for(seconds(2));

  bool installed = false;
  cluster.reconfigure_strategy(rows_and_transversals(),
                               [&](bool ok) { installed = ok; });
  cluster.run_for(seconds(3));
  EXPECT_TRUE(installed);
  EXPECT_FALSE(cluster.rm().config().default_q.is_majority());

  cluster.stop_clients();
  cluster.run_for(seconds(1));
  EXPECT_TRUE(cluster.checker().clean());
  EXPECT_TRUE(cluster.checker().quorum_violations().empty());
  EXPECT_GT(cluster.checker().reads_checked(), 100u);
}

TEST(StrategyInstallTest, ExplicitStrategyRunsAreDeterministic) {
  auto run = [](std::uint64_t seed) {
    Cluster cluster(small_cluster(seed));
    cluster.preload(300, 1024);
    cluster.set_workload(workload::ycsb_b(300));
    cluster.run_for(seconds(1));
    cluster.reconfigure_strategy(rows_and_transversals());
    cluster.run_for(seconds(2));
    cluster.stop_clients();
    cluster.run_for(seconds(1));
    return cluster.report().to_json();
  };
  EXPECT_EQ(run(17), run(17));
  EXPECT_NE(run(17), run(18));
}

// Future-versioned strategy payloads must stall the handshake (no adoption)
// rather than corrupt receivers; the RM's change then never completes, but
// the cluster keeps serving under the old configuration.
TEST(StrategyInstallTest, FutureWireVersionIsNotAdopted) {
  Cluster cluster(small_cluster(23));
  cluster.preload(100, 1024);
  cluster.set_workload(workload::ycsb_a(100));
  cluster.run_for(seconds(1));

  const kv::FullConfig& committed = cluster.rm().config();
  kv::NewQuorumMsg msg;
  msg.epno = committed.epno;
  msg.cfno = committed.cfno + 1;
  msg.change.global = QuorumConfig::of(1, 5);
  msg.config = committed.with_pending(msg.change, msg.cfno);
  msg.strategy_version = QuorumStrategy::kWireVersion + 1;
  cluster.network().send(sim::rm_id(), sim::proxy_id(0), msg);
  cluster.run_for(seconds(1));
  EXPECT_EQ(cluster.proxy(0).default_quorum(), QuorumConfig::of(3, 3));
  EXPECT_FALSE(cluster.proxy(0).in_transition());
}

// ---------------------------------------------- chaos with a strategy live

// The tab8-style chaos schedule with an explicit strategy installed mid-run:
// zero consistency violations, zero intersection-audit findings, and a
// byte-identical rerun.
TEST(StrategyChaosTest, ExplicitStrategySurvivesChaos) {
  ClusterConfig config = small_cluster(5);
  config.net_loss = 0.01;
  config.net_duplication = 0.005;
  config.client_retry_timeout = milliseconds(500);
  Cluster cluster(config);
  cluster.preload(400, 1024);
  cluster.set_workload(workload::ycsb_a(400));
  cluster.run_for(seconds(2));
  cluster.reconfigure_strategy(rows_and_transversals());

  NemesisOptions options;
  options.mean_interval = milliseconds(400);
  options.partition = 1.0;
  options.loss_burst = 1.0;
  options.restart = 3.0;
  options.seed = 66;
  Nemesis nemesis(cluster, options);
  nemesis.start();
  cluster.run_for(seconds(20));
  nemesis.stop();
  cluster.heal_all_partitions();
  cluster.stop_clients();
  cluster.run_for(seconds(20));

  EXPECT_TRUE(cluster.checker().clean());
  EXPECT_TRUE(cluster.checker().quorum_violations().empty());
  for (std::uint32_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_FALSE(cluster.client(i).op_in_flight()) << "client " << i;
  }
}

// --------------------------------------------------- optimizer smoke tests

TEST(StrategyOptimizerTest, BeatsBestUniformGridOnBalancedMix) {
  const oracle::StrategyOptimizer optimizer(5);
  oracle::WorkloadFeatures features;
  features.write_ratio = 0.5;
  const QuorumStrategy best = optimizer.optimize(features);
  const auto best_score = optimizer.evaluate(best, 0.5);
  // Best uniform grid at a 50/50 mix carries (fr*r + fw*w)/n = 0.6 load;
  // the rows/transversal system reaches 0.5.
  double best_grid = 1.0;
  for (int w = 1; w <= 5; ++w) {
    const auto score = optimizer.evaluate(
        QuorumStrategy::majority(5 - w + 1, w, 5), 0.5);
    best_grid = std::min(best_grid, score.max_load);
  }
  EXPECT_LT(best_score.max_load, best_grid);
  EXPECT_TRUE(best.valid(5));
  EXPECT_FALSE(best.is_majority());
}

TEST(StrategyOptimizerTest, RespectsConstraints) {
  oracle::QuorumConstraints constraints;
  constraints.min_write = 4;  // every write quorum >= 4 replicas
  const oracle::StrategyOptimizer optimizer(5, constraints);
  oracle::WorkloadFeatures features;
  features.write_ratio = 0.2;
  const QuorumStrategy best = optimizer.optimize(features);
  EXPECT_TRUE(best.valid(5));
  EXPECT_GE(best.min_write_size(), 4);
}

TEST(StrategyOptimizerTest, OptimizationIsDeterministic) {
  const oracle::StrategyOptimizer optimizer(5);
  oracle::WorkloadFeatures features;
  features.write_ratio = 0.3;
  EXPECT_EQ(optimizer.optimize(features), optimizer.optimize(features));
}

}  // namespace
}  // namespace qopt
