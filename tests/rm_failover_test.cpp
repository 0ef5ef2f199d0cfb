// Replicated Reconfiguration Manager: leader failover under crashes and
// partitions with zero consistency violations. The RM's canonical state is
// a replicated-log decision (smr::Group); these tests kill, isolate and
// restart the leader replica around in-flight reconfiguration rounds and
// assert the rounds still complete exactly once, the cluster stays
// consistent, and same-seed runs are byte-identical.
#include <gtest/gtest.h>

#include <string>

#include "core/cluster.hpp"
#include "kv/quorum.hpp"
#include "kv/types.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "reconfig/replicated_rm.hpp"
#include "smr/group.hpp"
#include "smr/messages.hpp"
#include "smr/replica.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace qopt {
namespace {

ClusterConfig replicated_rm_config(std::uint64_t seed) {
  ClusterConfig config;
  config.num_storage = 7;
  config.num_proxies = 3;
  config.clients_per_proxy = 3;
  config.replication = 5;
  config.initial_quorum = {3, 3};
  config.seed = seed;
  config.rm_replicas = 3;
  return config;
}

std::uint64_t rm_counter(Cluster& cluster, const char* name) {
  return cluster.obs().registry().counter_value(name);
}

// Shadow check: folds each live replica's applied log through a standalone
// smr::ConfigStateMachine and compares the result with that replica's RM.
// Only a commit for the next cfno installs a change (a stale leader's
// duplicate is fenced off), so those kCommit entries are folded, re-kinded
// to the kRequest the state machine applies.
void expect_replicas_match_log_fold(Cluster& cluster) {
  reconfig::ReplicatedRm& rrm = cluster.replicated_rm();
  for (std::uint32_t i = 0; i < rrm.size(); ++i) {
    if (rrm.replica_crashed(i)) continue;
    smr::ConfigStateMachine machine(cluster.config().initial_quorum,
                                    cluster.config().replication);
    for (const smr::Command& entry : rrm.group().replica(i).applied_log()) {
      if (entry.kind != smr::RmLogKind::kCommit ||
          entry.cfno != machine.config().cfno + 1) {
        continue;
      }
      smr::Command as_request = entry;
      as_request.kind = smr::RmLogKind::kRequest;
      machine.apply(as_request);
    }
    const kv::FullConfig& rm = rrm.rm(i).config();
    EXPECT_EQ(machine.config().cfno, rm.cfno) << "replica " << i;
    EXPECT_EQ(machine.config().default_q, rm.default_q) << "replica " << i;
    EXPECT_EQ(machine.config().overrides, rm.overrides) << "replica " << i;
  }
}

TEST(RmFailoverTest, ReplicatedSameSeedRerunsAreByteIdentical) {
  const auto run = [] {
    Cluster cluster(replicated_rm_config(21));
    cluster.preload(300, 1024);
    cluster.set_workload(workload::ycsb_a(300));
    cluster.run_for(seconds(2));
    cluster.reconfigure({4, 2});
    cluster.simulator().after(milliseconds(4), [&cluster] {
      cluster.crash_rm(cluster.replicated_rm().leader());
    });
    cluster.run_for(seconds(3));
    cluster.stop_clients();
    cluster.run_for(seconds(2));
    return cluster.report().to_json();
  };
  EXPECT_EQ(run(), run());
}

TEST(RmFailoverTest, LeaderCrashMidRoundResumesAndCommits) {
  Cluster cluster(replicated_rm_config(22));
  cluster.preload(300, 1024);
  cluster.set_workload(workload::ycsb_a(300));
  cluster.run_for(seconds(1));

  reconfig::ReplicatedRm& rrm = cluster.replicated_rm();
  const std::uint32_t old_leader = rrm.leader();
  bool first_done = false;
  bool second_done = false;
  // Two back-to-back rounds: whenever the crash lands inside the first
  // round's execution window, the replicated queue is non-empty at
  // promotion and the new leader must resume in-flight work.
  cluster.reconfigure({4, 2}, [&](bool ok) { first_done = ok; });
  cluster.reconfigure({2, 4}, [&](bool ok) { second_done = ok; });
  cluster.simulator().after(milliseconds(4), [&] {
    cluster.crash_rm(rrm.leader());
  });
  cluster.run_for(seconds(5));

  EXPECT_TRUE(first_done) << "round lost across the leader crash";
  EXPECT_TRUE(second_done) << "queued round lost across the leader crash";
  EXPECT_NE(rrm.leader(), old_leader);
  EXPECT_GE(rm_counter(cluster, "rm.leader_changes"), 1u);
  EXPECT_GE(rm_counter(cluster, "rm.rounds_resumed"), 1u);
  EXPECT_EQ(rrm.leader_rm().config().default_q.write_footprint(), 4);
  expect_replicas_match_log_fold(cluster);
  EXPECT_EQ(cluster.report().consistency_violations, 0u);
}

TEST(RmFailoverTest, LeaderPartitionMidRoundFailsOverAndHeals) {
  Cluster cluster(replicated_rm_config(23));
  cluster.preload(300, 1024);
  cluster.set_workload(workload::ycsb_a(300));
  cluster.run_for(seconds(1));

  reconfig::ReplicatedRm& rrm = cluster.replicated_rm();
  const std::uint32_t old_leader = rrm.leader();
  bool done = false;
  cluster.reconfigure({4, 2}, [&](bool ok) { done = ok; });
  std::uint64_t handle = 0;
  std::uint32_t victim = 0;
  cluster.simulator().after(milliseconds(4), [&] {
    victim = rrm.leader();
    handle = cluster.isolate_rm(victim);
  });
  cluster.simulator().after(seconds(2), [&] {
    cluster.heal_rm_partition(handle);
  });
  cluster.run_for(seconds(5));

  EXPECT_TRUE(done) << "round lost across the leader partition";
  EXPECT_GE(rm_counter(cluster, "rm.leader_changes"), 1u);
  EXPECT_EQ(rrm.leader_rm().config().default_q.read_footprint(), 4);
  // The healed replica rejoined: its log caught up to the round it missed.
  EXPECT_EQ(rrm.rm(victim).config().cfno, rrm.leader_rm().config().cfno);
  expect_replicas_match_log_fold(cluster);
  EXPECT_EQ(cluster.report().consistency_violations, 0u);
  (void)old_leader;
}

TEST(RmFailoverTest, IdleFailoverThenReconfigureThroughTheNewLeader) {
  Cluster cluster(replicated_rm_config(24));
  cluster.preload(200, 1024);
  cluster.set_workload(workload::ycsb_a(200));
  cluster.run_for(seconds(1));

  reconfig::ReplicatedRm& rrm = cluster.replicated_rm();
  const std::uint64_t cfno_before = rrm.leader_rm().config().cfno;
  cluster.crash_rm(rrm.leader());
  cluster.run_for(seconds(1));  // past the detection delay
  EXPECT_NE(rrm.leader(), 0u);

  bool done = false;
  cluster.reconfigure({4, 2}, [&](bool ok) { done = ok; });
  cluster.run_for(seconds(2));
  EXPECT_TRUE(done);
  EXPECT_EQ(rrm.leader_rm().config().cfno, cfno_before + 1);
  expect_replicas_match_log_fold(cluster);
  EXPECT_EQ(cluster.report().consistency_violations, 0u);
}

TEST(RmFailoverTest, RestartedReplicaCatchesUpBeforeRetakingTheLead) {
  Cluster cluster(replicated_rm_config(25));
  cluster.preload(200, 1024);
  cluster.set_workload(workload::ycsb_a(200));
  cluster.run_for(seconds(1));

  reconfig::ReplicatedRm& rrm = cluster.replicated_rm();
  cluster.crash_rm(0);
  cluster.run_for(seconds(1));
  ASSERT_NE(rrm.leader(), 0u);

  // Decisions replica 0 misses while down.
  bool done = false;
  cluster.reconfigure({4, 2}, [&](bool ok) { done = ok; });
  cluster.run_for(seconds(2));
  ASSERT_TRUE(done);

  cluster.restart_rm(0);
  cluster.run_for(seconds(2));
  // Lowest live replica retakes the lead — but only once its applied log
  // covers every decision taken while it was down.
  EXPECT_EQ(rrm.leader(), 0u);
  EXPECT_EQ(rrm.rm(0).config().cfno, rrm.rm(1).config().cfno);
  EXPECT_EQ(rrm.rm(0).config().default_q.read_footprint(), 4);
  expect_replicas_match_log_fold(cluster);
  EXPECT_EQ(cluster.report().consistency_violations, 0u);

  // The recovered leader still drives new rounds.
  bool again = false;
  cluster.reconfigure({2, 4}, [&](bool ok) { again = ok; });
  cluster.run_for(seconds(2));
  EXPECT_TRUE(again);
}

TEST(RmFailoverTest, ReportExportsTheFailoverSectionOnlyWhenReplicated) {
  Cluster replicated(replicated_rm_config(26));
  replicated.run_for(seconds(1));
  const obs::RunReport on = replicated.report();
  EXPECT_TRUE(on.has_rm_failover);
  EXPECT_EQ(on.rm_replicas, 3u);
  EXPECT_NE(on.to_json().find("\"rm_replicas\":3"), std::string::npos);

  ClusterConfig single = replicated_rm_config(26);
  single.rm_replicas = 1;
  Cluster legacy(single);
  legacy.run_for(seconds(1));
  const obs::RunReport off = legacy.report();
  EXPECT_FALSE(off.has_rm_failover);
  EXPECT_EQ(off.to_json().find("rm_replicas"), std::string::npos);
}

}  // namespace
}  // namespace qopt
