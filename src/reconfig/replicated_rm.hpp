// Reconfiguration Manager service — the only RM, one or more replicas.
//
// The paper treats the RM as logically centralized; here it runs as a group
// of replicas, each hosting a full ReconfigManager fed by one log. Canonical
// quorum state — the request queue, epoch counter and committed
// configuration — advances only through decided log entries, so every
// replica folds the identical history. With one replica (the default
// deployment) the log applies each entry inline, through the same
// on_apply → ReconfigManager::apply_entry path: no SMR group, no message,
// no event, no random draw. With more, the log is a MultiPaxos smr::Group on
// its own private network.
//
// Exactly one replica at a time holds the *leader role*: only it broadcasts
// NEWQ/CONFIRM/NEWEP, arms retransmit timers and opens spans. When the
// group's failure detector deposes a leader, the next caught-up replica
// resumes any in-flight round deterministically from committed state (the
// round's request stays at the replicated queue head until its commit entry
// is decided); cfno fences make a deposed leader's stray commit a no-op and
// epno guards cover its retransmits in flight.
//
// See docs/ROBUSTNESS.md (RM failover) for the fault model and guarantees.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "kv/quorum.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "reconfig/reconfig_manager.hpp"
#include "sim/failure_detector.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "smr/group.hpp"
#include "smr/messages.hpp"
#include "util/time.hpp"

namespace qopt::reconfig {

struct ReplicatedRmOptions {
  std::uint32_t replicas = 3;
  /// Latency model of the group's private replication network.
  sim::LatencyModel network{microseconds(200), microseconds(200)};
  /// Detection delay of the group-private failure detector — the failover
  /// reaction time after an RM leader crash.
  Duration fd_detection_delay = milliseconds(300);
  std::uint64_t seed = 0x524D;
};

class ReplicatedRm {
 public:
  using Net = sim::Network<kv::Message>;
  using DoneCallback = std::function<void(bool ok)>;
  /// Fired after a replica is promoted to the leader role (the cluster
  /// records an `rm_leader` membership instant).
  using LeaderChangeFn = std::function<void(std::uint32_t leader)>;

  /// `net`/`fd` are the kv-plane network and failure detector the RM
  /// replicas talk to proxies and storage over; the replication plane
  /// (group network + group FD) is private. `obs` is the cluster-wide
  /// observability bundle.
  ReplicatedRm(sim::Simulator& sim, Net& net, sim::FailureDetector& fd,
               std::vector<sim::NodeId> proxies,
               std::vector<sim::NodeId> storages, kv::QuorumConfig initial,
               int replication, const ReplicatedRmOptions& options,
               obs::Observability& obs);

  /// The changeConfiguration entry point (the Autonomic Manager's and a
  /// human administrator's): validates strict quorum intersection once,
  /// then logs the request through the current leader. Invalid requests
  /// complete immediately with ok=false; valid ones complete exactly once,
  /// when the first replica applies the round's commit.
  void change_configuration(kv::QuorumChange change, DoneCallback done = {});

  /// Wire inbox of replica `replica` on the kv plane. Protocol acks are
  /// delivered only to the replica currently holding the leader role;
  /// deliveries to a deposed leader are counted and dropped.
  void on_message(std::uint32_t replica, const sim::NodeId& from,
                  const kv::Message& msg);

  // ------------------------------------------------------ failure injection
  //
  // These need more than one replica (a group to fail over in).

  void crash_replica(std::uint32_t index);
  void restart_replica(std::uint32_t index);
  bool replica_crashed(std::uint32_t index) const {
    return crashed_.at(index);
  }
  /// Isolates `index` on the replication plane (the kv plane is the
  /// caller's to partition) and suspects it until healed; returns the
  /// partition id for heal_replica_partition().
  std::uint64_t partition_replica(std::uint32_t index);
  void heal_replica_partition(std::uint32_t index, std::uint64_t partition_id);

  // -------------------------------------------------------------- accessors

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(rms_.size());
  }
  /// Group-designated leader index (the replica that drives, once caught
  /// up and alive); always 0 with one replica.
  std::uint32_t leader() const { return group_ ? group_->leader() : 0; }
  /// The designated leader's ReconfigManager — the authoritative view of
  /// committed configuration for report()/tests.
  ReconfigManager& leader_rm() { return *rms_.at(leader()); }
  const ReconfigManager& leader_rm() const { return *rms_.at(leader()); }
  ReconfigManager& rm(std::uint32_t index) { return *rms_.at(index); }
  /// The MultiPaxos group; needs more than one replica.
  smr::Group& group() noexcept { return *group_; }
  void set_leader_change_hook(LeaderChangeFn hook) {
    on_leader_change_ = std::move(hook);
  }

 private:
  /// Appends `command` to the log through replica `replica`: the group's
  /// MultiPaxos log, or — with one replica — straight into on_apply.
  void submit(std::uint32_t replica, smr::Command command);
  /// Applies a decided entry at `replica`, fires the request's completion
  /// callback on its first commit, then lets the replica start the next
  /// queued round. Re-entrant with one replica: a callback that reconfigures
  /// applies its request inline, before this call returns.
  void on_apply(std::uint32_t replica, std::uint64_t slot,
                const smr::Command& command);
  /// Re-derives the leader role from the group's failure detector: demotes
  /// deposed replicas, promotes the designated leader once it is alive and
  /// its applied log has caught up with every decision applied anywhere (a
  /// lagging promoter would re-drive ghosts of rounds it has not yet
  /// learned were committed).
  void sync_roles();

  Net& net_;
  int replication_;

  /// Null with one replica: the log then applies inline.
  std::unique_ptr<smr::Group> group_;
  std::vector<std::unique_ptr<ReconfigManager>> rms_;
  std::vector<bool> crashed_;

  /// applied_upto_[i] = highest applied slot + 1 at replica i;
  /// decided_upto_ = max over replicas (promotion gate).
  std::vector<std::uint64_t> applied_upto_;
  std::uint64_t decided_upto_ = 0;

  /// Completion callbacks keyed by request seq; fired exactly once, when
  /// the first replica applies the round's commit entry.
  std::unordered_map<std::uint64_t, DoneCallback> outstanding_;
  std::uint64_t next_cmd_id_ = 0;
  std::uint64_t next_seq_ = 0;

  LeaderChangeFn on_leader_change_;

  // The failover counters exist only with a group (one replica registers
  // exactly the instruments of a lone RM, and never fails over).
  obs::Counter* leader_changes_ = nullptr;
  obs::Counter* rounds_resumed_ = nullptr;
  obs::Counter* stale_leader_msgs_ = nullptr;
  obs::Counter* rejected_invalid_ = nullptr;
};

}  // namespace qopt::reconfig
