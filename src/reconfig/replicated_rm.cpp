#include "kv/quorum.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "reconfig/reconfig_manager.hpp"
#include "reconfig/replicated_rm.hpp"
#include "sim/failure_detector.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "smr/group.hpp"
#include "smr/messages.hpp"
#include "smr/replica.hpp"

#include <utility>

namespace qopt::reconfig {

namespace {
/// Node namespace of RM replicas on the group's private network (kinds are
/// only meaningful per network; smr::Group uses kStorage internally).
sim::NodeId smr_node(std::uint32_t index) {
  return sim::NodeId{sim::NodeKind::kStorage, index};
}
}  // namespace

ReplicatedRm::ReplicatedRm(sim::Simulator& sim, Net& net,
                           sim::FailureDetector& fd,
                           std::vector<sim::NodeId> proxies,
                           std::vector<sim::NodeId> storages,
                           kv::QuorumConfig initial, int replication,
                           const ReplicatedRmOptions& options,
                           obs::Observability& obs)
    : net_(net), replication_(replication) {
  const std::uint32_t n = options.replicas;
  auto& reg = obs.registry();
  if (n > 1) {
    smr::GroupOptions group_options;
    group_options.replicas = n;
    group_options.network = options.network;
    group_options.fd_detection_delay = options.fd_detection_delay;
    group_options.seed = options.seed;
    group_ = std::make_unique<smr::Group>(sim, group_options,
                                          smr::Replica::ApplyFn{});
    group_->set_indexed_apply([this](std::uint32_t replica, std::uint64_t slot,
                                     const smr::Command& command) {
      on_apply(replica, slot, command);
    });
    // Subscribed after the Group's own listener, so by the time roles are
    // re-derived the replicas have already re-evaluated SMR leadership and
    // unacked commands have been re-driven.
    group_->failure_detector().subscribe(
        [this](const sim::NodeId&, bool) { sync_roles(); });
    leader_changes_ = &reg.counter("rm.leader_changes");
    rounds_resumed_ = &reg.counter("rm.rounds_resumed");
    stale_leader_msgs_ = &reg.counter("rm.stale_leader_msgs_ignored");
  }
  rejected_invalid_ = &reg.counter("rm.rejected_invalid");

  crashed_.assign(n, false);
  applied_upto_.assign(n, 0);
  rms_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    rms_.push_back(std::make_unique<ReconfigManager>(
        sim, net_, sim::rm_replica_id(i), fd, proxies, storages, initial, obs,
        [this, i](smr::Command command) { submit(i, std::move(command)); }));
    // Exactly one replica holds the leader role; replica 0 starts with it
    // (matching the group's initial leader designation).
    if (i != 0) rms_.back()->set_leader_active(false);
  }
}

void ReplicatedRm::change_configuration(kv::QuorumChange change,
                                        DoneCallback done) {
  // Validated once here, so every replica queues identically on apply.
  if (!kv::validate_change(change, replication_)) {
    rejected_invalid_->inc();
    if (done) done(false);
    return;
  }
  smr::Command command;
  command.kind = smr::RmLogKind::kRequest;
  command.seq = ++next_seq_;
  command.change = std::move(change);
  if (done) outstanding_.emplace(command.seq, std::move(done));
  submit(leader(), std::move(command));
}

void ReplicatedRm::submit(std::uint32_t replica, smr::Command command) {
  command.id = ++next_cmd_id_;
  if (group_) {
    group_->submit(replica, std::move(command));
  } else {
    on_apply(replica, applied_upto_[replica], command);
  }
}

void ReplicatedRm::on_message(std::uint32_t replica, const sim::NodeId& from,
                              const kv::Message& msg) {
  if (crashed_.at(replica)) return;  // the network should have dropped it
  ReconfigManager& rm = *rms_.at(replica);
  if (!rm.leader_active()) {
    // A proxy or storage ack chasing a deposed leader: the generation and
    // cfno guards would reject it anyway; count and drop at the door.
    stale_leader_msgs_->inc();
    return;
  }
  rm.on_message(from, msg);
}

void ReplicatedRm::on_apply(std::uint32_t replica, std::uint64_t slot,
                            const smr::Command& command) {
  applied_upto_[replica] = slot + 1;
  if (slot + 1 > decided_upto_) decided_upto_ = slot + 1;
  ReconfigManager& rm = *rms_[replica];
  if (rm.apply_entry(command) && command.kind == smr::RmLogKind::kCommit) {
    // First replica to apply the commit completes the request, exactly once
    // cluster-wide (later appliers find the callback gone). It fires after
    // the round is retired and before the next queued round starts.
    auto it = outstanding_.find(command.seq);
    if (it != outstanding_.end()) {
      DoneCallback done = std::move(it->second);
      outstanding_.erase(it);
      done(true);
    }
  }
  rm.start_next();
  // Catching up may have just made the designated leader promotable.
  sync_roles();
}

void ReplicatedRm::sync_roles() {
  const std::uint32_t next = leader();
  for (std::uint32_t i = 0; i < rms_.size(); ++i) {
    if (i != next && rms_[i]->leader_active()) {
      rms_[i]->set_leader_active(false);
    }
  }
  ReconfigManager& rm = *rms_[next];
  if (rm.leader_active()) return;
  if (crashed_[next] || applied_upto_[next] < decided_upto_) return;
  leader_changes_->inc();
  // Inactive replicas are always idle, so queued() is the full replicated
  // queue: anything there means the new leader resumes pending work.
  if (rm.queued() > 0) rounds_resumed_->inc();
  rm.set_leader_active(true);
  if (on_leader_change_) on_leader_change_(next);
}

void ReplicatedRm::crash_replica(std::uint32_t index) {
  if (crashed_.at(index)) return;
  crashed_[index] = true;
  // Volatile driving state dies with the process: timers, spans, the phase.
  rms_[index]->set_leader_active(false);
  net_.set_crashed(sim::rm_replica_id(index));
  group_->crash_replica(index);  // group FD flips -> sync_roles fires
  sync_roles();
}

void ReplicatedRm::restart_replica(std::uint32_t index) {
  if (!crashed_.at(index)) return;
  crashed_[index] = false;
  net_.set_crashed(sim::rm_replica_id(index), false);
  // The group replica rejoins with its durable log and catches up through
  // phase 1 once it retakes SMR leadership; RM promotion waits for the
  // applied log to reach every decision applied anywhere (sync_roles).
  group_->restart_replica(index);
  sync_roles();
}

std::uint64_t ReplicatedRm::partition_replica(std::uint32_t index) {
  std::vector<sim::NodeId> isolated{smr_node(index)};
  std::vector<sim::NodeId> rest;
  for (std::uint32_t j = 0; j < rms_.size(); ++j) {
    if (j != index) rest.push_back(smr_node(j));
  }
  const std::uint64_t id =
      group_->network().add_partition(isolated, rest, /*symmetric=*/true);
  // The group FD is an oracle; it cannot observe the partition, so suspect
  // the isolated replica explicitly until the heal clears it. Listeners
  // re-derive SMR leadership and the RM leader role from the flip.
  group_->failure_detector().inject_false_suspicion(smr_node(index),
                                                    /*duration=*/0);
  return id;
}

void ReplicatedRm::heal_replica_partition(std::uint32_t index,
                                          std::uint64_t partition_id) {
  group_->network().heal_partition(partition_id);
  group_->failure_detector().clear_suspicion(smr_node(index));
}

}  // namespace qopt::reconfig
