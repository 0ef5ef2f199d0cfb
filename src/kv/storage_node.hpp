// Storage node process — Algorithm 6 of the paper.
//
// Responsibilities:
//  * serve quorum reads/writes from proxies, applying the classic
//    discard-older-writes rule (Section 2.1);
//  * tag versions with the configuration number under which they were
//    written and piggyback it on read replies (read-repair support);
//  * maintain the epoch number installed by the Reconfiguration Manager and
//    NACK any operation issued in an older epoch, returning the full current
//    configuration (Algorithm 6, lines 11-13);
//  * model service times: operations queue on a finite server pool with
//    disk-bound writes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "kv/quorum.hpp"
#include "kv/service_model.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace qopt::kv {

class StorageNode {
 public:
  using Net = sim::Network<Message>;

  /// `obs` is the cluster-wide observability bundle; when null the node
  /// allocates a private one (stand-alone component tests).
  StorageNode(sim::Simulator& sim, Net& net, sim::NodeId self,
              const ServiceTimes& service, std::size_t servers, Rng rng,
              obs::Observability* obs = nullptr);

  /// Network message entry point (registered with the network by the
  /// cluster wiring).
  void on_message(const sim::NodeId& from, const Message& msg);

  void crash();
  /// Crash-recovery: rejoins the network with its durable state (store and
  /// installed epoch survive; in-flight requests and the dedup table do
  /// not). If the node's epoch went stale while it was down, the first
  /// operation it NACKs resynchronizes the issuing proxy (Algorithm 6).
  void restart();
  bool crashed() const noexcept { return crashed_; }

  std::uint64_t epoch() const noexcept { return config_.epno; }
  const FullConfig& config() const noexcept { return config_; }
  /// Observability bundle in use (the shared one, or the private fallback).
  obs::Observability& observability() noexcept { return *obs_; }
  const obs::Observability& observability() const noexcept { return *obs_; }
  const ServicePool& service_pool() const noexcept { return pool_; }

  /// Number of distinct objects stored (tests/diagnostics).
  std::size_t object_count() const noexcept { return store_.size(); }

  /// Direct store inspection for tests; returns nullptr when absent.
  const Version* peek(ObjectId oid) const;

  /// Installs a version directly, bypassing the protocol (bulk load phase).
  void preload(ObjectId oid, const Version& version) {
    store_[oid] = version;
  }

  /// Full store contents as an oid-ordered snapshot (diagnostics/tests).
  /// The live store is a hash map for the hot path; exposing it directly
  /// would leak implementation-defined iteration order.
  std::map<ObjectId, Version> sorted_contents() const {
    return {store_.begin(), store_.end()};
  }

  /// Visits every stored (oid, version) pair without materializing a
  /// snapshot (anti-entropy sweeps). Iteration order is the hash map's —
  /// implementation-defined — so callers deriving schedules from it must
  /// sort what they collect (the replicator stable-sorts into its scratch).
  template <typename Fn>
  void for_each_version(Fn&& fn) const {
    // qopt-lint: allow(unordered-iter) callers must sort what they collect
    for (const auto& [oid, version] : store_) fn(oid, version);
  }

  /// Anti-entropy push from the replicator daemon: pays write service time
  /// and applies under the normal freshest-wins rule (no epoch check — the
  /// daemon is internal and only ever moves existing versions). Returns the
  /// service-completion time (now when crashed) so the replicator can close
  /// its repair-push span.
  Time replicate_in(ObjectId oid, const Version& version);

 private:
  void handle_read(const sim::NodeId& from, const StorageReadReq& req);
  void handle_write(const sim::NodeId& from, const StorageWriteReq& req);
  void handle_new_epoch(const sim::NodeId& from, const NewEpochMsg& msg);
  void send_nack(const sim::NodeId& to, std::uint64_t op_id);

  sim::Simulator& sim_;
  Net& net_;
  sim::NodeId self_;
  ServiceTimes service_;
  ServicePool pool_;
  Rng rng_;
  std::unordered_map<ObjectId, Version> store_;
  FullConfig config_;  // epno/cfno/current quorum state, from NEWEP messages
  bool crashed_ = false;
  /// Bumped on every crash: service-completion events scheduled before the
  /// crash carry the old incarnation and are discarded, so a quick restart
  /// cannot resurrect requests the crash should have lost.
  std::uint64_t incarnation_ = 0;
  /// At-least-once write dedup: per-proxy set of write op-ids whose apply
  /// already ran (inserted at service completion, so a dedup ack never
  /// precedes durability). Bounded by pruning the oldest ids; an evicted id
  /// that re-arrives is re-applied, which the freshest-wins rule makes
  /// idempotent. Volatile: cleared on crash (it is RAM, not disk).
  /// Indexed by the dense proxy index (grown on demand) so the per-write
  /// lookup is a vector access, not a map-node search/allocation.
  std::vector<std::set<std::uint64_t>> applied_writes_;

  /// The dedup set for proxy `index`, growing the table on first contact.
  std::set<std::uint64_t>& applied_writes_for(std::uint32_t index);

  // Observability: counters cached at construction, bumped on the hot path.
  std::unique_ptr<obs::Observability> own_obs_;  // fallback when none shared
  obs::Observability* obs_ = nullptr;
  struct Instruments {
    obs::Counter* reads_served = nullptr;
    obs::Counter* writes_applied = nullptr;
    obs::Counter* writes_discarded = nullptr;
    obs::Counter* nacks_sent = nullptr;
    obs::Counter* epoch_changes = nullptr;
    obs::Counter* dup_writes_ignored = nullptr;
    obs::Counter* restarts = nullptr;
  };
  Instruments ins_;
  std::string node_name_;  // cached to_string(self_) for spans
};

}  // namespace qopt::kv
