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

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
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
#include "util/flat_table.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace qopt::kv {

class StorageNode {
 public:
  using Net = sim::Network<Message>;

  /// `obs` is the deployment's observability bundle; it must outlive the
  /// node.
  StorageNode(sim::Simulator& sim, Net& net, sim::NodeId self,
              const ServiceTimes& service, std::size_t servers, Rng rng,
              obs::Observability& obs);

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
  const ServicePool& service_pool() const noexcept { return pool_; }

  /// Number of distinct objects stored (tests/diagnostics).
  std::size_t object_count() const noexcept { return store_.size(); }

  /// Direct store inspection for tests; returns nullptr when absent.
  const Version* peek(ObjectId oid) const;

  /// Sizes the store once so that `objects` objects fit without growing
  /// (the bulk load phase calls this before preloading).
  void reserve_objects(std::size_t objects) { store_.reserve(objects); }

  /// Installs a version directly, bypassing the protocol (bulk load phase).
  void preload(ObjectId oid, const Version& version) {
    store_.insert_or_assign(oid, version);
  }

  /// Full store contents as an oid-ordered snapshot (diagnostics/tests).
  /// The live store is a hash table for the hot path; exposing it directly
  /// would leak its slot order.
  std::map<ObjectId, Version> sorted_contents() const {
    std::map<ObjectId, Version> out;
    store_.for_each([&out](ObjectId oid, const Version& version) {
      out.emplace(oid, version);
    });
    return out;
  }

  /// Visits every stored (oid, version) pair without materializing a
  /// snapshot (anti-entropy sweeps). Iteration follows the hash table's
  /// slot order, so callers deriving schedules from it must sort what they
  /// collect (the replicator stable-sorts into its scratch).
  template <typename Fn>
  void for_each_version(Fn&& fn) const {
    store_.for_each(fn);
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
  FlatTable<Version> store_;
  FullConfig config_;  // epno/cfno/current quorum state, from NEWEP messages
  bool crashed_ = false;
  /// Bumped on every crash: service-completion events scheduled before the
  /// crash carry the old incarnation and are discarded, so a quick restart
  /// cannot resurrect requests the crash should have lost.
  std::uint64_t incarnation_ = 0;
  /// At-least-once write dedup for one proxy: the kDedupWindow largest
  /// write op ids whose apply already ran (inserted at service completion,
  /// so a dedup ack never precedes durability). Completions can arrive out
  /// of id order; an id smaller than every id held is evicted at once, and
  /// an evicted id that re-arrives is re-applied, which the freshest-wins
  /// rule makes idempotent. The ids sit sorted in a fixed ring allocated on
  /// the proxy's first write: proxy op ids grow, so an insert is almost
  /// always an append that overwrites the evicted smallest id.
  class AppliedWrites {
   public:
    static constexpr std::size_t kDedupWindow = 4096;  // a power of two

    bool contains(std::uint64_t op_id) const noexcept;
    void insert(std::uint64_t op_id);
    void clear() noexcept { size_ = 0; }

   private:
    static constexpr std::size_t kMask = kDedupWindow - 1;
    std::uint64_t at(std::size_t i) const noexcept {
      return ring_[(head_ + i) & kMask];
    }
    /// First position whose id is >= op_id (size_ when none).
    std::size_t lower_bound(std::uint64_t op_id) const noexcept;

    std::vector<std::uint64_t> ring_;  // kDedupWindow slots once used
    std::size_t head_ = 0;             // slot of the smallest id held
    std::size_t size_ = 0;
  };

  /// Indexed by the dense proxy index (grown on demand) so the per-write
  /// lookup is a vector access. Volatile: cleared on crash (it is RAM, not
  /// disk).
  std::vector<AppliedWrites> applied_writes_;

  /// The dedup window for proxy `index`, growing the table on first contact.
  AppliedWrites& applied_writes_for(std::uint32_t index);

  // Observability: counters cached at construction, bumped on the hot path.
  obs::Observability& obs_;
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
