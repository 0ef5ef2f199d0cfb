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

#include <compare>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
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

/// The store's record of a Version: four words, so that a store slot (the
/// key plus the record) takes 40 bytes instead of 56. The wire keeps the
/// five-word Version; the store packs at its entry points and unpacks on
/// the way out. Two words each carry two narrowed fields:
///   * proxy << 48 | seq orders, after `time`, exactly like Timestamp's
///     (time, proxy, seq) while proxy < 2^16 and seq < 2^48;
///   * cfno << 40 | size_bytes holds cfno < 2^24 and objects < 1 TiB.
/// pack() throws std::length_error naming a field past its limit.
class PackedVersion {
  static constexpr int kSeqBits = 48;
  static constexpr int kSizeBits = 40;

 public:
  static constexpr std::uint64_t kProxyLimit = 1ULL << (64 - kSeqBits);
  static constexpr std::uint64_t kSeqLimit = 1ULL << kSeqBits;
  static constexpr std::uint64_t kCfnoLimit = 1ULL << (64 - kSizeBits);
  static constexpr std::uint64_t kSizeLimit = 1ULL << kSizeBits;

  static PackedVersion pack(const Version& version) {
    if (version.ts.proxy >= kProxyLimit) field_overflow("proxy");
    if (version.ts.seq >= kSeqLimit) field_overflow("seq");
    if (version.cfno >= kCfnoLimit) field_overflow("cfno");
    if (version.size_bytes >= kSizeLimit) field_overflow("size_bytes");
    PackedVersion packed;
    packed.time_ = version.ts.time;
    packed.proxy_seq_ =
        (std::uint64_t{version.ts.proxy} << kSeqBits) | version.ts.seq;
    packed.value_ = version.value;
    packed.cfno_size_ = (version.cfno << kSizeBits) | version.size_bytes;
    return packed;
  }

  Version unpack() const noexcept {
    Version version;
    version.ts.time = time_;
    version.ts.proxy = static_cast<std::uint32_t>(proxy_seq_ >> kSeqBits);
    version.ts.seq = proxy_seq_ & (kSeqLimit - 1);
    version.cfno = cfno();
    version.value = value_;
    version.size_bytes = size_bytes();
    return version;
  }

  std::uint64_t cfno() const noexcept { return cfno_size_ >> kSizeBits; }
  std::uint64_t size_bytes() const noexcept {
    return cfno_size_ & (kSizeLimit - 1);
  }

  /// Compares the two records' write timestamps, as Timestamp's <=> does.
  std::strong_ordering ts_order(const PackedVersion& other) const noexcept {
    if (time_ != other.time_) return time_ <=> other.time_;
    return proxy_seq_ <=> other.proxy_seq_;
  }

  /// Takes `other`'s cfno tag and keeps everything else.
  void take_cfno(const PackedVersion& other) noexcept {
    cfno_size_ = (other.cfno_size_ & ~(kSizeLimit - 1)) |
                 (cfno_size_ & (kSizeLimit - 1));
  }

 private:
  [[noreturn]] static void field_overflow(const char* field);

  Time time_ = 0;
  std::uint64_t proxy_seq_ = 0;
  std::uint64_t value_ = 0;
  std::uint64_t cfno_size_ = 0;
};
static_assert(sizeof(PackedVersion) == 32,
              "a store slot is the 8-byte key plus this record");

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

  /// Number of distinct objects stored, loaded or written
  /// (tests/diagnostics).
  std::size_t object_count() const;

  /// Direct store inspection for tests and the replicator: the stored
  /// version (the written one, else the newest bulk load's), or nullopt
  /// when absent.
  std::optional<Version> peek(ObjectId oid) const;

  /// Bulk load phase: the node holds object `first + i` wherever `held[i]`
  /// is set, at its loaded version (time 0, proxy 0, seq 0, cfno 0, value
  /// = oid, `size_bytes`). The node keeps the bits, not a version per
  /// object. A held object's written version is dropped, as preload()
  /// would replace it. Throws std::length_error, installing nothing, when
  /// `size_bytes` is past PackedVersion::kSizeLimit or the range runs past
  /// oid 2^64-1.
  void load(ObjectId first, std::uint64_t size_bytes, std::vector<bool> held);

  /// Installs a version directly, bypassing the protocol (tests).
  void preload(ObjectId oid, const Version& version) {
    store_.insert_or_assign(oid, PackedVersion::pack(version));
  }

  /// The table of versions installed after the loads (diagnostics: the
  /// allocation gate counts its doublings from its capacity).
  const FlatTable<PackedVersion>& written() const noexcept { return store_; }

  /// Full store contents as an oid-ordered snapshot (diagnostics/tests).
  /// The live store is a hash table for the hot path; exposing it directly
  /// would leak its slot order.
  std::map<ObjectId, Version> sorted_contents() const {
    std::map<ObjectId, Version> out;
    for_each_version([&out](ObjectId oid, const Version& version) {
      out.emplace(oid, version);
    });
    return out;
  }

  /// Visits every stored (oid, version) pair once, written or loaded,
  /// without materializing a snapshot (anti-entropy sweeps). Iteration
  /// follows the hash table's slot order, then the loads' oid order, so
  /// callers deriving schedules from it must sort what they collect (the
  /// replicator stable-sorts into its scratch).
  template <typename Fn>
  void for_each_version(Fn&& fn) const {
    store_.for_each([&fn](ObjectId oid, const PackedVersion& written) {
      fn(oid, written.unpack());
    });
    for (const BulkLoad& load : loads_) {
      for (std::uint64_t i = 0; i < load.held.size(); ++i) {
        const ObjectId oid = load.first + i;
        if (load.held[i] && newest_load_holding(oid) == &load &&
            !store_.contains(oid)) {
          fn(oid, load.version_of(oid));
        }
      }
    }
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
  /// The freshest-wins rule: stores `version` when the object is new or the
  /// timestamp is newer, refreshes the cfno tag when the same write arrives
  /// under a newer configuration. Returns false when it discards `version`.
  bool apply_freshest(ObjectId oid, const Version& version);

  /// One bulk load's objects on this node.
  struct BulkLoad {
    ObjectId first = 0;
    std::uint64_t size_bytes = 0;
    std::vector<bool> held;  // held[i]: this node holds object first + i

    bool holds(ObjectId oid) const noexcept {
      return oid >= first && oid - first < held.size() && held[oid - first];
    }
    Version version_of(ObjectId oid) const noexcept {
      Version version;
      version.value = oid;
      version.size_bytes = size_bytes;
      return version;
    }
  };

  /// The newest load that holds `oid`, or nullptr.
  const BulkLoad* newest_load_holding(ObjectId oid) const noexcept;
  /// The stored version of `oid`: the written one, else the newest load's.
  std::optional<PackedVersion> stored_version(ObjectId oid) const;

  sim::Simulator& sim_;
  Net& net_;
  sim::NodeId self_;
  ServiceTimes service_;
  ServicePool pool_;
  Rng rng_;
  std::vector<BulkLoad> loads_;  // oldest first
  /// Versions installed after the loads: writes, repairs and preload().
  /// A version here shadows any loaded one for its oid.
  FlatTable<PackedVersion> store_;
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
