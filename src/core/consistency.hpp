// Online checker for the Dynamic Quorum Consistency property (Section 5):
//
//   "The quorum used by a read operation intersects with the write quorum of
//    any concurrent write operation, and, if no concurrent write operation
//    exists, with the quorum used by the last completed write operation."
//
// Observable consequence checked here (regular-register semantics): a read
// must return a version at least as fresh as the freshest write that
// *completed* (client-visibly) before the read started. The simulator's
// global clock makes "before" well defined. Property tests run this checker
// across reconfigurations, crashes and false suspicions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "kv/quorum.hpp"
#include "kv/types.hpp"
#include "util/flat_table.hpp"
#include "util/time.hpp"

namespace qopt {

class ConsistencyChecker {
 public:
  struct Violation {
    kv::ObjectId oid = 0;
    Time read_start = 0;
    Time read_end = 0;
    bool found = false;
    kv::Timestamp returned;
    kv::Timestamp expected_min;
  };

  /// Records a client-visible write completion.
  void write_completed(kv::ObjectId oid, const kv::Timestamp& ts) {
    auto [freshest, inserted] = freshest_.try_emplace(oid, ts);
    if (!inserted && ts > *freshest) *freshest = ts;
  }

  /// Snapshot taken when a read is issued: the freshest write known to have
  /// completed by then. Reads must return at least this version.
  kv::Timestamp snapshot(kv::ObjectId oid) const {
    const kv::Timestamp* freshest = freshest_.find(oid);
    return freshest == nullptr ? kv::Timestamp{} : *freshest;
  }

  /// Validates a completed read against the snapshot captured at its start.
  void read_completed(kv::ObjectId oid, Time start, Time end, bool found,
                      const kv::Timestamp& returned,
                      const kv::Timestamp& expected_min) {
    ++reads_checked_;
    const bool had_completed_write = expected_min != kv::Timestamp{};
    const bool ok =
        had_completed_write ? (found && returned >= expected_min) : true;
    if (!ok) {
      // qopt-perf: allow(vector-growth-hot) runs only on a violation
      violations_.push_back(
          Violation{oid, start, end, found, returned, expected_min});
    }
  }

  const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  std::uint64_t reads_checked() const noexcept { return reads_checked_; }
  bool clean() const noexcept {
    return violations_.empty() && quorum_violations_.empty();
  }

  // ---- quorum intersection audit --------------------------------------
  //
  // Intersection-aware validation for generalized strategies: the replica
  // sets that actually served each operation are reported here, and every
  // read quorum must share at least one node with the quorum of the last
  // completed write of the same object *within the same configuration
  // generation*. This catches a broken strategy (or a broken sampler)
  // structurally, even when the freshness check above happens to pass
  // because the intersection-free read raced a replica that coincidentally
  // had the newest version.
  //
  // Across generations static intersection is the wrong invariant: after a
  // reconfiguration, r_new + w_old may legitimately be <= n, and safety is
  // provided by cfno-tagged versions, read_q_history and read repair — all
  // validated by the freshness check — so cross-cfno pairs are skipped.

  struct QuorumViolation {
    kv::ObjectId oid = 0;
    std::uint64_t cfno = 0;
    Time at = 0;
    std::vector<std::uint32_t> read_quorum;
    std::vector<std::uint32_t> write_quorum;
  };

  /// Records the replica set that served a completed operation under
  /// configuration `cfno`. `replicas` must be sorted (proxies report the
  /// counted-reply set, which is) and is copied if kept: the caller's
  /// buffer may be reused once this returns. Repair-phase reads may
  /// legitimately use historical quorums larger than the installed
  /// strategy, so only emptiness of the same-generation intersection is
  /// flagged — never set shapes. `cfno == 0` (unknown generation) opts the
  /// record out.
  void quorum_used(kv::ObjectId oid, bool is_write, std::uint64_t cfno,
                   Time at, std::span<const std::uint32_t> replicas) {
    if (cfno == 0) return;
    if (is_write) {
      record_write_quorum(oid, cfno, replicas);
      return;
    }
    const WriteQuorum* last = last_write_quorum_.find(oid);
    if (last == nullptr) return;    // nothing to intersect yet
    if (last->cfno != cfno) return;  // cross-generation pair
    const std::span<const std::uint32_t> written(
        write_quorum_members_.data() + last->offset, last->size);
    if (!kv::sets_intersect(replicas, written)) {
      // qopt-perf: allow(vector-growth-hot) runs only on a violation
      quorum_violations_.push_back(QuorumViolation{
          oid, cfno, at, {replicas.begin(), replicas.end()},
          {written.begin(), written.end()}});
    }
  }

  const std::vector<QuorumViolation>& quorum_violations() const noexcept {
    return quorum_violations_;
  }

 private:
  /// The last completed write's quorum of one object: `size` members at
  /// `offset` in write_quorum_members_, in a region of `room` entries.
  struct WriteQuorum {
    std::uint64_t cfno = 0;
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t room = 0;
  };

  void record_write_quorum(kv::ObjectId oid, std::uint64_t cfno,
                           std::span<const std::uint32_t> replicas) {
    auto [last, inserted] = last_write_quorum_.try_emplace(oid, WriteQuorum{});
    const auto size = static_cast<std::uint32_t>(replicas.size());
    if (inserted || size > last->room) {
      // The object's region is too small (or it has none): append a fresh
      // one. Regions only grow, to at most the replication degree, so the
      // arena holds a bounded few per object.
      last->offset = static_cast<std::uint32_t>(write_quorum_members_.size());
      last->room = size;
      write_quorum_members_.insert(write_quorum_members_.end(),
                                   replicas.begin(), replicas.end());
    } else {
      std::copy(replicas.begin(), replicas.end(),
                write_quorum_members_.begin() + last->offset);
    }
    last->cfno = cfno;
    last->size = size;
  }

  // The checker runs on every client operation (a snapshot and a check per
  // read, a record per write, a quorum record per proxy completion), so its
  // state lives in flat tables. Nothing iterates them: their slot order
  // never reaches an output.
  FlatTable<kv::Timestamp> freshest_;
  FlatTable<WriteQuorum> last_write_quorum_;
  std::vector<std::uint32_t> write_quorum_members_;  // WriteQuorum arena
  std::vector<QuorumViolation> quorum_violations_;
  std::vector<Violation> violations_;
  std::uint64_t reads_checked_ = 0;
};

}  // namespace qopt
