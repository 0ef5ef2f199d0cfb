// Replica placement: maps each object to its fixed set of N distinct storage
// nodes. Mirrors Swift's default distribution policy as used in the paper:
// "scatters object replicas randomly across the storage nodes (while
// enforcing that replicas of the same object are placed on different
// nodes)".
//
// Implemented with rendezvous (highest-random-weight) hashing, which is
// deterministic, uniform, and needs no stored ring state.
#pragma once

#include <cstdint>
#include <vector>

#include "kv/types.hpp"

namespace qopt::kv {

class Placement {
 public:
  Placement(std::uint32_t num_storage_nodes, int replication_degree,
            std::uint64_t seed = 0);

  /// Storage node indices holding replicas of `oid`, in a deterministic
  /// order (descending rendezvous weight). Size == replication degree.
  std::vector<std::uint32_t> replicas(ObjectId oid) const;

  /// As replicas(), but writes into `out`, reusing its capacity — the
  /// per-operation placement lookup on the proxy data plane stays
  /// allocation-free once the vector is warm.
  void replicas_into(ObjectId oid, std::vector<std::uint32_t>& out) const;

  std::uint32_t num_storage_nodes() const noexcept { return num_nodes_; }
  int replication_degree() const noexcept { return replication_; }

 private:
  struct Weighted {
    std::uint64_t weight;
    std::uint32_t node;
  };

  std::uint32_t num_nodes_;
  int replication_;
  std::uint64_t seed_;
  /// Scratch for the replication-degree heaviest nodes, sized once so the
  /// placement lookup does not allocate per operation. Placement is only
  /// ever used from the single-threaded simulation loop.
  mutable std::vector<Weighted> top_;
};

}  // namespace qopt::kv
