// Replica placement: maps each object to its fixed set of N distinct storage
// nodes. Mirrors Swift's default distribution policy as used in the paper:
// "scatters object replicas randomly across the storage nodes (while
// enforcing that replicas of the same object are placed on different
// nodes)".
//
// Implemented with rendezvous (highest-random-weight) hashing, which is
// deterministic, uniform, and needs no stored ring state. An object's
// replicas are the N nodes of highest weight, heaviest first, ties by node
// index ascending. Two selections produce that order: rank counting on small
// clusters, top-N insertion on large ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "kv/types.hpp"
#include "util/rng.hpp"

namespace qopt::kv {

/// The rendezvous weight of `node` for `oid` under placement seed `seed`.
constexpr std::uint64_t rendezvous_weight(ObjectId oid, std::uint32_t node,
                                          std::uint64_t seed) noexcept {
  return mix64(
      oid ^ (static_cast<std::uint64_t>(node) * 0x9E3779B97F4A7C15ULL) ^ seed);
}

/// The largest node counts the rank selection takes, at replication degree
/// N >= 2 and at N = 1. Rank counting costs O(S^2) compares without a
/// data-dependent branch; top-N insertion costs S compares plus, for each
/// node that enters the top N, a mispredicted branch and a shift.
/// micro_components' BM_PlacementReplicas puts the crossover between 20
/// and 24 nodes at N = 5, and between 13 and 14 at N = 1.
inline constexpr std::uint32_t kRankMaxNodes = 20;
inline constexpr std::uint32_t kRankMaxNodesOneReplica = 13;

/// Writes to out[r], for every r < out.size(), the node of rank r among
/// `weights`: the one that exactly r nodes outrank, a node outranking
/// another when it is heavier, or as heavy with a lower index. No branch
/// depends on the weights. weights.size() is at most kRankMaxNodes and at
/// least out.size().
void select_by_rank(std::span<const std::uint64_t> weights,
                    std::span<std::uint32_t> out) noexcept;

/// A node and its weight: an entry of the insertion selection's scratch.
struct WeightedNode {
  std::uint64_t weight;
  std::uint32_t node;
};

/// The same selection by insertion over nodes [0, nodes), each weighed once
/// by `weight_of(node)`: top[0, held) keeps the heaviest nodes seen so far,
/// heaviest first. Nodes arrive in ascending order and displace only
/// strictly lighter ones, so ties rank by node ascending. `top` is scratch
/// with out.size() entries.
template <typename WeightOf>
void select_by_insertion(std::uint32_t nodes, WeightOf&& weight_of,
                         std::span<WeightedNode> top,
                         std::span<std::uint32_t> out) {
  const std::size_t k = out.size();
  std::size_t held = 0;
  for (std::uint32_t node = 0; node < nodes; ++node) {
    const std::uint64_t w = weight_of(node);
    if (held == k && w <= top[k - 1].weight) continue;
    std::size_t pos = held < k ? held++ : k - 1;
    for (; pos > 0 && top[pos - 1].weight < w; --pos) top[pos] = top[pos - 1];
    top[pos] = WeightedNode{w, node};
  }
  for (std::size_t i = 0; i < k; ++i) out[i] = top[i].node;
}

class Placement {
 public:
  Placement(std::uint32_t num_storage_nodes, int replication_degree,
            std::uint64_t seed = 0);

  /// Whether placement over `num_storage_nodes` at `replication_degree`
  /// selects by rank (else by insertion): where rank counting measured
  /// faster.
  static constexpr bool selects_by_rank(std::uint32_t num_storage_nodes,
                                        int replication_degree) noexcept {
    return num_storage_nodes <= (replication_degree == 1
                                     ? kRankMaxNodesOneReplica
                                     : kRankMaxNodes);
  }

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
  std::uint32_t num_nodes_;
  int replication_;
  std::uint64_t seed_;
  bool by_rank_;
  /// The insertion path's scratch for the heaviest nodes, sized once so the
  /// placement lookup does not allocate per operation. Placement is only
  /// ever used from the single-threaded simulation loop.
  mutable std::vector<WeightedNode> top_;
};

}  // namespace qopt::kv
