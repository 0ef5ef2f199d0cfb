#include "kv/placement.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "kv/types.hpp"

namespace qopt::kv {

namespace {

/// by_rank[r] = the node of rank r among weights[0, S). Each node counts
/// the nodes that outrank it: earlier ones at least as heavy, later ones
/// heavier. S is a constant, so both loops unroll into straight-line
/// compare-and-add code with no branch at all.
template <std::size_t S>
void rank_nodes(const std::uint64_t* weights, std::uint32_t* by_rank) noexcept {
#pragma GCC unroll 32
  for (std::uint32_t i = 0; i < S; ++i) {
    std::uint32_t rank = 0;
#pragma GCC unroll 32
    for (std::uint32_t j = 0; j < i; ++j) rank += weights[j] >= weights[i];
#pragma GCC unroll 32
    for (std::uint32_t j = i + 1; j < S; ++j) rank += weights[j] > weights[i];
    by_rank[rank] = i;
  }
}

using RankKernel = void (*)(const std::uint64_t*, std::uint32_t*) noexcept;

template <std::size_t... S>
constexpr std::array<RankKernel, sizeof...(S)> rank_kernels(
    std::index_sequence<S...>) {
  return {&rank_nodes<S>...};
}

/// rank_nodes<S> for every S in [0, kRankMaxNodes].
constexpr auto kRankKernels =
    rank_kernels(std::make_index_sequence<kRankMaxNodes + 1>{});

/// The rank path of Placement::replicas_into. Out of line, so that its
/// stack scratch stays out of the insertion path's frame: inlined, it
/// cost the insertion shapes of BM_PlacementReplicas up to 6%.
[[gnu::noinline]] void place_by_rank(ObjectId oid, std::uint64_t seed,
                                     std::uint32_t nodes,
                                     std::span<std::uint32_t> out) {
  std::array<std::uint64_t, kRankMaxNodes> weights;  // [0, nodes) written
  for (std::uint32_t node = 0; node < nodes; ++node) {
    weights[node] = rendezvous_weight(oid, node, seed);
  }
  select_by_rank({weights.data(), nodes}, out);
}

}  // namespace

void select_by_rank(std::span<const std::uint64_t> weights,
                    std::span<std::uint32_t> out) noexcept {
  assert(weights.size() <= kRankMaxNodes && out.size() <= weights.size());
  // Uninitialized on purpose, as `weights` in place_by_rank: the ranks of S
  // nodes are a permutation of [0, S), so the kernel writes every entry
  // that is read. Zero-filling both arrays took BM_PlacementReplicas at
  // (S, N) = (10, 5) from 31 to 48 ns on a 4-core x86-64 VM.
  std::array<std::uint32_t, kRankMaxNodes> by_rank;
  kRankKernels[weights.size()](weights.data(), by_rank.data());
  std::copy_n(by_rank.begin(), out.size(), out.begin());
}

Placement::Placement(std::uint32_t num_storage_nodes, int replication_degree,
                     std::uint64_t seed)
    : num_nodes_(num_storage_nodes),
      replication_(replication_degree),
      seed_(seed),
      by_rank_(selects_by_rank(num_storage_nodes, replication_degree)) {
  if (replication_degree <= 0 ||
      static_cast<std::uint32_t>(replication_degree) > num_storage_nodes) {
    throw std::invalid_argument(
        "Placement: replication degree must be in [1, num_storage_nodes]");
  }
  top_.resize(static_cast<std::size_t>(replication_degree));
}

std::vector<std::uint32_t> Placement::replicas(ObjectId oid) const {
  std::vector<std::uint32_t> out;
  replicas_into(oid, out);
  return out;
}

void Placement::replicas_into(ObjectId oid,
                              std::vector<std::uint32_t>& out) const {
  out.resize(static_cast<std::size_t>(replication_));
  if (by_rank_) {
    place_by_rank(oid, seed_, num_nodes_, out);
    return;
  }
  // Captured by value: a store through `top_` could alias the seed member,
  // and the weight would then reload it on every node.
  select_by_insertion(
      num_nodes_,
      [oid, seed = seed_](std::uint32_t node) {
        return rendezvous_weight(oid, node, seed);
      },
      top_, out);
}

}  // namespace qopt::kv
