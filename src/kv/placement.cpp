#include "kv/placement.hpp"

#include <stdexcept>

#include "kv/types.hpp"
#include "util/rng.hpp"

namespace qopt::kv {

Placement::Placement(std::uint32_t num_storage_nodes, int replication_degree,
                     std::uint64_t seed)
    : num_nodes_(num_storage_nodes),
      replication_(replication_degree),
      seed_(seed) {
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
  // Top-N selection by insertion: top_[0, held) keeps the heaviest nodes
  // seen so far, weight descending. Nodes arrive in ascending order, so a
  // node never displaces an equal-weight one already held: ties rank by
  // node ascending.
  const auto k = static_cast<std::size_t>(replication_);
  std::size_t held = 0;
  for (std::uint32_t node = 0; node < num_nodes_; ++node) {
    const std::uint64_t w =
        mix64(oid ^ (static_cast<std::uint64_t>(node) * 0x9E3779B97F4A7C15ULL) ^
              seed_);
    if (held == k && w <= top_[k - 1].weight) continue;
    std::size_t pos = held < k ? held++ : k - 1;
    for (; pos > 0 && top_[pos - 1].weight < w; --pos) {
      top_[pos] = top_[pos - 1];
    }
    top_[pos] = Weighted{w, node};
  }
  out.resize(k);
  for (std::size_t i = 0; i < k; ++i) out[i] = top_[i].node;
}

}  // namespace qopt::kv
