// Logical node identities for all simulated processes.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace qopt::sim {

enum class NodeKind : std::uint8_t {
  kClient,
  kProxy,
  kStorage,
  kReconfigManager,
  kAutonomicManager,
};
inline constexpr std::size_t kNodeKindCount = 5;

const char* to_string(NodeKind kind) noexcept;

struct NodeId {
  NodeKind kind{NodeKind::kClient};
  std::uint32_t index = 0;

  friend auto operator<=>(const NodeId&, const NodeId&) = default;
};

std::string to_string(const NodeId& id);

inline NodeId client_id(std::uint32_t i) { return {NodeKind::kClient, i}; }
inline NodeId proxy_id(std::uint32_t i) { return {NodeKind::kProxy, i}; }
inline NodeId storage_id(std::uint32_t i) { return {NodeKind::kStorage, i}; }
inline NodeId rm_id() { return {NodeKind::kReconfigManager, 0}; }
/// Replica `i` of a replicated Reconfiguration Manager; rm_replica_id(0)
/// is rm_id(), so single-RM deployments are the degenerate case.
inline NodeId rm_replica_id(std::uint32_t i) {
  return {NodeKind::kReconfigManager, i};
}
inline NodeId am_id() { return {NodeKind::kAutonomicManager, 0}; }

struct NodeIdHash {
  std::size_t operator()(const NodeId& id) const noexcept {
    return (static_cast<std::size_t>(id.kind) << 32) ^ id.index;
  }
};

}  // namespace qopt::sim
