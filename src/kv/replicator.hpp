// Anti-entropy replicator — the background replication daemon of Swift-like
// stores. With W < N, a write leaves N - W replicas stale until the next
// overwriting write or read-repair; Swift's object replicator periodically
// walks the object space comparing replicas and pushing the freshest
// version to the laggards. This both restores full redundancy (a
// fault-tolerance concern) and lets future small-read-quorum reads find
// fresh data without historical-quorum repairs.
//
// The sweep itself models the daemon's local hash comparison (free at the
// simulation's level of abstraction); every repair push costs a real write
// service on the receiving node, so anti-entropy competes with foreground
// traffic for disk time exactly as it does in production.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "kv/placement.hpp"
#include "kv/storage_node.hpp"
#include "kv/types.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace qopt::kv {

struct ReplicatorOptions {
  Duration interval = seconds(10);       // full sweep period
  std::size_t max_repairs_per_sweep = 1000;  // throttle background load
};

struct ReplicatorStats {
  std::uint64_t sweeps = 0;
  std::uint64_t objects_checked = 0;
  std::uint64_t repairs_pushed = 0;
};

class Replicator {
 public:
  /// Sweeps record anti-entropy traces in `obs`: one root span per sweep,
  /// one repair-push child per version pushed.
  Replicator(sim::Simulator& sim, const Placement& placement,
             std::vector<StorageNode*> nodes, const ReplicatorOptions& options,
             obs::Observability& obs);

  void start();
  void stop() noexcept { running_ = false; }
  bool running() const noexcept { return running_; }

  const ReplicatorStats& stats() const noexcept { return stats_; }

 private:
  void sweep();

  sim::Simulator& sim_;
  const Placement& placement_;
  std::vector<StorageNode*> nodes_;
  ReplicatorOptions options_;
  ReplicatorStats stats_;
  bool running_ = false;
  obs::Observability& obs_;
  /// Freshest-version table scratch, reused across sweeps so steady-state
  /// sweeps allocate nothing once the buffer has grown to the store size.
  std::vector<std::pair<ObjectId, Version>> freshest_scratch_;
};

}  // namespace qopt::kv
