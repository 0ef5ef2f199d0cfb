#include "kv/placement.hpp"
#include "kv/replicator.hpp"
#include "kv/storage_node.hpp"
#include "kv/types.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "obs/span_store.hpp"
#include "sim/ids.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

#include <algorithm>
#include <stdexcept>

namespace qopt::kv {

Replicator::Replicator(sim::Simulator& sim, const Placement& placement,
                       std::vector<StorageNode*> nodes,
                       const ReplicatorOptions& options,
                       obs::Observability& obs)
    : sim_(sim), placement_(placement), nodes_(std::move(nodes)),
      options_(options), obs_(obs) {
  if (nodes_.empty()) throw std::invalid_argument("Replicator: no nodes");
}

void Replicator::start() {
  if (running_) return;
  running_ = true;
  sim_.after(options_.interval, [this] { sweep(); });
}

void Replicator::sweep() {
  QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kReplicator);
  if (!running_) return;
  ++stats_.sweeps;

  // Build the freshest-version table across all live replicas (the
  // daemon's hash comparison pass) in the reusable scratch vector: one
  // flat buffer sorted once beats a node-allocating map rebuilt per sweep.
  // The repair loop below is throttled by max_repairs_per_sweep, so *which*
  // objects get repaired this sweep depends on iteration order — the sort
  // pins it to ascending oid, exactly the order the old ordered map gave.
  freshest_scratch_.clear();
  std::size_t total = 0;
  for (const StorageNode* node : nodes_) {
    if (!node->crashed()) total += node->object_count();
  }
  freshest_scratch_.reserve(total);
  for (const StorageNode* node : nodes_) {
    if (node->crashed()) continue;
    node->for_each_version([this](ObjectId oid, const Version& version) {
      freshest_scratch_.emplace_back(oid, version);
    });
  }
  // Ascending oid; freshest first within an oid. The stable sort keeps
  // node order among fully tied versions, so the node-scan order of the
  // old per-node snapshots decides ties exactly as before. (The hash-map
  // visit order within one node is harmless: a node holds one version per
  // oid, and the sort key does not depend on visit order.)
  std::stable_sort(
      freshest_scratch_.begin(), freshest_scratch_.end(),
      [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first < b.first;
        if (a.second.ts != b.second.ts) return b.second.ts < a.second.ts;
        return b.second.cfno < a.second.cfno;
      });
  freshest_scratch_.erase(
      std::unique(freshest_scratch_.begin(), freshest_scratch_.end(),
                  [](const auto& a, const auto& b) {
                    return a.first == b.first;
                  }),
      freshest_scratch_.end());
  const auto& freshest = freshest_scratch_;

  // One trace per sweep; each repair push is a child span covering the
  // write service time it induces on the receiving node.
  const obs::SpanContext sweep_trace = obs_.spans().start_trace(
      obs::TraceKind::kAntiEntropy, "anti_entropy_sweep", "replicator",
      sim_.now());
  Time sweep_end = sim_.now();

  // Push the freshest version to stale or missing replicas, throttled.
  std::size_t repairs = 0;
  std::vector<std::uint32_t> replica_scratch;  // reused across objects
  for (const auto& [oid, version] : freshest) {
    ++stats_.objects_checked;
    if (repairs >= options_.max_repairs_per_sweep) break;
    placement_.replicas_into(oid, replica_scratch);
    for (std::uint32_t replica : replica_scratch) {
      StorageNode* node = nodes_[replica];
      if (node->crashed()) continue;
      const Version* held = node->peek(oid);
      const bool stale =
          !held || held->ts < version.ts ||
          (held->ts == version.ts && held->cfno < version.cfno);
      if (stale) {
        obs::SpanContext push;
        if (sweep_trace.valid()) {
          push = obs_.spans().open_span(
              sweep_trace, obs::Phase::kRepairPush, "repair_push",
              sim::to_string(sim::storage_id(replica)), sim_.now());
        }
        const Time done = node->replicate_in(oid, version);
        if (push.valid()) {
          obs_.spans().close_span(push, done, oid, replica);
        }
        sweep_end = std::max(sweep_end, done);
        ++repairs;
        ++stats_.repairs_pushed;
      }
    }
  }

  if (sweep_trace.valid()) obs_.spans().end_trace(sweep_trace, sweep_end);

  sim_.after(options_.interval, [this] { sweep(); });
}

}  // namespace qopt::kv
