// Wire protocol: every message exchanged between clients, proxies, storage
// nodes, the Reconfiguration Manager, and the Autonomic Manager.
//
// Message names follow the paper's pseudo-code (NEWQ, ACKNEWQ, CONFIRM,
// ACKCONFIRM, NEWEP, ACKNEWEP, NACK, NEWROUND, ROUNDSTATS, NEWTOPK).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "kv/quorum.hpp"
#include "kv/types.hpp"
#include "obs/span.hpp"
#include "util/time.hpp"

namespace qopt::kv {

// ---------------------------------------------------------------- clients

struct ClientReadReq {
  ObjectId oid = 0;
  std::uint64_t req_id = 0;
};

struct ClientReadResp {
  std::uint64_t req_id = 0;
  bool found = false;
  Version version;  // valid when found
  /// Set when the proxy abandoned the operation after exhausting its
  /// retransmit budget (lossy network); found/version are meaningless.
  bool failed = false;
};

struct ClientWriteReq {
  ObjectId oid = 0;
  std::uint64_t req_id = 0;
  std::uint64_t value = 0;
  std::uint64_t size_bytes = 0;
};

struct ClientWriteResp {
  std::uint64_t req_id = 0;
  Timestamp ts;  // version timestamp assigned by the proxy (etag-style)
  /// Retry budget exhausted; the write may or may not be (partially)
  /// applied — the client must treat it as indeterminate, like an RPC
  /// timeout in a real store.
  bool failed = false;
};

// ------------------------------------------------------- proxy <-> storage

struct StorageReadReq {
  ObjectId oid = 0;
  std::uint64_t op_id = 0;
  std::uint64_t epno = 0;
  /// Causal context of the proxy's per-replica RPC span (zero when the
  /// originating operation is not sampled); responses need no context — the
  /// proxy maps replies back through `op_id`.
  obs::SpanContext span;
};

struct StorageReadResp {
  std::uint64_t op_id = 0;
  bool found = false;
  Version version;  // piggybacks the version's cfno (Algorithm 6, line 19)
};

struct StorageWriteReq {
  ObjectId oid = 0;
  std::uint64_t op_id = 0;
  std::uint64_t epno = 0;
  Version version;  // carries ts and the proxy's cfno tag
  obs::SpanContext span;  // see StorageReadReq
};

struct StorageWriteResp {
  std::uint64_t op_id = 0;
};

/// Rejection of an operation issued in a stale epoch (Algorithm 6, line 13).
/// Carries the full current configuration so the proxy resynchronizes in one
/// step.
struct EpochNack {
  std::uint64_t op_id = 0;
  FullConfig config;
};

// --------------------------------------------------------- RM <-> proxies

struct NewQuorumMsg {  // NEWQ
  std::uint64_t epno = 0;
  std::uint64_t cfno = 0;
  /// The change being installed; `config.pending` carries it too, and the
  /// proxy reads only `config`. Kept because wire fields are never removed.
  QuorumChange change;
  /// RM phase-1 span: proxies parent their drain spans under it.
  obs::SpanContext span;
  /// What the proxy runs while the change drains: the RM's committed
  /// configuration with `change` pending at `cfno`
  /// (FullConfig::with_pending). A proxy that missed an epoch change thus
  /// never applies the change to a stale base.
  FullConfig config;
  /// Version of the encoding carried in `change` and `config`; receivers
  /// ignore installs from the future (see docs/PROTOCOL.md) so a staged
  /// rollout of a richer encoding cannot corrupt old proxies. Kept last.
  std::uint8_t strategy_version = QuorumStrategy::kWireVersion;
};

struct AckNewQuorumMsg {  // ACKNEWQ
  std::uint64_t epno = 0;
  std::uint64_t cfno = 0;
};

struct ConfirmMsg {  // CONFIRM
  std::uint64_t epno = 0;
  std::uint64_t cfno = 0;
  obs::SpanContext span;  // RM phase-2 span (proxy adoption markers)
};

struct AckConfirmMsg {  // ACKCONFIRM
  std::uint64_t epno = 0;
  std::uint64_t cfno = 0;
};

// --------------------------------------------------------- RM <-> storage

struct NewEpochMsg {  // NEWEP
  FullConfig config;
  obs::SpanContext span;  // RM epoch-change span (storage adoption markers)
  std::uint8_t strategy_version = QuorumStrategy::kWireVersion;  // see NEWQ
};

struct AckNewEpochMsg {  // ACKNEWEP
  std::uint64_t epno = 0;
};

// ------------------------------------------------------------- heartbeats

/// Periodic liveness beacon from proxies to the control plane; feeds the
/// heartbeat-based failure detector (suspicions then arise organically from
/// the simulated network rather than from an omniscient oracle).
struct HeartbeatMsg {
  std::uint64_t seq = 0;
};

// --------------------------------------------------------- AM <-> proxies

struct NewRoundMsg {  // NEWROUND
  std::uint64_t round = 0;
  Duration window = 0;  // proxy reports stats after this much virtual time
};

/// Per-object access profile reported for the monitored (top-k) set.
struct ObjectStats {
  ObjectId oid = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double avg_size_bytes = 0;
};

/// Aggregate profile of the non-individually-optimized tail.
struct TailStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double avg_size_bytes = 0;

  double write_ratio() const {
    const double total = static_cast<double>(reads + writes);
    return total > 0 ? static_cast<double>(writes) / total : 0.0;
  }
};

struct TopKReport {
  ObjectId oid = 0;
  std::uint64_t count = 0;  // Space-Saving count upper bound
  std::uint64_t error = 0;
};

struct RoundStatsMsg {  // ROUNDSTATS
  std::uint64_t round = 0;
  std::vector<TopKReport> topk;           // candidate hotspots this round
  std::vector<ObjectStats> stats_topk;    // profiles of monitored objects
  TailStats stats_tail;                   // aggregate tail profile
  double throughput_ops = 0;              // ops/s during the window
  double avg_latency_ms = 0;              // mean client-op latency
};

struct NewTopKMsg {  // NEWTOPK
  std::uint64_t round = 0;
  std::vector<ObjectId> monitored;  // objects to profile next round
};

// ------------------------------------------------------------------ union

using Message =
    std::variant<ClientReadReq, ClientReadResp, ClientWriteReq,
                 ClientWriteResp, StorageReadReq, StorageReadResp,
                 StorageWriteReq, StorageWriteResp, EpochNack, NewQuorumMsg,
                 AckNewQuorumMsg, ConfirmMsg, AckConfirmMsg, NewEpochMsg,
                 AckNewEpochMsg, NewRoundMsg, RoundStatsMsg, NewTopKMsg,
                 HeartbeatMsg>;

inline constexpr std::size_t kMessageTypeCount = std::variant_size_v<Message>;

/// Display names in variant-tag order — metadata for the engine profiler's
/// per-message-type attribution (Cluster injects it into obs, which cannot
/// include this header). The tag order itself is pinned by qopt_proto's
/// append-only-evolution rule, so this table only ever grows at the end.
inline constexpr std::array<const char*, kMessageTypeCount>
    kMessageTypeNames = {
        "ClientReadReq",   "ClientReadResp", "ClientWriteReq",
        "ClientWriteResp", "StorageReadReq", "StorageReadResp",
        "StorageWriteReq", "StorageWriteResp", "EpochNack",
        "NewQuorumMsg",    "AckNewQuorumMsg", "ConfirmMsg",
        "AckConfirmMsg",   "NewEpochMsg",    "AckNewEpochMsg",
        "NewRoundMsg",     "RoundStatsMsg",  "NewTopKMsg",
        "HeartbeatMsg",
};

}  // namespace qopt::kv
