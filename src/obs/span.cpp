#include "obs/span.hpp"

namespace qopt::obs {

const char* to_string(Phase phase) noexcept {
  switch (phase) {
    case Phase::kOp: return "op";
    case Phase::kProxyQueue: return "proxy_queue";
    case Phase::kQuorumWait: return "quorum_wait";
    case Phase::kReplicaRead: return "replica_read";
    case Phase::kReplicaWrite: return "replica_write";
    case Phase::kStorageRead: return "storage_read";
    case Phase::kStorageWrite: return "storage_write";
    case Phase::kReadRepair: return "read_repair";
    case Phase::kNackRetry: return "nack_retry";
    case Phase::kProxyDrain: return "proxy_drain";
    case Phase::kProxyConfirm: return "proxy_confirm";
    case Phase::kRmNewq: return "rm_newq";
    case Phase::kRmConfirm: return "rm_confirm";
    case Phase::kRmEpoch: return "rm_epoch";
    case Phase::kStorageEpoch: return "storage_epoch";
    case Phase::kRepairPush: return "repair_push";
    case Phase::kRetransmit: return "retransmit";
    case Phase::kOpFailed: return "op_failed";
  }
  return "unknown";
}

const char* to_string(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kRead: return "read";
    case TraceKind::kWrite: return "write";
    case TraceKind::kWriteback: return "writeback";
    case TraceKind::kReconfig: return "reconfig";
    case TraceKind::kAntiEntropy: return "anti_entropy";
  }
  return "unknown";
}

const char* to_string(Category category) noexcept {
  switch (category) {
    case Category::kQuorum: return "quorum";
    case Category::kReconfig: return "reconfig";
    case Category::kMembership: return "membership";
    case Category::kAutonomic: return "autonomic";
    case Category::kNet: return "net";
  }
  return "unknown";
}

}  // namespace qopt::obs
