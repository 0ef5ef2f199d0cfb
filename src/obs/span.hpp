// Causal spans on the DES virtual clock — the vocabulary of the span layer.
//
// Every client operation (and every RM reconfiguration round / anti-entropy
// sweep) gets a trace: a root span plus child spans for each protocol phase
// it passes through. A `SpanContext` is the wire-safe handle — two integers
// that ride inside `kv::wire` message structs so a storage node can attribute
// its service time to the originating operation. A zero context means "not
// sampled": every span-layer entry point treats it as a no-op, so the
// disabled path costs one integer test.
#pragma once

#include <cstdint>
#include <string>

#include "util/time.hpp"

namespace qopt::obs {

/// Wire-safe span handle: (trace id, span id within the trace). Zero trace
/// id = invalid/unsampled; message structs default to that, so unsampled
/// operations ship two zero integers and nothing else happens.
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;

  bool valid() const noexcept { return trace_id != 0; }
};

/// Protocol-phase taxonomy. One enumerator per distinct place an operation
/// can spend time; the critical-path analyzer attributes every nanosecond of
/// a trace to exactly one phase (the deepest span covering it).
enum class Phase : std::uint8_t {
  kOp = 0,          // root span: whole operation / round / sweep
  kProxyQueue,      // proxy CPU queue + per-op service cost
  kQuorumWait,      // first-phase quorum fan-out until the quorum is met
  kReplicaRead,     // one StorageReadReq RPC (send -> reply receipt)
  kReplicaWrite,    // one StorageWriteReq RPC (send -> reply receipt)
  kStorageRead,     // storage-node queue + read service time
  kStorageWrite,    // storage-node queue + write service time
  kReadRepair,      // Algorithm 4 second-phase read (historical quorum)
  kNackRetry,       // marker: op re-executed after an epoch NACK
  kProxyDrain,      // NEWQ receipt -> ACKNEWQ send (old-quorum drain)
  kProxyConfirm,    // marker: CONFIRM adopted at a proxy
  kRmNewq,          // RM phase 1: NEWQ broadcast -> all ACKed/suspected
  kRmConfirm,       // RM phase 2: CONFIRM broadcast -> all ACKed/suspected
  kRmEpoch,         // RM epoch change: NEWEP broadcast -> storage quorum
  kStorageEpoch,    // marker: NEWEP adopted at a storage node
  kRepairPush,      // anti-entropy push (write service on the target)
  kRetransmit,      // marker: timeout retransmit round (lossy network)
  kOpFailed,        // marker: op abandoned after its retry budget
};

inline constexpr std::size_t kNumPhases = 18;

const char* to_string(Phase phase) noexcept;

/// Trace categories — sampling is configured per kind.
enum class TraceKind : std::uint8_t {
  kRead = 0,
  kWrite,
  kWriteback,    // asynchronous read-repair write-back (own trace)
  kReconfig,     // one RM reconfiguration round
  kAntiEntropy,  // one replicator sweep
};

inline constexpr std::size_t kNumTraceKinds = 5;

const char* to_string(TraceKind kind) noexcept;

/// Instant-event categories: the rare events no span records. Each category
/// keeps its own capped ring, so a flood in one never evicts another.
enum class Category : std::uint8_t {
  kQuorum = 0,  // fallback fan-outs
  kReconfig,    // version skew, resyncs, RM retransmits, abandoned rounds
  kMembership,  // suspicions, crashes, restarts, partitions, RM leadership
  kAutonomic,   // AM decisions
  kNet,         // message drops
};

inline constexpr std::size_t kNumCategories = 5;

const char* to_string(Category category) noexcept;

/// A zero-duration event at one node. `a`/`b` are event-specific numeric
/// arguments (object id, epno, cfno, ...); `detail` is free-form text.
struct Instant {
  Time at = 0;
  std::string name;
  std::string node;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::string detail;
};

/// One span of a trace. `span_id` is 1-based and assigned in open order, so
/// `parent_id < span_id` always holds and parentage is acyclic by
/// construction. `a`/`b` are phase-specific annotations (object id,
/// straggler replica index, excess ns, ...).
struct Span {
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;
  std::uint32_t parent_id = 0;  // 0 = root (no parent)
  Phase phase = Phase::kOp;
  std::string name;
  std::string node;
  Time start = 0;
  Time end = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool open = true;

  Duration duration() const noexcept { return end - start; }
};

}  // namespace qopt::obs
