// Proxy process — Algorithms 3 (reconfiguration), 4 (read logic) and
// 5 (write logic) of the paper, extended with the per-object quorum table of
// Section 5.4 and the workload monitoring that feeds the Autonomic Manager
// (Section 4).
//
// Key behaviours:
//  * quorum reads/writes: operations are forwarded to a quorum-sized subset
//    of the object's replicas (rotated by a hash of the proxy identifier for
//    load balancing, Section 2.1) with a timeout fallback to the remaining
//    replicas;
//  * reads select the freshest returned version; if that version was written
//    under an older quorum configuration, the read is repeated with the
//    largest read quorum installed since (Algorithm 4), and the value is
//    written back under the current configuration;
//  * during a reconfiguration the proxy switches to the transition quorum
//    (component-wise max of old and new) and acknowledges the NEWQ message
//    only after draining operations issued under the old quorum;
//  * storage NACKs (stale epoch) resynchronize the proxy's full quorum state
//    and re-execute the operation in the new epoch;
//  * every client operation feeds a Space-Saving top-k summary, per-object
//    profiles for the currently monitored hotspot set, and the aggregate
//    tail profile reported to the Autonomic Manager each round.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "kv/placement.hpp"
#include "kv/quorum.hpp"
#include "kv/service_model.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "topk/space_saving.hpp"
#include "util/flat_table.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

#include <string>

namespace qopt::proxy {

struct ProxyOptions {
  kv::QuorumConfig initial = kv::QuorumConfig::of(1, 1);  // overwritten by cluster wiring
  std::size_t servers = 8;                 // proxy CPU cores
  Duration op_cost = microseconds(60);     // per-op proxy CPU time
  std::size_t topk_capacity = 128;         // Space-Saving summary size
  // Per-operation timeout/retransmit plane (at-least-once RPC; see
  // docs/ROBUSTNESS.md and Proxy::kRetryBase). After `retry_budget` rounds
  // the operation is reported failed to the client. 0 disables retransmits
  // (and with them op failures: an op then waits forever, the
  // pre-fault-plane behavior).
  int retry_budget = 6;
};

/// Completion record surfaced to the metrics layer.
struct OpRecord {
  kv::ObjectId oid = 0;
  bool is_write = false;
  Time start = 0;
  Time end = 0;
  std::uint32_t proxy = 0;
  /// Configuration number the operation's quorum was drawn under (0 when
  /// unknown, e.g. client-side records). The intersection audit only
  /// compares operations of the same generation — across generations the
  /// protocol reasons via read_q_history and read repair, not via static
  /// intersection.
  std::uint64_t cfno = 0;
  /// Storage indices whose replies formed the quorum (sorted); feeds the
  /// consistency checker's read/write intersection audit. It views the
  /// proxy's per-op buffer and is valid only during the callback: copy
  /// whatever must outlive it.
  std::span<const std::uint32_t> quorum;
};

class Proxy {
 public:
  using Net = sim::Network<kv::Message>;
  using OpCallback = std::function<void(const OpRecord&)>;

  /// An operation whose quorum is still unmet contacts the remaining
  /// replicas after kFallbackTimeout. After kRetryBase * kRetryMultiplier^k
  /// (+/- the kRetryJitter fraction) the k-th retransmit round re-sends the
  /// request (same op id, storage dedups) to every contacted replica that
  /// has not answered.
  static constexpr Duration kFallbackTimeout = 150 * kMillisecond;
  static constexpr Duration kRetryBase = 250 * kMillisecond;
  static constexpr double kRetryMultiplier = 2.0;
  static constexpr double kRetryJitter = 0.2;

  /// `obs` is the deployment's observability bundle; it must outlive the
  /// proxy.
  Proxy(sim::Simulator& sim, Net& net, sim::NodeId self,
        const kv::Placement& placement, const ProxyOptions& options,
        obs::Observability& obs);

  void on_message(const sim::NodeId& from, const kv::Message& msg);

  void crash();
  /// Crash-recovery: rejoins the network after a crash. Quorum state
  /// (lepno/lcfno, default and override quorums) is durable; in-flight
  /// operations were lost with the crash. A restarted proxy left behind by
  /// an epoch change re-learns the current configuration through a storage
  /// NACK (Algorithm 6) or from the next NEWQ, which carries the RM's
  /// committed configuration (docs/ROBUSTNESS.md, "Crash-recovery").
  void restart();
  bool crashed() const noexcept { return crashed_; }

  /// Invoked on every completed client operation (metrics wiring).
  void set_op_callback(OpCallback cb) { on_complete_ = std::move(cb); }

  // ------------------------------------------------------------ inspection
  std::uint64_t epoch() const noexcept { return config_.epno; }
  std::uint64_t cfno() const noexcept { return config_.cfno; }
  bool in_transition() const noexcept { return config_.transitional; }
  kv::QuorumConfig default_quorum() const noexcept {
    return config_.default_q.footprint();
  }
  /// Grid footprint of the quorum used for `oid` right now (includes
  /// transition logic); the sizes legacy call sites reason about.
  kv::QuorumConfig effective_quorum(kv::ObjectId oid) const;
  /// Full strategy in force for `oid` (transition quorums while draining).
  kv::QuorumStrategy effective_strategy(kv::ObjectId oid) const;
  std::size_t pending_ops() const noexcept { return live_ops_.size(); }
  /// Pending-op slots allocated so far: the high-water mark of in-flight
  /// operations (slots are recycled, never freed).
  std::size_t op_slots() const noexcept { return op_slab_.size(); }
  std::size_t override_count() const noexcept {
    return config_.overrides.size();
  }

 private:
  /// Ordered set of replica indices on a flat vector. Reply fan-in is a
  /// handful of replicas per operation, so a binary-searched vector beats a
  /// node-allocating tree on the per-reply hot path: the buffer is grown
  /// once per operation and reused verbatim across retransmit attempts.
  class ReplicaSet {
   public:
    /// Returns true when `v` was newly inserted (false: already present).
    bool insert(std::uint32_t v) {
      const auto it = std::lower_bound(members_.begin(), members_.end(), v);
      if (it != members_.end() && *it == v) return false;
      members_.insert(it, v);
      return true;
    }
    bool contains(std::uint32_t v) const noexcept {
      return std::binary_search(members_.begin(), members_.end(), v);
    }
    void clear() noexcept { members_.clear(); }
    void reserve(std::size_t n) { members_.reserve(n); }
    std::span<const std::uint32_t> members() const noexcept {
      return members_;
    }

   private:
    std::vector<std::uint32_t> members_;  // sorted ascending
  };

  static constexpr Time kNoDeadline = sim::Simulator::kForever;

  struct PendingOp {
    enum class Kind { kRead, kWrite, kWriteBack };
    Kind kind = Kind::kRead;
    kv::ObjectId oid = 0;
    sim::NodeId client;            // kRead/kWrite only
    std::uint64_t client_req = 0;  // kRead/kWrite only
    std::uint64_t epno_used = 0;
    std::uint64_t cfno_used = 0;  // lcfno when the quorum was (re)drawn
    int needed = 0;    // replies required in the current phase
    int received = 0;  // replies gathered in the current phase
    /// Counting threshold: this many *distinct* replies intersect every
    /// quorum of the strategy regardless of which replicas they came from.
    /// Equals `needed` on the majority path; for an op issued under an
    /// explicit strategy it is the strategy's footprint — see quorum_met().
    int footprint_needed = 0;
    /// Node indices of the drawn explicit quorum (empty on the majority
    /// path): the fast completion set of quorum_met().
    std::vector<std::uint32_t> drawn;
    bool repair = false;
    bool any_found = false;
    kv::Version best;           // freshest version seen (reads)
    kv::Version write_version;  // payload (writes / write-backs)
    std::vector<std::uint32_t> replica_order;
    int contacted = 0;  // prefix of replica_order already contacted
    /// Replicas whose reply was counted this attempt (ordered: the
    /// retransmit path iterates it). Network-duplicated replies and replies
    /// to retransmits from an already-counted replica are dropped so a
    /// quorum is always `needed` *distinct* replicas.
    ReplicaSet replied;
    Time start_time = 0;
    bool drains = false;  // counts toward the current NEWQ drain

    // Span-layer state (all dormant when the op's trace is not sampled).
    obs::SpanContext trace_ctx;  // root span of the op's trace
    obs::SpanContext wait_span;  // current quorum-wait / repair-wait span
    // Open per-replica RPC spans as a replica-index-sorted flat vector
    // (ordered: crash teardown iterates it; empty whenever the op's trace
    // is unsampled, so the common path never allocates).
    std::vector<std::pair<std::uint32_t, obs::SpanContext>> rpc_spans;

    /// Open RPC span for `replica`, or nullptr.
    obs::SpanContext* find_rpc_span(std::uint32_t replica) {
      const auto it = std::lower_bound(
          rpc_spans.begin(), rpc_spans.end(), replica,
          [](const auto& entry, std::uint32_t r) { return entry.first < r; });
      if (it == rpc_spans.end() || it->first != replica) return nullptr;
      return &it->second;
    }
    void put_rpc_span(std::uint32_t replica, const obs::SpanContext& ctx) {
      const auto it = std::lower_bound(
          rpc_spans.begin(), rpc_spans.end(), replica,
          [](const auto& entry, std::uint32_t r) { return entry.first < r; });
      rpc_spans.insert(it, {replica, ctx});
    }
    void drop_rpc_span(std::uint32_t replica) {
      const auto it = std::lower_bound(
          rpc_spans.begin(), rpc_spans.end(), replica,
          [](const auto& entry, std::uint32_t r) { return entry.first < r; });
      if (it != rpc_spans.end() && it->first == replica) rpc_spans.erase(it);
    }
    Time wait_start = 0;      // current wait phase began here
    Time prev_reply_at = 0;   // second-to-last counted reply
    Time last_reply_at = 0;   // last counted reply
    std::uint32_t last_replica = 0;  // replica of the last counted reply

    // Deadline-index entries (kNoDeadline when unarmed); they die with the
    // op. Two fallback slots: the Algorithm-4 repair phase arms its own
    // fallback while the launch one may still be pending, and both fire.
    std::array<Time, 2> fallback_at{kNoDeadline, kNoDeadline};
    Time retransmit_at = kNoDeadline;
    int retransmit_attempt = 0;  // round the retransmit deadline starts

    /// Resets every field for a new op. The buffers (replica_order, drawn,
    /// replied, rpc_spans) keep their capacity, so a recycled slot runs its
    /// next op without allocating.
    void recycle() {
      std::vector<std::uint32_t> order = std::move(replica_order);
      std::vector<std::uint32_t> drawn_set = std::move(drawn);
      ReplicaSet replied_set = std::move(replied);
      auto spans = std::move(rpc_spans);
      *this = PendingOp{};
      replica_order = std::move(order);
      replica_order.clear();
      drawn = std::move(drawn_set);
      drawn.clear();
      replied = std::move(replied_set);
      replied.clear();
      rpc_spans = std::move(spans);
      rpc_spans.clear();
    }
  };

  // -------------------------------------------------------------- op table
  /// Takes a free slot (growing the slab when none is left), resets it and
  /// lists it under `op_id`.
  PendingOp& add_op(std::uint64_t op_id);
  /// The cold path of add_op: one more slot, and room for it in the index
  /// and the free list so that listing and releasing never reallocate.
  void grow_op_slab();
  /// Lists `op` under `op_id`, a fresh id: the tail of the index.
  void list_op(std::uint64_t op_id, PendingOp& op);
  /// Removes `op_id` from the index; its slot stays intact until released.
  void unlist_op(std::uint64_t op_id);
  /// Returns an unlisted op's slot to the free list.
  void release_op(PendingOp& op);
  /// The live op listed under `op_id`, or nullptr.
  PendingOp* find_op(std::uint64_t op_id);

  // ----------------------------------------------------------- client ops
  void handle_client_read(const sim::NodeId& from, const kv::ClientReadReq&);
  void handle_client_write(const sim::NodeId& from,
                           const kv::ClientWriteReq&);
  void start_read(kv::ObjectId oid, sim::NodeId client,
                  std::uint64_t client_req, Time start_time,
                  obs::SpanContext trace_ctx);
  void start_write(kv::ObjectId oid, kv::Version version, sim::NodeId client,
                   std::uint64_t client_req, Time start_time,
                   PendingOp::Kind kind, obs::SpanContext trace_ctx);
  void launch_op(std::uint64_t op_id, PendingOp& op);
  void contact_replicas(std::uint64_t op_id, PendingOp& op, int upto);
  void send_request(std::uint64_t op_id, PendingOp& op, std::uint32_t replica,
                    bool open_span);
  // Per-proxy deadline index: each PendingOp carries its own fallback and
  // retransmit deadlines, and one simulator event stays armed at (or
  // before) the earliest live one. Completing an op needs no cancellation.
  Time deadline_after(Duration d) const;
  /// Draws the jittered backoff for retransmit round `attempt` and stores
  /// the op's retransmit deadline (none when retransmits are disabled).
  void set_retransmit_deadline(PendingOp& op, int attempt);
  /// Makes sure the armed event fires no later than `at`.
  void arm_deadline(Time at);
  /// The armed event: runs every due fallback/retransmit, re-arms at the
  /// new earliest deadline. A stale generation (superseded, crash) is a
  /// no-op.
  void fire_deadlines(std::uint64_t gen);
  void fire_fallback(std::uint64_t op_id, PendingOp& op);
  /// Returns false when the op exhausted its budget and was failed
  /// (unlisted and released).
  bool fire_retransmit(std::uint64_t op_id, PendingOp& op);
  void fail_op(std::uint64_t op_id, PendingOp& op);
  void finish_op(std::uint64_t op_id, PendingOp& op);
  /// Whether the replies in hand form a quorum: the full drawn set answered,
  /// or footprint-many distinct replicas did (counting intersection). On the
  /// majority path this is exactly the pre-strategy `received >= needed`.
  bool quorum_met(const PendingOp& op) const;

  // ------------------------------------------------------ storage replies
  void handle_read_reply(const sim::NodeId& from, const kv::StorageReadResp&);
  void handle_write_reply(const sim::NodeId& from,
                          const kv::StorageWriteResp&);
  void handle_nack(const kv::EpochNack&);
  void maybe_complete_read(std::uint64_t op_id, PendingOp& op);
  void retry_op(std::uint64_t op_id, PendingOp& op);

  // ----------------------------------------------------------- span layer
  /// Opens the op's trace + queue span at client arrival (zero context when
  /// the kind is unsampled). `ready` is when the proxy CPU picks the op up.
  obs::SpanContext begin_op_trace(obs::TraceKind kind, const char* name,
                                  Time arrival, Time ready);
  /// Notes a counted storage reply: closes the replica's RPC span and
  /// updates straggler bookkeeping.
  void note_reply(PendingOp& op, std::uint32_t replica);
  /// Closes the current wait span when its quorum is met, recording the
  /// quorum-wait and straggler-excess instruments (first phase only).
  void on_quorum_satisfied(PendingOp& op);
  /// Tears down the op's open spans (NACK retry / crash).
  void abort_op_spans(PendingOp& op, Time at);

  // -------------------------------------------------- reconfiguration path
  void handle_new_quorum(const sim::NodeId& from, const kv::NewQuorumMsg&);
  void handle_confirm(const sim::NodeId& from, const kv::ConfirmMsg&);
  /// Installs a NEWQ or NACK payload: the epoch never moves back, and the
  /// quorum state and pending change come along unless `config` is older
  /// than ours; the read-quorum history merges entry by entry.
  void adopt_full_config(const kv::FullConfig& config);
  /// Rebuilds override_index_ after config_.overrides changed.
  void index_overrides();
  void op_completed_for_drain();

  // ------------------------------------------------------------ monitoring
  void handle_new_round(const sim::NodeId& from, const kv::NewRoundMsg&);
  void handle_new_topk(const kv::NewTopKMsg&);
  void send_round_stats(const sim::NodeId& am, std::uint64_t round);
  void note_access(kv::ObjectId oid, bool is_write, std::uint64_t size);

  const kv::QuorumStrategy& base_strategy(kv::ObjectId oid) const;
  const kv::QuorumStrategy& pending_strategy(kv::ObjectId oid) const;
  /// The cfno a written version carries: the committed configuration's.
  /// While a change drains, config_.cfno is the pending cfno, which the RM
  /// always proposes as the committed cfno + 1. A proxy that has not seen
  /// the NEWQ yet may still complete a fresher write under the committed,
  /// smaller write quorum; tagged with the pending cfno, the older version
  /// would look current to reads under the new configuration, which would
  /// skip the Algorithm-4 repair and miss that fresher write.
  std::uint64_t committed_cfno() const noexcept {
    return config_.transitional ? config_.cfno - 1 : config_.cfno;
  }

  sim::Simulator& sim_;
  Net& net_;
  sim::NodeId self_;
  const kv::Placement& placement_;
  ProxyOptions options_;
  kv::ServicePool pool_;
  bool crashed_ = false;
  /// Bumped on every crash: CPU-queue completions scheduled before the
  /// crash carry the old incarnation, so a quick restart cannot resurrect
  /// client operations the crash should have lost.
  std::uint64_t incarnation_ = 0;
  /// Proxy-local stream for retransmit jitter (deterministic per proxy
  /// index; draws never interleave with any other component's stream).
  Rng rng_;
  /// Separate stream for drawing quorums from explicit strategies. Majority
  /// strategies never touch it (their path is the pre-strategy prefix scan),
  /// and keeping it apart from rng_ means installing an explicit strategy
  /// cannot perturb the retransmit-jitter sequence of unrelated ops.
  Rng quorum_rng_;

  // Quorum state (Algorithm 3 variables): lepno and lcfno are config_.epno
  // and config_.cfno. While config_.transitional is set, config_.cfno is the
  // cfno of config_.pending, and ops run under the transition quorums.
  kv::FullConfig config_;
  // oid -> position in config_.overrides: launch_op and note_access look an
  // override up on every op, and autotuned runs hold dozens of them.
  FlatTable<std::uint32_t> override_index_;

  // Drain state for the NEWQ handshake.
  bool drain_waiting_ = false;
  int drain_remaining_ = 0;
  std::uint64_t drain_epno_ = 0;
  std::uint64_t drain_cfno_ = 0;
  sim::NodeId drain_reply_to_;
  obs::SpanContext drain_span_;  // child of the RM's NEWQ span

  // In-flight operations. Each occupies a slot of op_slab_ at a stable
  // address (handlers hold a PendingOp& across calls that issue other ops);
  // finished slots are recycled through free_ops_, so the slab grows only
  // past its high-water mark of in-flight ops.
  std::deque<PendingOp> op_slab_;
  std::vector<PendingOp*> free_ops_;
  // Live ops by op id, ascending. Ids are issued in increasing order, so a
  // new or re-keyed op appends at the tail; the deadline scan, the NEWQ
  // drain and crash() walk this index, visiting ops in issue order.
  struct LiveOp {
    std::uint64_t id;
    PendingOp* op;
  };
  std::vector<LiveOp> live_ops_;
  /// First index entry whose id is not below `op_id`.
  std::vector<LiveOp>::iterator live_position(std::uint64_t op_id);
  std::uint64_t next_op_id_ = 1;
  // Scratch for reordering an explicit strategy's replica list.
  std::vector<std::uint32_t> order_scratch_;
  // The one armed deadline event: its instant (kNoDeadline when none is
  // armed) and generation. Re-arming earlier or crashing bumps the
  // generation, which turns the superseded event into a no-op.
  Time deadline_armed_at_ = kNoDeadline;
  std::uint64_t deadline_gen_ = 0;
  std::uint64_t write_seq_ = 0;

  // Monitoring state (Section 4).
  topk::SpaceSaving summary_;
  struct ObjCounters {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    double size_sum = 0;
    std::uint64_t size_count = 0;
  };
  // The monitored hotspot set of the last NEWTOPK and its counters. Ordered:
  // per-object rows are exported verbatim into RoundStatsMsg, so iteration
  // order is part of the wire payload the AM consumes.
  std::map<kv::ObjectId, ObjCounters> monitored_stats_;
  ObjCounters tail_;
  std::uint64_t round_ops_completed_ = 0;
  double round_latency_sum_ms_ = 0;
  Time round_started_ = 0;
  std::uint64_t current_round_ = 0;

  // Observability: counters cached at construction, bumped on the hot path.
  obs::Observability& obs_;
  struct Instruments {
    obs::Counter* client_reads = nullptr;
    obs::Counter* client_writes = nullptr;
    obs::Counter* not_found_reads = nullptr;
    obs::Counter* repair_reads = nullptr;
    obs::Counter* writebacks = nullptr;
    obs::Counter* nacks_received = nullptr;
    obs::Counter* op_retries = nullptr;
    obs::Counter* fallbacks = nullptr;
    obs::Counter* reconfigurations = nullptr;
    obs::Counter* retries = nullptr;            // retransmit rounds
    obs::Counter* timeouts = nullptr;           // retry budget exhausted
    obs::Counter* duplicate_replies = nullptr;  // replica-dedup drops
    obs::Counter* restarts = nullptr;
    LatencyHistogram* read_latency_ns = nullptr;
    LatencyHistogram* write_latency_ns = nullptr;
    // Span-derived latency attribution (recorded for every op, sampled or
    // not): time from fan-out to quorum, and how long the quorum-completing
    // reply trailed the previous one (the straggler tax).
    LatencyHistogram* quorum_wait_ns = nullptr;
    LatencyHistogram* straggler_excess_ns = nullptr;
  };
  Instruments ins_;
  std::string node_name_;  // cached to_string(self_) for spans and instants

  OpCallback on_complete_;
};

}  // namespace qopt::proxy
