// Reconfiguration Manager (RM) — Algorithm 2 of the paper.
//
// Coordinates the two-phase, non-blocking quorum reconfiguration protocol:
//
//   Phase 1: broadcast NEWQ to all proxies, which switch to the transition
//            quorum and ACK once operations issued under the old quorum have
//            drained. If any proxy is suspected instead of ACKing, trigger
//            an epoch change sized max(oldR, oldW) carrying the transition
//            configuration.
//   Phase 2: broadcast CONFIRM; proxies switch to the new quorum. If any
//            proxy is suspected, trigger an epoch change sized
//            max(newR, newW) carrying the new configuration.
//
// Reconfigurations are executed strictly serially; requests queue. The
// protocol is indulgent: false suspicions can force operations to
// re-execute but never violate Dynamic Quorum Consistency nor block the
// reconfiguration (Section 5.3).
//
// Supports both global (default/tail) changes and per-object batches
// (Section 5.4).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_set>
#include <vector>

#include "kv/quorum.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "sim/failure_detector.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "smr/messages.hpp"
#include "util/time.hpp"

namespace qopt::reconfig {

class ReconfigManager {
 public:
  using Net = sim::Network<kv::Message>;
  /// Destination for canonical-state decisions (epoch bumps, commits): the
  /// owning ReplicatedRm's log. A decision takes effect only when
  /// apply_entry() delivers the chosen entry back, on every replica.
  using LogSink = std::function<void(smr::Command)>;

  /// `obs` is the cluster-wide observability bundle.
  ReconfigManager(sim::Simulator& sim, Net& net, sim::NodeId self,
                  sim::FailureDetector& fd,
                  std::vector<sim::NodeId> proxies,
                  std::vector<sim::NodeId> storages,
                  kv::QuorumConfig initial, obs::Observability& obs,
                  LogSink sink);

  void on_message(const sim::NodeId& from, const kv::Message& msg);

  // ------------------------------------------------------- log wiring
  //
  // Each RM replica hosts one ReconfigManager, all fed by the same log.
  // Canonical state (epoch counter, committed configuration, request
  // queue) advances only through decided log entries, so every replica
  // folds the identical history; phase side effects (broadcasts,
  // retransmit timers, spans) run only on the replica whose leader flag is
  // set. Requests enter through ReplicatedRm::change_configuration.

  /// Applies a decided log entry to this replica's canonical state.
  /// Returns true when the entry mutated state (a stale kCommit from a
  /// deposed leader is fenced off by its cfno and returns false). It never
  /// starts the next round; start_next() does, once the entry's completion
  /// callback has run.
  bool apply_entry(const smr::Command& entry);
  /// Starts driving the queue head when this replica holds the leader role
  /// and no round is in flight; a no-op otherwise.
  void start_next();
  /// Leader-role flag. Demotion abandons any round this replica was
  /// driving (timers die, spans close; committed state is untouched).
  /// Promotion re-drives the queue head — the deterministic resume of an
  /// in-flight round from committed state.
  void set_leader_active(bool active);
  bool leader_active() const noexcept { return leader_active_; }

  /// Canonical committed configuration (source of truth for NEWEP payloads
  /// and for the Autonomic Manager's view of installed quorums).
  const kv::FullConfig& config() const noexcept { return canonical_; }
  /// Strategy installed for `oid` (override, else the default).
  const kv::QuorumStrategy& quorum_for(kv::ObjectId oid) const;
  /// Grid footprint of quorum_for() — the sizes legacy callers reason about.
  kv::QuorumConfig quorum_footprint_for(kv::ObjectId oid) const {
    return quorum_for(oid).footprint();
  }
  bool busy() const noexcept { return phase_ != Phase::kIdle; }
  /// Requests waiting behind the in-flight round. The queue keeps the head
  /// until its commit is decided (so a new leader can re-drive it), hence
  /// the compensation while a round is active.
  std::size_t queued() const noexcept {
    return queue_.size() - (phase_ != Phase::kIdle ? 1 : 0);
  }

 private:
  enum class Phase {
    kIdle,
    kNewQuorum,      // waiting for ACKNEWQ / suspicions
    kEpochChange1,   // waiting for ACKNEWEP after phase 1
    kConfirm,        // waiting for ACKCONFIRM / suspicions
    kEpochChange2,   // waiting for ACKNEWEP after phase 2
    kCommitWait,     // commit submitted to the log, decision pending
  };

  /// Routes a canonical-state decision through the log sink.
  void log_submit(smr::RmLogKind kind);
  bool apply_request(const smr::Command& entry);
  bool apply_epoch(const smr::Command& entry);
  bool apply_commit(const smr::Command& entry);
  /// Leader-side continuation of a decided epoch bump: (re)broadcast NEWEP
  /// carrying the now-canonical epoch and re-arm the retransmit timer.
  void drive_epoch_broadcast();
  /// Stops driving the in-flight round without touching committed state:
  /// spans close, timers die, the phase returns to idle. The round itself
  /// stays at the queue head for whichever leader drives it next.
  void abandon_round();
  /// Re-sends the current phase's message (NEWQ / CONFIRM / NEWEP) to every
  /// target that has neither acked nor been suspected, with exponential
  /// backoff. Receivers are idempotent, so lost control messages only delay
  /// a reconfiguration instead of wedging it. The generation counter is
  /// bumped on every phase transition, killing stale timers.
  void arm_phase_retransmit(int attempt);
  void resend_phase();
  void evaluate_phase1();
  void evaluate_phase2();
  void begin_confirm();
  void begin_epoch_change(bool after_phase1);
  void handle_ack_new_quorum(const sim::NodeId& from,
                             const kv::AckNewQuorumMsg&);
  void handle_ack_confirm(const sim::NodeId& from, const kv::AckConfirmMsg&);
  void handle_epoch_ack(const sim::NodeId& from, const kv::AckNewEpochMsg&);
  void commit();
  void on_suspicion_change(const sim::NodeId& node, bool suspected);

  /// Post-change state the current pending change would install.
  kv::FullConfig post_change_state() const;
  /// Same fold for an arbitrary change/cfno (commit-apply runs it against
  /// the replicated queue head, which every replica holds).
  kv::FullConfig post_change_state_for(const kv::QuorumChange& change,
                                       std::uint64_t cfno) const;
  /// Transition state: per-object kv::transition of current and post-change
  /// (component-wise max of grid footprints).
  kv::FullConfig transition_state() const;
  /// Largest read or write quorum footprint across default and overrides of
  /// a state: a storage quorum of this size meets every in-flight quorum.
  static int max_quorum_dimension(const kv::FullConfig& state);
  static int max_read_q(const kv::FullConfig& state);

  sim::Simulator& sim_;
  Net& net_;
  sim::NodeId self_;
  sim::FailureDetector& fd_;
  std::vector<sim::NodeId> proxies_;
  std::vector<sim::NodeId> storages_;

  kv::FullConfig canonical_;

  struct Request {
    kv::QuorumChange change;
    // Request id, threaded through kCommit entries so the ReplicatedRm
    // fires completion callbacks exactly once cluster-wide.
    std::uint64_t seq = 0;
  };
  std::deque<Request> queue_;

  LogSink sink_;
  bool leader_active_ = true;

  // In-flight reconfiguration state.
  Phase phase_ = Phase::kIdle;
  Request current_;
  std::uint64_t current_cfno_ = 0;
  Time started_at_ = 0;
  std::unordered_set<std::uint32_t> acked_proxies_;
  std::unordered_set<std::uint32_t> acked_storage_;
  int epoch_quorum_needed_ = 0;
  bool epoch_change_after_phase1_ = false;
  std::uint64_t retry_gen_ = 0;  // invalidates retransmit timers on phase end
  kv::FullConfig epoch_payload_;  // last NEWEP payload, kept for resends
  static constexpr Duration kRetryBase = 300 * kMillisecond;
  static constexpr Duration kRetryCap = 5000 * kMillisecond;

  // Span-layer state: one trace per reconfiguration round; the phase span
  // travels inside NEWQ/CONFIRM/NEWEP so remote adoption markers and proxy
  // drains nest under it.
  obs::SpanContext round_trace_;
  obs::SpanContext phase_span_;
  /// Closes the current phase span (if any) and opens the next one.
  void begin_phase_span(obs::Phase phase, const char* name);

  // Observability: counters cached at construction, bumped on the hot path.
  obs::Observability& obs_;
  struct Instruments {
    obs::Counter* reconfigurations_completed = nullptr;
    obs::Counter* epoch_changes = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* reconfig_time_ns = nullptr;
    obs::Gauge* epoch = nullptr;
    obs::Gauge* cfno = nullptr;
  };
  Instruments ins_;
};

}  // namespace qopt::reconfig
