#include "kv/quorum.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "obs/span_store.hpp"
#include "reconfig/reconfig_manager.hpp"
#include "sim/failure_detector.hpp"
#include "sim/ids.hpp"
#include "sim/simulator.hpp"
#include "smr/messages.hpp"
#include "util/time.hpp"

#include <algorithm>

namespace qopt::reconfig {

using kv::FullConfig;
using kv::Message;
using kv::QuorumChange;
using kv::QuorumConfig;

ReconfigManager::ReconfigManager(sim::Simulator& sim, Net& net,
                                 sim::NodeId self, sim::FailureDetector& fd,
                                 std::vector<sim::NodeId> proxies,
                                 std::vector<sim::NodeId> storages,
                                 QuorumConfig initial, obs::Observability& obs,
                                 LogSink sink)
    : sim_(sim),
      net_(net),
      self_(self),
      fd_(fd),
      proxies_(std::move(proxies)),
      storages_(std::move(storages)),
      sink_(std::move(sink)),
      obs_(obs) {
  canonical_.epno = 0;
  canonical_.cfno = 0;
  canonical_.default_q = initial;
  canonical_.read_q_history.emplace_back(0, initial.read_q);
  fd_.subscribe([this](const sim::NodeId& node, bool suspected) {
    on_suspicion_change(node, suspected);
  });
  auto& reg = obs_.registry();
  ins_.reconfigurations_completed =
      &reg.counter("rm.reconfigurations_completed");
  ins_.epoch_changes = &reg.counter("rm.epoch_changes");
  ins_.retries = &reg.counter("rm.retries");
  ins_.reconfig_time_ns = &reg.counter("rm.reconfig_time_ns");
  ins_.epoch = &reg.gauge("rm.epoch");
  ins_.cfno = &reg.gauge("rm.cfno");
}

void ReconfigManager::begin_phase_span(obs::Phase phase, const char* name) {
  obs::SpanStore& spans = obs_.spans();
  if (phase_span_.valid()) {
    spans.close_span(phase_span_, sim_.now(), canonical_.epno, current_cfno_);
  }
  phase_span_ = spans.open_span(round_trace_, phase, name, "rm", sim_.now());
}

const kv::QuorumStrategy& ReconfigManager::quorum_for(kv::ObjectId oid) const {
  for (const auto& [object, q] : canonical_.overrides) {
    if (object == oid) return q;
  }
  return canonical_.default_q;
}

void ReconfigManager::start_next() {
  if (queue_.empty() || phase_ != Phase::kIdle || !leader_active_) return;
  // The head stays queued until its commit is decided, so an abandoned
  // round loses nothing: whichever replica leads next re-drives it.
  current_ = queue_.front();
  current_cfno_ = canonical_.cfno + 1;
  started_at_ = sim_.now();
  acked_proxies_.clear();
  phase_ = Phase::kNewQuorum;
  round_trace_ = obs_.spans().start_trace(obs::TraceKind::kReconfig,
                                          "reconfig", "rm", sim_.now());
  begin_phase_span(obs::Phase::kRmNewq, "rm_newq");
  const kv::NewQuorumMsg msg{canonical_.epno, current_cfno_,
                             current_.change, phase_span_};
  for (const sim::NodeId& proxy : proxies_) net_.send(self_, proxy, msg);
  ++retry_gen_;
  arm_phase_retransmit(0);
  // A suspicion may already cover every proxy we would wait for.
  evaluate_phase1();
}

void ReconfigManager::arm_phase_retransmit(int attempt) {
  Duration delay = kRetryBase;
  for (int k = 0; k < attempt && delay < kRetryCap; ++k) delay *= 2;
  delay = std::min(delay, kRetryCap);
  const std::uint64_t gen = retry_gen_;
  sim_.after(delay, [this, gen, attempt] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kRm);
    if (gen != retry_gen_) return;  // the phase moved on
    resend_phase();
    arm_phase_retransmit(attempt + 1);
  });
}

void ReconfigManager::resend_phase() {
  ins_.retries->inc();
  obs_.spans().instant(obs::Category::kReconfig, "rm_retransmit", "rm",
                       sim_.now(), canonical_.epno, current_cfno_);
  switch (phase_) {
    case Phase::kNewQuorum: {
      const kv::NewQuorumMsg msg{canonical_.epno, current_cfno_,
                                 current_.change, phase_span_};
      for (const sim::NodeId& proxy : proxies_) {
        if (acked_proxies_.contains(proxy.index) || fd_.suspects(proxy)) {
          continue;
        }
        net_.send(self_, proxy, msg);
      }
      break;
    }
    case Phase::kConfirm: {
      const kv::ConfirmMsg msg{canonical_.epno, current_cfno_, phase_span_};
      for (const sim::NodeId& proxy : proxies_) {
        if (acked_proxies_.contains(proxy.index) || fd_.suspects(proxy)) {
          continue;
        }
        net_.send(self_, proxy, msg);
      }
      break;
    }
    case Phase::kEpochChange1:
    case Phase::kEpochChange2: {
      for (const sim::NodeId& storage : storages_) {
        if (acked_storage_.contains(storage.index) || fd_.suspects(storage)) {
          continue;
        }
        net_.send(self_, storage,
                  kv::NewEpochMsg{epoch_payload_, phase_span_});
      }
      break;
    }
    case Phase::kCommitWait:
    case Phase::kIdle:
      break;  // unreachable: the generation guard kills idle timers
  }
}

// ------------------------------------------------------------- state views

FullConfig ReconfigManager::post_change_state() const {
  return post_change_state_for(current_.change, current_cfno_);
}

FullConfig ReconfigManager::post_change_state_for(const QuorumChange& change,
                                                  std::uint64_t cfno) const {
  FullConfig state = canonical_;
  if (change.is_global) {
    state.default_q = change.global;
  } else {
    for (const auto& [oid, q] : change.overrides) {
      bool replaced = false;
      for (auto& [existing_oid, existing_q] : state.overrides) {
        if (existing_oid == oid) {
          existing_q = q;
          replaced = true;
          break;
        }
      }
      if (!replaced) state.overrides.emplace_back(oid, q);
    }
  }
  state.cfno = cfno;
  state.read_q_history.emplace_back(cfno, max_read_q(state));
  return state;
}

FullConfig ReconfigManager::transition_state() const {
  // Component-wise max of old and new quorums, per object: the transition
  // quorum intersects the read and write quorums of both configurations.
  FullConfig next = post_change_state();
  FullConfig state = next;
  state.default_q = kv::transition(canonical_.default_q, next.default_q);
  for (auto& [oid, q] : state.overrides) {
    // Old effective strategy for this object.
    kv::QuorumStrategy old_q = canonical_.default_q;
    for (const auto& [old_oid, candidate] : canonical_.overrides) {
      if (old_oid == oid) {
        old_q = candidate;
        break;
      }
    }
    q = kv::transition(old_q, q);
  }
  return state;
}

int ReconfigManager::max_quorum_dimension(const FullConfig& state) {
  const QuorumConfig d = state.default_q.footprint();
  int m = std::max(d.read_q, d.write_q);
  for (const auto& [oid, q] : state.overrides) {
    const QuorumConfig fp = q.footprint();
    m = std::max({m, fp.read_q, fp.write_q});
  }
  return m;
}

int ReconfigManager::max_read_q(const FullConfig& state) {
  int m = state.default_q.read_footprint();
  for (const auto& [oid, q] : state.overrides) {
    m = std::max(m, q.read_footprint());
  }
  return m;
}

// ------------------------------------------------------------- message i/o

void ReconfigManager::on_message(const sim::NodeId& from, const Message& msg) {
  QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kRm);
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, kv::AckNewQuorumMsg>) {
          handle_ack_new_quorum(from, m);
        } else if constexpr (std::is_same_v<T, kv::AckConfirmMsg>) {
          handle_ack_confirm(from, m);
        } else if constexpr (std::is_same_v<T, kv::AckNewEpochMsg>) {
          handle_epoch_ack(from, m);
        }
      },
      msg);
}

void ReconfigManager::handle_ack_new_quorum(const sim::NodeId& from,
                                            const kv::AckNewQuorumMsg& ack) {
  // Phase + generation fencing: a retransmitted or stale ack (an earlier
  // cfno, or a phase this RM already left) must not count toward the
  // current phase's quorum. Re-inserting an already-counted proxy is
  // idempotent (acked_proxies_ is a set).
  if (phase_ != Phase::kNewQuorum || ack.cfno != current_cfno_) return;
  acked_proxies_.insert(from.index);
  evaluate_phase1();
}

void ReconfigManager::handle_ack_confirm(const sim::NodeId& from,
                                         const kv::AckConfirmMsg& ack) {
  if (phase_ != Phase::kConfirm || ack.cfno != current_cfno_) return;
  acked_proxies_.insert(from.index);
  evaluate_phase2();
}

void ReconfigManager::on_suspicion_change(const sim::NodeId& node,
                                          bool suspected) {
  if (node.kind != sim::NodeKind::kProxy || !suspected) return;
  if (phase_ == Phase::kNewQuorum) evaluate_phase1();
  if (phase_ == Phase::kConfirm) evaluate_phase2();
}

void ReconfigManager::evaluate_phase1() {
  if (phase_ != Phase::kNewQuorum) return;
  // Algorithm 2 lines 10-12: wait until every proxy has ACKed or is
  // suspected; then trigger an epoch change if *any* proxy is suspected
  // (conservative: a suspected proxy may be alive with a stale view).
  bool any_suspected = false;
  for (const sim::NodeId& proxy : proxies_) {
    const bool suspected = fd_.suspects(proxy);
    any_suspected |= suspected;
    if (!acked_proxies_.contains(proxy.index) && !suspected) {
      return;  // still waiting on a non-suspected proxy
    }
  }
  if (any_suspected) {
    // Algorithm 2 lines 12-14: invalidate operations that may still run
    // under the old quorum before confirming; storage nodes will NACK any
    // proxy left behind in the previous epoch.
    begin_epoch_change(/*after_phase1=*/true);
  } else {
    begin_confirm();
  }
}

void ReconfigManager::begin_confirm() {
  phase_ = Phase::kConfirm;
  begin_phase_span(obs::Phase::kRmConfirm, "rm_confirm");
  acked_proxies_.clear();
  const kv::ConfirmMsg msg{canonical_.epno, current_cfno_, phase_span_};
  for (const sim::NodeId& proxy : proxies_) net_.send(self_, proxy, msg);
  ++retry_gen_;
  arm_phase_retransmit(0);
  evaluate_phase2();
}

void ReconfigManager::evaluate_phase2() {
  if (phase_ != Phase::kConfirm) return;
  bool any_suspected = false;
  for (const sim::NodeId& proxy : proxies_) {
    const bool suspected = fd_.suspects(proxy);
    any_suspected |= suspected;
    if (!acked_proxies_.contains(proxy.index) && !suspected) {
      return;
    }
  }
  if (any_suspected) {
    begin_epoch_change(/*after_phase1=*/false);
  } else {
    commit();
  }
}

void ReconfigManager::begin_epoch_change(bool after_phase1) {
  ins_.epoch_changes->inc();
  epoch_change_after_phase1_ = after_phase1;
  phase_ = after_phase1 ? Phase::kEpochChange1 : Phase::kEpochChange2;
  acked_storage_.clear();

  // Epoch-change quorum sizing (Section 5.3): after phase 1 the lagging
  // proxies may be using the old or transition quorum, so a quorum of
  // max(oldR, oldW) storage acknowledgements guarantees their operations
  // meet a NACK. After phase 2 they may be using the transition or new
  // quorum, so size by the new configuration.
  FullConfig payload;
  if (after_phase1) {
    // Lagging proxies must run with the transition quorums until CONFIRM;
    // ship the pending change so they can commit it when it arrives.
    payload = transition_state();
    payload.transitional = true;
    payload.pending = current_.change;
  } else {
    payload = post_change_state();
  }
  epoch_quorum_needed_ =
      max_quorum_dimension(after_phase1 ? canonical_ : payload);
  epoch_payload_ = payload;

  // The epoch bump is a canonical-state decision: log it so epochs stay
  // totally ordered across RM leader failovers. The broadcast follows in
  // drive_epoch_broadcast() once the bump is decided (inline with one
  // replica). Kill the previous phase's retransmit timer so it cannot
  // resend a NEWEP payload carrying a pre-decision epoch.
  ++retry_gen_;
  log_submit(smr::RmLogKind::kEpoch);
}

void ReconfigManager::drive_epoch_broadcast() {
  begin_phase_span(obs::Phase::kRmEpoch, "rm_epoch_change");
  epoch_payload_.epno = canonical_.epno;
  // A re-drive (new leader, or a second decided bump landing while this
  // phase waits) restarts the acknowledgement tally: acks are only valid
  // against the epoch they echo.
  acked_storage_.clear();
  for (const sim::NodeId& storage : storages_) {
    net_.send(self_, storage,
              kv::NewEpochMsg{epoch_payload_, phase_span_});
  }
  ++retry_gen_;
  arm_phase_retransmit(0);
}

void ReconfigManager::handle_epoch_ack(const sim::NodeId& from,
                                       const kv::AckNewEpochMsg& ack) {
  if (phase_ != Phase::kEpochChange1 && phase_ != Phase::kEpochChange2) return;
  if (ack.epno != canonical_.epno) return;
  acked_storage_.insert(from.index);
  if (static_cast<int>(acked_storage_.size()) < epoch_quorum_needed_) return;
  if (epoch_change_after_phase1_) {
    begin_confirm();
  } else {
    commit();
  }
}

void ReconfigManager::commit() {
  // The phase protocol is done; whether the round takes effect is now a
  // replicated-log decision. kCommitWait fences late ACKCONFIRM / ACKNEWEP
  // arrivals from re-triggering a second submission.
  phase_ = Phase::kCommitWait;
  ++retry_gen_;  // the decided round needs no more phase retransmits
  log_submit(smr::RmLogKind::kCommit);
}

// --------------------------------------------------- replicated-log plumbing

void ReconfigManager::log_submit(smr::RmLogKind kind) {
  smr::Command entry;
  entry.kind = kind;
  entry.cfno = current_cfno_;
  entry.seq = current_.seq;
  if (kind == smr::RmLogKind::kCommit) entry.change = current_.change;
  sink_(std::move(entry));
}

bool ReconfigManager::apply_entry(const smr::Command& entry) {
  switch (entry.kind) {
    case smr::RmLogKind::kRequest:
      return apply_request(entry);
    case smr::RmLogKind::kEpoch:
      return apply_epoch(entry);
    case smr::RmLogKind::kCommit:
      return apply_commit(entry);
  }
  return false;
}

bool ReconfigManager::apply_request(const smr::Command& entry) {
  // Validation happened before submission (ReplicatedRm's request path),
  // so every replica queues identically.
  queue_.push_back(Request{entry.change, entry.seq});
  return true;
}

bool ReconfigManager::apply_epoch(const smr::Command&) {
  canonical_.epno += 1;  // epochs are totally ordered, log-decided counters
  ins_.epoch->set(static_cast<double>(canonical_.epno));
  // Only the replica driving an epoch-change phase broadcasts; a bump that
  // lands mid-phase (a deposed leader's stray entry) re-drives with the
  // fresh epoch, since acks against the superseded one no longer count.
  if (leader_active_ &&
      (phase_ == Phase::kEpochChange1 || phase_ == Phase::kEpochChange2)) {
    drive_epoch_broadcast();
  }
  return true;
}

bool ReconfigManager::apply_commit(const smr::Command& entry) {
  const bool driving = leader_active_ && phase_ != Phase::kIdle;
  if (entry.cfno != canonical_.cfno + 1 || queue_.empty()) {
    // cfno fence: a duplicate or deposed-leader commit for an installed
    // round mutates nothing. If this replica is (re)driving that ghost
    // round, stop — its request already completed.
    if (driving && current_cfno_ <= canonical_.cfno) abandon_round();
    return false;
  }
  FullConfig next = post_change_state_for(queue_.front().change, entry.cfno);
  queue_.pop_front();
  next.epno = canonical_.epno;
  canonical_ = std::move(next);
  const bool this_round = driving && current_cfno_ == entry.cfno;
  if (this_round) {
    ins_.reconfigurations_completed->inc();
    ins_.reconfig_time_ns->inc(
        static_cast<std::uint64_t>(sim_.now() - started_at_));
  }
  ins_.cfno->set(static_cast<double>(canonical_.cfno));
  if (this_round) {
    if (phase_span_.valid()) {
      obs_.spans().close_span(phase_span_, sim_.now(), canonical_.epno,
                              canonical_.cfno);
      phase_span_ = obs::SpanContext{};
    }
    if (round_trace_.valid()) {
      obs_.spans().end_trace(round_trace_, sim_.now());
      round_trace_ = obs::SpanContext{};
    }
    phase_ = Phase::kIdle;
    ++retry_gen_;  // kill the committed round's retransmit timer
    current_ = Request{};
  } else if (driving && current_cfno_ <= canonical_.cfno) {
    abandon_round();  // this commit retired the round we were re-driving
  }
  return true;
}

void ReconfigManager::set_leader_active(bool active) {
  if (leader_active_ == active) return;
  leader_active_ = active;
  if (!active) {
    if (phase_ != Phase::kIdle) abandon_round();
    ++retry_gen_;  // no timers may survive demotion, busy or not
  } else {
    // Deterministic resume: the queue head (if any) is re-driven from
    // committed state — NEWQ restarts, receivers are idempotent.
    start_next();
  }
}

void ReconfigManager::abandon_round() {
  obs_.spans().instant(obs::Category::kReconfig, "rm_round_abandoned", "rm",
                       sim_.now(), canonical_.epno, current_cfno_);
  if (phase_span_.valid()) {
    obs_.spans().close_span(phase_span_, sim_.now(), canonical_.epno,
                            current_cfno_);
    phase_span_ = obs::SpanContext{};
  }
  if (round_trace_.valid()) {
    obs_.spans().end_trace(round_trace_, sim_.now());
    round_trace_ = obs::SpanContext{};
  }
  phase_ = Phase::kIdle;
  ++retry_gen_;
  current_ = Request{};
}

}  // namespace qopt::reconfig
