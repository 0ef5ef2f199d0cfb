#include "kv/placement.hpp"
#include "kv/quorum.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "obs/span_store.hpp"
#include "proxy/proxy.hpp"
#include "sim/ids.hpp"
#include "sim/simulator.hpp"
#include "topk/space_saving.hpp"
#include "util/time.hpp"

#include <algorithm>
#include <cassert>

namespace qopt::proxy {

using kv::Message;
using kv::ObjectId;
using kv::QuorumConfig;
using kv::Version;

Proxy::Proxy(sim::Simulator& sim, Net& net, sim::NodeId self,
             const kv::Placement& placement, const ProxyOptions& options,
             obs::Observability& obs)
    : sim_(sim),
      net_(net),
      self_(self),
      placement_(placement),
      options_(options),
      pool_(options.servers),
      rng_(mix64(0x70727879ULL ^ self.index)),
      quorum_rng_(mix64(0x71756F72756DULL ^ self.index)),
      summary_(options.topk_capacity),
      obs_(obs) {
  config_.default_q = options.initial;
  config_.record_read_q(0, config_.default_q.read_footprint());
  node_name_ = sim::to_string(self_);
  auto& reg = obs_.registry();
  const std::uint32_t i = self_.index;
  ins_.client_reads = &reg.counter(obs::instrument_name("proxy", i,
                                                        "client_reads"));
  ins_.client_writes = &reg.counter(obs::instrument_name("proxy", i,
                                                         "client_writes"));
  ins_.not_found_reads =
      &reg.counter(obs::instrument_name("proxy", i, "not_found_reads"));
  ins_.repair_reads = &reg.counter(obs::instrument_name("proxy", i,
                                                        "repair_reads"));
  ins_.writebacks = &reg.counter(obs::instrument_name("proxy", i,
                                                      "writebacks"));
  ins_.nacks_received =
      &reg.counter(obs::instrument_name("proxy", i, "nacks_received"));
  ins_.op_retries = &reg.counter(obs::instrument_name("proxy", i,
                                                      "op_retries"));
  ins_.fallbacks = &reg.counter(obs::instrument_name("proxy", i,
                                                     "fallbacks"));
  ins_.reconfigurations =
      &reg.counter(obs::instrument_name("proxy", i, "reconfigurations"));
  ins_.retries = &reg.counter(obs::instrument_name("proxy", i, "retries"));
  ins_.timeouts = &reg.counter(obs::instrument_name("proxy", i, "timeouts"));
  ins_.duplicate_replies =
      &reg.counter(obs::instrument_name("proxy", i, "duplicate_replies"));
  ins_.restarts = &reg.counter(obs::instrument_name("proxy", i, "restarts"));
  ins_.read_latency_ns =
      &reg.histogram(obs::instrument_name("proxy", i, "read_latency_ns"));
  ins_.write_latency_ns =
      &reg.histogram(obs::instrument_name("proxy", i, "write_latency_ns"));
  ins_.quorum_wait_ns =
      &reg.histogram(obs::instrument_name("proxy", i, "quorum_wait_ns"));
  ins_.straggler_excess_ns =
      &reg.histogram(obs::instrument_name("proxy", i, "straggler_excess_ns"));
}

void Proxy::crash() {
  crashed_ = true;
  ++incarnation_;  // invalidates already-scheduled CPU-queue completions
  net_.set_crashed(self_);
  // End in-flight traces so the span store's live set stays bounded; their
  // open spans are force-closed at the crash instant.
  for (const LiveOp& live : live_ops_) {
    if (live.op->trace_ctx.valid()) {
      obs_.spans().end_trace(live.op->trace_ctx, sim_.now());
    }
    release_op(*live.op);
  }
  live_ops_.clear();
  // The deadlines died with the ops; retire the armed event too.
  ++deadline_gen_;
  deadline_armed_at_ = kNoDeadline;
  // An unanswered NEWQ drain dies with the in-flight ops; the RM's
  // retransmitted NEWQ after restart is re-answered from scratch.
  drain_waiting_ = false;
  drain_remaining_ = 0;
  if (drain_span_.valid()) {
    obs_.spans().close_span(drain_span_, sim_.now());
    drain_span_ = obs::SpanContext{};
  }
}

void Proxy::restart() {
  if (!crashed_) return;
  crashed_ = false;
  net_.set_crashed(self_, false);
  ins_.restarts->inc();
  obs_.spans().instant(obs::Category::kMembership, "restart", node_name_,
                       sim_.now());
}

// --------------------------------------------------------------- op table

Proxy::PendingOp& Proxy::add_op(std::uint64_t op_id) {
  if (free_ops_.empty()) grow_op_slab();
  PendingOp& op = *free_ops_.back();
  free_ops_.pop_back();
  op.recycle();
  list_op(op_id, op);
  return op;
}

void Proxy::grow_op_slab() {
  op_slab_.emplace_back();
  live_ops_.reserve(op_slab_.size());
  free_ops_.reserve(op_slab_.size());
  free_ops_.push_back(&op_slab_.back());
}

void Proxy::list_op(std::uint64_t op_id, PendingOp& op) {
  assert(live_ops_.empty() || live_ops_.back().id < op_id);
  // qopt-perf: allow(vector-growth-hot) grow_op_slab reserved room per slot
  live_ops_.push_back(LiveOp{op_id, &op});
}

std::vector<Proxy::LiveOp>::iterator Proxy::live_position(
    std::uint64_t op_id) {
  return std::lower_bound(
      live_ops_.begin(), live_ops_.end(), op_id,
      [](const LiveOp& live, std::uint64_t id) { return live.id < id; });
}

void Proxy::unlist_op(std::uint64_t op_id) {
  const auto it = live_position(op_id);
  assert(it != live_ops_.end() && it->id == op_id);
  live_ops_.erase(it);
}

void Proxy::release_op(PendingOp& op) {
  // qopt-perf: allow(vector-growth-hot) grow_op_slab reserved room per slot
  free_ops_.push_back(&op);
}

Proxy::PendingOp* Proxy::find_op(std::uint64_t op_id) {
  const auto it = live_position(op_id);
  return it != live_ops_.end() && it->id == op_id ? it->op : nullptr;
}

// ---------------------------------------------------------------- quorums

const kv::QuorumStrategy& Proxy::base_strategy(ObjectId oid) const {
  const std::uint32_t* at = override_index_.find(oid);
  return at != nullptr ? config_.overrides[*at].second : config_.default_q;
}

const kv::QuorumStrategy& Proxy::pending_strategy(ObjectId oid) const {
  // The strategy `oid` will have once the pending change commits.
  const kv::QuorumChange& change = config_.pending;
  if (change.is_global) {
    const std::uint32_t* at = override_index_.find(oid);
    return at != nullptr ? config_.overrides[*at].second : change.global;
  }
  // Scan from the back: a change that names `oid` twice commits its last
  // entry (FullConfig::apply), so the transition must run under that one.
  for (auto it = change.overrides.rbegin(); it != change.overrides.rend();
       ++it) {
    if (it->first == oid) return it->second;
  }
  return base_strategy(oid);
}

kv::QuorumStrategy Proxy::effective_strategy(ObjectId oid) const {
  const kv::QuorumStrategy& base = base_strategy(oid);
  if (!config_.transitional) return base;
  // While draining, ops run under the transition quorum: the component-wise
  // max of the old and new grid footprints, which intersects every quorum of
  // both strategies.
  return kv::transition(base, pending_strategy(oid));
}

QuorumConfig Proxy::effective_quorum(ObjectId oid) const {
  return effective_strategy(oid).footprint();
}

void Proxy::index_overrides() {
  override_index_.clear();
  override_index_.reserve(config_.overrides.size());
  for (std::uint32_t i = 0; i < config_.overrides.size(); ++i) {
    override_index_.try_emplace(config_.overrides[i].first, i);
  }
}

// ------------------------------------------------------------- dispatcher

void Proxy::on_message(const sim::NodeId& from, const Message& msg) {
  QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kProxy);
  if (crashed_) return;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, kv::ClientReadReq>) {
          handle_client_read(from, m);
        } else if constexpr (std::is_same_v<T, kv::ClientWriteReq>) {
          handle_client_write(from, m);
        } else if constexpr (std::is_same_v<T, kv::StorageReadResp>) {
          handle_read_reply(from, m);
        } else if constexpr (std::is_same_v<T, kv::StorageWriteResp>) {
          handle_write_reply(from, m);
        } else if constexpr (std::is_same_v<T, kv::EpochNack>) {
          handle_nack(m);
        } else if constexpr (std::is_same_v<T, kv::NewQuorumMsg>) {
          handle_new_quorum(from, m);
        } else if constexpr (std::is_same_v<T, kv::ConfirmMsg>) {
          handle_confirm(from, m);
        } else if constexpr (std::is_same_v<T, kv::NewRoundMsg>) {
          handle_new_round(from, m);
        } else if constexpr (std::is_same_v<T, kv::NewTopKMsg>) {
          handle_new_topk(m);
        }
      },
      msg);
}

// --------------------------------------------------------- client entries

void Proxy::handle_client_read(const sim::NodeId& from,
                               const kv::ClientReadReq& req) {
  ins_.client_reads->inc();
  const Time arrival = sim_.now();
  const Time ready = pool_.submit(arrival, options_.op_cost);
  const obs::SpanContext trace_ctx =
      begin_op_trace(obs::TraceKind::kRead, "read", arrival, ready);
  sim_.at(ready, [this, from, req, arrival, trace_ctx, inc = incarnation_] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kProxy);
    if (crashed_ || inc != incarnation_) {
      obs_.spans().end_trace(trace_ctx, sim_.now());
      return;
    }
    start_read(req.oid, from, req.req_id, arrival, trace_ctx);
  });
}

void Proxy::handle_client_write(const sim::NodeId& from,
                                const kv::ClientWriteReq& req) {
  ins_.client_writes->inc();
  const Time arrival = sim_.now();
  const Time ready = pool_.submit(arrival, options_.op_cost);
  const obs::SpanContext trace_ctx =
      begin_op_trace(obs::TraceKind::kWrite, "write", arrival, ready);
  sim_.at(ready, [this, from, req, arrival, trace_ctx, inc = incarnation_] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kProxy);
    if (crashed_ || inc != incarnation_) {
      obs_.spans().end_trace(trace_ctx, sim_.now());
      return;
    }
    Version version;
    version.ts = kv::Timestamp{sim_.now(), self_.index, ++write_seq_};
    version.cfno = committed_cfno();
    version.value = req.value;
    version.size_bytes = req.size_bytes;
    start_write(req.oid, version, from, req.req_id, arrival,
                PendingOp::Kind::kWrite, trace_ctx);
  });
}

void Proxy::start_read(ObjectId oid, sim::NodeId client,
                       std::uint64_t client_req, Time start_time,
                       obs::SpanContext trace_ctx) {
  const std::uint64_t op_id = next_op_id_++;
  PendingOp& op = add_op(op_id);
  op.kind = PendingOp::Kind::kRead;
  op.oid = oid;
  op.client = client;
  op.client_req = client_req;
  op.start_time = start_time;
  op.trace_ctx = trace_ctx;
  launch_op(op_id, op);
}

void Proxy::start_write(ObjectId oid, Version version, sim::NodeId client,
                        std::uint64_t client_req, Time start_time,
                        PendingOp::Kind kind, obs::SpanContext trace_ctx) {
  const std::uint64_t op_id = next_op_id_++;
  PendingOp& op = add_op(op_id);
  op.kind = kind;
  op.oid = oid;
  op.client = client;
  op.client_req = client_req;
  op.write_version = version;
  op.start_time = start_time;
  op.trace_ctx = trace_ctx;
  launch_op(op_id, op);
}

void Proxy::launch_op(std::uint64_t op_id, PendingOp& op) {
  op.epno_used = config_.epno;
  op.cfno_used = config_.cfno;
  op.received = 0;
  op.contacted = 0;
  op.replied.clear();
  op.any_found = false;
  op.repair = false;
  placement_.replicas_into(op.oid, op.replica_order);
  const std::size_t n = op.replica_order.size();
  op.replied.reserve(n);
  // Outside a transition the strategy is a stored object; bind a reference
  // instead of copying its weighted-quorum tables on every operation. The
  // transition composite only exists while a change is draining.
  kv::QuorumStrategy transitional;
  if (config_.transitional) transitional = effective_strategy(op.oid);
  const kv::QuorumStrategy& strategy =
      config_.transitional ? transitional : base_strategy(op.oid);
  const bool is_read = op.kind == PendingOp::Kind::kRead;
  if (strategy.is_majority()) {
    // Load balancing: rotate the replica list by a hash of the proxy
    // identifier (Section 2.1) so different proxies spread load over
    // different quorum subsets.
    std::rotate(op.replica_order.begin(),
                op.replica_order.begin() +
                    static_cast<long>(mix64(self_.index) % n),
                op.replica_order.end());
    const QuorumConfig q = strategy.footprint();
    op.needed = is_read ? q.read_q : q.write_q;
    op.footprint_needed = op.needed;
    op.drawn.clear();
  } else {
    // Explicit strategy: draw one quorum from the selection distribution and
    // contact exactly its members first; load balancing comes from the
    // optimizer's weights, not from rotation. The non-members follow in the
    // order list so the fallback/retransmit plane can still fan out if a
    // drawn member is slow or down; quorum_met() then requires either the
    // full drawn set or footprint-many distinct replies (an arbitrary
    // |drawn|-sized reply set need not intersect every write quorum).
    const kv::WeightedQuorum& drawn = is_read
                                          ? strategy.sample_read(quorum_rng_)
                                          : strategy.sample_write(quorum_rng_);
    std::vector<std::uint32_t>& order = order_scratch_;
    order.clear();
    order.reserve(n);
    op.drawn.clear();
    for (std::uint32_t slot : drawn.members) {
      order.push_back(op.replica_order[slot]);
      op.drawn.push_back(op.replica_order[slot]);
    }
    for (std::uint32_t slot = 0; slot < n; ++slot) {
      if (std::find(drawn.members.begin(), drawn.members.end(), slot) ==
          drawn.members.end()) {
        order.push_back(op.replica_order[slot]);
      }
    }
    op.replica_order.swap(order);
    op.needed = static_cast<int>(drawn.members.size());
    op.footprint_needed = is_read ? strategy.read_footprint()
                                  : strategy.write_footprint();
  }
  op.wait_start = sim_.now();
  op.prev_reply_at = 0;
  op.last_reply_at = 0;
  op.last_replica = 0;
  op.wait_span =
      obs_.spans().open_span(op.trace_ctx, obs::Phase::kQuorumWait,
                             "quorum_wait", node_name_, sim_.now());
  contact_replicas(op_id, op, op.needed);
  // A NACK re-launch starts from fresh deadlines: the aborted attempt's
  // deadlines died with its op id.
  op.fallback_at = {deadline_after(kFallbackTimeout), kNoDeadline};
  op.retransmit_at = kNoDeadline;
  set_retransmit_deadline(op, 0);
  arm_deadline(std::min(op.fallback_at[0], op.retransmit_at));
}

bool Proxy::quorum_met(const PendingOp& op) const {
  // Counting completion: footprint-many distinct replies intersect every
  // quorum of the opposite side, and — via the rmin + wmin <= n + 1
  // invariant QuorumStrategy::valid() enforces — the reply set of any other
  // counting-completed operation as well.
  if (op.received >= op.footprint_needed) return true;
  if (op.received < op.needed) return false;
  if (op.drawn.empty()) return true;  // majority path: needed IS the quorum
  for (std::uint32_t node : op.drawn) {
    if (!op.replied.contains(node)) return false;
  }
  return true;
}

void Proxy::contact_replicas(std::uint64_t op_id, PendingOp& op, int upto) {
  const int limit =
      std::min(upto, static_cast<int>(op.replica_order.size()));
  for (; op.contacted < limit; ++op.contacted) {
    send_request(op_id, op,
                 op.replica_order[static_cast<std::size_t>(op.contacted)],
                 /*open_span=*/true);
  }
}

void Proxy::send_request(std::uint64_t op_id, PendingOp& op,
                         std::uint32_t replica, bool open_span) {
  const bool is_read = op.kind == PendingOp::Kind::kRead;
  // The RPC span travels in the request so the storage node can attribute
  // its service time to this operation; replica_order holds each replica
  // once, so the rpc_spans key is unique. A retransmit (open_span false)
  // reuses the still-open span of the first send — it is the same logical
  // RPC, retried; the kRetransmit marker records the extra round.
  obs::SpanContext rpc;
  if (op.wait_span.valid()) {
    if (const obs::SpanContext* open = op.find_rpc_span(replica)) {
      rpc = *open;
    } else if (open_span) {
      rpc = obs_.spans().open_span(
          op.wait_span,
          is_read ? obs::Phase::kReplicaRead : obs::Phase::kReplicaWrite,
          is_read ? "replica_read" : "replica_write", node_name_, sim_.now());
      if (rpc.valid()) op.put_rpc_span(replica, rpc);
    }
  }
  const sim::NodeId target = sim::storage_id(replica);
  if (is_read) {
    net_.send(self_, target,
              kv::StorageReadReq{op.oid, op_id, op.epno_used, rpc});
  } else {
    net_.send(self_, target,
              kv::StorageWriteReq{op.oid, op_id, op.epno_used,
                                  op.write_version, rpc});
  }
}

Time Proxy::deadline_after(Duration d) const {
  return sim_.now() + std::max<Duration>(d, 0);
}

void Proxy::set_retransmit_deadline(PendingOp& op, int attempt) {
  // At-least-once RPC plane: after an exponentially backed-off, jittered
  // timeout the op re-sends to contacted-but-silent replicas (same op id;
  // storage dedups applied writes). Disabled by retry_budget = 0.
  if (options_.retry_budget <= 0) return;
  double delay = static_cast<double>(kRetryBase);
  for (int k = 0; k < attempt; ++k) delay *= kRetryMultiplier;
  delay *= 1.0 + kRetryJitter * (2.0 * rng_.next_double() - 1.0);
  op.retransmit_at = deadline_after(static_cast<Duration>(delay));
  op.retransmit_attempt = attempt;
}

void Proxy::arm_deadline(Time at) {
  // An event armed at or before `at` re-arms for it when it fires.
  if (at >= deadline_armed_at_) return;
  deadline_armed_at_ = at;
  sim_.at(at, [this, gen = ++deadline_gen_] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kProxy);
    fire_deadlines(gen);
  });
}

void Proxy::fire_deadlines(std::uint64_t gen) {
  if (crashed_ || gen != deadline_gen_) return;
  deadline_armed_at_ = kNoDeadline;
  const Time now = sim_.now();
  Time next = kNoDeadline;
  // Issue order: the scan is about ten ops long and iteration order is
  // part of the deterministic schedule (sends, jitter draws).
  for (std::size_t i = 0; i < live_ops_.size();) {
    const std::uint64_t op_id = live_ops_[i].id;
    PendingOp& op = *live_ops_[i].op;
    for (Time& at : op.fallback_at) {
      if (at <= now) {
        at = kNoDeadline;
        fire_fallback(op_id, op);
      }
    }
    if (op.retransmit_at <= now) {
      op.retransmit_at = kNoDeadline;
      // A failed op leaves the index: the next one moved up to index i.
      if (!fire_retransmit(op_id, op)) continue;
    }
    next = std::min({next, op.fallback_at[0], op.fallback_at[1],
                     op.retransmit_at});
    ++i;
  }
  if (next != kNoDeadline) arm_deadline(next);
}

void Proxy::fire_fallback(std::uint64_t op_id, PendingOp& op) {
  // "If, after a timeout period, some replies are missing, the request is
  //  sent to the remaining replicas until the desired quorum is ensured"
  // (Section 2.1). Rare path, taken mainly under storage failures.
  if (quorum_met(op)) return;
  if (op.contacted >= static_cast<int>(op.replica_order.size())) return;
  ins_.fallbacks->inc();
  obs_.spans().instant(obs::Category::kQuorum, "fallback", node_name_,
                       sim_.now(), op.oid);
  contact_replicas(op_id, op, static_cast<int>(op.replica_order.size()));
}

bool Proxy::fire_retransmit(std::uint64_t op_id, PendingOp& op) {
  if (quorum_met(op)) return true;
  const int attempt = op.retransmit_attempt;
  if (attempt >= options_.retry_budget) {
    fail_op(op_id, op);
    return false;
  }
  ins_.retries->inc();
  if (op.trace_ctx.valid()) {
    // Zero-duration marker: retransmit rounds show up on the op's trace.
    obs::SpanStore& spans = obs_.spans();
    const obs::SpanContext marker =
        spans.open_span(op.trace_ctx, obs::Phase::kRetransmit, "retransmit",
                        node_name_, sim_.now());
    spans.close_span(marker, sim_.now(), op.oid,
                     static_cast<std::uint64_t>(attempt));
  }
  for (int i = 0; i < op.contacted; ++i) {
    const std::uint32_t replica =
        op.replica_order[static_cast<std::size_t>(i)];
    if (op.replied.contains(replica)) continue;
    send_request(op_id, op, replica, /*open_span=*/false);
  }
  set_retransmit_deadline(op, attempt + 1);
  return true;
}

void Proxy::fail_op(std::uint64_t op_id, PendingOp& op) {
  unlist_op(op_id);
  ins_.timeouts->inc();
  abort_op_spans(op, sim_.now());
  if (op.trace_ctx.valid()) {
    obs::SpanStore& spans = obs_.spans();
    const obs::SpanContext marker =
        spans.open_span(op.trace_ctx, obs::Phase::kOpFailed, "op_failed",
                        node_name_, sim_.now());
    spans.close_span(marker, sim_.now(), op.oid);
  }
  if (op.kind == PendingOp::Kind::kRead) {
    kv::ClientReadResp resp;
    resp.req_id = op.client_req;
    resp.failed = true;
    net_.send(self_, op.client, resp);
  } else if (op.kind == PendingOp::Kind::kWrite) {
    kv::ClientWriteResp resp;
    resp.req_id = op.client_req;
    resp.failed = true;
    net_.send(self_, op.client, resp);
  }
  // A failed write-back vanishes silently: the repaired value stays
  // readable through the historical-quorum path, so nothing is lost.
  if (op.trace_ctx.valid()) obs_.spans().end_trace(op.trace_ctx, sim_.now());
  // A draining op that times out still drains — otherwise a single lost
  // replica would wedge the NEWQ handshake forever.
  if (op.drains) op_completed_for_drain();
  release_op(op);
}

// ------------------------------------------------------------- span layer

obs::SpanContext Proxy::begin_op_trace(obs::TraceKind kind, const char* name,
                                       Time arrival, Time ready) {
  obs::SpanStore& spans = obs_.spans();
  const obs::SpanContext trace_ctx =
      spans.start_trace(kind, name, node_name_, arrival);
  if (trace_ctx.valid()) {
    const obs::SpanContext queue = spans.open_span(
        trace_ctx, obs::Phase::kProxyQueue, "proxy_queue", node_name_,
        arrival);
    spans.close_span(queue, ready);
  }
  return trace_ctx;
}

void Proxy::note_reply(PendingOp& op, std::uint32_t replica) {
  op.prev_reply_at = op.last_reply_at;
  op.last_reply_at = sim_.now();
  op.last_replica = replica;
  if (const obs::SpanContext* rpc = op.find_rpc_span(replica)) {
    obs_.spans().close_span(*rpc, sim_.now(), op.oid, replica);
    op.drop_rpc_span(replica);
  }
}

void Proxy::on_quorum_satisfied(PendingOp& op) {
  const Time now = sim_.now();
  // Straggler tax: how long the quorum-completing reply trailed the
  // previous one. Zero when a single reply sufficed.
  const Duration excess = (op.received >= 2 && op.prev_reply_at > 0)
                              ? op.last_reply_at - op.prev_reply_at
                              : 0;
  if (!op.repair) {
    ins_.quorum_wait_ns->record(static_cast<double>(now - op.wait_start));
    ins_.straggler_excess_ns->record(static_cast<double>(excess));
  }
  if (op.wait_span.valid()) {
    obs_.spans().close_span(op.wait_span, now, op.last_replica,
                            static_cast<std::uint64_t>(excess));
    op.wait_span = obs::SpanContext{};
  }
}

void Proxy::abort_op_spans(PendingOp& op, Time at) {
  obs::SpanStore& spans = obs_.spans();
  for (const auto& [replica, ctx] : op.rpc_spans) {
    spans.close_span(ctx, at, op.oid, replica);
  }
  op.rpc_spans.clear();
  if (op.wait_span.valid()) {
    spans.close_span(op.wait_span, at);
    op.wait_span = obs::SpanContext{};
  }
}

// --------------------------------------------------------- storage replies

void Proxy::handle_read_reply(const sim::NodeId& from,
                              const kv::StorageReadResp& resp) {
  PendingOp* found = find_op(resp.op_id);
  if (found == nullptr) return;  // stale attempt or already completed
  PendingOp& op = *found;
  if (!op.replied.insert(from.index)) {
    // Network duplicate or retransmit answer from an already-counted
    // replica: a quorum must be `needed` *distinct* replicas.
    ins_.duplicate_replies->inc();
    return;
  }
  ++op.received;
  note_reply(op, from.index);
  if (resp.found &&
      (!op.any_found || resp.version.ts > op.best.ts ||
       (resp.version.ts == op.best.ts && resp.version.cfno > op.best.cfno))) {
    op.best = resp.version;
    op.any_found = true;
  }
  maybe_complete_read(resp.op_id, op);
}

void Proxy::maybe_complete_read(std::uint64_t op_id, PendingOp& op) {
  if (!quorum_met(op)) return;

  if (!op.repair && op.any_found && op.best.cfno < config_.cfno) {
    // Algorithm 4 lines 10-17: the freshest version was created under an
    // older configuration; if the replies in hand are fewer than the largest
    // read-quorum footprint installed since, re-read with that quorum to
    // guarantee intersection with the writing quorum. The guarantee actually
    // in hand is op.received distinct replies — on the explicit path
    // quorum_met() can fire with only footprint_needed <= needed of them —
    // so the skip condition counts replies, not the drawn-quorum size:
    // received >= old_r replies intersect every write quorum of the writing
    // configuration by counting.
    const int old_r = config_.max_read_q_since(op.best.cfno);
    if (old_r > op.received) {
      on_quorum_satisfied(op);  // the first-phase quorum is in hand
      op.repair = true;
      op.needed = old_r;
      // The repair phase is a pure counting read: ANY old_r distinct
      // replicas intersect the writing configuration's write quorums.
      op.footprint_needed = old_r;
      op.drawn.clear();
      ins_.repair_reads->inc();
      // Second wait phase: the historical-quorum re-read (Algorithm 4).
      op.wait_start = sim_.now();
      op.prev_reply_at = 0;
      op.last_reply_at = 0;
      op.wait_span =
          obs_.spans().open_span(op.trace_ctx, obs::Phase::kReadRepair,
                                 "read_repair", node_name_, sim_.now());
      if (op.received < op.needed) {
        contact_replicas(op_id, op, op.needed);
        op.fallback_at[1] = deadline_after(kFallbackTimeout);
        arm_deadline(op.fallback_at[1]);
        return;
      }
      // Fallback already contacted enough replicas; complete below.
    }
  }
  on_quorum_satisfied(op);
  finish_op(op_id, op);
}

void Proxy::handle_write_reply(const sim::NodeId& from,
                               const kv::StorageWriteResp& resp) {
  PendingOp* found = find_op(resp.op_id);
  if (found == nullptr) return;
  PendingOp& op = *found;
  if (!op.replied.insert(from.index)) {
    ins_.duplicate_replies->inc();
    return;
  }
  ++op.received;
  note_reply(op, from.index);
  if (quorum_met(op)) {
    on_quorum_satisfied(op);
    finish_op(resp.op_id, op);
  }
}

void Proxy::handle_nack(const kv::EpochNack& nack) {
  ins_.nacks_received->inc();
  if (nack.config.epno > config_.epno) {
    obs_.spans().instant(obs::Category::kReconfig, "proxy_resync", node_name_,
                         sim_.now(), nack.config.epno, nack.config.cfno);
    adopt_full_config(nack.config);
  }
  if (PendingOp* op = find_op(nack.op_id)) retry_op(nack.op_id, *op);
}

void Proxy::retry_op(std::uint64_t op_id, PendingOp& op) {
  // Re-execute the operation in the (newly learned) epoch. A fresh op-id
  // fences replies belonging to the aborted attempt.
  ins_.op_retries->inc();
  abort_op_spans(op, sim_.now());
  if (op.trace_ctx.valid()) {
    // Zero-duration marker: the NACK aborted the attempt here; launch_op
    // opens a fresh wait span for the re-execution.
    obs::SpanStore& spans = obs_.spans();
    const obs::SpanContext marker =
        spans.open_span(op.trace_ctx, obs::Phase::kNackRetry, "nack_retry",
                        node_name_, sim_.now());
    spans.close_span(marker, sim_.now(), op.oid);
  }
  if (op.kind != PendingOp::Kind::kRead) {
    // Re-tag the version with the configuration it is (re)written under;
    // its timestamp stays the original one.
    op.write_version.cfno = committed_cfno();
  }
  // The same slot, re-keyed: the new id is the largest, so it lists at the
  // tail of the index.
  unlist_op(op_id);
  const std::uint64_t new_id = next_op_id_++;
  list_op(new_id, op);
  launch_op(new_id, op);
}

void Proxy::finish_op(std::uint64_t op_id, PendingOp& op) {
  // Unlisted first, so nothing finds the op by id any more; the slot is
  // released last, after the write-back below took a slot of its own.
  unlist_op(op_id);

  const bool is_read = op.kind == PendingOp::Kind::kRead;
  if (is_read) {
    kv::ClientReadResp resp;
    resp.req_id = op.client_req;
    resp.found = op.any_found;
    if (op.any_found) resp.version = op.best;
    if (!op.any_found) ins_.not_found_reads->inc();
    net_.send(self_, op.client, resp);
  } else if (op.kind == PendingOp::Kind::kWrite) {
    net_.send(self_, op.client,
              kv::ClientWriteResp{op.client_req, op.write_version.ts});
  } else {
    ins_.writebacks->inc();
    // A write-back is a completed write: surface its quorum so the
    // consistency checker's intersection audit knows which replicas now
    // hold the repaired version.
    if (on_complete_) {
      on_complete_(OpRecord{op.oid, true, op.start_time, sim_.now(),
                            self_.index, op.cfno_used, op.replied.members()});
    }
  }

  if (op.kind != PendingOp::Kind::kWriteBack) {
    const std::uint64_t size =
        is_read ? (op.any_found ? op.best.size_bytes : 0)
                : op.write_version.size_bytes;
    note_access(op.oid, !is_read, size);
    const Duration latency = sim_.now() - op.start_time;
    auto* hist = is_read ? ins_.read_latency_ns : ins_.write_latency_ns;
    hist->record(static_cast<double>(latency));
    round_latency_sum_ms_ += to_millis(latency);
    if (on_complete_) {
      on_complete_(OpRecord{op.oid, !is_read, op.start_time, sim_.now(),
                            self_.index, op.cfno_used, op.replied.members()});
    }
  }

  // Repaired reads are written back under the current quorum so future
  // reads need not repeat the historical-quorum read (Algorithm 4 line 27;
  // the write-back is asynchronous w.r.t. the client reply).
  if (is_read && op.repair && op.any_found) {
    Version wb = op.best;
    wb.cfno = committed_cfno();
    // The write-back is its own trace: it outlives the client op and has no
    // queueing phase.
    const obs::SpanContext wb_trace = obs_.spans().start_trace(
        obs::TraceKind::kWriteback, "writeback", node_name_, sim_.now());
    start_write(op.oid, wb, sim::NodeId{}, 0, sim_.now(),
                PendingOp::Kind::kWriteBack, wb_trace);
  }

  if (op.trace_ctx.valid()) obs_.spans().end_trace(op.trace_ctx, sim_.now());
  // Only ops issued before the NEWQ count toward its drain; ops launched
  // under the transition quorum must not release the ACKNEWQ early.
  if (op.drains) op_completed_for_drain();
  release_op(op);
}

// ----------------------------------------------------- reconfiguration path

void Proxy::handle_new_quorum(const sim::NodeId& from,
                              const kv::NewQuorumMsg& msg) {
  if (msg.strategy_version > kv::QuorumStrategy::kWireVersion) {
    // Future strategy encoding this proxy cannot decode: stay silent (no
    // ack) so the install cannot take effect with a half-understood payload;
    // the RM keeps retransmitting and operators see the stalled handshake.
    obs_.spans().instant(obs::Category::kReconfig, "proxy_newq_version_skew",
                         node_name_, sim_.now(), msg.epno,
                         msg.strategy_version);
    return;
  }
  if (msg.cfno <= config_.cfno) {
    if (drain_waiting_ && msg.cfno == drain_cfno_) {
      // RM retransmission of the NEWQ whose drain is still in progress:
      // acking now would defeat the drain, so stay silent — the pending
      // drain acknowledges when it completes.
      return;
    }
    // Already known (learned via a NACK resync or a retransmission); the
    // acknowledgement is still required so the RM can make progress.
    net_.send(self_, from, kv::AckNewQuorumMsg{msg.epno, msg.cfno});
    return;
  }
  ins_.reconfigurations->inc();
  // Drain span, parented under the RM's NEWQ phase span; a stale one (the
  // previous drain was superseded before its ops completed) is closed here.
  if (drain_span_.valid()) obs_.spans().close_span(drain_span_, sim_.now());
  drain_span_ = obs_.spans().open_span(msg.span, obs::Phase::kProxyDrain,
                                       "proxy_drain", node_name_, sim_.now());
  // The payload is the RM's committed configuration with the change pending
  // and its read-quorum history entry (set Q of Algorithm 3/4). It replaces
  // whatever this proxy held, a pending change it never saw committed or a
  // base from before an epoch change it missed included.
  adopt_full_config(msg.config);

  // Drain: acknowledge only when every operation issued under the old
  // quorum has completed (Algorithm 3 line 14). New operations proceed
  // immediately using the transition quorum — the protocol is non-blocking.
  drain_waiting_ = true;
  drain_epno_ = msg.epno;
  drain_cfno_ = msg.cfno;
  drain_reply_to_ = from;
  drain_remaining_ = 0;
  for (const LiveOp& live : live_ops_) {
    live.op->drains = true;
    ++drain_remaining_;
  }
  if (drain_remaining_ == 0) {
    drain_waiting_ = false;
    if (drain_span_.valid()) {
      obs_.spans().close_span(drain_span_, sim_.now(), drain_cfno_);
      drain_span_ = obs::SpanContext{};
    }
    net_.send(self_, from, kv::AckNewQuorumMsg{msg.epno, msg.cfno});
  }
}

void Proxy::op_completed_for_drain() {
  if (!drain_waiting_) return;
  // finish_op only calls us once per op; ops launched after NEWQ have
  // drains=false and were not counted.
  if (--drain_remaining_ <= 0) {
    drain_waiting_ = false;
    if (drain_span_.valid()) {
      obs_.spans().close_span(drain_span_, sim_.now(), drain_cfno_);
      drain_span_ = obs::SpanContext{};
    }
    net_.send(self_, drain_reply_to_,
              kv::AckNewQuorumMsg{drain_epno_, drain_cfno_});
  }
}

void Proxy::handle_confirm(const sim::NodeId& from, const kv::ConfirmMsg& msg) {
  if (msg.span.valid()) {
    // Zero-duration adoption marker under the RM's CONFIRM phase span.
    obs::SpanStore& spans = obs_.spans();
    const obs::SpanContext marker =
        spans.open_span(msg.span, obs::Phase::kProxyConfirm, "proxy_confirm",
                        node_name_, sim_.now());
    spans.close_span(marker, sim_.now(), msg.epno, msg.cfno);
  }
  if (config_.transitional && msg.cfno == config_.cfno) {
    config_.apply(config_.pending);
    config_.transitional = false;
    index_overrides();
    config_.epno = std::max(config_.epno, msg.epno);
  }
  net_.send(self_, from, kv::AckConfirmMsg{msg.epno, msg.cfno});
}

void Proxy::adopt_full_config(const kv::FullConfig& config) {
  config_.epno = std::max(config_.epno, config.epno);
  if (config.cfno >= config_.cfno) {
    // A transitional payload (NEWQ, phase-1 NEWEP) leaves us running with
    // the transition quorums; the pending change commits when the CONFIRM
    // arrives, or a later configuration supersedes it.
    config_.cfno = config.cfno;
    config_.default_q = config.default_q;
    config_.overrides = config.overrides;
    config_.transitional = config.transitional;
    config_.pending = config.pending;
    index_overrides();
  }
  for (const auto& [cfno, max_r] : config.read_q_history) {
    config_.record_read_q(cfno, max_r);
  }
}

// ------------------------------------------------------------- monitoring

void Proxy::note_access(ObjectId oid, bool is_write, std::uint64_t size) {
  ++round_ops_completed_;
  summary_.add(oid);
  auto update = [&](ObjCounters& counters) {
    if (is_write) {
      ++counters.writes;
    } else {
      ++counters.reads;
    }
    if (size > 0) {
      counters.size_sum += static_cast<double>(size);
      ++counters.size_count;
    }
  };
  // handle_new_topk pre-populates monitored_stats_, so a single find()
  // never allocates on this per-operation path.
  if (auto it = monitored_stats_.find(oid); it != monitored_stats_.end()) {
    update(it->second);
  }
  if (!override_index_.contains(oid)) update(tail_);
}

void Proxy::handle_new_round(const sim::NodeId& from,
                             const kv::NewRoundMsg& msg) {
  current_round_ = msg.round;
  round_started_ = sim_.now();
  round_ops_completed_ = 0;
  round_latency_sum_ms_ = 0;
  summary_.clear();
  tail_ = ObjCounters{};
  for (auto& [oid, counters] : monitored_stats_) counters = ObjCounters{};
  const std::uint64_t round = msg.round;
  sim_.after(msg.window, [this, from, round] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kProxy);
    if (crashed_ || current_round_ != round) return;
    send_round_stats(from, round);
  });
}

void Proxy::send_round_stats(const sim::NodeId& am, std::uint64_t round) {
  kv::RoundStatsMsg msg;
  msg.round = round;
  // Candidate hotspots: heaviest keys that are not already individually
  // optimized or under monitoring (they go to the AM for the *next* round).
  for (const topk::TopKEntry& entry : summary_.top(summary_.capacity())) {
    if (override_index_.contains(entry.key) ||
        monitored_stats_.contains(entry.key)) {
      continue;
    }
    msg.topk.push_back(kv::TopKReport{entry.key, entry.count, entry.error});
  }
  for (const auto& [oid, counters] : monitored_stats_) {
    kv::ObjectStats object_stats;
    object_stats.oid = oid;
    object_stats.reads = counters.reads;
    object_stats.writes = counters.writes;
    object_stats.avg_size_bytes =
        counters.size_count
            ? counters.size_sum / static_cast<double>(counters.size_count)
            : 0.0;
    msg.stats_topk.push_back(object_stats);
  }
  msg.stats_tail.reads = tail_.reads;
  msg.stats_tail.writes = tail_.writes;
  msg.stats_tail.avg_size_bytes =
      tail_.size_count
          ? tail_.size_sum / static_cast<double>(tail_.size_count)
          : 0.0;
  const double window_s = to_seconds(sim_.now() - round_started_);
  msg.throughput_ops =
      window_s > 0 ? static_cast<double>(round_ops_completed_) / window_s
                   : 0.0;
  msg.avg_latency_ms =
      round_ops_completed_
          ? round_latency_sum_ms_ / static_cast<double>(round_ops_completed_)
          : 0.0;
  net_.send(self_, am, msg);
}

void Proxy::handle_new_topk(const kv::NewTopKMsg& msg) {
  monitored_stats_.clear();
  for (ObjectId oid : msg.monitored) {
    monitored_stats_.emplace(oid, ObjCounters{});
  }
}

}  // namespace qopt::proxy
