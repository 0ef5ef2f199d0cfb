#include "kv/service_model.hpp"
#include "kv/quorum.hpp"
#include "kv/storage_node.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "obs/span_store.hpp"
#include "sim/ids.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

#include <compare>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace qopt::kv {

StorageNode::StorageNode(sim::Simulator& sim, Net& net, sim::NodeId self,
                         const ServiceTimes& service, std::size_t servers,
                         Rng rng, obs::Observability& obs)
    : sim_(sim),
      net_(net),
      self_(self),
      service_(service),
      pool_(servers),
      rng_(rng),
      obs_(obs) {
  node_name_ = sim::to_string(self_);
  auto& reg = obs_.registry();
  const std::uint32_t i = self_.index;
  ins_.reads_served = &reg.counter(obs::instrument_name("storage", i,
                                                        "reads_served"));
  ins_.writes_applied =
      &reg.counter(obs::instrument_name("storage", i, "writes_applied"));
  ins_.writes_discarded =
      &reg.counter(obs::instrument_name("storage", i, "writes_discarded"));
  ins_.nacks_sent = &reg.counter(obs::instrument_name("storage", i,
                                                      "nacks_sent"));
  ins_.epoch_changes =
      &reg.counter(obs::instrument_name("storage", i, "epoch_changes"));
  ins_.dup_writes_ignored =
      &reg.counter(obs::instrument_name("storage", i, "dup_writes_ignored"));
  ins_.restarts = &reg.counter(obs::instrument_name("storage", i,
                                                    "restarts"));
}

void StorageNode::on_message(const sim::NodeId& from, const Message& msg) {
  QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kStorage);
  if (crashed_) return;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, StorageReadReq>) {
          handle_read(from, m);
        } else if constexpr (std::is_same_v<T, StorageWriteReq>) {
          handle_write(from, m);
        } else if constexpr (std::is_same_v<T, NewEpochMsg>) {
          handle_new_epoch(from, m);
        }
        // Other message kinds are not addressed to storage nodes.
      },
      msg);
}

void StorageNode::crash() {
  crashed_ = true;
  ++incarnation_;  // invalidates already-scheduled service completions
  net_.set_crashed(self_);
  // The dedup table is volatile: a retransmit arriving after restart is
  // re-applied, which the freshest-wins rule makes safe.
  for (AppliedWrites& window : applied_writes_) window.clear();
}

void StorageNode::restart() {
  if (!crashed_) return;
  crashed_ = false;
  net_.set_crashed(self_, false);
  ins_.restarts->inc();
}

void PackedVersion::field_overflow(const char* field) {
  throw std::length_error(std::string("kv::PackedVersion: ") + field +
                          " is past its packed field");
}

namespace {

/// The freshest-wins rule on one stored record: takes `incoming` when its
/// timestamp is newer, takes its cfno tag when the same write arrives under
/// a newer configuration (the read-repair write-back of Algorithm 4, so
/// future reads need not repeat the historical-quorum read). Returns false
/// when it discards `incoming`.
bool freshest_wins(PackedVersion& stored, const PackedVersion& incoming) {
  const std::strong_ordering order = incoming.ts_order(stored);
  if (order > 0) {
    stored = incoming;
    return true;
  }
  if (order == 0 && incoming.cfno() > stored.cfno()) {
    stored.take_cfno(incoming);
    return true;
  }
  return false;
}

}  // namespace

void StorageNode::load(ObjectId first, std::uint64_t size_bytes,
                       std::vector<bool> held) {
  // A range past the largest oid would wrap to oids 0, 1, ..., which
  // BulkLoad::holds never answers for.
  if (!held.empty() && held.size() - 1 > ~ObjectId{0} - first) {
    throw std::length_error("kv::StorageNode::load: range runs past the "
                            "largest oid");
  }
  BulkLoad added{first, size_bytes, std::move(held)};
  // The per-object path's check: throws std::length_error for a size past
  // its packed field before anything is installed.
  PackedVersion::pack(added.version_of(first));
  // A load replaces what the node held for its objects, written or loaded.
  // A load before any write (the usual set-up) has nothing to replace.
  if (!store_.empty()) {
    for (std::uint64_t i = 0; i < added.held.size(); ++i) {
      if (added.held[i]) store_.erase(first + i);
    }
  }
  loads_.push_back(std::move(added));
}

const StorageNode::BulkLoad* StorageNode::newest_load_holding(
    ObjectId oid) const noexcept {
  for (auto load = loads_.rbegin(); load != loads_.rend(); ++load) {
    if (load->holds(oid)) return &*load;
  }
  return nullptr;
}

std::optional<PackedVersion> StorageNode::stored_version(ObjectId oid) const {
  if (const PackedVersion* written = store_.find(oid)) return *written;
  if (const BulkLoad* load = newest_load_holding(oid)) {
    return PackedVersion::pack(load->version_of(oid));
  }
  return std::nullopt;
}

std::optional<Version> StorageNode::peek(ObjectId oid) const {
  const std::optional<PackedVersion> stored = stored_version(oid);
  if (!stored) return std::nullopt;
  return stored->unpack();
}

std::size_t StorageNode::object_count() const {
  std::size_t count = 0;
  for_each_version([&count](ObjectId, const Version&) { ++count; });
  return count;
}

void StorageNode::send_nack(const sim::NodeId& to, std::uint64_t op_id) {
  ins_.nacks_sent->inc();
  net_.send(self_, to, EpochNack{op_id, config_});
}

void StorageNode::handle_read(const sim::NodeId& from,
                              const StorageReadReq& req) {
  if (req.epno < config_.epno) {
    // Operation from a stale epoch: reject without serving (Alg. 6 line 13).
    send_nack(from, req.op_id);
    return;
  }
  const std::optional<PackedVersion> current = stored_version(req.oid);
  const std::uint64_t size = current ? current->size_bytes() : 0;
  const Time done = pool_.submit(sim_.now(), service_.read_time(size, rng_));
  if (req.span.valid()) {
    // Service interval is known up front, so the span opens and closes here
    // (no capture in the completion lambda): queueing + disk time attributed
    // to the originating op's trace.
    obs::SpanStore& spans = obs_.spans();
    const obs::SpanContext s =
        spans.open_span(req.span, obs::Phase::kStorageRead, "storage_read",
                        node_name_, sim_.now());
    spans.close_span(s, done, req.oid, self_.index);
  }
  const ObjectId oid = req.oid;
  const std::uint64_t op_id = req.op_id;
  sim_.at(done, [this, from, oid, op_id, inc = incarnation_] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kStorage);
    if (crashed_ || inc != incarnation_) return;
    ins_.reads_served->inc();
    StorageReadResp resp;
    resp.op_id = op_id;
    if (const std::optional<PackedVersion> stored = stored_version(oid)) {
      resp.found = true;
      resp.version = stored->unpack();  // cfno piggybacked inside the version
    }
    net_.send(self_, from, resp);
  });
}

StorageNode::AppliedWrites& StorageNode::applied_writes_for(
    std::uint32_t index) {
  // Grows only on the first write from a new proxy; afterwards the lookup
  // is a plain vector access.
  if (index >= applied_writes_.size()) applied_writes_.resize(index + 1);
  return applied_writes_[index];
}

std::size_t StorageNode::AppliedWrites::lower_bound(
    std::uint64_t op_id) const noexcept {
  std::size_t lo = 0;
  std::size_t hi = size_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (at(mid) < op_id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool StorageNode::AppliedWrites::contains(std::uint64_t op_id) const noexcept {
  // A new write carries an id above every applied one: one comparison.
  if (size_ == 0 || op_id > at(size_ - 1)) return false;
  const std::size_t pos = lower_bound(op_id);
  return pos < size_ && at(pos) == op_id;
}

void StorageNode::AppliedWrites::insert(std::uint64_t op_id) {
  if (ring_.empty()) ring_.resize(kDedupWindow);
  std::size_t pos =
      size_ == 0 || op_id > at(size_ - 1) ? size_ : lower_bound(op_id);
  if (pos < size_ && at(pos) == op_id) return;  // already held
  if (size_ == kDedupWindow) {
    // Full: keep the kDedupWindow largest ids. An id below all of them is
    // evicted as soon as it is inserted; otherwise the smallest goes.
    if (pos == 0) return;
    head_ = (head_ + 1) & kMask;
    --size_;
    --pos;
  }
  for (std::size_t i = size_; i > pos; --i) {
    ring_[(head_ + i) & kMask] = ring_[(head_ + i - 1) & kMask];
  }
  ring_[(head_ + pos) & kMask] = op_id;
  ++size_;
}

void StorageNode::handle_write(const sim::NodeId& from,
                               const StorageWriteReq& req) {
  if (req.epno < config_.epno) {
    send_nack(from, req.op_id);
    return;
  }
  // At-least-once dedup (explicit, beyond timestamp idempotence): a write
  // whose apply already completed — retransmitted by the proxy or duplicated
  // by the network — is acknowledged again without re-paying service time.
  // Only *applied* ids are in the table, so the fast ack never races the
  // original apply; a copy arriving while the first is still queued goes
  // through the normal path and is discarded by the timestamp rule.
  auto& seen = applied_writes_for(from.index);
  if (seen.contains(req.op_id)) {
    ins_.dup_writes_ignored->inc();
    net_.send(self_, from, StorageWriteResp{req.op_id});
    return;
  }
  const Time done = pool_.submit(
      sim_.now(), service_.write_time(req.version.size_bytes, rng_));
  if (req.span.valid()) {
    obs::SpanStore& spans = obs_.spans();
    const obs::SpanContext s =
        spans.open_span(req.span, obs::Phase::kStorageWrite, "storage_write",
                        node_name_, sim_.now());
    spans.close_span(s, done, req.oid, self_.index);
  }
  // The completion captures only what it applies; the span closed above.
  const ObjectId oid = req.oid;
  const std::uint64_t op_id = req.op_id;
  const Version& version = req.version;
  sim_.at(done, [this, from, oid, op_id, version, inc = incarnation_] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kStorage);
    if (crashed_ || inc != incarnation_) return;
    // Apply-or-discard at service completion: an older write is discarded
    // but still acknowledged (Section 2.1).
    if (apply_freshest(oid, version)) {
      ins_.writes_applied->inc();
    } else {
      ins_.writes_discarded->inc();
    }
    // Bounded window; proxy op-ids grow monotonically, so evicting the
    // smallest ids loses only the oldest (least likely to re-arrive) ones.
    applied_writes_for(from.index).insert(op_id);
    net_.send(self_, from, StorageWriteResp{op_id});
  });
}

Time StorageNode::replicate_in(ObjectId oid, const Version& version) {
  if (crashed_) return sim_.now();
  const Time done =
      pool_.submit(sim_.now(), service_.write_time(version.size_bytes, rng_));
  sim_.at(done, [this, oid, version, inc = incarnation_] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kStorage);
    if (crashed_ || inc != incarnation_) return;
    apply_freshest(oid, version);
  });
  return done;
}

bool StorageNode::apply_freshest(ObjectId oid, const Version& version) {
  const PackedVersion incoming = PackedVersion::pack(version);
  if (PackedVersion* written = store_.find(oid)) {
    return freshest_wins(*written, incoming);
  }
  if (const BulkLoad* load = newest_load_holding(oid)) {
    // A loaded version enters the table only when the write supersedes it
    // or refreshes its tag; a discarded write stores nothing.
    PackedVersion loaded = PackedVersion::pack(load->version_of(oid));
    if (!freshest_wins(loaded, incoming)) return false;
    store_.try_emplace(oid, loaded);
    return true;
  }
  store_.try_emplace(oid, incoming);
  return true;
}

void StorageNode::handle_new_epoch(const sim::NodeId& from,
                                   const NewEpochMsg& msg) {
  // Future strategy encoding this node cannot decode: neither adopt nor ack
  // (acking would count toward the epoch quorum with a half-understood
  // configuration); the RM keeps retransmitting.
  if (msg.strategy_version > QuorumStrategy::kWireVersion) return;
  // Alg. 6 lines 5-10: adopt any epoch at least as recent as ours and ack.
  if (msg.config.epno >= config_.epno) {
    if (msg.config.epno > config_.epno) {
      ins_.epoch_changes->inc();
      if (msg.span.valid()) {
        // Zero-duration adoption marker under the RM's epoch-change span.
        obs::SpanStore& spans = obs_.spans();
        const obs::SpanContext s =
            spans.open_span(msg.span, obs::Phase::kStorageEpoch,
                            "storage_epoch", node_name_, sim_.now());
        spans.close_span(s, sim_.now(), msg.config.epno, msg.config.cfno);
      }
    }
    config_ = msg.config;
  }
  net_.send(self_, from, AckNewEpochMsg{msg.config.epno});
}

}  // namespace qopt::kv
