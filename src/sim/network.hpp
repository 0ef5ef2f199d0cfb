// Simulated message-passing network.
//
// Models the paper's system assumptions (Section 3) — reliable channels with
// FIFO ordering per sender/receiver pair on an asynchronous system — plus an
// optional deterministic *link-fault plane* that deliberately departs from
// them (see docs/ROBUSTNESS.md): per-message drop probability, delay spikes,
// duplicate delivery, and one-way or symmetric partitions between node sets.
// Every fault is drawn from the network's seeded RNG (same seed, same
// faults) and counted under its own reason in NetworkStats / the registry.
// With the fault plane disabled (all probabilities zero, no partitions) the
// RNG stream is untouched, so baseline runs stay byte-identical.
//
// The class is a template over the message type so that the kernel stays
// independent of the Q-OPT wire protocol.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/span_store.hpp"
#include "sim/ids.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace qopt::sim {

namespace detail {
/// Detects std::variant message types so the profiler can count deliveries
/// per alternative (non-variant payloads skip the per-type table).
template <typename T>
inline constexpr bool is_variant_v = false;
template <typename... Ts>
inline constexpr bool is_variant_v<std::variant<Ts...>> = true;
}  // namespace detail

/// One-way link latency: base + uniform jitter in [0, jitter).
struct LatencyModel {
  Duration base = microseconds(300);   // LAN one-way incl. kernel/HTTP stack
  Duration jitter = microseconds(500);

  Duration sample(Rng& rng) const {
    const Duration j =
        jitter > 0 ? static_cast<Duration>(rng.next_below(
                         static_cast<std::uint64_t>(jitter)))
                   : 0;
    return base + j;
  }
};

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;  // total = sum of the reasons below
  // Drop reasons (each drop is counted exactly once):
  std::uint64_t dropped_sender_crashed = 0;    // refused at send time
  std::uint64_t dropped_receiver_crashed = 0;  // in flight, receiver dead
  std::uint64_t dropped_unroutable = 0;  // unregistered target / no handler
  std::uint64_t dropped_link_loss = 0;   // fault plane: random loss
  std::uint64_t dropped_partitioned = 0;  // fault plane: blocked direction
  // Fault-plane extras (not drops):
  std::uint64_t duplicates_delivered = 0;  // extra copies handed to receivers
  std::uint64_t delay_spikes = 0;          // messages given the spike extra
};

template <typename M>
class Network {
 public:
  using Handler = std::function<void(const NodeId& from, const M& msg)>;

  Network(Simulator& sim, LatencyModel latency, Rng rng)
      : sim_(sim), latency_(latency), rng_(rng) {}

  /// Registers `id` (re-registering replaces the handler and clears the
  /// crash flag). Registration is the only operation that sizes the dense
  /// node and link tables; send and deliver only index them.
  void register_node(const NodeId& id, Handler handler) {
    if (NodeState* known = find(id)) {
      *known = NodeState{std::move(handler), false, known->ordinal};
      return;
    }
    const auto ordinal = static_cast<std::uint32_t>(nodes_.size());
    // qopt-perf: allow(vector-growth-hot) registration; deques never move
    nodes_.push_back(NodeState{std::move(handler), false, ordinal});
    std::vector<NodeState*>& row = by_kind_[kind_of(id)];
    if (id.index >= row.size()) row.resize(id.index + std::size_t{1});
    row[id.index] = &nodes_.back();
    grow_links(nodes_.size());
    adopt_stray_links();
  }

  /// A crashed node neither sends nor receives; messages already in flight
  /// to it are dropped at delivery time. Pass false to model a recovery
  /// (crash-recovery nodes re-attach with their durable state). A no-op for
  /// an id that was never registered.
  void set_crashed(const NodeId& id, bool crashed = true) {
    if (NodeState* state = find(id)) state->crashed = crashed;
  }

  bool is_crashed(const NodeId& id) const {
    const NodeState* state = find(id);
    return state != nullptr && state->crashed;
  }

  // ------------------------------------------------------ link-fault plane

  /// Per-message drop probability in [0, 1): each non-refused send is lost
  /// with this probability (counted as dropped_link_loss).
  void set_loss(double p) { loss_ = clamp_probability(p); }
  double loss() const noexcept { return loss_; }

  /// Per-message duplication probability in [0, 1): the receiver gets a
  /// second copy, delivered after an independent latency draw (still FIFO
  /// per link).
  void set_duplication(double p) { duplication_ = clamp_probability(p); }

  /// With probability `p`, a message's latency grows by `extra` (tail-delay
  /// bursts; exercises timeout/retransmit paths without losing messages).
  void set_delay_spike(double p, Duration extra) {
    delay_spike_p_ = clamp_probability(p);
    delay_spike_ = extra;
  }

  /// Installs a partition blocking traffic from set `a` to set `b` (and from
  /// `b` to `a` when symmetric). In-flight messages crossing the cut are
  /// dropped at delivery time, like messages to a crashed receiver. Returns
  /// a handle for heal_partition(). Partitions stack; a message is blocked
  /// if any active partition blocks its direction.
  std::uint64_t add_partition(std::vector<NodeId> a, std::vector<NodeId> b,
                              bool symmetric = true) {
    Partition p;
    p.id = next_partition_id_++;
    p.a = std::move(a);
    p.b = std::move(b);
    p.symmetric = symmetric;
    std::sort(p.a.begin(), p.a.end());
    std::sort(p.b.begin(), p.b.end());
    // qopt-perf: allow(vector-growth-hot) fault-script control plane, not per-message
    partitions_.push_back(std::move(p));
    return partitions_.back().id;
  }

  /// Heals one partition; returns false when the handle is unknown
  /// (already healed).
  bool heal_partition(std::uint64_t id) {
    for (auto it = partitions_.begin(); it != partitions_.end(); ++it) {
      if (it->id == id) {
        partitions_.erase(it);
        return true;
      }
    }
    return false;
  }

  void heal_all_partitions() { partitions_.clear(); }
  std::size_t active_partitions() const noexcept { return partitions_.size(); }

  /// True when any active partition blocks from -> to.
  bool partitioned(const NodeId& from, const NodeId& to) const {
    for (const Partition& p : partitions_) {
      if (p.blocks(from, to)) return true;
    }
    return false;
  }

  /// Optional observer invoked for every send (message accounting in
  /// benches/tests; not part of the simulated system).
  using SendTap = std::function<void(const NodeId& from, const NodeId& to)>;
  void set_send_tap(SendTap tap) { tap_ = std::move(tap); }

  /// Mirror message accounting into a shared registry (instruments under
  /// `net.*`) and record kNet drop instants. The internal NetworkStats stays
  /// authoritative so the template works standalone without an obs bundle.
  void bind_observability(obs::Observability* o) {
    obs_ = o;
    if (!obs_) {
      sent_ = delivered_ = drop_sender_ = drop_receiver_ = drop_unroutable_ =
          drop_loss_ = drop_partition_ = duplicated_ = nullptr;
      return;
    }
    auto& reg = obs_->registry();
    sent_ = &reg.counter("net.messages_sent");
    delivered_ = &reg.counter("net.messages_delivered");
    drop_sender_ = &reg.counter("net.dropped.sender_crashed");
    drop_receiver_ = &reg.counter("net.dropped.receiver_crashed");
    drop_unroutable_ = &reg.counter("net.dropped.unroutable");
    drop_loss_ = &reg.counter("net.dropped.link_loss");
    drop_partition_ = &reg.counter("net.dropped.partitioned");
    duplicated_ = &reg.counter("net.duplicated");
  }

  void send(const NodeId& from, const NodeId& to, M msg) {
    ++stats_.messages_sent;
    if (sent_) sent_->inc();
    if (tap_) tap_(from, to);
    const NodeState* sender = find(from);
    if (sender != nullptr && sender->crashed) {
      ++stats_.messages_dropped;
      ++stats_.dropped_sender_crashed;
      if (drop_sender_) drop_sender_->inc();
      trace_drop("drop_sender_crashed", from, to);
      return;
    }
    // Fault-plane decisions happen at send time, in a fixed order, and only
    // when the corresponding fault is enabled — so a disabled plane consumes
    // no RNG and the baseline schedule is unchanged.
    if (loss_ > 0 && rng_.chance(loss_)) {
      ++stats_.messages_dropped;
      ++stats_.dropped_link_loss;
      if (drop_loss_) drop_loss_->inc();
      trace_drop("drop_link_loss", from, to);
      return;
    }
    Duration lat = latency_.sample(rng_);
    if (delay_spike_p_ > 0 && rng_.chance(delay_spike_p_)) {
      ++stats_.delay_spikes;
      lat += delay_spike_;
    }
    if (duplication_ > 0 && rng_.chance(duplication_)) {
      // The duplicate takes its own latency draw: it may arrive well after
      // the original (receivers must be idempotent), though never before it
      // on the same link thanks to the FIFO clamp. Same draws and the same
      // scheduling order as deciding after the original is staged.
      const Duration dup_lat = lat + latency_.sample(rng_);
      schedule_delivery(from, sender, to, msg, lat);
      schedule_delivery(from, sender, to, std::move(msg), dup_lat,
                        /*duplicate=*/true);
      return;
    }
    schedule_delivery(from, sender, to, std::move(msg), lat);
  }

  template <typename Range>
  void broadcast(const NodeId& from, const Range& targets, const M& msg) {
    for (const NodeId& to : targets) send(from, to, msg);
  }

  const NetworkStats& stats() const noexcept { return stats_; }

  /// Messages staged for delivery: sent (duplicates included) and not yet
  /// arrived. Each one holds exactly one pending simulator event.
  std::size_t in_flight() const noexcept { return in_flight_; }
  /// Slots in the in-flight slab: the high-water mark of in_flight().
  std::size_t slab_slots() const noexcept { return slab_.size(); }

 private:
  struct NodeState {
    Handler handler;
    bool crashed = false;
    std::uint32_t ordinal = 0;  // registration order: row/column in links_
  };

  /// FIFO clock of an ordered link with a never-registered endpoint.
  struct StrayLink {
    NodeId from;
    NodeId to;
    Time last = 0;
  };

  struct Partition {
    std::uint64_t id = 0;
    std::vector<NodeId> a;  // sorted
    std::vector<NodeId> b;  // sorted
    bool symmetric = true;

    static bool contains(const std::vector<NodeId>& set, const NodeId& id) {
      return std::binary_search(set.begin(), set.end(), id);
    }
    bool blocks(const NodeId& from, const NodeId& to) const {
      if (contains(a, from) && contains(b, to)) return true;
      return symmetric && contains(b, from) && contains(a, to);
    }
  };

  static double clamp_probability(double p) {
    return std::clamp(p, 0.0, 1.0);
  }

  static std::size_t kind_of(const NodeId& id) noexcept {
    return static_cast<std::size_t>(id.kind);
  }

  /// The registered state of `id`, or null: two bounds checks and a load.
  NodeState* find(const NodeId& id) const noexcept {
    if (kind_of(id) >= kNodeKindCount) return nullptr;
    const std::vector<NodeState*>& row = by_kind_[kind_of(id)];
    return id.index < row.size() ? row[id.index] : nullptr;
  }

  /// Grows the square link-clock matrix to cover `nodes` registered nodes,
  /// doubling its stride so re-layouts stay rare.
  void grow_links(std::size_t nodes) {
    if (nodes <= link_stride_) return;
    const std::size_t stride = std::max<std::size_t>(16, 2 * link_stride_);
    std::vector<Time> grown(stride * stride, Time{0});
    for (std::size_t a = 0; a < link_stride_; ++a) {
      std::copy_n(links_.data() + a * link_stride_, link_stride_,
                  grown.data() + a * stride);
    }
    links_ = std::move(grown);
    link_stride_ = stride;
  }

  /// Moves the clocks of stray links whose endpoints are now both
  /// registered into the matrix, so FIFO order carries across registration.
  void adopt_stray_links() {
    std::erase_if(stray_links_, [this](const StrayLink& link) {
      const NodeState* a = find(link.from);
      const NodeState* b = find(link.to);
      if (a == nullptr || b == nullptr) return false;
      links_[a->ordinal * link_stride_ + b->ordinal] = link.last;
      return true;
    });
  }

  /// The last delivery instant on from -> to. Links between registered
  /// nodes live in the dense matrix; a link with a never-registered
  /// endpoint (test harnesses send from bare ids) takes the cold, sorted
  /// stray table instead, so the FIFO clamp still holds per ordered pair.
  Time& link_clock(const NodeId& from, const NodeState* sender,
                   const NodeId& to) {
    if (const NodeState* receiver = find(to);
        sender != nullptr && receiver != nullptr) {
      return links_[sender->ordinal * link_stride_ + receiver->ordinal];
    }
    const auto less = [](const StrayLink& link,
                         const std::pair<NodeId, NodeId>& key) {
      return std::pair{link.from, link.to} < key;
    };
    const std::pair<NodeId, NodeId> key{from, to};
    auto it = std::lower_bound(stray_links_.begin(), stray_links_.end(), key,
                               less);
    if (it == stray_links_.end() || it->from != from || it->to != to) {
      it = stray_links_.insert(it, StrayLink{from, to, 0});
    }
    return it->last;
  }

  /// An in-flight message, staged in the slab until its delivery event.
  /// `next_free` threads the free list through released slots.
  struct InFlight {
    NodeId from;
    NodeId to;
    bool duplicate = false;
    std::uint32_t next_free = kNoSlot;
    M msg;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Stages a message in a free slab slot (growing the slab when none is
  /// free) and returns the slot index.
  template <typename Msg>
  std::uint32_t stage(const NodeId& from, const NodeId& to, Msg&& msg,
                      bool duplicate) {
    std::uint32_t slot = free_head_;
    if (slot == kNoSlot) {
      // Geometric growth, reserved explicitly: the slab only grows while
      // the number of messages in flight reaches a new high-water mark.
      if (slab_.size() == slab_.capacity()) {
        slab_.reserve(std::max<std::size_t>(64, 2 * slab_.size()));
      }
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
    } else {
      free_head_ = slab_[slot].next_free;
    }
    ++in_flight_;
    InFlight& f = slab_[slot];
    f.from = from;
    f.to = to;
    f.duplicate = duplicate;
    f.next_free = kNoSlot;
    f.msg = std::forward<Msg>(msg);
    return slot;
  }

  /// Delivery event for `slot`: moves the message out and frees the slot
  /// before the handler runs, because handlers send and a send may grow
  /// (reallocate) the slab.
  void deliver_staged(std::uint32_t slot) {
    InFlight& f = slab_[slot];
    const NodeId from = f.from;
    const NodeId to = f.to;
    const bool duplicate = f.duplicate;
    const M msg = std::move(f.msg);
    f.next_free = free_head_;
    free_head_ = slot;
    --in_flight_;
    deliver(from, to, msg, duplicate);
  }

  template <typename Msg>
  void schedule_delivery(const NodeId& from, const NodeState* sender,
                         const NodeId& to, Msg&& msg, Duration lat,
                         bool duplicate = false) {
    // FIFO per ordered pair: clamp the delivery instant to strictly after
    // the previous delivery on this link.
    Time deliver_at = sim_.now() + lat;
    Time& last = link_clock(from, sender, to);
    if (deliver_at <= last) {
      deliver_at = last + 1;
#if QOPT_PROFILE_ENABLED
      // Clamp churn feeds the queue-telemetry section: heavy clamping means
      // the latency model is finer than the link's message rate.
      if (obs_ && obs_->profiler().enabled()) {
        obs_->profiler().note_fifo_clamp();
      }
#endif
    }
    last = deliver_at;
    const std::uint32_t slot =
        stage(from, to, std::forward<Msg>(msg), duplicate);
    sim_.at(deliver_at, [this, slot] { deliver_staged(slot); });
  }

  void deliver(const NodeId& from, const NodeId& to, const M& msg,
               bool duplicate) {
#if QOPT_PROFILE_ENABLED
    // Claim the event for the network layer; the component handler invoked
    // below overrides the claim with its own subsystem (last claim wins),
    // leaving kNet charged for drops and the delivery machinery itself.
    obs::EngineProfiler* prof =
        obs_ != nullptr ? &obs_->profiler() : nullptr;
    if (prof != nullptr && prof->enabled()) {
      prof->enter(obs::ProfSubsystem::kNet);
    } else {
      prof = nullptr;
    }
#endif
    // A registered NodeState never moves (nodes_ is a deque), so the
    // handler below runs in place even if it registers further nodes.
    NodeState* receiver = find(to);
    if (receiver == nullptr || !receiver->handler) {
      ++stats_.messages_dropped;
      ++stats_.dropped_unroutable;
      if (drop_unroutable_) drop_unroutable_->inc();
      trace_drop("drop_unroutable", from, to);
      return;
    }
    if (receiver->crashed) {
      ++stats_.messages_dropped;
      ++stats_.dropped_receiver_crashed;
      if (drop_receiver_) drop_receiver_->inc();
      trace_drop("drop_receiver_crashed", from, to);
      return;
    }
    // Partitions cut in-flight traffic too, so the check runs at delivery
    // time: a message sent before the partition and arriving during it is
    // lost, exactly like one addressed to a crashed receiver.
    if (!partitions_.empty() && partitioned(from, to)) {
      ++stats_.messages_dropped;
      ++stats_.dropped_partitioned;
      if (drop_partition_) drop_partition_->inc();
      trace_drop("drop_partitioned", from, to);
      return;
    }
    ++stats_.messages_delivered;
    if (delivered_) delivered_->inc();
    if (duplicate) {
      ++stats_.duplicates_delivered;
      if (duplicated_) duplicated_->inc();
    }
#if QOPT_PROFILE_ENABLED
    if (prof != nullptr) {
      if constexpr (detail::is_variant_v<M>) {
        prof->count_message(msg.index());
      }
    }
#endif
    receiver->handler(from, msg);
  }

  void trace_drop(const char* name, const NodeId& from, const NodeId& to) {
    // Checked here as well: the node names are built only when recorded.
    if (!obs_ || !obs_->spans().active()) return;
    obs_->spans().instant(obs::Category::kNet, name, to_string(from),
                          sim_.now(), 0, 0, to_string(to));
  }

  Simulator& sim_;
  LatencyModel latency_;
  Rng rng_;
  // Registered nodes in registration order, and a per-kind table indexed
  // by NodeId::index that points into it (null: never registered).
  std::deque<NodeState> nodes_;
  std::array<std::vector<NodeState*>, kNodeKindCount> by_kind_{};
  // FIFO clamp: last delivery instant per ordered pair of registered
  // nodes, a link_stride_ x link_stride_ matrix indexed by ordinal.
  std::vector<Time> links_;
  std::size_t link_stride_ = 0;
  std::vector<StrayLink> stray_links_;  // sorted by (from, to)
  // In-flight message slab: slots are reused through the free list, so the
  // steady state stages every message without allocating.
  std::vector<InFlight> slab_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t in_flight_ = 0;  // occupied slab slots
  NetworkStats stats_;
  SendTap tap_;
  double loss_ = 0.0;
  double duplication_ = 0.0;
  double delay_spike_p_ = 0.0;
  Duration delay_spike_ = 0;
  // Active partitions, in install order (decision paths iterate this, so it
  // must be an ordered container).
  std::vector<Partition> partitions_;
  std::uint64_t next_partition_id_ = 1;
  obs::Observability* obs_ = nullptr;
  obs::Counter* sent_ = nullptr;
  obs::Counter* delivered_ = nullptr;
  obs::Counter* drop_sender_ = nullptr;
  obs::Counter* drop_receiver_ = nullptr;
  obs::Counter* drop_unroutable_ = nullptr;
  obs::Counter* drop_loss_ = nullptr;
  obs::Counter* drop_partition_ = nullptr;
  obs::Counter* duplicated_ = nullptr;
};

}  // namespace qopt::sim
