#include "core/cluster.hpp"
#include "core/nemesis.hpp"
#include "kv/quorum.hpp"
#include "kv/types.hpp"
#include "sim/ids.hpp"
#include "util/time.hpp"

#include <algorithm>
#include <array>

namespace qopt {

Nemesis::Nemesis(Cluster& cluster, const NemesisOptions& options)
    : cluster_(cluster), options_(options), rng_(options.seed ^ 0xBADC0DE) {
  auto& reg = cluster_.obs().registry();
  ins_.reconfigurations = &reg.counter("nemesis.reconfigurations");
  ins_.per_object_reconfigurations =
      &reg.counter("nemesis.per_object_reconfigurations");
  ins_.false_suspicions = &reg.counter("nemesis.false_suspicions");
  ins_.proxy_crashes = &reg.counter("nemesis.proxy_crashes");
  ins_.storage_crashes = &reg.counter("nemesis.storage_crashes");
  ins_.partitions = &reg.counter("nemesis.partitions");
  ins_.heals = &reg.counter("nemesis.heals");
  ins_.loss_bursts = &reg.counter("nemesis.loss_bursts");
  ins_.restarts = &reg.counter("nemesis.restarts");
  ins_.rm_crashes = &reg.counter("nemesis.rm_crashes");
  ins_.rm_partitions = &reg.counter("nemesis.rm_partitions");
}

void Nemesis::start() {
  if (running_) return;
  running_ = true;
  schedule_next();
}

void Nemesis::schedule_next() {
  const auto delay = static_cast<Duration>(
      rng_.exponential(static_cast<double>(options_.mean_interval)));
  cluster_.simulator().after(std::max<Duration>(delay, microseconds(1)),
                             [this] {
                               if (!running_) return;
                               fire();
                               schedule_next();
                             });
}

int Nemesis::pick_write_quorum() {
  // Liveness discipline: when storage crashes are enabled, every quorum the
  // nemesis installs (now or later) stays servable even after the allowed
  // number of crashes — W and R = N - W + 1 both <= N - max_storage_crashes.
  const int n = cluster_.config().replication;
  const int margin = options_.crash_storage > 0
                         ? static_cast<int>(options_.max_storage_crashes)
                         : 0;
  const int lo = std::min(n, 1 + margin);
  const int hi = std::max(lo, n - margin);
  return lo + static_cast<int>(rng_.next_below(
                  static_cast<std::uint64_t>(hi - lo + 1)));
}

void Nemesis::fire() {
  struct Choice {
    double weight;
    int kind;
  };
  const bool can_crash_proxy =
      proxies_crashed_ < options_.max_proxy_crashes &&
      proxies_crashed_ + 1 < cluster_.config().num_proxies;
  // A storage crash is only safe when every installed quorum (default and
  // overrides, which bounds the transition quorums of any in-flight
  // reconfiguration too) remains servable by each object's survivors.
  // An isolated (partitioned) storage node is as unavailable as a crashed
  // one for the duration of the partition, so it eats into the same margin.
  const int storage_unavailable =
      static_cast<int>(storage_crashed_) + (partition_active_ ? 1 : 0);
  const bool can_crash_storage =
      storage_crashed_ < options_.max_storage_crashes &&
      cluster_.rm().config().max_footprint() <=
          cluster_.config().replication - storage_unavailable - 1;
  // Isolating a storage node is a temporary outage, so it obeys the same
  // quorum-servability margin as a crash; one partition at a time keeps the
  // isolated-set bookkeeping (and the margin math) trivial.
  const bool can_partition =
      !partition_active_ &&
      cluster_.rm().config().max_footprint() <=
          cluster_.config().replication - storage_unavailable - 1;
  const bool can_restart = proxies_crashed_ > 0 || storage_crashed_ > 0;
  // An RM fault needs at least 3 RM replicas (one outage leaves the SMR
  // group a live majority); one outage at a time keeps that invariant
  // under the auto-heal that follows every injection.
  const bool can_fault_rm =
      !rm_fault_active_ && cluster_.config().rm_replicas >= 3;
  // New kinds are appended with zero default weights: a legacy options
  // struct draws the exact same event sequence as before they existed.
  const std::array<Choice, 10> choices = {{
      {options_.reconfigure, 0},
      {options_.per_object_reconfigure, 1},
      {options_.false_suspicion, 2},
      {can_crash_proxy ? options_.crash_proxy : 0.0, 3},
      {can_crash_storage ? options_.crash_storage : 0.0, 4},
      {can_partition ? options_.partition : 0.0, 5},
      {burst_active_ ? 0.0 : options_.loss_burst, 6},
      {can_restart ? options_.restart : 0.0, 7},
      {can_fault_rm ? options_.rm_crash : 0.0, 8},
      {can_fault_rm ? options_.rm_partition : 0.0, 9},
  }};
  double total = 0;
  for (const Choice& choice : choices) total += choice.weight;
  if (total <= 0) return;
  double pick = rng_.next_double() * total;
  int kind = 0;
  for (const Choice& choice : choices) {
    pick -= choice.weight;
    if (pick <= 0) {
      kind = choice.kind;
      break;
    }
  }

  const int n = cluster_.config().replication;
  switch (kind) {
    case 0: {
      ins_.reconfigurations->inc();
      const int w = pick_write_quorum();
      cluster_.reconfigure(kv::QuorumConfig::of(n - w + 1, w));
      break;
    }
    case 1: {
      ins_.per_object_reconfigurations->inc();
      std::vector<std::pair<kv::ObjectId, kv::QuorumConfig>> overrides;
      const std::uint64_t count = 1 + rng_.next_below(4);
      for (std::uint64_t i = 0; i < count; ++i) {
        const int w = pick_write_quorum();
        overrides.emplace_back(rng_.next_below(1000),
                               kv::QuorumConfig::of(n - w + 1, w));
      }
      cluster_.reconfigure_objects(std::move(overrides));
      break;
    }
    case 2: {
      ins_.false_suspicions->inc();
      const auto victim = static_cast<std::uint32_t>(
          rng_.next_below(cluster_.config().num_proxies));
      if (!cluster_.proxy(victim).crashed()) {
        cluster_.inject_false_suspicion(
            victim, 1 + static_cast<Duration>(rng_.next_below(
                        static_cast<std::uint64_t>(options_.max_suspicion))));
      }
      break;
    }
    case 3: {
      // Crash a not-yet-crashed proxy (linear probe from a random start).
      const std::uint32_t proxies = cluster_.config().num_proxies;
      auto victim =
          static_cast<std::uint32_t>(rng_.next_below(proxies));
      for (std::uint32_t i = 0; i < proxies; ++i) {
        const std::uint32_t candidate = (victim + i) % proxies;
        if (!cluster_.proxy(candidate).crashed()) {
          ins_.proxy_crashes->inc();
          ++proxies_crashed_;
          cluster_.crash_proxy(candidate);
          break;
        }
      }
      break;
    }
    case 4: {
      const std::uint32_t storage = cluster_.config().num_storage;
      auto victim =
          static_cast<std::uint32_t>(rng_.next_below(storage));
      for (std::uint32_t i = 0; i < storage; ++i) {
        const std::uint32_t candidate = (victim + i) % storage;
        if (!cluster_.storage(candidate).crashed()) {
          ins_.storage_crashes->inc();
          ++storage_crashed_;
          cluster_.crash_storage(candidate);
          break;
        }
      }
      break;
    }
    case 5: {
      // Isolate a live storage node from the rest of the cluster; heal
      // after a bounded delay. One partition at a time (gated above).
      const std::uint32_t storage = cluster_.config().num_storage;
      auto victim = static_cast<std::uint32_t>(rng_.next_below(storage));
      bool found = false;
      for (std::uint32_t i = 0; i < storage; ++i) {
        const std::uint32_t candidate = (victim + i) % storage;
        if (!cluster_.storage(candidate).crashed()) {
          victim = candidate;
          found = true;
          break;
        }
      }
      if (!found) break;
      ins_.partitions->inc();
      partition_active_ = true;
      const std::uint64_t id =
          cluster_.isolate({sim::storage_id(victim)}, /*symmetric=*/true);
      const auto hold = 1 + static_cast<Duration>(rng_.next_below(
                            static_cast<std::uint64_t>(
                                options_.max_partition)));
      cluster_.simulator().after(hold, [this, id] {
        cluster_.heal_partition(id);
        partition_active_ = false;
        ins_.heals->inc();
      });
      break;
    }
    case 6: {
      ins_.loss_bursts->inc();
      burst_active_ = true;
      cluster_.network().set_loss(options_.burst_loss);
      const auto hold = 1 + static_cast<Duration>(rng_.next_below(
                            static_cast<std::uint64_t>(
                                options_.max_loss_burst)));
      cluster_.simulator().after(hold, [this] {
        // Back to the configured baseline, not necessarily zero.
        cluster_.network().set_loss(cluster_.config().net_loss);
        burst_active_ = false;
      });
      break;
    }
    case 7: {
      // Recover the first crashed node (proxies first): exercises the
      // crash-recovery path — durable state, NACK resync, FD recovery.
      ins_.restarts->inc();
      bool restarted = false;
      for (std::uint32_t i = 0; i < cluster_.config().num_proxies; ++i) {
        if (cluster_.proxy(i).crashed()) {
          cluster_.restart_proxy(i);
          --proxies_crashed_;
          restarted = true;
          break;
        }
      }
      if (!restarted) {
        for (std::uint32_t i = 0; i < cluster_.config().num_storage; ++i) {
          if (cluster_.storage(i).crashed()) {
            cluster_.restart_storage(i);
            --storage_crashed_;
            break;
          }
        }
      }
      break;
    }
    case 8: {
      // Crash the current RM leader mid-whatever-it-is-doing; the next
      // caught-up replica resumes any in-flight round from the replicated
      // log. Restart after a bounded hold so the group regains full size.
      ins_.rm_crashes->inc();
      rm_fault_active_ = true;
      const std::uint32_t victim = cluster_.replicated_rm().leader();
      cluster_.crash_rm(victim);
      const auto hold = 1 + static_cast<Duration>(rng_.next_below(
                            static_cast<std::uint64_t>(
                                options_.max_rm_outage)));
      cluster_.simulator().after(hold, [this, victim] {
        cluster_.restart_rm(victim);
        rm_fault_active_ = false;
      });
      break;
    }
    case 9: {
      // Isolate the RM leader on both planes (kv and the replication
      // network): it keeps driving into the void until the group deposes
      // it, exercising the stale-leader guards. Heal after a bounded hold.
      ins_.rm_partitions->inc();
      rm_fault_active_ = true;
      const std::uint32_t victim = cluster_.replicated_rm().leader();
      const std::uint64_t handle = cluster_.isolate_rm(victim);
      const auto hold = 1 + static_cast<Duration>(rng_.next_below(
                            static_cast<std::uint64_t>(
                                options_.max_rm_outage)));
      cluster_.simulator().after(hold, [this, handle] {
        cluster_.heal_rm_partition(handle);
        rm_fault_active_ = false;
      });
      break;
    }
    default:
      break;
  }
}

}  // namespace qopt
