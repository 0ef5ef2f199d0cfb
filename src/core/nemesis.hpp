// Nemesis — a seeded chaos schedule for a running cluster.
//
// Repeatedly injects randomized events (reconfigurations, false suspicions,
// proxy/storage crashes) at exponentially distributed intervals, within
// bounds that preserve the protocol's liveness assumptions (enough correct
// storage replicas for every quorum it installs). Property tests drive dense
// schedules through it and assert the consistency checker stays clean; the
// CLI exposes it via --nemesis.
#pragma once

#include <cstdint>

#include "core/cluster.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace qopt {

struct NemesisOptions {
  Duration mean_interval = milliseconds(500);
  // Relative event weights (0 disables the event kind).
  double reconfigure = 4.0;
  double per_object_reconfigure = 2.0;
  double false_suspicion = 2.0;
  double crash_proxy = 0.5;
  double crash_storage = 0.5;
  // Link-fault events (all default 0 so legacy schedules draw the same
  // event sequence; enable explicitly or via --nemesis-partitions).
  double partition = 0.0;   // isolate one storage node, heal later
  double loss_burst = 0.0;  // temporarily raise the link-loss rate
  double restart = 0.0;     // recover a previously crashed node
  // RM-failover events (default 0; need rm_replicas >= 3 so a single
  // fault leaves the SMR group a live majority).
  double rm_crash = 0.0;      // crash the RM leader, restart after a hold
  double rm_partition = 0.0;  // isolate the RM leader, heal after a hold
  // Bounds preserving liveness: crashed storage shrinks the quorum range
  // the nemesis installs (W and R both kept <= N - crashed_storage).
  std::uint32_t max_proxy_crashes = 1;
  std::uint32_t max_storage_crashes = 1;
  Duration max_suspicion = seconds(2);
  Duration max_partition = seconds(2);
  Duration max_loss_burst = seconds(1);
  Duration max_rm_outage = seconds(2);  // RM crash/partition hold bound
  double burst_loss = 0.05;  // loss rate during a burst
  std::uint64_t seed = 1;
};

class Nemesis {
 public:
  Nemesis(Cluster& cluster, const NemesisOptions& options);

  void start();
  void stop() noexcept { running_ = false; }

 private:
  void schedule_next();
  void fire();
  int pick_write_quorum();

  Cluster& cluster_;
  NemesisOptions options_;
  Rng rng_;
  bool running_ = false;
  std::uint32_t proxies_crashed_ = 0;
  std::uint32_t storage_crashed_ = 0;
  bool partition_active_ = false;
  bool burst_active_ = false;
  bool rm_fault_active_ = false;  // one RM outage at a time keeps a majority

  // Event counts live in the cluster's metric registry (`nemesis.*`), so
  // chaos schedules appear in RunReport snapshots alongside everything else.
  // `heals` trails `partitions` by at most one.
  struct Instruments {
    obs::Counter* reconfigurations = nullptr;
    obs::Counter* per_object_reconfigurations = nullptr;
    obs::Counter* false_suspicions = nullptr;
    obs::Counter* proxy_crashes = nullptr;
    obs::Counter* storage_crashes = nullptr;
    obs::Counter* partitions = nullptr;
    obs::Counter* heals = nullptr;
    obs::Counter* loss_bursts = nullptr;
    obs::Counter* restarts = nullptr;
    obs::Counter* rm_crashes = nullptr;
    obs::Counter* rm_partitions = nullptr;
  };
  Instruments ins_;
};

}  // namespace qopt
