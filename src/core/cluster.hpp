// qopt::Cluster — the library's main entry point.
//
// Builds and wires a complete simulated deployment mirroring the paper's
// testbed: storage nodes, proxies, closed-loop clients, the Reconfiguration
// Manager, and (optionally) the Autonomic Manager with an Oracle. Exposes
// workload assignment, manual and autonomic reconfiguration, failure
// injection, metrics, and the Dynamic Quorum Consistency checker.
//
// Typical use (see examples/quickstart.cpp):
//
//   qopt::ClusterConfig config;           // defaults = the paper's testbed
//   qopt::Cluster cluster(config);
//   cluster.preload(100'000, 4096);
//   cluster.set_workload(qopt::workload::ycsb_b(100'000));
//   cluster.enable_autotuning({});        // Q-OPT self-tuning on
//   cluster.run_for(qopt::seconds(120));
//   double tput = cluster.metrics().throughput(0, cluster.now());
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "autonomic/autonomic_manager.hpp"
#include "core/client.hpp"
#include "core/consistency.hpp"
#include "core/metrics.hpp"
#include "kv/placement.hpp"
#include "kv/quorum.hpp"
#include "kv/replicator.hpp"
#include "kv/service_model.hpp"
#include "kv/storage_node.hpp"
#include "kv/types.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "oracle/oracle.hpp"
#include "proxy/proxy.hpp"
#include "reconfig/reconfig_manager.hpp"
#include "reconfig/replicated_rm.hpp"
#include "sim/failure_detector.hpp"
#include "sim/heartbeat.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace qopt {

struct ClusterConfig {
  // Topology — defaults follow the paper's testbed (Section 2.2): 10
  // storage VMs (2 cores each), 5 proxies, 10 client threads per proxy,
  // replication degree 5.
  std::uint32_t num_storage = 10;
  std::uint32_t num_proxies = 5;
  std::uint32_t clients_per_proxy = 10;
  int replication = 5;

  /// Initial quorum (must be strict: R + W > N).
  kv::QuorumConfig initial_quorum = kv::QuorumConfig::of(3, 3);

  kv::ServiceTimes storage_service;
  std::size_t storage_servers = 2;  // virtual cores per storage VM
  sim::LatencyModel network;
  // Link-fault plane (all off by default — the paper's reliable channels).
  // Probabilities are clamped to [0, 1]; see docs/ROBUSTNESS.md.
  double net_loss = 0.0;         // per-message drop probability
  double net_duplication = 0.0;  // per-message duplicate-delivery probability
  double net_delay_spike_p = 0.0;  // per-message latency-spike probability
  Duration net_delay_spike = milliseconds(50);  // extra latency per spike
  proxy::ProxyOptions proxy;  // `initial` is overwritten by initial_quorum
  Duration fd_detection_delay = milliseconds(500);
  /// > 1 replicates the Reconfiguration Manager: that many RM replicas run
  /// over a private SMR log, the leader role fails over on crashes and
  /// partitions (crash_rm / isolate_rm, nemesis rm_crash / rm_partition).
  /// 1 (default) keeps the paper's single logically-centralized RM — the
  /// two deployments are byte-identical when no RM faults are injected.
  std::uint32_t rm_replicas = 1;
  /// Detection delay of the RM group's private failure detector — the RM
  /// failover reaction time. Only meaningful when rm_replicas > 1.
  Duration rm_fd_detection_delay = milliseconds(300);
  /// When set, suspicion of proxies is derived from heartbeat traffic over
  /// the simulated network instead of the omniscient oracle: crash_proxy()
  /// stops the beats and the watcher suspects the proxy organically.
  bool heartbeat_fd = false;
  Duration heartbeat_interval = milliseconds(100);
  Duration heartbeat_timeout = milliseconds(500);
  Duration client_think_time = 0;
  /// > 0 enables client proxy failover after this unanswered-for duration.
  Duration client_retry_timeout = 0;
  bool check_consistency = true;
  /// Causal span tracing: 0 = off (default); N = record every Nth trace of
  /// each kind (1 = all). Selection is deterministic by trace id.
  std::uint32_t span_sample_every = 0;
  /// Hard cap on spans held by live (in-flight) traces; opens beyond it are
  /// refused and counted in `obs.spans_dropped`.
  std::size_t span_live_limit = 8192;
  /// Completed-trace ring size; evictions are counted in
  /// `obs.traces_evicted`.
  std::size_t span_completed_limit = 4096;
  /// Engine self-profiler: per-subsystem event/allocation/wall attribution
  /// plus queue telemetry, exported as the report's `profile` section. Has
  /// no effect on simulation behavior (exports stay byte-identical modulo
  /// that section); costs <2% events/sec when on, nothing when the
  /// QOPT_PROFILE CMake option compiled the instruments out.
  bool profile = false;
  std::uint64_t seed = 1;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // -------------------------------------------------------------- workload

  /// Directly installs `count` objects of `size_bytes` on all replicas
  /// (bypassing the protocol), so reads have data from t=0 — the YCSB load
  /// phase. `first_oid` offsets the key range (tenant namespaces).
  void preload(std::uint64_t count, std::uint64_t size_bytes,
               kv::ObjectId first_oid = 0);

  /// Assigns the workload source to every client.
  void set_workload(std::shared_ptr<workload::OperationSource> source);
  /// Assigns a workload to the clients of one proxy (per-tenant setups).
  void set_workload_for_proxy(
      std::uint32_t proxy_index,
      std::shared_ptr<workload::OperationSource> source);
  void set_workload_for_client(
      std::uint32_t client_index,
      std::shared_ptr<workload::OperationSource> source);

  // ------------------------------------------------------------- execution

  /// Advances virtual time by `duration`, starting clients on first call.
  void run_for(Duration duration);
  Time now() const;

  /// Stops all clients (in-flight operations complete).
  void stop_clients();

  // -------------------------------------------------------- reconfiguration

  /// Manual store-wide reconfiguration via the RM (the paper's "Manual
  /// Reconfiguration" arrow in Figure 4). Completion is asynchronous.
  void reconfigure(kv::QuorumConfig quorum,
                   std::function<void(bool)> done = {});
  /// Store-wide install of a generalized quorum strategy (majority grid or
  /// explicit weighted quorum system) through the same two-phase protocol.
  void reconfigure_strategy(kv::QuorumStrategy strategy,
                            std::function<void(bool)> done = {});
  /// Manual per-object reconfiguration.
  void reconfigure_objects(
      std::vector<std::pair<kv::ObjectId, kv::QuorumConfig>> overrides,
      std::function<void(bool)> done = {});

  // ------------------------------------------------------------ autotuning

  /// Installs the Autonomic Manager with the given oracle and starts the
  /// optimization loop. The oracle must outlive the cluster (shared).
  void enable_autotuning(const autonomic::AutonomicOptions& options,
                         std::shared_ptr<oracle::Oracle> oracle);
  /// Convenience: autotuning with the built-in linear-rule oracle.
  void enable_autotuning(const autonomic::AutonomicOptions& options = {});

  /// Starts the anti-entropy replicator daemon (background replication of
  /// fresh versions to stale replicas, as Swift's object replicator does).
  void enable_anti_entropy(const kv::ReplicatorOptions& options = {});
  kv::Replicator* replicator() noexcept { return replicator_.get(); }

  // ------------------------------------------------------ failure injection

  void crash_proxy(std::uint32_t index);
  void crash_storage(std::uint32_t index);
  /// Crash-recovery: the node rejoins with its durable state (no-ops when
  /// not crashed). The failure detector learns of the recovery; a proxy
  /// whose epoch went stale while down resynchronizes via the NACK path.
  void restart_proxy(std::uint32_t index);
  void restart_storage(std::uint32_t index);
  void inject_false_suspicion(std::uint32_t proxy_index, Duration duration);

  /// RM-replica faults (no-ops unless rm_replicas > 1). Crashing the
  /// current leader deposes it; the next caught-up replica resumes any
  /// in-flight reconfiguration from the replicated log.
  void crash_rm(std::uint32_t index);
  void restart_rm(std::uint32_t index);
  /// Isolates RM replica `index` on both planes (kv network and the group's
  /// private replication network). Returns a handle for heal_rm_partition();
  /// 0 in single-RM mode (nothing isolated).
  std::uint64_t isolate_rm(std::uint32_t index);
  void heal_rm_partition(std::uint64_t handle);

  /// Partitions `nodes` away from every other node in the cluster (one-way
  /// when `symmetric` is false: the isolated side cannot reach out, but
  /// still receives). Returns an id for heal_partition().
  std::uint64_t isolate(const std::vector<sim::NodeId>& nodes,
                        bool symmetric = true);
  void heal_partition(std::uint64_t id);
  void heal_all_partitions();

  // -------------------------------------------------------------- accessors

  sim::Simulator& simulator() noexcept { return sim_; }
  /// Shared observability bundle: every component's instruments live in
  /// `obs().registry()`, spans and instant events in `obs().spans()`.
  obs::Observability& obs() noexcept { return obs_; }
  const obs::Observability& obs() const noexcept { return obs_; }
  /// Whole-cluster summary over [0, now()); deterministic for a
  /// deterministic run (same seed → byte-identical to_json()).
  obs::RunReport report() const;
  /// Summary restricted to the window [t0, t1) (workload totals and
  /// throughput only; cumulative fields cover the whole run).
  obs::RunReport report(Time t0, Time t1) const;
  Metrics& metrics() noexcept { return metrics_; }
  const Metrics& metrics() const noexcept { return metrics_; }
  ConsistencyChecker& checker() noexcept { return checker_; }
  const ConsistencyChecker& checker() const noexcept { return checker_; }
  /// The authoritative RM view: the single instance, or (replicated mode)
  /// the current leader replica's manager.
  reconfig::ReconfigManager& rm() noexcept {
    return rm_ ? *rm_ : rrm_->leader_rm();
  }
  const reconfig::ReconfigManager& rm() const noexcept {
    return rm_ ? *rm_ : rrm_->leader_rm();
  }
  /// Replicated control plane; null when rm_replicas <= 1.
  reconfig::ReplicatedRm* replicated_rm() noexcept { return rrm_.get(); }
  autonomic::AutonomicManager* am() noexcept { return am_.get(); }
  proxy::Proxy& proxy(std::uint32_t i) { return *proxies_.at(i); }
  kv::StorageNode& storage(std::uint32_t i) { return *storage_.at(i); }
  Client& client(std::uint32_t i) { return *clients_.at(i); }
  std::uint32_t num_clients() const {
    return static_cast<std::uint32_t>(clients_.size());
  }
  const kv::Placement& placement() const noexcept { return placement_; }
  sim::FailureDetector& failure_detector() noexcept { return fd_; }
  sim::HeartbeatWatcher* heartbeat_watcher() noexcept {
    return heartbeat_watcher_.get();
  }
  const ClusterConfig& config() const noexcept { return config_; }
  const sim::NetworkStats& network_stats() const { return net_.stats(); }
  sim::Network<kv::Message>& network() noexcept { return net_; }

 private:
  using Net = sim::Network<kv::Message>;

  /// The RM's wire inbox: routes heartbeats to the watcher, protocol
  /// messages to the ReconfigManager (see docs/PROTOCOL.toml).
  void handle_rm_message(const sim::NodeId& from, const kv::Message& msg);
  /// Replicated-mode inbox of RM replica `replica` (same routing, with
  /// leader-role gating inside ReplicatedRm).
  void handle_rm_replica_message(std::uint32_t replica,
                                 const sim::NodeId& from,
                                 const kv::Message& msg);

  ClusterConfig config_;
  // Declared before every component: they cache pointers into the registry,
  // so the bundle must outlive them (destroyed last).
  obs::Observability obs_;
  sim::Simulator sim_;
  Rng master_rng_;
  Net net_;
  sim::FailureDetector fd_;
  kv::Placement placement_;
  Metrics metrics_;
  ConsistencyChecker checker_;

  std::vector<std::unique_ptr<kv::StorageNode>> storage_;
  std::vector<std::unique_ptr<proxy::Proxy>> proxies_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::unique_ptr<reconfig::ReconfigManager> rm_;   // single-RM mode
  std::unique_ptr<reconfig::ReplicatedRm> rrm_;     // rm_replicas > 1
  /// isolate_rm() handle -> (replica, kv-plane partition, smr-plane
  /// partition), so a heal reconnects both planes.
  struct RmPartition {
    std::uint32_t replica;
    std::uint64_t kv_partition;
    std::uint64_t smr_partition;
  };
  std::unordered_map<std::uint64_t, RmPartition> rm_partitions_;
  std::uint64_t rm_partition_seq_ = 0;
  std::unique_ptr<autonomic::AutonomicManager> am_;
  std::shared_ptr<oracle::Oracle> oracle_;
  std::unique_ptr<kv::Replicator> replicator_;
  std::unique_ptr<sim::HeartbeatWatcher> heartbeat_watcher_;

  bool clients_started_ = false;
};

}  // namespace qopt
