#include "autonomic/autonomic_manager.hpp"
#include "core/client.hpp"
#include "core/cluster.hpp"
#include "kv/quorum.hpp"
#include "kv/replicator.hpp"
#include "kv/storage_node.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/span_store.hpp"
#include "oracle/oracle.hpp"
#include "proxy/proxy.hpp"
#include "reconfig/reconfig_manager.hpp"
#include "reconfig/replicated_rm.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "util/histogram.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

#include <stdexcept>

namespace qopt {

Cluster::Cluster(const ClusterConfig& config)
    : config_(config),
      master_rng_(config.seed),
      net_(sim_, config.network, master_rng_.fork(0x6E6574)),
      fd_(sim_, config.fd_detection_delay),
      placement_(config.num_storage, config.replication,
                 mix64(config.seed ^ 0x706C6163)),
      metrics_() {
  if (!kv::is_strict(config_.initial_quorum, config_.replication)) {
    throw std::invalid_argument(
        "Cluster: initial quorum must satisfy R + W > N");
  }
  if (config_.num_proxies == 0 || config_.num_storage == 0 ||
      config_.rm_replicas == 0) {
    throw std::invalid_argument(
        "Cluster: need at least 1 proxy, storage node and RM replica");
  }

  net_.bind_observability(&obs_);
  // Engine self-profiler: bound whether or not profiling is requested (a
  // disabled profiler costs one branch per event); the message-name table
  // gives count_message() its display names.
  sim_.bind_profiler(&obs_.profiler());
  obs_.profiler().set_message_names(kv::kMessageTypeNames.data(),
                                    kv::kMessageTypeNames.size());
  if (config_.profile) obs_.profiler().enable();
  net_.set_loss(config_.net_loss);
  net_.set_duplication(config_.net_duplication);
  net_.set_delay_spike(config_.net_delay_spike_p, config_.net_delay_spike);
  obs_.spans().set_limits(config_.span_live_limit,
                          config_.span_completed_limit);
  if (config_.span_sample_every > 0) {
    obs_.spans().enable_all(config_.span_sample_every);
  }
  // Membership instants: every suspicion-state flip, whatever its origin
  // (detected crash or recovery, injected false suspicion).
  fd_.subscribe([this](const sim::NodeId& node, bool suspected) {
    obs_.spans().instant(obs::Category::kMembership,
                         suspected ? "suspect" : "unsuspect",
                         sim::to_string(node), sim_.now());
  });

  // ---- storage nodes
  storage_.reserve(config_.num_storage);
  for (std::uint32_t i = 0; i < config_.num_storage; ++i) {
    const sim::NodeId id = sim::storage_id(i);
    auto node = std::make_unique<kv::StorageNode>(
        sim_, net_, id, config_.storage_service, config_.storage_servers,
        master_rng_.fork(0x5704A6E + i), obs_);
    kv::StorageNode* raw = node.get();
    net_.register_node(id, [raw](const sim::NodeId& from,
                                 const kv::Message& msg) {
      raw->on_message(from, msg);
    });
    storage_.push_back(std::move(node));
  }

  // ---- proxies
  proxy::ProxyOptions proxy_options = config_.proxy;
  proxy_options.initial = config_.initial_quorum;
  proxies_.reserve(config_.num_proxies);
  for (std::uint32_t i = 0; i < config_.num_proxies; ++i) {
    const sim::NodeId id = sim::proxy_id(i);
    auto node = std::make_unique<proxy::Proxy>(sim_, net_, id, placement_,
                                               proxy_options, obs_);
    proxy::Proxy* raw = node.get();
    net_.register_node(id, [raw](const sim::NodeId& from,
                                 const kv::Message& msg) {
      raw->on_message(from, msg);
    });
    if (config_.check_consistency) {
      // Intersection audit: the replica sets that actually served each
      // operation feed the checker, which verifies every read quorum meets
      // the last write's quorum (structural validation of installed
      // strategies, complementing the freshness check).
      node->set_op_callback([this](const proxy::OpRecord& rec) {
        checker_.quorum_used(rec.oid, rec.is_write, rec.cfno, rec.end,
                             rec.quorum);
      });
    }
    proxies_.push_back(std::move(node));
  }

  // ---- reconfiguration manager
  std::vector<sim::NodeId> proxy_ids;
  std::vector<sim::NodeId> storage_ids;
  for (std::uint32_t i = 0; i < config_.num_proxies; ++i) {
    proxy_ids.push_back(sim::proxy_id(i));
  }
  for (std::uint32_t i = 0; i < config_.num_storage; ++i) {
    storage_ids.push_back(sim::storage_id(i));
  }
  // One ReconfigManager per RM replica, fed by one log; only the
  // leader-role holder drives phases. Proxies and storages keep addressing
  // "the RM" — whichever replica's inbox a reply lands on, ReplicatedRm
  // gates it by the leader role.
  reconfig::ReplicatedRmOptions rm_options;
  rm_options.replicas = config_.rm_replicas;
  rm_options.network = config_.network;
  rm_options.fd_detection_delay = config_.rm_fd_detection_delay;
  rm_options.seed = mix64(config_.seed ^ 0x524D726D);
  rrm_ = std::make_unique<reconfig::ReplicatedRm>(
      sim_, net_, fd_, proxy_ids, storage_ids, config_.initial_quorum,
      config_.replication, rm_options, obs_);
  for (std::uint32_t i = 0; i < config_.rm_replicas; ++i) {
    net_.register_node(sim::rm_replica_id(i),
                       [this, i](const sim::NodeId& from,
                                 const kv::Message& msg) {
                         QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kRm);
                         rrm_->on_message(i, from, msg);
                       });
  }
  rrm_->set_leader_change_hook([this](std::uint32_t leader) {
    obs_.spans().instant(obs::Category::kMembership, "rm_leader",
                         sim::to_string(sim::rm_replica_id(leader)),
                         sim_.now());
  });

  // ---- clients (closed loop, statically bound to proxies)
  const std::uint32_t total_clients =
      config_.num_proxies * config_.clients_per_proxy;
  clients_.reserve(total_clients);
  for (std::uint32_t i = 0; i < total_clients; ++i) {
    const sim::NodeId id = sim::client_id(i);
    const sim::NodeId proxy = sim::proxy_id(i / config_.clients_per_proxy);
    auto client = std::make_unique<Client>(
        sim_, net_, id, proxy, master_rng_.fork(0xC11E47 + i), &metrics_,
        config_.check_consistency ? &checker_ : nullptr, obs_,
        config_.client_think_time, config_.num_proxies,
        config_.client_retry_timeout);
    Client* raw = client.get();
    net_.register_node(id, [raw](const sim::NodeId& from,
                                 const kv::Message& msg) {
      raw->on_message(from, msg);
    });
    clients_.push_back(std::move(client));
  }
}

Cluster::~Cluster() = default;

void Cluster::preload(std::uint64_t count, std::uint64_t size_bytes,
                      kv::ObjectId first_oid) {
  // Size every store once for its expected share of the replicas, plus
  // slack for placement imbalance: a node's share is binomial, and
  // share / 16 + 16 exceeds several standard deviations of it at any count.
  const std::uint64_t share =
      count * static_cast<std::uint64_t>(config_.replication) /
      config_.num_storage;
  for (auto& node : storage_) {
    node->reserve_objects(node->object_count() + share + share / 16 + 16);
  }
  std::vector<std::uint32_t> replicas;
  replicas.reserve(static_cast<std::size_t>(config_.replication));
  for (std::uint64_t i = 0; i < count; ++i) {
    const kv::ObjectId oid = first_oid + i;
    kv::Version version;
    version.ts = kv::Timestamp{0, 0, 0};
    version.cfno = 0;
    version.value = oid;
    version.size_bytes = size_bytes;
    placement_.replicas_into(oid, replicas);
    for (std::uint32_t replica : replicas) {
      storage_[replica]->preload(oid, version);
    }
  }
}

void Cluster::set_workload(
    std::shared_ptr<workload::OperationSource> source) {
  for (auto& client : clients_) client->set_source(source);
}

void Cluster::set_workload_for_proxy(
    std::uint32_t proxy_index,
    std::shared_ptr<workload::OperationSource> source) {
  for (std::uint32_t i = 0; i < clients_.size(); ++i) {
    if (i / config_.clients_per_proxy == proxy_index) {
      clients_[i]->set_source(source);
    }
  }
}

void Cluster::run_for(Duration duration) {
  if (!clients_started_) {
    clients_started_ = true;
    for (auto& client : clients_) client->start();
  }
  metrics_.reserve_until(sim_.now() + duration);
  sim_.run(sim_.now() + duration);
}

Time Cluster::now() const { return sim_.now(); }

void Cluster::stop_clients() {
  for (auto& client : clients_) client->stop();
}

void Cluster::reconfigure(kv::QuorumConfig quorum,
                          std::function<void(bool)> done) {
  kv::QuorumChange change;
  change.is_global = true;
  change.global = quorum;
  rrm_->change_configuration(std::move(change), std::move(done));
}

void Cluster::reconfigure_strategy(kv::QuorumStrategy strategy,
                                   std::function<void(bool)> done) {
  kv::QuorumChange change;
  change.is_global = true;
  change.global = std::move(strategy);
  rrm_->change_configuration(std::move(change), std::move(done));
}

void Cluster::reconfigure_objects(
    std::vector<std::pair<kv::ObjectId, kv::QuorumConfig>> overrides,
    std::function<void(bool)> done) {
  kv::QuorumChange change;
  change.is_global = false;
  change.overrides.assign(overrides.begin(), overrides.end());
  rrm_->change_configuration(std::move(change), std::move(done));
}

void Cluster::enable_autotuning(const autonomic::AutonomicOptions& options,
                                std::shared_ptr<oracle::Oracle> oracle) {
  if (am_) throw std::logic_error("Cluster: autotuning already enabled");
  if (!oracle) throw std::invalid_argument("Cluster: null oracle");
  oracle_ = std::move(oracle);
  std::vector<sim::NodeId> proxy_ids;
  for (std::uint32_t i = 0; i < config_.num_proxies; ++i) {
    proxy_ids.push_back(sim::proxy_id(i));
  }
  am_ = std::make_unique<autonomic::AutonomicManager>(
      sim_, net_, sim::am_id(), fd_, *rrm_, *oracle_, proxy_ids,
      config_.replication, options, obs_);
  net_.register_node(sim::am_id(), [this](const sim::NodeId& from,
                                          const kv::Message& msg) {
    am_->on_message(from, msg);
  });
  am_->start();
}

void Cluster::enable_autotuning(const autonomic::AutonomicOptions& options) {
  enable_autotuning(
      options, std::make_shared<oracle::LinearRuleOracle>(config_.replication));
}

void Cluster::enable_anti_entropy(const kv::ReplicatorOptions& options) {
  if (replicator_) {
    throw std::logic_error("Cluster: anti-entropy already enabled");
  }
  std::vector<kv::StorageNode*> nodes;
  nodes.reserve(storage_.size());
  for (auto& node : storage_) nodes.push_back(node.get());
  replicator_ = std::make_unique<kv::Replicator>(
      sim_, placement_, std::move(nodes), options, obs_);
  replicator_->start();
}

void Cluster::crash_proxy(std::uint32_t index) {
  proxies_.at(index)->crash();
  obs_.spans().instant(obs::Category::kMembership, "crash",
                       sim::to_string(sim::proxy_id(index)), sim_.now());
  fd_.node_crashed(sim::proxy_id(index));
}

void Cluster::crash_storage(std::uint32_t index) {
  storage_.at(index)->crash();
  obs_.spans().instant(obs::Category::kMembership, "crash",
                       sim::to_string(sim::storage_id(index)), sim_.now());
  fd_.node_crashed(sim::storage_id(index));
}

void Cluster::restart_proxy(std::uint32_t index) {
  if (!proxies_.at(index)->crashed()) return;
  proxies_.at(index)->restart();
  fd_.node_recovered(sim::proxy_id(index));
}

void Cluster::restart_storage(std::uint32_t index) {
  if (!storage_.at(index)->crashed()) return;
  storage_.at(index)->restart();
  obs_.spans().instant(obs::Category::kMembership, "restart",
                       sim::to_string(sim::storage_id(index)), sim_.now());
  fd_.node_recovered(sim::storage_id(index));
}

void Cluster::inject_false_suspicion(std::uint32_t proxy_index,
                                     Duration duration) {
  fd_.inject_false_suspicion(sim::proxy_id(proxy_index), duration);
}

void Cluster::crash_rm(std::uint32_t index) {
  if (config_.rm_replicas == 1 || rrm_->replica_crashed(index)) return;
  rrm_->crash_replica(index);
  obs_.spans().instant(obs::Category::kMembership, "crash",
                       sim::to_string(sim::rm_replica_id(index)), sim_.now());
}

void Cluster::restart_rm(std::uint32_t index) {
  if (config_.rm_replicas == 1 || !rrm_->replica_crashed(index)) return;
  rrm_->restart_replica(index);
  obs_.spans().instant(obs::Category::kMembership, "restart",
                       sim::to_string(sim::rm_replica_id(index)), sim_.now());
}

std::uint64_t Cluster::isolate_rm(std::uint32_t index) {
  if (config_.rm_replicas == 1) return 0;
  // Both planes: the kv network (proxy acks, NEWEP traffic) and the group's
  // private replication network (log entries, leadership).
  const std::uint64_t kv_partition = isolate({sim::rm_replica_id(index)});
  const std::uint64_t smr_partition = rrm_->partition_replica(index);
  const std::uint64_t handle = ++rm_partition_seq_;
  rm_partitions_[handle] = RmPartition{index, kv_partition, smr_partition};
  return handle;
}

void Cluster::heal_rm_partition(std::uint64_t handle) {
  auto it = rm_partitions_.find(handle);
  if (it == rm_partitions_.end()) return;
  heal_partition(it->second.kv_partition);
  rrm_->heal_replica_partition(it->second.replica, it->second.smr_partition);
  rm_partitions_.erase(it);
}

std::uint64_t Cluster::isolate(const std::vector<sim::NodeId>& nodes,
                               bool symmetric) {
  // Rest-of-world side: every node the cluster wired up that is not in the
  // isolated set (comparison by kind+index).
  auto contains = [&](const sim::NodeId& id) {
    for (const sim::NodeId& n : nodes) {
      if (n.kind == id.kind && n.index == id.index) return true;
    }
    return false;
  };
  std::vector<sim::NodeId> rest;
  auto add_if_outside = [&](const sim::NodeId& id) {
    if (!contains(id)) rest.push_back(id);
  };
  for (std::uint32_t i = 0; i < config_.num_storage; ++i) {
    add_if_outside(sim::storage_id(i));
  }
  for (std::uint32_t i = 0; i < config_.num_proxies; ++i) {
    add_if_outside(sim::proxy_id(i));
  }
  for (std::uint32_t i = 0; i < clients_.size(); ++i) {
    add_if_outside(sim::client_id(i));
  }
  for (std::uint32_t i = 0; i < config_.rm_replicas; ++i) {
    add_if_outside(sim::rm_replica_id(i));
  }
  add_if_outside(sim::am_id());
  const std::uint64_t id = net_.add_partition(nodes, rest, symmetric);
  obs_.spans().instant(obs::Category::kMembership, "partition", "net",
                       sim_.now(), id, nodes.size());
  return id;
}

void Cluster::heal_partition(std::uint64_t id) {
  net_.heal_partition(id);
  obs_.spans().instant(obs::Category::kMembership, "heal", "net", sim_.now(),
                       id);
}

void Cluster::heal_all_partitions() {
  net_.heal_all_partitions();
  obs_.spans().instant(obs::Category::kMembership, "heal_all", "net",
                       sim_.now());
}

namespace {

obs::LatencySummary summarize(const LatencyHistogram& hist) {
  obs::LatencySummary s;
  s.count = hist.count();
  if (s.count == 0) return s;
  s.mean_ms = hist.mean() / 1e6;  // histograms record nanoseconds
  s.p50_ms = hist.percentile(50.0) / 1e6;
  s.p95_ms = hist.percentile(95.0) / 1e6;
  s.p99_ms = hist.percentile(99.0) / 1e6;
  s.max_ms = hist.max() / 1e6;
  return s;
}

}  // namespace

obs::RunReport Cluster::report() const { return report(0, sim_.now()); }

obs::RunReport Cluster::report(Time t0, Time t1) const {
  obs::RunReport r;
  r.seed = config_.seed;
  r.num_storage = config_.num_storage;
  r.num_proxies = config_.num_proxies;
  r.num_clients = static_cast<std::uint32_t>(clients_.size());
  r.replication = config_.replication;
  r.window_start = t0;
  r.window_end = t1;

  r.ops = metrics_.ops_between(t0, t1);
  r.reads = metrics_.reads_between(t0, t1);
  r.writes = metrics_.writes_between(t0, t1);
  r.throughput_ops = metrics_.throughput(t0, t1);
  r.read_latency = summarize(metrics_.read_latency());
  r.write_latency = summarize(metrics_.write_latency());
  for (Time t = t0; t + seconds(1) <= t1; t += seconds(1)) {
    r.throughput_timeline.push_back(metrics_.throughput(t, t + seconds(1)));
  }

  const kv::FullConfig& canonical = rm().config();
  r.default_read_q = canonical.default_q.read_footprint();
  r.default_write_q = canonical.default_q.write_footprint();
  r.override_count = canonical.overrides.size();
  const obs::MetricRegistry& reg = obs_.registry();
  r.reconfigurations = reg.counter_value("rm.reconfigurations_completed");
  r.epoch_changes = reg.counter_value("rm.epoch_changes");
  r.reconfig_time_s =
      static_cast<double>(reg.counter_value("rm.reconfig_time_ns")) / 1e9;
  r.am_rounds = reg.counter_value("am.rounds");
  r.objects_tuned = reg.counter_value("am.objects_tuned");
  r.tail_reconfigs = reg.counter_value("am.tail_reconfigs");
  r.steady_reconfigs = reg.counter_value("am.steady_reconfigs");
  r.am_restarts = reg.counter_value("am.restarts");

  r.messages_sent = reg.counter_value("net.messages_sent");
  r.messages_delivered = reg.counter_value("net.messages_delivered");
  r.dropped_sender_crashed = reg.counter_value("net.dropped.sender_crashed");
  r.dropped_receiver_crashed =
      reg.counter_value("net.dropped.receiver_crashed");
  r.dropped_unroutable = reg.counter_value("net.dropped.unroutable");
  r.dropped_link_loss = reg.counter_value("net.dropped.link_loss");
  r.dropped_partitioned = reg.counter_value("net.dropped.partitioned");
  r.duplicates_delivered = reg.counter_value("net.duplicated");
  r.delay_spikes = reg.counter_value("net.delay_spikes");

  r.reads_checked = checker_.reads_checked();
  // The verdict checker_.clean() gives: stale reads plus same-configuration
  // read/write quorums that do not intersect.
  r.consistency_violations =
      checker_.violations().size() + checker_.quorum_violations().size();

  r.traces_completed = reg.counter_value("obs.traces_completed");
  r.spans_dropped = reg.counter_value("obs.spans_dropped");

  // A lone RM replica cannot fail over, so its report has no failover
  // section (the replay baseline pins that absence).
  if (config_.rm_replicas > 1) {
    r.has_rm_failover = true;
    r.rm_replicas = config_.rm_replicas;
    r.rm_leader_changes = reg.counter_value("rm.leader_changes");
    r.rm_rounds_resumed = reg.counter_value("rm.rounds_resumed");
    r.rm_stale_leader_msgs = reg.counter_value("rm.stale_leader_msgs_ignored");
  }

  r.instruments = reg.snapshot();

  if (obs_.profiler().enabled()) {
    // Cumulative over the profiler's lifetime (not windowed): attribution
    // covers every event the engine ran, so the per-subsystem counts sum to
    // simulator().events_processed().
    r.profile = obs_.profiler().report();
    r.has_profile = true;
  }
  return r;
}

}  // namespace qopt
