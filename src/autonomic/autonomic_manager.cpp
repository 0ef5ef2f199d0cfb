#include "autonomic/autonomic_manager.hpp"
#include "kv/quorum.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "obs/span_store.hpp"
#include "oracle/oracle.hpp"
#include "oracle/strategy_optimizer.hpp"
#include "reconfig/reconfig_manager.hpp"
#include "sim/failure_detector.hpp"
#include "sim/ids.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_set>

namespace qopt::autonomic {

using kv::Message;
using kv::ObjectId;
using kv::ObjectStats;
using kv::QuorumChange;
using kv::QuorumConfig;
using kv::RoundStatsMsg;
using kv::TailStats;
using kv::TopKReport;

AutonomicManager::AutonomicManager(sim::Simulator& sim, Net& net,
                                   sim::NodeId self, sim::FailureDetector& fd,
                                   reconfig::ReconfigManager& rm,
                                   oracle::Oracle& oracle,
                                   std::vector<sim::NodeId> proxies,
                                   int replication,
                                   const AutonomicOptions& options,
                                   obs::Observability* obs)
    : sim_(sim),
      net_(net),
      self_(self),
      fd_(fd),
      rm_(rm),
      oracle_(oracle),
      proxies_(std::move(proxies)),
      replication_(replication),
      options_(options),
      steady_baseline_(4) {
  strategy_opt_ = dynamic_cast<oracle::StrategyOptimizer*>(&oracle_);
  fd_.subscribe([this](const sim::NodeId& node, bool suspected) {
    if (node.kind == sim::NodeKind::kProxy && suspected && gathering_) {
      maybe_process_round();
    }
  });
  if (!obs) {
    own_obs_ = std::make_unique<obs::Observability>();
    obs = own_obs_.get();
  }
  obs_ = obs;
  auto& reg = obs_->registry();
  ins_.rounds = &reg.counter("am.rounds");
  ins_.fine_grain_reconfigs = &reg.counter("am.fine_grain_reconfigs");
  ins_.objects_tuned = &reg.counter("am.objects_tuned");
  ins_.tail_reconfigs = &reg.counter("am.tail_reconfigs");
  ins_.steady_reconfigs = &reg.counter("am.steady_reconfigs");
  ins_.restarts = &reg.counter("am.restarts");
  ins_.round = &reg.gauge("am.round");
  ins_.last_kpi = &reg.gauge("am.last_kpi");
}

void AutonomicManager::start() {
  if (running_) return;
  running_ = true;
  mode_ = Mode::kFineGrain;
  ++generation_;
  emit("autonomic manager started");
  begin_round();
}

void AutonomicManager::stop() {
  running_ = false;
  gathering_ = false;
  ++generation_;
}

void AutonomicManager::emit(const std::string& what) {
  if (on_event_) on_event_(sim_.now(), what);
  obs_->spans().instant(obs::Category::kAutonomic, "am_event", "am",
                        sim_.now(), round_, 0, what);
}

void AutonomicManager::begin_round() {
  if (!running_) return;
  ++round_;
  ins_.rounds->inc();
  ins_.round->set(static_cast<double>(round_));
  reports_.clear();
  gathering_ = true;
  const kv::NewRoundMsg msg{round_, options_.round_window};
  for (const sim::NodeId& proxy : proxies_) net_.send(self_, proxy, msg);
}

void AutonomicManager::on_message(const sim::NodeId& from,
                                  const Message& msg) {
  QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kAm);
  if (!running_) return;
  if (const auto* stats = std::get_if<RoundStatsMsg>(&msg)) {
    handle_round_stats(from, *stats);
  }
}

void AutonomicManager::handle_round_stats(const sim::NodeId& from,
                                          const RoundStatsMsg& stats) {
  // Round fencing: a report from an earlier round (a slow proxy, or a
  // retransmit crossing a round boundary) must not pollute the current
  // gather; re-reporting proxies just overwrite their own slot.
  if (!gathering_ || stats.round != round_) return;
  reports_[from.index] = stats;
  maybe_process_round();
}

void AutonomicManager::maybe_process_round() {
  if (!gathering_) return;
  // Algorithm 1 line 7: wait for every proxy's report or its suspicion.
  for (const sim::NodeId& proxy : proxies_) {
    if (!reports_.contains(proxy.index) && !fd_.suspects(proxy)) return;
  }
  gathering_ = false;
  process_round();
}

std::optional<oracle::WorkloadFeatures> AutonomicManager::features_for(
    std::uint64_t reads, std::uint64_t writes, double avg_size,
    double window_s) const {
  const std::uint64_t total = reads + writes;
  if (total < options_.min_samples_per_object) return std::nullopt;
  oracle::WorkloadFeatures features;
  features.write_ratio =
      static_cast<double>(writes) / static_cast<double>(total);
  features.avg_size_kib = avg_size / 1024.0;
  features.ops_per_sec =
      window_s > 0 ? static_cast<double>(total) / window_s : 0.0;
  return features;
}

int AutonomicManager::predict(std::uint64_t reads, std::uint64_t writes,
                              double avg_size, double window_s) const {
  const auto features = features_for(reads, writes, avg_size, window_s);
  if (!features) return 0;
  const int raw = oracle_.predict_write_quorum(*features);
  return oracle::clamp_write_quorum(raw, options_.constraints, replication_);
}

std::optional<kv::QuorumStrategy> AutonomicManager::predict_tail_strategy(
    const kv::TailStats& tail, double window_s) const {
  const auto features =
      features_for(tail.reads, tail.writes, tail.avg_size_bytes, window_s);
  if (!features) return std::nullopt;
  if (strategy_opt_) {
    kv::QuorumStrategy target = strategy_opt_->optimize(*features);
    if (target.valid(replication_)) return target;
    return std::nullopt;
  }
  const int raw = oracle_.predict_write_quorum(*features);
  const int w =
      oracle::clamp_write_quorum(raw, options_.constraints, replication_);
  if (w <= 0) return std::nullopt;
  return kv::QuorumStrategy(oracle::grid_from_write_quorum(w, replication_));
}

void AutonomicManager::process_round() {
  // ---- merge the per-proxy reports (Algorithm 1 lines 8-9). Ordered maps:
  // the weighted-average merge below is order-sensitive floating-point
  // arithmetic, and both results feed quorum decisions.
  std::map<ObjectId, ObjectStats> merged_topk_map;
  std::map<ObjectId, std::uint64_t> candidate_counts;
  TailStats tail;
  double tail_size_weight = 0;
  double kpi_throughput = 0;
  double latency_weighted = 0;
  std::uint64_t latency_weight = 0;

  for (const auto& [proxy_index, report] : reports_) {
    for (const TopKReport& candidate : report.topk) {
      candidate_counts[candidate.oid] += candidate.count;
    }
    for (const ObjectStats& object_stats : report.stats_topk) {
      ObjectStats& merged = merged_topk_map[object_stats.oid];
      merged.oid = object_stats.oid;
      const std::uint64_t prev_n = merged.reads + merged.writes;
      const std::uint64_t add_n = object_stats.reads + object_stats.writes;
      if (prev_n + add_n > 0) {
        merged.avg_size_bytes =
            (merged.avg_size_bytes * static_cast<double>(prev_n) +
             object_stats.avg_size_bytes * static_cast<double>(add_n)) /
            static_cast<double>(prev_n + add_n);
      }
      merged.reads += object_stats.reads;
      merged.writes += object_stats.writes;
    }
    const std::uint64_t tail_n =
        report.stats_tail.reads + report.stats_tail.writes;
    tail.reads += report.stats_tail.reads;
    tail.writes += report.stats_tail.writes;
    tail_size_weight += report.stats_tail.avg_size_bytes *
                        static_cast<double>(tail_n);
    kpi_throughput += report.throughput_ops;
    const auto ops = static_cast<std::uint64_t>(
        report.throughput_ops * to_seconds(options_.round_window));
    latency_weighted += report.avg_latency_ms * static_cast<double>(ops);
    latency_weight += ops;
  }
  if (tail.reads + tail.writes > 0) {
    tail.avg_size_bytes =
        tail_size_weight / static_cast<double>(tail.reads + tail.writes);
  }
  const double avg_latency =
      latency_weight ? latency_weighted / static_cast<double>(latency_weight)
                     : 0.0;

  // ---- KPI bookkeeping (higher is better for both KPIs). Momentary spikes
  // are rejected by a Hampel filter so they cannot trigger spurious
  // reconfigurations or stop the optimization early (Section 4's outlier
  // filtering [20]).
  const double raw_kpi = options_.kpi == Kpi::kThroughput
                             ? kpi_throughput
                             : (avg_latency > 0 ? 1.0 / avg_latency : 0.0);
  const double kpi =
      options_.filter_kpi_outliers ? kpi_filter_.filter(raw_kpi) : raw_kpi;
  kpi_trend_.update(kpi);
  if (have_kpi_ && last_kpi_ > 0) {
    improvements_.push_back((kpi - last_kpi_) / last_kpi_);
    if (improvements_.size() > options_.improvement_window) {
      improvements_.pop_front();
    }
  }
  last_kpi_ = kpi;
  ins_.last_kpi->set(kpi);
  have_kpi_ = true;

  std::vector<ObjectStats> merged_topk;
  merged_topk.reserve(merged_topk_map.size());
  for (auto& [oid, object_stats] : merged_topk_map) {
    merged_topk.push_back(object_stats);  // already in oid order
  }

  std::vector<TopKReport> candidates;
  candidates.reserve(candidate_counts.size());
  for (const auto& [oid, count] : candidate_counts) {
    candidates.push_back(TopKReport{oid, count, 0});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const TopKReport& a, const TopKReport& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.oid < b.oid;
            });

  if (mode_ == Mode::kFineGrain) {
    process_fine_grain(merged_topk, tail, std::move(candidates));
  } else {
    process_steady(merged_topk, tail);
  }
}

void AutonomicManager::process_fine_grain(
    const std::vector<ObjectStats>& merged_topk, const TailStats& tail,
    std::vector<TopKReport> merged_candidates) {
  const double window_s = to_seconds(options_.round_window);

  // ---- 1. tune the objects monitored during the round that just ended.
  QuorumChange change;
  change.is_global = false;
  for (const ObjectStats& object_stats : merged_topk) {
    const int w = predict(object_stats.reads, object_stats.writes,
                          object_stats.avg_size_bytes, window_s);
    if (w <= 0) continue;
    const QuorumConfig target = oracle::grid_from_write_quorum(w, replication_);
    if (rm_.quorum_for(object_stats.oid) != target) {
      change.overrides.emplace_back(object_stats.oid, target);
    }
  }

  // ---- 2. pick the next top-k objects to monitor.
  std::vector<ObjectId> next_monitored;
  {
    std::unordered_set<ObjectId> taken;
    for (const auto& [oid, q] : rm_.config().overrides) taken.insert(oid);
    for (const auto& [oid, q] : change.overrides) taken.insert(oid);
    for (const TopKReport& candidate : merged_candidates) {
      if (next_monitored.size() >= options_.topk_per_round) break;
      if (taken.contains(candidate.oid)) continue;
      next_monitored.push_back(candidate.oid);
    }
  }

  // ---- 3. stopping rule (Algorithm 1 line 17): average KPI improvement
  // over the last γ rounds must stay above θ, once enough rounds ran.
  bool keep_going = true;
  if (improvements_.size() >= options_.improvement_window) {
    double avg = 0;
    for (double delta : improvements_) avg += delta;
    avg /= static_cast<double>(improvements_.size());
    if (avg < options_.improvement_threshold) keep_going = false;
  }
  if (round_ >= 2 && next_monitored.empty() && change.overrides.empty()) {
    keep_going = false;  // nothing left to optimize (or k = 0: tail-only)
  }

  const std::uint64_t generation = generation_;
  auto continue_round = [this, generation, keep_going, tail,
                         next_monitored](bool reconfigured) {
    if (!running_ || generation != generation_) return;
    if (keep_going) {
      broadcast_new_topk(next_monitored);
      schedule_next_round(reconfigured);
    } else {
      finish_fine_grain(tail);
    }
  };

  if (!change.overrides.empty()) {
    ins_.fine_grain_reconfigs->inc();
    ins_.objects_tuned->inc(change.overrides.size());
    emit("fine-grain reconfiguration of " +
         std::to_string(change.overrides.size()) + " object(s)");
    rm_.change_configuration(
        std::move(change),
        [continue_round](bool ok) { continue_round(ok); });
  } else {
    continue_round(false);
  }
}

void AutonomicManager::finish_fine_grain(const TailStats& tail) {
  // Algorithm 1 lines 18-23: coarse optimization of the access-distribution
  // tail, treated in bulk from its aggregate profile.
  mode_ = Mode::kSteady;
  steady_baseline_.reset();
  steady_baseline_.add(last_kpi_);
  last_tail_prediction_.reset();
  last_object_prediction_.clear();
  emit("fine-grain optimization converged after round " +
       std::to_string(round_));

  auto after = [this, generation = generation_](bool) {
    if (!running_ || generation != generation_) return;
    if (options_.steady_monitoring) {
      broadcast_new_topk({});
      schedule_next_round(true);
    } else {
      running_ = false;
      emit("autonomic manager finished");
    }
  };

  if (options_.tail_optimization) {
    const double window_s = to_seconds(options_.round_window);
    const auto target = predict_tail_strategy(tail, window_s);
    if (target && rm_.config().default_q != *target) {
      ins_.tail_reconfigs->inc();
      if (target->is_majority()) {
        emit("tail reconfiguration to R=" +
             std::to_string(target->grid.read_q) +
             " W=" + std::to_string(target->grid.write_q));
      } else {
        emit("tail reconfiguration to " + target->describe());
      }
      QuorumChange change;
      change.is_global = true;
      change.global = *target;
      rm_.change_configuration(std::move(change), after);
      return;
    }
  }
  after(false);
}

void AutonomicManager::process_steady(
    const std::vector<ObjectStats>& merged_topk, const TailStats& tail) {
  const double window_s = to_seconds(options_.round_window);

  // ---- restart detection. Two complementary triggers: a marked KPI drop
  // w.r.t. the converged baseline (degradation under the current quorums),
  // and a Page-Hinkley detection of a statistically sustained shift of the
  // tail write ratio (the workload changed even if the KPI has not yet
  // collapsed — Section 4's shift detection [32]).
  const double baseline = steady_baseline_.mean();
  const bool kpi_dropped =
      baseline > 0 &&
      last_kpi_ < baseline * (1.0 - options_.restart_drop_fraction);
  bool workload_shifted = false;
  if (options_.detect_workload_shift && tail.reads + tail.writes > 0) {
    workload_shifted = workload_shift_.update(tail.write_ratio());
  }
  if (kpi_dropped || workload_shifted) {
    ins_.restarts->inc();
    emit(std::string(kpi_dropped ? "KPI drop" : "workload shift") +
         " detected; restarting fine-grain optimization");
    mode_ = Mode::kFineGrain;
    improvements_.clear();
    have_kpi_ = false;
    last_tail_prediction_.reset();
    last_object_prediction_.clear();
    broadcast_new_topk({});
    schedule_next_round(false);
    return;
  }
  steady_baseline_.add(last_kpi_);

  // ---- drift checks: re-evaluate the rotating subset of tuned objects we
  // monitored this round, and the tail default. Per-object hysteresis:
  // reconfigure only when two consecutive evaluations of an object agree on
  // a configuration that differs from the installed one.
  QuorumChange change;
  change.is_global = false;
  for (const ObjectStats& object_stats : merged_topk) {
    const int w = predict(object_stats.reads, object_stats.writes,
                          object_stats.avg_size_bytes, window_s);
    if (w <= 0) continue;
    const QuorumConfig target = oracle::grid_from_write_quorum(w, replication_);
    if (rm_.quorum_for(object_stats.oid) != target) {
      auto [it, inserted] =
          last_object_prediction_.try_emplace(object_stats.oid, target);
      if (!options_.drift_hysteresis || (!inserted && it->second == target)) {
        change.overrides.emplace_back(object_stats.oid, target);
      }
      it->second = target;
    } else {
      last_object_prediction_.erase(object_stats.oid);
    }
  }

  // Hysteresis: only move the tail default when two consecutive rounds
  // predict the same deviating configuration — single-round flaps near a
  // decision boundary would otherwise cause reconfiguration churn.
  bool tail_change = false;
  kv::QuorumStrategy tail_target;
  const auto tail_predicted = predict_tail_strategy(tail, window_s);
  if (tail_predicted) {
    tail_target = *tail_predicted;
    if (rm_.config().default_q != tail_target) {
      tail_change =
          !options_.drift_hysteresis || last_tail_prediction_ == tail_target;
    }
    last_tail_prediction_ = tail_target;
  } else {
    last_tail_prediction_.reset();
  }

  // ---- choose the next rotating monitored subset among tuned objects.
  std::vector<ObjectId> next_monitored;
  {
    const auto& overrides = rm_.config().overrides;
    if (!overrides.empty()) {
      for (std::size_t i = 0;
           i < std::min(options_.topk_per_round, overrides.size()); ++i) {
        next_monitored.push_back(
            overrides[(steady_rotation_ + i) % overrides.size()].first);
      }
      steady_rotation_ =
          (steady_rotation_ + options_.topk_per_round) % overrides.size();
    }
  }

  const std::uint64_t generation = generation_;
  auto proceed = [this, generation, next_monitored](bool reconfigured) {
    if (!running_ || generation != generation_) return;
    broadcast_new_topk(next_monitored);
    schedule_next_round(reconfigured);
  };

  if (!change.overrides.empty() || tail_change) {
    ins_.steady_reconfigs->inc();
    emit("steady-state drift reconfiguration");
    if (tail_change) {
      QuorumChange global_change;
      global_change.is_global = true;
      global_change.global = tail_target;
      rm_.change_configuration(std::move(global_change), {});
    }
    if (!change.overrides.empty()) {
      rm_.change_configuration(std::move(change),
                               [proceed](bool ok) { proceed(ok); });
    } else {
      // Tail change only; the RM serializes it, continue after quarantine.
      proceed(true);
    }
  } else {
    proceed(false);
  }
}

void AutonomicManager::broadcast_new_topk(std::vector<ObjectId> monitored) {
  monitored_ = std::move(monitored);
  const kv::NewTopKMsg msg{round_, monitored_};
  for (const sim::NodeId& proxy : proxies_) net_.send(self_, proxy, msg);
}

void AutonomicManager::schedule_next_round(bool reconfigured) {
  const Duration delay = reconfigured ? options_.quarantine : 0;
  const std::uint64_t generation = generation_;
  sim_.after(delay, [this, generation] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kAm);
    if (!running_ || generation != generation_) return;
    begin_round();
  });
}

}  // namespace qopt::autonomic
