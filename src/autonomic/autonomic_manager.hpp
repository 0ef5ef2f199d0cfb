// Autonomic Manager (AM) — Algorithm 1 of the paper.
//
// Orchestrates the self-tuning loop:
//   1. each round, broadcast NEWROUND to the proxies and gather ROUNDSTATS
//      (per-proxy top-k candidates, profiles of the currently monitored
//      hotspots, the aggregate tail profile, and the achieved KPI);
//   2. merge the statistics, feed the monitored objects' profiles to the
//      Oracle, and ask the Reconfiguration Manager to install any quorum
//      changes the Oracle recommends (fine-grain, per-object);
//   3. broadcast the next top-k set to monitor (NEWTOPK);
//   4. stop fine-grain optimization when the average KPI improvement over
//      the last γ rounds falls below θ, then perform the coarse tail
//      optimization: one quorum for all non-optimized objects, predicted
//      from their aggregate profile.
//
// Beyond the paper's pseudo-code, the manager keeps running in a steady
// monitoring mode after convergence (the paper's prototype reacts to
// workload changes with a 30 s moving average and a post-reconfiguration
// quarantine period): it re-checks optimized objects and the tail for
// drift, and restarts fine-grain optimization when the KPI degrades
// markedly relative to the converged baseline.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "autonomic/filters.hpp"
#include "kv/quorum.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "oracle/oracle.hpp"
#include "reconfig/reconfig_manager.hpp"
#include "reconfig/replicated_rm.hpp"
#include "sim/failure_detector.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace qopt::oracle {
class StrategyOptimizer;  // optional richer backend, detected at runtime
}

namespace qopt::autonomic {

enum class Kpi { kThroughput, kLatency };

struct AutonomicOptions {
  Duration round_window = seconds(10);   // per-round monitoring window
  std::size_t topk_per_round = 8;        // objects optimized per round (k)
  double improvement_threshold = 0.02;   // θ
  std::size_t improvement_window = 2;    // γ
  Duration quarantine = seconds(5);      // settle time after a reconfig
  oracle::QuorumConstraints constraints;
  double restart_drop_fraction = 0.25;   // KPI drop that restarts tuning
  Kpi kpi = Kpi::kThroughput;
  // Robustness add-ons (Section 4's suggested techniques):
  bool filter_kpi_outliers = true;   // Hampel filter on per-round KPI
  bool detect_workload_shift = true;  // Page-Hinkley on tail write ratio
  bool drift_hysteresis = true;  // two-round agreement before steady drift
};

class AutonomicManager {
 public:
  using Net = sim::Network<kv::Message>;
  /// Observer for adaptation traces: (virtual time, description).
  using EventCallback = std::function<void(Time, const std::string&)>;

  /// `obs` is the deployment's observability bundle; it must outlive the
  /// AM.
  AutonomicManager(sim::Simulator& sim, Net& net, sim::NodeId self,
                   sim::FailureDetector& fd,
                   reconfig::ReplicatedRm& rm, oracle::Oracle& oracle,
                   std::vector<sim::NodeId> proxies, int replication,
                   const AutonomicOptions& options,
                   obs::Observability& obs);

  /// Starts the optimization loop (round 1 begins immediately).
  void start();
  void stop();
  bool running() const noexcept { return running_; }

  void on_message(const sim::NodeId& from, const kv::Message& msg);
  void set_event_callback(EventCallback cb) { on_event_ = std::move(cb); }

  bool converged() const noexcept { return mode_ == Mode::kSteady; }
  std::uint64_t round() const noexcept { return round_; }
  double last_kpi() const noexcept { return last_kpi_; }

 private:
  enum class Mode { kFineGrain, kSteady };

  void begin_round();
  void handle_round_stats(const sim::NodeId& from,
                          const kv::RoundStatsMsg& stats);
  void maybe_process_round();
  void process_round();
  void process_fine_grain(const std::vector<kv::ObjectStats>& merged_topk,
                          const kv::TailStats& tail,
                          std::vector<kv::TopKReport> merged_candidates);
  void process_steady(const std::vector<kv::ObjectStats>& merged_topk,
                      const kv::TailStats& tail);
  void finish_fine_grain(const kv::TailStats& tail);
  void schedule_next_round(bool reconfigured);
  void broadcast_new_topk(std::vector<kv::ObjectId> monitored);
  void emit(const std::string& what);

  /// Oracle prediction for a profile; returns 0 when there is not enough
  /// data to act.
  int predict(std::uint64_t reads, std::uint64_t writes, double avg_size,
              double window_s) const;
  /// Fewest operations a profile needs before the Oracle sees it.
  static constexpr std::uint64_t kMinSamplesPerObject = 10;
  /// Workload characterization for the Oracle; nullopt below
  /// kMinSamplesPerObject.
  std::optional<oracle::WorkloadFeatures> features_for(
      std::uint64_t reads, std::uint64_t writes, double avg_size,
      double window_s) const;
  /// Tail (store-wide default) target: a full optimized strategy when the
  /// oracle is a StrategyOptimizer, otherwise the majority grid derived
  /// from the predicted write-quorum size. Nullopt when there is not
  /// enough data.
  std::optional<kv::QuorumStrategy> predict_tail_strategy(
      const kv::TailStats& tail, double window_s) const;

  sim::Simulator& sim_;
  Net& net_;
  sim::NodeId self_;
  sim::FailureDetector& fd_;
  /// Requests go through the RM service; reads of installed quorums come
  /// from committed(), replica 0's applied state, so they do not depend on
  /// which replica currently leads.
  reconfig::ReplicatedRm& rm_;
  const reconfig::ReconfigManager& committed() const { return rm_.rm(0); }
  oracle::Oracle& oracle_;
  /// Non-null when `oracle_` is a StrategyOptimizer: the tail optimization
  /// then installs full optimized strategies instead of majority grids.
  oracle::StrategyOptimizer* strategy_opt_ = nullptr;
  std::vector<sim::NodeId> proxies_;
  int replication_;
  AutonomicOptions options_;

  bool running_ = false;
  Mode mode_ = Mode::kFineGrain;
  std::uint64_t round_ = 0;
  std::uint64_t generation_ = 0;  // invalidates stale timers across stop()

  // Round gathering, ordered by proxy index: report merging accumulates
  // floating-point sums, so the merge order is part of the result.
  std::map<std::uint32_t, kv::RoundStatsMsg> reports_;
  bool gathering_ = false;

  // Monitored hotspot set (sent in the last NEWTOPK).
  std::vector<kv::ObjectId> monitored_;

  // KPI tracking.
  double last_kpi_ = 0.0;
  bool have_kpi_ = false;
  std::deque<double> improvements_;
  MovingAverage steady_baseline_;
  std::size_t steady_rotation_ = 0;
  // Steady-mode hysteresis; empty when the previous round made no
  // prediction.
  std::optional<kv::QuorumStrategy> last_tail_prediction_;
  std::unordered_map<kv::ObjectId, kv::QuorumConfig> last_object_prediction_;

  // Robust signal processing over the autonomic loop's inputs.
  OutlierFilter kpi_filter_;
  ShiftDetector workload_shift_;   // watches the tail write ratio

  // Observability: counters cached at construction, bumped on the hot path.
  obs::Observability& obs_;
  struct Instruments {
    obs::Counter* rounds = nullptr;
    obs::Counter* fine_grain_reconfigs = nullptr;
    obs::Counter* objects_tuned = nullptr;
    obs::Counter* tail_reconfigs = nullptr;
    obs::Counter* steady_reconfigs = nullptr;
    obs::Counter* restarts = nullptr;
    obs::Gauge* round = nullptr;
    obs::Gauge* last_kpi = nullptr;
  };
  Instruments ins_;

  EventCallback on_event_;
};

}  // namespace qopt::autonomic
