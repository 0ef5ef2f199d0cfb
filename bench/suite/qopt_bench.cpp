// qopt_bench — the Q-OPT simulator's benchmark: four closed-loop workloads
// on the paper testbed, measured end to end (virtual-time throughput and
// latency, plus the host cost of simulating them) and, with --trace, layer
// by layer. bench/suite/README.md gives the workloads, metrics and bounds.
//
// Usage:
//   qopt_bench --workload <name> [--seed S] [--seconds N] [--trace] [--smoke]
//
// One invocation runs one workload on each of its fixed deployments,
// with operation streams drawn from --seed, and pools their measurement
// windows. Each deployment:
//   1. builds and preloads the cluster (timed: set-up);
//   2. warms up, untimed;
//   3. resets Metrics and the engine profiler and snapshots the registry, so
//      every counter below is a delta over the window alone;
//   4. runs the measured window in slices timed with a steady clock;
//   5. stops the clients and drains, untimed, so stuck operations show.
// Windows are fixed in virtual time (scaled by --seconds / 10), so two
// builds of the simulator do the same simulated work.
//
// With --trace every deployment runs twice: once with every instrument off,
// then with the profiler, span sampling, the send tap and the timing
// decorators on. The two runs must agree on every virtual-time result (probe
// neutrality), and the profiler's per-subsystem events must sum to the
// window's engine events.
//
// Output: one "workload metric value unit" line per metric, then one JSON
// line {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
// without --trace, per-layer metrics with it. Exit status 1 when a
// correctness gate fails, 2 on a usage error.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "autonomic/autonomic_manager.hpp"
#include "core/cluster.hpp"
#include "kv/quorum.hpp"
#include "kv/types.hpp"
#include "obs/critical_path.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/span_store.hpp"
#include "oracle/oracle.hpp"
#include "sim/ids.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace {

using namespace qopt;

constexpr Duration kDrain = seconds(20);
// The window runs in slices of this much virtual time, each timed on its
// own. Other processes on the host only ever slow a slice down, so the
// upper quartile of the slice rates resists their bursts: over six
// identical runs it ranged 4%, the mean rate 13%. A slowdown of the whole
// host that lasts minutes moves every quantile alike (README.md).
constexpr Duration kSlice = seconds(1);
constexpr std::uint32_t kSpanSampleEvery = 32;
constexpr std::size_t kSpanCompletedLimit = 65'536;

std::uint64_t wall_ns() {
  // qopt-lint: allow(wall-clock) host cost of simulating, not virtual time
  const auto since_epoch = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch)
          .count());
}

/// Current resident set in MiB, from /proc/self/statm (sampled while the
/// deployment's cluster is live; getrusage's high-water mark would carry
/// over from earlier deployments).
double current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long pages_total = 0;
  unsigned long long pages_resident = 0;
  const int matched =
      std::fscanf(f, "%llu %llu", &pages_total, &pages_resident);
  std::fclose(f);
  const long page_size = sysconf(_SC_PAGESIZE);
  if (matched != 2 || page_size <= 0) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(page_size) / (1024.0 * 1024.0);
}

// ------------------------------------------------------------- decorators

/// The benchmark's input generator: draws every client's operations from
/// one stream seeded by --seed (not from the clients' own streams, which
/// the deployment seed fixes), counts them (the denominator of the failure
/// ratio) and, when timed, clocks the wall time spent generating them.
class CountingSource final : public workload::OperationSource {
 public:
  CountingSource(std::shared_ptr<workload::OperationSource> inner, Rng inputs,
                 bool timed)
      : inner_(std::move(inner)), inputs_(inputs), timed_(timed) {}

  workload::Operation next(Rng& /*client*/, Time now) override {
    ++calls_;
    if (!timed_) return inner_->next(inputs_, now);
    const std::uint64_t start = wall_ns();
    const workload::Operation op = inner_->next(inputs_, now);
    ns_ += wall_ns() - start;
    return op;
  }
  std::string describe() const override { return inner_->describe(); }

  void reset() { calls_ = ns_ = 0; }
  std::uint64_t calls() const { return calls_; }
  std::uint64_t ns() const { return ns_; }

 private:
  std::shared_ptr<workload::OperationSource> inner_;
  Rng inputs_;
  bool timed_;
  std::uint64_t calls_ = 0;
  std::uint64_t ns_ = 0;
};

/// LinearRuleOracle with a call counter and timer. Only this oracle is
/// wrapped: the AM recognises a StrategyOptimizer by its dynamic type, so a
/// decorator around one would change what the AM does.
class TimedOracle final : public oracle::Oracle {
 public:
  TimedOracle(int replication, bool timed)
      : inner_(replication), timed_(timed) {}

  int predict_write_quorum(const oracle::WorkloadFeatures& features) override {
    ++calls_;
    if (!timed_) return inner_.predict_write_quorum(features);
    const std::uint64_t start = wall_ns();
    const int w = inner_.predict_write_quorum(features);
    ns_ += wall_ns() - start;
    return w;
  }
  std::string describe() const override { return inner_.describe(); }

  std::uint64_t calls() const { return calls_; }
  std::uint64_t ns() const { return ns_; }

 private:
  oracle::LinearRuleOracle inner_;
  bool timed_;
  std::uint64_t calls_ = 0;
  std::uint64_t ns_ = 0;
};

// -------------------------------------------------------------- workloads

using Preset = std::shared_ptr<workload::OperationSource> (*)(
    std::uint64_t num_keys, std::uint64_t object_bytes,
    kv::ObjectId key_offset);

struct WorkloadSpec {
  std::string_view name;
  Preset preset;        // null: qopt_shift's phased ycsb_b -> backup_c
  std::uint64_t keys;
  std::uint64_t object_bytes;
  // Cluster seeds 1..deployments, the same in every run. The cluster seed
  // fixes replica placement, and with zipfian keys placement decides which
  // storage nodes the hot objects load (per-seed p50 latency on
  // backup_c_64k ranges 14-36 ms), so --seed varies only the operation
  // stream. qopt_shift pools twice as many: its write p50 moves with the
  // AM's input-driven decisions.
  std::uint64_t deployments;
  double window_s;      // virtual seconds per deployment at --seconds 10
  double warmup_s;      // 0: the window starts at t = 0
  double net_loss;
  double client_retry_timeout_s;
};

// Why these four (README.md has the long form): ycsb_b is the paper's
// read-heavy mix, where read fan-out dominates; backup_c_64k drives the
// same layers through the disk-bound write path; qopt_shift is the only
// one that runs the control plane (AM, oracle, two-phase reconfiguration);
// lossy_ycsb_a is the only one where retransmit, fallback and failover
// timers fire. Windows are sized to about 10 s of pooled wall time on a
// 4-core Xeon VM; qopt_shift's is fig5's whole 60 s + 60 s from t = 0.
const std::array<WorkloadSpec, 4> kWorkloads = {{
    {"ycsb_b", workload::ycsb_b, 100'000, 4096, 6, 80, 5, 0.0, 0},
    {"backup_c_64k", workload::backup_c, 100'000, 65'536, 6, 180, 5, 0.0, 0},
    {"qopt_shift", nullptr, 10'000, 4096, 12, 120, 0, 0.0, 0},
    {"lossy_ycsb_a", workload::ycsb_a, 100'000, 4096, 6, 150, 5, 0.01, 1},
}};

std::shared_ptr<workload::OperationSource> make_source(const WorkloadSpec& w,
                                                       Duration window) {
  if (w.preset != nullptr) return w.preset(w.keys, w.object_bytes, 0);
  // fig5's commute pattern: read-heavy day, then upload-only evening.
  return std::make_shared<workload::PhasedWorkload>(
      std::vector<workload::PhasedWorkload::Phase>{
          {window / 2, workload::ycsb_b(w.keys, w.object_bytes)},
          {window / 2, workload::backup_c(w.keys, w.object_bytes)}});
}

// -------------------------------------------------- one deployment's run

/// Virtual self time per critical-path category, summed over sampled ops.
enum CpSlot : std::size_t {
  kCpProxyQueue,
  kCpQuorumWait,
  kCpReplicaRpc,
  kCpStorage,
  kCpRepair,
  kCpOther,
  kCpSlots
};

struct CpSums {
  std::uint64_t ops = 0;
  std::array<double, kCpSlots> ns{};
};

struct DeploymentRun {
  // Virtual-time results: probe neutrality compares these.
  std::uint64_t ops = 0;
  std::uint64_t events = 0;
  double window_s = 0.0;
  LatencyHistogram read_lat;
  LatencyHistogram write_lat;
  std::uint64_t stuck = 0;
  std::uint64_t failures = 0;
  std::uint64_t violations = 0;
  std::uint64_t ops_issued = 0;
  // Host costs.
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> slice_ops_per_s;
  double rss_mb = 0.0;
  // Per-layer instruments (traced runs only).
  obs::ProfileReport profile;
  obs::Snapshot delta;
  std::vector<double> storage_util;
  std::uint64_t client_msgs = 0;   // to or from a client
  std::uint64_t storage_msgs = 0;  // to or from a storage node
  std::uint64_t control_msgs = 0;  // everything else: proxy <-> RM / AM
  LatencyHistogram quorum_wait;
  std::array<CpSums, 2> cp{};  // [0] reads, [1] writes
  std::uint64_t client_failovers = 0;
  std::uint64_t next_ns = 0;
  std::uint64_t oracle_calls = 0;
  std::uint64_t oracle_ns = 0;
};

ClusterConfig cluster_config(const WorkloadSpec& w, std::uint64_t deployment,
                             bool traced) {
  ClusterConfig config;  // the paper testbed: 10 storage, 5 x 10 clients, N=5
  config.seed = deployment;
  config.initial_quorum = kv::QuorumConfig::of(3, 3);  // qopt-lint: quorum(n=5)
  config.net_loss = w.net_loss;
  config.client_retry_timeout = seconds(w.client_retry_timeout_s);
  if (traced) {
    config.profile = true;
    config.span_sample_every = kSpanSampleEvery;
    config.span_completed_limit = kSpanCompletedLimit;
  }
  return config;
}

std::string quorum_wait_name(std::uint32_t proxy) {
  return obs::instrument_name("proxy", proxy, "quorum_wait_ns");
}

void add_critical_paths(const obs::SpanStore& spans,
                        std::array<CpSums, 2>& cp) {
  using obs::Phase;
  for (const obs::CompletedTrace& trace : spans.completed()) {
    if (trace.kind != obs::TraceKind::kRead &&
        trace.kind != obs::TraceKind::kWrite) {
      continue;
    }
    const obs::TraceBreakdown b = obs::critical_path(trace);
    CpSums& sums = cp[trace.kind == obs::TraceKind::kRead ? 0 : 1];
    const auto ns = [&b](Phase p) { return static_cast<double>(b.phase(p)); };
    std::array<double, kCpSlots> slot{};
    slot[kCpProxyQueue] = ns(Phase::kProxyQueue);
    slot[kCpQuorumWait] = ns(Phase::kQuorumWait);
    slot[kCpReplicaRpc] = ns(Phase::kReplicaRead) + ns(Phase::kReplicaWrite);
    slot[kCpStorage] = ns(Phase::kStorageRead) + ns(Phase::kStorageWrite);
    slot[kCpRepair] = ns(Phase::kReadRepair);
    double named = 0.0;
    for (std::size_t i = 0; i < kCpOther; ++i) named += slot[i];
    slot[kCpOther] = static_cast<double>(b.total) - named;
    ++sums.ops;
    for (std::size_t i = 0; i < kCpSlots; ++i) sums.ns[i] += slot[i];
  }
}

DeploymentRun run_deployment(const WorkloadSpec& w, std::uint64_t deployment,
                             Rng inputs, Duration window, Duration warmup,
                             bool traced) {
  DeploymentRun r;
  const ClusterConfig config = cluster_config(w, deployment, traced);
  auto source = std::make_shared<CountingSource>(make_source(w, window),
                                                 inputs, traced);
  auto oracle = std::make_shared<TimedOracle>(config.replication, traced);

  const std::uint64_t setup_start = wall_ns();
  auto cluster = std::make_unique<Cluster>(config);
  cluster->preload(w.keys, w.object_bytes);
  cluster->set_workload(source);
  if (w.preset == nullptr) {
    autonomic::AutonomicOptions tuning;  // fig5's rounds and quarantine
    tuning.round_window = seconds(5);
    tuning.quarantine = seconds(3);
    cluster->enable_autotuning(tuning, oracle);
  }
  r.setup_s = static_cast<double>(wall_ns() - setup_start) / 1e9;

  if (warmup > 0) cluster->run_for(warmup);

  // ---- window start: every counter below covers the window alone.
  cluster->metrics().reset();
  cluster->obs().profiler().reset();
  source->reset();
  const std::uint32_t num_proxies = config.num_proxies;
  if (traced) {
    cluster->obs().spans().clear();
    for (std::uint32_t i = 0; i < num_proxies; ++i) {
      cluster->obs().registry().histogram(quorum_wait_name(i)).reset();
    }
    cluster->network().set_send_tap(
        [&r](const sim::NodeId& from, const sim::NodeId& to) {
          const auto is = [&](sim::NodeKind kind) {
            return from.kind == kind || to.kind == kind;
          };
          if (is(sim::NodeKind::kClient)) {
            ++r.client_msgs;
          } else if (is(sim::NodeKind::kStorage)) {
            ++r.storage_msgs;
          } else {
            ++r.control_msgs;
          }
        });
  }
  std::vector<Duration> busy_before;
  for (std::uint32_t i = 0; i < config.num_storage; ++i) {
    busy_before.push_back(cluster->storage(i).service_pool().total_busy());
  }
  std::uint64_t failures_before = 0;
  std::uint64_t failovers_before = 0;
  for (std::uint32_t i = 0; i < cluster->num_clients(); ++i) {
    failures_before += cluster->client(i).failures();
    failovers_before += cluster->client(i).retries();
  }
  const std::uint64_t events_before = cluster->simulator().events_processed();
  const std::uint64_t oracle_calls_before = oracle->calls();
  const std::uint64_t oracle_ns_before = oracle->ns();
  const obs::Snapshot before = cluster->obs().registry().snapshot();
  const Time window_start = cluster->now();

  for (Duration done = 0; done < window; done += kSlice) {
    const std::uint64_t ops_before = cluster->metrics().total_ops();
    const std::uint64_t slice_start = wall_ns();
    cluster->run_for(std::min(kSlice, window - done));
    const double slice_s =
        static_cast<double>(wall_ns() - slice_start) / 1e9;
    r.wall_s += slice_s;
    r.slice_ops_per_s.push_back(
        static_cast<double>(cluster->metrics().total_ops() - ops_before) /
        slice_s);
  }

  // ---- window end: capture before the drain adds completions.
  r.rss_mb = current_rss_mb();
  r.window_s = to_seconds(cluster->now() - window_start);
  r.ops = cluster->metrics().total_ops();
  r.read_lat = cluster->metrics().read_latency();
  r.write_lat = cluster->metrics().write_latency();
  r.events = cluster->simulator().events_processed() - events_before;
  r.ops_issued = source->calls();
  r.next_ns = source->ns();
  r.oracle_calls = oracle->calls() - oracle_calls_before;
  r.oracle_ns = oracle->ns() - oracle_ns_before;
  r.delta = cluster->obs().registry().snapshot().delta_since(before);
  for (std::uint32_t i = 0; i < config.num_storage; ++i) {
    const auto& pool = cluster->storage(i).service_pool();
    const double capacity = static_cast<double>(cluster->now() - window_start) *
                            static_cast<double>(pool.servers());
    r.storage_util.push_back(
        static_cast<double>(pool.total_busy() - busy_before[i]) / capacity);
  }
  if (traced) {
    cluster->network().set_send_tap(nullptr);
    r.profile = cluster->obs().profiler().report();
    r.quorum_wait = *cluster->obs().registry().find_histogram(
        quorum_wait_name(0));
    for (std::uint32_t i = 1; i < num_proxies; ++i) {
      r.quorum_wait.merge(
          *cluster->obs().registry().find_histogram(quorum_wait_name(i)));
    }
    add_critical_paths(cluster->obs().spans(), r.cp);
  }

  // ---- drain: in-flight operations complete or fail; none may hang.
  cluster->stop_clients();
  cluster->run_for(kDrain);
  std::uint64_t failures_after = 0;
  std::uint64_t failovers_after = 0;
  for (std::uint32_t i = 0; i < cluster->num_clients(); ++i) {
    if (cluster->client(i).op_in_flight()) ++r.stuck;
    failures_after += cluster->client(i).failures();
    failovers_after += cluster->client(i).retries();
  }
  r.failures = failures_after - failures_before;
  r.client_failovers = failovers_after - failovers_before;
  r.violations = cluster->checker().violations().size() +
                 cluster->checker().quorum_violations().size();
  return r;
}

/// Percentile `pct` of `hist`, linearly interpolated inside the bucket that
/// holds it. LatencyHistogram::percentile() answers with the bucket's upper
/// edge, so on its own a percentile moves in 2% steps and reads the same
/// across runs whose distributions differ. The shares of samples below and
/// above the bucket are found by bisection on percentile().
double interpolated_percentile(const LatencyHistogram& hist, double pct) {
  const double upper = hist.percentile(pct);
  if (hist.percentile(0.0) == upper) return upper;
  // Narrows [inside, outside] onto the share where percentile() stops
  // answering `upper`.
  const auto edge = [&](double inside, double outside) {
    for (int i = 0; i < 60; ++i) {
      const double mid = (inside + outside) / 2.0;
      (hist.percentile(mid) == upper ? inside : outside) = mid;
    }
    return std::pair{inside, outside};
  };
  const auto [share_lo, below] = edge(pct, 0.0);
  const double lower = hist.percentile(below);  // previous bucket's edge
  const double share_hi =
      hist.percentile(100.0) == upper ? 100.0 : edge(pct, 100.0).first;
  return lower + (upper - lower) * (pct - share_lo) / (share_hi - share_lo);
}

/// Every virtual-time result of a run, printed exactly: the traced and
/// untraced runs of one deployment must produce the same string.
std::string virtual_digest(const DeploymentRun& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "ops=%llu events=%llu issued=%llu tput=%.17g "
      "r=%llu/%.17g/%.17g w=%llu/%.17g/%.17g stuck=%llu failed=%llu",
      static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.ops_issued),
      static_cast<double>(r.ops) / r.window_s,
      static_cast<unsigned long long>(r.read_lat.count()),
      interpolated_percentile(r.read_lat, 50.0),
      interpolated_percentile(r.read_lat, 99.9),
      static_cast<unsigned long long>(r.write_lat.count()),
      interpolated_percentile(r.write_lat, 50.0),
      interpolated_percentile(r.write_lat, 99.9),
      static_cast<unsigned long long>(r.stuck),
      static_cast<unsigned long long>(r.failures));
  return buf;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // printed on the human line only
};

class Results {
 public:
  explicit Results(std::string_view workload) : workload_(workload) {}

  void add(std::string name, double value, std::string unit,
           std::string note = {}) {
    metrics_.push_back(
        Metric{std::move(name), value, std::move(unit), std::move(note)});
  }

  /// A pooled latency percentile with the sample counts behind it.
  void add_latency(const std::string& name, const LatencyHistogram& hist,
                   double pct) {
    const std::uint64_t n = hist.count();
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    add(name, interpolated_percentile(hist, pct) / 1e6, "ms",
        "samples=" + std::to_string(n) +
            " beyond=" + std::to_string(n - std::min(rank, n)));
  }

  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("%.*s %s %.10g %s%s%s\n",
                  static_cast<int>(workload_.size()), workload_.data(),
                  m.name.c_str(), m.value, m.unit.c_str(),
                  m.note.empty() ? "" : " ", m.note.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      json += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
              value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  std::string_view workload_;
  std::vector<Metric> metrics_;
};

std::uint64_t sum_counters(const obs::Snapshot& delta, std::string_view prefix,
                           std::string_view suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : delta.counters) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += value;
    }
  }
  return total;
}

template <typename F>
double sum_over(const std::vector<DeploymentRun>& runs, F value) {
  double total = 0.0;
  for (const DeploymentRun& r : runs) total += static_cast<double>(value(r));
  return total;
}

template <typename T>
double total(const std::vector<DeploymentRun>& runs, T DeploymentRun::*field) {
  return sum_over(runs, [field](const DeploymentRun& r) { return r.*field; });
}

LatencyHistogram pooled(const std::vector<DeploymentRun>& runs,
                        LatencyHistogram DeploymentRun::*hist) {
  LatencyHistogram out = runs.front().*hist;
  for (std::size_t i = 1; i < runs.size(); ++i) out.merge(runs[i].*hist);
  return out;
}

/// Quantile `q` in [0, 1] of `v`, interpolating between order statistics.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (v[i + 1] - v[i]) * (pos - static_cast<double>(i));
}

/// Simulated ops per wall second: the upper quartile over every timed
/// slice of every deployment's window (see kSlice).
double sim_ops_per_s(const std::vector<DeploymentRun>& runs) {
  std::vector<double> rates;
  for (const DeploymentRun& r : runs) {
    rates.insert(rates.end(), r.slice_ops_per_s.begin(),
                 r.slice_ops_per_s.end());
  }
  return quantile(std::move(rates), 0.75);
}

void add_end_to_end(Results& out, const std::vector<DeploymentRun>& runs) {
  std::vector<double> setups;
  double rss = 0.0;
  for (const DeploymentRun& r : runs) {
    setups.push_back(r.setup_s);
    rss = std::max(rss, r.rss_mb);
  }
  out.add("sim_ops_per_s", sim_ops_per_s(runs), "ops/s");
  out.add("setup_s", quantile(std::move(setups), 0.5), "s");
  out.add("peak_rss_mb", rss, "MiB");
  out.add("throughput_ops",
          total(runs, &DeploymentRun::ops) /
              total(runs, &DeploymentRun::window_s),
          "ops/s");
  const LatencyHistogram reads = pooled(runs, &DeploymentRun::read_lat);
  const LatencyHistogram writes = pooled(runs, &DeploymentRun::write_lat);
  out.add_latency("read_p50_ms", reads, 50.0);
  out.add_latency("read_p999_ms", reads, 99.9);
  out.add_latency("write_p50_ms", writes, 50.0);
  out.add_latency("write_p999_ms", writes, 99.9);
}

const obs::ProfilePhaseRow& row(const obs::ProfileReport& p,
                                obs::ProfSubsystem s) {
  return p.subsystems.at(static_cast<std::size_t>(s));
}

/// Sampled wall time of subsystem `s` scaled up to all of its events.
double scaled_ns(const obs::ProfileReport& p, obs::ProfSubsystem s) {
  const obs::ProfilePhaseRow& r = row(p, s);
  return r.wall_samples ? static_cast<double>(r.wall_ns) *
                              static_cast<double>(r.events) /
                              static_cast<double>(r.wall_samples)
                        : 0.0;
}

void add_per_layer(Results& out, const std::vector<DeploymentRun>& traced,
                   const std::vector<DeploymentRun>& plain) {
  using Run = DeploymentRun;
  using Sub = obs::ProfSubsystem;
  const auto& runs = traced;
  const double ops = total(runs, &Run::ops);
  const auto ratio = [](double v, double base) {
    return base > 0 ? v / base : 0.0;
  };
  const auto per_op = [&](double v) { return ratio(v, ops); };
  const auto per_kop = [&](double v) { return ratio(v, ops / 1000.0); };
  const auto counters = [&runs](std::string_view prefix,
                                std::string_view suffix = {}) {
    return sum_over(runs, [&](const Run& r) {
      return sum_counters(r.delta, prefix, suffix);
    });
  };
  const auto layer = [&runs](Sub s, auto field) {
    return sum_over(runs, [&](const Run& r) { return field(r.profile, s); });
  };
  const auto events = [](const obs::ProfileReport& p, Sub s) {
    return row(p, s).events;
  };
  const auto allocs = [](const obs::ProfileReport& p, Sub s) {
    return row(p, s).allocs;
  };
  const auto ms = [](double ns) { return ns / 1e6; };

  // ---- sim: engine
  double attributed_ns = 0.0;
  double all_allocs = 0.0;
  std::vector<double> depth_p50;
  std::vector<double> dwell_p99;
  double depth_max = 0.0;
  for (const Run& r : runs) {
    for (std::size_t s = 0; s < obs::kProfSubsystemCount; ++s) {
      attributed_ns += scaled_ns(r.profile, static_cast<Sub>(s));
      all_allocs += static_cast<double>(r.profile.subsystems[s].allocs);
    }
    depth_p50.push_back(r.profile.queue_depth.p50);
    dwell_p99.push_back(r.profile.dwell_ns.p99);
    depth_max = std::max(depth_max, static_cast<double>(r.profile.max_depth));
  }
  out.add("sim.events_per_op", per_op(total(runs, &Run::events)),
          "events/op");
  out.add("sim.unattributed_ns_per_op",
          per_op(total(runs, &Run::wall_s) * 1e9 - attributed_ns), "ns/op");
  out.add("sim.allocs_per_op", per_op(all_allocs), "allocs/op");
  out.add("sim.queue_depth_p50", quantile(depth_p50, 0.5), "events");
  out.add("sim.queue_depth_max", depth_max, "events");
  out.add("sim.dwell_p99_ms", ms(quantile(dwell_p99, 0.5)), "ms");
  out.add("sim.fifo_clamps_per_kop", per_kop(sum_over(runs, [](const Run& r) {
            return r.profile.fifo_clamps;
          })),
          "count/kop");

  // ---- sim: network
  out.add("net.msgs_per_op", per_op(counters("net.messages_sent")),
          "msgs/op");
  out.add("net.client_msgs_per_op", per_op(total(runs, &Run::client_msgs)),
          "msgs/op");
  out.add("net.storage_msgs_per_op", per_op(total(runs, &Run::storage_msgs)),
          "msgs/op");
  out.add("net.control_msgs_per_op", per_op(total(runs, &Run::control_msgs)),
          "msgs/op");
  out.add("net.drops_per_kop", per_kop(counters("net.dropped.")),
          "count/kop");

  // ---- proxy
  const LatencyHistogram quorum_wait = pooled(runs, &Run::quorum_wait);
  out.add("proxy.events_per_op", per_op(layer(Sub::kProxy, events)),
          "events/op");
  out.add("proxy.allocs_per_op", per_op(layer(Sub::kProxy, allocs)),
          "allocs/op");
  out.add("proxy.ns_per_op", per_op(layer(Sub::kProxy, scaled_ns)), "ns/op");
  out.add("proxy.quorum_wait_p50_ms",
          ms(interpolated_percentile(quorum_wait, 50.0)), "ms");
  out.add("proxy.quorum_wait_p99_ms",
          ms(interpolated_percentile(quorum_wait, 99.0)), "ms");
  out.add("proxy.retries_per_kop", per_kop(counters("proxy.", ".retries")),
          "count/kop");
  out.add("proxy.fallbacks_per_kop", per_kop(counters("proxy.", ".fallbacks")),
          "count/kop");
  out.add("proxy.repair_reads_per_kop",
          per_kop(counters("proxy.", ".repair_reads")), "count/kop");
  out.add("proxy.nacks_per_kop",
          per_kop(counters("proxy.", ".nacks_received")), "count/kop");
  out.add("proxy.duplicate_replies_per_kop",
          per_kop(counters("proxy.", ".duplicate_replies")), "count/kop");
  out.add("proxy.timeouts", counters("proxy.", ".timeouts"), "count");

  // ---- kv: storage
  std::vector<double> utils;
  for (const Run& r : runs) {
    utils.insert(utils.end(), r.storage_util.begin(), r.storage_util.end());
  }
  out.add("storage.events_per_op", per_op(layer(Sub::kStorage, events)),
          "events/op");
  out.add("storage.allocs_per_op", per_op(layer(Sub::kStorage, allocs)),
          "allocs/op");
  out.add("storage.ns_per_op", per_op(layer(Sub::kStorage, scaled_ns)),
          "ns/op");
  out.add("storage.util_mean",
          ratio(std::accumulate(utils.begin(), utils.end(), 0.0),
                static_cast<double>(utils.size())),
          "ratio");
  out.add("storage.util_max", quantile(utils, 1.0), "ratio");
  out.add("storage.reads_per_op",
          per_op(counters("storage.", ".reads_served")), "reads/op");
  out.add("storage.writes_per_op",
          per_op(counters("storage.", ".writes_applied")), "writes/op");
  out.add("storage.dup_writes_per_kop",
          per_kop(counters("storage.", ".dup_writes_ignored")), "count/kop");
  out.add("storage.discarded_writes_per_kop",
          per_kop(counters("storage.", ".writes_discarded")), "count/kop");

  // ---- core: client
  out.add("client.events_per_op", per_op(layer(Sub::kClient, events)),
          "events/op");
  out.add("client.allocs_per_op", per_op(layer(Sub::kClient, allocs)),
          "allocs/op");
  out.add("client.ns_per_op", per_op(layer(Sub::kClient, scaled_ns)),
          "ns/op");
  out.add("client.failovers_per_kop",
          per_kop(total(runs, &Run::client_failovers)), "count/kop");

  // ---- workload
  const double issued = total(runs, &Run::ops_issued);
  out.add("workload.next_ns", ratio(total(runs, &Run::next_ns), issued), "ns");
  out.add("workload.ops_issued", issued, "count");

  // ---- autonomic, oracle, reconfig
  const double oracle_calls = total(runs, &Run::oracle_calls);
  const double reconfigs = counters("rm.reconfigurations_completed");
  out.add("am.rounds", counters("am.rounds"), "count");
  out.add("am.objects_tuned", counters("am.objects_tuned"), "count");
  out.add("am.reconfigs", counters("am.fine_grain_reconfigs") +
                              counters("am.tail_reconfigs") +
                              counters("am.steady_reconfigs"),
          "count");
  out.add("oracle.calls", oracle_calls, "count");
  out.add("oracle.ns_per_call",
          ratio(total(runs, &Run::oracle_ns), oracle_calls), "ns");
  out.add("rm.reconfigurations", reconfigs, "count");
  out.add("rm.round_ms", ms(ratio(counters("rm.reconfig_time_ns"), reconfigs)),
          "ms");
  out.add("rm.retries", counters("rm.retries"), "count");

  // ---- critical path: virtual self time per sampled op
  for (std::size_t kind = 0; kind < 2; ++kind) {
    CpSums sums;
    for (const Run& r : runs) {
      sums.ops += r.cp[kind].ops;
      for (std::size_t i = 0; i < kCpSlots; ++i) {
        sums.ns[i] += r.cp[kind].ns[i];
      }
    }
    const std::string prefix = kind == 0 ? "cp.read." : "cp.write.";
    const auto slot_ms = [&](CpSlot slot) {
      return ms(ratio(sums.ns[slot], static_cast<double>(sums.ops)));
    };
    out.add(prefix + "proxy_queue_ms", slot_ms(kCpProxyQueue), "ms");
    out.add(prefix + "quorum_wait_ms", slot_ms(kCpQuorumWait), "ms");
    out.add(prefix + "replica_rpc_ms", slot_ms(kCpReplicaRpc), "ms");
    out.add(prefix + "storage_ms", slot_ms(kCpStorage), "ms");
    if (kind == 0) out.add(prefix + "repair_ms", slot_ms(kCpRepair), "ms");
    out.add(prefix + "other_ms", slot_ms(kCpOther), "ms");
  }

  // ---- obs: cost of the instruments themselves
  const double untraced = sim_ops_per_s(plain);
  out.add("obs.trace_overhead_pct",
          (untraced - sim_ops_per_s(traced)) / untraced * 100.0, "%");
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: qopt_bench --workload <ycsb_b|backup_c_64k|qopt_shift|"
               "lossy_ycsb_a> [--seed S] [--seconds N] [--trace] "
               "[--smoke]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double wall_budget_s = 10.0;
  bool trace = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      wall_budget_s = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      usage();
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == workload_name) spec = &w;
  }
  if (spec == nullptr || !(wall_budget_s > 0.0)) usage();

  // --smoke: one deployment and 2 virtual s windows, enough to exercise every
  // metric's code path in a few seconds.
  const std::uint64_t deployments = smoke ? 1 : spec->deployments;
  const Duration window =
      smoke ? seconds(2) : seconds(spec->window_s * wall_budget_s / 10.0);
  const Duration warmup =
      spec->warmup_s > 0 ? seconds(smoke ? 1.0 : spec->warmup_s) : 0;

  std::vector<DeploymentRun> plain;
  std::vector<DeploymentRun> traced;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;
  const auto check = [&](bool ok, std::uint64_t s, const char* what) {
    if (ok) return;
    correct = false;
    std::fprintf(stderr, "qopt_bench: %s deployment %llu: %s\n",
                 workload_name.c_str(), static_cast<unsigned long long>(s),
                 what);
  };
  const auto gate = [&](const DeploymentRun& r, std::uint64_t s) {
    attempted += r.ops_issued;
    failed += r.failures + r.stuck;
    violations += r.violations;
    check(r.ops > 0, s, "no operation completed in the window");
    check(r.violations == 0, s, "consistency violations");
    check(r.stuck == 0, s, "clients stuck after the drain");
  };
  for (std::uint64_t s = 1; s <= deployments; ++s) {
    const Rng inputs = Rng(seed).fork(s);
    plain.push_back(
        run_deployment(*spec, s, inputs, window, warmup, /*traced=*/false));
    gate(plain.back(), s);
    if (!trace) continue;
    traced.push_back(
        run_deployment(*spec, s, inputs, window, warmup, /*traced=*/true));
    const DeploymentRun& t = traced.back();
    gate(t, s);
    check(t.profile.events_total == t.events, s,
          "profiler subsystem events do not sum to the window's events");
    check(virtual_digest(t) == virtual_digest(plain.back()), s,
          "traced run differs from the untraced run in virtual time");
  }

  Results out(spec->name);
  if (trace) {
    add_per_layer(out, traced, plain);
  } else {
    add_end_to_end(out, plain);
  }
  std::printf("%s gate consistency_violations %llu count\n",
              workload_name.c_str(),
              static_cast<unsigned long long>(violations));
  std::printf("%s gate op_failure_ratio %.10g ratio\n", workload_name.c_str(),
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 0.0);
  out.print(correct, std::max<std::uint64_t>(attempted, 1), failed);
  return correct ? 0 : 1;
}
