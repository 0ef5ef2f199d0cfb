// Shared helpers for the paper-reproduction bench harnesses.
//
// Measurement flows through `Cluster::report()`: `run_and_report()` runs the
// warmup/measure phases and hands back one `obs::RunReport` with everything
// the harnesses print (throughput, latencies, quorum state, message and
// consistency accounting) instead of each bench polling six stats structs.
#pragma once

#include <cstdio>
#include <string>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "obs/report.hpp"
#include "obs/span_export.hpp"
#include "util/time.hpp"

namespace qopt::bench {

/// The Section-2.2 motivating setup: one proxy, 10 closed-loop clients,
/// replication degree 5 over 10 storage nodes.
inline ExperimentSpec figure2_spec() {
  ExperimentSpec spec;
  spec.cluster.num_storage = 10;
  spec.cluster.num_proxies = 1;
  spec.cluster.clients_per_proxy = 10;
  spec.cluster.replication = 5;
  spec.cluster.seed = 42;
  spec.preload_objects = 20'000;
  spec.warmup = seconds(2);
  spec.measure = seconds(12);
  return spec;
}

/// The sweep setup used for the ~170-workload study (10 clients per proxy,
/// as stated in Section 2.2 for Figure 3).
inline ExperimentSpec sweep_spec() {
  ExperimentSpec spec;
  spec.cluster.num_storage = 10;
  spec.cluster.num_proxies = 1;
  spec.cluster.clients_per_proxy = 10;
  spec.cluster.replication = 5;
  spec.cluster.seed = 17;
  spec.cluster.check_consistency = false;  // pure performance runs
  spec.preload_objects = 2'000;
  spec.warmup = seconds(1);
  spec.measure = seconds(4);
  return spec;
}

inline const char* corpus_cache_path() { return "qopt_corpus_cache.csv"; }

/// Runs warmup then the measurement window on an already-configured cluster
/// and returns the windowed whole-cluster report (throughput and workload
/// totals cover the measurement window only).
inline obs::RunReport run_and_report(Cluster& cluster, Duration warmup,
                                     Duration measure) {
  cluster.run_for(warmup);
  const Time t0 = cluster.now();
  cluster.run_for(measure);
  return cluster.report(t0, cluster.now());
}

/// Convenience: `run_and_report` with the spec's warmup/measure phases.
inline obs::RunReport run_and_report(Cluster& cluster,
                                     const ExperimentSpec& spec) {
  return run_and_report(cluster, spec.warmup, spec.measure);
}

inline void print_report(const obs::RunReport& report) {
  std::fputs(report.render().c_str(), stdout);
}

/// Writes `content` to `path`; returns false (with a stderr note) on error.
inline bool write_text_file(const std::string& path,
                            const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

/// Dumps the cluster's completed span traces and instant events as Chrome
/// trace_event JSON (load in Perfetto / chrome://tracing). Requires span
/// tracing enabled (`ClusterConfig::span_sample_every > 0`).
inline bool export_chrome_trace(const Cluster& cluster,
                                const std::string& path) {
  return write_text_file(path, obs::to_chrome_json(cluster.obs().spans()));
}

/// Same spans as a flat CSV (one row per span).
inline bool export_span_csv(const Cluster& cluster, const std::string& path) {
  return write_text_file(path,
                         obs::to_span_csv(cluster.obs().spans().completed()));
}

inline void print_header(const std::string& title,
                         const std::string& paper_claim) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("---------------------------------------------------------------"
              "-----------------\n");
}

}  // namespace qopt::bench
