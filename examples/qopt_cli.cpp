// qopt_cli — parameterized simulator CLI.
//
// Drives a full cluster from the command line: workload mix, object size,
// topology, static quorum or Q-OPT autotuning, failure injection, and
// human/CSV/JSON output — all three render the same Cluster::report().
// Useful for exploring the configuration space without writing code.
//
// Examples:
//   ./build/examples/qopt_cli --workload ycsb-b --read-q 1 --write-q 5
//   ./build/examples/qopt_cli --workload sweep --write-ratio 0.7
//       --object-bytes 65536 --autotune --duration 120
//   ./build/examples/qopt_cli --workload ycsb-a --autotune
//       --crash-proxy 2 --crash-at 30 --csv
//   ./build/examples/qopt_cli --workload sweep --write-ratio 0.5
//       --strategy-optimizer
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "autonomic/autonomic_manager.hpp"
#include "core/cluster.hpp"
#include "core/nemesis.hpp"
#include "kv/quorum.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/span_export.hpp"
#include "oracle/strategy_optimizer.hpp"
#include "sim/ids.hpp"
#include "util/flags.hpp"
#include "util/time.hpp"
#include "workload/trace.hpp"
#include "workload/workload.hpp"

namespace {

void usage() {
  std::printf(
      "qopt_cli — Q-OPT cluster simulator\n\n"
      "workload:   --workload ycsb-a|ycsb-b|backup-c|sweep   (default ycsb-a)\n"
      "            --write-ratio F   (sweep only, default 0.5)\n"
      "            --objects N       (default 10000)\n"
      "            --object-bytes N  (default 4096)\n"
      "topology:   --storage N --proxies N --clients-per-proxy N\n"
      "            --replication N   (default 5)\n"
      "            --rm-replicas N   (replicated RM with leader failover;\n"
      "                               default 1 = single RM)\n"
      "quorum:     --read-q N --write-q N   (static; default 3/3)\n"
      "            --autotune [--round-window S] [--topk N]\n"
      "            --strategy-optimizer  (autotune with the quoracle-style\n"
      "             strategy optimizer: tail reconfigurations may install\n"
      "             weighted non-majority quorum systems; implies --autotune)\n"
      "run:        --duration S (default 60) --warmup S (default 5)\n"
      "            --seed N --csv --json\n"
      "tracing:    --trace-out FILE   (causal spans + instant events such as\n"
      "                                crashes and drops, Chrome trace_event\n"
      "                                JSON — load in Perfetto /\n"
      "                                chrome://tracing)\n"
      "            --trace-csv FILE   (same spans as flat CSV)\n"
      "            --trace-sample N   (every Nth trace per kind; default 1)\n"
      "            --record-ops FILE  (record the executed workload ops)\n"
      "profiling:  --profile          (engine self-profiler: per-subsystem\n"
      "                                cost attribution + queue telemetry in\n"
      "                                the report; see docs/OBSERVABILITY.md)\n"
      "            --profile-trace FILE  (per-event timeline, Chrome\n"
      "                                trace_event JSON; implies --profile)\n"
      "faults:     --crash-proxy I --crash-storage I --crash-at S\n"
      "            --anti-entropy\n"
      "            --nemesis [--nemesis-interval MS]  (chaos schedule)\n"
      "            --nemesis-partitions  (adds partition/loss-burst/restart\n"
      "                                   events to the --nemesis schedule)\n"
      "            --nemesis-rm  (adds RM-leader crash/partition events to\n"
      "                           the --nemesis schedule; needs\n"
      "                           --rm-replicas >= 3)\n"
      "network:    --net-loss P   (per-message drop probability, [0,1])\n"
      "            --net-dup P    (per-message duplication probability)\n"
      "            --retry-budget N   (proxy retransmit rounds; default 6,\n"
      "                                0 = never retransmit or fail ops)\n"
      "            --client-retry MS  (client proxy-failover timeout;\n"
      "                                defaults to 1000 on lossy links)\n"
      "            --partition s0,s1@START+HOLD  (isolate the listed nodes\n"
      "             at START seconds, heal HOLD seconds later; sN = storage\n"
      "             node N, pN = proxy N)\n");
}

// A scheduled "--partition s0,s1@10+2" request: isolate the listed nodes
// at `start` seconds, heal `hold` seconds later.
struct PartitionSpec {
  std::vector<qopt::sim::NodeId> nodes;
  double start = 0;
  double hold = 0;
};

bool parse_partition(const std::string& spec, const qopt::ClusterConfig& config,
                     PartitionSpec* out) {
  const std::size_t at = spec.find('@');
  const std::size_t plus = spec.find('+', at == std::string::npos ? 0 : at);
  if (at == std::string::npos || plus == std::string::npos || at == 0) {
    std::fprintf(stderr, "--partition: expected NODES@START+HOLD, got %s\n",
                 spec.c_str());
    return false;
  }
  std::string nodes = spec.substr(0, at);
  while (!nodes.empty()) {
    const std::size_t comma = nodes.find(',');
    const std::string token = nodes.substr(0, comma);
    nodes = comma == std::string::npos ? "" : nodes.substr(comma + 1);
    if (token.size() < 2 || (token[0] != 's' && token[0] != 'p')) {
      std::fprintf(stderr, "--partition: bad node %s (want sN or pN)\n",
                   token.c_str());
      return false;
    }
    char* end = nullptr;
    const unsigned long index = std::strtoul(token.c_str() + 1, &end, 10);
    const auto limit = token[0] == 's' ? config.num_storage
                                       : config.num_proxies;
    if (*end != '\0' || index >= limit) {
      std::fprintf(stderr, "--partition: node %s out of range (limit %u)\n",
                   token.c_str(), limit);
      return false;
    }
    const auto i = static_cast<std::uint32_t>(index);
    out->nodes.push_back(token[0] == 's' ? qopt::sim::storage_id(i)
                                         : qopt::sim::proxy_id(i));
  }
  char* end = nullptr;
  out->start = std::strtod(spec.c_str() + at + 1, &end);
  out->hold = std::strtod(spec.c_str() + plus + 1, nullptr);
  if (out->nodes.empty() || out->start < 0 || out->hold <= 0) {
    std::fprintf(stderr, "--partition: bad schedule in %s\n", spec.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qopt;
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }

  ClusterConfig config;
  config.num_storage =
      static_cast<std::uint32_t>(flags.get_int("storage", 10));
  config.num_proxies =
      static_cast<std::uint32_t>(flags.get_int("proxies", 5));
  config.clients_per_proxy =
      static_cast<std::uint32_t>(flags.get_int("clients-per-proxy", 10));
  config.replication = static_cast<int>(flags.get_int("replication", 5));
  config.rm_replicas =
      static_cast<std::uint32_t>(flags.get_int("rm-replicas", 1));
  config.initial_quorum =
      kv::QuorumConfig::of(static_cast<int>(flags.get_int("read-q", 3)),
                           static_cast<int>(flags.get_int("write-q", 3)));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  config.net_loss = flags.get_double("net-loss", 0.0);
  config.net_duplication = flags.get_double("net-dup", 0.0);
  if (config.net_loss < 0 || config.net_loss > 1 ||
      config.net_duplication < 0 || config.net_duplication > 1) {
    std::fprintf(stderr,
                 "--net-loss/--net-dup must be probabilities in [0, 1]\n");
    return 2;
  }
  const std::int64_t retry_budget = flags.get_int("retry-budget", 6);
  if (retry_budget < 0) {
    std::fprintf(stderr, "--retry-budget must be >= 0\n");
    return 2;
  }
  config.proxy.retry_budget = static_cast<int>(retry_budget);

  PartitionSpec partition;
  const std::string partition_spec = flags.get_string("partition", "");
  if (!partition_spec.empty() &&
      !parse_partition(partition_spec, config, &partition)) {
    return 2;
  }

  // Proxies retransmit lost storage RPCs, but the client<->proxy hop has no
  // retransmit of its own — the client's proxy-failover timer is the
  // at-least-once layer there. Default it on whenever links can drop.
  const bool nemesis_partitions = flags.get_bool("nemesis-partitions", false);
  const bool nemesis_rm = flags.get_bool("nemesis-rm", false);
  if (nemesis_rm && config.rm_replicas < 3) {
    std::fprintf(stderr, "--nemesis-rm needs --rm-replicas >= 3 (a single "
                         "RM fault must leave a live majority)\n");
    return 2;
  }
  const bool lossy = config.net_loss > 0 || nemesis_partitions;
  config.client_retry_timeout =
      milliseconds(flags.get_int("client-retry", lossy ? 1000 : 0));

  const auto objects =
      static_cast<std::uint64_t>(flags.get_int("objects", 10'000));
  const auto object_bytes =
      static_cast<std::uint64_t>(flags.get_int("object-bytes", 4096));
  const std::string workload_name = flags.get_string("workload", "ycsb-a");
  const double duration_s = flags.get_double("duration", 60);
  const double warmup_s = flags.get_double("warmup", 5);
  const bool csv = flags.get_bool("csv", false);
  const bool json = flags.get_bool("json", false);

  std::shared_ptr<workload::OperationSource> source;
  if (workload_name == "ycsb-a") {
    source = workload::ycsb_a(objects, object_bytes);
  } else if (workload_name == "ycsb-b") {
    source = workload::ycsb_b(objects, object_bytes);
  } else if (workload_name == "backup-c") {
    source = workload::backup_c(objects, object_bytes);
  } else if (workload_name == "sweep") {
    source = workload::sweep_point(flags.get_double("write-ratio", 0.5),
                                   object_bytes, objects);
  } else {
    std::fprintf(stderr, "unknown --workload %s\n", workload_name.c_str());
    usage();
    return 2;
  }

  std::shared_ptr<workload::RecordingSource> recorder;
  const std::string record_ops = flags.get_string("record-ops", "");
  if (!record_ops.empty()) {
    recorder = std::make_shared<workload::RecordingSource>(source);
    source = recorder;
  }

  const std::string trace_out = flags.get_string("trace-out", "");
  const std::string trace_csv = flags.get_string("trace-csv", "");
  if (!trace_out.empty() || !trace_csv.empty()) {
    config.span_sample_every =
        static_cast<std::uint32_t>(flags.get_int("trace-sample", 1));
  }
  const std::string profile_trace = flags.get_string("profile-trace", "");
  config.profile = flags.get_bool("profile", false) || !profile_trace.empty();

  Cluster cluster(config);
  if (!profile_trace.empty()) {
    // Per-event timeline slices; bounded so a long run degrades to a
    // truncated trace (timeline_dropped in the report) rather than OOM.
    cluster.obs().profiler().enable_timeline(1u << 20);
  }
  cluster.preload(objects, object_bytes);
  cluster.set_workload(source);

  const bool strategy_optimizer = flags.get_bool("strategy-optimizer", false);
  if (flags.get_bool("autotune", false) || strategy_optimizer) {
    autonomic::AutonomicOptions tuning;
    tuning.round_window =
        seconds(flags.get_double("round-window", 10));
    tuning.topk_per_round =
        static_cast<std::size_t>(flags.get_int("topk", 8));
    if (strategy_optimizer) {
      cluster.enable_autotuning(tuning, std::make_shared<oracle::StrategyOptimizer>(
                                            config.replication));
    } else {
      cluster.enable_autotuning(tuning);
    }
    if (!csv) {
      cluster.am()->set_event_callback([](Time t, const std::string& what) {
        std::printf("# [%7.1fs] %s\n", to_seconds(t), what.c_str());
      });
    }
  }
  if (flags.get_bool("anti-entropy", false)) cluster.enable_anti_entropy();

  std::unique_ptr<Nemesis> nemesis;
  if (flags.get_bool("nemesis", false) || nemesis_partitions || nemesis_rm) {
    NemesisOptions chaos;
    chaos.mean_interval =
        milliseconds(flags.get_int("nemesis-interval", 500));
    chaos.seed = config.seed;
    if (nemesis_partitions) {
      chaos.partition = 1.0;
      chaos.loss_burst = 1.0;
      chaos.restart = 2.0;  // recover what the schedule crashes
    }
    if (nemesis_rm) {
      chaos.rm_crash = 1.0;
      chaos.rm_partition = 1.0;
    }
    nemesis = std::make_unique<Nemesis>(cluster, chaos);
    nemesis->start();
  }

  if (!partition.nodes.empty()) {
    cluster.simulator().at(
        seconds(partition.start), [&cluster, &partition] {
          const std::uint64_t id = cluster.isolate(partition.nodes);
          cluster.simulator().after(seconds(partition.hold),
                                    [&cluster, id] {
                                      cluster.heal_partition(id);
                                    });
        });
  }

  const double crash_at = flags.get_double("crash-at", 0);
  if (flags.has("crash-proxy")) {
    const auto victim =
        static_cast<std::uint32_t>(flags.get_int("crash-proxy", 0));
    cluster.simulator().at(seconds(crash_at),
                           [&cluster, victim] { cluster.crash_proxy(victim); });
  }
  if (flags.has("crash-storage")) {
    const auto victim =
        static_cast<std::uint32_t>(flags.get_int("crash-storage", 0));
    cluster.simulator().at(
        seconds(crash_at),
        [&cluster, victim] { cluster.crash_storage(victim); });
  }

  const std::vector<std::string> unknown = flags.unused();
  if (!unknown.empty()) {
    for (const std::string& flag : unknown) {
      std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    }
    usage();
    return 2;
  }

  cluster.run_for(seconds(warmup_s));
  const Time t0 = cluster.now();
  cluster.run_for(seconds(duration_s));
  const Time t1 = cluster.now();

  if (recorder) {
    workload::save_trace(record_ops, recorder->trace());
    std::fprintf(stderr, "op trace (%zu ops) written to %s\n",
                 recorder->trace().size(), record_ops.c_str());
  }

  const auto write_file = [](const std::string& path,
                             const std::string& content, const char* what,
                             std::size_t count) {
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fwrite(content.data(), 1, content.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "%zu %s written to %s\n", count, what,
                   path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  };
  if (!trace_out.empty()) {
    write_file(trace_out, obs::to_chrome_json(cluster.obs().spans()),
               "traces (Chrome trace)",
               cluster.obs().spans().completed().size());
  }
  if (!trace_csv.empty()) {
    write_file(trace_csv, obs::to_span_csv(cluster.obs().spans().completed()),
               "traces (CSV)", cluster.obs().spans().completed().size());
  }
  if (!profile_trace.empty()) {
    const obs::ProfileReport prof = cluster.obs().profiler().report();
    write_file(profile_trace, cluster.obs().profiler().timeline_chrome_json(),
               "profile slices (Chrome trace)", prof.timeline_slices);
  }

  // One consistent summary for every output mode: the cluster-wide report
  // over the measurement window.
  const obs::RunReport report = cluster.report(t0, t1);
  if (json) {
    std::printf("%s\n", report.to_json().c_str());
  } else if (csv) {
    std::printf("workload,%s\n", obs::RunReport::csv_header().c_str());
    std::printf("%s,%s\n", workload_name.c_str(), report.csv_row().c_str());
    // Attribution rows ride below the summary row as a second CSV section.
    if (report.has_profile) std::fputs(report.profile.to_csv().c_str(), stdout);
  } else {
    std::printf("\nworkload            %s\n", workload_name.c_str());
    std::fputs(report.render().c_str(), stdout);
  }
  return report.consistency_violations == 0 ? 0 : 1;
}
