// Closed-loop client driver: issues one operation at a time against its
// assigned proxy (the paper's client VMs run closed workloads with zero
// think time, each statically associated with one proxy), records
// end-to-end latency, and feeds the consistency checker.
#pragma once

#include <cstdint>
#include <memory>

#include "core/consistency.hpp"
#include "core/metrics.hpp"
#include "kv/types.hpp"
#include "obs/obs.hpp"
#include "kv/wire.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace qopt {

class Client {
 public:
  using Net = sim::Network<kv::Message>;

  /// `retry_timeout` > 0 enables proxy failover: an operation unanswered
  /// for that long is re-issued (fresh request id) through the next proxy
  /// in round-robin order — how SDS clients survive a proxy outage. `obs`
  /// lets the engine profiler attribute client-driven events (response
  /// handling, think-time and retry timers); it must outlive the client.
  Client(sim::Simulator& sim, Net& net, sim::NodeId self, sim::NodeId proxy,
         Rng rng, Metrics* metrics, ConsistencyChecker* checker,
         obs::Observability& obs, Duration think_time,
         std::uint32_t num_proxies = 1, Duration retry_timeout = 0);

  void set_source(std::shared_ptr<workload::OperationSource> source) {
    source_ = std::move(source);
  }

  /// Begins the closed loop (no-op without a workload source).
  void start();
  /// Stops after the in-flight operation completes.
  void stop() { running_ = false; }
  bool running() const noexcept { return running_; }

  void on_message(const sim::NodeId& from, const kv::Message& msg);

  std::uint64_t ops_completed() const noexcept { return ops_completed_; }
  std::uint64_t retries() const noexcept { return retries_; }
  /// Operations the proxy reported failed (retry budget exhausted). They do
  /// not feed the checker or the latency metrics; the closed loop continues.
  std::uint64_t failures() const noexcept { return failures_; }
  /// True while an operation is outstanding — after the run drains, a stuck
  /// client is one whose op neither completed nor failed.
  bool op_in_flight() const noexcept { return op_in_flight_; }
  sim::NodeId current_proxy() const noexcept { return proxy_; }

 private:
  void issue_next();
  void send_pending();
  void arm_retry();
  void arm_retry_check(Time at);
  void check_retry();
  void handle_read_resp(const kv::ClientReadResp& read);
  void handle_write_resp(const kv::ClientWriteResp& write);
  /// Common completion tail: closes the loop and schedules the next op.
  void complete_op(bool failed);

  sim::Simulator& sim_;
  Net& net_;
  sim::NodeId self_;
  sim::NodeId proxy_;
  Rng rng_;
  Metrics* metrics_;
  ConsistencyChecker* checker_;
  Duration think_time_;
  std::uint32_t num_proxies_;
  Duration retry_timeout_;
  obs::Observability& obs_;
  std::uint64_t retries_ = 0;
  std::shared_ptr<workload::OperationSource> source_;

  bool running_ = false;
  bool op_in_flight_ = false;
  std::uint64_t next_req_ = 1;
  std::uint64_t value_seq_ = 0;
  std::uint64_t ops_completed_ = 0;
  std::uint64_t failures_ = 0;

  // In-flight operation context.
  std::uint64_t pending_req_ = 0;
  workload::Operation pending_op_;
  Time issued_at_ = 0;
  kv::Timestamp read_snapshot_;
  kv::Timestamp write_ts_pending_;  // filled on completion for the checker

  // Proxy-failover check: at most one pending event per client; the
  // in-flight request fails over at sent_at_ + retry_timeout_.
  Time sent_at_ = 0;
  bool retry_check_armed_ = false;
};

}  // namespace qopt
