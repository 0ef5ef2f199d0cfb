// Exhaustive small-scope interleaving gate (the dynamic complement of the
// qopt_proto static analyzer).
//
// The deterministic simulator gained a schedule-override hook
// (sim::Simulator::set_schedule_chooser): when installed, each step stages
// the up-to-W earliest pending events and lets the chooser decide which one
// runs next. This test drives that hook with a DFS over choice-sequence
// prefixes — the standard stateless-exploration trick — to enumerate EVERY
// delivery ordering (within window W, branching depth D) of the in-flight
// messages of a tiny cluster pushed through a concurrent read/write/
// reconfiguration window.
//
// For every explored schedule the gate asserts the full consistency
// contract:
//   * zero Dynamic Quorum Consistency violations (stale reads, and read
//     and write quorums of one configuration that do not intersect),
//   * the reconfiguration completes (no stuck two-phase protocol),
//   * no client is left with an operation in flight after the drain,
//   * all replicas converge to identical contents once in-flight traffic
//     drains (messages are reordered, never lost).
// A second full pass re-runs the exploration and must reproduce the exact
// schedule set and per-schedule outcomes (same-seed determinism).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "kv/replicator.hpp"
#include "kv/types.hpp"
#include "workload/workload.hpp"

namespace qopt {
namespace {

// Exploration bounds: window W = how many earliest events compete at each
// decision point, depth D = how many leading decision points branch (later
// decisions take the canonical earliest-first event). W^D bounds the
// schedule count; the run below must surface at least kMinSchedules
// distinct interleavings to satisfy the gate.
constexpr std::size_t kWindow = 2;
constexpr std::size_t kDepth = 11;
constexpr std::size_t kMinSchedules = 1000;
// The explored set itself: its size and order-independent hash. A change
// that moves either (the scenario, the bounds, or any protocol step the
// schedules reach) re-pins both in its own commit and says why, as a change
// to tests/data/replay_baseline.json does.
constexpr std::size_t kPinnedSchedules = 2039;
constexpr std::uint64_t kPinnedSetHash = 0xf5a11ed93016b121;

constexpr std::uint64_t kObjects = 4;
constexpr std::uint64_t kObjectBytes = 64;

struct RunOutcome {
  // Number of candidates offered at each of the first kDepth decision
  // points (drives the DFS frontier).
  std::vector<std::size_t> branching;
  std::uint64_t violations = 0;
  std::uint64_t ops_completed = 0;
  bool reconfig_done = false;
  bool reconfig_ok = false;
  bool client_stuck = false;
  bool replicas_converged = false;
  std::uint64_t fingerprint = 0;  // FNV-1a over the decision trace + outcome
};

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
}

// Runs one schedule: decisions 0..prefix.size()-1 follow `prefix`, later
// decisions take candidate 0 (the canonical earliest event). Fully
// deterministic: same prefix, same everything.
RunOutcome run_schedule(const std::vector<std::size_t>& prefix) {
  ClusterConfig config;
  config.num_storage = 3;
  config.num_proxies = 2;
  config.clients_per_proxy = 1;
  config.replication = 3;
  config.initial_quorum = kv::QuorumConfig::of(2, 2);
  config.client_think_time = 0;
  config.check_consistency = true;
  config.seed = 7;

  Cluster cluster(config);
  cluster.preload(kObjects, kObjectBytes);
  cluster.set_workload(workload::ycsb_a(kObjects, kObjectBytes));
  // Writes stop at the write quorum; anti-entropy is what carries fresh
  // versions to the remaining replicas, so the drain below can insist on
  // full convergence (and the replicator runs under reordering too).
  kv::ReplicatorOptions anti_entropy;
  anti_entropy.interval = milliseconds(100);
  cluster.enable_anti_entropy(anti_entropy);

  // Warmup in canonical order: clients reach steady state, so the perturbed
  // window starts with reads, writes, and acks genuinely in flight.
  cluster.run_for(milliseconds(5));

  RunOutcome out;
  out.fingerprint = 1469598103934665603ull;  // FNV offset basis
  std::size_t depth = 0;
  cluster.simulator().set_schedule_chooser(
      [&](std::size_t candidates) {
        std::size_t pick = depth < prefix.size() ? prefix[depth] : 0;
        if (pick >= candidates) pick = 0;
        if (depth < kDepth) out.branching.push_back(candidates);
        ++depth;
        fnv_mix(out.fingerprint, (depth << 8) | pick);
        return pick;
      },
      kWindow);

  // The reconfiguration races the client traffic through the perturbed
  // window: NEWQ / ACKNEWQ / CONFIRM / ACKCONFIRM interleave with reads,
  // writes, and their quorum acks in every order the window allows.
  cluster.reconfigure(kv::QuorumConfig::of(3, 1), [&](bool ok) {
    out.reconfig_done = true;
    out.reconfig_ok = ok;
  });
  cluster.run_for(milliseconds(4));

  // Back to canonical order; let everything in flight drain.
  cluster.simulator().clear_schedule_chooser();
  cluster.stop_clients();
  cluster.run_for(seconds(1));

  out.violations = cluster.checker().violations().size() +
                   cluster.checker().quorum_violations().size();
  for (std::uint32_t c = 0; c < cluster.num_clients(); ++c) {
    if (cluster.client(c).op_in_flight()) out.client_stuck = true;
    out.ops_completed += cluster.client(c).ops_completed();
  }

  // Convergence: no message is ever lost, so once the queue drains every
  // replica must hold byte-identical contents.
  out.replicas_converged = true;
  const auto reference = cluster.storage(0).sorted_contents();
  for (std::uint32_t s = 1; s < config.num_storage; ++s) {
    const auto contents = cluster.storage(s).sorted_contents();
    if (contents.size() != reference.size()) {
      out.replicas_converged = false;
      break;
    }
    for (const auto& [oid, version] : reference) {
      const auto it = contents.find(oid);
      if (it == contents.end() || it->second.ts != version.ts ||
          it->second.value != version.value) {
        out.replicas_converged = false;
        break;
      }
    }
    if (!out.replicas_converged) break;
  }

  fnv_mix(out.fingerprint, out.violations);
  fnv_mix(out.fingerprint, out.ops_completed);
  fnv_mix(out.fingerprint, (out.reconfig_done ? 1u : 0u) |
                               (out.reconfig_ok ? 2u : 0u) |
                               (out.client_stuck ? 4u : 0u) |
                               (out.replicas_converged ? 8u : 0u));
  return out;
}

struct ExplorationResult {
  std::size_t schedules = 0;
  std::uint64_t set_hash = 0;  // order-independent hash of the schedule set
  std::size_t max_branch_depth = 0;
};

std::string prefix_label(const std::vector<std::size_t>& prefix) {
  std::string label = "[";
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (i > 0) label += ' ';
    label += std::to_string(prefix[i]);
  }
  return label + "]";
}

// DFS over choice-sequence prefixes. Each explored prefix (trailing zeros
// implied) is one distinct execution; its children extend the prefix at its
// own length with every non-default candidate seen there. Every explored
// schedule must satisfy the full consistency contract.
void explore(ExplorationResult& result) {
  std::vector<std::vector<std::size_t>> frontier;
  frontier.push_back({});
  std::set<std::vector<std::size_t>> seen;  // DFS sanity: no duplicates

  while (!frontier.empty()) {
    const std::vector<std::size_t> prefix = std::move(frontier.back());
    frontier.pop_back();
    ASSERT_TRUE(seen.insert(prefix).second)
        << "duplicate schedule " << prefix_label(prefix);

    const RunOutcome out = run_schedule(prefix);
    ++result.schedules;
    fnv_mix(result.set_hash, out.fingerprint);

    ASSERT_EQ(out.violations, 0u)
        << "consistency violation under schedule " << prefix_label(prefix);
    ASSERT_TRUE(out.reconfig_done)
        << "reconfiguration wedged under schedule " << prefix_label(prefix);
    ASSERT_TRUE(out.reconfig_ok)
        << "reconfiguration failed under schedule " << prefix_label(prefix);
    ASSERT_FALSE(out.client_stuck)
        << "client stuck under schedule " << prefix_label(prefix);
    ASSERT_TRUE(out.replicas_converged)
        << "replicas diverged under schedule " << prefix_label(prefix);
    ASSERT_GT(out.ops_completed, 0u);

    // Children: this run took the default (earliest) event at every
    // decision point past its prefix. Branching any one of those points to
    // a non-default candidate — zero-padded up to it — yields a schedule
    // not seen before, and together they cover the whole choice tree.
    const std::size_t limit = std::min(kDepth, out.branching.size());
    for (std::size_t at = prefix.size(); at < limit; ++at) {
      result.max_branch_depth = std::max(result.max_branch_depth, at + 1);
      for (std::size_t c = 1; c < out.branching[at]; ++c) {
        std::vector<std::size_t> child = prefix;
        child.resize(at, 0);
        child.push_back(c);
        frontier.push_back(std::move(child));
      }
    }
  }
}

TEST(InterleaveGateTest, AllSmallScopeSchedulesPreserveTheContract) {
  ExplorationResult first;
  ASSERT_NO_FATAL_FAILURE(explore(first));
  EXPECT_GE(first.schedules, kMinSchedules)
      << "exploration bounds too tight: raise kDepth or kWindow";
  EXPECT_EQ(first.max_branch_depth, kDepth)
      << "window too short to reach the full branching depth";
  // Printed so a re-pin can read the new values.
  std::printf("interleave gate: %zu schedules, set_hash %016llx\n",
              first.schedules,
              static_cast<unsigned long long>(first.set_hash));
  EXPECT_EQ(first.schedules, kPinnedSchedules);
  EXPECT_EQ(first.set_hash, kPinnedSetHash);

  // Same-seed rerun: the schedule set and every per-schedule outcome must
  // be byte-identical.
  ExplorationResult second;
  ASSERT_NO_FATAL_FAILURE(explore(second));
  EXPECT_EQ(first.schedules, second.schedules);
  EXPECT_EQ(first.set_hash, second.set_hash);
}

// The hook itself: choosing the default candidate everywhere must replay
// the canonical schedule bit-for-bit.
TEST(InterleaveGateTest, NullChoiceMatchesCanonicalOrder) {
  const RunOutcome a = run_schedule({});
  const RunOutcome b = run_schedule({});
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.violations, 0u);
}

}  // namespace
}  // namespace qopt
