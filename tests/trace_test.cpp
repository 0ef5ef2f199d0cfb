#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/cluster.hpp"
#include "kv/types.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"
#include "workload/workload.hpp"

namespace qopt::workload {
namespace {

std::shared_ptr<OperationSource> make_source() {
  WorkloadSpec spec;
  spec.write_ratio = 0.4;
  spec.keys = std::make_shared<ZipfianKeys>(100);
  spec.sizes = SizeDistribution::uniform(100, 1000);
  return std::make_shared<BasicWorkload>(spec);
}

TEST(RecordingSourceTest, PassesThroughAndRecords) {
  RecordingSource recorder(make_source());
  Rng rng(1);
  std::vector<Operation> emitted;
  for (int i = 0; i < 50; ++i) {
    emitted.push_back(recorder.next(rng, seconds(i)));
  }
  ASSERT_EQ(recorder.trace().size(), 50u);
  for (int i = 0; i < 50; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(recorder.trace()[idx].op.oid, emitted[idx].oid);
    EXPECT_EQ(recorder.trace()[idx].op.is_write, emitted[idx].is_write);
    EXPECT_EQ(recorder.trace()[idx].at, seconds(i));
  }
}

TEST(RecordingSourceTest, NullInnerThrows) {
  EXPECT_THROW(RecordingSource{nullptr}, std::invalid_argument);
}

TEST(TraceSourceTest, ReplaysInOrder) {
  std::vector<TraceEntry> trace;
  for (std::uint64_t i = 0; i < 10; ++i) {
    trace.push_back(TraceEntry{0, Operation{i, i % 2 == 0, 512}});
  }
  TraceSource source(trace, /*loop=*/false);
  Rng rng(2);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const Operation op = source.next(rng, 0);
    EXPECT_EQ(op.oid, i);
    EXPECT_EQ(op.is_write, i % 2 == 0);
  }
  // Exhausted, non-looping: last operation repeats.
  EXPECT_EQ(source.next(rng, 0).oid, 9u);
  EXPECT_EQ(source.next(rng, 0).oid, 9u);
}

TEST(TraceSourceTest, LoopsWhenConfigured) {
  std::vector<TraceEntry> trace;
  for (std::uint64_t i = 0; i < 3; ++i) {
    trace.push_back(TraceEntry{0, Operation{i, false, 1}});
  }
  TraceSource source(trace, /*loop=*/true);
  Rng rng(3);
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      EXPECT_EQ(source.next(rng, 0).oid, i);
    }
  }
}

TEST(TraceSourceTest, EmptyTraceThrows) {
  EXPECT_THROW(TraceSource({}, true), std::invalid_argument);
}

TEST(TracePersistenceTest, SaveLoadRoundTrip) {
  RecordingSource recorder(make_source());
  Rng rng(4);
  for (int i = 0; i < 200; ++i) recorder.next(rng, milliseconds(i));
  const std::string path = "trace_test_roundtrip.csv";
  save_trace(path, recorder.trace());
  const std::vector<TraceEntry> loaded = load_trace(path);
  ASSERT_EQ(loaded.size(), recorder.trace().size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].at, recorder.trace()[i].at);
    EXPECT_EQ(loaded[i].op.oid, recorder.trace()[i].op.oid);
    EXPECT_EQ(loaded[i].op.is_write, recorder.trace()[i].op.is_write);
    EXPECT_EQ(loaded[i].op.size_bytes, recorder.trace()[i].op.size_bytes);
  }
  std::filesystem::remove(path);
}

TEST(TracePersistenceTest, MissingFileThrows) {
  EXPECT_THROW(load_trace("definitely_not_here.csv"), std::runtime_error);
}

TEST(TraceReplayTest, ReplayReproducesWorkloadProfile) {
  // Record a 40%-write workload, replay it, verify the replay has exactly
  // the same write ratio (bitwise-identical operation stream).
  RecordingSource recorder(make_source());
  Rng rng(5);
  int writes_recorded = 0;
  for (int i = 0; i < 1000; ++i) {
    writes_recorded += recorder.next(rng, 0).is_write;
  }
  TraceSource replay(recorder.trace(), false);
  Rng rng2(999);  // replay ignores the rng
  int writes_replayed = 0;
  for (int i = 0; i < 1000; ++i) {
    writes_replayed += replay.next(rng2, 0).is_write;
  }
  EXPECT_EQ(writes_recorded, writes_replayed);
}

TEST(TraceReplayTest, LoopingOneObjectTraceRunsTheDataPathOnAHashedId) {
  // A large hashed id drives placement and the full data path like any
  // other object: a looping write-then-read trace on it completes both
  // kinds of operation, stays consistent and lands on its write quorum.
  ClusterConfig config;
  config.num_storage = 5;
  config.num_proxies = 1;
  config.clients_per_proxy = 1;
  config.replication = 3;
  config.initial_quorum = {2, 2};
  Cluster cluster(config);

  const kv::ObjectId oid = mix64(42);
  const std::vector<TraceEntry> script = {
      {0, Operation{oid, true, 2048}},
      {0, Operation{oid, false, 0}},
  };
  cluster.set_workload(std::make_shared<TraceSource>(script, /*loop=*/true));
  cluster.run_for(seconds(1));
  EXPECT_GT(cluster.metrics().total_writes(), 0u);
  EXPECT_GT(cluster.metrics().total_reads(), 0u);
  EXPECT_TRUE(cluster.checker().clean());
  int holders = 0;
  for (std::uint32_t replica : cluster.placement().replicas(oid)) {
    holders += cluster.storage(replica).peek(oid).has_value();
  }
  EXPECT_GE(holders, 2);  // W=2
}

}  // namespace
}  // namespace qopt::workload
