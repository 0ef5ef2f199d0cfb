#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "topk/space_saving.hpp"
#include "util/flat_table.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace qopt::topk {
namespace {

TEST(SpaceSavingTest, ExactWhenUnderCapacity) {
  SpaceSaving summary(10);
  for (int i = 0; i < 5; ++i) {
    for (int rep = 0; rep <= i; ++rep) summary.add(static_cast<uint64_t>(i));
  }
  // key i appears i+1 times; all monitored exactly.
  const auto top = summary.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 4u);
  EXPECT_EQ(top[0].count, 5u);
  EXPECT_EQ(top[0].error, 0u);
  EXPECT_EQ(top[1].key, 3u);
  EXPECT_EQ(top[2].key, 2u);
}

TEST(SpaceSavingTest, EstimateReturnsZeroForUnknown) {
  SpaceSaving summary(4);
  summary.add(1);
  EXPECT_EQ(summary.estimate(1), 1u);
  EXPECT_EQ(summary.estimate(99), 0u);
}

TEST(SpaceSavingTest, EvictionInheritsMinCountAsError) {
  SpaceSaving summary(2);
  summary.add(1, 10);
  summary.add(2, 5);
  summary.add(3);  // evicts key 2 (count 5): key 3 gets count 6, error 5
  EXPECT_EQ(summary.estimate(3), 6u);
  EXPECT_EQ(summary.estimate(2), 0u);
  const auto top = summary.top(2);
  const auto it = std::find_if(top.begin(), top.end(),
                               [](const TopKEntry& e) { return e.key == 3; });
  ASSERT_NE(it, top.end());
  EXPECT_EQ(it->error, 5u);
}

TEST(SpaceSavingTest, CountUpperBoundsTrueFrequency) {
  // Space-Saving invariant: estimate(key) >= true frequency for monitored
  // keys, and count - error <= true frequency.
  SpaceSaving summary(20);
  std::map<std::uint64_t, std::uint64_t> truth;
  Rng rng(7);
  workload::ZipfianKeys zipf(500, 0.99, /*scramble=*/false);
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t key = zipf.sample(rng);
    ++truth[key];
    summary.add(key);
  }
  for (const TopKEntry& entry : summary.top(20)) {
    const std::uint64_t actual = truth[entry.key];
    EXPECT_GE(entry.count, actual) << "key " << entry.key;
    EXPECT_LE(entry.count - entry.error, actual) << "key " << entry.key;
  }
}

TEST(SpaceSavingTest, FindsTrueHeavyHittersOnZipf) {
  SpaceSaving summary(64);
  std::map<std::uint64_t, std::uint64_t> truth;
  Rng rng(11);
  workload::ZipfianKeys zipf(10'000, 0.99, /*scramble=*/false);
  for (int i = 0; i < 200'000; ++i) {
    const std::uint64_t key = zipf.sample(rng);
    ++truth[key];
    summary.add(key);
  }
  // The true top-8 must all be monitored in the summary's top-16.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted(truth.begin(),
                                                              truth.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  const auto reported = summary.top(16);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t key = sorted[static_cast<size_t>(i)].first;
    EXPECT_TRUE(std::any_of(
        reported.begin(), reported.end(),
        [&](const TopKEntry& e) { return e.key == key; }))
        << "true hot key " << key << " missing from summary top";
  }
}

TEST(SpaceSavingTest, StreamLengthTracksIncrements) {
  SpaceSaving summary(4);
  summary.add(1, 5);
  summary.add(2, 3);
  EXPECT_EQ(summary.stream_length(), 8u);
}

TEST(SpaceSavingTest, GuaranteedAboveUsesLowerBound) {
  SpaceSaving summary(2);
  summary.add(1, 100);
  summary.add(2, 5);
  summary.add(3, 10);  // count 15, error 5 -> lower bound 10
  EXPECT_TRUE(summary.guaranteed_above(1, 50));
  EXPECT_TRUE(summary.guaranteed_above(3, 9));
  EXPECT_FALSE(summary.guaranteed_above(3, 10));
  EXPECT_FALSE(summary.guaranteed_above(42, 0));
}

TEST(SpaceSavingTest, ClearResets) {
  SpaceSaving summary(4);
  summary.add(1);
  summary.clear();
  EXPECT_EQ(summary.size(), 0u);
  EXPECT_EQ(summary.stream_length(), 0u);
  EXPECT_EQ(summary.estimate(1), 0u);
}

TEST(SpaceSavingTest, TopMoreThanSizeReturnsAll) {
  SpaceSaving summary(8);
  summary.add(1);
  summary.add(2);
  EXPECT_EQ(summary.top(100).size(), 2u);
}

TEST(SpaceSavingTest, MergeAddsCountsForSharedKeys) {
  SpaceSaving a(8);
  SpaceSaving b(8);
  a.add(1, 10);
  a.add(2, 5);
  b.add(1, 7);
  b.add(3, 2);
  a.merge(b);
  EXPECT_EQ(a.estimate(1), 17u);
  EXPECT_EQ(a.stream_length(), 24u);
  EXPECT_GE(a.estimate(3), 2u);
}

TEST(SpaceSavingTest, MergePreservesHeavyHitterDetection) {
  // Split one zipfian stream across 4 summaries (as Q-OPT proxies do),
  // merge, and confirm the global hot keys surface.
  std::vector<SpaceSaving> parts(4, SpaceSaving(64));
  std::map<std::uint64_t, std::uint64_t> truth;
  Rng rng(13);
  workload::ZipfianKeys zipf(5'000, 0.99, /*scramble=*/false);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t key = zipf.sample(rng);
    ++truth[key];
    parts[static_cast<size_t>(i % 4)].add(key);
  }
  SpaceSaving merged(64);
  for (const auto& part : parts) merged.merge(part);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted(truth.begin(),
                                                              truth.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  const auto reported = merged.top(32);
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t key = sorted[static_cast<size_t>(i)].first;
    EXPECT_TRUE(std::any_of(
        reported.begin(), reported.end(),
        [&](const TopKEntry& e) { return e.key == key; }))
        << "hot key " << key << " lost in merge";
  }
}

TEST(SpaceSavingTest, CapacityOneDegeneratesGracefully) {
  SpaceSaving summary(1);
  for (int i = 0; i < 100; ++i) summary.add(static_cast<uint64_t>(i % 3));
  EXPECT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary.stream_length(), 100u);
  EXPECT_EQ(summary.top(1).size(), 1u);
}

TEST(SpaceSavingTest, DeterministicTieBreakByKey) {
  SpaceSaving summary(8);
  summary.add(5, 3);
  summary.add(2, 3);
  summary.add(9, 3);
  const auto top = summary.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 2u);
  EXPECT_EQ(top[1].key, 5u);
  EXPECT_EQ(top[2].key, 9u);
}

TEST(SpaceSavingTest, EvictionChurnOnCollidingKeysKeepsTheBounds) {
  // Every key shares its home slot in the summary's key index (the top 12
  // hash bits agree), so each eviction's erase and insert churn one long
  // probe run. The Space-Saving guarantees must still hold against exact
  // counts: count - error <= true count <= count for every monitored key,
  // errors stay below stream_length / capacity, every key more frequent
  // than that is monitored, and the counts sum to the stream length.
  constexpr std::size_t kCapacity = 16;
  std::vector<std::uint64_t> keys;
  const std::uint64_t home = flat_hash(0) >> 52;
  for (std::uint64_t key = 0; keys.size() < 200; ++key) {
    if (flat_hash(key) >> 52 == home) keys.push_back(key);
  }
  SpaceSaving summary(kCapacity);
  std::map<std::uint64_t, std::uint64_t> truth;
  Rng rng(5);
  workload::ZipfianKeys zipf(keys.size(), 0.9, /*scramble=*/false);
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t sampled = keys[zipf.sample(rng)];
    summary.add(sampled);
    ++truth[sampled];

    if (i % 997 != 0) continue;
    const std::uint64_t n = summary.stream_length();
    const auto top = summary.top(kCapacity);
    ASSERT_EQ(top.size(), std::min(kCapacity, truth.size()));
    std::uint64_t sum = 0;
    for (const TopKEntry& entry : top) {
      const std::uint64_t exact = truth[entry.key];
      EXPECT_LE(entry.count - entry.error, exact) << entry.key;
      EXPECT_GE(entry.count, exact) << entry.key;
      EXPECT_LE(entry.error * kCapacity, n) << entry.key;
      EXPECT_EQ(summary.estimate(entry.key), entry.count) << entry.key;
      sum += entry.count;
    }
    EXPECT_EQ(sum, n);
    for (const auto& [key, exact] : truth) {
      if (exact * kCapacity > n) {
        EXPECT_GT(summary.estimate(key), 0u) << "frequent key " << key;
      }
    }
  }
}

}  // namespace
}  // namespace qopt::topk
