#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "util/flat_table.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace qopt {
namespace {

// ------------------------------------------------------------------- time

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(microseconds(1), 1000);
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1.0), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_millis(milliseconds(7)), 7.0);
}

TEST(TimeTest, FractionalSeconds) {
  EXPECT_EQ(seconds(0.5), 500'000'000);
  EXPECT_EQ(seconds(0.001), milliseconds(1));
}

// -------------------------------------------------------------------- rng

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowIsInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(RngTest, NextBelowOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBelowIsApproximatelyUniform) {
  Rng rng(17);
  std::vector<int> counts(10, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, ChanceMatchesProbability) {
  Rng rng(23);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(29);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, NormalMoments) {
  Rng rng(31);
  RunningStats stats;
  for (int i = 0; i < 200'000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(37);
  Rng child = parent.fork(1);
  Rng child2 = parent.fork(1);  // parent state advanced -> different child
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.next() == child2.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(123), mix64(123));
  EXPECT_NE(mix64(123), mix64(124));
}

// ------------------------------------------------------------------ stats

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, KnownSequence) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesCombined) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-5, 5);
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(MovingAverageTest, WindowEviction) {
  MovingAverage avg(3);
  avg.add(1);
  avg.add(2);
  avg.add(3);
  EXPECT_DOUBLE_EQ(avg.mean(), 2.0);
  avg.add(10);  // evicts 1
  EXPECT_DOUBLE_EQ(avg.mean(), 5.0);
  EXPECT_TRUE(avg.full());
}

TEST(MovingAverageTest, PartialWindow) {
  MovingAverage avg(10);
  avg.add(4);
  EXPECT_DOUBLE_EQ(avg.mean(), 4.0);
  EXPECT_FALSE(avg.full());
  avg.reset();
  EXPECT_DOUBLE_EQ(avg.mean(), 0.0);
  EXPECT_EQ(avg.size(), 0u);
}

TEST(ExactPercentileTest, Interpolates) {
  EXPECT_DOUBLE_EQ(exact_percentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_DOUBLE_EQ(exact_percentile({5}, 99), 5.0);
  EXPECT_DOUBLE_EQ(exact_percentile({}, 50), 0.0);
}

// -------------------------------------------------------------- histogram

TEST(HistogramTest, BasicStats) {
  LatencyHistogram hist;
  for (double v : {1000.0, 2000.0, 3000.0}) hist.record(v);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.mean(), 2000.0);
  EXPECT_DOUBLE_EQ(hist.min(), 1000.0);
  EXPECT_DOUBLE_EQ(hist.max(), 3000.0);
}

TEST(HistogramTest, PercentileWithinResolution) {
  LatencyHistogram hist;
  Rng rng(43);
  std::vector<double> values;
  for (int i = 0; i < 50'000; ++i) {
    const double v = rng.uniform(1e3, 1e7);
    values.push_back(v);
    hist.record(v);
  }
  for (double pct : {10.0, 50.0, 90.0, 99.0}) {
    const double expected = exact_percentile(values, pct);
    EXPECT_NEAR(hist.percentile(pct), expected, expected * 0.05)
        << "pct=" << pct;
  }
}

TEST(HistogramTest, MergeEquivalentToUnion) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram all;
  Rng rng(47);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform(1e3, 1e6);
    (i % 2 ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.percentile(50), all.percentile(50), all.percentile(50) * 0.01);
  // Summation order differs between the two paths; allow float slack.
  EXPECT_NEAR(a.mean(), all.mean(), all.mean() * 1e-12);
}

TEST(HistogramTest, ResetClears) {
  LatencyHistogram hist;
  hist.record(5000.0);
  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.percentile(50), 0.0);
}

TEST(HistogramTest, ValuesBelowFloorClampToFirstBucket) {
  LatencyHistogram hist(100.0);
  hist.record(1.0);
  hist.record(50.0);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_LE(hist.percentile(99), 100.0);
}

// ------------------------------------------------------------- flat table

/// `count` keys whose home slot is `home` in a table of 2^bits slots: the
/// table takes the top `bits` bits of flat_hash(key) as the home slot.
std::vector<std::uint64_t> keys_with_home(std::uint64_t home, int bits,
                                          std::size_t count) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t key = 0; keys.size() < count; ++key) {
    if (flat_hash(key) >> (64 - bits) == home) keys.push_back(key);
  }
  return keys;
}

TEST(FlatTableTest, InsertFindAndUpdate) {
  FlatTable<std::uint64_t> table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(7), nullptr);
  EXPECT_FALSE(table.erase(7));

  auto [value, inserted] = table.try_emplace(7, 70);
  ASSERT_TRUE(inserted);
  EXPECT_EQ(*value, 70u);
  auto [present, inserted_again] = table.try_emplace(7, 71);
  EXPECT_FALSE(inserted_again);  // the stored value is kept
  EXPECT_EQ(*present, 70u);
  *present = 72;  // updates go through the returned pointer
  EXPECT_EQ(*table.find(7), 72u);

  table.insert_or_assign(7, 73);
  table.insert_or_assign(0, 5);  // 0 is an ordinary key
  EXPECT_EQ(*table.find(7), 73u);
  EXPECT_EQ(*table.find(0), 5u);
  EXPECT_TRUE(table.contains(0));
  EXPECT_FALSE(table.contains(8));
  EXPECT_EQ(table.size(), 2u);
}

TEST(FlatTableTest, GrowthPreservesEveryEntry) {
  FlatTable<std::uint64_t> table;
  std::size_t capacity = 0;
  int growths = 0;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    table.try_emplace(i * 3, i);
    if (table.capacity() != capacity) {
      ++growths;
      capacity = table.capacity();
      EXPECT_EQ(capacity & (capacity - 1), 0u) << "not a power of two";
    }
    EXPECT_LE(table.size() * 8, table.capacity() * 7);  // load <= 7/8
  }
  EXPECT_GE(growths, 10);
  ASSERT_EQ(table.size(), 10'000u);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    const std::uint64_t* value = table.find(i * 3);
    ASSERT_NE(value, nullptr) << i;
    EXPECT_EQ(*value, i);
    EXPECT_FALSE(table.contains(i * 3 + 1));
  }
}

TEST(FlatTableTest, ReserveSizesOnceAndNeverShrinks) {
  FlatTable<std::uint64_t> table;
  table.reserve(1000);
  const std::size_t capacity = table.capacity();
  EXPECT_EQ(capacity, 2048u);  // 1024 slots would exceed the 7/8 load
  for (std::uint64_t key = 0; key < 1000; ++key) table.try_emplace(key, key);
  EXPECT_EQ(table.capacity(), capacity);
  table.reserve(10);
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.capacity(), capacity);
  EXPECT_FALSE(table.contains(5));
}

TEST(FlatTableTest, BackwardShiftEraseUnderForcedCollisions) {
  // 56 keys in a 64-slot table, 14 homed at each of slots 62, 63, 0 and 1:
  // one probe run that wraps past the end of the array and mixes homes, so
  // erase must shift an entry back only when the hole does not precede its
  // home. Random churn is checked against a reference map after every step.
  constexpr int kBits = 6;
  std::vector<std::uint64_t> pool;
  for (std::uint64_t home : {62u, 63u, 0u, 1u}) {
    const std::vector<std::uint64_t> keys = keys_with_home(home, kBits, 14);
    pool.insert(pool.end(), keys.begin(), keys.end());
  }
  FlatTable<std::uint64_t> table;
  table.reserve(pool.size());
  ASSERT_EQ(table.capacity(), std::size_t{1} << kBits);
  std::map<std::uint64_t, std::uint64_t> reference;
  Rng rng(11);
  for (std::uint64_t step = 0; step < 20'000; ++step) {
    const std::uint64_t key = pool[rng.next_below(pool.size())];
    if (rng.chance(0.5)) {
      table.insert_or_assign(key, step);
      reference[key] = step;
    } else {
      EXPECT_EQ(table.erase(key), reference.erase(key) == 1);
    }
    ASSERT_EQ(table.size(), reference.size());
    for (std::uint64_t probe : pool) {
      const std::uint64_t* value = table.find(probe);
      const auto it = reference.find(probe);
      if (it == reference.end()) {
        ASSERT_EQ(value, nullptr) << "step " << step << " key " << probe;
      } else {
        ASSERT_NE(value, nullptr) << "step " << step << " key " << probe;
        ASSERT_EQ(*value, it->second);
      }
    }
  }
  EXPECT_EQ(table.capacity(), std::size_t{1} << kBits);  // never grew
}

TEST(FlatTableTest, ForEachVisitsEachLiveEntryOnce) {
  FlatTable<std::uint64_t> table;
  for (std::uint64_t key = 1; key <= 1000; ++key) table.try_emplace(key, key);
  for (std::uint64_t key = 1; key <= 1000; key += 3) table.erase(key);
  std::map<std::uint64_t, int> visits;
  table.for_each([&](std::uint64_t key, std::uint64_t value) {
    EXPECT_EQ(key, value);
    ++visits[key];
  });
  EXPECT_EQ(visits.size(), table.size());
  for (std::uint64_t key = 1; key <= 1000; ++key) {
    const bool live = (key - 1) % 3 != 0;
    EXPECT_EQ(visits.count(key), live ? 1u : 0u) << key;
    if (live) {
      EXPECT_EQ(visits[key], 1) << key;
    }
  }
}

}  // namespace
}  // namespace qopt
