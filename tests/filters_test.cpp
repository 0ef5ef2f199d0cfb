#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "autonomic/filters.hpp"
#include "util/rng.hpp"

namespace qopt::autonomic {
namespace {

// ---------------------------------------------------------- OutlierFilter

TEST(OutlierFilterTest, MostlyPassesNormalSamples) {
  // A small Hampel false-positive rate is statistically inherent with a
  // 7-sample window over uniform noise; what matters for the autonomic loop
  // is that false rejections are rare and replaced by a nearby median.
  OutlierFilter filter;  // default window/threshold
  Rng rng(1);
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double sample = 1000.0 + rng.uniform(-50, 50);
    const double filtered = filter.filter(sample);
    EXPECT_NEAR(filtered, 1000.0, 51.0);  // never far from the true level
  }
  EXPECT_LT(filter.outliers_rejected(), static_cast<std::size_t>(n / 20));
}

TEST(OutlierFilterTest, RejectsSpike) {
  OutlierFilter filter;
  Rng rng(2);
  for (int i = 0; i < 40; ++i) filter.filter(1000.0 + rng.uniform(-30, 30));
  const std::size_t rejected_before = filter.outliers_rejected();
  const double filtered = filter.filter(5000.0);  // momentary spike
  EXPECT_TRUE(filter.last_was_outlier());
  EXPECT_NEAR(filtered, 1000.0, 60.0);  // replaced by rolling median
  EXPECT_EQ(filter.outliers_rejected(), rejected_before + 1);
}

TEST(OutlierFilterTest, RejectsDip) {
  OutlierFilter filter(7, 3.0);
  Rng rng(3);
  for (int i = 0; i < 20; ++i) filter.filter(1000.0 + rng.uniform(-30, 30));
  filter.filter(10.0);
  EXPECT_TRUE(filter.last_was_outlier());
}

TEST(OutlierFilterTest, SpikeBurstDoesNotDragMedian) {
  // Because rejected samples never enter the window, a burst of identical
  // spikes keeps being rejected (a genuine regime change must come through
  // gradual values, which is what the ShiftDetector is for).
  OutlierFilter filter(7, 3.0);
  Rng rng(4);
  for (int i = 0; i < 20; ++i) filter.filter(1000.0 + rng.uniform(-30, 30));
  for (int i = 0; i < 5; ++i) filter.filter(6000.0);
  EXPECT_EQ(filter.outliers_rejected(), 5u);
}

TEST(OutlierFilterTest, TooFewSamplesNeverRejects) {
  OutlierFilter filter(7, 3.0);
  EXPECT_DOUBLE_EQ(filter.filter(1.0), 1.0);
  EXPECT_DOUBLE_EQ(filter.filter(1e9), 1e9);  // only 2nd sample
  EXPECT_FALSE(filter.last_was_outlier());
}

TEST(OutlierFilterTest, ConstantHistoryDegenerateMad) {
  OutlierFilter filter(5, 3.0);
  for (int i = 0; i < 10; ++i) filter.filter(100.0);
  filter.filter(101.0);  // tiny deviation but MAD == 0
  EXPECT_TRUE(filter.last_was_outlier());
  EXPECT_DOUBLE_EQ(filter.filter(100.0), 100.0);
}

TEST(OutlierFilterTest, ResetClearsState) {
  OutlierFilter filter(5, 3.0);
  for (int i = 0; i < 10; ++i) filter.filter(100.0);
  filter.filter(9999.0);
  filter.reset();
  EXPECT_EQ(filter.outliers_rejected(), 0u);
  EXPECT_DOUBLE_EQ(filter.filter(9999.0), 9999.0);  // fresh window
}

// ---------------------------------------------------------- ShiftDetector

TEST(ShiftDetectorTest, NoShiftOnStationarySignal) {
  ShiftDetector detector(0.05, 0.6);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    EXPECT_FALSE(detector.update(1000.0 + rng.uniform(-20, 20)));
  }
  EXPECT_EQ(detector.shifts_detected(), 0u);
}

TEST(ShiftDetectorTest, DetectsUpwardShift) {
  ShiftDetector detector(0.05, 0.6);
  Rng rng(6);
  for (int i = 0; i < 50; ++i) detector.update(1000.0 + rng.uniform(-20, 20));
  bool detected = false;
  for (int i = 0; i < 30 && !detected; ++i) {
    detected = detector.update(1600.0 + rng.uniform(-20, 20));
  }
  EXPECT_TRUE(detected);
}

TEST(ShiftDetectorTest, DetectsDownwardShift) {
  ShiftDetector detector(0.05, 0.6);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) detector.update(1000.0 + rng.uniform(-20, 20));
  bool detected = false;
  for (int i = 0; i < 30 && !detected; ++i) {
    detected = detector.update(500.0 + rng.uniform(-20, 20));
  }
  EXPECT_TRUE(detected);
}

TEST(ShiftDetectorTest, ReadyForNextShiftAfterDetection) {
  ShiftDetector detector(0.05, 0.6);
  Rng rng(8);
  auto feed_until_shift = [&](double level) {
    for (int i = 0; i < 100; ++i) {
      if (detector.update(level + rng.uniform(-10, 10))) return true;
    }
    return false;
  };
  for (int i = 0; i < 50; ++i) detector.update(1000.0 + rng.uniform(-10, 10));
  EXPECT_TRUE(feed_until_shift(1500.0));
  EXPECT_TRUE(feed_until_shift(800.0));
  EXPECT_EQ(detector.shifts_detected(), 2u);
}

TEST(ShiftDetectorTest, WorksOnWriteRatioScale) {
  // The AM feeds write ratios in [0,1]; the detector must work there too.
  ShiftDetector detector(0.05, 0.5);
  Rng rng(9);
  for (int i = 0; i < 60; ++i) {
    detector.update(0.05 + rng.uniform(-0.01, 0.01));
  }
  bool detected = false;
  for (int i = 0; i < 30 && !detected; ++i) {
    detected = detector.update(0.95 + rng.uniform(-0.01, 0.01));
  }
  EXPECT_TRUE(detected);
}

TEST(ShiftDetectorTest, SmallDriftWithinDeltaIgnored) {
  ShiftDetector detector(0.10, 1.0);  // tolerate 10% drift
  Rng rng(10);
  for (int i = 0; i < 300; ++i) {
    // Slow 5% wander around the mean: inside the dead zone.
    const double level = 1000.0 * (1.0 + 0.05 * std::sin(i / 25.0));
    EXPECT_FALSE(detector.update(level + rng.uniform(-5, 5)));
  }
}

}  // namespace
}  // namespace qopt::autonomic
