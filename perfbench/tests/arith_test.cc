#include "arith.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4, 1, 3, 2};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 1.75);
  EXPECT_DOUBLE_EQ(Median({7}), 7.0);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3.0);
}

TEST(PercentileTest, P99OfOneToHundred) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 99), 99.01);
}

TEST(PercentileTest, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW(Percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(Percentile({1, 2}, 101), std::invalid_argument);
  EXPECT_THROW(Mean({}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(Mean({1, 2, 6}), 3.0);
}

TEST(TheoremBoundTest, ClusteringUsesLog2AndLogStarOfIdSpace) {
  // N = 2^16: log2 N = 16, log* N = 4 (65536 -> 16 -> 4 -> 2 -> 1).
  EXPECT_DOUBLE_EQ(ClusteringBound(30, 65536), 30.0 * 16 * 4);
  // N = 16: log2 N = 4, log* N = 3.
  EXPECT_DOUBLE_EQ(ClusteringBound(2, 16), 2.0 * 4 * 3);
}

TEST(TheoremBoundTest, BroadcastScalesWithDiameter) {
  // D (Γ + log* N) log2 N with N = 2^16.
  EXPECT_DOUBLE_EQ(BroadcastBound(16, 27, 65536), 16.0 * (27 + 4) * 16);
  EXPECT_DOUBLE_EQ(BroadcastBound(32, 27, 65536),
                   2 * BroadcastBound(16, 27, 65536));
}

TEST(SelfTimesTest, SubtractsChildLayers) {
  LayerTimes t;
  t.sweep_s = 10.0;
  t.build_s = 0.5;
  t.algo_s = 9.0;
  t.step_s = 6.0;
  t.engine_interval_s = 7.5;
  const SelfTimes s = DeriveSelfTimes(t);
  EXPECT_DOUBLE_EQ(s.exec_s, 3.0);
  EXPECT_DOUBLE_EQ(s.scenario_s, 0.5);
  EXPECT_DOUBLE_EQ(s.engine_round_overhead_s, 1.5);
}

TEST(ImbalanceTest, MaxOverMean) {
  EXPECT_DOUBLE_EQ(Imbalance({}), 0.0);
  EXPECT_DOUBLE_EQ(Imbalance({0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(Imbalance({10, 10}), 1.0);
  EXPECT_DOUBLE_EQ(Imbalance({30, 10}), 1.5);
}

}  // namespace
}  // namespace perfbench
