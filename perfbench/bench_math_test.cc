// Unit tests of the engine benchmark's own arithmetic (bench_math.h).
// perfbench/run.py runs them after every build, before any measurement.

#include "bench_math.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

namespace touch::perfbench {
namespace {

TEST(PairFoldTest, AddThenRemoveLeavesFoldUnchanged) {
  PairFold fold;
  fold.Add(1, 2);
  fold.Add(7, 3);
  const PairFold before = fold;
  fold.Add(40, 41);
  fold.Remove(40, 41);
  EXPECT_EQ(fold, before);
  fold.Remove(1, 2);
  fold.Remove(7, 3);
  EXPECT_EQ(fold, PairFold{});
}

TEST(PairFoldTest, OrderIndependent) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t i = 0; i < 1000; ++i) pairs.emplace_back(i % 37, i * 13);
  PairFold forward;
  for (const auto& [a, b] : pairs) forward.Add(a, b);
  std::mt19937 rng(5);
  std::shuffle(pairs.begin(), pairs.end(), rng);
  PairFold shuffled;
  for (const auto& [a, b] : pairs) shuffled.Add(a, b);
  EXPECT_EQ(forward, shuffled);
}

TEST(PairFoldTest, DistinguishesOrientationAndSets) {
  PairFold ab;
  ab.Add(1, 2);
  PairFold ba;
  ba.Add(2, 1);
  EXPECT_NE(ab, ba);
  // Same count, different members.
  PairFold x;
  x.Add(1, 2);
  x.Add(3, 4);
  PairFold y;
  y.Add(1, 4);
  y.Add(3, 2);
  EXPECT_NE(x, y);
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(samples, 0.5), 50);
  EXPECT_EQ(Percentile(samples, 0.9), 90);
  EXPECT_EQ(Percentile(samples, 1.0), 100);
  EXPECT_EQ(Percentile({7.0}, 0.9), 7);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({1, 2, 3}, 0.5), 2);
  EXPECT_EQ(Percentile({1, 2, 3, 4}, 0.5), 2);
}

TEST(PercentileTest, TenBeyondRule) {
  // p90 of 100 samples sits at index 89: exactly 10 samples lie beyond it.
  EXPECT_EQ(PercentileIndex(100, 0.9), 89u);
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_TRUE(PercentileSupported(100, 0.9));
  EXPECT_FALSE(PercentileSupported(99, 0.9));
  EXPECT_FALSE(PercentileSupported(0, 0.5));
  EXPECT_TRUE(PercentileSupported(20, 0.5));
  EXPECT_FALSE(PercentileSupported(19, 0.5));
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
}

TEST(SelfTimeTest, NoChildren) {
  EXPECT_EQ(SelfTimeNs(100, 50, {}), 50);
}

TEST(SelfTimeTest, SequentialChildren) {
  const std::vector<Interval> children = {{110, 120}, {130, 145}};
  EXPECT_EQ(SelfTimeNs(100, 50, children), 25);
}

TEST(SelfTimeTest, OverlappingCrossThreadChildrenCountOnce) {
  // Four parallel shard-pair requests on other threads, all inside a 100ns
  // parent: plain subtraction would give 100 - 4*60 < 0.
  const std::vector<Interval> children = {
      {10, 70}, {20, 80}, {15, 75}, {30, 90}};
  EXPECT_EQ(SelfTimeNs(0, 100, children), 100 - 80);
}

TEST(SelfTimeTest, ChildrenClippedToParent) {
  // A child that outlives its parent (a gather finishing after the root
  // was stamped) only covers the overlapping part.
  const std::vector<Interval> children = {{-20, 10}, {90, 200}};
  EXPECT_EQ(SelfTimeNs(0, 100, children), 80);
  EXPECT_EQ(SelfTimeNs(0, 100, std::vector<Interval>{{200, 300}}), 100);
}

TEST(SelfTimeTest, NestedAndInstantChildren) {
  const std::vector<Interval> children = {{10, 60}, {20, 30}, {40, 40}};
  EXPECT_EQ(SelfTimeNs(0, 100, children), 50);
}

TEST(QErrorTest, SymmetricAndFloored) {
  EXPECT_DOUBLE_EQ(QError(100, 100), 1.0);
  EXPECT_DOUBLE_EQ(QError(200, 100), 2.0);
  EXPECT_DOUBLE_EQ(QError(50, 100), 2.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0, 10), 10.0);
  EXPECT_DOUBLE_EQ(QError(0.5, 4), 4.0);
}

TEST(RegretTest, RatioToBestFixed) {
  const std::vector<double> fixed = {0.4, 0.2, 0.8};
  EXPECT_DOUBLE_EQ(Regret(0.2, fixed), 1.0);
  EXPECT_DOUBLE_EQ(Regret(0.3, fixed), 1.5);
  EXPECT_DOUBLE_EQ(Regret(0.1, fixed), 0.5);
  EXPECT_EQ(Regret(0.3, {}), 0);
}

}  // namespace
}  // namespace touch::perfbench
