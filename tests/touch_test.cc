#include "core/touch.h"

#include <gtest/gtest.h>

#include "core/overlap_kernel.h"
#include "datagen/distributions.h"
#include "test_util.h"
#include "util/simd.h"

namespace touch {
namespace {

Dataset DenseA() {
  Dataset a = GenerateSynthetic(Distribution::kClustered, 500, 20);
  for (Box& box : a) box = box.Enlarged(10.0f);
  return a;
}
Dataset DenseB() { return GenerateSynthetic(Distribution::kClustered, 800, 21); }

TEST(TouchJoinTest, MatchesOracle) {
  TouchJoin join;
  const Dataset a = DenseA();
  const Dataset b = DenseB();
  EXPECT_EQ(RunJoinSorted(join, a, b), OracleJoin(a, b));
}

TEST(TouchJoinTest, MatchesOracleAcrossFanouts) {
  const Dataset a = DenseA();
  const Dataset b = DenseB();
  const auto oracle = OracleJoin(a, b);
  for (const size_t fanout : {2u, 3u, 8u, 20u}) {
    TouchOptions opt;
    opt.fanout = fanout;
    TouchJoin join(opt);
    EXPECT_EQ(RunJoinSorted(join, a, b), oracle) << "fanout=" << fanout;
  }
}

TEST(TouchJoinTest, MatchesOracleAcrossPartitionCounts) {
  const Dataset a = DenseA();
  const Dataset b = DenseB();
  const auto oracle = OracleJoin(a, b);
  for (const size_t partitions : {1u, 4u, 64u, 1024u, 100000u}) {
    TouchOptions opt;
    opt.partitions = partitions;
    TouchJoin join(opt);
    EXPECT_EQ(RunJoinSorted(join, a, b), oracle)
        << "partitions=" << partitions;
  }
}

TEST(TouchJoinTest, MatchesOracleForEveryLocalJoinStrategy) {
  const Dataset a = DenseA();
  const Dataset b = DenseB();
  const auto oracle = OracleJoin(a, b);
  for (const LocalJoinStrategy strategy :
       {LocalJoinStrategy::kGrid, LocalJoinStrategy::kPlaneSweep,
        LocalJoinStrategy::kNestedLoop}) {
    TouchOptions opt;
    opt.local_join = strategy;
    TouchJoin join(opt);
    EXPECT_EQ(RunJoinSorted(join, a, b), oracle)
        << LocalJoinStrategyName(strategy);
  }
}

TEST(TouchJoinTest, MatchesOracleForEveryJoinOrder) {
  const Dataset a = DenseA();   // 500 objects
  const Dataset b = DenseB();   // 800 objects
  const auto oracle = OracleJoin(a, b);
  for (const TouchOptions::JoinOrder order :
       {TouchOptions::JoinOrder::kAuto, TouchOptions::JoinOrder::kBuildOnA,
        TouchOptions::JoinOrder::kBuildOnB}) {
    TouchOptions opt;
    opt.join_order = order;
    TouchJoin join(opt);
    // Pair orientation must stay (a, b) even when the tree is built on B.
    EXPECT_EQ(RunJoinSorted(join, a, b), oracle);
  }
}

TEST(TouchJoinTest, NoDuplicateResults) {
  TouchJoin join;
  Dataset a = DenseA();
  for (Box& box : a) box = box.Enlarged(30.0f);  // force heavy cell overlap
  const Dataset b = DenseB();
  VectorCollector out;
  join.Join(a, b, out);
  EXPECT_TRUE(HasNoDuplicates(out.pairs()));
}

TEST(TouchJoinTest, FiltersObjectsOutsideTheTree) {
  // B objects far from every A object must be filtered, not compared.
  Dataset a;
  for (int i = 0; i < 100; ++i) {
    a.push_back(CenteredBox(static_cast<float>(i), 0, 0));
  }
  Dataset b;
  for (int i = 0; i < 50; ++i) {
    b.push_back(CenteredBox(static_cast<float>(i), 0, 0));       // near
    b.push_back(CenteredBox(static_cast<float>(i), 500, 500));   // far
  }
  TouchOptions opt;
  opt.join_order = TouchOptions::JoinOrder::kBuildOnA;
  TouchJoin join(opt);
  JoinStats stats;
  const auto pairs = RunJoinSorted(join, a, b, &stats);
  EXPECT_EQ(pairs, OracleJoin(a, b));
  EXPECT_GE(stats.filtered, 50u);  // all far objects filtered
}

TEST(TouchJoinTest, UniformDataFiltersAlmostNothing) {
  // Paper Figure 13: on uniform data of equal extent (almost) nothing is
  // filtered. At test scale the leaf MBRs keep a little dead space, so allow
  // a few percent.
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 2000, 22);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 2000, 23);
  TouchOptions opt;
  opt.join_order = TouchOptions::JoinOrder::kBuildOnA;
  TouchJoin join(opt);
  JoinStats stats;
  RunJoinSorted(join, a, b, &stats);
  EXPECT_LT(stats.filtered, b.size() / 10);
}

TEST(TouchJoinTest, ClusteredDataFiltersMoreThanUniform) {
  // Paper Figure 13: the less uniform the data, the more gets filtered.
  SyntheticOptions copt;
  copt.clusters = 10;
  copt.cluster_sigma = 50.0f;
  const Dataset ca =
      GenerateSynthetic(Distribution::kClustered, 2000, 24, copt);
  const Dataset cb =
      GenerateSynthetic(Distribution::kClustered, 2000, 25, copt);
  TouchOptions opt;
  opt.join_order = TouchOptions::JoinOrder::kBuildOnA;
  TouchJoin join(opt);
  JoinStats clustered_stats;
  RunJoinSorted(join, ca, cb, &clustered_stats);

  const Dataset ua = GenerateSynthetic(Distribution::kUniform, 2000, 24);
  const Dataset ub = GenerateSynthetic(Distribution::kUniform, 2000, 25);
  JoinStats uniform_stats;
  RunJoinSorted(join, ua, ub, &uniform_stats);
  EXPECT_GT(clustered_stats.filtered, uniform_stats.filtered);
}

TEST(TouchJoinTest, SmallerFanoutNeedsFewerComparisons) {
  // Paper Figure 14(b): fanout 2 does ~1.5x fewer comparisons than 20.
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 4000, 26);
  Dataset a_big = a;
  for (Box& box : a_big) box = box.Enlarged(5.0f);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 8000, 27);
  JoinStats fanout2;
  JoinStats fanout20;
  {
    TouchOptions opt;
    opt.fanout = 2;
    opt.join_order = TouchOptions::JoinOrder::kBuildOnA;
    TouchJoin join(opt);
    RunJoinSorted(join, a_big, b, &fanout2);
  }
  {
    TouchOptions opt;
    opt.fanout = 20;
    opt.join_order = TouchOptions::JoinOrder::kBuildOnA;
    TouchJoin join(opt);
    RunJoinSorted(join, a_big, b, &fanout20);
  }
  EXPECT_LT(fanout2.comparisons, fanout20.comparisons);
}

TEST(TouchJoinTest, AutoOrderBuildsOnSmallerSide) {
  // With kAuto and |A| >> |B| the tree goes on B; the cheap way to observe
  // it is that results stay correctly oriented and memory stays low.
  const Dataset big = GenerateSynthetic(Distribution::kUniform, 5000, 28);
  const Dataset tiny = GenerateSynthetic(Distribution::kUniform, 100, 29);
  TouchJoin join;
  EXPECT_EQ(RunJoinSorted(join, big, tiny), OracleJoin(big, tiny));
}

TEST(TouchJoinTest, EmptyInputs) {
  TouchJoin join;
  const Dataset a = DenseA();
  JoinStats stats;
  EXPECT_TRUE(RunJoinSorted(join, {}, a, &stats).empty());
  EXPECT_TRUE(RunJoinSorted(join, a, {}, &stats).empty());
  EXPECT_TRUE(RunJoinSorted(join, {}, {}, &stats).empty());
}

TEST(TouchJoinTest, IdenticalDatasetsSelfJoin) {
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 500, 30);
  TouchJoin join;
  const auto pairs = RunJoinSorted(join, a, a);
  EXPECT_EQ(pairs, OracleJoin(a, a));
  // Self-join must at least contain the diagonal.
  EXPECT_GE(pairs.size(), a.size());
}

TEST(TouchJoinTest, AllOverlappingAdversarialCase) {
  // Every box overlaps every other box: result is the full cross product.
  Dataset a;
  Dataset b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(CenteredBox(500, 500, 500, 100 + static_cast<float>(i)));
    b.push_back(CenteredBox(510, 510, 510, 100 + static_cast<float>(i)));
  }
  TouchJoin join;
  JoinStats stats;
  const auto pairs = RunJoinSorted(join, a, b, &stats);
  EXPECT_EQ(pairs.size(), a.size() * b.size());
}

TEST(TouchJoinTest, StatsTimingsArePopulated) {
  TouchJoin join;
  const Dataset a = DenseA();
  const Dataset b = DenseB();
  JoinStats stats;
  RunJoinSorted(join, a, b, &stats);
  EXPECT_GE(stats.total_seconds,
            stats.build_seconds);  // total covers all phases
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GT(stats.memory_bytes, 0u);
  EXPECT_GT(stats.node_comparisons, 0u);
}

TEST(TouchJoinTest, ResultsCounterMatchesCollector) {
  TouchJoin join;
  const Dataset a = DenseA();
  const Dataset b = DenseB();
  CountingCollector out;
  const JoinStats stats = join.Join(a, b, out);
  EXPECT_EQ(stats.results, out.count());
}

TEST(DistanceJoinTest, EquivalentToEnlargedSpatialJoin) {
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 300, 31);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 300, 32);
  TouchJoin join;
  VectorCollector distance_out;
  DistanceJoin(join, a, b, 15.0f, distance_out);
  auto distance_pairs = distance_out.pairs();
  std::sort(distance_pairs.begin(), distance_pairs.end());

  Dataset enlarged = a;
  for (Box& box : enlarged) box = box.Enlarged(15.0f);
  EXPECT_EQ(distance_pairs, OracleJoin(enlarged, b));
}

TEST(DistanceJoinTest, LargerEpsilonYieldsSupersetOfResults) {
  // Compact space so both epsilon values yield non-empty result sets.
  SyntheticOptions gen;
  gen.space = 120.0f;
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 400, 33, gen);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 400, 34, gen);
  TouchJoin join;
  VectorCollector out5;
  VectorCollector out10;
  DistanceJoin(join, a, b, 5.0f, out5);
  DistanceJoin(join, a, b, 10.0f, out10);
  auto p5 = out5.pairs();
  auto p10 = out10.pairs();
  std::sort(p5.begin(), p5.end());
  std::sort(p10.begin(), p10.end());
  EXPECT_TRUE(std::includes(p10.begin(), p10.end(), p5.begin(), p5.end()));
  EXPECT_GT(p10.size(), p5.size());
}

TEST(DistanceJoinTest, ZeroEpsilonIsPlainSpatialJoin) {
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 300, 35);
  Dataset b = a;  // guarantee overlaps
  TouchJoin join;
  VectorCollector out;
  DistanceJoin(join, a, b, 0.0f, out);
  auto pairs = out.pairs();
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(pairs, OracleJoin(a, b));
}

// The two orientations the engine runs a cached distance join in: a tree
// over the enlarged copy of A probed by raw B (epsilon baked into the tree),
// and a tree over raw B probed by A with probe_epsilon (epsilon applied on
// the fly, pairs flipped back to (a, b)). The local-join cell rule counts
// epsilon on whichever side carries it, so both must equal the nested loop
// from epsilon 0 up to ten times the objects, at every dispatch level.
TEST(DistanceJoinTest, BothOrientationsMatchNestedLoopAtEverySimdLevel) {
  SyntheticOptions gen;
  gen.space = 60.0f;
  gen.max_side = 2.0f;
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 1200, 36, gen);
  const Dataset b = GenerateSynthetic(Distribution::kClustered, 2000, 37, gen);
  double extent_sum = 0;
  for (const Dataset* boxes : {&a, &b}) {
    for (const Box& box : *boxes) {
      const Vec3 e = box.Extent();
      extent_sum += (e.x + e.y + e.z) / 3.0;
    }
  }
  const float avg_extent =
      static_cast<float>(extent_sum / static_cast<double>(a.size() + b.size()));
  const TouchTree tree_b(b, /*leaf_capacity=*/8, /*fanout=*/2);
  const simd::Level entry_level = ActiveSimdLevel();
  for (const float scale : {0.0f, 0.25f, 10.0f}) {
    const float epsilon = scale * avg_extent;
    Dataset enlarged_a = a;
    for (Box& box : enlarged_a) box = box.Enlarged(epsilon);
    const std::vector<IdPair> expected = OracleJoin(enlarged_a, b);
    ASSERT_FALSE(expected.empty()) << "epsilon " << epsilon;
    const TouchTree tree_a(enlarged_a, /*leaf_capacity=*/8, /*fanout=*/2);
    for (const simd::Level level : simd::RuntimeAvailableLevels()) {
      ASSERT_TRUE(ForceSimdLevel(level));
      const std::string context = std::string("epsilon ") +
                                  std::to_string(epsilon) + " at " +
                                  simd::LevelName(level);
      TouchJoin join;
      VectorCollector baked;
      join.JoinWithPrebuiltTree(tree_a, enlarged_a, b, baked);
      std::vector<IdPair> baked_pairs = baked.pairs();
      std::sort(baked_pairs.begin(), baked_pairs.end());
      EXPECT_EQ(baked_pairs, expected) << "tree over enlarged A, " << context;

      VectorCollector on_the_fly;
      join.JoinWithPrebuiltTree(tree_b, b, a, on_the_fly, epsilon);
      std::vector<IdPair> flipped;
      for (const auto& [b_id, a_id] : on_the_fly.pairs()) {
        flipped.emplace_back(a_id, b_id);
      }
      std::sort(flipped.begin(), flipped.end());
      EXPECT_EQ(flipped, expected) << "tree over raw B, " << context;
    }
  }
  ForceSimdLevel(entry_level);
}

}  // namespace
}  // namespace touch
