// Tests for the partitioning strategies (§VIII extension) and their use
// by the ICM engine: assignments are complete and balanced, quality
// metrics are computed correctly, and every strategy yields identical
// algorithm results.
#include "graph/partition_strategies.h"

#include <gtest/gtest.h>

#include "algorithms/icm_path.h"
#include "gen/generators.h"
#include "icm/icm_engine.h"
#include "testutil.h"

namespace graphite {
namespace {

constexpr PartitionStrategy kAll[] = {
    PartitionStrategy::kHash, PartitionStrategy::kRange,
    PartitionStrategy::kBlock, PartitionStrategy::kGreedyLdg};

TEST(PartitionStrategiesTest, AssignmentsCompleteAndBounded) {
  const TemporalGraph g = testutil::MakeRandomGraph(404);
  for (PartitionStrategy s : kAll) {
    const auto part = ComputePartition(g, s, 4);
    ASSERT_EQ(part.size(), g.num_vertices()) << PartitionStrategyName(s);
    for (int w : part) {
      EXPECT_GE(w, 0);
      EXPECT_LT(w, 4);
    }
  }
}

TEST(PartitionStrategiesTest, LoadRoughlyBalanced) {
  GenOptions opt;
  opt.num_vertices = 2000;
  opt.num_edges = 8000;
  const TemporalGraph g = Generate(opt);
  for (PartitionStrategy s : kAll) {
    const auto part = ComputePartition(g, s, 4);
    const PartitionQuality q = EvaluatePartition(g, part, 4);
    EXPECT_LT(q.load_imbalance, 1.6) << PartitionStrategyName(s);
    EXPECT_GE(q.load_imbalance, 1.0) << PartitionStrategyName(s);
  }
}

TEST(PartitionStrategiesTest, QualityMetricsOnKnownAssignment) {
  // Two vertices alive [0, 10), one edge alive [2, 6).
  TemporalGraphBuilder b;
  b.AddVertex(1, Interval(0, 10));
  b.AddVertex(2, Interval(0, 10));
  b.AddEdge(5, 1, 2, Interval(2, 6));
  const TemporalGraph g = std::move(b.Build()).value();

  const PartitionQuality same = EvaluatePartition(g, {0, 0}, 2);
  EXPECT_EQ(same.temporal_edge_cut, 0);
  EXPECT_DOUBLE_EQ(same.cut_fraction, 0.0);
  EXPECT_DOUBLE_EQ(same.load_imbalance, 2.0);  // All load on worker 0.

  const PartitionQuality split = EvaluatePartition(g, {0, 1}, 2);
  EXPECT_EQ(split.temporal_edge_cut, 4);  // |[2,6)| time-points.
  EXPECT_DOUBLE_EQ(split.cut_fraction, 1.0);
  EXPECT_DOUBLE_EQ(split.load_imbalance, 1.0);
}

TEST(PartitionStrategiesTest, BlockBeatsHashOnGridLocality) {
  // Road grids have id-local neighborhoods: the block partitioner should
  // cut far fewer temporal edges than hash (the §VIII exploration).
  GenOptions opt;
  opt.topology = GenOptions::Topology::kGrid;
  opt.num_vertices = 1024;
  opt.snapshots = 8;
  opt.edge_lifespan = GenOptions::Lifespan::kFull;
  const TemporalGraph g = Generate(opt);
  const auto hash = EvaluatePartition(
      g, ComputePartition(g, PartitionStrategy::kHash, 8), 8);
  const auto block = EvaluatePartition(
      g, ComputePartition(g, PartitionStrategy::kBlock, 8), 8);
  EXPECT_LT(block.cut_fraction, 0.5 * hash.cut_fraction);
}

TEST(PartitionStrategiesTest, GreedyLdgCutsLessThanHash) {
  GenOptions opt;
  opt.num_vertices = 1500;
  opt.num_edges = 6000;
  const TemporalGraph g = Generate(opt);
  const auto hash = EvaluatePartition(
      g, ComputePartition(g, PartitionStrategy::kHash, 8), 8);
  const auto ldg = EvaluatePartition(
      g, ComputePartition(g, PartitionStrategy::kGreedyLdg, 8), 8);
  EXPECT_LT(ldg.temporal_edge_cut, hash.temporal_edge_cut);
}

TEST(PartitionStrategiesTest, IcmResultsInvariantToStrategy) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  IcmSssp baseline_prog(g, testutil::kA);
  auto want = IcmEngine<IcmSssp>::Run(g, baseline_prog, IcmOptions{});
  for (PartitionStrategy s : kAll) {
    const auto part = ComputePartition(g, s, 3);
    IcmOptions options;
    options.num_workers = 3;
    options.placement = Placement::Explicit(&part);
    IcmSssp program(g, testutil::kA);
    auto got = IcmEngine<IcmSssp>::Run(g, program, options);
    for (size_t v = 0; v < g.num_vertices(); ++v) {
      auto a = want.states[v];
      auto b = got.states[v];
      a.Coalesce();
      b.Coalesce();
      ASSERT_EQ(a, b) << PartitionStrategyName(s);
    }
    EXPECT_EQ(got.metrics.messages, want.metrics.messages);
  }
}

TEST(PartitionStrategiesTest, CutAffectsCrossWorkerBytesOnly) {
  // With everything on one worker, no bytes cross workers; a split
  // assignment moves traffic onto the wire. Total messages identical.
  GenOptions opt;
  opt.num_vertices = 200;
  opt.num_edges = 800;
  opt.snapshots = 8;
  const TemporalGraph g = Generate(opt);
  const std::vector<int> all_zero(g.num_vertices(), 0);
  // Source from a hub so the flood really crosses the graph.
  VertexIdx hub = 0;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    if (g.OutEdges(v).size() > g.OutEdges(hub).size()) hub = v;
  }
  const VertexId source = g.vertex_id(hub);

  IcmOptions one;
  one.num_workers = 2;
  one.placement = Placement::Explicit(&all_zero);
  IcmReach p1(g, source);
  auto r1 = IcmEngine<IcmReach>::Run(g, p1, one);
  ASSERT_GT(r1.metrics.messages, 0);

  const auto split = ComputePartition(g, PartitionStrategy::kBlock, 2);
  IcmOptions two;
  two.num_workers = 2;
  two.placement = Placement::Explicit(&split);
  IcmReach p2(g, source);
  auto r2 = IcmEngine<IcmReach>::Run(g, p2, two);

  EXPECT_EQ(r1.metrics.messages, r2.metrics.messages);
  int64_t cross1 = 0, cross2 = 0;
  for (const auto& ss : r1.metrics.per_superstep) {
    for (int64_t b : ss.worker_in_bytes) cross1 += b;
  }
  for (const auto& ss : r2.metrics.per_superstep) {
    for (int64_t b : ss.worker_in_bytes) cross2 += b;
  }
  EXPECT_EQ(cross1, 0);
  EXPECT_GT(cross2, 0);
}

}  // namespace
}  // namespace graphite
