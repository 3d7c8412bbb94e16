// Tests for the temporal graph model: builder validation of the paper's
// Constraints 1-3 (§III), CSR adjacency, snapshots and Table-1 statistics.
#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "graph/partitioner.h"
#include "graph/snapshot.h"
#include "testutil.h"

namespace graphite {
namespace {

TEST(BuilderTest, BuildsValidGraph) {
  TemporalGraphBuilder b;
  b.AddVertex(1, Interval(0, 10));
  b.AddVertex(2, Interval(2, 8));
  b.AddEdge(100, 1, 2, Interval(3, 6));
  b.SetEdgeProperty(100, "w", Interval(3, 5), 7);
  b.SetVertexProperty(1, "color", Interval(0, 10), 1);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 2u);
  EXPECT_EQ(g->num_edges(), 1u);
  EXPECT_EQ(g->horizon(), 10);
  auto v1 = g->IndexOf(1);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(g->OutEdges(*v1).size(), 1u);
  EXPECT_EQ(g->OutEdges(*v1)[0].eid, 100);
  auto v2 = g->IndexOf(2);
  EXPECT_EQ(g->InEdgePositions(*v2).size(), 1u);
  auto label = g->LabelIdOf("w");
  ASSERT_TRUE(label.has_value());
  const PropRuns prop = g->EdgeProperty(0, *label);
  ASSERT_FALSE(prop.empty());
  EXPECT_EQ(prop.Get(4), 7);
  EXPECT_EQ(prop.Get(5), std::nullopt);
}

TEST(BuilderTest, Constraint1DuplicateVertex) {
  TemporalGraphBuilder b;
  b.AddVertex(1, Interval(0, 5));
  b.AddVertex(1, Interval(5, 9));  // Same vid reappearing: forbidden.
  auto g = b.Build();
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kConstraintViolation);
}

TEST(BuilderTest, Constraint1DuplicateEdge) {
  TemporalGraphBuilder b;
  b.AddVertex(1, Interval(0, 9));
  b.AddVertex(2, Interval(0, 9));
  b.AddEdge(7, 1, 2, Interval(0, 3));
  b.AddEdge(7, 1, 2, Interval(4, 6));
  EXPECT_FALSE(b.Build().ok());
}

TEST(BuilderTest, Constraint2EdgeOutsideEndpointLifespan) {
  TemporalGraphBuilder b;
  b.AddVertex(1, Interval(0, 5));
  b.AddVertex(2, Interval(0, 9));
  b.AddEdge(7, 1, 2, Interval(3, 8));  // Ends after vertex 1 dies.
  auto g = b.Build();
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kConstraintViolation);
}

TEST(BuilderTest, Constraint2MissingEndpoint) {
  TemporalGraphBuilder b;
  b.AddVertex(1, Interval(0, 5));
  b.AddEdge(7, 1, 99, Interval(1, 3));
  EXPECT_FALSE(b.Build().ok());
}

TEST(BuilderTest, Constraint3PropertyOutsideLifespan) {
  TemporalGraphBuilder b;
  b.AddVertex(1, Interval(2, 5));
  b.SetVertexProperty(1, "p", Interval(0, 4), 1);
  EXPECT_FALSE(b.Build().ok());
}

TEST(BuilderTest, Def1OverlappingPropertyValues) {
  TemporalGraphBuilder b;
  b.AddVertex(1, Interval(0, 10));
  b.SetVertexProperty(1, "p", Interval(0, 5), 1);
  b.SetVertexProperty(1, "p", Interval(3, 8), 2);  // Overlaps [3,5).
  EXPECT_FALSE(b.Build().ok());
}

TEST(BuilderTest, DistinctLabelsMayOverlap) {
  TemporalGraphBuilder b;
  b.AddVertex(1, Interval(0, 10));
  b.SetVertexProperty(1, "p", Interval(0, 5), 1);
  b.SetVertexProperty(1, "q", Interval(3, 8), 2);
  EXPECT_TRUE(b.Build().ok());
}

// The error names the first run, in input order, that overlaps an
// earlier one of its label: here the third, although sorted by start it
// sits between the other two.
TEST(BuilderTest, Def1ReportsTheFirstOverlappingRunInInputOrder) {
  TemporalGraphBuilder b;
  b.AddVertex(1, Interval(0, 10));
  b.SetVertexProperty(1, "p", Interval(4, 5), 1);
  b.SetVertexProperty(1, "q", Interval(0, 10), 1);
  b.SetVertexProperty(1, "p", Interval(0, 9), 2);
  b.SetVertexProperty(1, "p", Interval(1, 2), 3);
  auto g = b.Build();
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("'p' at [0, 9)"), std::string::npos)
      << g.status().ToString();
}

// Without validation, overlapping runs of one label resolve exactly as
// successive IntervalMap::Set calls in input order, and each entity keeps
// its labels in first-set order.
TEST(BuilderTest, UnvalidatedOverlapsResolveLikeSet) {
  const std::vector<std::pair<Interval, PropValue>> sets = {
      {Interval(0, 10), 1}, {Interval(3, 5), 2}, {Interval(3, 5), 3},
      {Interval(8, 12), 4}, {Interval(12, 14), 5}};
  TemporalGraphBuilder b;
  b.AddVertex(1, Interval(0, 20));
  b.AddVertex(2, Interval(0, 20));
  b.AddEdge(7, 1, 2, Interval(0, 20));
  b.SetEdgeProperty(7, "z", Interval(0, 1), 9);
  IntervalMap<PropValue> want;
  for (const auto& [interval, value] : sets) {
    b.SetEdgeProperty(7, "w", interval, value);
    want.Set(interval, value);
  }
  BuilderOptions options;
  options.validate = false;
  auto g = b.Build(options);
  ASSERT_TRUE(g.ok());
  std::vector<std::string> labels;
  for (const auto& [label, runs] : g->EdgeProperties(0)) {
    labels.push_back(g->LabelName(label));
  }
  EXPECT_EQ(labels, (std::vector<std::string>{"z", "w"}));
  const PropRuns got = g->EdgeProperty(0, *g->LabelIdOf("w"));
  EXPECT_EQ(std::vector<PropRun>(got.entries().begin(), got.entries().end()),
            std::vector<PropRun>(want.entries().begin(), want.entries().end()));
}

TEST(BuilderTest, InvalidIntervalRejected) {
  TemporalGraphBuilder b;
  b.AddVertex(1, Interval(5, 5));
  EXPECT_FALSE(b.Build().ok());
}

// A label the text format cannot carry (empty, or holding whitespace)
// is rejected, so every graph that builds also re-reads from its text.
TEST(BuilderTest, RejectsLabelsTheTextFormatCannotCarry) {
  for (const std::string label : {"", "a b", "a\tb", "ab\r", "\na"}) {
    SCOPED_TRACE(label);
    TemporalGraphBuilder vertex;
    vertex.AddVertex(1, Interval(0, 9));
    vertex.SetVertexProperty(1, label, Interval(0, 3), 1);
    auto g = vertex.Build();
    ASSERT_FALSE(g.ok());
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
    TemporalGraphBuilder edge;
    edge.AddVertex(1, Interval(0, 9));
    edge.AddVertex(2, Interval(0, 9));
    edge.AddEdge(5, 1, 2, Interval(0, 9));
    edge.SetEdgeProperty(5, "ok", Interval(0, 3), 1);
    edge.SetEdgeProperty(5, label, Interval(0, 3), 1);
    BuilderOptions unchecked;
    unchecked.validate = false;
    g = edge.Build(unchecked);
    ASSERT_FALSE(g.ok());
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_FALSE(IsValidLabel(""));
  EXPECT_FALSE(IsValidLabel("a\vb"));
  EXPECT_FALSE(IsValidLabel("a\fb"));
  EXPECT_TRUE(IsValidLabel(kTravelTimeLabel));
  EXPECT_TRUE(IsValidLabel(kTravelCostLabel));
  EXPECT_TRUE(IsValidLabel("#w"));
}

TEST(BuilderTest, HorizonDerivedFromEntities) {
  TemporalGraphBuilder b;
  b.AddVertex(1, Interval(0, 7));
  b.AddVertex(2, Interval(0, kTimeMax));  // Open-ended ignored for horizon.
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->horizon(), 7);
}

TEST(BuilderTest, MultiGraphParallelEdges) {
  TemporalGraphBuilder b;
  b.AddVertex(1, Interval(0, 9));
  b.AddVertex(2, Interval(0, 9));
  b.AddEdge(1, 1, 2, Interval(0, 4));
  b.AddEdge(2, 1, 2, Interval(2, 6));  // Parallel edge: allowed.
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->OutEdges(*g->IndexOf(1)).size(), 2u);
}

TEST(SnapshotTest, ActiveEntitiesAtTimePoint) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  SnapshotView s4(&g, 4);
  size_t nv = 0, ne = 0;
  s4.CountActive(&nv, &ne);
  EXPECT_EQ(nv, 6u);  // All vertices are perpetual.
  EXPECT_EQ(ne, 1u);  // Only A->B [3,6) is alive at 4.
  SnapshotView s1(&g, 1);
  s1.CountActive(&nv, &ne);
  EXPECT_EQ(ne, 2u);  // A->C [1,2) and D->F [1,2).
}

TEST(SnapshotTest, EdgePropertyAtTime) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  SnapshotView s(&g, 4);
  const auto cost = g.LabelIdOf("travel-cost");
  ASSERT_TRUE(cost.has_value());
  // Edge A->B is stored first for vertex A (eid 10 is its smallest).
  const VertexIdx a = *g.IndexOf(testutil::kA);
  bool found = false;
  s.ForEachOutEdge(a, [&](const StoredEdge& e, EdgePos pos) {
    EXPECT_EQ(e.eid, 10);
    EXPECT_EQ(s.EdgePropertyAt(pos, *cost), 4);  // [3,5) costs 4.
    found = true;
  });
  EXPECT_TRUE(found);
}

TEST(GraphStatsTest, TransitGraphStats) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  const GraphStats s = ComputeGraphStats(g);
  EXPECT_EQ(s.num_snapshots, 10);
  EXPECT_EQ(s.interval_v, 6u);
  EXPECT_EQ(s.interval_e, 6u);
  EXPECT_EQ(s.largest_snapshot_v, 6u);
  // Edges alive per t: t=1:2, t=2:1, t=3:2, t=4:1, t=5:2, t=8:1.
  EXPECT_EQ(s.largest_snapshot_e, 2u);
  EXPECT_EQ(s.multi_snapshot_e, 9u);  // Sum of clipped edge lifespans.
  EXPECT_EQ(s.multi_snapshot_v, 60u);
  EXPECT_DOUBLE_EQ(s.avg_edge_lifespan, 9.0 / 6.0);
  EXPECT_GT(s.transformed_v, 0u);
  EXPECT_GT(s.transformed_e, 0u);
}

TEST(PartitionerTest, DeterministicAndComplete) {
  HashPartitioner p(4);
  for (VertexId v = 0; v < 1000; ++v) {
    const int w = p.WorkerOf(v);
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 4);
    EXPECT_EQ(w, p.WorkerOf(v));
  }
}

TEST(PartitionerTest, RoughBalance) {
  HashPartitioner p(8);
  std::vector<int> counts(8, 0);
  for (VertexId v = 0; v < 8000; ++v) ++counts[p.WorkerOf(v)];
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(ReverseGraphTest, EdgesSwappedPropertiesKept) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  const TemporalGraph r = ReverseGraph(g);
  EXPECT_EQ(r.num_vertices(), g.num_vertices());
  EXPECT_EQ(r.num_edges(), g.num_edges());
  // Original A->B becomes B->A with the same cost profile.
  const VertexIdx b = *r.IndexOf(testutil::kB);
  bool found = false;
  for (size_t k = 0; k < r.OutEdges(b).size(); ++k) {
    const StoredEdge& e = r.OutEdges(b)[k];
    if (e.eid == 10) {
      EXPECT_EQ(r.vertex_id(e.dst), testutil::kA);
      EXPECT_EQ(e.interval, Interval(3, 6));
      const auto cost = r.LabelIdOf("travel-cost");
      const PropRuns runs = r.EdgeProperty(r.OutEdgePos(b, k), *cost);
      ASSERT_FALSE(runs.empty());
      EXPECT_EQ(runs.Get(3), 4);
      EXPECT_EQ(runs.Get(5), 3);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MakeUndirectedTest, DoublesEdges) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  const TemporalGraph u = MakeUndirected(g);
  EXPECT_EQ(u.num_edges(), 2 * g.num_edges());
}

TEST(OutDegreeProfilesTest, TransitGraph) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  const auto profiles = OutDegreeProfiles(g);
  const VertexIdx a = *g.IndexOf(testutil::kA);
  // A's out-edges: [3,6), [1,2), [2,4): degree 1 on [1,3), 2 on [3,4),
  // 1 on [4,6).
  EXPECT_EQ(profiles[a].Get(0), std::nullopt);
  EXPECT_EQ(profiles[a].Get(1), 1);
  EXPECT_EQ(profiles[a].Get(3), 2);
  EXPECT_EQ(profiles[a].Get(4), 1);
  EXPECT_EQ(profiles[a].Get(6), std::nullopt);
}

}  // namespace
}  // namespace graphite
