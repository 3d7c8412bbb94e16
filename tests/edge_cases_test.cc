// Edge-case battery: degenerate graphs (empty, single vertex, isolated
// vertices, missing sources), extreme intervals (negative times, kTimeMin
// bounds), and engine behavior at the boundaries.
#include <gtest/gtest.h>

#include "algorithms/icm_path.h"
#include "algorithms/icm_ti.h"
#include "algorithms/oracle.h"
#include "algorithms/runners.h"
#include "icm/icm_engine.h"
#include "icm/warp.h"
#include "io/text_format.h"
#include "testutil.h"
#include "warp_reference.h"

namespace graphite {
namespace {

TemporalGraph SingleVertexGraph() {
  TemporalGraphBuilder b;
  b.AddVertex(7, Interval(0, 5));
  BuilderOptions options;
  options.horizon = 5;
  return std::move(b.Build()).value();
}

TEST(EdgeCaseTest, EmptyGraphRunsAllIcmAlgorithms) {
  TemporalGraphBuilder b;
  BuilderOptions options;
  options.horizon = 4;
  const TemporalGraph g = std::move(b.Build()).value();
  IcmSssp sssp(g, 0);
  auto r = IcmEngine<IcmSssp>::Run(g, sssp);
  EXPECT_EQ(r.metrics.compute_calls, 0);
  EXPECT_EQ(r.metrics.messages, 0);
  EXPECT_EQ(r.metrics.supersteps, 1);  // One empty superstep, then halt.
}

TEST(EdgeCaseTest, SingleVertexGraph) {
  const TemporalGraph g = SingleVertexGraph();
  IcmSssp sssp(g, 7);
  auto r = IcmEngine<IcmSssp>::Run(g, sssp);
  EXPECT_EQ(r.states[0].entries().size(), 1u);
  EXPECT_EQ(r.states[0].entries()[0].value, 0);  // Source, no edges.
  EXPECT_EQ(r.metrics.messages, 0);
}

TEST(EdgeCaseTest, MissingSourceHaltsImmediately) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  IcmSssp sssp(g, /*source=*/999);  // No such vertex.
  auto r = IcmEngine<IcmSssp>::Run(g, sssp);
  EXPECT_EQ(r.metrics.messages, 0);
  EXPECT_EQ(r.active_compute_calls, 0);
  for (const auto& states : r.states) {
    for (const auto& e : states.entries()) EXPECT_EQ(e.value, kInfCost);
  }
}

TEST(EdgeCaseTest, IsolatedVerticesStayUnreached) {
  TemporalGraphBuilder b;
  b.AddVertex(0, Interval(0, 8));
  b.AddVertex(1, Interval(0, 8));
  b.AddVertex(2, Interval(0, 8));  // Isolated.
  b.AddEdge(1, 0, 1, Interval(0, 8));
  const TemporalGraph g = std::move(b.Build()).value();
  IcmReach reach(g, 0);
  auto r = IcmEngine<IcmReach>::Run(g, reach);
  EXPECT_EQ(r.states[*g.IndexOf(1)].Get(2).value_or(0), 1);
  EXPECT_EQ(r.states[*g.IndexOf(2)].Get(2).value_or(0), 0);
}

TEST(EdgeCaseTest, NegativeTimePointsSupported) {
  // Nothing in the model requires non-negative times except the default
  // horizon window; Allen algebra and warp work on the full axis.
  TemporalGraphBuilder b;
  b.AddVertex(0, Interval(-10, 10));
  b.AddVertex(1, Interval(-10, 10));
  b.AddEdge(1, 0, 1, Interval(-5, -2));
  BuilderOptions options;
  options.horizon = 10;
  const TemporalGraph g = std::move(b.Build()).value();
  EXPECT_EQ(g.edge(0).interval, Interval(-5, -2));
  // Text round-trip preserves negative times.
  auto round = ReadTextGraph(WriteTextGraph(g));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->edge(0).interval, Interval(-5, -2));
}

TEST(EdgeCaseTest, WarpWithKTimeMinMessages) {
  // LD-style messages open at the left: [-inf, t).
  std::vector<IntervalMap<int64_t>::Entry> outer = {{{0, 20}, 1}};
  std::vector<TemporalItem<int64_t>> inner = {{{kTimeMin, 7}, 100},
                                              {{kTimeMin, 12}, 200}};
  auto warp = TimeWarp<int64_t, int64_t>(outer, inner);
  ASSERT_EQ(warp.size(), 2u);
  EXPECT_EQ(warp[0].interval, Interval(0, 7));
  EXPECT_EQ(warp[0].inner_indices.size(), 2u);
  EXPECT_EQ(warp[1].interval, Interval(7, 12));
  EXPECT_EQ(warp[1].inner_indices, (std::vector<uint32_t>{1}));
}

TEST(EdgeCaseTest, SelfLoopCountsInDegreesButNotTriangles) {
  TemporalGraphBuilder b;
  b.AddVertex(0, Interval(0, 4));
  b.AddVertex(1, Interval(0, 4));
  b.AddEdge(1, 0, 0, Interval(0, 4));  // Self loop.
  b.AddEdge(2, 0, 1, Interval(0, 4));
  const TemporalGraph g = std::move(b.Build()).value();
  const auto profiles = OutDegreeProfiles(g);
  EXPECT_EQ(profiles[*g.IndexOf(0)].Get(1), 2);
  IcmTriangleCount tc;
  auto r = IcmEngine<IcmTriangleCount>::Run(g, tc, TriangleOptions());
  const auto counts = TriangleCounts(r.states);
  EXPECT_EQ(ResultAt<int64_t>(counts, *g.IndexOf(0), 1, 0), 0);
}

TEST(EdgeCaseTest, ZeroCostEdgesAndZeroTravelCostProperties) {
  TemporalGraphBuilder b;
  b.AddVertex(0, Interval(0, 6));
  b.AddVertex(1, Interval(0, 6));
  b.AddEdge(1, 0, 1, Interval(0, 5));
  b.SetEdgeProperty(1, kTravelCostLabel, Interval(0, 5), 0);  // Free hop.
  b.SetEdgeProperty(1, kTravelTimeLabel, Interval(0, 5), 1);
  const TemporalGraph g = std::move(b.Build()).value();
  IcmSssp sssp(g, 0);
  auto r = IcmEngine<IcmSssp>::Run(g, sssp);
  EXPECT_EQ(r.states[*g.IndexOf(1)].Get(1).value_or(kInfCost), 0);
}

TEST(EdgeCaseTest, LongTravelTimesSkipDeadSinks) {
  // Arrival beyond the sink's lifespan must not register anywhere.
  TemporalGraphBuilder b;
  b.AddVertex(0, Interval(0, 10));
  b.AddVertex(1, Interval(0, 4));
  b.AddEdge(1, 0, 1, Interval(0, 4));
  b.SetEdgeProperty(1, kTravelTimeLabel, Interval(0, 4), 7);
  const TemporalGraph g = std::move(b.Build()).value();
  IcmEat eat(g, 0);
  auto r = IcmEngine<IcmEat>::Run(g, eat);
  for (const auto& e : r.states[*g.IndexOf(1)].entries()) {
    EXPECT_EQ(e.value, kInfCost);
  }
}

TEST(EdgeCaseTest, DeadlineZeroLdMatchesOracle) {
  Workload w(testutil::MakeRandomGraph(321));
  RunConfig config;
  config.deadline = 0;  // Nothing can arrive by time 0.
  const auto ld = RunLdOn(w, Platform::kIcm, config);
  const auto oracle =
      OracleLatestDeparture(w.graph(),
                            w.graph().vertex_id(static_cast<VertexIdx>(
                                w.graph().num_vertices() - 1)),
                            0);
  EXPECT_EQ(ld, oracle);
}

TEST(EdgeCaseTest, PageRankOnEdgelessGraphIsBaseline) {
  const TemporalGraph g = SingleVertexGraph();
  IcmPageRank pr(g);
  auto r = IcmEngine<IcmPageRank>::Run(g, pr, PageRankOptions());
  // No in-shares ever: rank settles at 0.15 after the first iteration.
  EXPECT_NEAR(r.states[0].Get(2).value_or(-1), 0.15, 1e-12);
}

TEST(EdgeCaseTest, MultigraphParallelEdgesBothTraversed) {
  TemporalGraphBuilder b;
  b.AddVertex(0, Interval(0, 6));
  b.AddVertex(1, Interval(0, 6));
  b.AddEdge(1, 0, 1, Interval(0, 5));
  b.AddEdge(2, 0, 1, Interval(0, 5));
  b.SetEdgeProperty(1, kTravelCostLabel, Interval(0, 5), 9);
  b.SetEdgeProperty(2, kTravelCostLabel, Interval(0, 5), 2);  // Cheaper.
  const TemporalGraph g = std::move(b.Build()).value();
  IcmSssp sssp(g, 0);
  auto r = IcmEngine<IcmSssp>::Run(g, sssp);
  EXPECT_EQ(r.states[*g.IndexOf(1)].Get(2).value_or(kInfCost), 2);
}

}  // namespace
}  // namespace graphite
