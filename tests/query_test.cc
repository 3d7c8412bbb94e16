// Tests for the temporal query layer (§VIII extension): temporal
// selection, time slicing, predicate subgraphs and aggregations — all
// outputs must remain valid temporal graphs.
#include "query/temporal_query.h"

#include <gtest/gtest.h>

#include "algorithms/oracle.h"
#include "graph/graph_stats.h"
#include "testutil.h"

namespace graphite {
namespace {

using testutil::MakeTransitGraph;

TEST(TemporalPredicateTest, Kinds) {
  const Interval window(3, 7);
  EXPECT_TRUE(TemporalPredicate::Intersects(window).Matches({5, 9}));
  EXPECT_FALSE(TemporalPredicate::Intersects(window).Matches({7, 9}));
  EXPECT_TRUE(TemporalPredicate::ContainedIn(window).Matches({4, 6}));
  EXPECT_FALSE(TemporalPredicate::ContainedIn(window).Matches({2, 6}));
  EXPECT_TRUE(TemporalPredicate::Contains(window).Matches({0, 9}));
  EXPECT_FALSE(TemporalPredicate::Contains(window).Matches({4, 9}));
  EXPECT_TRUE(TemporalPredicate::Allen(AllenRelation::kMeets, window)
                  .Matches({0, 3}));
}

TEST(TemporalSelectTest, KeepsMatchingEdges) {
  const TemporalGraph g = MakeTransitGraph();
  // Edges alive within [1, 4): A->C [1,2), A->D [2,4), D->F [1,2).
  // Vertex lifespans are [0, inf): none is contained in [1, 4), and with
  // no surviving endpoints nothing survives at all.
  const TemporalGraph sel =
      TemporalSelect(g, TemporalPredicate::ContainedIn(Interval(1, 4)));
  EXPECT_EQ(sel.num_vertices(), 0u);
  EXPECT_EQ(sel.num_edges(), 0u);
  // Intersects keeps everything alive in the window: A->C, A->D, D->F and
  // A->B (whose lifespan [3,6) overlaps [1,4)).
  const TemporalGraph isel =
      TemporalSelect(g, TemporalPredicate::Intersects(Interval(1, 4)));
  EXPECT_EQ(isel.num_vertices(), 6u);
  EXPECT_EQ(isel.num_edges(), 4u);
}

TEST(TimeSliceTest, SingleSnapshotSlice) {
  const TemporalGraph g = MakeTransitGraph();
  const TemporalGraph s4 = TimeSlice(g, Interval(4, 5));
  // At t=4 only A->B is alive.
  EXPECT_EQ(s4.num_edges(), 1u);
  EXPECT_EQ(s4.edge(0).eid, 10);
  EXPECT_EQ(s4.edge(0).interval, Interval(4, 5));
  // Property clipped to the slice: cost 4 (the [3,5) run).
  const auto label = s4.LabelIdOf("travel-cost");
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(s4.EdgeProperty(0, *label).Get(4), 4);
}

TEST(TimeSliceTest, WindowSliceKeepsPartialLifespans) {
  const TemporalGraph g = MakeTransitGraph();
  const TemporalGraph win = TimeSlice(g, Interval(2, 6));
  // A->B [3,6), A->D [2,4), C->E [5,6) survive (clipped); A->C [1,2),
  // B->E [8,9), D->F [1,2) do not.
  EXPECT_EQ(win.num_edges(), 3u);
  for (EdgePos pos = 0; pos < win.num_edges(); ++pos) {
    EXPECT_TRUE(win.edge(pos).interval.ContainedIn(Interval(2, 6)));
  }
}

TEST(TimeSliceTest, OutputFeedsIcmConsistently) {
  // BFS on a slice equals BFS on the original within the window.
  const TemporalGraph g = testutil::MakeRandomGraph(99);
  const Interval window(3, 9);
  const TemporalGraph sliced = TimeSlice(g, window);
  const auto full = OracleBfs(g, 0);
  const auto part = OracleBfs(sliced, 0);
  for (TimePoint t = window.start; t < window.end; ++t) {
    for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
      const auto idx = sliced.IndexOf(g.vertex_id(v));
      const int64_t want = full[v][static_cast<size_t>(t)];
      const int64_t got =
          idx ? part[*idx][static_cast<size_t>(t)] : kInfCost;
      ASSERT_EQ(got, want) << "v=" << v << " t=" << t;
    }
  }
}

TEST(TemporalSubgraphTest, PredicateFilteringFixesIntegrity) {
  const TemporalGraph g = MakeTransitGraph();
  SubgraphPredicates preds;
  preds.vertex = [](const TemporalGraph& graph, VertexIdx v) {
    return graph.vertex_id(v) != testutil::kB;  // Drop B.
  };
  const TemporalGraph sub = TemporalSubgraph(g, preds);
  EXPECT_EQ(sub.num_vertices(), 5u);
  // A->B and B->E disappear with B.
  EXPECT_EQ(sub.num_edges(), 4u);
  EXPECT_FALSE(sub.IndexOf(testutil::kB).has_value());
}

TEST(TemporalSubgraphTest, EdgePredicateOnProperties) {
  const TemporalGraph g = MakeTransitGraph();
  const auto cost = g.LabelIdOf("travel-cost");
  SubgraphPredicates preds;
  preds.edge = [&](const TemporalGraph& graph, EdgePos pos) {
    // Keep only cheap transits (some cost value <= 2).
    for (const auto& entry : graph.EdgeProperty(pos, *cost).entries()) {
      if (entry.value <= 2) return true;
    }
    return false;
  };
  const TemporalGraph sub = TemporalSubgraph(g, preds);
  EXPECT_EQ(sub.num_edges(), 3u);  // A->D (2), B->E (2), D->F (1).
}

TEST(CountOverTimeTest, MatchesSnapshots) {
  const TemporalGraph g = MakeTransitGraph();
  const TemporalHistogram h = CountOverTime(g);
  ASSERT_EQ(h.edges.size(), 10u);
  EXPECT_EQ(h.edges[0], 0);
  EXPECT_EQ(h.edges[1], 2);  // A->C, D->F.
  EXPECT_EQ(h.edges[3], 2);  // A->B, A->D.
  EXPECT_EQ(h.edges[8], 1);  // B->E.
  EXPECT_EQ(h.vertices[5], 6);
}

TEST(AggregateEdgePropertyTest, Stats) {
  const TemporalGraph g = MakeTransitGraph();
  const PropertyStats s =
      AggregateEdgeProperty(g, "travel-cost", Interval(0, 10));
  // Samples: A->B 4,4,3; A->C 3; A->D 2,2; C->E 4; B->E 2; D->F 1.
  EXPECT_EQ(s.count, 9);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 4);
  EXPECT_NEAR(s.mean, 25.0 / 9.0, 1e-12);
  EXPECT_EQ(AggregateEdgeProperty(g, "no-such-label", Interval(0, 10)).count,
            0);
}

TEST(FirstTimeWhereTest, FindsThreshold) {
  const TemporalGraph g = MakeTransitGraph();
  EXPECT_EQ(FirstTimeWhere(
                g, [](int64_t, int64_t edges) { return edges >= 2; }),
            1);
  EXPECT_EQ(FirstTimeWhere(
                g, [](int64_t, int64_t edges) { return edges >= 3; }),
            -1);
}

TEST(QueryOutputsStayValid, RandomGraphs) {
  for (uint64_t seed : {21u, 22u}) {
    const TemporalGraph g = testutil::MakeRandomGraph(seed);
    const TemporalGraph a =
        TemporalSelect(g, TemporalPredicate::Intersects(Interval(2, 8)));
    const TemporalGraph b = TimeSlice(g, Interval(2, 8));
    // Builder validation ran inside Rebuild (CHECK would have fired);
    // sanity-check constraint 2 explicitly.
    for (const TemporalGraph* out : {&a, &b}) {
      for (EdgePos pos = 0; pos < out->num_edges(); ++pos) {
        const StoredEdge& e = out->edge(pos);
        EXPECT_TRUE(e.interval.ContainedIn(out->vertex_interval(e.src)));
        EXPECT_TRUE(e.interval.ContainedIn(out->vertex_interval(e.dst)));
      }
    }
  }
}

}  // namespace
}  // namespace graphite
