// Tests for the temporal query layer (§VIII extension): temporal
// selection, time slicing, predicate subgraphs and aggregations — all
// outputs must remain valid temporal graphs.
#include "query/temporal_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "algorithms/common.h"
#include "algorithms/oracle.h"
#include "gen/generators.h"
#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "testutil.h"
#include "util/rng.h"

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
    // Filter CHECKs Constraint 2 inline; check it here explicitly too.
    for (const TemporalGraph* out : {&a, &b}) {
      for (EdgePos pos = 0; pos < out->num_edges(); ++pos) {
        const StoredEdge& e = out->edge(pos);
        EXPECT_TRUE(e.interval.ContainedIn(out->vertex_interval(e.src)));
        EXPECT_TRUE(e.interval.ContainedIn(out->vertex_interval(e.dst)));
      }
    }
  }
}

// --- TemporalGraph::Filter against the builder path it replaced ---

// The builder path: every kept entity re-added through
// TemporalGraphBuilder, which re-validates, re-indexes and re-sorts.
// Vertices are visited by index and edges by position, so labels are
// interned in that first-use order. `clip` is the window lifespans are
// intersected with (Interval::All() = no clip).
TemporalGraph BuilderFilter(const TemporalGraph& g, const Interval& clip,
                            const std::function<bool(VertexIdx)>& keep_vertex,
                            const std::function<bool(EdgePos)>& keep_edge) {
  TemporalGraphBuilder builder;
  std::vector<uint8_t> vertex_kept(g.num_vertices(), 0);
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    if (!keep_vertex(v)) continue;
    const Interval span = g.vertex_interval(v).Intersect(clip);
    if (span.IsEmpty()) continue;
    vertex_kept[v] = 1;
    builder.AddVertex(g.vertex_id(v), span);
    for (const auto& [label, runs] : g.VertexProperties(v)) {
      for (const auto& entry : runs.entries()) {
        const Interval pi = entry.interval.Intersect(span);
        if (pi.IsValid()) {
          builder.SetVertexProperty(g.vertex_id(v), g.LabelName(label), pi,
                                    entry.value);
        }
      }
    }
  }
  for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
    const StoredEdge& e = g.edge(pos);
    if (!vertex_kept[e.src] || !vertex_kept[e.dst] || !keep_edge(pos)) {
      continue;
    }
    Interval span = e.interval.Intersect(clip);
    span = span.Intersect(g.vertex_interval(e.src).Intersect(clip));
    span = span.Intersect(g.vertex_interval(e.dst).Intersect(clip));
    if (span.IsEmpty()) continue;
    builder.AddEdge(e.eid, g.vertex_id(e.src), g.vertex_id(e.dst), span);
    for (const auto& [label, runs] : g.EdgeProperties(pos)) {
      for (const auto& entry : runs.entries()) {
        const Interval pi = entry.interval.Intersect(span);
        if (pi.IsValid()) {
          builder.SetEdgeProperty(e.eid, g.LabelName(label), pi, entry.value);
        }
      }
    }
  }
  BuilderOptions options;
  options.horizon = g.horizon();
  auto result = builder.Build(options);
  GRAPHITE_CHECK(result.ok());
  return std::move(result).value();
}

TemporalGraph BuilderSelect(const TemporalGraph& g,
                            const TemporalPredicate& pred) {
  return BuilderFilter(
      g, Interval::All(),
      [&](VertexIdx v) { return pred.Matches(g.vertex_interval(v)); },
      [&](EdgePos pos) { return pred.Matches(g.edge(pos).interval); });
}

TemporalGraph BuilderSlice(const TemporalGraph& g, const Interval& window) {
  return BuilderFilter(
      g, window, [](VertexIdx) { return true; },
      [](EdgePos) { return true; });
}

TemporalGraph BuilderSubgraph(const TemporalGraph& g,
                              const SubgraphPredicates& preds) {
  return BuilderFilter(
      g, Interval::All(),
      [&](VertexIdx v) { return !preds.vertex || preds.vertex(g, v); },
      [&](EdgePos pos) { return !preds.edge || preds.edge(g, pos); });
}

using testutil::LabelTable;

// Byte-for-byte equality: testutil::SameGraph (text, label table and
// horizon), the head, plus the vertex index and in-adjacency the text
// does not carry.
void ExpectSameGraph(const TemporalGraph& got, const TemporalGraph& want,
                     const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_FALSE(got.has_delta());
  ASSERT_TRUE(testutil::SameGraph(got, want));
  EXPECT_EQ(got.head(), want.head());
  EXPECT_EQ(got.MemoryFootprintBytes(), want.MemoryFootprintBytes());
  for (VertexIdx v = 0; v < got.num_vertices(); ++v) {
    ASSERT_EQ(got.IndexOf(got.vertex_id(v)), v);
    const auto in_got = got.InEdgePositions(v);
    const auto in_want = want.InEdgePositions(v);
    ASSERT_EQ(in_got.size(), in_want.size());
    for (size_t k = 0; k < in_got.size(); ++k) {
      ASSERT_EQ(in_got[k], in_want[k]);
    }
  }
}

// Unit windows, windows past the horizon, and windows open on either side.
std::vector<Interval> BoundaryWindows(TimePoint horizon) {
  const TimePoint mid = horizon / 2;
  return {Interval(0, 1),
          Interval(mid, mid + 1),
          Interval(horizon - 1, horizon),
          Interval(horizon, horizon + 4),
          Interval(horizon + 2, kTimeMax),
          Interval(kTimeMin, 1),
          Interval(kTimeMin, mid),
          Interval(mid, kTimeMax),
          Interval::All(),
          Interval(horizon / 4, 3 * horizon / 4 + 1)};
}

std::vector<TemporalPredicate> Predicates(const Interval& window) {
  std::vector<TemporalPredicate> out = {
      TemporalPredicate::Intersects(window),
      TemporalPredicate::ContainedIn(window),
      TemporalPredicate::Contains(window)};
  for (int r = 0; r <= static_cast<int>(AllenRelation::kAfter); ++r) {
    out.push_back(
        TemporalPredicate::Allen(static_cast<AllenRelation>(r), window));
  }
  return out;
}

std::string Describe(const char* op, const Interval& w, size_t pred = 0) {
  return std::string(op) + " " + w.ToString() + " pred#" +
         std::to_string(pred);
}

// Every filter over `g` against the builder path: slices at the boundary
// windows, every predicate kind at a few of them, and SelectAndSlice
// against both compositions.
void ExpectFiltersMatchBuilder(const TemporalGraph& g) {
  const std::vector<Interval> windows = BoundaryWindows(g.horizon());
  for (const Interval& w : windows) {
    ExpectSameGraph(TimeSlice(g, w), BuilderSlice(g, w),
                    Describe("slice", w));
  }
  const TimePoint mid = g.horizon() / 2;
  for (const Interval& w : {Interval(mid, mid + 1), Interval(1, mid + 2),
                            Interval(kTimeMin, mid), Interval::All()}) {
    const std::vector<TemporalPredicate> preds = Predicates(w);
    for (size_t p = 0; p < preds.size(); ++p) {
      const TemporalGraph selected = TemporalSelect(g, preds[p]);
      ExpectSameGraph(selected, BuilderSelect(g, preds[p]),
                      Describe("select", w, p));
      const Interval slice(mid - 1, g.horizon() + 1);
      const TemporalGraph fused = SelectAndSlice(g, preds[p], slice);
      ExpectSameGraph(fused, TimeSlice(selected, slice),
                      Describe("select+slice", w, p));
      ExpectSameGraph(fused, BuilderSlice(BuilderSelect(g, preds[p]), slice),
                      Describe("builder select+slice", w, p));
    }
  }
}

TEST(FilterEquivalenceTest, CatalogGraphsMatchBuilderPath) {
  for (const DatasetSpec& spec : DatasetCatalog(0.02)) {
    SCOPED_TRACE(spec.name);
    ExpectFiltersMatchBuilder(Generate(spec.options));
  }
}

TEST(FilterEquivalenceTest, RandomAndTransitGraphsMatchBuilderPath) {
  ExpectFiltersMatchBuilder(MakeTransitGraph());
  for (uint64_t seed : {3u, 4u}) {
    ExpectFiltersMatchBuilder(testutil::MakeRandomGraph(seed));
  }
}

// Open lifespans on both sides and vertex properties under labels whose
// first use moves with the window: "a" is first set on vertex 10 at
// [kTimeMin, 1) and again on vertex 13 at [6, 9).
TemporalGraph MakeOpenGraph() {
  TemporalGraphBuilder b;
  b.AddVertex(10, Interval(kTimeMin, 6));
  b.AddVertex(11, Interval(2, kTimeMax));
  b.AddVertex(12, Interval::All());
  b.AddVertex(13, Interval(0, 9));
  b.SetVertexProperty(10, "a", Interval(kTimeMin, 1), 1);
  b.SetVertexProperty(10, "b", Interval(0, 6), 2);
  b.SetVertexProperty(12, "c", Interval::All(), 3);
  b.SetVertexProperty(13, "b", Interval(1, 3), 5);
  b.SetVertexProperty(13, "a", Interval(6, 9), 4);
  b.SetVertexProperty(13, "b", Interval(4, 8), 6);
  b.AddEdge(1, 10, 11, Interval(2, 6));
  b.SetEdgeProperty(1, "w", Interval(2, 4), 1);
  b.SetEdgeProperty(1, "w", Interval(4, 6), 2);
  b.SetEdgeProperty(1, "x", Interval(5, 6), 7);
  b.AddEdge(0, 10, 12, Interval(kTimeMin, 6));
  b.SetEdgeProperty(0, "x", Interval(kTimeMin, 0), 1);
  b.AddEdge(2, 12, 10, Interval(kTimeMin, 6));
  b.AddEdge(3, 11, 12, Interval(2, kTimeMax));
  b.SetEdgeProperty(3, "y", Interval(7, kTimeMax), 9);
  b.AddEdge(4, 13, 12, Interval(0, 9));
  b.SetEdgeProperty(4, "w", Interval(0, 9), 3);
  auto g = b.Build();
  GRAPHITE_CHECK(g.ok());
  return std::move(g).value();
}

TEST(FilterEquivalenceTest, OpenLifespansAndMovingLabels) {
  const TemporalGraph g = MakeOpenGraph();
  ASSERT_EQ(LabelTable(g),
            (std::vector<std::string>{"a", "b", "c", "w", "x", "y"}));
  ExpectFiltersMatchBuilder(g);
  // [1, 2) removes every run of "a" and "y": the table shrinks.
  const TemporalGraph shrunk = TimeSlice(g, Interval(1, 2));
  ExpectSameGraph(shrunk, BuilderSlice(g, Interval(1, 2)), "shrinks");
  EXPECT_EQ(LabelTable(shrunk), (std::vector<std::string>{"b", "c", "w"}));
  // [6, 9) drops vertex 10, so "a" is first met on vertex 13, after "c"
  // and "b"; the edge labels follow in (src, eid) order.
  const TemporalGraph moved = TimeSlice(g, Interval(6, 9));
  ExpectSameGraph(moved, BuilderSlice(g, Interval(6, 9)), "reorders");
  EXPECT_EQ(LabelTable(moved),
            (std::vector<std::string>{"c", "b", "a", "y", "w"}));
}

TEST(FilterEquivalenceTest, EmptyGraphGetsTheBuilderHorizon) {
  const TemporalGraph empty;
  ExpectSameGraph(TimeSlice(empty, Interval(2, 5)),
                  BuilderSlice(empty, Interval(2, 5)), "empty slice");
  EXPECT_EQ(TimeSlice(empty, Interval(2, 5)).horizon(), 1);
}

TEST(FilterEquivalenceTest, SubgraphPropertyPredicates) {
  std::vector<TemporalGraph> graphs;
  graphs.push_back(MakeTransitGraph());
  graphs.push_back(Generate(DatasetByName("usrn", 0.02).options));
  graphs.push_back(Generate(DatasetByName("mag", 0.02).options));
  for (const TemporalGraph& g : graphs) {
    const auto cost = g.LabelIdOf(kTravelCostLabel);
    for (PropValue limit : {0, 2, 5}) {
      SubgraphPredicates preds;
      preds.vertex = [](const TemporalGraph& graph, VertexIdx v) {
        return graph.vertex_id(v) % 3 != 1;
      };
      preds.edge = [&](const TemporalGraph& graph, EdgePos pos) {
        if (!cost) return true;
        for (const auto& entry : graph.EdgeProperty(pos, *cost).entries()) {
          if (entry.value <= limit) return true;
        }
        return false;
      };
      ExpectSameGraph(TemporalSubgraph(g, preds), BuilderSubgraph(g, preds),
                      "subgraph limit " + std::to_string(limit));
      preds.vertex = nullptr;
      ExpectSameGraph(TemporalSubgraph(g, preds), BuilderSubgraph(g, preds),
                      "edge-only limit " + std::to_string(limit));
    }
  }
}

// A delta with fresh vertices and new labels. Edge 5 leaves A and sorts
// before A's sealed edges, so it comes first in (src, eid) order while
// the builder path, walking positions, meets its label "fresh" last.
EdgeBatch TransitDelta() {
  EdgeBatch batch;
  batch.vertices = {{100, Interval(2, kTimeMax)}, {101, Interval(0, 7)}};
  batch.edges = {{5, testutil::kA, testutil::kC, Interval(2, 8)},
                 {40, 100, testutil::kB, Interval(3, 9)},
                 {41, testutil::kE, 101, Interval(1, 7)}};
  batch.props = {{5, "fresh", Interval(2, 4), 1},
                 {5, kTravelCostLabel, Interval(4, 8), 2},
                 {40, "late", Interval(3, 9), 3},
                 {41, kTravelTimeLabel, Interval(1, 7), 1}};
  return batch;
}

// The transit graph with TransitDelta and a second batch appended, left
// uncompacted. Edge 43 (from F) meets "p" then "q"; edge 44 (from A)
// comes first in (src, eid) order but second by position, and meets only
// "q".
TemporalGraph MakeTransitWithDelta() {
  TemporalGraph g = MakeTransitGraph();
  GRAPHITE_CHECK(g.Append(TransitDelta()).ok());
  EdgeBatch more;
  more.vertices = {{102, Interval(kTimeMin, 4)}};
  more.edges = {{42, 102, 101, Interval(1, 3)},
                {43, testutil::kF, 101, Interval(1, 3)},
                {44, testutil::kA, 102, Interval(1, 3)}};
  more.props = {{42, "later", Interval(1, 2), 4},
                {43, "p", Interval(1, 2), 5},
                {43, "q", Interval(2, 3), 6},
                {44, "q", Interval(1, 3), 7}};
  GRAPHITE_CHECK(g.Append(more).ok());
  return g;
}

TEST(FilterEquivalenceTest, UncompactedDeltaWithFreshVertices) {
  const TemporalGraph g = MakeTransitWithDelta();
  ASSERT_TRUE(g.has_delta());
  const GraphHead head = g.head();

  ExpectFiltersMatchBuilder(g);
  SubgraphPredicates preds;
  preds.edge = [](const TemporalGraph& graph, EdgePos pos) {
    return graph.edge(pos).eid != 12;
  };
  ExpectSameGraph(TemporalSubgraph(g, preds), BuilderSubgraph(g, preds),
                  "delta subgraph");
  // Whole-graph filters keep the builder path's label order, not the
  // compacted graph's.
  const TemporalGraph all = TimeSlice(g, Interval::All());
  EXPECT_EQ(LabelTable(all),
            (std::vector<std::string>{kTravelTimeLabel, kTravelCostLabel,
                                      "fresh", "late", "later", "p", "q"}));
  // The source keeps its delta and head.
  EXPECT_TRUE(g.has_delta());
  EXPECT_EQ(g.head(), head);
}

// A catalog graph with one fresh vertex and two negative-id edges
// appended, left uncompacted. Their old endpoints outlive the new edges:
// the first vertices alive throughout [1, 5).
TemporalGraph MakeCatalogWithDelta() {
  TemporalGraph g = Generate(DatasetByName("twitter", 0.02).options);
  std::vector<VertexId> alive;
  for (VertexIdx v = 0; v < g.num_vertices() && alive.size() < 2; ++v) {
    if (Interval(1, 5).ContainedIn(g.vertex_interval(v))) {
      alive.push_back(g.vertex_id(v));
    }
  }
  GRAPHITE_CHECK(alive.size() == 2u);
  EdgeBatch batch;
  batch.vertices = {{900001, Interval(1, kTimeMax)}};
  batch.edges = {{-1, alive[1], 900001, Interval(2, 5)},
                 {-2, 900001, alive[0], Interval(1, 3)}};
  batch.props = {{-1, "tag", Interval(2, 3), 1}};
  GRAPHITE_CHECK(g.Append(batch).ok());
  return g;
}

TEST(FilterEquivalenceTest, DeltaOnCatalogGraph) {
  ExpectFiltersMatchBuilder(MakeCatalogWithDelta());
}

// --- ReverseGraph / MakeUndirected against the builder path they replaced

// The builder path: every vertex, edge and property run of `g` re-added
// through TemporalGraphBuilder, vertices by index and edges by position,
// with each edge reversed (`reverse`) or kept and followed by a reversed
// copy with id max(0, max eid) + 1 + position (`duplicate`).
TemporalGraph RebuildWithEdges(const TemporalGraph& g, bool reverse,
                               bool duplicate) {
  TemporalGraphBuilder builder;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    builder.AddVertex(g.vertex_id(v), g.vertex_interval(v));
    for (const auto& [label, map] : g.VertexProperties(v)) {
      for (const auto& entry : map.entries()) {
        builder.SetVertexProperty(g.vertex_id(v), g.LabelName(label),
                                  entry.interval, entry.value);
      }
    }
  }
  EdgeId max_eid = 0;
  for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
    max_eid = std::max(max_eid, g.edge(pos).eid);
  }
  auto add_edge = [&](EdgeId eid, VertexId src, VertexId dst, EdgePos pos) {
    builder.AddEdge(eid, src, dst, g.edge(pos).interval);
    for (const auto& [label, map] : g.EdgeProperties(pos)) {
      for (const auto& entry : map.entries()) {
        builder.SetEdgeProperty(eid, g.LabelName(label), entry.interval,
                                entry.value);
      }
    }
  };
  for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
    const StoredEdge& e = g.edge(pos);
    const VertexId src_id = g.vertex_id(e.src);
    const VertexId dst_id = g.vertex_id(e.dst);
    if (duplicate) {
      add_edge(e.eid, src_id, dst_id, pos);
      add_edge(max_eid + 1 + static_cast<EdgeId>(pos), dst_id, src_id, pos);
    } else if (reverse) {
      add_edge(e.eid, dst_id, src_id, pos);
    } else {
      add_edge(e.eid, src_id, dst_id, pos);
    }
  }
  BuilderOptions options;
  options.horizon = g.horizon();
  auto result = builder.Build(options);
  GRAPHITE_CHECK(result.ok());
  return std::move(result).value();
}

void ExpectDerivedMatchBuilder(const TemporalGraph& g,
                               const std::string& what) {
  const GraphHead head = g.head();
  const bool had_delta = g.has_delta();
  ExpectSameGraph(ReverseGraph(g),
                  RebuildWithEdges(g, /*reverse=*/true, /*duplicate=*/false),
                  what + " reversed");
  ExpectSameGraph(MakeUndirected(g),
                  RebuildWithEdges(g, /*reverse=*/false, /*duplicate=*/true),
                  what + " undirected");
  // The source keeps its delta and head.
  EXPECT_EQ(g.has_delta(), had_delta);
  EXPECT_EQ(g.head(), head);
}

int Trials() {
  const char* env = std::getenv("GRAPHITE_DIFFERENTIAL_TRIALS");
  const int n = env != nullptr ? std::atoi(env) : 0;
  return n > 0 ? n : 4;
}

// A random delta on `g`: a fresh vertex and edges between vertices alive
// over a shared window, with ids both below and above the sealed ones so
// compaction interleaves them, some carrying a new label.
EdgeBatch RandomDelta(const TemporalGraph& g, Rng& rng) {
  EdgeBatch batch;
  const VertexId fresh = 1000000;
  batch.vertices = {{fresh, Interval(0, g.horizon())}};
  for (int k = 0; k < 12; ++k) {
    const auto u = static_cast<VertexIdx>(rng.Uniform(g.num_vertices()));
    const auto v = static_cast<VertexIdx>(rng.Uniform(g.num_vertices()));
    const VertexId src = k % 4 == 0 ? fresh : g.vertex_id(u);
    const Interval span = g.vertex_interval(u).Intersect(
        k % 4 == 0 ? Interval::All() : g.vertex_interval(v));
    if (span.IsEmpty() || span.start == kTimeMin) continue;
    const EdgeId eid = k % 2 == 0 ? -1 - k : 500000 + k;
    const TimePoint start = span.start;
    const VertexId dst = g.vertex_id(k % 4 == 0 ? u : v);
    batch.edges.push_back({eid, src, dst, Interval(start, start + 1)});
    if (k % 3 == 0) {
      batch.props.push_back({eid, "delta", Interval(start, start + 1), k});
    }
  }
  return batch;
}

TEST(DerivedGraphEquivalenceTest, CatalogGraphs) {
  for (const DatasetSpec& spec : DatasetCatalog(0.02)) {
    ExpectDerivedMatchBuilder(Generate(spec.options), spec.name);
  }
}

TEST(DerivedGraphEquivalenceTest, RandomAndTransitGraphs) {
  ExpectDerivedMatchBuilder(MakeTransitGraph(), "transit");
  for (int trial = 0; trial < Trials(); ++trial) {
    TemporalGraph g = testutil::MakeRandomGraph(100 + trial);
    const std::string what = "random seed " + std::to_string(100 + trial);
    ExpectDerivedMatchBuilder(g, what);
    Rng rng(trial);
    ASSERT_TRUE(g.Append(RandomDelta(g, rng)).ok()) << what;
    ExpectDerivedMatchBuilder(g, what + " + delta");
  }
}

TEST(DerivedGraphEquivalenceTest, OpenLifespansAndMovingLabels) {
  ExpectDerivedMatchBuilder(MakeOpenGraph(), "open");
}

TEST(DerivedGraphEquivalenceTest, EmptyGraph) {
  const TemporalGraph empty;
  ExpectDerivedMatchBuilder(empty, "empty");
  EXPECT_EQ(ReverseGraph(empty).horizon(), 1);
}

TEST(DerivedGraphEquivalenceTest, UncompactedDeltaWithFreshVertices) {
  ExpectDerivedMatchBuilder(MakeTransitWithDelta(), "transit delta");
}

TEST(DerivedGraphEquivalenceTest, DeltaOnCatalogGraph) {
  ExpectDerivedMatchBuilder(MakeCatalogWithDelta(), "catalog delta");
}

// Self-loops and parallel edges both ways, with ids out of position order
// and negative, and labels first met on later edges.
TEST(DerivedGraphEquivalenceTest, SelfLoopsAndMultiEdges) {
  TemporalGraphBuilder b;
  b.AddVertex(7, Interval(0, 10));
  b.AddVertex(3, Interval(2, kTimeMax));
  b.AddVertex(5, Interval(kTimeMin, 8));
  b.SetVertexProperty(3, "v", Interval(2, 4), 1);
  b.AddEdge(9, 7, 7, Interval(1, 4));
  b.AddEdge(-4, 7, 3, Interval(2, 5));
  b.AddEdge(2, 7, 3, Interval(3, 9));
  b.AddEdge(11, 3, 7, Interval(2, 10));
  b.AddEdge(1, 3, 3, Interval(4, 6));
  b.AddEdge(6, 5, 7, Interval(0, 8));
  b.AddEdge(0, 3, 5, Interval(2, 8));
  b.AddEdge(8, 5, 5, Interval(kTimeMin, 1));
  b.SetEdgeProperty(11, "b", Interval(2, 5), 4);
  b.SetEdgeProperty(11, "a", Interval(5, 10), 3);
  b.SetEdgeProperty(-4, "a", Interval(2, 3), 1);
  b.SetEdgeProperty(9, "c", Interval(1, 4), 2);
  b.SetEdgeProperty(8, "b", Interval(kTimeMin, 0), 5);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  ExpectDerivedMatchBuilder(*g, "loops");
  EXPECT_EQ(ReverseGraph(*g).num_edges(), 8u);
  EXPECT_EQ(MakeUndirected(*g).num_edges(), 16u);
}

}  // namespace
}  // namespace graphite
