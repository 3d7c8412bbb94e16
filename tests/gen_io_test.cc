// Tests for the dataset generators (validity, shape fidelity to the real
// datasets they model) and the text IO round-trip.
#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "io/text_format.h"
#include "testutil.h"

namespace graphite {
namespace {

// Rebuilds a generated graph through the validating builder: the
// generators skip validation for speed, so this proves they only emit
// sound graphs (Constraints 1-3).
void ExpectValid(const TemporalGraph& g) {
  TemporalGraphBuilder b;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    b.AddVertex(g.vertex_id(v), g.vertex_interval(v));
  }
  for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
    const StoredEdge& e = g.edge(pos);
    b.AddEdge(e.eid, g.vertex_id(e.src), g.vertex_id(e.dst), e.interval);
    for (const auto& [label, map] : g.EdgeProperties(pos)) {
      for (const auto& entry : map.entries()) {
        b.SetEdgeProperty(e.eid, g.LabelName(label), entry.interval,
                          entry.value);
      }
    }
  }
  BuilderOptions options;
  options.validate = true;
  auto result = b.Build(options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

TEST(GeneratorTest, AllCatalogGraphsAreValid) {
  for (const DatasetSpec& spec : DatasetCatalog(/*scale=*/0.05)) {
    SCOPED_TRACE(spec.name);
    const TemporalGraph g = Generate(spec.options);
    EXPECT_GT(g.num_vertices(), 0u);
    EXPECT_GT(g.num_edges(), 0u);
    ExpectValid(g);
  }
}

TEST(GeneratorTest, DeterministicFromSeed) {
  GenOptions opt;
  opt.num_vertices = 200;
  opt.num_edges = 800;
  const TemporalGraph a = Generate(opt);
  const TemporalGraph b = Generate(opt);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgePos pos = 0; pos < a.num_edges(); ++pos) {
    EXPECT_EQ(a.edge(pos).src, b.edge(pos).src);
    EXPECT_EQ(a.edge(pos).interval, b.edge(pos).interval);
  }
}

TEST(GeneratorTest, GPlusShapeIsUnitLifespan) {
  const DatasetSpec spec = DatasetByName("gplus", 0.05);
  const TemporalGraph g = Generate(spec.options);
  const GraphStats s = ComputeGraphStats(g, /*include_transformed=*/false);
  EXPECT_EQ(s.num_snapshots, 4);
  EXPECT_DOUBLE_EQ(s.avg_edge_lifespan, 1.0);
}

TEST(GeneratorTest, RedditShapeIsUnitHeavyMix) {
  const DatasetSpec spec = DatasetByName("reddit", 0.05);
  const TemporalGraph g = Generate(spec.options);
  size_t unit = 0;
  for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
    if (g.edge(pos).interval.IsUnit()) ++unit;
  }
  EXPECT_GT(static_cast<double>(unit) / static_cast<double>(g.num_edges()),
            0.85);
}

TEST(GeneratorTest, UsrnShapeIsStaticTopology) {
  const DatasetSpec spec = DatasetByName("usrn", 0.05);
  const TemporalGraph g = Generate(spec.options);
  const GraphStats s = ComputeGraphStats(g, /*include_transformed=*/false);
  // Every edge spans the whole horizon; properties churn within it.
  EXPECT_DOUBLE_EQ(s.avg_edge_lifespan,
                   static_cast<double>(spec.options.snapshots));
  EXPECT_LT(s.avg_prop_lifespan, s.avg_edge_lifespan);
  EXPECT_EQ(s.largest_snapshot_e, g.num_edges());
}

TEST(GeneratorTest, TwitterShapeHasLongLifespans) {
  const DatasetSpec spec = DatasetByName("twitter", 0.05);
  const TemporalGraph g = Generate(spec.options);
  const GraphStats s = ComputeGraphStats(g, /*include_transformed=*/false);
  // Edge lifespans approach the graph lifetime (paper: 28.4 of 30).
  EXPECT_GT(s.avg_edge_lifespan,
            0.6 * static_cast<double>(spec.options.snapshots));
}

TEST(GeneratorTest, PowerLawHasSkewedDegrees) {
  GenOptions opt;
  opt.num_vertices = 2000;
  opt.num_edges = 10000;
  const TemporalGraph g = Generate(opt);
  size_t max_deg = 0;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    max_deg = std::max(max_deg, g.OutEdges(v).size());
  }
  // A hub should far exceed the mean degree of 5.
  EXPECT_GT(max_deg, 50u);
}

TEST(GeneratorTest, WeakScalingSizesScaleLinearly) {
  const GenOptions one = WeakScalingOptions(1, 0.05);
  const GenOptions four = WeakScalingOptions(4, 0.05);
  EXPECT_EQ(four.num_vertices, 4 * one.num_vertices);
  EXPECT_EQ(four.num_edges, 4 * one.num_edges);
  const TemporalGraph g = Generate(one);
  ExpectValid(g);
}

TEST(TextFormatTest, RoundTripTransitGraph) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  const std::string text = WriteTextGraph(g);
  auto parsed = ReadTextGraph(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_vertices(), g.num_vertices());
  EXPECT_EQ(parsed->num_edges(), g.num_edges());
  EXPECT_EQ(parsed->horizon(), g.horizon());
  // Round-trip again: text must be identical (canonical form).
  EXPECT_EQ(WriteTextGraph(*parsed), text);
}

TEST(TextFormatTest, RoundTripRandomGraph) {
  const TemporalGraph g = testutil::MakeRandomGraph(77);
  auto parsed = ReadTextGraph(WriteTextGraph(g));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(WriteTextGraph(*parsed), WriteTextGraph(g));
}

TEST(TextFormatTest, RejectsMalformedRecords) {
  EXPECT_FALSE(ReadTextGraph("V 1").ok());
  EXPECT_FALSE(ReadTextGraph("X 1 2 3").ok());
  EXPECT_FALSE(ReadTextGraph("V 1 5 2").ok());   // start >= end
  EXPECT_FALSE(ReadTextGraph("E 1 1 2 0 5").ok());  // missing vertices
  EXPECT_TRUE(ReadTextGraph("# only a comment\nV 1 0 5").ok());
  // Every number must parse whole, and records end after their last field.
  const std::string edge = "V 1 0 9\nV 2 0 9\nE 5 1 2 0 9\n";
  EXPECT_TRUE(ReadTextGraph(edge + "EP 5 cost 0 3 5").ok());
  EXPECT_FALSE(ReadTextGraph(edge + "EP 5 cost 0 3 5.7").ok());
  EXPECT_FALSE(ReadTextGraph(edge + "EP 5 cost 0 3x 5").ok());
  EXPECT_FALSE(ReadTextGraph(edge + "EP 5 cost 0 3 5 6").ok());
  EXPECT_FALSE(ReadTextGraph(edge + "E 6 1 2 0 9 junk").ok());
  EXPECT_FALSE(ReadTextGraph("H 12x\nV 1 0 5").ok());
  EXPECT_FALSE(ReadTextGraph("H 12 13\nV 1 0 5").ok());
  EXPECT_FALSE(ReadTextGraph("V 1 0 5 junk").ok());
  EXPECT_FALSE(ReadTextGraph("V 1x 0 5").ok());
  EXPECT_FALSE(ReadTextGraph("V 1 +-0 5").ok());
  const auto bad = ReadTextGraph("V 1 0 5\nV 2 0 5 junk");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("line 2"), std::string::npos)
      << bad.status().ToString();
  // What stays accepted: CRLF line endings, tabs, blank and comment
  // lines, signed numbers and the infinities.
  const auto loose = ReadTextGraph(
      "# header\r\n\r\nH\t12\r\n\n  # indented comment\n"
      "V 1 -inf +inf\r\nV\t2\t-inf\tinf\nV 3 -4 +7\r\n"
      "E 5 1 2 -inf inf\r\nEP 5 cost -inf +3 -5\r\n");
  ASSERT_TRUE(loose.ok()) << loose.status().ToString();
  EXPECT_EQ(loose->horizon(), 12);
  EXPECT_EQ(loose->num_vertices(), 3u);
  EXPECT_EQ(loose->vertex_interval(0), Interval::All());
  EXPECT_EQ(loose->vertex_interval(2), Interval(-4, 7));
  EXPECT_EQ(loose->EdgeProperty(0, *loose->LabelIdOf("cost")).Get(-9), -5);
}

TEST(TextFormatTest, DirectoryIsAnIoError) {
  auto parsed = ReadTextGraphFile(::testing::TempDir());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIoError)
      << parsed.status().ToString();
  EXPECT_FALSE(ReadTextGraphFile(::testing::TempDir() + "/no-such-file").ok());
}

TEST(TextFormatTest, FileRoundTrip) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  const std::string path = ::testing::TempDir() + "/graph.txt";
  ASSERT_TRUE(WriteTextGraphFile(g, path).ok());
  auto parsed = ReadTextGraphFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_edges(), g.num_edges());
}

}  // namespace
}  // namespace graphite
