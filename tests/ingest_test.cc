// The mutable time-axis head (DESIGN.md §4l): TemporalGraph::Append /
// Compact semantics, the UpdateBatcher producer, and the acceptance matrix
// for incremental recompute — RunIncremental (ICM) must produce
// byte-identical final states versus a full recompute on the merged graph,
// across every scheduling mode, several worker counts, and both before and
// after Compact().
// Also covers the checkpoint interaction: frames taken against one graph
// head are ignored once the head moves, and a run killed mid-incremental
// resumes to the same fixed point.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algorithms/common.h"
#include "algorithms/icm_path.h"
#include "ckpt/checkpoint.h"
#include "ckpt/checkpoint_policy.h"
#include "ckpt/checkpoint_store.h"
#include "ckpt/fault_injector.h"
#include "graph/builder.h"
#include "icm/icm_engine.h"
#include "io/text_format.h"
#include "server/graph_registry.h"
#include "stream/update_stream.h"
#include "testutil.h"

namespace graphite {
namespace {

std::string NewDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "graphite_ingest_" + tag +
                          "_" + std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  return dir;
}

// --- Append / Compact structural semantics ---

// A batch against the Fig. 1 transit graph: one fresh vertex G and two
// edges threading it between existing vertices, with temporal properties.
EdgeBatch TransitExtension() {
  EdgeBatch batch;
  batch.vertices.push_back({6, Interval(0, kTimeMax)});
  batch.edges.push_back({50, testutil::kA, 6, Interval(2, 5)});
  batch.edges.push_back({51, 6, testutil::kE, Interval(4, 8)});
  batch.props.push_back({50, kTravelTimeLabel, Interval(2, 5), 1});
  batch.props.push_back({50, kTravelCostLabel, Interval(2, 5), 2});
  batch.props.push_back({51, kTravelTimeLabel, Interval(4, 8), 1});
  batch.props.push_back({51, kTravelCostLabel, Interval(4, 8), 2});
  return batch;
}

TEST(IngestAppendTest, AppendGrowsDeltaBehindTheViews) {
  TemporalGraph g = testutil::MakeTransitGraph();
  const size_t base_edges = g.num_edges();
  const GraphHead before = g.head();
  EXPECT_EQ(before.base_epoch, 0u);
  EXPECT_EQ(before.delta_watermark, 0u);

  AppendReceipt receipt;
  const EdgeBatch batch = TransitExtension();
  ASSERT_TRUE(g.Append(batch, &receipt).ok());

  EXPECT_EQ(g.num_vertices(), 7u);
  EXPECT_EQ(g.num_edges(), base_edges + 2);
  EXPECT_EQ(g.num_sealed_edges(), base_edges);
  EXPECT_EQ(g.num_delta_edges(), 2u);
  // Watermark advances by the batch's element count; the base is untouched.
  EXPECT_EQ(g.head().base_epoch, 0u);
  EXPECT_EQ(g.head().delta_watermark, batch.size());
  EXPECT_EQ(g.horizon(), 10);  // All appended intervals fit the horizon.

  // The receipt: G is the first fresh vertex; A gained an out-edge, G is
  // fresh so it is NOT a touched source.
  const VertexIdx a = g.IndexOf(testutil::kA).value();
  const VertexIdx fresh = g.IndexOf(6).value();
  EXPECT_EQ(receipt.first_fresh_vertex, fresh);
  EXPECT_EQ(receipt.touched_sources, std::vector<VertexIdx>{a});
  EXPECT_EQ(receipt.new_edge_ids, (std::vector<EdgeId>{50, 51}));

  // Two-segment out-edge view: sealed CSR slice first, delta appended.
  const auto a_out = g.OutEdges(a);
  ASSERT_EQ(a_out.size(), 4u);  // eids 10, 11, 12 sealed + 50 delta
  EXPECT_EQ(a_out[3].eid, 50);
  EXPECT_EQ(a_out[3].dst, fresh);
  size_t seen = 0;
  for (const StoredEdge& e : a_out) {
    (void)e;
    ++seen;
  }
  EXPECT_EQ(seen, 4u);

  // In-edge positions reach the delta edge, and edge() resolves positions
  // past num_sealed_edges() into the delta segment.
  const VertexIdx e_idx = g.IndexOf(testutil::kE).value();
  const auto e_in = g.InEdgePositions(e_idx);
  ASSERT_EQ(e_in.size(), 3u);  // eids 13, 14 sealed + 51 delta
  const EdgePos delta_pos = e_in[2];
  ASSERT_GE(delta_pos, g.num_sealed_edges());
  EXPECT_EQ(g.edge(delta_pos).eid, 51);

  // Properties on delta edges resolve through the same accessors.
  const auto label = g.LabelIdOf(kTravelCostLabel);
  ASSERT_TRUE(label.has_value());
  const PropRuns cost = g.EdgeProperty(delta_pos, *label);
  ASSERT_EQ(cost.size(), 1u);
  EXPECT_EQ(cost.entries()[0].value, 2);

  // OutEdgePos addresses the delta segment consistently with edge().
  EXPECT_EQ(g.edge(g.OutEdgePos(a, 3)).eid, 50);
}

TEST(IngestAppendTest, AppendValidatesBeforeApplying) {
  TemporalGraph g = testutil::MakeTransitGraph();
  const GraphHead head = g.head();
  const size_t edges = g.num_edges();

  const auto expect_rejected = [&](const EdgeBatch& batch, StatusCode code,
                                   const char* what) {
    const Status s = g.Append(batch);
    EXPECT_EQ(s.code(), code) << what << ": " << s.ToString();
    // Validate-then-apply: a rejected batch leaves the graph untouched.
    EXPECT_EQ(g.head(), head) << what;
    EXPECT_EQ(g.num_edges(), edges) << what;
    EXPECT_EQ(g.num_vertices(), 6u) << what;
  };

  {
    EdgeBatch b;  // Constraint 1: vertex id already sealed.
    b.vertices.push_back({testutil::kB, Interval(0, kTimeMax)});
    expect_rejected(b, StatusCode::kConstraintViolation, "dup vertex");
  }
  {
    EdgeBatch b;  // Constraint 1: edge id already sealed.
    b.edges.push_back({10, testutil::kA, testutil::kB, Interval(3, 5)});
    expect_rejected(b, StatusCode::kConstraintViolation, "dup eid");
  }
  {
    EdgeBatch b;  // Constraint 2: missing endpoint.
    b.edges.push_back({60, testutil::kA, 99, Interval(1, 2)});
    expect_rejected(b, StatusCode::kConstraintViolation, "missing endpoint");
  }
  {
    EdgeBatch b;  // Constraint 2: edge outside a batch vertex's lifespan.
    b.vertices.push_back({7, Interval(3, 6)});
    b.edges.push_back({61, testutil::kA, 7, Interval(1, 5)});
    expect_rejected(b, StatusCode::kConstraintViolation, "containment");
  }
  {
    EdgeBatch b;  // Sealed edges are immutable: no props on eid 10.
    b.props.push_back({10, kTravelCostLabel, Interval(3, 4), 9});
    expect_rejected(b, StatusCode::kConstraintViolation, "sealed prop");
  }
  {
    EdgeBatch b;  // Def. 1: overlapping property values within the batch.
    b.edges.push_back({62, testutil::kA, testutil::kB, Interval(3, 6)});
    b.props.push_back({62, kTravelCostLabel, Interval(3, 5), 1});
    b.props.push_back({62, kTravelCostLabel, Interval(4, 6), 2});
    expect_rejected(b, StatusCode::kConstraintViolation, "prop overlap");
  }
  {
    EdgeBatch b;  // Invalid interval.
    b.edges.push_back({63, testutil::kA, testutil::kB, Interval(5, 3)});
    expect_rejected(b, StatusCode::kInvalidArgument, "invalid interval");
  }

  // The same batches fail identically against a compacted graph (the eid
  // index survives resealing).
  ASSERT_TRUE(g.Append(TransitExtension()).ok());
  g.Compact();
  EdgeBatch dup;
  dup.edges.push_back({50, testutil::kA, testutil::kB, Interval(3, 5)});
  EXPECT_EQ(g.Append(dup).code(), StatusCode::kConstraintViolation);
}

// Validation reports the first failing element in batch order, as a
// one-pass scan would, whichever check it fails.
TEST(IngestAppendTest, AppendReportsTheFirstFailureInBatchOrder) {
  TemporalGraph g = testutil::MakeTransitGraph();
  const auto message = [&g](const EdgeBatch& batch) {
    return g.Append(batch).message();
  };
  EdgeBatch b;
  b.edges.push_back({62, testutil::kA, testutil::kB, Interval(3, 6)});
  b.edges.push_back({63, testutil::kA, testutil::kC, Interval(0, 10)});
  // Run 2 is the first to overlap an earlier run (run 0). Sorted by start,
  // runs 2, 3 and 0 of edge 63 interleave: [0,10) [1,2) [3,4).
  b.props.push_back({63, kTravelCostLabel, Interval(3, 4), 1});
  b.props.push_back({62, kTravelCostLabel, Interval(3, 6), 1});
  b.props.push_back({63, kTravelCostLabel, Interval(0, 10), 2});
  b.props.push_back({63, kTravelCostLabel, Interval(1, 2), 3});
  EXPECT_NE(message(b).find("overlapping values for append edge property "
                            "'travel-cost' at [0, 10)"),
            std::string::npos)
      << message(b);
  // An earlier run failing another check is reported instead.
  EdgeBatch c = b;
  c.props[1].interval = Interval(2, 6);  // Outside edge 62's lifespan.
  EXPECT_NE(message(c).find("Constraint 3"), std::string::npos) << message(c);
  // A later one is not.
  EdgeBatch d = b;
  d.props[3].interval = Interval(5, 3);
  EXPECT_NE(message(d).find("at [0, 10)"), std::string::npos) << message(d);
  // Duplicate ids: the second occurrence, after earlier invalid elements.
  EdgeBatch v;
  v.vertices.push_back({8, Interval(0, 5)});
  v.vertices.push_back({7, Interval(0, 5)});
  v.vertices.push_back({9, Interval(4, 2)});
  v.vertices.push_back({8, Interval(0, 5)});
  EXPECT_NE(message(v).find("vertex 9 has invalid lifespan"),
            std::string::npos)
      << message(v);
  v.vertices[2].interval = Interval(2, 4);
  EXPECT_NE(message(v).find("duplicates vertex id 8"), std::string::npos)
      << message(v);
  EXPECT_EQ(g.head(), (GraphHead{0, 0}));
}

TEST(IngestAppendTest, CompactFoldsDeltaIntoNewSealedBase) {
  TemporalGraph g = testutil::MakeTransitGraph();
  // Compacting an all-sealed graph is a no-op and keeps the epoch.
  g.Compact();
  EXPECT_EQ(g.head(), (GraphHead{0, 0}));

  AppendReceipt receipt;
  ASSERT_TRUE(g.Append(TransitExtension(), &receipt).ok());
  const size_t total = g.num_edges();

  // Record the merged adjacency before compaction.
  std::vector<std::vector<EdgeId>> out_before(g.num_vertices());
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    for (const StoredEdge& e : g.OutEdges(v)) out_before[v].push_back(e.eid);
  }

  g.Compact();
  EXPECT_EQ(g.head(), (GraphHead{1, 0}));
  EXPECT_EQ(g.num_edges(), total);
  EXPECT_EQ(g.num_sealed_edges(), total);
  EXPECT_EQ(g.num_delta_edges(), 0u);

  // The batch's eids sort above the transit eids, so per-vertex order is
  // unchanged by the (src, eid) re-sort.
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    std::vector<EdgeId> after;
    for (const StoredEdge& e : g.OutEdges(v)) after.push_back(e.eid);
    EXPECT_EQ(after, out_before[v]) << "v=" << v;
  }

  // Properties moved into the sealed base with their edges.
  const VertexIdx fresh = g.IndexOf(6).value();
  const auto fresh_out = g.OutEdges(fresh);
  ASSERT_EQ(fresh_out.size(), 1u);
  const auto label = g.LabelIdOf(kTravelTimeLabel);
  ASSERT_TRUE(label.has_value());
  EXPECT_FALSE(g.EdgeProperty(g.OutEdgePos(fresh, 0), *label).empty());

  // A second compact with an empty delta keeps epoch 1.
  g.Compact();
  EXPECT_EQ(g.head(), (GraphHead{1, 0}));
}

// An append of vertices alone still moves the head, so Compact() must
// fold it: bump the epoch, zero the watermark, seal the vertices.
TEST(IngestAppendTest, CompactFoldsAVertexOnlyDelta) {
  TemporalGraph g = testutil::MakeTransitGraph();
  const size_t edges = g.num_edges();
  EdgeBatch batch;
  batch.vertices.push_back({9, Interval(2, 7)});
  batch.vertices.push_back({8, Interval(0, kTimeMax)});
  ASSERT_TRUE(g.Append(batch).ok());
  EXPECT_EQ(g.head(), (GraphHead{0, 2}));

  g.Compact();
  EXPECT_EQ(g.head(), (GraphHead{1, 0}));
  EXPECT_EQ(g.num_vertices(), 8u);
  EXPECT_EQ(g.num_edges(), edges);
  EXPECT_EQ(g.num_sealed_edges(), edges);
  const VertexIdx v9 = g.IndexOf(9).value();
  const VertexIdx v8 = g.IndexOf(8).value();
  EXPECT_EQ(v9, 6u);  // Appended vertices keep their indices.
  EXPECT_EQ(v8, 7u);
  EXPECT_EQ(g.vertex_interval(v9), Interval(2, 7));
  EXPECT_TRUE(g.OutEdges(v9).empty());
  EXPECT_TRUE(g.VertexProperties(v9).empty());
  EXPECT_EQ(g.IndexOf(testutil::kC).value(), 2u);

  // The sealed vertices reject duplicates and take new edges.
  EdgeBatch dup;
  dup.vertices.push_back({8, Interval(0, 1)});
  EXPECT_EQ(g.Append(dup).code(), StatusCode::kConstraintViolation);
  EdgeBatch edge;
  edge.edges.push_back({90, 8, 9, Interval(3, 4)});
  ASSERT_TRUE(g.Append(edge).ok());
  EXPECT_EQ(g.OutEdges(v8).size(), 1u);
}

// The appended graph must be indistinguishable from one built in a single
// shot: identical structure AND an identical ICM run, message counts and
// all — both before and after Compact().
TEST(IngestAppendTest, AppendMatchesSingleShotBuild) {
  // Single-shot reference: transit + extension through the builder.
  TemporalGraphBuilder b;
  const Interval forever(0, kTimeMax);
  for (VertexId v : {0, 1, 2, 3, 4, 5, 6}) b.AddVertex(v, forever);
  b.AddEdge(10, testutil::kA, testutil::kB, Interval(3, 6));
  b.SetEdgeProperty(10, kTravelTimeLabel, Interval(3, 6), 1);
  b.SetEdgeProperty(10, kTravelCostLabel, Interval(3, 5), 4);
  b.SetEdgeProperty(10, kTravelCostLabel, Interval(5, 6), 3);
  const auto edge = [&b](EdgeId eid, VertexId s, VertexId d, TimePoint t0,
                         TimePoint t1, PropValue cost) {
    b.AddEdge(eid, s, d, Interval(t0, t1));
    b.SetEdgeProperty(eid, kTravelTimeLabel, Interval(t0, t1), 1);
    b.SetEdgeProperty(eid, kTravelCostLabel, Interval(t0, t1), cost);
  };
  edge(11, testutil::kA, testutil::kC, 1, 2, 3);
  edge(12, testutil::kA, testutil::kD, 2, 4, 2);
  edge(13, testutil::kC, testutil::kE, 5, 6, 4);
  edge(14, testutil::kB, testutil::kE, 8, 9, 2);
  edge(15, testutil::kD, testutil::kF, 1, 2, 1);
  edge(50, testutil::kA, 6, 2, 5, 2);
  edge(51, 6, testutil::kE, 4, 8, 2);
  BuilderOptions options;
  options.horizon = 10;
  auto built = b.Build(options);
  ASSERT_TRUE(built.ok());
  const TemporalGraph want_graph = std::move(built).value();

  TemporalGraph appended = testutil::MakeTransitGraph();
  ASSERT_TRUE(appended.Append(TransitExtension()).ok());

  const auto check = [&](const TemporalGraph& got_graph, const char* what) {
    ASSERT_EQ(got_graph.num_vertices(), want_graph.num_vertices()) << what;
    ASSERT_EQ(got_graph.num_edges(), want_graph.num_edges()) << what;
    EXPECT_EQ(got_graph.horizon(), want_graph.horizon()) << what;
    for (VertexIdx v = 0; v < want_graph.num_vertices(); ++v) {
      const auto want_out = want_graph.OutEdges(v);
      const auto got_out = got_graph.OutEdges(v);
      ASSERT_EQ(got_out.size(), want_out.size()) << what << " v=" << v;
      for (size_t k = 0; k < want_out.size(); ++k) {
        EXPECT_EQ(got_out[k].eid, want_out[k].eid)
            << what << " v=" << v << " k=" << k;
        EXPECT_EQ(got_out[k].interval, want_out[k].interval)
            << what << " v=" << v << " k=" << k;
      }
    }
    IcmSssp want_p(want_graph, testutil::kA);
    IcmSssp got_p(got_graph, testutil::kA);
    IcmOptions opts;
    opts.num_workers = 3;
    const auto want = IcmEngine<IcmSssp>::Run(want_graph, want_p, opts);
    const auto got = IcmEngine<IcmSssp>::Run(got_graph, got_p, opts);
    ASSERT_EQ(want.states.size(), got.states.size()) << what;
    for (size_t v = 0; v < want.states.size(); ++v) {
      ASSERT_EQ(want.states[v], got.states[v])
          << what << " v=" << v;
    }
    EXPECT_EQ(want.metrics.supersteps, got.metrics.supersteps) << what;
    EXPECT_EQ(want.metrics.messages, got.metrics.messages) << what;
    EXPECT_EQ(want.metrics.message_bytes, got.metrics.message_bytes) << what;
    EXPECT_EQ(want.metrics.compute_calls, got.metrics.compute_calls) << what;
  };
  check(appended, "delta");
  // A copy shares the sealed base; compacting the copy must still match
  // the single-shot build and leave the original's delta view intact.
  TemporalGraph copy = appended;
  copy.Compact();
  check(copy, "copy compacted");
  check(appended, "delta after copy compacted");
  appended.Compact();
  check(appended, "compacted");
}

// --- Versions share the sealed base ---

// Everything the iteration API exposes, flattened for exact comparison.
// Properties are recorded in EdgeProperties / VertexProperties iteration
// order, which the writers and the engines' property walks follow.
struct GraphSnapshot {
  std::vector<std::tuple<VertexIdx, EdgeId, VertexIdx, VertexIdx, Interval>>
      out_edges;
  std::vector<std::pair<VertexIdx, EdgePos>> in_positions;
  std::vector<std::tuple<EdgePos, LabelId, Interval, PropValue>> edge_props;
  std::vector<std::tuple<VertexIdx, LabelId, Interval, PropValue>>
      vertex_props;
  std::vector<std::pair<VertexId, VertexIdx>> index;
  TimePoint horizon = 0;
  GraphHead head;

  bool operator==(const GraphSnapshot& o) const {
    return out_edges == o.out_edges && in_positions == o.in_positions &&
           edge_props == o.edge_props && vertex_props == o.vertex_props &&
           index == o.index && horizon == o.horizon && head == o.head;
  }
};

GraphSnapshot Snapshot(const TemporalGraph& g, VertexId max_vid) {
  GraphSnapshot s;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    for (const StoredEdge& e : g.OutEdges(v)) {
      s.out_edges.emplace_back(v, e.eid, e.src, e.dst, e.interval);
    }
    for (EdgePos pos : g.InEdgePositions(v)) s.in_positions.emplace_back(v, pos);
  }
  for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
    for (const auto& [label, runs] : g.EdgeProperties(pos)) {
      for (const auto& entry : runs.entries()) {
        s.edge_props.emplace_back(pos, label, entry.interval, entry.value);
      }
    }
  }
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    for (const auto& [label, runs] : g.VertexProperties(v)) {
      for (const auto& entry : runs.entries()) {
        s.vertex_props.emplace_back(v, label, entry.interval, entry.value);
      }
    }
  }
  for (VertexId vid = 0; vid <= max_vid; ++vid) {
    if (const auto idx = g.IndexOf(vid)) s.index.emplace_back(vid, *idx);
  }
  s.horizon = g.horizon();
  s.head = g.head();
  return s;
}

// A second batch that reaches past the first one's vertices and grows the
// horizon, so the copy's delta, index and horizon all move.
EdgeBatch SecondExtension() {
  EdgeBatch batch;
  batch.vertices.push_back({7, Interval(0, kTimeMax)});
  batch.edges.push_back({60, 6, 7, Interval(5, 12)});
  batch.edges.push_back({61, testutil::kB, 7, Interval(1, 3)});
  batch.props.push_back({60, kTravelTimeLabel, Interval(5, 12), 2});
  return batch;
}

TEST(IngestVersionTest, CopiesShareTheSealedBaseUntilCompact) {
  TemporalGraph g1 = testutil::MakeTransitGraph();
  ASSERT_TRUE(g1.Append(TransitExtension()).ok());
  TemporalGraph g2 = g1;
  ASSERT_TRUE(g2.Append(SecondExtension()).ok());

  // Before g2 compacts, both read the very same sealed out-edge and
  // property storage.
  const VertexIdx a = g1.IndexOf(testutil::kA).value();
  ASSERT_GT(g1.OutEdges(a).size(), 0u);
  EXPECT_EQ(&g1.OutEdges(a)[0], &g2.OutEdges(a)[0]);
  ASSERT_FALSE(g1.EdgeProperty(0, 0).empty());
  EXPECT_EQ(g1.EdgeProperty(0, 0).entries().data(),
            g2.EdgeProperty(0, 0).entries().data());

  g2.Compact();
  EXPECT_NE(&g1.OutEdges(a)[0], &g2.OutEdges(a)[0]);
  EXPECT_NE(g1.EdgeProperty(0, 0).entries().data(),
            g2.EdgeProperty(0, 0).entries().data());
}

// A job pins a registry version and reads its property views; a
// compacting append replaces that version meanwhile. The views must stay
// readable (the job's shared_ptr keeps the old base alive) and unchanged.
// Runs under the asan preset via the ingest matrix.
TEST(IngestVersionTest, PinnedVersionPropertyViewsOutliveACompactingAppend) {
  GraphRegistry registry;
  registry.Add("g", testutil::MakeTransitGraph());
  ASSERT_TRUE(registry.Append("g", TransitExtension(), false).ok());
  std::shared_ptr<ResidentGraph> job = registry.Get("g");
  const TemporalGraph& old = job->workload.graph();
  const LabelId cost = old.LabelIdOf(kTravelCostLabel).value();
  const PropRuns sealed_runs = old.EdgeProperty(0, cost);
  const PropRuns delta_runs =
      old.EdgeProperty(static_cast<EdgePos>(old.num_sealed_edges()), cost);
  const std::vector<PropRun> sealed_want(sealed_runs.entries().begin(),
                                         sealed_runs.entries().end());
  const std::vector<PropRun> delta_want(delta_runs.entries().begin(),
                                        delta_runs.entries().end());
  ASSERT_FALSE(sealed_want.empty());
  ASSERT_FALSE(delta_want.empty());

  auto info = registry.Append("g", SecondExtension(), true);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->head, (GraphHead{1, 0}));
  EXPECT_TRUE(job->superseded.load());
  EXPECT_NE(registry.Get("g").get(), job.get());

  const std::vector<PropRun> sealed_got(sealed_runs.entries().begin(),
                                        sealed_runs.entries().end());
  const std::vector<PropRun> delta_got(delta_runs.entries().begin(),
                                       delta_runs.entries().end());
  EXPECT_EQ(sealed_got, sealed_want);
  EXPECT_EQ(delta_got, delta_want);
  EXPECT_EQ(sealed_runs.Get(3), 4);
}

TEST(IngestVersionTest, AppendAndCompactOnACopyLeaveTheOriginalIntact) {
  TemporalGraph g1 = testutil::MakeTransitGraph();
  ASSERT_TRUE(g1.Append(TransitExtension()).ok());
  const GraphSnapshot before = Snapshot(g1, 100);

  TemporalGraph g2 = g1;
  ASSERT_TRUE(g2.Append(SecondExtension()).ok());
  EXPECT_EQ(Snapshot(g1, 100), before);
  EXPECT_EQ(g2.horizon(), 12);
  EXPECT_EQ(g2.num_edges(), g1.num_edges() + 2);
  EXPECT_FALSE(g1.IndexOf(7).has_value());
  EXPECT_TRUE(g2.IndexOf(7).has_value());

  g2.Compact();
  EXPECT_EQ(Snapshot(g1, 100), before);
  EXPECT_EQ(g2.head(), (GraphHead{1, 0}));
  // The original can still grow on its own line, and the compacted copy
  // still rejects the original's ids.
  EXPECT_FALSE(g2.Append(SecondExtension()).ok());
  ASSERT_TRUE(g1.Append(SecondExtension()).ok());
  TemporalGraph g1_compacted = g1;
  g1_compacted.Compact();
  EXPECT_EQ(Snapshot(g1_compacted, 100), Snapshot(g2, 100));
}

// Appended edges whose ids sort BELOW and between sealed ids: Compact()
// must interleave them into each vertex's slice exactly as the builder
// orders (src, eid).
TEST(IngestVersionTest, CompactInterleavesEidsLikeTheBuilder) {
  EdgeBatch batch;
  batch.edges.push_back({3, testutil::kA, testutil::kF, Interval(1, 4)});
  batch.edges.push_back({100, testutil::kA, testutil::kE, Interval(2, 3)});
  batch.edges.push_back({1, testutil::kD, testutil::kB, Interval(0, 9)});
  batch.props.push_back({3, kTravelTimeLabel, Interval(1, 4), 1});
  batch.props.push_back({1, kTravelCostLabel, Interval(0, 9), 7});

  TemporalGraphBuilder b;
  const Interval forever(0, kTimeMax);
  for (VertexId v : {testutil::kA, testutil::kB, testutil::kC, testutil::kD,
                     testutil::kE, testutil::kF}) {
    b.AddVertex(v, forever);
  }
  b.AddEdge(10, testutil::kA, testutil::kB, Interval(3, 6));
  b.SetEdgeProperty(10, kTravelTimeLabel, Interval(3, 6), 1);
  b.SetEdgeProperty(10, kTravelCostLabel, Interval(3, 5), 4);
  b.SetEdgeProperty(10, kTravelCostLabel, Interval(5, 6), 3);
  const auto edge = [&b](EdgeId eid, VertexId s, VertexId d, TimePoint t0,
                         TimePoint t1, PropValue cost) {
    b.AddEdge(eid, s, d, Interval(t0, t1));
    b.SetEdgeProperty(eid, kTravelTimeLabel, Interval(t0, t1), 1);
    b.SetEdgeProperty(eid, kTravelCostLabel, Interval(t0, t1), cost);
  };
  edge(11, testutil::kA, testutil::kC, 1, 2, 3);
  edge(12, testutil::kA, testutil::kD, 2, 4, 2);
  edge(13, testutil::kC, testutil::kE, 5, 6, 4);
  edge(14, testutil::kB, testutil::kE, 8, 9, 2);
  edge(15, testutil::kD, testutil::kF, 1, 2, 1);
  for (const auto& e : batch.edges) b.AddEdge(e.eid, e.src, e.dst, e.interval);
  for (const auto& p : batch.props) {
    b.SetEdgeProperty(p.eid, p.label, p.interval, p.value);
  }
  BuilderOptions options;
  options.horizon = 10;
  auto built = b.Build(options);
  ASSERT_TRUE(built.ok());

  const TemporalGraph base = testutil::MakeTransitGraph();
  TemporalGraph g = base;
  ASSERT_TRUE(g.Append(batch).ok());
  g.Compact();
  GraphSnapshot want = Snapshot(*built, 100);
  GraphSnapshot got = Snapshot(g, 100);
  want.head = got.head;  // The builder's graph has never compacted.
  EXPECT_EQ(got, want);
}

TEST(IngestAppendTest, ReceiptMergesAcrossAppends) {
  TemporalGraph g = testutil::MakeTransitGraph();
  AppendReceipt receipt;
  ASSERT_TRUE(g.Append(TransitExtension(), &receipt).ok());
  const VertexIdx fresh = g.IndexOf(6).value();

  // Second batch: an edge out of the (now live) fresh vertex and one out
  // of another sealed vertex.
  EdgeBatch second;
  second.edges.push_back({52, 6, testutil::kF, Interval(0, 2)});
  second.edges.push_back({53, testutil::kB, testutil::kC, Interval(1, 3)});
  ASSERT_TRUE(g.Append(second, &receipt).ok());

  // The fresh vertex gained an out-edge in the second append, but it is
  // fresh relative to the merged baseline, so it must NOT be listed as a
  // touched source (the warm start cold-runs it anyway).
  const VertexIdx a = g.IndexOf(testutil::kA).value();
  const VertexIdx b = g.IndexOf(testutil::kB).value();
  EXPECT_EQ(receipt.first_fresh_vertex, fresh);
  EXPECT_EQ(receipt.touched_sources, (std::vector<VertexIdx>{a, b}));
  EXPECT_EQ(receipt.new_edge_ids, (std::vector<EdgeId>{50, 51, 52, 53}));
}

// Property iteration order survives Append + Compact: a label set before
// a lower-numbered one stays first, runs set out of temporal order come
// out sorted, and vertex properties keep their first-set order. The
// compacted graph must match a single-shot build in iteration order and
// in the bytes both writers emit.
TEST(IngestVersionTest, CompactKeepsPropertyIterationOrder) {
  const auto add_base = [](TemporalGraphBuilder* b) {
    const Interval forever(0, kTimeMax);
    for (VertexId v : {0, 1, 2, 3}) b->AddVertex(v, forever);
    b->SetVertexProperty(2, "zone", Interval(0, 4), 7);
    b->SetVertexProperty(2, "capacity", Interval(0, 9), 40);
    b->SetVertexProperty(1, "capacity", Interval(3, 5), 10);
    b->SetVertexProperty(1, "zone", Interval(5, 8), 2);
    b->SetVertexProperty(1, "zone", Interval(1, 3), 1);
    b->AddEdge(10, 0, 1, Interval(1, 9));
    b->SetEdgeProperty(10, kTravelTimeLabel, Interval(1, 9), 1);
    b->SetEdgeProperty(10, kTravelCostLabel, Interval(1, 9), 3);
    b->AddEdge(20, 2, 3, Interval(0, 6));
    b->SetEdgeProperty(20, kTravelCostLabel, Interval(0, 6), 2);
    b->SetEdgeProperty(20, kTravelTimeLabel, Interval(0, 6), 1);
  };
  EdgeBatch batch;
  batch.vertices.push_back({4, Interval(0, kTimeMax)});
  batch.edges.push_back({15, 0, 4, Interval(1, 8)});
  batch.edges.push_back({5, 2, 0, Interval(2, 9)});
  // Edge 15: cost before time, and three cost runs set out of order.
  batch.props.push_back({15, kTravelCostLabel, Interval(6, 8), 9});
  batch.props.push_back({15, kTravelTimeLabel, Interval(1, 8), 2});
  batch.props.push_back({15, kTravelCostLabel, Interval(1, 3), 4});
  batch.props.push_back({15, kTravelCostLabel, Interval(3, 6), 5});
  // Edge 5 sorts before the sealed edge of vertex 2; its labels are set
  // interleaved with edge 15's.
  batch.props.push_back({5, kTravelTimeLabel, Interval(2, 4), 1});
  batch.props.push_back({5, "toll", Interval(2, 9), 6});
  batch.props.push_back({5, kTravelTimeLabel, Interval(4, 9), 3});

  TemporalGraphBuilder single;
  add_base(&single);
  for (const auto& v : batch.vertices) single.AddVertex(v.vid, v.interval);
  for (const auto& e : batch.edges) {
    single.AddEdge(e.eid, e.src, e.dst, e.interval);
  }
  for (const auto& p : batch.props) {
    single.SetEdgeProperty(p.eid, p.label, p.interval, p.value);
  }
  BuilderOptions options;
  options.horizon = 10;
  auto built = single.Build(options);
  ASSERT_TRUE(built.ok());

  TemporalGraphBuilder base_builder;
  add_base(&base_builder);
  auto base = base_builder.Build(options);
  ASSERT_TRUE(base.ok());
  TemporalGraph appended = *base;
  ASSERT_TRUE(appended.Append(batch).ok());
  TemporalGraph copy = appended;
  copy.Compact();
  appended.Compact();

  GraphSnapshot want = Snapshot(*built, 10);
  want.head = appended.head();  // The builder's graph has never compacted.
  EXPECT_EQ(Snapshot(appended, 10), want);
  EXPECT_EQ(Snapshot(copy, 10), want);

  // The layout this test exists for: first-set label order per entity.
  const VertexIdx v2 = appended.IndexOf(2).value();
  std::vector<std::string> v2_labels;
  for (const auto& [label, runs] : appended.VertexProperties(v2)) {
    v2_labels.push_back(appended.LabelName(label));
  }
  EXPECT_EQ(v2_labels, (std::vector<std::string>{"zone", "capacity"}));
  const VertexIdx v0 = appended.IndexOf(0).value();
  const auto out0 = appended.OutEdges(v0);
  ASSERT_EQ(out0.size(), 2u);
  ASSERT_EQ(out0[1].eid, 15);
  std::vector<std::pair<std::string, std::vector<PropValue>>> e15;
  for (const auto& [label, runs] : appended.EdgeProperties(out0.pos(1))) {
    std::vector<PropValue> values;
    for (const auto& entry : runs.entries()) values.push_back(entry.value);
    e15.emplace_back(appended.LabelName(label), values);
  }
  EXPECT_EQ(e15, (std::vector<std::pair<std::string, std::vector<PropValue>>>{
                     {kTravelCostLabel, {4, 5, 9}}, {kTravelTimeLabel, {2}}}));

  EXPECT_TRUE(testutil::SameGraph(appended, *built));
  EXPECT_EQ(WriteTextGraph(copy), WriteTextGraph(*built));
}

// --- Incremental recompute: the acceptance matrix ---

struct ModeSpec {
  const char* name;
  bool use_threads;
  int num_threads;
  int chunk_size;
};

const ModeSpec kModes[] = {
    {"sequential", false, 0, 64},
    {"steal2", true, 2, 64},
    {"steal8", true, 8, 4},
};

IcmOptions MakeOptions(const ModeSpec& mode, int workers) {
  IcmOptions options;
  options.num_workers = workers;
  options.use_threads = mode.use_threads;
  options.runtime.num_threads = mode.num_threads;
  options.runtime.chunk_size = mode.chunk_size;
  return options;
}

// All vertices span the whole horizon so batch edges can carry any
// sub-interval without violating lifespan containment.
TemporalGraph FullSpanRandomGraph(uint64_t seed) {
  testutil::RandomGraphOptions opt;
  opt.full_lifespan_prob = 1.0;
  return testutil::MakeRandomGraph(seed, opt);
}

// Delta links are one sorted array searched per vertex. Vertices with
// runs of 0..132 delta edges, built up over interleaved batches, must
// each see exactly their own edges in append order, and every position
// a view hands out must address the edge it indexes.
TEST(IngestAppendTest, DeltaRunsOfEveryLengthResolve) {
  TemporalGraph g = FullSpanRandomGraph(7);
  const size_t n = g.num_vertices();
  const std::vector<size_t> run_lengths = {0, 1, 2, 3, 5, 8, 17, 33};
  ASSERT_GE(n, run_lengths.size());
  std::vector<size_t> sealed_out(n), sealed_in(n);
  for (VertexIdx v = 0; v < n; ++v) {
    sealed_out[v] = g.OutEdges(v).size();
    sealed_in[v] = g.InEdgePositions(v).size();
  }

  std::vector<std::vector<EdgeId>> want_out(n);
  std::vector<size_t> want_in(n, 0);
  EdgeId next_eid = 100000;
  for (int round = 0; round < 4; ++round) {
    EdgeBatch batch;
    // Sources in descending order, so each batch's links arrive unsorted.
    for (size_t s = run_lengths.size(); s-- > 0;) {
      const VertexIdx src = static_cast<VertexIdx>(s * 3 % n);
      for (size_t j = 0; j < run_lengths[s]; ++j) {
        const VertexIdx dst = static_cast<VertexIdx>((s + j + round) % n);
        const Interval span = g.vertex_interval(src).Intersect(
            g.vertex_interval(dst));
        if (span.IsEmpty()) continue;
        batch.edges.push_back(
            {next_eid, g.vertex_id(src), g.vertex_id(dst), span});
        want_out[src].push_back(next_eid);
        ++want_in[dst];
        ++next_eid;
      }
    }
    ASSERT_TRUE(g.Append(batch).ok());
  }

  for (VertexIdx v = 0; v < n; ++v) {
    const auto out = g.OutEdges(v);
    ASSERT_EQ(out.size(), sealed_out[v] + want_out[v].size()) << v;
    for (size_t k = 0; k < out.size(); ++k) {
      EXPECT_EQ(&g.edge(out.pos(k)), &out[k]);
      EXPECT_EQ(g.OutEdgePos(v, k), out.pos(k));
      EXPECT_EQ(out[k].src, v);
      if (k >= sealed_out[v]) {
        EXPECT_EQ(out[k].eid, want_out[v][k - sealed_out[v]]);
      }
    }
    const auto in = g.InEdgePositions(v);
    ASSERT_EQ(in.size(), sealed_in[v] + want_in[v]) << v;
    for (EdgePos pos : in) EXPECT_EQ(g.edge(pos).dst, v);
  }
}

// A batch exercising every edge class the receipt distinguishes:
// existing->fresh, fresh->fresh, fresh->existing, existing->existing.
// Batch eids sort above the base's 1000+ range so Compact() preserves
// per-vertex edge order.
EdgeBatch RandomGraphExtension() {
  EdgeBatch batch;
  batch.vertices.push_back({100, Interval(0, 12)});
  batch.vertices.push_back({101, Interval(0, 12)});
  batch.edges.push_back({5000, 0, 100, Interval(1, 9)});
  batch.edges.push_back({5001, 100, 101, Interval(2, 10)});
  batch.edges.push_back({5002, 101, 3, Interval(3, 11)});
  batch.edges.push_back({5003, 5, 9, Interval(1, 8)});
  batch.edges.push_back({5004, 9, 100, Interval(4, 10)});
  for (EdgeId eid : {5000, 5001, 5002, 5003, 5004}) {
    const Interval span = [&] {
      switch (eid) {
        case 5000: return Interval(1, 9);
        case 5001: return Interval(2, 10);
        case 5002: return Interval(3, 11);
        case 5003: return Interval(1, 8);
        default: return Interval(4, 10);
      }
    }();
    batch.props.push_back({eid, kTravelTimeLabel, span, 1});
    batch.props.push_back({eid, kTravelCostLabel, span, 2});
  }
  return batch;
}

template <typename Program>
void CheckIcmIncrementalMatrix(uint64_t seed, const char* prog_name) {
  const TemporalGraph pre = FullSpanRandomGraph(seed);
  const VertexId source = pre.vertex_id(0);

  // Converge on the pre-append graph once; these states seed every warm
  // run below.
  Program pre_program(pre, source);
  const auto pre_run =
      IcmEngine<Program>::Run(pre, pre_program, MakeOptions(kModes[0], 3));

  TemporalGraph merged = pre;
  AppendReceipt receipt;
  ASSERT_TRUE(merged.Append(RandomGraphExtension(), &receipt).ok());
  TemporalGraph compacted = merged;
  compacted.Compact();

  const std::pair<const TemporalGraph*, const char*> variants[] = {
      {&merged, "delta"}, {&compacted, "compacted"}};
  for (const auto& [graph, variant] : variants) {
    Program full_program(*graph, source);
    const auto want =
        IcmEngine<Program>::Run(*graph, full_program, MakeOptions(kModes[0], 3));
    for (const ModeSpec& mode : kModes) {
      for (int workers : {1, 3, 7}) {
        // RunIncremental consumes the warm start; re-copy per cell.
        IcmWarmStart<Program> warm;
        warm.states = pre_run.states;
        warm.receipt = receipt;
        Program p(*graph, source);
        const auto got = IcmEngine<Program>::RunIncremental(
            *graph, p, std::move(warm), MakeOptions(mode, workers));
        const std::string what = std::string(prog_name) + "/" + variant +
                                 "/" + mode.name +
                                 " w=" + std::to_string(workers);
        ASSERT_EQ(want.states.size(), got.states.size()) << what;
        for (size_t v = 0; v < want.states.size(); ++v) {
          ASSERT_EQ(want.states[v], got.states[v])
              << what << " v=" << v;
        }
      }
    }
  }
}

class IngestIncrementalTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IngestIncrementalTest, IcmReachMatchesFullRecompute) {
  CheckIcmIncrementalMatrix<IcmReach>(GetParam(), "reach");
}

TEST_P(IngestIncrementalTest, IcmEatMatchesFullRecompute) {
  CheckIcmIncrementalMatrix<IcmEat>(GetParam(), "eat");
}

TEST_P(IngestIncrementalTest, IcmSsspMatchesFullRecompute) {
  CheckIcmIncrementalMatrix<IcmSssp>(GetParam(), "sssp");
}

INSTANTIATE_TEST_SUITE_P(Seeds, IngestIncrementalTest,
                         ::testing::Values(7, 1234, 987654));

// The point of the warm start: superstep 0 touches only the seeds, not
// the whole vertex set, so the incremental run does strictly less work
// than a full recompute converging to the same states.
TEST(IngestIncrementalTest, IncrementalDoesLessComputeWork) {
  const TemporalGraph pre = FullSpanRandomGraph(42);
  IcmEat pre_program(pre, pre.vertex_id(0));
  const auto pre_run =
      IcmEngine<IcmEat>::Run(pre, pre_program, MakeOptions(kModes[0], 3));

  TemporalGraph merged = pre;
  AppendReceipt receipt;
  ASSERT_TRUE(merged.Append(RandomGraphExtension(), &receipt).ok());

  IcmEat full_program(merged, merged.vertex_id(0));
  const auto full =
      IcmEngine<IcmEat>::Run(merged, full_program, MakeOptions(kModes[0], 3));

  IcmWarmStart<IcmEat> warm;
  warm.states = pre_run.states;
  warm.receipt = receipt;
  IcmEat inc_program(merged, merged.vertex_id(0));
  const auto inc = IcmEngine<IcmEat>::RunIncremental(
      merged, inc_program, std::move(warm), MakeOptions(kModes[0], 3));

  for (size_t v = 0; v < full.states.size(); ++v) {
    ASSERT_EQ(full.states[v], inc.states[v]) << v;
  }
  EXPECT_LT(inc.metrics.compute_calls, full.metrics.compute_calls);
  EXPECT_LT(inc.metrics.messages, full.metrics.messages);
}

// --- Checkpoint interaction with the mutation head ---

// A chain of fresh vertices so the incremental run spans enough
// supersteps for mid-run kills and head checks to bite.
EdgeBatch ChainExtension() {
  EdgeBatch batch;
  for (VertexId vid : {100, 101, 102, 103}) {
    batch.vertices.push_back({vid, Interval(0, 12)});
  }
  batch.edges.push_back({5000, 0, 100, Interval(1, 10)});
  batch.edges.push_back({5001, 100, 101, Interval(2, 10)});
  batch.edges.push_back({5002, 101, 102, Interval(3, 11)});
  batch.edges.push_back({5003, 102, 103, Interval(4, 11)});
  for (EdgeId eid : {5000, 5001, 5002, 5003}) {
    const Interval span = eid == 5000   ? Interval(1, 10)
                          : eid == 5001 ? Interval(2, 10)
                          : eid == 5002 ? Interval(3, 11)
                                        : Interval(4, 11);
    batch.props.push_back({eid, kTravelTimeLabel, span, 1});
    batch.props.push_back({eid, kTravelCostLabel, span, 1});
  }
  return batch;
}

// Checkpoints written against the pre-append head must be ignored once
// the head moves: resuming on the grown graph starts cold (or from the
// warm seed) instead of restoring a stale frame.
TEST(IngestCheckpointTest, HeadMismatchIgnoresStaleCheckpoints) {
  const TemporalGraph pre = FullSpanRandomGraph(9);
  const VertexId source = pre.vertex_id(0);
  IcmOptions options = MakeOptions(kModes[0], 3);
  options.runtime.checkpoint = CheckpointPolicy::EveryK(1);

  CheckpointStore store(NewDir("head_mismatch"));
  RecoveryContext writing;
  writing.store = &store;
  IcmSssp pre_program(pre, source);
  const auto pre_run = IcmEngine<IcmSssp>::Run(pre, pre_program, options, writing);
  ASSERT_FALSE(store.ListCheckpoints().empty());

  TemporalGraph merged = pre;
  AppendReceipt receipt;
  ASSERT_TRUE(merged.Append(ChainExtension(), &receipt).ok());

  IcmSssp full_program(merged, source);
  const auto want = IcmEngine<IcmSssp>::Run(merged, full_program, options);

  // Resume attempts probe the stale store without writing fresh frames
  // into it (a head-matched frame written by the first attempt would be
  // a perfectly valid resume point for the second).
  IcmOptions probe_options = options;
  probe_options.runtime.checkpoint = CheckpointPolicy::None();

  // Cold resume attempt: the stale frames carry the pre-append head, so
  // the run must NOT restore them.
  {
    CheckpointStore reopened(store.dir());
    RecoveryContext resume;
    resume.store = &reopened;
    resume.resume = true;
    IcmSssp p(merged, source);
    const auto got = IcmEngine<IcmSssp>::Run(merged, p, probe_options, resume);
    EXPECT_EQ(got.metrics.resumed_from, -1);
    for (size_t v = 0; v < want.states.size(); ++v) {
      ASSERT_EQ(want.states[v], got.states[v]) << v;
    }
  }

  // Warm resume attempt: head mismatch falls back to the warm seed, not
  // to a cold start — and still matches the full recompute.
  {
    CheckpointStore reopened(store.dir());
    RecoveryContext resume;
    resume.store = &reopened;
    resume.resume = true;
    IcmWarmStart<IcmSssp> warm;
    warm.states = pre_run.states;
    warm.receipt = receipt;
    IcmSssp p(merged, source);
    const auto got = IcmEngine<IcmSssp>::RunIncremental(
        merged, p, std::move(warm), probe_options, resume);
    EXPECT_EQ(got.metrics.resumed_from, -1);
    for (size_t v = 0; v < want.states.size(); ++v) {
      ASSERT_EQ(want.states[v], got.states[v]) << v;
    }
  }
}

// An incremental run killed mid-flight resumes from its own checkpoint
// (taken against the merged head) and lands on the same fixed point as
// both the uninterrupted incremental run and the full recompute.
TEST(IngestCheckpointTest, KillAndResumeMidIncrementalIngest) {
  const TemporalGraph pre = FullSpanRandomGraph(21);
  const VertexId source = pre.vertex_id(0);
  IcmEat pre_program(pre, source);
  const auto pre_run =
      IcmEngine<IcmEat>::Run(pre, pre_program, MakeOptions(kModes[0], 3));

  TemporalGraph merged = pre;
  AppendReceipt receipt;
  ASSERT_TRUE(merged.Append(ChainExtension(), &receipt).ok());

  IcmOptions options = MakeOptions(kModes[2], 3);
  options.runtime.checkpoint = CheckpointPolicy::EveryK(1);

  const auto make_warm = [&] {
    IcmWarmStart<IcmEat> warm;
    warm.states = pre_run.states;
    warm.receipt = receipt;
    return warm;
  };

  IcmEat baseline_program(merged, source);
  const auto baseline = IcmEngine<IcmEat>::RunIncremental(
      merged, baseline_program, make_warm(), options);
  // The fresh chain forces enough supersteps for a superstep-2 kill.
  ASSERT_GE(baseline.metrics.supersteps, 4);

  CheckpointStore store(NewDir("kill_incremental"));
  FaultInjector fault;
  fault.ScheduleKill(/*superstep=*/2, /*worker=*/0);
  RecoveryContext crash;
  crash.store = &store;
  crash.fault = &fault;
  IcmEat killed_program(merged, source);
  const auto killed = IcmEngine<IcmEat>::RunIncremental(
      merged, killed_program, make_warm(), options, crash);
  ASSERT_TRUE(fault.triggered());
  ASSERT_TRUE(killed.metrics.interrupted);
  ASSERT_FALSE(store.ListCheckpoints().empty());

  RecoveryContext resume;
  resume.store = &store;
  resume.resume = true;
  IcmEat resumed_program(merged, source);
  const auto resumed = IcmEngine<IcmEat>::RunIncremental(
      merged, resumed_program, make_warm(), options, resume);
  EXPECT_GE(resumed.metrics.resumed_from, 0);
  EXPECT_FALSE(resumed.metrics.interrupted);

  IcmEat full_program(merged, source);
  const auto full = IcmEngine<IcmEat>::Run(merged, full_program, options);
  for (size_t v = 0; v < full.states.size(); ++v) {
    ASSERT_EQ(full.states[v], resumed.states[v]) << v;
    ASSERT_EQ(baseline.states[v], resumed.states[v]) << v;
  }
  // Counter totals restored from the frame line up with the run that
  // never died.
  EXPECT_EQ(baseline.metrics.messages, resumed.metrics.messages);
  EXPECT_EQ(baseline.metrics.compute_calls, resumed.metrics.compute_calls);
}

// --- UpdateBatcher: the typed producer ---

TEST(IngestBatcherTest, DrainClosedEmitsFinalLifespansOnly) {
  UpdateBatcher batcher;
  ASSERT_TRUE(batcher.Push(GraphUpdate::AddVertex(0, 100)).ok());
  ASSERT_TRUE(batcher.Push(GraphUpdate::AddEdge(1, 500, 100, 101)).ok());
  ASSERT_TRUE(
      batcher.Push(GraphUpdate::SetEdgeProp(1, 500, kTravelTimeLabel, 1)).ok());

  // First drain: the vertex goes out open-ended; the live edge stays.
  EdgeBatch first = batcher.DrainClosed();
  ASSERT_EQ(first.vertices.size(), 1u);
  EXPECT_EQ(first.vertices[0].vid, 100);
  EXPECT_EQ(first.vertices[0].interval, Interval(0, kTimeMax));
  EXPECT_TRUE(first.edges.empty());
  EXPECT_EQ(batcher.num_pending_vertices(), 0u);
  EXPECT_EQ(batcher.num_pending_edges(), 1u);

  // The removal closes the lifespan; the next drain emits the edge with
  // its property run clipped to the final lifespan.
  ASSERT_TRUE(batcher.Push(GraphUpdate::RemoveEdge(4, 500)).ok());
  EdgeBatch second = batcher.DrainClosed();
  ASSERT_EQ(second.edges.size(), 1u);
  EXPECT_EQ(second.edges[0].eid, 500);
  EXPECT_EQ(second.edges[0].interval, Interval(1, 4));
  ASSERT_EQ(second.props.size(), 1u);
  EXPECT_EQ(second.props[0].interval, Interval(1, 4));
  EXPECT_EQ(batcher.num_pending_edges(), 0u);

  // FlushAll closes still-live edges at the horizon.
  ASSERT_TRUE(batcher.Push(GraphUpdate::AddEdge(5, 501, 100, 101)).ok());
  auto flushed = batcher.FlushAll(8);
  ASSERT_TRUE(flushed.ok());
  ASSERT_EQ(flushed.value().edges.size(), 1u);
  EXPECT_EQ(flushed.value().edges[0].interval, Interval(5, 8));
  EXPECT_EQ(batcher.num_pending_edges(), 0u);

  // Vertex mutations cannot be expressed on the append path.
  EXPECT_FALSE(batcher.Push(GraphUpdate::RemoveVertex(9, 100)).ok());
  EXPECT_FALSE(
      batcher.Push(GraphUpdate::SetVertexProp(9, 100, "label", 1)).ok());
  // Time cannot go backwards.
  EXPECT_FALSE(batcher.Push(GraphUpdate::AddVertex(3, 102)).ok());
}

}  // namespace
}  // namespace graphite
