// Golden model counters: every (platform, algorithm) runner on one seeded
// graph at 3 logical workers, with its model-intrinsic counters pinned to
// fixed values. The determinism matrices compare modes against each other
// within one build; this suite compares one build against the recorded
// values, so an engine refactor that changes what the model does (one
// more superstep, a dropped warp merge, a different activation set)
// fails here even when every mode agrees with every other.
//
// The counters are invariant under scheduling and thread count (see
// runtime_determinism_test.cc), so the runs are sequential.
// When a deliberate model change moves them, re-pin from the failure
// output: each mismatch prints the actual row in table syntax.
#include <gtest/gtest.h>

#include <string>

#include "algorithms/runners.h"
#include "testutil.h"

namespace graphite {
namespace {

TemporalGraph GoldenGraph() {
  testutil::RandomGraphOptions opt;
  opt.num_vertices = 40;
  opt.num_edges = 140;
  opt.full_lifespan_prob = 0.6;
  return testutil::MakeRandomGraph(2020, opt);
}

// Traversals start at the highest out-degree vertex and latest
// departure targets the highest in-degree one, so every algorithm does
// real work.
RunConfig GoldenConfig(const TemporalGraph& g) {
  VertexIdx hub = 0;
  VertexIdx sink = 0;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    if (g.OutEdges(v).size() > g.OutEdges(hub).size()) hub = v;
    if (g.InEdgePositions(v).size() > g.InEdgePositions(sink).size()) {
      sink = v;
    }
  }
  RunConfig config;
  config.num_workers = 3;
  config.use_threads = false;
  config.source = g.vertex_id(hub);
  config.target = g.vertex_id(sink);
  return config;
}

struct RunnerGolden {
  Platform platform;
  Algorithm algorithm;
  int64_t supersteps;
  int64_t compute_calls;
  int64_t scatter_calls;
  int64_t messages;
  int64_t message_bytes;
  int64_t frontier_units;
  int64_t frontier_dense_workers;
  int64_t warp_slices;
  int64_t warp_merge_hits;
};

const char* EnumName(Platform p) {
  switch (p) {
    case Platform::kIcm: return "Platform::kIcm";
    case Platform::kMsb: return "Platform::kMsb";
    case Platform::kChl: return "Platform::kChl";
    case Platform::kTgb: return "Platform::kTgb";
    case Platform::kGof: return "Platform::kGof";
  }
  return "?";
}

const char* EnumName(Algorithm a) {
  switch (a) {
    case Algorithm::kBfs: return "Algorithm::kBfs";
    case Algorithm::kWcc: return "Algorithm::kWcc";
    case Algorithm::kScc: return "Algorithm::kScc";
    case Algorithm::kPr: return "Algorithm::kPr";
    case Algorithm::kSssp: return "Algorithm::kSssp";
    case Algorithm::kEat: return "Algorithm::kEat";
    case Algorithm::kFast: return "Algorithm::kFast";
    case Algorithm::kLd: return "Algorithm::kLd";
    case Algorithm::kTmst: return "Algorithm::kTmst";
    case Algorithm::kRh: return "Algorithm::kRh";
    case Algorithm::kLcc: return "Algorithm::kLcc";
    case Algorithm::kTc: return "Algorithm::kTc";
  }
  return "?";
}

std::string Row(const RunnerGolden& r) {
  return std::string("{") + EnumName(r.platform) + ", " +
         EnumName(r.algorithm) + ", " +
         std::to_string(r.supersteps) + ", " +
         std::to_string(r.compute_calls) + ", " +
         std::to_string(r.scatter_calls) + ", " +
         std::to_string(r.messages) + ", " +
         std::to_string(r.message_bytes) + ", " +
         std::to_string(r.frontier_units) + ", " +
         std::to_string(r.frontier_dense_workers) + ", " +
         std::to_string(r.warp_slices) + ", " +
         std::to_string(r.warp_merge_hits) + "},";
}

// {platform, algorithm, supersteps, compute_calls, scatter_calls,
//  messages, message_bytes, frontier_units, frontier_dense_workers,
//  warp_slices, warp_merge_hits}
const RunnerGolden kRunnerGolden[] = {
    {Platform::kIcm, Algorithm::kBfs, 8, 40, 41, 41, 167, 36, 0, 0, 0},
    {Platform::kIcm, Algorithm::kWcc, 14, 766, 1129, 1129, 5092, 250, 18, 272, 94},
    {Platform::kIcm, Algorithm::kScc, 46, 1062, 639, 639, 2934, 335, 17, 189, 25},
    {Platform::kIcm, Algorithm::kPr, 11, 2131, 2297, 2565, 31485, 429, 33, 193, 4},
    {Platform::kIcm, Algorithm::kSssp, 4, 14, 31, 31, 124, 25, 0, 5, 1},
    {Platform::kIcm, Algorithm::kEat, 4, 13, 30, 30, 120, 25, 0, 5, 2},
    {Platform::kIcm, Algorithm::kFast, 4, 15, 30, 31, 124, 25, 0, 7, 1},
    {Platform::kIcm, Algorithm::kLd, 3, 9, 23, 10, 40, 8, 0, 4, 2},
    {Platform::kIcm, Algorithm::kTmst, 4, 13, 30, 30, 150, 25, 0, 5, 2},
    {Platform::kIcm, Algorithm::kRh, 4, 13, 30, 30, 120, 25, 0, 5, 2},
    {Platform::kIcm, Algorithm::kLcc, 4, 290, 407, 372, 2058, 81, 6, 95, 0},
    {Platform::kIcm, Algorithm::kTc, 4, 290, 407, 372, 2058, 81, 6, 95, 0},
    {Platform::kMsb, Algorithm::kBfs, 29, 346, 0, 42, 84, 40, 0, 0, 0},
    {Platform::kMsb, Algorithm::kWcc, 89, 1177, 0, 1545, 3090, 871, 83, 0, 0},
    {Platform::kMsb, Algorithm::kScc, 226, 2718, 0, 898, 1796, 720, 32, 0, 0},
    {Platform::kMsb, Algorithm::kPr, 132, 3366, 0, 2959, 29590, 1859, 231, 0, 0},
    {Platform::kChl, Algorithm::kBfs, 9, 346, 0, 39, 165, 40, 0, 0, 0},
    {Platform::kChl, Algorithm::kWcc, 24, 1177, 0, 1169, 5327, 871, 5, 0, 0},
    {Platform::kChl, Algorithm::kScc, 83, 3990, 0, 681, 3090, 720, 0, 0, 0},
    {Platform::kChl, Algorithm::kPr, 22, 3366, 0, 2578, 31611, 1859, 0, 0, 0},
    {Platform::kTgb, Algorithm::kSssp, 7, 269, 0, 43, 98, 40, 0, 0, 0},
    {Platform::kTgb, Algorithm::kEat, 7, 269, 0, 43, 98, 40, 0, 0, 0},
    {Platform::kTgb, Algorithm::kFast, 7, 269, 0, 43, 98, 40, 0, 0, 0},
    {Platform::kTgb, Algorithm::kLd, 4, 271, 0, 42, 101, 42, 0, 0, 0},
    {Platform::kTgb, Algorithm::kTmst, 8, 283, 0, 59, 192, 54, 0, 0, 0},
    {Platform::kTgb, Algorithm::kRh, 7, 269, 0, 43, 98, 40, 0, 0, 0},
    {Platform::kTgb, Algorithm::kLcc, 4, 547, 0, 522, 1825, 294, 3, 0, 0},
    {Platform::kTgb, Algorithm::kTc, 4, 547, 0, 522, 1825, 294, 3, 0, 0},
    {Platform::kGof, Algorithm::kSssp, 12, 39, 0, 80, 240, 0, 0, 0, 0},
    {Platform::kGof, Algorithm::kEat, 12, 39, 0, 80, 240, 0, 0, 0, 0},
    {Platform::kGof, Algorithm::kFast, 12, 39, 0, 77, 231, 0, 0, 0, 0},
    {Platform::kGof, Algorithm::kLd, 20, 50, 0, 55, 165, 19, 0, 0, 0},
    {Platform::kGof, Algorithm::kTmst, 12, 39, 0, 80, 320, 0, 0, 0, 0},
    {Platform::kGof, Algorithm::kRh, 12, 39, 0, 80, 240, 0, 0, 0, 0},
    {Platform::kGof, Algorithm::kLcc, 39, 600, 0, 522, 2088, 294, 11, 0, 0},
    {Platform::kGof, Algorithm::kTc, 39, 600, 0, 522, 2088, 294, 11, 0, 0},
};

TEST(GoldenCountersTest, EveryRunnerMatchesPinnedCounters) {
  Workload w(GoldenGraph());
  const RunConfig config = GoldenConfig(w.graph());
  size_t supported = 0;
  for (const Platform p : {Platform::kIcm, Platform::kMsb, Platform::kChl,
                           Platform::kTgb, Platform::kGof}) {
    for (const Algorithm a : kAllAlgorithms) {
      if (!Supports(p, a)) continue;
      ++supported;
      const RunMetrics m = RunForMetrics(w, p, a, config);
      const RunnerGolden got = {p,
                                a,
                                m.supersteps,
                                m.compute_calls,
                                m.scatter_calls,
                                m.messages,
                                m.message_bytes,
                                m.frontier_units,
                                m.frontier_dense_workers,
                                m.warp_slices,
                                m.warp_merge_hits};
      const RunnerGolden* want = nullptr;
      for (const RunnerGolden& row : kRunnerGolden) {
        if (row.platform == p && row.algorithm == a) want = &row;
      }
      if (want == nullptr) {
        ADD_FAILURE() << "unpinned runner: " << Row(got);
        continue;
      }
      EXPECT_EQ(Row(*want), Row(got));
    }
  }
  EXPECT_EQ(supported, std::size(kRunnerGolden));
}

// ICM's activity counters live on IcmResult, not RunMetrics, so these
// runs build the same programs the runners do and call the engine.
struct IcmGolden {
  const char* name;
  int64_t active_compute_calls;
  int64_t suppressed_vertices;
};

std::string Row(const IcmGolden& r) {
  return std::string("{\"") + r.name + "\", " +
         std::to_string(r.active_compute_calls) + ", " +
         std::to_string(r.suppressed_vertices) + "},";
}

const IcmGolden kIcmGolden[] = {
    {"bfs", 40, 35},
    {"wcc", 766, 205},
    {"pr", 1683, 340},
    {"sssp", 14, 0},
    {"eat", 13, 0},
    {"fast", 15, 0},
    {"ld", 9, 0},
    {"tmst", 13, 0},
    {"rh", 13, 0},
    {"tc", 290, 57},
};

template <typename Program>
IcmGolden RunIcm(const char* name, const TemporalGraph& g, Program program,
                 const IcmOptions& options) {
  const IcmResult<Program> r = IcmEngine<Program>::Run(g, program, options);
  return {name, r.active_compute_calls, r.suppressed_vertices};
}

TEST(GoldenCountersTest, IcmActivityCountersMatchPinned) {
  Workload w(GoldenGraph());
  const TemporalGraph& g = w.graph();
  const RunConfig config = GoldenConfig(g);
  const IcmOptions options = config.ToIcm();
  const IcmGolden got[] = {
      RunIcm("bfs", g, IcmBfs(config.source), options),
      RunIcm("wcc", w.undirected(), IcmWcc(), options),
      RunIcm("pr", g, IcmPageRank(g), PageRankOptions(options)),
      RunIcm("sssp", g, IcmSssp(g, config.source), options),
      RunIcm("eat", g, IcmEat(g, config.source), options),
      RunIcm("fast", g, IcmFast(g, config.source), options),
      RunIcm("ld", w.reversed(),
             IcmLatestDeparture(w.reversed(), config.target, g.horizon()),
             options),
      RunIcm("tmst", g, IcmTmst(g, config.source), options),
      RunIcm("rh", g, IcmReach(g, config.source), options),
      RunIcm("tc", g, IcmTriangleCount(), TriangleOptions(options)),
  };
  ASSERT_EQ(std::size(got), std::size(kIcmGolden)) << [&] {
    std::string rows;
    for (const IcmGolden& r : got) rows += Row(r) + "\n";
    return rows;
  }();
  for (size_t i = 0; i < std::size(got); ++i) {
    EXPECT_EQ(Row(kIcmGolden[i]), Row(got[i]));
  }
}

}  // namespace
}  // namespace graphite
