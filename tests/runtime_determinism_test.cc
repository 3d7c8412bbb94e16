// The parallel runtime's oracle: both scheduling modes — sequential and
// chunked work stealing, at fewer and at more threads than workers — must
// produce a byte-identical IcmResult (states, call/message/byte
// counts, per-worker call vectors) for any logical worker count. The
// per-destination wire buffers are filled in logical-worker order in every
// mode (chunk rows concatenate in chunk order), so this is exact equality,
// not tolerance-based. Also unit-tests the ThreadPool primitive itself.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "algorithms/icm_path.h"
#include "algorithms/icm_ti.h"
#include "algorithms/runners.h"
#include "engine/thread_pool.h"
#include "icm/icm_engine.h"
#include "server/query_service.h"
#include "testutil.h"

namespace graphite {
namespace {

TEST(ThreadPoolTest, RunsJobOnEveryLane) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.RunOnAll([&](int t) { hits[t].fetch_add(1); });
  for (int t = 0; t < 4; ++t) EXPECT_EQ(hits[t].load(), 1) << "lane " << t;
}

TEST(ThreadPoolTest, ReusableAcrossManyRounds) {
  ThreadPool pool(3);
  std::atomic<int64_t> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.RunOnAll([&](int t) { sum.fetch_add(t + 1); });
  }
  // 200 rounds x (1+2+3).
  EXPECT_EQ(sum.load(), 200 * 6);
}

TEST(ThreadPoolTest, SingleLaneRunsInline) {
  ThreadPool pool(1);
  int calls = 0;
  pool.RunOnAll([&](int t) {
    EXPECT_EQ(t, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

// Drains a shared counter from all lanes; the sum of claimed items must be
// exact regardless of interleaving (the pattern SuperstepRuntime uses).
TEST(ThreadPoolTest, AtomicCursorDrainClaimsEachItemOnce) {
  ThreadPool pool(4);
  constexpr int kItems = 10000;
  std::vector<std::atomic<int>> claimed(kItems);
  std::atomic<int> cursor{0};
  pool.RunOnAll([&](int) {
    for (;;) {
      const int i = cursor.fetch_add(1);
      if (i >= kItems) break;
      claimed[i].fetch_add(1);
    }
  });
  for (int i = 0; i < kItems; ++i) ASSERT_EQ(claimed[i].load(), 1) << i;
}

// --- The determinism matrix: {sequential, stealing x2, stealing x8} x
// {1, 3, 7} logical workers must agree exactly. The delivery plane visits
// wire rows in chunk order and decodes each row in write order, so
// stealing reproduces sequential results byte for byte, message counts
// included. ---

struct ModeSpec {
  const char* name;
  bool use_threads;
  int num_threads;
  int chunk_size;
};

const ModeSpec kModes[] = {
    {"sequential", false, 0, 64},
    // Fewer threads than workers: each thread owns several home workers.
    {"steal2", true, 2, 64},
    // Tiny chunks force heavy inter-thread stealing on small graphs.
    {"steal8", true, 8, 4},
};

std::string MatrixLabel(const ModeSpec& mode, int workers) {
  return std::string(mode.name) + " w=" + std::to_string(workers);
}

IcmOptions MakeOptions(const ModeSpec& mode, int workers) {
  IcmOptions options;
  options.num_workers = workers;
  options.use_threads = mode.use_threads;
  options.runtime.num_threads = mode.num_threads;
  options.runtime.chunk_size = mode.chunk_size;
  return options;
}

template <typename Program>
void ExpectIdentical(const IcmResult<Program>& want,
                     const IcmResult<Program>& got, const char* what) {
  ASSERT_EQ(want.states.size(), got.states.size()) << what;
  for (size_t v = 0; v < want.states.size(); ++v) {
    ASSERT_EQ(want.states[v], got.states[v])
        << what << " v=" << v;
  }
  EXPECT_EQ(want.active_compute_calls, got.active_compute_calls) << what;
  EXPECT_EQ(want.suppressed_vertices, got.suppressed_vertices) << what;
  EXPECT_EQ(want.metrics.supersteps, got.metrics.supersteps) << what;
  EXPECT_EQ(want.metrics.compute_calls, got.metrics.compute_calls) << what;
  EXPECT_EQ(want.metrics.scatter_calls, got.metrics.scatter_calls) << what;
  EXPECT_EQ(want.metrics.messages, got.metrics.messages) << what;
  EXPECT_EQ(want.metrics.message_bytes, got.metrics.message_bytes) << what;
  // Per-superstep model counters, including the per-logical-worker call
  // vector: logical workers are fixed routing entities, so they must not
  // shift when OS threads steal chunks.
  ASSERT_EQ(want.metrics.per_superstep.size(), got.metrics.per_superstep.size())
      << what;
  for (size_t s = 0; s < want.metrics.per_superstep.size(); ++s) {
    const SuperstepMetrics& a = want.metrics.per_superstep[s];
    const SuperstepMetrics& b = got.metrics.per_superstep[s];
    EXPECT_EQ(a.compute_calls, b.compute_calls) << what << " ss=" << s;
    EXPECT_EQ(a.messages, b.messages) << what << " ss=" << s;
    EXPECT_EQ(a.message_bytes, b.message_bytes) << what << " ss=" << s;
    EXPECT_EQ(a.worker_compute_calls, b.worker_compute_calls)
        << what << " ss=" << s;
    EXPECT_EQ(a.worker_in_bytes, b.worker_in_bytes) << what << " ss=" << s;
  }
}

class RuntimeDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RuntimeDeterminismTest, SsspMatrix) {
  testutil::RandomGraphOptions opt;
  opt.num_vertices = 60;
  opt.num_edges = 220;
  const TemporalGraph g = testutil::MakeRandomGraph(GetParam(), opt);
  for (int workers : {1, 3, 7}) {
    IcmSssp program(g, g.vertex_id(0));
    const auto want =
        IcmEngine<IcmSssp>::Run(g, program, MakeOptions(kModes[0], workers));
    for (const ModeSpec& mode : kModes) {
      IcmSssp p(g, g.vertex_id(0));
      const auto got =
          IcmEngine<IcmSssp>::Run(g, p, MakeOptions(mode, workers));
      ExpectIdentical(want, got, MatrixLabel(mode, workers).c_str());
    }
  }
}

// Always-active path (PageRank preset: gap-fill compute + combiner).
TEST_P(RuntimeDeterminismTest, PageRankMatrix) {
  testutil::RandomGraphOptions opt;
  opt.num_vertices = 40;
  opt.num_edges = 160;
  const TemporalGraph g = testutil::MakeRandomGraph(GetParam(), opt);
  for (int workers : {1, 3, 7}) {
    IcmPageRank program(g);
    const auto want = IcmEngine<IcmPageRank>::Run(
        g, program, PageRankOptions(MakeOptions(kModes[0], workers)));
    for (const ModeSpec& mode : kModes) {
      IcmPageRank p(g);
      const auto got = IcmEngine<IcmPageRank>::Run(
          g, p, PageRankOptions(MakeOptions(mode, workers)));
      ExpectIdentical(want, got, MatrixLabel(mode, workers).c_str());
    }
  }
}

// Suppression path: unit-lifespan-dominated inboxes bypass the warp; the
// suppressed-vertex count itself must also be mode-invariant.
TEST_P(RuntimeDeterminismTest, SuppressionMatrix) {
  testutil::RandomGraphOptions opt;
  opt.num_vertices = 40;
  opt.num_edges = 160;
  opt.unit_lifespan_prob = 0.95;
  opt.full_lifespan_prob = 0.2;
  const TemporalGraph g = testutil::MakeRandomGraph(GetParam() + 17, opt);
  for (int workers : {1, 3, 7}) {
    IcmSssp program(g, g.vertex_id(0));
    IcmOptions base = MakeOptions(kModes[0], workers);
    base.suppression_threshold = 0.3;
    const auto want = IcmEngine<IcmSssp>::Run(g, program, base);
    EXPECT_GE(want.suppressed_vertices, 0);
    for (const ModeSpec& mode : kModes) {
      IcmSssp p(g, g.vertex_id(0));
      IcmOptions options = MakeOptions(mode, workers);
      options.suppression_threshold = 0.3;
      const auto got = IcmEngine<IcmSssp>::Run(g, p, options);
      ExpectIdentical(want, got, MatrixLabel(mode, workers).c_str());
    }
  }
}

// --- Frontier axis (frontier-driven supersteps): density 0 forces the
// dense activation scan everywhere, a huge density keeps every worker on
// the sorted-frontier path, and the 0.5 default mixes the two as mailed
// sets grow and shrink. All three must be byte-identical across the full
// scheduling x worker matrix — the frontier visits exactly the units the
// dense scan finds active, in the same unit order, so wire rows and
// results cannot differ. frontier_units (mailed-unit totals) is
// also density-invariant; frontier_dense_workers intentionally is NOT
// compared across densities (it is what the knob changes). ---
TEST_P(RuntimeDeterminismTest, FrontierVsDenseMatrix) {
  testutil::RandomGraphOptions opt;
  opt.num_vertices = 60;
  opt.num_edges = 220;
  const TemporalGraph g = testutil::MakeRandomGraph(GetParam() + 3, opt);
  const double kDensities[] = {0.0, 0.5, 1e9};
  for (int workers : {1, 3, 7}) {
    IcmSssp program(g, g.vertex_id(0));
    IcmOptions base = MakeOptions(kModes[0], workers);
    base.runtime.frontier_density = 0.0;  // pure dense-scan reference
    const auto want = IcmEngine<IcmSssp>::Run(g, program, base);
    for (const ModeSpec& mode : kModes) {
      for (const double density : kDensities) {
        IcmSssp p(g, g.vertex_id(0));
        IcmOptions options = MakeOptions(mode, workers);
        options.runtime.frontier_density = density;
        const auto got = IcmEngine<IcmSssp>::Run(g, p, options);
        const std::string label = MatrixLabel(mode, workers) +
                                  " d=" + std::to_string(density);
        ExpectIdentical(want, got, label.c_str());
        ASSERT_EQ(want.metrics.per_superstep.size(),
                  got.metrics.per_superstep.size());
        for (size_t s = 0; s < want.metrics.per_superstep.size(); ++s) {
          EXPECT_EQ(want.metrics.per_superstep[s].frontier_units,
                    got.metrics.per_superstep[s].frontier_units)
              << label << " ss=" << s;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeDeterminismTest,
                         ::testing::Values(7, 1234, 987654));

// The runtime and delivery plane are shared by all four engines; every
// platform's stealing mode must reproduce its
// own sequential results and message counts exactly (TI algorithms on
// MSB/Chlonos, TD on TGB/GoFFish).
TEST(RuntimeDeterminismCrossEngine, AllPlatformsMatchSequential) {
  testutil::RandomGraphOptions opt;
  opt.full_lifespan_prob = 0.6;
  Workload w(testutil::MakeRandomGraph(5, opt));
  RunConfig seq;
  seq.num_workers = 3;
  seq.use_threads = false;
  seq.chlonos_batch_size = 5;
  RunConfig par = seq;
  par.use_threads = true;
  par.runtime.num_threads = 8;
  par.runtime.chunk_size = 4;

  const auto check = [&](Platform p, Algorithm a, auto runner,
                         auto absent, const char* what) {
    RunMetrics ms, mp;
    const auto want = runner(w, p, seq, &ms);
    const auto got = runner(w, p, par, &mp);
    for (VertexIdx v = 0; v < w.graph().num_vertices(); ++v) {
      for (TimePoint t = 0; t < w.graph().horizon(); ++t) {
        ASSERT_EQ(ResultAt(want, v, t, absent), ResultAt(got, v, t, absent))
            << what << " v=" << v << " t=" << t;
      }
    }
    EXPECT_EQ(ms.messages, mp.messages) << what;
    EXPECT_EQ(ms.message_bytes, mp.message_bytes) << what;
    EXPECT_EQ(ms.compute_calls, mp.compute_calls) << what;
    (void)a;
  };
  const auto bfs = [](Workload& wl, Platform p, const RunConfig& c,
                      RunMetrics* m) { return RunBfsOn(wl, p, c, m); };
  const auto sssp = [](Workload& wl, Platform p, const RunConfig& c,
                       RunMetrics* m) { return RunSsspOn(wl, p, c, m); };
  check(Platform::kIcm, Algorithm::kBfs, bfs, kInfCost, "bfs/icm");
  check(Platform::kMsb, Algorithm::kBfs, bfs, kInfCost, "bfs/msb");
  check(Platform::kChl, Algorithm::kBfs, bfs, kInfCost, "bfs/chl");
  check(Platform::kIcm, Algorithm::kSssp, sssp, kInfCost, "sssp/icm");
  check(Platform::kTgb, Algorithm::kSssp, sssp, kInfCost, "sssp/tgb");
  check(Platform::kGof, Algorithm::kSssp, sssp, kInfCost, "sssp/gof");
}

// The frontier axis over all four engines: each platform's
// frontier-driven run (huge density — never dense) must reproduce its own
// dense-scan run (density 0) exactly, results and message counts alike,
// under stealing + tiny chunks so frontier slices cross chunk boundaries.
TEST(RuntimeDeterminismCrossEngine, FrontierMatchesDenseAllPlatforms) {
  testutil::RandomGraphOptions opt;
  opt.full_lifespan_prob = 0.6;
  Workload w(testutil::MakeRandomGraph(11, opt));
  RunConfig dense;
  dense.num_workers = 3;
  dense.use_threads = true;
  dense.runtime.num_threads = 4;
  dense.runtime.chunk_size = 2;
  dense.runtime.frontier_density = 0.0;
  dense.chlonos_batch_size = 5;
  RunConfig frontier = dense;
  frontier.runtime.frontier_density = 1e9;

  const auto check = [&](Platform p, auto runner, auto absent,
                         const char* what) {
    RunMetrics md, mf;
    const auto want = runner(w, p, dense, &md);
    const auto got = runner(w, p, frontier, &mf);
    for (VertexIdx v = 0; v < w.graph().num_vertices(); ++v) {
      for (TimePoint t = 0; t < w.graph().horizon(); ++t) {
        ASSERT_EQ(ResultAt(want, v, t, absent), ResultAt(got, v, t, absent))
            << what << " v=" << v << " t=" << t;
      }
    }
    EXPECT_EQ(md.messages, mf.messages) << what;
    EXPECT_EQ(md.message_bytes, mf.message_bytes) << what;
    EXPECT_EQ(md.compute_calls, mf.compute_calls) << what;
    EXPECT_EQ(md.frontier_units, mf.frontier_units) << what;
  };
  const auto bfs = [](Workload& wl, Platform p, const RunConfig& c,
                      RunMetrics* m) { return RunBfsOn(wl, p, c, m); };
  const auto sssp = [](Workload& wl, Platform p, const RunConfig& c,
                       RunMetrics* m) { return RunSsspOn(wl, p, c, m); };
  check(Platform::kIcm, bfs, kInfCost, "frontier/bfs/icm");
  check(Platform::kMsb, bfs, kInfCost, "frontier/bfs/msb");
  check(Platform::kChl, bfs, kInfCost, "frontier/bfs/chl");
  check(Platform::kTgb, sssp, kInfCost, "frontier/sssp/tgb");
  check(Platform::kGof, sssp, kInfCost, "frontier/sssp/gof");
}

// The scoped point-query programs (DESIGN.md §4i) prune by a bound their
// MasterCompute derives from the states at each barrier. The states there
// are mode-independent, so every mode prunes the same sends: states and
// every counter must match sequential at each worker count, with the
// frontier always dense (density 0) or never
// (density 1), and the server fragments built on them must too.
TEST(RuntimeDeterminismScoped, PointQueriesMatchSequential) {
  testutil::RandomGraphOptions opt;
  opt.num_vertices = 60;
  opt.num_edges = 220;
  const TemporalGraph g = testutil::MakeRandomGraph(21, opt);
  const VertexId source = g.vertex_id(0);
  const TimePoint at = g.horizon() / 2;
  // A target the full run reaches late, so the bound prunes something.
  Workload w{TemporalGraph(g)};
  RunConfig full;
  full.source = source;
  const std::vector<int64_t> eat = RunEatOn(w, Platform::kIcm, full);
  VertexIdx tgt = 0;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    if (eat[v] != kInfCost && (eat[tgt] == kInfCost || eat[v] > eat[tgt])) {
      tgt = v;
    }
  }
  const VertexId target = g.vertex_id(tgt);

  const double kDensities[] = {0.0, 1.0};
  for (int workers : {1, 3, 4}) {
    IcmOptions base = MakeOptions(kModes[0], workers);
    base.runtime.frontier_density = 0.0;
    IcmEat eat_ref(g, source, target);
    const auto want_eat = IcmEngine<IcmEat>::Run(g, eat_ref, base);
    IcmReach reach_ref(g, source, target);
    const auto want_reach = IcmEngine<IcmReach>::Run(g, reach_ref, base);
    IcmReach by_ref(g, source, std::nullopt, at);
    const auto want_by = IcmEngine<IcmReach>::Run(g, by_ref, base);
    IcmBfs bfs_ref(source, Interval(at, at + 1));
    const auto want_bfs = IcmEngine<IcmBfs>::Run(g, bfs_ref, base);
    for (const ModeSpec& mode : kModes) {
      for (const double density : kDensities) {
        IcmOptions options = MakeOptions(mode, workers);
        options.runtime.frontier_density = density;
        const std::string label = MatrixLabel(mode, workers) +
                                  " d=" + std::to_string(density);
        IcmEat e(g, source, target);
        ExpectIdentical(want_eat, IcmEngine<IcmEat>::Run(g, e, options),
                        ("eat " + label).c_str());
        IcmReach r(g, source, target);
        ExpectIdentical(want_reach, IcmEngine<IcmReach>::Run(g, r, options),
                        ("reach " + label).c_str());
        IcmReach b(g, source, std::nullopt, at);
        ExpectIdentical(want_by, IcmEngine<IcmReach>::Run(g, b, options),
                        ("reach_at " + label).c_str());
        IcmBfs f(source, Interval(at, at + 1));
        ExpectIdentical(want_bfs, IcmEngine<IcmBfs>::Run(g, f, options),
                        ("bfs_at " + label).c_str());
      }
    }
  }

  // The same runs through the server's renders, stealing against
  // sequential.
  const std::string src = std::to_string(source);
  const std::string lines[] = {
      "{\"op\":\"path\",\"kind\":\"eat\",\"source\":" + src +
          ",\"target\":" + std::to_string(target) + "}",
      "{\"op\":\"path\",\"kind\":\"reach\",\"source\":" + src +
          ",\"target\":" + std::to_string(target) + "}",
      "{\"op\":\"reach_at\",\"source\":" + src +
          ",\"at\":" + std::to_string(at) + "}",
      "{\"op\":\"bfs_at\",\"source\":" + src +
          ",\"at\":" + std::to_string(at) + "}",
  };
  for (const std::string& line : lines) {
    auto req = QueryService::Parse(line);
    ASSERT_TRUE(req.ok());
    for (int workers : {1, 3, 4}) {
      req->workers = workers;
      ServiceOptions seq;
      RunMetrics ms;
      const auto want = QueryService::RenderFragmentWith(*req, w, seq, &ms);
      ASSERT_TRUE(want.ok());
      for (const double density : kDensities) {
        ServiceOptions par;
        par.default_use_threads = true;
        par.runtime.num_threads = 8;
        par.runtime.chunk_size = 4;
        par.runtime.frontier_density = density;
        RunMetrics mp;
        const auto got = QueryService::RenderFragmentWith(*req, w, par, &mp);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*want, *got) << line << " w=" << workers;
        EXPECT_EQ(ms.supersteps, mp.supersteps) << line;
        EXPECT_EQ(ms.compute_calls, mp.compute_calls) << line;
        EXPECT_EQ(ms.scatter_calls, mp.scatter_calls) << line;
        EXPECT_EQ(ms.messages, mp.messages) << line;
        EXPECT_EQ(ms.message_bytes, mp.message_bytes) << line;
      }
    }
  }
}

// Work stealing actually happens under skew: all vertices on one logical
// worker, many threads, tiny chunks.
TEST(RuntimeStealTest, SkewedPartitionReportsSteals) {
  testutil::RandomGraphOptions opt;
  opt.num_vertices = 80;
  opt.num_edges = 320;
  const TemporalGraph g = testutil::MakeRandomGraph(42, opt);
  std::vector<int> partition(g.num_vertices(), 0);  // everything on worker 0
  IcmOptions options;
  options.num_workers = 4;
  options.use_threads = true;
  options.runtime.num_threads = 4;
  options.runtime.chunk_size = 2;
  options.placement = Placement::Explicit(&partition);
  IcmPageRank program(g);
  const auto result =
      IcmEngine<IcmPageRank>::Run(g, program, PageRankOptions(options));

  IcmOptions seq = options;
  seq.use_threads = false;
  IcmPageRank sprog(g);
  const auto sresult =
      IcmEngine<IcmPageRank>::Run(g, sprog, PageRankOptions(seq));
  ExpectIdentical(sresult, result, "skewed-steal");
  // Worker 0's chunks can only run without steals on its single home
  // thread; with 4 threads and 2-vertex chunks, some must be stolen.
  EXPECT_GT(result.metrics.steals, 0);
  EXPECT_EQ(sresult.metrics.steals, 0);
}

}  // namespace
}  // namespace graphite
