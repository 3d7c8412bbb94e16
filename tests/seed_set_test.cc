// Seed-set edge cases (engine/superstep_driver.h SeedUnits, ICM's
// IcmHasSeedVertex): a source-rooted run's superstep 0 visits only its
// seed vertex, and every result byte stays what the every-vertex
// superstep 0 produced.
//
//   * Server fragments of the boundary queries: bfs_at / reach_at at
//     kTimeMax and just outside the source's lifespan, an LD whose deadline
//     precedes the target's lifespan, plus path and whole-graph run
//     fragments of all seven seeded programs. They must agree at 1, 3 and
//     8 workers, sequential and stealing, and hash to the pinned value,
//     recorded from the every-vertex engine (supersteps and messages are
//     in the hash too).
//   * A seed owned by a worker that owns nothing else, the other vertices
//     on one worker and the rest of the workers empty: states equal the
//     hash-placed run's.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "algorithms/runners.h"
#include "server/query_service.h"
#include "testutil.h"

namespace graphite {
namespace {

// FNV-1a 64 over the bytes of everything rendered.
class Fingerprint {
 public:
  void Mix(const std::string& s) {
    for (const char c : s) {
      h_ = (h_ ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
    }
    h_ = (h_ ^ 0xff) * 1099511628211ULL;  // Separator.
  }
  std::string Hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 14695981039346656037ULL;
};

// Most lifespans are partial, so sources and targets that start late
// exist; the seed test picks them.
TemporalGraph SeedGraph() {
  testutil::RandomGraphOptions opt;
  opt.num_vertices = 36;
  opt.num_edges = 130;
  opt.horizon = 14;
  opt.full_lifespan_prob = 0.25;
  return testutil::MakeRandomGraph(4242, opt);
}

// The highest out-degree vertex whose lifespan starts after 0 and ends
// before the horizon, so instants on both sides of it exist.
VertexIdx LateSource(const TemporalGraph& g) {
  VertexIdx best = 0;
  bool found = false;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    const Interval& life = g.vertex_interval(v);
    if (life.start == 0 || life.end >= g.horizon()) continue;
    if (!found || g.OutEdges(v).size() > g.OutEdges(best).size()) {
      best = v;
      found = true;
    }
  }
  EXPECT_TRUE(found);
  return best;
}

// The highest in-degree vertex (a target most sources reach), and one
// whose lifespan starts after 0 (for a deadline before it).
VertexIdx BusyTarget(const TemporalGraph& g, bool late) {
  VertexIdx best = 0;
  bool found = false;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    if (late && g.vertex_interval(v).start == 0) continue;
    if (!found ||
        g.InEdgePositions(v).size() > g.InEdgePositions(best).size()) {
      best = v;
      found = true;
    }
  }
  EXPECT_TRUE(found);
  return best;
}

std::vector<QueryRequest> EdgeCaseRequests(const TemporalGraph& g) {
  const VertexIdx s = LateSource(g);
  const VertexId source = g.vertex_id(s);
  const Interval life = g.vertex_interval(s);
  const VertexId target = g.vertex_id(BusyTarget(g, false));
  const VertexIdx late = BusyTarget(g, true);
  std::vector<QueryRequest> out;
  // The source's lifespan misses `at`: past every lifespan, just before
  // it, just after it; and one instant inside for contrast.
  for (const TimePoint at :
       {kTimeMax, life.start - 1, life.end, life.start}) {
    for (const char* op : {"bfs_at", "reach_at"}) {
      QueryRequest req;
      req.op = op;
      req.source = source;
      req.at = at;
      out.push_back(req);
    }
  }
  for (const char* kind : {"eat", "reach", "sssp", "fast", "ld"}) {
    QueryRequest req;
    req.op = "path";
    req.kind = kind;
    req.source = source;
    req.target = target;
    out.push_back(req);
  }
  // An LD target whose deadline precedes its lifespan: nothing departs.
  QueryRequest ld;
  ld.op = "path";
  ld.kind = "ld";
  ld.source = source;
  ld.target = g.vertex_id(late);
  ld.deadline = g.vertex_interval(late).start - 1;
  out.push_back(ld);
  for (const char* alg : {"bfs", "sssp", "eat", "fast", "ld", "tmst", "rh"}) {
    QueryRequest req;
    req.op = "run";
    req.alg = alg;
    req.source = source;
    req.target = g.vertex_id(late);
    out.push_back(req);
  }
  return out;
}

// Hash of every edge-case fragment and its supersteps and messages, taken
// from the engine whose superstep 0 visited every vertex.
constexpr const char* kPinnedEdgeCases = "a53afca72cc7fbe4";

TEST(SeedSetTest, EdgeCaseFragmentsMatchEveryVertexSuperstepZero) {
  const Workload w(SeedGraph());
  const std::vector<QueryRequest> requests = EdgeCaseRequests(w.graph());
  std::string first;
  for (const int workers : {1, 3, 8}) {
    for (const char* mode : {"sequential", "stealing"}) {
      Fingerprint fp;
      for (QueryRequest req : requests) {
        req.workers = workers;
        req.mode = mode;
        RunMetrics m;
        const auto got = QueryService::RenderFragment(req, w, &m);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        fp.Mix(*got);
        fp.Mix(std::to_string(m.supersteps) + "/" +
               std::to_string(m.messages));
        // Superstep 0 visits the seed alone: one call over its one Init
        // entry.
        ASSERT_FALSE(m.per_superstep.empty());
        EXPECT_EQ(m.per_superstep[0].compute_calls, 1)
            << req.op << " " << req.kind << req.alg << " at=" << req.at;
      }
      if (first.empty()) first = fp.Hex();
      EXPECT_EQ(fp.Hex(), first) << workers << " " << mode;
    }
  }
  EXPECT_EQ(first, kPinnedEdgeCases);
}

// The seed vertex alone on worker `seed_worker`, every other vertex on
// worker 0; the remaining workers own nothing.
Placement Isolated(const TemporalGraph& g, VertexIdx seed, int seed_worker) {
  std::vector<int> map(g.num_vertices(), 0);
  map[seed] = seed_worker;
  return Placement::Owned(std::move(map));
}

template <typename Program, typename MakeFn>
void ExpectIsolatedSeedMatches(const char* name, const TemporalGraph& g,
                               VertexIdx seed, MakeFn make) {
  Program reference_program = make();
  const auto want =
      IcmEngine<Program>::Run(g, reference_program, IcmOptions{});
  for (const int workers : {3, 8}) {
    for (const bool threads : {false, true}) {
      IcmOptions options;
      options.num_workers = workers;
      options.use_threads = threads;
      options.runtime.num_threads = threads ? 3 : 0;
      options.placement = Isolated(g, seed, workers - 1);
      Program program = make();
      const auto got = IcmEngine<Program>::Run(g, program, options);
      ASSERT_EQ(got.states.size(), want.states.size());
      for (size_t v = 0; v < want.states.size(); ++v) {
        ASSERT_EQ(got.states[v], want.states[v])
            << name << " v=" << v << " workers=" << workers
            << " threads=" << threads;
      }
      EXPECT_EQ(got.metrics.messages, want.metrics.messages) << name;
      EXPECT_EQ(got.metrics.supersteps, want.metrics.supersteps) << name;
      EXPECT_EQ(got.metrics.per_superstep[0].compute_calls, 1) << name;
    }
  }
}

TEST(SeedSetTest, SeedOwnedByAnOtherwiseEmptyWorker) {
  const Workload w(SeedGraph());
  const TemporalGraph& g = w.graph();
  const VertexIdx s = LateSource(g);
  const VertexId source = g.vertex_id(s);
  ExpectIsolatedSeedMatches<IcmBfs>("bfs", g, s,
                                    [&] { return IcmBfs(source); });
  ExpectIsolatedSeedMatches<IcmSssp>("sssp", g, s,
                                     [&] { return IcmSssp(g, source); });
  ExpectIsolatedSeedMatches<IcmEat>("eat", g, s,
                                    [&] { return IcmEat(g, source); });
  ExpectIsolatedSeedMatches<IcmFast>("fast", g, s,
                                     [&] { return IcmFast(g, source); });
  ExpectIsolatedSeedMatches<IcmTmst>("tmst", g, s,
                                     [&] { return IcmTmst(g, source); });
  ExpectIsolatedSeedMatches<IcmReach>("rh", g, s,
                                      [&] { return IcmReach(g, source); });
  const TemporalGraph& reversed = w.reversed();
  const VertexIdx t = BusyTarget(g, false);
  ExpectIsolatedSeedMatches<IcmLatestDeparture>("ld", reversed, t, [&] {
    return IcmLatestDeparture(reversed, g.vertex_id(t), g.horizon());
  });
}

TEST(SeedSetTest, SeedNotInGraphVisitsNothing) {
  // A source id the graph lacks: superstep 0 visits no vertex and the
  // run halts with every state at Init, as the every-vertex run did.
  const TemporalGraph g = SeedGraph();
  IcmEat program(g, /*source=*/999999);
  const auto r = IcmEngine<IcmEat>::Run(g, program, IcmOptions{});
  EXPECT_EQ(r.metrics.supersteps, 1);
  EXPECT_EQ(r.metrics.compute_calls, 0);
  EXPECT_EQ(r.metrics.messages, 0);
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(r.states[v],
              IntervalMap<int64_t>(g.vertex_interval(v), kInfCost));
  }
}

}  // namespace
}  // namespace graphite
