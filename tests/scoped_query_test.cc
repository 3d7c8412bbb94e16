// Differential test for the scoped point queries (DESIGN.md §4i): the
// server's `path` eat/reach, `reach_at` and `bfs_at` fragments, which run
// ICM programs scoped to the target or the instant they read, must be
// byte-identical to fragments rendered here from the unscoped full runs
// (RunEatOn, RunRhOn, RunBfsOn). Sources, targets and instants are seeded
// draws over the four e2e catalog graphs and random graphs, plus the
// boundary cases: at = 0, horizon - 1 and past the horizon, a source not
// alive at `at`, target == source, and unreachable targets; `at` also
// takes the last instants of the time domain.
//
// Tier-1 runs a few trials per graph. GRAPHITE_DIFFERENTIAL_TRIALS sets
// the count (tools/ci.sh runs a large one).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/runners.h"
#include "gen/generators.h"
#include "server/query_service.h"
#include "testutil.h"
#include "util/json.h"
#include "util/rng.h"

namespace graphite {
namespace {

int Trials() {
  const char* env = std::getenv("GRAPHITE_DIFFERENTIAL_TRIALS");
  const int n = env != nullptr ? std::atoi(env) : 0;
  return n > 0 ? n : 3;
}

// The server's digest (FNV-1a 64 over the listed ints), restated so the
// reference does not share code with what it checks.
class RefDigest {
 public:
  void MixInt(int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ static_cast<uint8_t>(static_cast<uint64_t>(v) >> (8 * i))) *
           1099511628211ULL;
    }
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

/// The full (unscoped) runs of one source, from which every reference
/// fragment of that source is rendered.
struct FullRuns {
  std::vector<int64_t> eat;
  TemporalResult<uint8_t> reach;
  TemporalResult<int64_t> bfs;
};

FullRuns RunFull(Workload& w, VertexId source) {
  RunConfig config;
  config.source = source;
  return {RunEatOn(w, Platform::kIcm, config),
          RunRhOn(w, Platform::kIcm, config),
          RunBfsOn(w, Platform::kIcm, config)};
}

std::string RefPath(const TemporalGraph& g, const QueryRequest& req,
                    const FullRuns& full) {
  const VertexIdx tgt = *g.IndexOf(req.target);
  JsonWriter out;
  out.BeginObject();
  out.Key("type").String("path");
  out.Key("kind").String(req.kind);
  out.Key("source").Int(req.source);
  out.Key("target").Int(req.target);
  if (req.kind == "eat") {
    const bool ok = full.eat[tgt] != kInfCost;
    out.Key("reachable").Bool(ok);
    if (ok) out.Key("value").Int(full.eat[tgt]);
  } else {
    const auto& entries = full.reach[tgt].entries();
    out.Key("reachable").Bool(!entries.empty());
    out.Key("intervals").BeginArray();
    for (const auto& e : entries) {
      out.BeginArray().Int(e.interval.start).Int(e.interval.end).EndArray();
    }
    out.EndArray();
  }
  out.EndObject();
  return out.Take();
}

// reach_at / bfs_at: the vertices the full run has reached at `at`.
std::string RefAt(const TemporalGraph& g, const QueryRequest& req,
                  const FullRuns& full) {
  const bool bfs = req.op == "bfs_at";
  JsonWriter out;
  out.BeginObject();
  out.Key("type").String(req.op);
  out.Key("source").Int(req.source);
  out.Key("at").Int(req.at);
  RefDigest digest;
  int64_t count = 0;
  int64_t listed = 0;
  bool truncated = false;
  out.Key("vertices").BeginArray();
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    int64_t level = 0;
    if (bfs) {
      level = ResultAt<int64_t>(full.bfs, v, req.at, kInfCost);
      if (level == kInfCost) continue;
    } else if (ResultAt<uint8_t>(full.reach, v, req.at, 0) != 1) {
      continue;
    }
    ++count;
    digest.MixInt(g.vertex_id(v));
    if (bfs) digest.MixInt(level);
    if (req.max_vertices > 0 && listed >= req.max_vertices) {
      truncated = true;
      continue;
    }
    ++listed;
    if (bfs) {
      out.BeginArray().Int(g.vertex_id(v)).Int(level).EndArray();
    } else {
      out.Int(g.vertex_id(v));
    }
  }
  out.EndArray();
  out.Key("count").Int(count);
  if (truncated) out.Key("truncated").Bool(true);
  out.Key("digest").String(digest.Hex());
  out.EndObject();
  return out.Take();
}

class ScopedQueryChecker {
 public:
  ScopedQueryChecker(const TemporalGraph& g, std::string name)
      : w_(TemporalGraph(g)), name_(std::move(name)) {}

  const TemporalGraph& graph() const { return w_.graph(); }

  /// Checks path eat/reach from `source` to `target`.
  void Path(VertexId source, VertexId target) {
    for (const char* kind : {"eat", "reach"}) {
      QueryRequest req;
      req.op = "path";
      req.kind = kind;
      req.source = source;
      req.target = target;
      Check(req, RefPath(graph(), req, Full(source)));
    }
  }

  /// Checks reach_at and bfs_at from `source` at `at`.
  void At(VertexId source, TimePoint at, int64_t max_vertices) {
    for (const char* op : {"reach_at", "bfs_at"}) {
      QueryRequest req;
      req.op = op;
      req.source = source;
      req.at = at;
      req.max_vertices = max_vertices;
      Check(req, RefAt(graph(), req, Full(source)));
    }
  }

  /// The full-run EAT vector of `source` (to pick unreachable targets).
  const std::vector<int64_t>& Eat(VertexId source) {
    return Full(source).eat;
  }

  int checked() const { return checked_; }

 private:
  const FullRuns& Full(VertexId source) {
    if (cached_source_ != source || !full_) {
      full_ = RunFull(w_, source);
      cached_source_ = source;
    }
    return *full_;
  }

  void Check(const QueryRequest& req, const std::string& want) {
    const auto got = QueryService::RenderFragment(req, w_);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ++checked_;
    EXPECT_EQ(*got, want) << name_ << " " << req.op << " " << req.kind
                          << " source=" << req.source
                          << " target=" << req.target << " at=" << req.at;
  }

  Workload w_;
  std::string name_;
  std::optional<FullRuns> full_;
  VertexId cached_source_ = -1;
  int checked_ = 0;
};

// One graph's cases: `trials` seeded (source, target, at) draws, each
// with its boundary variants.
void CheckGraph(const TemporalGraph& g, const std::string& name,
                uint64_t seed, int trials) {
  ScopedQueryChecker checker(g, name);
  Rng rng(seed);
  const auto n = static_cast<uint64_t>(g.num_vertices());
  const TimePoint horizon = g.horizon();
  for (int trial = 0; trial < trials; ++trial) {
    // Mostly sources with out-edges; every fourth trial any vertex.
    VertexIdx s = static_cast<VertexIdx>(rng.Uniform(n));
    for (uint64_t k = 0; k < n && trial % 4 != 3 && g.OutEdges(s).size() == 0;
         ++k) {
      s = static_cast<VertexIdx>((s + 1) % n);
    }
    const VertexId source = g.vertex_id(s);
    const TimePoint drawn = rng.UniformRange(0, horizon);
    for (const TimePoint at : {drawn, TimePoint{0}, horizon - 1, horizon,
                               horizon + 3, kTimeMax - 1, kTimeMax}) {
      checker.At(source, at, trial % 2 == 0 ? 0 : 8);
    }
    // A source not alive at `at`: an instant just outside its lifespan.
    const Interval& life = g.vertex_interval(s);
    if (life.start > 0) checker.At(source, life.start - 1, 0);
    if (life.end < horizon) checker.At(source, life.end, 0);

    checker.Path(source, g.vertex_id(static_cast<VertexIdx>(rng.Uniform(n))));
    checker.Path(source, source);
    // An unreachable target, when the source leaves any.
    const std::vector<int64_t>& eat = checker.Eat(source);
    for (uint64_t k = 0; k < n; ++k) {
      const VertexIdx v = static_cast<VertexIdx>((rng.Uniform(n) + k) % n);
      if (eat[v] == kInfCost) {
        checker.Path(source, g.vertex_id(v));
        break;
      }
    }
    // A reachable one other than the source, when there is one.
    for (uint64_t k = 0; k < n; ++k) {
      const VertexIdx v = static_cast<VertexIdx>((rng.Uniform(n) + k) % n);
      if (v != s && eat[v] != kInfCost) {
        checker.Path(source, g.vertex_id(v));
        break;
      }
    }
  }
  EXPECT_GT(checker.checked(), 0) << name;
}

TEST(ScopedQueryDifferentialTest, CatalogGraphsMatchFullRuns) {
  const int trials = Trials();
  uint64_t seed = 11;
  for (const char* dataset : {"twitter", "mag", "reddit", "usrn"}) {
    const TemporalGraph g = Generate(DatasetByName(dataset, 0.05).options);
    CheckGraph(g, dataset, seed++, trials);
  }
}

TEST(ScopedQueryDifferentialTest, RandomGraphsMatchFullRuns) {
  const int trials = Trials();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    testutil::RandomGraphOptions opt;
    opt.num_vertices = 20 + static_cast<int>(seed) * 6;
    opt.num_edges = opt.num_vertices * 3;
    opt.horizon = 8 + static_cast<TimePoint>(seed);
    opt.full_lifespan_prob = seed % 2 == 0 ? 0.3 : 0.7;
    const TemporalGraph g = testutil::MakeRandomGraph(seed * 101, opt);
    CheckGraph(g, "random/" + std::to_string(seed), seed, trials);
  }
  // The paper's transit network: open-ended lifespans, unreachable F.
  CheckGraph(testutil::MakeTransitGraph(), "transit", 99, trials);
}

}  // namespace
}  // namespace graphite
