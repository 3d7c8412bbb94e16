#include "requests.h"

#include <algorithm>
#include <set>

#include "gen/generators.h"
#include "io/text_format.h"
#include "query/temporal_query.h"
#include "util/json.h"
#include "util/timer.h"

namespace graphite {
namespace e2e {

namespace {

struct GraphSpec {
  const char* name;
  const char* dataset;
};
constexpr GraphSpec kGraphSpecs[kNumGraphs] = {
    {"tw", "twitter"}, {"mag", "mag"}, {"rd", "reddit"}, {"us", "usrn"}};

// The serving graph mix, rd 40%, us 40%, tw 10%, mag 10%, as ten slots.
// The cheap rd/us traversals are the majority, so serve-cold's median
// falls inside the us point-query population rather than at the edge
// between cost classes.
constexpr int kGraphMix[10] = {kRd, kUs, kTw, kRd, kUs,
                               kMag, kRd, kUs, kUs, kRd};

constexpr int kPointOps = 5;
constexpr int kPointMaxVertices = 32;
constexpr int kNumHubs = 64;

// Full-listing run keys of the hot universe, cycled over its run ranks:
// traversals from high-degree sources, 100-600 KB fragments each.
struct RunTemplate {
  int graph;
  const char* alg;
};
constexpr RunTemplate kRunTemplates[] = {
    {kTw, "bfs"}, {kRd, "sssp"}, {kUs, "sssp"}, {kMag, "rh"},
    {kTw, "sssp"}, {kRd, "bfs"}, {kUs, "bfs"}, {kTw, "rh"}};

// A random non-empty window [a, b) inside [0, horizon).
Interval RandomWindow(Rng& rng, TimePoint horizon) {
  const TimePoint a = rng.UniformRange(0, horizon - 1);
  const TimePoint b = rng.UniformRange(a + 1, horizon + 1);
  return Interval(a, b);
}

VertexId RandomSource(const BenchGraph& g, Rng& rng) {
  return g.sources[rng.Uniform(g.sources.size())];
}

// The point queries both serving workloads draw from; `which` picks the
// op: path eat, path reach, reach_at, bfs_at, windowed stats.
Query PointQuery(const std::vector<BenchGraph>& graphs, int graph, int which,
                 Rng& rng) {
  const BenchGraph& g = graphs[graph];
  const TimePoint horizon = g.graph.horizon();
  Query q;
  q.graph = graph;
  q.max_vertices = kPointMaxVertices;
  switch (which) {
    case 0:
    case 1:
      q.op = "path";
      q.kind = which == 0 ? "eat" : "reach";
      q.source = RandomSource(g, rng);
      q.target = g.graph.vertex_id(
          static_cast<VertexIdx>(rng.Uniform(g.graph.num_vertices())));
      break;
    case 2:
    case 3:
      q.op = which == 2 ? "reach_at" : "bfs_at";
      q.source = RandomSource(g, rng);
      q.at = rng.UniformRange(0, horizon);
      break;
    default:
      q.op = "stats";
      q.window = RandomWindow(rng, horizon);
      break;
  }
  return q;
}

}  // namespace

Result<std::vector<BenchGraph>> MakeGraphs(const std::string& dir) {
  std::vector<BenchGraph> graphs;
  for (const GraphSpec& spec : kGraphSpecs) {
    const DatasetSpec ds = DatasetByName(spec.dataset, 1.0);
    BenchGraph bg;
    bg.name = spec.name;
    bg.path = dir + "/" + spec.name + ".txt";
    GRAPHITE_RETURN_NOT_OK(
        WriteTextGraphFile(Generate(ds.options), bg.path));
    bg.load_start_ns = NowNanos();
    auto copy = ReadTextGraphFile(bg.path);
    bg.load_ns = NowNanos() - bg.load_start_ns;
    GRAPHITE_RETURN_NOT_OK(copy.status());
    bg.graph = std::move(*copy);

    const TemporalGraph& g = bg.graph;
    std::vector<VertexIdx> by_degree;
    for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
      bg.next_vid = std::max(bg.next_vid, g.vertex_id(v) + 1);
      if (g.OutEdges(v).size() == 0) continue;
      bg.sources.push_back(g.vertex_id(v));
      by_degree.push_back(v);
    }
    for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
      bg.next_eid = std::max(bg.next_eid, g.edge(pos).eid + 1);
    }
    if (by_degree.size() < static_cast<size_t>(kNumHubs)) {
      return Status::Internal(bg.name + " has too few non-sink vertices");
    }
    std::stable_sort(by_degree.begin(), by_degree.end(),
                     [&g](VertexIdx a, VertexIdx b) {
                       return g.OutEdges(a).size() > g.OutEdges(b).size();
                     });
    for (int i = 0; i < kNumHubs; ++i) {
      bg.hubs.push_back(g.vertex_id(by_degree[i]));
    }
    graphs.push_back(std::move(bg));
  }
  return graphs;
}

std::string QueryLine(const std::vector<BenchGraph>& graphs, const Query& q,
                      int64_t id, bool want_metrics) {
  JsonWriter w;
  w.BeginObject();
  if (id >= 0) w.Key("id").Int(id);
  w.Key("op").String(q.op);
  w.Key("graph").String(graphs[q.graph].name);
  if (!q.alg.empty()) w.Key("alg").String(q.alg);
  if (!q.platform.empty()) w.Key("platform").String(q.platform);
  if (!q.kind.empty()) w.Key("kind").String(q.kind);
  if (!q.mode.empty()) w.Key("mode").String(q.mode);
  if (q.source >= 0) w.Key("source").Int(q.source);
  if (q.target >= 0) w.Key("target").Int(q.target);
  if (q.at >= 0) w.Key("at").Int(q.at);
  if (q.workers > 0) w.Key("workers").Int(q.workers);
  if (q.max_vertices > 0) w.Key("max_vertices").Int(q.max_vertices);
  if (q.window) {
    w.Key("window").BeginArray().Int(q.window->start).Int(q.window->end);
    w.EndArray();
  }
  if (q.select) {
    w.Key("select").BeginObject();
    w.Key("from").Int(q.select->start).Key("to").Int(q.select->end);
    w.EndObject();
  }
  if (!q.cache) w.Key("cache").Bool(false);
  if (want_metrics) w.Key("metrics").Bool(true);
  w.EndObject();
  return w.Take();
}

std::vector<Query> HotUniverse(const std::vector<BenchGraph>& graphs,
                               Rng& rng) {
  constexpr int kKeys = 800;
  constexpr int kRunTemplatesN =
      static_cast<int>(sizeof(kRunTemplates) / sizeof(kRunTemplates[0]));
  std::vector<Query> keys;
  std::set<std::string> seen;
  for (int rank = 0; rank < kKeys; ++rank) {
    for (;;) {
      Query q;
      if (rank % 10 == 9) {
        const RunTemplate& t = kRunTemplates[(rank / 10) % kRunTemplatesN];
        q.graph = t.graph;
        q.op = "run";
        q.alg = t.alg;
        q.source = graphs[t.graph].hubs[rng.Uniform(kNumHubs)];
      } else {
        const int p = rank - rank / 10;
        q = PointQuery(graphs, kGraphMix[(p / kPointOps) % 10], p % kPointOps,
                       rng);
      }
      if (seen.insert(QueryLine(graphs, q, -1, false)).second) {
        keys.push_back(std::move(q));
        break;
      }
    }
  }
  return keys;
}

int64_t ZipfRank(Rng& rng, int64_t n) {
  return static_cast<int64_t>(rng.Zipf(static_cast<uint64_t>(n), 1.0));
}

Query ColdQuery(const std::vector<BenchGraph>& graphs, int64_t index,
                Rng& rng) {
  // Three windowed runs in every 20 requests, evenly spaced; each kind
  // cycles through the graph mix on its own counter, and point queries
  // also cycle through the traversal ops.
  const int64_t block = index / 20;
  const int64_t slot = index % 20;
  const bool windowed = slot == 0 || slot == 7 || slot == 14;
  if (!windowed) {
    // Traversal point queries only: a windowed stats costs a whole-graph
    // TimeSlice, and its 5-50 ms would sit right at the median.
    const int64_t point =
        block * 17 + slot - (slot > 0) - (slot > 7) - (slot > 14);
    return PointQuery(graphs, kGraphMix[point % 10],
                      static_cast<int>((point / 10) % (kPointOps - 1)), rng);
  }
  const int graph = kGraphMix[(block * 3 + slot / 7) % 10];
  const BenchGraph& g = graphs[graph];
  Query q;
  q.graph = graph;
  q.op = "run";
  q.alg = "sssp";
  q.max_vertices = kPointMaxVertices;
  // The source must survive both pre-filters, or the run answers
  // NotFound: its lifespan has to meet both windows.
  for (;;) {
    q.window = RandomWindow(rng, g.graph.horizon());
    q.select = RandomWindow(rng, g.graph.horizon());
    for (int tries = 0; tries < 64; ++tries) {
      const VertexId s = RandomSource(g, rng);
      const Interval& life = g.graph.vertex_interval(*g.graph.IndexOf(s));
      if (life.Intersects(*q.window) && life.Intersects(*q.select)) {
        q.source = s;
        return q;
      }
    }
  }
}

std::vector<Query> AnalyticsJobs(const std::vector<BenchGraph>& graphs) {
  struct Job {
    int graph;
    const char* alg;
    const char* platform;
  };
  // Every platform appears; us/icm/bfs runs >100 supersteps (the grid's
  // diameter); mag/icm/sssp is the windowed job. The list is odd-sized
  // and its middle jobs (rd/icm/lcc, tw/icm/wcc, rd/icm/scc) cost about
  // the same, so the median job latency does not flip between distant
  // costs from run to run; the two jobs at the 90th percentile do too.
  constexpr Job kJobs[] = {
      {kTw, "sssp", "icm"}, {kTw, "wcc", "icm"},   {kTw, "bfs", "msb"},
      {kMag, "sssp", "icm"}, {kRd, "scc", "icm"},  {kRd, "wcc", "msb"},
      {kRd, "sssp", "tgb"}, {kRd, "sssp", "gof"},  {kRd, "lcc", "icm"},
      {kUs, "bfs", "icm"},  {kUs, "pr", "icm"},    {kUs, "tc", "icm"},
      {kUs, "bfs", "chl"}};
  std::vector<Query> jobs;
  for (const Job& job : kJobs) {
    const BenchGraph& g = graphs[job.graph];
    Query q;
    q.graph = job.graph;
    q.op = "run";
    q.alg = job.alg;
    q.platform = job.platform;
    q.mode = "stealing";
    q.workers = 4;
    q.cache = false;
    const std::string alg = job.alg;
    const bool sourced = alg != "wcc" && alg != "scc" && alg != "pr" &&
                         alg != "lcc" && alg != "tc";
    if (job.graph == kMag && alg == "sssp") {
      const TimePoint h = g.graph.horizon();
      q.window = Interval(h / 4, 3 * h / 4);
    }
    if (sourced) {
      for (VertexId hub : g.hubs) {
        const Interval& life = g.graph.vertex_interval(*g.graph.IndexOf(hub));
        if (!q.window || life.Intersects(*q.window)) {
          q.source = hub;
          break;
        }
      }
    }
    jobs.push_back(std::move(q));
  }
  return jobs;
}

BatchStream::BatchStream(const std::vector<BenchGraph>& graphs,
                         uint64_t seed)
    : graphs_(graphs), made_(graphs.size(), 0) {
  for (size_t g = 0; g < graphs.size(); ++g) {
    rngs_.emplace_back(seed * 31 + g);
    next_vid_.push_back(graphs[g].next_vid);
    next_eid_.push_back(graphs[g].next_eid);
  }
}

int BatchStream::next_graph() const { return total_ % 2 == 0 ? kRd : kUs; }

BatchLine BatchStream::Next(int64_t id) {
  constexpr int kBatchEdges = 50;
  constexpr int kBatchVertices = 10;
  constexpr int kCompactEvery = 5;
  const int graph = next_graph();
  const BenchGraph& g = graphs_[static_cast<size_t>(graph)];
  Rng& rng = rngs_[static_cast<size_t>(graph)];
  const TimePoint horizon = g.graph.horizon();
  EdgeBatch batch;
  for (int i = 0; i < kBatchVertices; ++i) {
    batch.vertices.push_back({next_vid_[graph]++, Interval(0, horizon)});
  }
  auto lifespan = [&](VertexId vid) {
    const auto idx = g.graph.IndexOf(vid);
    return idx ? g.graph.vertex_interval(*idx) : Interval(0, horizon);
  };
  auto endpoint = [&]() {
    return rng.Bernoulli(0.3)
               ? batch.vertices[rng.Uniform(batch.vertices.size())].vid
               : RandomSource(g, rng);
  };
  while (batch.edges.size() < static_cast<size_t>(kBatchEdges)) {
    const VertexId src = endpoint();
    const VertexId dst = endpoint();
    // New edges borrow the lifespan of a random existing edge, so a batch
    // keeps the graph's shape (unit edges on rd, static ones on us).
    const EdgePos model =
        static_cast<EdgePos>(rng.Uniform(g.graph.num_edges()));
    const Interval span = g.graph.ClipToHorizon(g.graph.edge(model).interval)
                              .Intersect(lifespan(src))
                              .Intersect(lifespan(dst));
    if (span.IsEmpty()) continue;
    const EdgeId eid = next_eid_[graph]++;
    batch.edges.push_back({eid, src, dst, span});
    batch.props.push_back({eid, kTravelTimeLabel, span,
                           static_cast<PropValue>(rng.UniformRange(1, 3))});
    batch.props.push_back({eid, kTravelCostLabel, span,
                           static_cast<PropValue>(rng.UniformRange(1, 21))});
  }
  const bool compact = ++made_[graph] % kCompactEvery == 0;
  ++total_;

  JsonWriter w;
  w.BeginObject();
  w.Key("id").Int(id);
  w.Key("op").String("append");
  w.Key("graph").String(g.name);
  w.Key("vertices").BeginArray();
  for (const auto& v : batch.vertices) {
    w.BeginArray().Int(v.vid).Int(v.interval.start).Int(v.interval.end);
    w.EndArray();
  }
  w.EndArray();
  w.Key("edges").BeginArray();
  for (const auto& e : batch.edges) {
    w.BeginArray().Int(e.eid).Int(e.src).Int(e.dst);
    w.Int(e.interval.start).Int(e.interval.end).EndArray();
  }
  w.EndArray();
  w.Key("props").BeginArray();
  for (const auto& p : batch.props) {
    w.BeginArray().Int(p.eid).String(p.label);
    w.Int(p.interval.start).Int(p.interval.end).Int(p.value).EndArray();
  }
  w.EndArray();
  if (compact) w.Key("compact").Bool(true);
  w.EndObject();
  return {graph, w.Take(), compact};
}

std::optional<TemporalGraph> Prefilter(const QueryRequest& req,
                                       const TemporalGraph& g) {
  if (!req.select_window && !req.window) return std::nullopt;
  std::optional<TemporalGraph> stage;
  if (req.select_window) {
    // The bench only sends the default "intersects" predicate.
    stage = TemporalSelect(g, TemporalPredicate::Intersects(*req.select_window));
  }
  if (req.window) stage = TimeSlice(stage ? *stage : g, *req.window);
  return stage;
}

}  // namespace e2e
}  // namespace graphite
