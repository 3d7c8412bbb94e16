#include "server/query_service.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include "query/temporal_query.h"
#include "util/timer.h"

namespace graphite {

namespace {

// ---------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------

/// FNV-1a 64 over the canonical result content; the digest lets clients
/// compare results across requests without shipping full listings.
class Digest {
 public:
  void MixInt(int64_t v) {
    for (int i = 0; i < 8; ++i) {
      Mix(static_cast<uint8_t>(static_cast<uint64_t>(v) >> (8 * i)));
    }
  }
  void MixDouble(double d) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    MixInt(static_cast<int64_t>(bits));
  }
  std::string Hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void Mix(uint8_t b) { h_ = (h_ ^ b) * 1099511628211ULL; }
  uint64_t h_ = 14695981039346656037ULL;
};

Result<RunConfig> BuildConfig(const QueryRequest& req,
                              const ServiceOptions& options) {
  RunConfig c;
  c.num_workers = req.workers > 0 ? req.workers : options.default_workers;
  c.source = req.source;
  c.target = req.target;
  c.deadline = req.deadline;
  c.runtime = options.runtime;
  if (req.mode.empty()) {
    c.use_threads = options.default_use_threads;
  } else if (req.mode == "sequential") {
    c.use_threads = false;
  } else if (req.mode == "stealing") {
    c.use_threads = true;
  } else {
    return Status::InvalidArgument("unknown mode: " + req.mode);
  }
  return c;
}

// ---------------------------------------------------------------------
// Canonical result rendering. Every listing also feeds the digest over
// ALL content (the listing may be capped by max_vertices; the digest
// never is).
// ---------------------------------------------------------------------

/// One capped listing: an array of per-vertex rows under `key`, then the
/// vertex count under `count_key`, "truncated" when the cap left rows
/// out, and the digest. The caller mixes each vertex's values into
/// digest() after Add, in the order it lists them.
class Listing {
 public:
  Listing(JsonWriter* out, const char* key, const char* count_key,
          int64_t max_vertices)
      : out_(out), count_key_(count_key), max_vertices_(max_vertices) {
    out_->Key(key).BeginArray();
  }

  /// Counts vertex `id` and mixes it into the digest; returns the writer
  /// for its row, or null once max_vertices rows are listed.
  JsonWriter* Add(VertexId id) {
    ++count_;
    digest_.MixInt(id);
    return Truncated() ? nullptr : out_;
  }
  Digest& digest() { return digest_; }

  void Close() {
    out_->EndArray();
    out_->Key(count_key_).Int(count_);
    if (Truncated()) out_->Key("truncated").Bool(true);
    out_->Key("digest").String(digest_.Hex());
  }

 private:
  bool Truncated() const {
    return max_vertices_ > 0 && count_ > max_vertices_;
  }

  JsonWriter* out_;
  const char* count_key_;
  int64_t max_vertices_;
  int64_t count_ = 0;
  Digest digest_;
};

/// Per-(vertex, time) results: one [id, [[start, end, value], ...]] row
/// per vertex with entries.
template <typename T>
void EmitTemporal(const TemporalGraph& g, const TemporalResult<T>& result,
                  int64_t max_vertices, JsonWriter* out) {
  Listing list(out, "vertices", "reached", max_vertices);
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    const auto& entries = result[v].entries();
    if (entries.empty()) continue;
    JsonWriter* row = list.Add(g.vertex_id(v));
    for (const auto& e : entries) {
      list.digest().MixInt(e.interval.start);
      list.digest().MixInt(e.interval.end);
      if constexpr (std::is_floating_point_v<T>) {
        list.digest().MixDouble(e.value);
      } else {
        list.digest().MixInt(e.value);
      }
    }
    if (row == nullptr) continue;
    row->BeginArray().Int(g.vertex_id(v)).BeginArray();
    for (const auto& e : entries) {
      row->BeginArray().Int(e.interval.start).Int(e.interval.end);
      if constexpr (std::is_floating_point_v<T>) {
        row->Double(e.value);
      } else {
        row->Int(e.value);
      }
      row->EndArray();
    }
    row->EndArray().EndArray();
  }
  list.Close();
}

/// Scalar per-vertex results (EAT/FAST/LD); `absent` entries are skipped.
void EmitScalar(const TemporalGraph& g, const std::vector<int64_t>& values,
                int64_t absent, int64_t max_vertices, JsonWriter* out) {
  Listing list(out, "values", "reached", max_vertices);
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    if (values[v] == absent) continue;
    JsonWriter* row = list.Add(g.vertex_id(v));
    list.digest().MixInt(values[v]);
    if (row != nullptr) {
      row->BeginArray().Int(g.vertex_id(v)).Int(values[v]).EndArray();
    }
  }
  list.Close();
}

Status RenderRun(const QueryRequest& req, const Workload& w,
                 const ServiceOptions& options, JsonWriter* out,
                 RunMetrics* metrics) {
  auto alg = ParseAlgorithm(req.alg);
  GRAPHITE_RETURN_NOT_OK(alg.status());
  auto platform = ParsePlatform(req.platform);
  GRAPHITE_RETURN_NOT_OK(platform.status());
  const TemporalGraph& g = w.graph();
  GRAPHITE_RETURN_NOT_OK(
      CheckRun(g, *platform, *alg, req.source, req.target));
  auto config = BuildConfig(req, options);
  GRAPHITE_RETURN_NOT_OK(config.status());

  out->Key("type").String("run");
  out->Key("alg").String(AlgorithmName(*alg));
  out->Key("platform").String(PlatformName(*platform));
  const int64_t cap = req.max_vertices;
  switch (*alg) {
    case Algorithm::kBfs:
      EmitTemporal(g, RunBfsOn(w, *platform, *config, metrics), cap, out);
      break;
    case Algorithm::kWcc:
      EmitTemporal(g, RunWccOn(w, *platform, *config, metrics), cap, out);
      break;
    case Algorithm::kScc:
      EmitTemporal(g, RunSccOn(w, *platform, *config, metrics), cap, out);
      break;
    case Algorithm::kPr:
      EmitTemporal(g, RunPrOn(w, *platform, *config, metrics), cap, out);
      break;
    case Algorithm::kSssp:
      EmitTemporal(g, RunSsspOn(w, *platform, *config, metrics), cap, out);
      break;
    case Algorithm::kEat:
      EmitScalar(g, RunEatOn(w, *platform, *config, metrics), kInfCost, cap,
                 out);
      break;
    case Algorithm::kFast:
      EmitScalar(g, RunFastOn(w, *platform, *config, metrics), kInfCost, cap,
                 out);
      break;
    case Algorithm::kLd:
      EmitScalar(g, RunLdOn(w, *platform, *config, metrics), kNegInf, cap,
                 out);
      break;
    case Algorithm::kTmst: {
      const auto tree = RunTmstOn(w, *platform, *config, metrics);
      Listing list(out, "values", "reached", cap);
      for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
        const auto [arrival, parent] = tree[v];
        if (arrival == kInfCost) continue;
        JsonWriter* row = list.Add(g.vertex_id(v));
        list.digest().MixInt(arrival);
        list.digest().MixInt(parent);
        if (row != nullptr) {
          row->BeginArray().Int(g.vertex_id(v)).Int(arrival).Int(parent);
          row->EndArray();
        }
      }
      list.Close();
      break;
    }
    case Algorithm::kRh:
      EmitTemporal(g, RunRhOn(w, *platform, *config, metrics), cap, out);
      break;
    case Algorithm::kLcc:
      EmitTemporal(g, RunLccOn(w, *platform, *config, metrics), cap, out);
      break;
    case Algorithm::kTc:
      EmitTemporal(g, RunTcOn(w, *platform, *config, metrics), cap, out);
      break;
  }
  return Status::OK();
}

Status RenderPath(const QueryRequest& req, const Workload& w,
                  const ServiceOptions& options, JsonWriter* out,
                  RunMetrics* metrics) {
  auto config = BuildConfig(req, options);
  GRAPHITE_RETURN_NOT_OK(config.status());
  const TemporalGraph& g = w.graph();
  GRAPHITE_RETURN_NOT_OK(CheckSource(g, req.source));
  if (req.target < 0) {
    return Status::InvalidArgument("path query requires \"target\"");
  }
  GRAPHITE_RETURN_NOT_OK(CheckTarget(g, req.target));
  const auto tgt = g.IndexOf(req.target);

  out->Key("type").String("path");
  out->Key("kind").String(req.kind);
  out->Key("source").Int(req.source);
  out->Key("target").Int(req.target);

  auto emit_entries = [&](const IntervalMap<int64_t>& m) {
    out->Key("entries").BeginArray();
    for (const auto& e : m.entries()) {
      out->BeginArray().Int(e.interval.start).Int(e.interval.end).Int(
          e.value);
      out->EndArray();
    }
    out->EndArray();
  };

  // eat and reach run ICM scoped to the target (DESIGN.md §4i): the
  // program prunes every send that cannot improve it.
  if (req.kind == "eat") {
    IcmEat program(g, req.source, req.target);
    auto r = IcmEngine<IcmEat>::Run(g, program, config->ToIcm());
    *metrics = std::move(r.metrics);
    int64_t eat = kInfCost;
    for (const auto& e : r.states[*tgt].entries()) eat = std::min(eat, e.value);
    const bool ok = eat != kInfCost;
    out->Key("reachable").Bool(ok);
    if (ok) out->Key("value").Int(eat);
  } else if (req.kind == "sssp") {
    const auto costs = RunSsspOn(w, Platform::kIcm, *config, metrics);
    int64_t best = kInfCost;
    for (const auto& e : costs[*tgt].entries()) {
      best = std::min(best, e.value);
    }
    out->Key("reachable").Bool(best != kInfCost);
    if (best != kInfCost) out->Key("value").Int(best);
    emit_entries(costs[*tgt]);
  } else if (req.kind == "fast") {
    const auto fastest = RunFastOn(w, Platform::kIcm, *config, metrics);
    const bool ok = fastest[*tgt] != kInfCost;
    out->Key("reachable").Bool(ok);
    if (ok) out->Key("value").Int(fastest[*tgt]);
  } else if (req.kind == "ld") {
    // Latest departure FROM `source` that reaches `target` by `deadline`.
    const auto latest = RunLdOn(w, Platform::kIcm, *config, metrics);
    const auto src = g.IndexOf(req.source);
    const bool ok = latest[*src] != kNegInf;
    out->Key("reachable").Bool(ok);
    if (ok) out->Key("value").Int(latest[*src]);
  } else if (req.kind == "reach") {
    IcmReach program(g, req.source, req.target);
    auto r = IcmEngine<IcmReach>::Run(g, program, config->ToIcm());
    *metrics = std::move(r.metrics);
    IntervalMap<uint8_t> reached;
    for (const auto& e : r.states[*tgt].entries()) {
      if (e.value == 1) reached.Set(e.interval, 1);
    }
    reached.Coalesce();
    out->Key("reachable").Bool(!reached.empty());
    out->Key("intervals").BeginArray();
    for (const auto& e : reached.entries()) {
      out->BeginArray().Int(e.interval.start).Int(e.interval.end).EndArray();
    }
    out->EndArray();
  } else {
    return Status::InvalidArgument(
        "unknown path kind: \"" + req.kind +
        "\" (want eat|sssp|fast|ld|reach)");
  }
  return Status::OK();
}

Status RenderReachAt(const QueryRequest& req, const Workload& w,
                     const ServiceOptions& options, JsonWriter* out,
                     RunMetrics* metrics) {
  auto config = BuildConfig(req, options);
  GRAPHITE_RETURN_NOT_OK(config.status());
  const TemporalGraph& g = w.graph();
  GRAPHITE_RETURN_NOT_OK(CheckSource(g, req.source));
  if (req.at < 0) {
    return Status::InvalidArgument("reach_at requires \"at\" >= 0");
  }
  // Scoped to the instant read: no message outlives `at`.
  IcmReach program(g, req.source, std::nullopt, req.at);
  auto reach = IcmEngine<IcmReach>::Run(g, program, config->ToIcm());
  *metrics = std::move(reach.metrics);
  out->Key("type").String("reach_at");
  out->Key("source").Int(req.source);
  out->Key("at").Int(req.at);
  Listing list(out, "vertices", "count", req.max_vertices);
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    if (reach.states[v].Get(req.at) != uint8_t{1}) continue;
    if (JsonWriter* row = list.Add(g.vertex_id(v))) row->Int(g.vertex_id(v));
  }
  list.Close();
  return Status::OK();
}

Status RenderBfsAt(const QueryRequest& req, const Workload& w,
                   const ServiceOptions& options, JsonWriter* out,
                   RunMetrics* metrics) {
  auto config = BuildConfig(req, options);
  GRAPHITE_RETURN_NOT_OK(config.status());
  const TemporalGraph& g = w.graph();
  GRAPHITE_RETURN_NOT_OK(CheckSource(g, req.source));
  if (req.at < 0) {
    return Status::InvalidArgument("bfs_at requires \"at\" >= 0");
  }
  // BFS is time-independent: seeding the source only at `at` computes
  // exactly the levels there and nothing else. (`at` = kTimeMax, outside
  // every half-open lifespan, seeds nothing.)
  IcmBfs program(req.source,
                 Interval(req.at, req.at == kTimeMax ? kTimeMax : req.at + 1));
  auto bfs = IcmEngine<IcmBfs>::Run(g, program, config->ToIcm());
  *metrics = std::move(bfs.metrics);
  out->Key("type").String("bfs_at");
  out->Key("source").Int(req.source);
  out->Key("at").Int(req.at);
  Listing list(out, "vertices", "count", req.max_vertices);
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    const auto level = bfs.states[v].Get(req.at);
    if (!level || *level == kInfCost) continue;  // Not alive, or unreached.
    JsonWriter* row = list.Add(g.vertex_id(v));
    list.digest().MixInt(*level);
    if (row != nullptr) {
      row->BeginArray().Int(g.vertex_id(v)).Int(*level).EndArray();
    }
  }
  list.Close();
  return Status::OK();
}

Status RenderStats(const QueryRequest& req, const Workload& w,
                   JsonWriter* out) {
  const TemporalGraph& g = w.graph();
  out->Key("type").String("stats");
  out->Key("vertices").Int(static_cast<int64_t>(g.num_vertices()));
  out->Key("edges").Int(static_cast<int64_t>(g.num_edges()));
  out->Key("horizon").Int(g.horizon());
  if (!req.label.empty()) {
    const PropertyStats stats =
        AggregateEdgeProperty(g, req.label, Interval(0, g.horizon()));
    out->Key("property").BeginObject();
    out->Key("label").String(req.label);
    out->Key("count").Int(stats.count);
    out->Key("min").Int(stats.min);
    out->Key("max").Int(stats.max);
    out->Key("mean").Double(stats.mean);
    out->EndObject();
  }
  return Status::OK();
}

Status RenderOps(const QueryRequest& req, const Workload& w,
                 const ServiceOptions& options, JsonWriter* out,
                 RunMetrics* metrics) {
  out->BeginObject();
  Status s;
  if (req.op == "run") {
    s = RenderRun(req, w, options, out, metrics);
  } else if (req.op == "path") {
    s = RenderPath(req, w, options, out, metrics);
  } else if (req.op == "reach_at") {
    s = RenderReachAt(req, w, options, out, metrics);
  } else if (req.op == "bfs_at") {
    s = RenderBfsAt(req, w, options, out, metrics);
  } else if (req.op == "stats") {
    s = RenderStats(req, w, out);
  } else {
    s = Status::InvalidArgument("unknown data op: " + req.op);
  }
  if (s.ok()) out->EndObject();
  return s;
}

// Reads integer field `field` from `v`: absent (null) keeps *out; present,
// it must be a number with an exact int64 value, so 3.9, "3" and 2^63 are
// InvalidArgument. AsInt gives 0 for a double outside int64 range, which
// then differs from the double as a truncated fraction does.
Status ReadInt(const JsonValue* v, std::string_view field, int64_t* out) {
  if (v == nullptr) return Status::OK();
  const int64_t i = v->AsInt(0);
  if (!v->is_number() || static_cast<double>(i) != v->AsDouble()) {
    return Status::InvalidArgument("integer expected in \"" +
                                   std::string(field) + "\"");
  }
  *out = i;
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------
// QueryService.
// ---------------------------------------------------------------------

QueryService::QueryService(GraphRegistry* registry, ResultCache* cache,
                           ServiceOptions options)
    : registry_(registry), cache_(cache), options_(options) {}

bool QueryService::IsDataOp(const std::string& op) {
  return op == "run" || op == "path" || op == "reach_at" ||
         op == "bfs_at" || op == "stats";
}

Result<QueryRequest> QueryService::Parse(const std::string& line) {
  auto doc = ParseJson(line);
  GRAPHITE_RETURN_NOT_OK(doc.status());
  if (!doc->is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  const JsonValue* op = doc->Find("op");
  if (op == nullptr || !op->is_string()) {
    return Status::InvalidArgument("request needs a string \"op\"");
  }
  QueryRequest r;
  r.op = op->AsString();
  r.id = doc->GetInt("id", -1);
  r.graph = doc->GetString("graph");
  r.alg = doc->GetString("alg");
  r.platform = doc->GetString("platform", "icm");
  r.kind = doc->GetString("kind");
  r.label = doc->GetString("label");
  int64_t workers = 0;
  for (auto [name, field] :
       {std::pair<const char*, int64_t*>{"source", &r.source},
        {"target", &r.target},
        {"deadline", &r.deadline},
        {"at", &r.at},
        {"workers", &workers},
        {"max_vertices", &r.max_vertices}}) {
    GRAPHITE_RETURN_NOT_OK(ReadInt(doc->Find(name), name, field));
  }
  if (workers < 0 || workers > kMaxRequestWorkers) {
    return Status::InvalidArgument(
        "\"workers\" must be in [0, " + std::to_string(kMaxRequestWorkers) +
        "], got " + std::to_string(workers));
  }
  r.workers = static_cast<int>(workers);
  r.mode = doc->GetString("mode");
  r.use_cache = doc->GetBool("cache", true);
  r.want_metrics = doc->GetBool("metrics", false);
  r.dataset = doc->GetString("dataset");
  r.scale = doc->GetDouble("scale", 1.0);
  r.file = doc->GetString("file");

  if (r.op == "append") {
    // Head-append payload (DESIGN.md §4l): rows are positional arrays; a
    // lifespan end of -1 means open — it extends to the time horizon
    // (kTimeMax; Append derives the new horizon from the batch).
    auto batch = std::make_shared<EdgeBatch>();
    auto row_of_numbers = [](const JsonValue& v, size_t n) {
      if (!v.is_array() || v.items().size() != n) return false;
      for (const JsonValue& x : v.items()) {
        if (!x.is_number()) return false;
      }
      return true;
    };
    // The numeric fields of a shape-checked row, at their row positions.
    int64_t f[5] = {};
    auto read_row = [&f](const JsonValue& row, const char* field) {
      for (size_t k = 0; k < row.items().size(); ++k) {
        if (!row.items()[k].is_number()) continue;
        GRAPHITE_RETURN_NOT_OK(ReadInt(&row.items()[k], field, &f[k]));
      }
      return Status::OK();
    };
    auto lifespan = [](int64_t start, int64_t end) {
      return Interval(start, end < 0 ? kTimeMax : end);
    };
    if (const JsonValue* vs = doc->Find("vertices")) {
      if (!vs->is_array()) {
        return Status::InvalidArgument("\"vertices\" must be an array");
      }
      for (const JsonValue& v : vs->items()) {
        if (!row_of_numbers(v, 3)) {
          return Status::InvalidArgument(
              "append vertex must be [vid, start, end]");
        }
        GRAPHITE_RETURN_NOT_OK(read_row(v, "vertices"));
        batch->vertices.push_back({f[0], lifespan(f[1], f[2])});
      }
    }
    if (const JsonValue* es = doc->Find("edges")) {
      if (!es->is_array()) {
        return Status::InvalidArgument("\"edges\" must be an array");
      }
      for (const JsonValue& e : es->items()) {
        if (!row_of_numbers(e, 5)) {
          return Status::InvalidArgument(
              "append edge must be [eid, src, dst, start, end]");
        }
        GRAPHITE_RETURN_NOT_OK(read_row(e, "edges"));
        batch->edges.push_back({f[0], f[1], f[2], lifespan(f[3], f[4])});
      }
    }
    if (const JsonValue* ps = doc->Find("props")) {
      if (!ps->is_array()) {
        return Status::InvalidArgument("\"props\" must be an array");
      }
      for (const JsonValue& p : ps->items()) {
        const bool shaped =
            p.is_array() && p.items().size() == 5 &&
            p.items()[0].is_number() && p.items()[1].is_string() &&
            p.items()[2].is_number() && p.items()[3].is_number() &&
            p.items()[4].is_number();
        if (!shaped) {
          return Status::InvalidArgument(
              "append prop must be [eid, label, start, end, value]");
        }
        GRAPHITE_RETURN_NOT_OK(read_row(p, "props"));
        batch->props.push_back({f[0], p.items()[1].AsString(),
                                lifespan(f[2], f[3]), f[4]});
      }
    }
    r.batch = std::move(batch);
    r.compact_after = doc->GetBool("compact", false);
  }

  if (const JsonValue* win = doc->Find("window")) {
    if (!win->is_array() || win->items().size() != 2 ||
        !win->items()[0].is_number() || !win->items()[1].is_number()) {
      return Status::InvalidArgument(
          "\"window\" must be [from, to] with numeric bounds");
    }
    int64_t from = 0, to = 0;
    GRAPHITE_RETURN_NOT_OK(ReadInt(&win->items()[0], "window", &from));
    GRAPHITE_RETURN_NOT_OK(ReadInt(&win->items()[1], "window", &to));
    const Interval w(from, to);
    if (!w.IsValid()) {
      return Status::InvalidArgument("empty window " + w.ToString());
    }
    r.window = w;
  }
  if (const JsonValue* sel = doc->Find("select")) {
    if (!sel->is_object()) {
      return Status::InvalidArgument("\"select\" must be an object");
    }
    int64_t from = 0, to = 0;
    GRAPHITE_RETURN_NOT_OK(ReadInt(sel->Find("from"), "select.from", &from));
    GRAPHITE_RETURN_NOT_OK(ReadInt(sel->Find("to"), "select.to", &to));
    const Interval w(from, to);
    if (!w.IsValid()) {
      return Status::InvalidArgument("empty select window " + w.ToString());
    }
    r.select_window = w;
    r.select_pred = sel->GetString("pred", "intersects");
    if (r.select_pred != "intersects" && r.select_pred != "contained_in" &&
        r.select_pred != "contains") {
      return Status::InvalidArgument(
          "unknown select pred: \"" + r.select_pred +
          "\" (want intersects|contained_in|contains)");
    }
  }
  return r;
}

Result<std::string> QueryService::RenderFragment(const QueryRequest& req,
                                                 const Workload& base,
                                                 RunMetrics* metrics) {
  ServiceOptions options;  // static entry point: library defaults
  return RenderFragmentWith(req, base, options, metrics);
}

Result<std::string> QueryService::RenderFragmentWith(
    const QueryRequest& req, const Workload& base,
    const ServiceOptions& options, RunMetrics* metrics) {
  RunMetrics local;
  if (metrics == nullptr) metrics = &local;
  JsonWriter w;
  if (!req.select_window && !req.window) {
    GRAPHITE_RETURN_NOT_OK(RenderOps(req, base, options, &w, metrics));
    return w.Take();
  }
  // The pre-filter writes a request-local graph in one pass
  // (TemporalGraph::Filter); its derived graphs are built, and dropped,
  // with this request's Workload.
  const TemporalGraph& g = base.graph();
  auto select = [&req] {
    const Interval& window = *req.select_window;
    if (req.select_pred == "contained_in") {
      return TemporalPredicate::ContainedIn(window);
    }
    if (req.select_pred == "contains") {
      return TemporalPredicate::Contains(window);
    }
    return TemporalPredicate::Intersects(window);
  };
  Workload filtered(!req.select_window ? TimeSlice(g, *req.window)
                    : req.window ? SelectAndSlice(g, select(), *req.window)
                                 : TemporalSelect(g, select()));
  GRAPHITE_RETURN_NOT_OK(RenderOps(req, filtered, options, &w, metrics));
  return w.Take();
}

std::string QueryService::GraphPrefix(const std::string& graph_name) {
  return graph_name + '\x1f';
}

std::string QueryService::CacheKey(const QueryRequest& req,
                                   const ResidentGraph& g) {
  std::string k = GraphPrefix(g.name);
  k += std::to_string(g.epoch);
  auto add = [&k](const std::string& s) {
    k += '\x1f';
    k += s;
  };
  add(req.op);
  add(req.alg);
  add(req.platform);
  add(req.kind);
  add(req.label);
  add(std::to_string(req.source));
  add(std::to_string(req.target));
  add(std::to_string(req.deadline));
  add(std::to_string(req.at));
  add(std::to_string(req.workers));
  add(std::to_string(req.max_vertices));
  if (req.window) {
    add("w" + std::to_string(req.window->start) + ":" +
        std::to_string(req.window->end));
  } else {
    add("-");
  }
  if (req.select_window) {
    add("s" + req.select_pred + ":" +
        std::to_string(req.select_window->start) + ":" +
        std::to_string(req.select_window->end));
  } else {
    add("-");
  }
  return k;
}

std::string QueryService::ErrorResponse(int64_t id, const std::string& op,
                                        const Status& status) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id").Int(id);
  w.Key("ok").Bool(false);
  if (!op.empty()) w.Key("op").String(op);
  w.Key("error").BeginObject();
  w.Key("code").String(StatusCodeName(status.code()));
  w.Key("message").String(status.message());
  w.EndObject();
  w.EndObject();
  return w.Take();
}

std::string QueryService::Envelope(const QueryRequest& req,
                                   const std::string& fragment,
                                   const ExecStats& stats,
                                   int64_t queue_wait_ns,
                                   const RunMetrics* metrics) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("id").Int(req.id);
  w.Key("ok").Bool(true);
  w.Key("op").String(req.op);
  w.Key("graph").String(req.graph);
  w.Key("cached").Bool(stats.cached);
  w.Key("result").Raw(fragment);
  w.Key("server").BeginObject();
  w.Key("queue_ns").Int(queue_wait_ns);
  w.Key("run_ns").Int(stats.run_ns);
  w.Key("supersteps").Int(stats.supersteps);
  if (metrics != nullptr) {
    w.Key("metrics");
    metrics->AppendJson(&w);
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

Result<std::shared_ptr<ResidentGraph>> QueryService::Resident(
    const QueryRequest& req) const {
  auto entry = registry_->Get(req.graph);
  if (entry == nullptr) {
    return Status::NotFound("graph not resident: \"" + req.graph + "\"");
  }
  return entry;
}

std::optional<std::string> QueryService::TryServeFromCache(
    const QueryRequest& req, ExecStats* stats) {
  auto entry = registry_->Get(req.graph);
  if (entry == nullptr) return std::nullopt;
  return TryServeFromCache(req, *entry, stats);
}

std::optional<std::string> QueryService::TryServeFromCache(
    const QueryRequest& req, const ResidentGraph& entry, ExecStats* stats) {
  if (cache_ == nullptr || !req.use_cache || !IsDataOp(req.op)) {
    return std::nullopt;
  }
  auto hit = cache_->GetIfPresent(CacheKey(req, entry));
  if (!hit) return std::nullopt;
  ExecStats es;
  es.cached = true;
  if (stats != nullptr) *stats = es;
  return Envelope(req, *hit, es, /*queue_wait_ns=*/0, nullptr);
}

std::string QueryService::Execute(const QueryRequest& req,
                                  int64_t queue_wait_ns, ExecStats* stats) {
  auto entry = Resident(req);
  if (!entry.ok()) {
    if (stats != nullptr) *stats = ExecStats{};
    return ErrorResponse(req.id, req.op, entry.status());
  }
  return ExecuteOn(req, **entry, queue_wait_ns, stats);
}

std::string QueryService::ExecuteOn(const QueryRequest& req,
                                    const ResidentGraph& entry,
                                    int64_t queue_wait_ns, ExecStats* stats) {
  ExecStats es;
  if (stats == nullptr) stats = &es;
  *stats = ExecStats{};
  if (!IsDataOp(req.op)) {
    return ErrorResponse(req.id, req.op,
                         Status::InvalidArgument("unknown op: " + req.op));
  }
  const std::string key = CacheKey(req, entry);
  if (cache_ != nullptr && req.use_cache) {
    if (auto hit = cache_->Get(key)) {
      stats->cached = true;
      return Envelope(req, *hit, *stats, queue_wait_ns, nullptr);
    }
  }
  RunMetrics metrics;
  const int64_t t0 = NowNanos();
  auto fragment = RenderFragmentWith(req, entry.workload, options_, &metrics);
  stats->run_ns = NowNanos() - t0;
  if (!fragment.ok()) {
    return ErrorResponse(req.id, req.op, fragment.status());
  }
  stats->supersteps = metrics.supersteps;
  if (cache_ != nullptr && req.use_cache) {
    // Checked under the cache lock: the registry marks an entry
    // superseded before the append/drop that replaced it erases the
    // graph's prefix, so this insert either lands before that erase or
    // is skipped.
    cache_->Put(key, *fragment, &entry.superseded);
  }
  return Envelope(req, *fragment, *stats, queue_wait_ns,
                  req.want_metrics ? &metrics : nullptr);
}

}  // namespace graphite
