// Serving-layer benchmark (DESIGN.md §4i): measures the query service's
// cache miss path (full superstep run + fragment render) against the hit
// path (LRU lookup + envelope assembly, zero supersteps) on two resident
// catalog graphs, plus mixed-request throughput through the bounded job
// scheduler, the windowed pre-filter (the fused TemporalSelect +
// TimeSlice a windowed `run` makes before its engine run) and the derived
// graphs (ReverseGraph, MakeUndirected) on Twitter-like graphs 4x apart,
// and the text-format load (ReadTextGraph, what
// `--preload NAME=@FILE` and the `load` op run) of one catalog graph.
// It also renders 300 seeded uncached `path eat` reads per graph
// in-process and reports their per-read time, engine counters and heap
// allocations. Heap allocations on the hit path, in the pre-filter, in the
// load and per point read are counted exactly via the replaced operator
// new (bench/alloc_counter.h).
//
// Output: a JSON report (default BENCH_server.json in the working
// directory). The committed copy at the repo root is the regression
// baseline: tools/check_bench_regression.py compares the "gated" block of
// a fresh run against it (ctest label `perf`). The >=10x hit/miss speedup
// acceptance, the hit-path, pre-filter, text-load and point-read
// allocation counts,
// and the pre-filter's and derived graphs' allocation growth between the
// two graph sizes are
// deterministic-ish per build and gated unconditionally; raw
// latency/throughput keys are timing
// and enforced only in strict mode (GRAPHITE_PERF_STRICT=1 / --strict)
// with a matching core count.
//
// Usage: bench_server [scale] [out.json]
// The committed baseline uses scale 0.25; regenerate it with:
//     ./bench/bench_server 0.25 && cp BENCH_server.json <repo root>
#define GRAPHITE_ALLOC_COUNTER_IMPL
#include "alloc_counter.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "io/text_format.h"
#include "query/temporal_query.h"
#include "server/server.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/timer.h"

namespace graphite {
namespace bench {
namespace {

// One resident graph served by the benchmark instance.
struct Resident {
  const char* name;     // registry name
  const char* dataset;  // catalog prefix (Server::LoadDataset)
};

constexpr Resident kResidents[] = {
    {"tw", "twitter"},
    {"rd", "reddit"},
};

QueryRequest SsspRequest(const std::string& graph, VertexId source) {
  QueryRequest req;
  req.op = "run";
  req.graph = graph;
  req.alg = "sssp";
  req.platform = "icm";
  req.source = source;
  return req;
}

// The mixed shapes the throughput phase cycles over, per graph. Written
// as protocol lines so the phase exercises the full HandleLine path
// (parse -> admission -> scheduler -> envelope).
std::vector<std::string> MixedLines(const std::string& graph,
                                    VertexId source, int64_t id_base) {
  std::vector<std::string> out;
  int64_t next_id = id_base;
  auto add = [&](const char* op,
                 const std::vector<std::pair<const char*, int64_t>>& ints,
                 const std::vector<std::pair<const char*, const char*>>&
                     strs = {}) {
    JsonWriter w;
    w.BeginObject();
    w.Key("id").Int(next_id++);
    w.Key("op").String(op);
    w.Key("graph").String(graph);
    for (const auto& [k, v] : strs) w.Key(k).String(v);
    for (const auto& [k, v] : ints) w.Key(k).Int(v);
    w.EndObject();
    out.push_back(w.str());
  };
  add("run", {{"source", source}}, {{"alg", "bfs"}});
  add("run", {}, {{"alg", "pr"}});
  add("run", {{"source", source}}, {{"alg", "sssp"}});
  add("path", {{"source", source}, {"target", 0}}, {{"kind", "eat"}});
  add("reach_at", {{"source", source}, {"at", 2}});
  add("stats", {});
  return out;
}

// One pre-filter measurement: the fused select + slice over a graph.
struct PrefilterSample {
  size_t edges = 0;
  double ns = 0;
  double allocs = 0;
};

PrefilterSample MeasurePrefilter(const TemporalGraph& g) {
  const TimePoint t = g.horizon();
  const TemporalPredicate pred =
      TemporalPredicate::Intersects(Interval(t / 4, 3 * t / 4 + 1));
  const Interval window(t / 3, 2 * t / 3 + 1);
  GRAPHITE_CHECK(SelectAndSlice(g, pred, window).num_edges() > 0);  // warmup
  constexpr int kReps = 5;
  const uint64_t a0 = benchalloc::AllocCount();
  const int64_t t0 = NowNanos();
  for (int i = 0; i < kReps; ++i) (void)SelectAndSlice(g, pred, window);
  PrefilterSample s;
  s.edges = g.num_edges();
  s.ns = static_cast<double>(NowNanos() - t0) / kReps;
  s.allocs = static_cast<double>(benchalloc::AllocCount() - a0) / kReps;
  return s;
}

// One derived-graph measurement: the reversed and undirected graphs a
// Workload builds for SCC/LD and WCC (algorithms/common.h).
struct DeriveSample {
  size_t edges = 0;
  double reverse_ns = 0;
  double reverse_allocs = 0;
  double undirected_ns = 0;
  double undirected_allocs = 0;
};

DeriveSample MeasureDerive(const TemporalGraph& g) {
  constexpr int kReps = 5;
  // Mean time and heap allocations of `derive` after one warmup call.
  auto measure = [&g](TemporalGraph (*derive)(const TemporalGraph&),
                      double* ns, double* allocs) {
    GRAPHITE_CHECK(derive(g).num_edges() >= g.num_edges());
    const uint64_t a0 = benchalloc::AllocCount();
    const int64_t t0 = NowNanos();
    for (int i = 0; i < kReps; ++i) (void)derive(g);
    *ns = static_cast<double>(NowNanos() - t0) / kReps;
    *allocs = static_cast<double>(benchalloc::AllocCount() - a0) / kReps;
  };
  DeriveSample s;
  s.edges = g.num_edges();
  measure(ReverseGraph, &s.reverse_ns, &s.reverse_allocs);
  measure(MakeUndirected, &s.undirected_ns, &s.undirected_allocs);
  return s;
}

// One text-format load: ReadTextGraph over a graph's serialized text.
struct TextLoadSample {
  size_t lines = 0;
  size_t bytes = 0;
  double ns = 0;
  double allocs = 0;
};

TextLoadSample MeasureTextLoad(const std::string& text) {
  GRAPHITE_CHECK(ReadTextGraph(text).ok());  // warmup
  constexpr int kReps = 3;
  const uint64_t a0 = benchalloc::AllocCount();
  const int64_t t0 = NowNanos();
  for (int i = 0; i < kReps; ++i) GRAPHITE_CHECK(ReadTextGraph(text).ok());
  TextLoadSample s;
  s.lines = static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
  s.bytes = text.size();
  s.ns = static_cast<double>(NowNanos() - t0) / kReps;
  s.allocs = static_cast<double>(benchalloc::AllocCount() - a0) / kReps;
  return s;
}

// Uncached `path eat` reads rendered in-process: per-read means over
// seeded random (source with out-edges, any target) pairs.
struct PointReadSample {
  int reads = 0;
  double us = 0;           // the whole render: engine run + fragment
  double makespan_us = 0;  // the engine run alone
  double compute_calls = 0;
  double messages = 0;
  double supersteps = 0;
  double allocs = 0;
};

PointReadSample MeasurePointReads(const Workload& w, int reads,
                                  uint64_t seed) {
  const TemporalGraph& g = w.graph();
  std::vector<VertexId> sources;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    if (g.OutEdges(v).size() > 0) sources.push_back(g.vertex_id(v));
  }
  GRAPHITE_CHECK(!sources.empty());
  QueryRequest req;
  req.op = "path";
  req.kind = "eat";
  req.workers = 4;
  req.mode = "sequential";
  Rng rng(seed);
  PointReadSample s;
  s.reads = reads;
  for (int i = 0; i < reads; ++i) {
    req.source = sources[rng.Uniform(sources.size())];
    req.target = g.vertex_id(static_cast<VertexIdx>(
        rng.Uniform(static_cast<uint64_t>(g.num_vertices()))));
    RunMetrics m;
    const uint64_t a0 = benchalloc::AllocCount();
    const int64_t t0 = NowNanos();
    GRAPHITE_CHECK(QueryService::RenderFragment(req, w, &m).ok());
    s.us += static_cast<double>(NowNanos() - t0) / 1e3;
    s.allocs += static_cast<double>(benchalloc::AllocCount() - a0);
    s.makespan_us += static_cast<double>(m.makespan_ns) / 1e3;
    s.compute_calls += static_cast<double>(m.compute_calls);
    s.messages += static_cast<double>(m.messages);
    s.supersteps += static_cast<double>(m.supersteps);
  }
  for (double* x : {&s.us, &s.makespan_us, &s.compute_calls, &s.messages,
                    &s.supersteps, &s.allocs}) {
    *x /= reads;
  }
  return s;
}

void GateEntry(JsonWriter* json, const char* key, double value,
               const char* better, bool timing) {
  json->Key(key).BeginObject();
  json->Key("value").Fixed(value, 3);
  json->Key("better").String(better);
  json->Key("timing").Bool(timing);
  json->EndObject();
}

}  // namespace
}  // namespace bench
}  // namespace graphite

int main(int argc, char** argv) {
  using namespace graphite;
  using namespace graphite::bench;
  const double scale = ResolveScale(argc, argv, 0.25);
  const char* json_path = argc > 2 ? argv[2] : "BENCH_server.json";
  const int threads =
      std::max(1u, std::thread::hardware_concurrency());

  ServerOptions options;
  options.scheduler.num_threads = 4;
  options.scheduler.max_queue = 1024;
  Server server(options);
  for (const Resident& r : kResidents) {
    const Status s = server.LoadDataset(r.name, r.dataset, scale);
    if (!s.ok()) {
      std::fprintf(stderr, "error: load %s: %s\n", r.dataset,
                   s.ToString().c_str());
      return 1;
    }
  }
  VertexId hubs[std::size(kResidents)];
  for (size_t i = 0; i < std::size(kResidents); ++i) {
    hubs[i] = HubVertex(
        server.registry().Get(kResidents[i].name)->workload.graph());
  }

  // ---- Miss path: a representative SSSP run, cache bypassed so every
  // execution renders the fragment from scratch. Mean of 5 after warmup.
  QueryRequest miss_req = SsspRequest(kResidents[0].name, hubs[0]);
  miss_req.use_cache = false;
  ExecStats stats;
  server.service().Execute(miss_req, 0, &stats);  // warmup (derived graphs)
  const int64_t miss_supersteps = stats.supersteps;
  constexpr int kMissReps = 5;
  int64_t t0 = NowNanos();
  for (int i = 0; i < kMissReps; ++i) {
    server.service().Execute(miss_req, 0, &stats);
  }
  const double miss_ns =
      static_cast<double>(NowNanos() - t0) / kMissReps;

  // ---- Hit path: same request with caching on; first call fills, the
  // measured calls are pure LRU lookup + envelope assembly.
  QueryRequest hit_req = SsspRequest(kResidents[0].name, hubs[0]);
  server.service().Execute(hit_req, 0, &stats);  // fill
  server.service().Execute(hit_req, 0, &stats);  // warm the hit path
  GRAPHITE_CHECK(stats.cached);
  GRAPHITE_CHECK(stats.supersteps == 0);
  constexpr int kHitReps = 512;
  const uint64_t a0 = benchalloc::AllocCount();
  t0 = NowNanos();
  for (int i = 0; i < kHitReps; ++i) {
    server.service().Execute(hit_req, 0, &stats);
  }
  const double hit_ns = static_cast<double>(NowNanos() - t0) / kHitReps;
  const double hit_allocs =
      static_cast<double>(benchalloc::AllocCount() - a0) / kHitReps;
  const double speedup = hit_ns > 0 ? miss_ns / hit_ns : 0.0;

  // ---- Throughput: mixed request shapes over both graphs through the
  // full protocol path (parse, admission, the FIFO job queue, cache
  // fast path on repeats), 4 scheduler workers.
  server.cache().Clear();  // contents only; counters survive by design
  const ResultCacheStats cache_before = server.cache().stats();
  std::vector<std::string> lines;
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t g = 0; g < std::size(kResidents); ++g) {
      for (std::string& l : MixedLines(kResidents[g].name, hubs[g],
                                       1000 * round + 100 * g)) {
        lines.push_back(std::move(l));
      }
    }
  }
  std::atomic<int64_t> responded{0};
  std::atomic<int64_t> failed{0};
  t0 = NowNanos();
  for (const std::string& line : lines) {
    server.HandleLine(line, [&](std::string response) {
      responded.fetch_add(1, std::memory_order_relaxed);
      if (response.find("\"ok\": true") == std::string::npos) {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  server.scheduler().Drain();
  const double mixed_wall_ms = Ms(NowNanos() - t0);
  const double rps = mixed_wall_ms > 0
                         ? 1000.0 * static_cast<double>(lines.size()) /
                               mixed_wall_ms
                         : 0.0;
  if (responded.load() != static_cast<int64_t>(lines.size()) ||
      failed.load() != 0) {
    std::fprintf(stderr, "error: %lld/%zu responses, %lld failures\n",
                 static_cast<long long>(responded.load()), lines.size(),
                 static_cast<long long>(failed.load()));
    return 1;
  }
  const ResultCacheStats cache_stats = server.cache().stats();
  const SchedulerStats sched_stats = server.scheduler().stats();
  const int64_t mixed_hits = cache_stats.hits - cache_before.hits;
  const int64_t mixed_lookups = mixed_hits + cache_stats.misses -
                                cache_before.misses;
  const double hit_rate =
      mixed_lookups > 0
          ? static_cast<double>(mixed_hits) /
                static_cast<double>(mixed_lookups)
          : 0.0;

  // ---- Pre-filter: allocations must not grow with the graph.
  PrefilterSample prefilter[2];
  for (int i = 0; i < 2; ++i) {
    prefilter[i] = MeasurePrefilter(
        Generate(DatasetByName("twitter", scale * (i == 0 ? 1 : 4)).options));
  }
  const double prefilter_alloc_growth =
      prefilter[0].allocs > 0 ? prefilter[1].allocs / prefilter[0].allocs
                              : 0.0;
  for (const PrefilterSample& p : prefilter) {
    std::printf("  pre-filter (select + slice, %zu edges): %.1f us, %.0f "
                "allocs\n",
                p.edges, p.ns / 1e3, p.allocs);
  }

  // ---- Derived graphs: built by array passes, so their allocations must
  // not grow with the graph either. Same two graphs as the pre-filter.
  DeriveSample derive[2];
  for (int i = 0; i < 2; ++i) {
    derive[i] = MeasureDerive(
        Generate(DatasetByName("twitter", scale * (i == 0 ? 1 : 4)).options));
  }
  const double derive_alloc_growth =
      std::max(derive[1].reverse_allocs / derive[0].reverse_allocs,
               derive[1].undirected_allocs / derive[0].undirected_allocs);
  for (const DeriveSample& d : derive) {
    std::printf("  derive (%zu edges): reverse %.2f ms, %.0f allocs; "
                "undirected %.2f ms, %.0f allocs\n",
                d.edges, d.reverse_ns / 1e6, d.reverse_allocs,
                d.undirected_ns / 1e6, d.undirected_allocs);
  }

  // ---- Text load: what a server's `--preload NAME=@FILE` runs per graph.
  const TextLoadSample text_load = MeasureTextLoad(
      WriteTextGraph(Generate(DatasetByName("twitter", scale).options)));
  const double load_ns_per_line =
      text_load.ns / static_cast<double>(text_load.lines);
  const double load_mb_per_s =
      1e3 * static_cast<double>(text_load.bytes) / text_load.ns;
  const double load_allocs_per_kline =
      1e3 * text_load.allocs / static_cast<double>(text_load.lines);
  std::printf("  text load (twitter, %zu lines, %.1f MB): %.1f ms, %.0f "
              "ns/line, %.0f MB/s, %.0f allocs/kline\n",
              text_load.lines, static_cast<double>(text_load.bytes) / 1e6,
              text_load.ns / 1e6, load_ns_per_line, load_mb_per_s,
              load_allocs_per_kline);

  // ---- Point reads: what one uncached serve-cold `path eat` costs, per
  // layer (engine run vs render) and in model counters. A source-rooted
  // read should allocate and visit in proportion to what it reaches, not
  // to the graph's vertex count.
  constexpr int kPointReads = 300;
  PointReadSample point[std::size(kResidents)];
  for (size_t i = 0; i < std::size(kResidents); ++i) {
    const Workload& w = server.registry().Get(kResidents[i].name)->workload;
    point[i] = MeasurePointReads(w, kPointReads, 21 + i);
    std::printf("  path eat (%s, %zu vertices, %d reads): %.1f us (engine "
                "%.1f us), %.0f compute calls, %.0f messages, %.1f "
                "supersteps, %.0f allocs per read\n",
                kResidents[i].name, w.graph().num_vertices(), kPointReads,
                point[i].us, point[i].makespan_us, point[i].compute_calls,
                point[i].messages, point[i].supersteps, point[i].allocs);
  }

  std::printf(
      "Serving bench (scale %.2f, %d cores): miss %.1f us, hit %.2f us "
      "(%.0fx, %.1f allocs/hit), mixed %zu reqs in %.1f ms (%.0f req/s, "
      "hit rate %.0f%%, fastpath %lld)\n",
      scale, threads, miss_ns / 1e3, hit_ns / 1e3, speedup, hit_allocs,
      lines.size(), mixed_wall_ms, rps, 100.0 * hit_rate,
      static_cast<long long>(sched_stats.fastpath_hits));

  JsonWriter json(2);
  json.BeginObject();
  json.Key("bench").String("server");
  json.Key("scale").Fixed(scale, 2);
  json.Key("hardware_concurrency").Int(threads);
  json.Key("scheduler_threads").Int(options.scheduler.num_threads);
  json.Key("resident_graphs").Int(std::size(kResidents));
  json.Key("miss_supersteps").Int(miss_supersteps);
  json.Key("miss_ns").Fixed(miss_ns, 1);
  json.Key("hit_ns").Fixed(hit_ns, 1);
  json.Key("hit_speedup").Fixed(speedup, 2);
  json.Key("hit_allocs_per_request").Fixed(hit_allocs, 1);
  json.Key("mixed_requests").Int(static_cast<int64_t>(lines.size()));
  json.Key("mixed_wall_ms").Fixed(mixed_wall_ms, 3);
  json.Key("mixed_rps").Fixed(rps, 1);
  json.Key("cache_hit_rate").Fixed(hit_rate, 4);
  json.Key("scheduler_fastpath_hits").Int(sched_stats.fastpath_hits);
  json.Key("scheduler_completed").Int(sched_stats.completed);
  json.Key("prefilter").BeginArray();
  for (const PrefilterSample& p : prefilter) {
    json.BeginObject();
    json.Key("edges").Int(static_cast<int64_t>(p.edges));
    json.Key("ns").Fixed(p.ns, 1);
    json.Key("allocs").Fixed(p.allocs, 1);
    json.EndObject();
  }
  json.EndArray();
  json.Key("derive").BeginArray();
  for (const DeriveSample& d : derive) {
    json.BeginObject();
    json.Key("edges").Int(static_cast<int64_t>(d.edges));
    json.Key("reverse_ms").Fixed(d.reverse_ns / 1e6, 3);
    json.Key("reverse_allocs").Fixed(d.reverse_allocs, 1);
    json.Key("undirected_ms").Fixed(d.undirected_ns / 1e6, 3);
    json.Key("undirected_allocs").Fixed(d.undirected_allocs, 1);
    json.EndObject();
  }
  json.EndArray();
  json.Key("text_load").BeginObject();
  json.Key("dataset").String("twitter");
  json.Key("lines").Int(static_cast<int64_t>(text_load.lines));
  json.Key("bytes").Int(static_cast<int64_t>(text_load.bytes));
  json.Key("ns").Fixed(text_load.ns, 1);
  json.Key("ns_per_line").Fixed(load_ns_per_line, 1);
  json.Key("mb_per_s").Fixed(load_mb_per_s, 1);
  json.Key("allocs").Fixed(text_load.allocs, 1);
  json.EndObject();
  json.Key("point_reads").BeginArray();
  for (size_t i = 0; i < std::size(kResidents); ++i) {
    const PointReadSample& p = point[i];
    json.BeginObject();
    json.Key("graph").String(kResidents[i].name);
    json.Key("kind").String("eat");
    json.Key("reads").Int(p.reads);
    json.Key("us").Fixed(p.us, 1);
    json.Key("makespan_us").Fixed(p.makespan_us, 1);
    json.Key("compute_calls").Fixed(p.compute_calls, 1);
    json.Key("messages").Fixed(p.messages, 1);
    json.Key("supersteps").Fixed(p.supersteps, 2);
    json.Key("allocs").Fixed(p.allocs, 1);
    json.EndObject();
  }
  json.EndArray();
  json.Key("gated").BeginObject();
  // The serving acceptance: repeated requests answered from cache at
  // least an order of magnitude faster than the cold run. Encoded as a
  // 0/1 flag so the gate is robust to absolute timing noise.
  GateEntry(&json, "server_hit_speedup_ge_10x", speedup >= 10.0 ? 1.0 : 0.0,
            "higher", /*timing=*/false);
  GateEntry(&json, "server_hit_allocs_per_request", hit_allocs, "lower",
            /*timing=*/false);
  GateEntry(&json, "server_prefilter_allocs", prefilter[1].allocs, "lower",
            /*timing=*/false);
  GateEntry(&json, "server_prefilter_alloc_growth", prefilter_alloc_growth,
            "lower", /*timing=*/false);
  // The larger of ReverseGraph's and MakeUndirected's allocation ratios
  // between the 4x graph and the 1x one.
  GateEntry(&json, "server_derive_alloc_growth", derive_alloc_growth, "lower",
            /*timing=*/false);
  GateEntry(&json, "server_text_load_allocs_per_kline", load_allocs_per_kline,
            "lower", /*timing=*/false);
  // Mean heap allocations of one uncached `path eat` read on rd.
  GateEntry(&json, "server_point_query_allocs", point[1].allocs, "lower",
            /*timing=*/false);
  GateEntry(&json, "server_hit_ns", hit_ns, "lower", /*timing=*/true);
  GateEntry(&json, "server_miss_ns", miss_ns, "lower", /*timing=*/true);
  GateEntry(&json, "server_mixed_rps", rps, "higher", /*timing=*/true);
  GateEntry(&json, "server_derive_reverse_ms", derive[1].reverse_ns / 1e6,
            "lower", /*timing=*/true);
  GateEntry(&json, "server_derive_undirected_ms",
            derive[1].undirected_ns / 1e6, "lower", /*timing=*/true);
  json.EndObject();
  json.EndObject();

  std::ofstream out(json_path);
  out << json.str() << '\n';
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(stderr, "[json] wrote %s\n", json_path);
  return 0;
}
