// bench_e2e: end-to-end benchmark of graphite_server over loopback TCP.
//
//   bench_e2e --workload NAME --seed N [--seconds S] [--trace FILE]
//             [--git-sha SHA]
//
// Generates the four catalog graphs, spawns the real graphite_server on
// them, drives it from one thread over four connections with the
// workload's traffic drawn from the seed, and checks every
// answer: repeated requests must return byte-identical fragments, and a
// seeded sample of 32 distinct requests is re-rendered in-process with
// QueryService::RenderFragment and compared byte for byte.
//
// Output: one JSON line per metric, a host line, and as the last line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Without --trace the metrics are the end-to-end ones; with --trace the
// run repeats the workload's main phase untraced and then with
// "metrics":true on a fresh server, replays a sample in-process with a
// span around every public call, prints the per-layer metrics, and writes
// the spans to FILE as Chrome trace-event JSON. bench/e2e/README.md is
// the metric dictionary.
//
// Exit status: 0 on success, 1 on a wrong result or an error, 3 when
// requests failed.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "driver.h"
#include "requests.h"
#include "server/graph_registry.h"
#include "server/query_service.h"
#include "server/result_cache.h"
#include "trace.h"
#include "util/json.h"
#include "util/simd.h"
#include "util/stats.h"
#include "util/timer.h"

#ifndef GRAPHITE_BENCH_BUILD_TYPE
#define GRAPHITE_BENCH_BUILD_TYPE "unknown"
#endif
// GRAPHITE_BENCH_SERVER, the path of the graphite_server binary of the
// same build, comes from bench/e2e/CMakeLists.txt.

namespace graphite {
namespace e2e {
namespace {

namespace fs = std::filesystem;

/// Server spawns per set-up group; a measured run times three groups.
constexpr int kSetupGroup = 3;
constexpr size_t kSampleSize = 32;
constexpr double kServerStartTimeoutS = 60;
/// Share of --seconds ingest-mixed spends in its append loop; the rest,
/// and all of --seconds on the other workloads, is the main phase.
constexpr double kAppendLoopShare = 0.25;
/// Synthetic batches the traced in-process replay appends on workloads
/// that send none, so the graph layers are timed on every workload.
constexpr int kReplayBatches = 20;

enum class Shape { kHot, kCold, kIngest, kAnalytics };

struct WorkloadSpec {
  const char* name;
  Shape shape;
  int clients;       ///< Reads outstanding in the main phase.
  double tail_q;     ///< The tail percentile, with >= 10 samples beyond
                     ///< it at the workload's rate.
  double append_hz;  ///< Appends/s beside the reads.
};

/// serve-cold keeps two reads outstanding, not four: with four, point
/// queries wait behind the windowed runs on their graph's lane, and that
/// wait, not the engine, set the median. ingest-mixed appends at 3/s,
/// about 3% of the append loop's rate on the host in results/: each
/// append invalidates its graph's cached fragments, and at 10/s a third
/// of the reads missed, so the median read sat on the hit/miss boundary.
/// Analytics has one client (Driver::Rounds).
constexpr WorkloadSpec kWorkloads[] = {
    {"serve-hot", Shape::kHot, 4, 0.99, 0},
    {"serve-cold", Shape::kCold, 2, 0.9, 0},
    {"ingest-mixed", Shape::kIngest, 4, 0.99, 3},
    {"analytics", Shape::kAnalytics, 1, 0.9, 0},
};

struct Options {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 10;
  std::string trace_path;
  std::string git_sha = "unknown";
};

void Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME --seed N [--seconds S] "
               "[--trace FILE] [--git-sha SHA]\n"
               "  workloads: serve-hot serve-cold ingest-mixed analytics\n");
}

bool ParseOptions(int argc, char** argv, Options* o) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (value == w.name) o->workload = &w;
      }
      if (o->workload == nullptr) return false;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      o->seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      o->trace_path = value;
    } else if (arg == "--git-sha") {
      o->git_sha = value;
    } else {
      return false;
    }
  }
  return o->workload != nullptr && have_seed && o->seconds > 0;
}

/// A scratch directory for the generated graph files, removed on exit.
class ScratchDir {
 public:
  explicit ScratchDir(const fs::path& parent) {
    std::string tmpl = (parent / "e2e-XXXXXX").string();
    if (::mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!path_.empty()) fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Everything the workload's traffic is drawn from.
struct Inputs {
  const WorkloadSpec& spec;
  std::vector<BenchGraph> graphs;
  std::vector<Query> universe;  ///< serve-hot / ingest-mixed keys.
  std::vector<Query> jobs;      ///< analytics job list.
  uint64_t seed;
  std::vector<std::string> server_argv;
};

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

// ---------------------------------------------------------------------
// Running the workload against one server.
// ---------------------------------------------------------------------

/// Runs the workload's phases: warm-up (hot universe), the main phase
/// (closed loop, or analytics rounds) of `main_s` seconds, `between` when
/// set, and ingest-mixed's append loop of `append_s` seconds when
/// positive. With `counters`, the server's `metrics` op is read around
/// the main phase.
Status Drive(const Inputs& in, double main_s, double append_s, Driver* d,
             JsonValue* counters_before, JsonValue* counters_after,
             const std::function<Status()>& between = nullptr) {
  const WorkloadSpec& spec = in.spec;
  Rng stream(in.seed ^ 0x73747265616dULL);
  std::set<std::string> sent;
  int64_t cold_index = 0;
  Driver::NextQuery next = [&]() -> Query {
    if (spec.shape != Shape::kCold) {
      return in.universe[static_cast<size_t>(
          ZipfRank(stream, static_cast<int64_t>(in.universe.size())))];
    }
    for (;;) {  // serve-cold: every key is new.
      Query q = ColdQuery(in.graphs, cold_index, stream);
      if (sent.insert(QueryLine(in.graphs, q, -1, false)).second) {
        ++cold_index;
        return q;
      }
    }
  };
  if (spec.shape == Shape::kHot || spec.shape == Shape::kIngest) {
    const int64_t t0 = NowNanos();
    GRAPHITE_RETURN_NOT_OK(d->Warm(in.universe));
    std::fprintf(stderr, "[%s] warmed %zu keys in %.2f s\n", spec.name,
                 in.universe.size(), static_cast<double>(NowNanos() - t0) / 1e9);
  }
  if (counters_before != nullptr) {
    auto c = d->Control("metrics");
    GRAPHITE_RETURN_NOT_OK(c.status());
    *counters_before = std::move(*c);
  }
  if (spec.shape == Shape::kAnalytics) {
    GRAPHITE_RETURN_NOT_OK(d->Rounds(main_s, in.jobs));
  } else {
    GRAPHITE_RETURN_NOT_OK(
        d->ClosedLoop(main_s, spec.clients, next, spec.append_hz));
  }
  if (counters_after != nullptr) {
    auto c = d->Control("metrics");
    GRAPHITE_RETURN_NOT_OK(c.status());
    *counters_after = std::move(*c);
  }
  if (between) GRAPHITE_RETURN_NOT_OK(between());
  // Write capacity: appends back to back. Each holds the registry mutex
  // for its copy, so their rate is the write path's throughput.
  if (append_s > 0) GRAPHITE_RETURN_NOT_OK(d->AppendLoop(append_s));
  return Status::OK();
}

// ---------------------------------------------------------------------
// In-process replay: correctness re-render, and per-call layer timings.
// ---------------------------------------------------------------------

/// Per-call durations (ns) of the traced in-process replay.
struct LayerTimes {
  std::vector<double> parse, cache_serve, prefilter, render, makespan;
  std::vector<double> registry_append, graph_append, compact;
  double delta_fraction = 0;
};

template <typename F>
int64_t Timed(Tracer* tracer, const char* name, F&& f) {
  if (tracer != nullptr) return tracer->Time(name, f);
  f();
  return 0;
}

/// Re-renders every sample in-process against the graph state it was
/// answered at (applying `batches` in order through a GraphRegistry) and
/// counts byte mismatches. With `tracer`, also times each layer's public
/// call; `fill_cache` mirrors a workload whose samples were cache hits.
Status Replay(const std::vector<BenchGraph>& graphs,
              std::vector<Sample> samples,
              const std::vector<BatchLine>& batches, bool fill_cache,
              Tracer* tracer, LayerTimes* t, int64_t* mismatches) {
  GraphRegistry registry;
  for (const BenchGraph& g : graphs) registry.Add(g.name, g.graph);
  ResultCache cache(1024, 64ull << 20);  // The server's default bounds.
  QueryService service(&registry, &cache);

  std::vector<std::vector<const BatchLine*>> per_graph(graphs.size());
  for (const BatchLine& b : batches) per_graph[b.graph].push_back(&b);
  std::vector<size_t> applied(graphs.size(), 0);
  std::vector<std::optional<TemporalGraph>> mirror(graphs.size());
  auto apply = [&](size_t g) -> Status {
    const BatchLine& b = *per_graph[g][applied[g]++];
    auto req = QueryService::Parse(b.line);
    GRAPHITE_RETURN_NOT_OK(req.status());
    Status s;
    const int64_t ns = Timed(tracer, "graph_registry.Append", [&] {
      s = registry.Append(graphs[g].name, *req->batch, b.compact).status();
    });
    GRAPHITE_RETURN_NOT_OK(s);
    if (tracer == nullptr) return Status::OK();
    t->registry_append.push_back(static_cast<double>(ns));
    if (!mirror[g]) mirror[g] = graphs[g].graph;
    t->graph_append.push_back(static_cast<double>(tracer->Time(
        "graph.Append", [&] { s = mirror[g]->Append(*req->batch); })));
    GRAPHITE_RETURN_NOT_OK(s);
    if (b.compact) {
      t->compact.push_back(static_cast<double>(
          tracer->Time("graph.Compact", [&] { mirror[g]->Compact(); })));
    }
    return Status::OK();
  };

  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return std::tie(a.graph, a.pin) < std::tie(b.graph, b.pin);
            });
  for (const Sample& s : samples) {
    const size_t g = static_cast<size_t>(s.graph);
    while (applied[g] < static_cast<size_t>(s.pin)) {
      GRAPHITE_RETURN_NOT_OK(apply(g));
    }
    std::optional<Result<QueryRequest>> parsed;
    const int64_t parse_ns = Timed(tracer, "server.Parse", [&] {
      parsed.emplace(QueryService::Parse(s.key));
    });
    GRAPHITE_RETURN_NOT_OK(parsed->status());
    const QueryRequest& req = **parsed;
    auto entry = registry.Get(graphs[g].name);
    auto expect = QueryService::RenderFragment(req, entry->workload);
    if (!expect.ok() || *expect != s.fragment) {
      ++*mismatches;
      std::fprintf(stderr, "mismatch: %s (wire %zu bytes, in-process %s)\n",
                   s.key.c_str(), s.fragment.size(),
                   expect.ok() ? std::to_string(expect->size()).c_str()
                               : expect.status().ToString().c_str());
      continue;
    }
    if (tracer == nullptr) continue;

    t->parse.push_back(static_cast<double>(parse_ns));
    int64_t prefilter_ns = 0;
    if (req.window || req.select_window) {
      prefilter_ns = tracer->Time("query.TemporalSelect+TimeSlice", [&] {
        (void)Prefilter(req, entry->workload.graph());
      });
      t->prefilter.push_back(static_cast<double>(prefilter_ns));
    }
    // RenderFragmentWith pre-filters, runs the engine, and renders; its
    // RunMetrics give the engine's part, and the rest less the pre-filter
    // is the render.
    RunMetrics m;
    const int64_t rfw_ns =
        tracer->Time("query_service.RenderFragmentWith", [&] {
          (void)QueryService::RenderFragmentWith(req, entry->workload,
                                                 ServiceOptions{}, &m);
        });
    t->render.push_back(
        static_cast<double>(rfw_ns - m.makespan_ns - prefilter_ns));
    if (req.op != "stats") {
      const int rfw = static_cast<int>(tracer->spans().size()) - 1;
      tracer->Add("engine.run", tracer->spans()[rfw].start_ns + prefilter_ns,
                  m.makespan_ns, -1, rfw, 0);
      t->makespan.push_back(static_cast<double>(m.makespan_ns));
    }
    if (fill_cache && req.use_cache) {
      cache.Put(QueryService::CacheKey(req, *entry), *expect);
    }
    t->cache_serve.push_back(static_cast<double>(
        tracer->Time("server.TryServeFromCache",
                     [&] { (void)service.TryServeFromCache(req); })));
  }
  if (tracer == nullptr) return Status::OK();
  // The batches after the last sample only feed the graph-layer timings.
  for (size_t g = 0; g < graphs.size(); ++g) {
    while (applied[g] < per_graph[g].size()) GRAPHITE_RETURN_NOT_OK(apply(g));
  }
  double delta = 0, edges = 0;
  for (const auto& m : mirror) {
    if (!m) continue;
    delta += static_cast<double>(m->num_delta_edges());
    edges += static_cast<double>(m->num_edges());
  }
  if (edges > 0) t->delta_fraction = delta / edges;
  return Status::OK();
}

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
  int64_t samples;
};

/// Attempted and failed requests (reads and appends) sent through `d`; the
/// failures are described on stderr.
void Count(const Driver& d, int64_t* attempted, int64_t* failed) {
  int64_t d_failed = 0;
  for (const Record& r : d.records()) {
    if (r.kind == Record::Kind::kControl) continue;
    ++*attempted;
    if (!r.ok) ++d_failed;
  }
  *failed += d_failed;
  if (d_failed > 0) {
    std::fprintf(stderr,
                 "failed: %lld requests (%lld without a reply in time, %lld "
                 "wrong results); first error reply: %s\n",
                 static_cast<long long>(d_failed),
                 static_cast<long long>(d.timeouts()),
                 static_cast<long long>(d.wrong()), d.first_error().c_str());
  }
}

/// Client latencies (ns) of the main phase's reads, from the moment each
/// was due (its slot freed), failures as +inf.
std::vector<double> MainLatencies(const Driver& d) {
  std::vector<double> out;
  for (const Record& r : d.records()) {
    if (r.kind != Record::Kind::kRead || r.phase != Phase::kMain) continue;
    out.push_back(r.ok ? static_cast<double>(r.recv_ns - r.due_ns)
                       : std::numeric_limits<double>::infinity());
  }
  return out;
}

/// Generator lateness (ns): send time minus due time, the client's own
/// delay in refilling a freed slot.
std::vector<double> Lateness(const Driver& d) {
  std::vector<double> out;
  for (const Record& r : d.records()) {
    if (r.kind == Record::Kind::kRead && r.phase == Phase::kMain) {
      out.push_back(static_cast<double>(r.sent_ns - r.due_ns));
    }
  }
  return out;
}

std::vector<Metric> EndToEndMetrics(const WorkloadSpec& spec,
                                    const std::vector<double>& setup_ns,
                                    const Driver& d, int64_t peak_rss_kb) {
  std::vector<Metric> out;
  const int64_t n_setup = static_cast<int64_t>(setup_ns.size());
  out.push_back({"setup_s", "s", Median(setup_ns) / 1e9, n_setup});
  std::vector<double> lat = MainLatencies(d);
  const int64_t n = static_cast<int64_t>(lat.size());
  out.push_back({"p50_ms", "ms", Quantile(lat, 0.5) / 1e6, n});
  out.push_back({"tail_ms", "ms", Quantile(lat, spec.tail_q) / 1e6, n});
  // Completions of the main phase's reads, or of ingest-mixed's append
  // loop, which sends appends only.
  const bool writes = spec.shape == Shape::kIngest;
  const Phase cap_phase = writes ? Phase::kAppendLoop : Phase::kMain;
  const Record::Kind cap_kind =
      writes ? Record::Kind::kAppend : Record::Kind::kRead;
  int64_t completions = 0;
  const int64_t start_ns = d.phase_start(cap_phase);
  int64_t last_ns = start_ns;
  std::vector<double> append_ns;
  for (const Record& r : d.records()) {
    if (r.kind == cap_kind && r.phase == cap_phase && r.ok) {
      ++completions;
      last_ns = std::max(last_ns, r.recv_ns);
    }
    if (r.kind == Record::Kind::kAppend && r.phase == Phase::kMain) {
      append_ns.push_back(r.ok ? static_cast<double>(r.recv_ns - r.due_ns)
                               : std::numeric_limits<double>::infinity());
    }
  }
  // Over the time the completions took: from the phase's start to the
  // last reply counted.
  out.push_back({"capacity_rps", "req/s",
                 static_cast<double>(completions) * 1e9 /
                     static_cast<double>(last_ns - start_ns),
                 completions});
  out.push_back({"peak_rss_mb", "MiB",
                 static_cast<double>(peak_rss_kb) / 1024.0, 1});
  if (!append_ns.empty()) {
    // Acknowledgement latency of the appends beside the reads; printed
    // for ingest-mixed only, so not in the result, whose metrics every
    // workload reports.
    const int64_t na = static_cast<int64_t>(append_ns.size());
    out.push_back({"append_p50_ms", "ms", Quantile(append_ns, 0.5) / 1e6, na});
    out.push_back({"append_p95_ms", "ms", Quantile(append_ns, 0.95) / 1e6, na});
  }
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int64_t CounterDelta(const JsonValue& before, const JsonValue& after,
                     const char* group, const char* key) {
  const JsonValue* a = after.Find(group);
  const JsonValue* b = before.Find(group);
  if (a == nullptr || b == nullptr) return 0;
  return a->GetInt(key) - b->GetInt(key);
}

std::vector<Metric> PerLayerMetrics(const Inputs& in, const Driver& base,
                                    const Driver& traced,
                                    const JsonValue& before,
                                    const JsonValue& after,
                                    LayerTimes& t) {
  static const char* const kPlatforms[] = {"icm", "msb", "chl", "tgb", "gof"};
  // Per-read envelope times (ns) of the main phase; off-engine only for
  // reads that ran an engine.
  std::vector<double> front, queue, run, off_engine;
  double sum_latency = 0, sum_queue = 0, sum_run = 0, sum_bytes = 0;
  int64_t reads = 0, hits = 0, misses = 0, redundant = 0;
  double engine_run_ns = 0, off_engine_ns = 0;
  RunMetrics engine;
  double seq_makespan = 0, seq_attributed = 0, worker_steps = 0;
  std::map<std::string, double> platform_makespan;
  std::map<std::string, int64_t> first_send;
  std::vector<double> invalidated;

  for (const Record& r : traced.records()) {
    if (r.kind == Record::Kind::kAppend && r.phase == Phase::kMain && r.ok) {
      invalidated.push_back(static_cast<double>(r.invalidated));
    }
    if (r.kind != Record::Kind::kRead) continue;
    // Records are in send order, so the first entry is the earliest send.
    const std::string pinned_key = r.key + '#' + std::to_string(r.pin);
    if (r.pinned) first_send.try_emplace(pinned_key, r.sent_ns);
    if (r.phase != Phase::kMain || !r.ok) continue;
    const double latency = static_cast<double>(r.recv_ns - r.due_ns);
    ++reads;
    sum_latency += latency;
    sum_queue += static_cast<double>(r.queue_ns);
    sum_run += static_cast<double>(r.run_ns);
    sum_bytes += static_cast<double>(r.bytes);
    front.push_back(latency - static_cast<double>(r.queue_ns + r.run_ns));
    queue.push_back(static_cast<double>(r.queue_ns));
    run.push_back(static_cast<double>(r.run_ns));
    if (r.cached) {
      ++hits;
    } else if (r.pinned) {
      ++misses;
      if (first_send[pinned_key] < r.sent_ns) ++redundant;
    }
    if (!r.engine) continue;
    const RunMetrics& m = *r.engine;
    auto req = QueryService::Parse(r.key);
    if (!req.ok()) continue;
    engine.Merge(m);
    engine_run_ns += static_cast<double>(r.run_ns);
    off_engine_ns += static_cast<double>(r.run_ns - m.makespan_ns);
    off_engine.push_back(static_cast<double>(r.run_ns - m.makespan_ns));
    const std::string platform = req->op == "run" ? req->platform : "icm";
    platform_makespan[platform] += static_cast<double>(m.makespan_ns);
    worker_steps += static_cast<double>(m.supersteps) *
                    (req->workers > 0 ? req->workers : 4);
    if (req->mode.empty()) {
      seq_makespan += static_cast<double>(m.makespan_ns);
      seq_attributed += static_cast<double>(m.compute_ns + m.messaging_ns +
                                            m.barrier_ns + m.checkpoint_ns);
    }
  }

  // A quantile in `unit`s; 0 for an empty sample, whose metric line then
  // shows 0 samples.
  auto q = [](std::vector<double>& v, double p, double unit) {
    return v.empty() ? 0.0 : Quantile(v, p) / unit;
  };
  std::vector<Metric> out;
  const int64_t n_front = static_cast<int64_t>(front.size());
  const double front_p50_us = q(front, 0.5, 1e3);
  const double parse_p50_us = q(t.parse, 0.5, 1e3);
  const double cache_p50_us = q(t.cache_serve, 0.5, 1e3);
  const int64_t n_sample = static_cast<int64_t>(t.parse.size());
  out.push_back({"server.front_us_p50", "us", front_p50_us, n_front});
  out.push_back({"server.front_us_p99", "us", q(front, 0.99, 1e3), n_front});
  out.push_back({"server.parse_us_p50", "us", parse_p50_us, n_sample});
  out.push_back({"server.cache_serve_us_p50", "us", cache_p50_us, n_sample});
  out.push_back({"server.wire_us_p50", "us",
                 front_p50_us - parse_p50_us - cache_p50_us, n_front});
  out.push_back({"server.response_kb_mean", "KiB",
                 Ratio(sum_bytes, static_cast<double>(reads)) / 1024.0, reads});

  out.push_back({"job_scheduler.queue_ms_p50", "ms", q(queue, 0.5, 1e6), reads});
  out.push_back({"job_scheduler.queue_ms_p99", "ms", q(queue, 0.99, 1e6), reads});
  out.push_back({"job_scheduler.queue_share", "fraction",
                 Ratio(sum_queue, sum_latency), reads});
  const double submitted = static_cast<double>(
      CounterDelta(before, after, "scheduler", "submitted"));
  out.push_back(
      {"job_scheduler.fastpath_ratio", "fraction",
       Ratio(static_cast<double>(
                 CounterDelta(before, after, "scheduler", "fastpath_hits")),
             submitted),
       static_cast<int64_t>(submitted)});
  out.push_back({"job_scheduler.rejected", "count",
                 static_cast<double>(
                     CounterDelta(before, after, "scheduler", "rejected")),
                 static_cast<int64_t>(submitted)});

  out.push_back({"result_cache.hit_ratio", "fraction",
                 Ratio(static_cast<double>(hits), static_cast<double>(reads)),
                 reads});
  out.push_back({"result_cache.redundant_miss_ratio", "fraction",
                 Ratio(static_cast<double>(redundant),
                       static_cast<double>(misses)),
                 misses});
  out.push_back({"result_cache.evictions", "count",
                 static_cast<double>(
                     CounterDelta(before, after, "cache", "evictions")),
                 reads});
  const int64_t n_appends = static_cast<int64_t>(invalidated.size());
  out.push_back({"result_cache.invalidated_per_append", "count",
                 invalidated.empty() ? 0.0 : Mean(invalidated), n_appends});

  const int64_t n_batches = static_cast<int64_t>(t.registry_append.size());
  out.push_back({"graph_registry.append_ms_p50", "ms",
                 q(t.registry_append, 0.5, 1e6), n_batches});
  out.push_back({"graph_registry.append_ms_p95", "ms",
                 q(t.registry_append, 0.95, 1e6), n_batches});
  out.push_back({"graph.append_ms_p50", "ms", q(t.graph_append, 0.5, 1e6),
                 n_batches});
  out.push_back({"graph.compact_ms_p50", "ms", q(t.compact, 0.5, 1e6),
                 static_cast<int64_t>(t.compact.size())});
  out.push_back(
      {"graph.delta_fraction_end", "fraction", t.delta_fraction, n_batches});

  double load_ns = 0;
  for (const BenchGraph& g : in.graphs) load_ns += static_cast<double>(g.load_ns);
  out.push_back({"io.load_ms", "ms", load_ns / 1e6,
                 static_cast<int64_t>(in.graphs.size())});
  out.push_back({"query.prefilter_ms_p50", "ms", q(t.prefilter, 0.5, 1e6),
                 static_cast<int64_t>(t.prefilter.size())});

  const int64_t n_engine = static_cast<int64_t>(off_engine.size());
  out.push_back({"query_service.run_ms_p50", "ms", q(run, 0.5, 1e6), reads});
  out.push_back({"query_service.run_ms_p99", "ms", q(run, 0.99, 1e6), reads});
  out.push_back({"query_service.run_share", "fraction",
                 Ratio(sum_run, sum_latency), reads});
  out.push_back({"query_service.off_engine_ms_p50", "ms",
                 q(off_engine, 0.5, 1e6), n_engine});
  out.push_back({"query_service.off_engine_share", "fraction",
                 Ratio(off_engine_ns, engine_run_ns), n_engine});
  out.push_back({"query_service.render_ms_p50", "ms", q(t.render, 0.5, 1e6),
                 n_sample});

  const double makespan = static_cast<double>(engine.makespan_ns);
  out.push_back({"engine.makespan_ms_p50", "ms", q(t.makespan, 0.5, 1e6),
                 static_cast<int64_t>(t.makespan.size())});
  out.push_back({"engine.compute_share", "fraction",
                 Ratio(static_cast<double>(engine.compute_ns), makespan), 1});
  out.push_back({"engine.messaging_share", "fraction",
                 Ratio(static_cast<double>(engine.messaging_ns), makespan), 1});
  out.push_back({"engine.barrier_share", "fraction",
                 Ratio(static_cast<double>(engine.barrier_ns), makespan), 1});
  out.push_back({"engine.unattributed_share", "fraction",
                 seq_makespan > 0 ? 1.0 - seq_attributed / seq_makespan : 0.0,
                 1});
  out.push_back({"engine.supersteps", "count",
                 static_cast<double>(engine.supersteps), 1});
  out.push_back({"engine.compute_calls", "count",
                 static_cast<double>(engine.compute_calls), 1});
  out.push_back(
      {"engine.messages", "count", static_cast<double>(engine.messages), 1});
  out.push_back({"engine.message_bytes", "bytes",
                 static_cast<double>(engine.message_bytes), 1});
  out.push_back(
      {"engine.steals", "count", static_cast<double>(engine.steals), 1});
  out.push_back({"engine.frontier_dense_ratio", "fraction",
                 Ratio(static_cast<double>(engine.frontier_dense_workers),
                       worker_steps),
                 1});
  out.push_back({"icm.warp_slices", "count",
                 static_cast<double>(engine.warp_slices), 1});
  out.push_back({"icm.warp_merge_ratio", "fraction",
                 Ratio(static_cast<double>(engine.warp_merge_hits),
                       static_cast<double>(engine.warp_slices)),
                 1});
  for (const char* p : kPlatforms) {
    out.push_back({std::string("engine.platform_share.") + p, "fraction",
                   Ratio(platform_makespan[p], makespan), 1});
  }

  std::vector<double> late = Lateness(base);
  out.push_back({"client.late_us_p99", "us", Quantile(late, 0.99) / 1e3,
                 static_cast<int64_t>(late.size())});
  std::vector<double> base_lat = MainLatencies(base);
  std::vector<double> traced_lat = MainLatencies(traced);
  out.push_back({"trace.overhead_share", "fraction",
                 Median(traced_lat) / Median(base_lat) - 1.0,
                 static_cast<int64_t>(traced_lat.size())});
  return out;
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

JsonWriter& Number(JsonWriter& w, double v) {
  return std::isfinite(v) ? w.Double(v) : w.Null();
}

void PrintMetricLines(const std::vector<Metric>& metrics,
                      const Options& opt) {
  for (const Metric& m : metrics) {
    JsonWriter w;
    w.BeginObject();
    w.Key("metric").String(m.name);
    w.Key("workload").String(opt.workload->name);
    w.Key("seed").UInt(opt.seed);
    w.Key("unit").String(m.unit);
    w.Key("value");
    Number(w, m.value);
    w.Key("samples").Int(m.samples);
    if (m.name == "tail_ms") w.Key("percentile").Double(opt.workload->tail_q);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  }
}

void WriteHost(JsonWriter& w, const Options& opt) {
  w.BeginObject();
  w.Key("nproc").Int(::sysconf(_SC_NPROCESSORS_ONLN));
  w.Key("simd").String(SimdLevelName(SimdDispatchLevel()));
  w.Key("build_type").String(GRAPHITE_BENCH_BUILD_TYPE);
  w.Key("git_sha").String(opt.git_sha);
  w.EndObject();
}

/// The final line; metrics named in `skip` are left out of it.
void PrintSummary(bool correct, int64_t attempted, int64_t failed,
                  const std::vector<Metric>& metrics,
                  const std::set<std::string>& skip) {
  JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(correct);
  w.Key("attempted").Int(attempted);
  w.Key("failed").Int(failed);
  w.Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    if (skip.count(m.name) != 0) continue;
    w.Key(m.name).BeginObject();
    w.Key("value");
    Number(w, m.value);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

Status StartServer(const Inputs& in, ServerProcess* server) {
  return server->Start(in.server_argv, kServerStartTimeoutS);
}

// ---------------------------------------------------------------------
// The two run modes.
// ---------------------------------------------------------------------

/// The main phase's share of --seconds: all of it but ingest-mixed's
/// append loop.
double MainSeconds(const Options& opt) {
  return opt.workload->shape == Shape::kIngest
             ? opt.seconds * (1 - kAppendLoopShare)
             : opt.seconds;
}

int RunMeasured(const Options& opt, Inputs& in) {
  // Set-up (spawn to ready line: the text parse of four graphs plus
  // registration) is timed in three groups spread over the run: the
  // host's speed shifts for seconds or longer at a time, and spawns in
  // one burst would all see the same state. The last spawn of the first
  // group serves the workload; the others exit at once.
  std::vector<double> setup_ns;
  auto time_setups = [&](int n) -> Status {
    for (int i = 0; i < n; ++i) {
      ServerProcess spare;
      GRAPHITE_RETURN_NOT_OK(StartServer(in, &spare));
      setup_ns.push_back(static_cast<double>(spare.ready_ns()));
    }
    return Status::OK();
  };
  ServerProcess server;
  Sampler sampler(opt.seed ^ 0x73616d706c65ULL, kSampleSize);
  Driver d(in.graphs, opt.seed, /*want_metrics=*/false, &sampler);
  Status s = time_setups(kSetupGroup - 1);
  if (s.ok()) s = StartServer(in, &server);
  if (s.ok()) {
    setup_ns.push_back(static_cast<double>(server.ready_ns()));
    s = d.Connect(server.port());
  }
  if (s.ok()) {
    s = Drive(in, MainSeconds(opt), opt.seconds - MainSeconds(opt), &d,
              nullptr, nullptr, [&] { return time_setups(kSetupGroup); });
  }
  const int64_t peak_rss_kb = server.PeakRssKb();
  if (s.ok()) s = d.Shutdown(&server);
  int64_t mismatches = 0;
  if (s.ok()) {
    s = Replay(in.graphs, sampler.Take(), d.batches(),
               in.spec.shape != Shape::kCold, nullptr, nullptr, &mismatches);
  }
  if (s.ok()) s = time_setups(kSetupGroup);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  const std::vector<Metric> metrics =
      EndToEndMetrics(in.spec, setup_ns, d, peak_rss_kb);
  PrintMetricLines(metrics, opt);
  JsonWriter host;
  host.BeginObject().Key("host");
  WriteHost(host, opt);
  host.EndObject();
  std::printf("%s\n", host.str().c_str());
  int64_t attempted = 0, failed = 0;
  Count(d, &attempted, &failed);
  const bool correct = mismatches == 0 && d.wrong() == 0;
  PrintSummary(correct, attempted, failed, metrics,
               {"append_p50_ms", "append_p95_ms"});
  if (!correct) return 1;
  return failed == 0 ? 0 : 3;
}

int RunTraced(const Options& opt, Inputs& in) {
  const double main_s = MainSeconds(opt);
  // Baseline: the main phase untraced, for the tracing overhead and the
  // generator's lateness.
  ServerProcess base_server;
  Driver base(in.graphs, opt.seed, /*want_metrics=*/false, nullptr);
  Status s = StartServer(in, &base_server);
  if (s.ok()) s = base.Connect(base_server.port());
  if (s.ok()) s = Drive(in, main_s, 0, &base, nullptr, nullptr);
  if (s.ok()) s = base.Shutdown(&base_server);

  ServerProcess traced_server;
  Sampler sampler(opt.seed ^ 0x73616d706c65ULL, kSampleSize);
  Driver traced(in.graphs, opt.seed, /*want_metrics=*/true, &sampler);
  JsonValue before, after;
  if (s.ok()) s = StartServer(in, &traced_server);
  if (s.ok()) s = traced.Connect(traced_server.port());
  if (s.ok()) s = Drive(in, main_s, 0, &traced, &before, &after);
  if (s.ok()) s = traced.Shutdown(&traced_server);

  Tracer tracer;
  for (const BenchGraph& g : in.graphs) {
    tracer.Add("io.ReadTextGraphFile", g.load_start_ns, g.load_ns, -1, -1, 0);
  }
  const std::vector<Record>& records = traced.records();
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    if (r.kind != Record::Kind::kRead || r.phase != Phase::kMain || !r.ok) {
      continue;
    }
    const int64_t id = static_cast<int64_t>(i);
    const int tid = r.conn + 1;
    const int root = tracer.Add("client.request", r.due_ns,
                                r.recv_ns - r.due_ns, id, -1, tid);
    if (r.queue_ns + r.run_ns == 0) continue;
    const int64_t run_start = r.recv_ns - r.run_ns;
    tracer.Add("job_scheduler.queue", run_start - r.queue_ns, r.queue_ns, id,
               root, tid);
    const int run = tracer.Add("query_service.run", run_start, r.run_ns, id,
                               root, tid);
    if (!r.engine) continue;
    int64_t at = run_start;
    const std::pair<const char*, int64_t> phases[] = {
        {"engine.compute", r.engine->compute_ns},
        {"engine.messaging", r.engine->messaging_ns},
        {"engine.barrier", r.engine->barrier_ns}};
    for (const auto& [name, ns] : phases) {
      // Threaded compute time sums over threads; clip to the run span.
      const int64_t dur = std::min(ns, r.recv_ns - at);
      if (dur <= 0) break;
      tracer.Add(name, at, dur, id, run, tid);
      at += dur;
    }
  }

  // Workloads without appends replay a synthetic batch stream so the
  // graph layers are timed everywhere.
  std::vector<BatchLine> batches = traced.batches();
  if (in.spec.append_hz == 0) {
    BatchStream stream(in.graphs, opt.seed);
    for (int i = 0; i < kReplayBatches; ++i) batches.push_back(stream.Next(i));
  }
  LayerTimes times;
  int64_t mismatches = 0;
  if (s.ok()) {
    s = Replay(in.graphs, sampler.Take(), batches,
               in.spec.shape != Shape::kCold, &tracer, &times, &mismatches);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  const std::vector<Metric> metrics =
      PerLayerMetrics(in, base, traced, before, after, times);
  PrintMetricLines(metrics, opt);

  JsonWriter other;
  other.BeginObject();
  other.Key("workload").String(opt.workload->name);
  other.Key("seed").UInt(opt.seed);
  other.Key("seconds").Double(opt.seconds);
  other.Key("host");
  WriteHost(other, opt);
  other.Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    other.Key(m.name).BeginObject().Key("value");
    Number(other, m.value);
    other.Key("unit").String(m.unit).EndObject();
  }
  other.EndObject();
  other.EndObject();
  s = tracer.WriteChrome(opt.trace_path, other.str());
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[trace] wrote %zu spans to %s\n",
               tracer.spans().size(), opt.trace_path.c_str());

  int64_t attempted = 0, failed = 0;
  Count(base, &attempted, &failed);
  Count(traced, &attempted, &failed);
  const bool correct = mismatches == 0 && base.wrong() == 0 &&
                       traced.wrong() == 0;
  PrintSummary(correct, attempted, failed, metrics, {});
  if (!correct) return 1;
  return failed == 0 ? 0 : 3;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    Usage();
    return 2;
  }
  std::error_code ec;
  const fs::path exe_dir = fs::read_symlink("/proc/self/exe", ec).parent_path();
  ScratchDir dir(exe_dir);
  if (ec || dir.path().empty()) {
    std::fprintf(stderr, "error: cannot create a scratch directory\n");
    return 1;
  }
  auto graphs = MakeGraphs(dir.path());
  if (!graphs.ok()) {
    std::fprintf(stderr, "error: %s\n", graphs.status().ToString().c_str());
    return 1;
  }
  Inputs in{*opt.workload, std::move(*graphs), {}, {}, opt.seed, {}};
  Rng universe_rng(opt.seed ^ 0x756e6976657273ULL);
  in.universe = HotUniverse(in.graphs, universe_rng);
  in.jobs = AnalyticsJobs(in.graphs);
  in.server_argv = {GRAPHITE_BENCH_SERVER, "--port", "0", "--threads", "4",
                    "--queue", "1024"};
  for (const BenchGraph& g : in.graphs) {
    in.server_argv.push_back("--preload");
    in.server_argv.push_back(g.name + "=@" + g.path);
  }
  return opt.trace_path.empty() ? RunMeasured(opt, in) : RunTraced(opt, in);
}

}  // namespace
}  // namespace e2e
}  // namespace graphite

int main(int argc, char** argv) { return graphite::e2e::Main(argc, argv); }
