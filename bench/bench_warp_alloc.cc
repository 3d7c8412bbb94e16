// Before/after harness for the allocation-free hot path (DESIGN.md §4f):
// measures the time-warp operator through the legacy vector-of-vectors API
// versus the arena-backed flat SoA path, and the end-to-end ICM engine
// (flat inboxes + per-thread warp arenas), on inboxes derived from the
// Table-1 generator catalog. Heap allocations are counted exactly via the
// replaced operator new (bench/alloc_counter.h); times are wall-clock.
//
// Output: a JSON report (default BENCH_warp_alloc.json in the working
// directory). The committed copy at the repo root is the regression
// baseline: tools/check_bench_regression.py compares the "gated" block of
// a fresh run against it (ctest label `perf`). Allocation counts are
// deterministic per build and gated unconditionally; timing keys are
// enforced only in strict mode (GRAPHITE_PERF_STRICT=1 / --strict).
//
// Usage: bench_warp_alloc [scale] [out.json]
// The committed baseline uses the default scale; regenerate it with:
//     ./bench/bench_warp_alloc && cp BENCH_warp_alloc.json <repo root>
#define GRAPHITE_ALLOC_COUNTER_IMPL
#include "alloc_counter.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "icm/warp.h"
#include "util/arena.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/timer.h"
#include "../tests/warp_reference.h"

namespace graphite {
namespace bench {
namespace {

using Entry = IntervalMap<int64_t>::Entry;
using Item = TemporalItem<int64_t>;

// Per-vertex warp inputs modeling one superstep's inboxes: messages are
// the vertex's in-edges (interval = edge lifespan, payload synthetic) and
// the outer set is its lifespan split into a few state runs — the shape
// the ICM compute phase feeds the warp every superstep.
struct WarpWorkload {
  std::vector<std::vector<Entry>> outer;
  std::vector<std::vector<Item>> msgs;
  size_t total_msgs = 0;
};

constexpr size_t kMaxMsgsPerVertex = 128;

WarpWorkload BuildWarpWorkload(const TemporalGraph& g, uint64_t seed) {
  WarpWorkload wl;
  const size_t n = g.num_vertices();
  wl.outer.resize(n);
  wl.msgs.resize(n);
  Rng rng(seed);
  for (VertexIdx v = 0; v < n; ++v) {
    for (const StoredEdge& e : g.OutEdges(v)) {
      auto& box = wl.msgs[e.dst];
      if (box.size() >= kMaxMsgsPerVertex) continue;
      box.push_back(
          {e.interval, static_cast<int64_t>(rng.Uniform(1'000'000))});
    }
  }
  for (VertexIdx v = 0; v < n; ++v) {
    if (wl.msgs[v].empty()) continue;
    wl.total_msgs += wl.msgs[v].size();
    // Split the lifespan into up to 4 distinct-value state runs.
    const Interval span = g.vertex_interval(v);
    std::vector<TimePoint> cuts = {span.start, span.end};
    for (int i = 0; i < 3; ++i) {
      if (span.end - span.start > 1) {
        cuts.push_back(rng.UniformRange(span.start + 1, span.end));
      }
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      wl.outer[v].push_back({Interval(cuts[i], cuts[i + 1]),
                             static_cast<int64_t>(10 * v + i)});
    }
  }
  return wl;
}

// Dense inbox variant: every non-empty vertex's message list tiled up to
// kMaxMsgsPerVertex (payloads re-randomized so the tiles are not byte
// copies). The sparse catalog at bench scale gives small inboxes; the
// dense variant times the kernel on fat superstep inboxes, the shape
// high-in-degree vertices produce.
WarpWorkload DensifyWorkload(const WarpWorkload& src, uint64_t seed) {
  WarpWorkload wl;
  wl.outer = src.outer;
  wl.msgs.resize(src.msgs.size());
  Rng rng(seed);
  for (size_t v = 0; v < src.msgs.size(); ++v) {
    const auto& box = src.msgs[v];
    if (box.empty()) continue;
    auto& out = wl.msgs[v];
    out.reserve(kMaxMsgsPerVertex);
    for (size_t i = 0; i < kMaxMsgsPerVertex; ++i) {
      out.push_back({box[i % box.size()].interval,
                     static_cast<int64_t>(rng.Uniform(1'000'000))});
    }
    wl.total_msgs += out.size();
  }
  return wl;
}

struct PathStats {
  double ns_per_superstep = 0;
  double allocs_per_superstep = 0;
  double ns_per_tuple = 0;
  uint64_t tuples_per_superstep = 0;
};

constexpr int kWarmupSupersteps = 2;
// Wide enough that one scheduler hiccup on a busy host does not dominate
// the window — per-superstep work is tens of microseconds, so even 10
// supersteps keep the warp section well under the e2e section's cost.
constexpr int kMeasuredSupersteps = 10;

// Legacy path: the shim API returning std::vector<WarpTuple> with one
// inner-index vector per tuple — the pre-SoA hot path.
PathStats RunLegacy(const WarpWorkload& wl) {
  PathStats st;
  int64_t sink = 0;
  auto superstep = [&]() -> uint64_t {
    uint64_t tuples = 0;
    for (size_t v = 0; v < wl.msgs.size(); ++v) {
      if (wl.msgs[v].empty()) continue;
      const auto out = TimeWarp<int64_t, int64_t>(wl.outer[v], wl.msgs[v]);
      tuples += out.size();
      for (const WarpTuple& t : out) {
        for (const uint32_t idx : t.inner_indices) {
          sink += wl.msgs[v][idx].value;
        }
      }
    }
    return tuples;
  };
  for (int s = 0; s < kWarmupSupersteps; ++s) superstep();
  const uint64_t a0 = benchalloc::AllocCount();
  // Per-superstep timing with a min-reduce: on a shared host the mean is
  // dominated by scheduler preemptions; the fastest superstep is the
  // reproducible throughput of the kernel itself. Allocs stay a mean —
  // they are deterministic per superstep.
  int64_t best_ns = std::numeric_limits<int64_t>::max();
  uint64_t tuples = 0;
  for (int s = 0; s < kMeasuredSupersteps; ++s) {
    const int64_t t0 = NowNanos();
    tuples = superstep();
    best_ns = std::min(best_ns, NowNanos() - t0);
  }
  const uint64_t allocs = benchalloc::AllocCount() - a0;
  st.ns_per_superstep = static_cast<double>(best_ns);
  st.allocs_per_superstep =
      static_cast<double>(allocs) / kMeasuredSupersteps;
  st.tuples_per_superstep = tuples;
  st.ns_per_tuple =
      tuples == 0 ? 0 : static_cast<double>(best_ns) / tuples;
  if (sink == 42) std::fprintf(stderr, "!");  // keep the sink live
  return st;
}

// Arena path: TimeWarpInto with per-"thread" scratch + SoA output, arena
// reset at the superstep barrier — exactly the engine's steady-state loop.
PathStats RunArena(const WarpWorkload& wl) {
  PathStats st;
  Arena arena;
  WarpScratch scratch;
  scratch.Attach(&arena);
  WarpOutput out;
  out.Attach(&arena);
  int64_t sink = 0;
  auto superstep = [&]() -> uint64_t {
    uint64_t tuples = 0;
    for (size_t v = 0; v < wl.msgs.size(); ++v) {
      if (wl.msgs[v].empty()) continue;
      TimeWarpInto<int64_t, int64_t>(wl.outer[v], wl.msgs[v], &scratch,
                                     &out);
      tuples += out.size();
      for (const FlatWarpTuple& t : out.tuples()) {
        for (const uint32_t idx : out.group(t)) {
          sink += wl.msgs[v][idx].value;
        }
      }
    }
    // Superstep barrier: drop the arena-backed buffers, decay the arena.
    scratch.Release();
    out.Release();
    arena.Reset();
    return tuples;
  };
  for (int s = 0; s < kWarmupSupersteps; ++s) superstep();
  const uint64_t a0 = benchalloc::AllocCount();
  // Min-reduce over per-superstep times — see RunLegacy.
  int64_t best_ns = std::numeric_limits<int64_t>::max();
  uint64_t tuples = 0;
  for (int s = 0; s < kMeasuredSupersteps; ++s) {
    const int64_t t0 = NowNanos();
    tuples = superstep();
    best_ns = std::min(best_ns, NowNanos() - t0);
  }
  const uint64_t allocs = benchalloc::AllocCount() - a0;
  st.ns_per_superstep = static_cast<double>(best_ns);
  st.allocs_per_superstep =
      static_cast<double>(allocs) / kMeasuredSupersteps;
  st.tuples_per_superstep = tuples;
  st.ns_per_tuple =
      tuples == 0 ? 0 : static_cast<double>(best_ns) / tuples;
  if (sink == 42) std::fprintf(stderr, "!");
  return st;
}

struct EngineStats {
  double wall_ms = 0;
  double allocs_per_superstep = 0;
  int64_t supersteps = 0;
};

// End-to-end ICM run (flat inboxes + arena-backed warp throughout),
// sequential for deterministic allocation counts.
EngineStats RunEngine(Workload& w, Algorithm a) {
  RunConfig config;
  config.num_workers = 4;
  config.use_threads = false;
  config.source = HubVertex(w.graph());
  const uint64_t a0 = benchalloc::AllocCount();
  const int64_t t0 = NowNanos();
  const RunMetrics m = RunForMetrics(w, Platform::kIcm, a, config);
  EngineStats st;
  st.wall_ms = static_cast<double>(NowNanos() - t0) / 1e6;
  st.supersteps = m.supersteps > 0 ? m.supersteps : 1;
  st.allocs_per_superstep =
      static_cast<double>(benchalloc::AllocCount() - a0) /
      static_cast<double>(st.supersteps);
  return st;
}

/// One self-describing entry of the "gated" block (the schema
/// tools/check_bench_regression.py consumes).
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
  const std::string out_path =
      argc > 2 ? argv[2] : "BENCH_warp_alloc.json";

  std::vector<BenchDataset> datasets = LoadCatalog(scale);

  JsonWriter json(2);
  json.BeginObject();
  json.Key("bench").String("bench_warp_alloc");
  json.Key("scale").Fixed(scale, 3);
  // Recorded so the regression gate can tell whether the baseline's
  // timing keys were measured on a comparable host (core-count
  // mismatches downgrade timing gates to warnings).
  json.Key("hardware_concurrency").UInt(std::thread::hardware_concurrency());
  json.Key("datasets").BeginArray();

  double sum_legacy_allocs = 0, sum_soa_allocs = 0;
  double sum_legacy_ns = 0, sum_soa_ns = 0;
  double sum_dense_scalar_ns = 0;
  uint64_t sum_tuples = 0, sum_dense_tuples = 0;
  double e2e_ms = 0, e2e_allocs = 0;
  int64_t e2e_supersteps = 0;

  for (size_t d = 0; d < datasets.size(); ++d) {
    BenchDataset& ds = datasets[d];
    std::fprintf(stderr, "[warp] %s ...\n", ds.name.c_str());
    const WarpWorkload wl = BuildWarpWorkload(ds.workload.graph(), 7 + d);
    const PathStats legacy = RunLegacy(wl);
    const PathStats soa = RunArena(wl);
    const WarpWorkload dense = DensifyWorkload(wl, 99 + d);
    const PathStats dense_scalar = RunArena(dense);
    sum_legacy_allocs += legacy.allocs_per_superstep;
    sum_soa_allocs += soa.allocs_per_superstep;
    sum_legacy_ns += legacy.ns_per_superstep;
    sum_soa_ns += soa.ns_per_superstep;
    sum_dense_scalar_ns += dense_scalar.ns_per_superstep;
    sum_tuples += soa.tuples_per_superstep;
    sum_dense_tuples += dense_scalar.tuples_per_superstep;

    // End-to-end: one TI and one TD algorithm across the catalog.
    const Algorithm algo =
        d % 2 == 0 ? Algorithm::kBfs : Algorithm::kEat;
    std::fprintf(stderr, "[icm ] %s %s ...\n", ds.name.c_str(),
                 AlgorithmName(algo));
    const EngineStats eng = RunEngine(ds.workload, algo);
    e2e_ms += eng.wall_ms;
    e2e_allocs += eng.allocs_per_superstep * eng.supersteps;
    e2e_supersteps += eng.supersteps;

    json.BeginObject();
    json.Key("dataset").String(ds.name);
    json.Key("messages").UInt(wl.total_msgs);
    json.Key("legacy_allocs_per_superstep")
        .Fixed(legacy.allocs_per_superstep, 1);
    json.Key("soa_allocs_per_superstep").Fixed(soa.allocs_per_superstep, 1);
    json.Key("legacy_ns_per_tuple").Fixed(legacy.ns_per_tuple, 1);
    json.Key("soa_ns_per_tuple").Fixed(soa.ns_per_tuple, 1);
    json.Key("dense_scalar_ns_per_tuple").Fixed(dense_scalar.ns_per_tuple, 1);
    json.Key("tuples_per_superstep").UInt(soa.tuples_per_superstep);
    json.Key("dense_tuples_per_superstep")
        .UInt(dense_scalar.tuples_per_superstep);
    json.Key(std::string("icm_") + AlgorithmName(algo) + "_wall_ms")
        .Fixed(eng.wall_ms, 1);
    json.Key("icm_allocs_per_superstep").Fixed(eng.allocs_per_superstep, 1);
    json.EndObject();
    ds.workload.DropDerived();
  }
  json.EndArray();

  // Aggregates. The alloc ratio is the headline: >=2x fewer heap
  // allocations per superstep is the acceptance floor; the SoA path is
  // designed to reach zero in steady state (ratio bounded only by the +1).
  const double alloc_ratio =
      (sum_legacy_allocs + 1.0) / (sum_soa_allocs + 1.0);
  const double legacy_ns_per_tuple =
      sum_tuples == 0 ? 0 : sum_legacy_ns / static_cast<double>(sum_tuples);
  const double soa_ns_per_tuple =
      sum_tuples == 0 ? 0 : sum_soa_ns / static_cast<double>(sum_tuples);
  const double dense_scalar_ns_per_tuple =
      sum_dense_tuples == 0
          ? 0
          : sum_dense_scalar_ns / static_cast<double>(sum_dense_tuples);

  json.Key("gated").BeginObject();
  GateEntry(&json, "warp_alloc_ratio", alloc_ratio, "higher", false);
  GateEntry(&json, "warp_soa_allocs_per_superstep", sum_soa_allocs, "lower",
            false);
  GateEntry(&json, "warp_soa_ns_per_tuple", soa_ns_per_tuple, "lower", true);
  // The same kernel on the dense inboxes.
  GateEntry(&json, "warp_dense_scalar_ns_per_tuple",
            dense_scalar_ns_per_tuple, "lower", true);
  GateEntry(&json, "warp_legacy_ns_per_tuple", legacy_ns_per_tuple, "lower",
            true);
  GateEntry(&json, "icm_e2e_allocs_per_superstep",
            e2e_supersteps == 0 ? 0 : e2e_allocs / e2e_supersteps, "lower",
            false);
  GateEntry(&json, "icm_e2e_wall_ms", e2e_ms, "lower", true);
  json.EndObject();
  json.EndObject();

  const std::string& text = json.str();
  FILE* f = std::fopen(out_path.c_str(), "w");
  GRAPHITE_CHECK(f != nullptr);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  std::printf("%s\n", text.c_str());
  return 0;
}
