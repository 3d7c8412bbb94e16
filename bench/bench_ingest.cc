// Ingest benchmark: the mutable time-axis head, end to end. A synthetic
// update feed bootstraps a sealed base, then the remainder arrives through
// the UpdateBatcher as append batches. Four things are measured:
//
//   1. Append throughput — entities (vertices+edges+props) folded into
//      the delta segment per second, including validation and receipt
//      construction.
//   2. Incremental-vs-full recompute — after every append window, SSSP
//      on ICM is re-run twice: warm-started from the previous fixed
//      point via the append receipt, and cold from scratch. The warm run
//      must land on the identical fixed point (checked per window) while
//      doing a fraction of the compute calls.
//   3. That compute-call fraction itself, from a sequential pass — a
//      deterministic count, gated unconditionally; the wall-clock
//      speedup and append rate are timing gates (strict mode only).
//   4. Versioned appends — GraphRegistry::Append with the previous
//      version still pinned, as a server runs it beside in-flight jobs,
//      on Reddit-like bases of two sizes (4x apart). Heap allocations per
//      append are counted exactly (bench/alloc_counter.h) and must not
//      grow with the base, for plain and compacting appends alike: the
//      sealed base is shared between versions, so an append costs
//      O(batch + delta), and it holds flat arrays only, so compaction
//      copies and frees a fixed number of them.
//
// Prints a summary to stdout and writes machine-readable results to
// BENCH_ingest.json (override with argv[2]); tools/check_bench_regression.py
// compares the "gated" block against the committed baseline.
#define GRAPHITE_ALLOC_COUNTER_IMPL
#include "alloc_counter.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/icm_path.h"
#include "bench_common.h"
#include "gen/generators.h"
#include "icm/icm_engine.h"
#include "server/graph_registry.h"
#include "stream/update_stream.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/timer.h"

namespace graphite {
namespace {

void GateEntry(JsonWriter* json, const char* key, double value,
               const char* better, bool timing) {
  json->Key(key).BeginObject();
  json->Key("value").Fixed(value, 3);
  json->Key("better").String(better);
  json->Key("timing").Bool(timing);
  json->EndObject();
}

struct IngestWorkload {
  TemporalGraph base;
  std::vector<EdgeBatch> batches;
  size_t append_entities = 0;
  size_t append_edges = 0;
};

// Bootstraps the feed up to half the horizon into a sealed base and
// windows the rest into append batches via the UpdateBatcher. Removals of
// base-sealed edges cannot be expressed as appends and are dropped, same
// as examples/streaming_ingest.cpp.
IngestWorkload BuildWorkload(int accounts, int events, TimePoint horizon,
                             int windows) {
  const auto feed = SyntheticUpdateStream(2026, accounts, events, horizon);
  const TimePoint boot_time = horizon / 2;

  // The base is the feed prefix flushed at the horizon, with its
  // open-ended vertices closed there, appended to an empty graph and
  // compacted.
  UpdateBatcher batcher;
  size_t cursor = 0;
  while (cursor < feed.size() && feed[cursor].time <= boot_time) {
    GRAPHITE_CHECK(batcher.Push(feed[cursor]).ok());
    ++cursor;
  }
  auto boot = batcher.FlushAll(horizon);
  GRAPHITE_CHECK(boot.ok());
  for (EdgeBatch::NewVertex& v : boot->vertices) v.interval.end = horizon;
  IngestWorkload w;
  GRAPHITE_CHECK(w.base.Append(*boot).ok());
  w.base.Compact();

  const TimePoint span = horizon - boot_time;
  for (int i = 1; i <= windows; ++i) {
    const TimePoint window_end = boot_time + (span * i) / windows;
    while (cursor < feed.size() && feed[cursor].time < window_end) {
      const GraphUpdate& u = feed[cursor];
      ++cursor;
      const Status pushed = batcher.Push(u);
      if (!pushed.ok() && u.kind == GraphUpdate::Kind::kRemoveEdge) continue;
      GRAPHITE_CHECK(pushed.ok());
    }
    EdgeBatch batch;
    if (i == windows) {
      auto flushed = batcher.FlushAll(horizon);
      GRAPHITE_CHECK(flushed.ok());
      batch = std::move(*flushed);
    } else {
      batch = batcher.DrainClosed();
    }
    if (batch.empty()) continue;
    w.append_entities += batch.size();
    w.append_edges += batch.edges.size();
    w.batches.push_back(std::move(batch));
  }
  return w;
}

struct RecomputeSample {
  double inc_ms = 0;
  double full_ms = 0;
  int64_t inc_calls = 0;
  int64_t full_calls = 0;
};

// One pass over all append windows: append, warm incremental run, cold
// full run, per-window fixed-point equality check.
RecomputeSample RecomputePass(const IngestWorkload& w, VertexId source,
                              const IcmOptions& options) {
  RecomputeSample s;
  TemporalGraph g = w.base;
  IcmSssp boot(g, source);
  auto result = IcmEngine<IcmSssp>::Run(g, boot, options);
  for (const EdgeBatch& batch : w.batches) {
    AppendReceipt receipt;
    GRAPHITE_CHECK(g.Append(batch, &receipt).ok());

    IcmWarmStart<IcmSssp> warm;
    warm.states = std::move(result.states);
    warm.receipt = std::move(receipt);
    IcmSssp inc_program(g, source);
    int64_t t0 = NowNanos();
    result = IcmEngine<IcmSssp>::RunIncremental(g, inc_program,
                                                std::move(warm), options);
    s.inc_ms += bench::Ms(NowNanos() - t0);
    s.inc_calls += result.metrics.compute_calls;

    IcmSssp full_program(g, source);
    t0 = NowNanos();
    const auto full = IcmEngine<IcmSssp>::Run(g, full_program, options);
    s.full_ms += bench::Ms(NowNanos() - t0);
    s.full_calls += full.metrics.compute_calls;

    for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
      GRAPHITE_CHECK(result.states[v] == full.states[v]);
    }
  }
  return s;
}

// Append batches shaped like bench/e2e's ingest-mixed feed: 10 fresh
// vertices and 50 edges with two properties each. Edges cycle through
// fresh->base, base->fresh and fresh->fresh, each spanning the base
// vertex's lifespan (or the whole horizon). The shape — and so the
// allocation pattern of appending it — does not depend on the base.
std::vector<EdgeBatch> VersionedBatches(const TemporalGraph& base, int count) {
  constexpr int kVertices = 10;
  constexpr int kEdges = 50;
  Rng rng(2027);
  VertexId next_vid = 0;
  EdgeId next_eid = 0;
  for (VertexIdx v = 0; v < base.num_vertices(); ++v) {
    next_vid = std::max(next_vid, base.vertex_id(v) + 1);
  }
  for (EdgePos pos = 0; pos < base.num_edges(); ++pos) {
    next_eid = std::max(next_eid, base.edge(pos).eid + 1);
  }
  const Interval forever(0, base.horizon());
  std::vector<EdgeBatch> batches(static_cast<size_t>(count));
  for (EdgeBatch& batch : batches) {
    for (int i = 0; i < kVertices; ++i) {
      batch.vertices.push_back({next_vid++, forever});
    }
    for (int j = 0; j < kEdges; ++j) {
      VertexId src = batch.vertices[rng.Uniform(kVertices)].vid;
      VertexId dst = batch.vertices[rng.Uniform(kVertices)].vid;
      Interval span = forever;
      if (j % 3 != 2) {
        VertexIdx pick = 0;
        do {
          pick = static_cast<VertexIdx>(rng.Uniform(base.num_vertices()));
          span = base.ClipToHorizon(base.vertex_interval(pick));
        } while (span.IsEmpty());
        (j % 3 == 0 ? dst : src) = base.vertex_id(pick);
      }
      const EdgeId eid = next_eid++;
      batch.edges.push_back({eid, src, dst, span});
      batch.props.push_back({eid, kTravelTimeLabel, span, 1});
      batch.props.push_back({eid, kTravelCostLabel, span, 2});
    }
  }
  return batches;
}

struct VersionedSample {
  size_t base_vertices = 0;
  size_t base_edges = 0;
  double allocs_per_append = 0;      // non-compacting appends
  double append_ms = 0;              // median, non-compacting
  double compact_append_ms = 0;      // median, every 5th (compacting)
  double compact_allocs_per_append = 0;
};

// Publishes `appends` versions of `base` through a GraphRegistry, each
// while the previous version is pinned (a job holding the old head), and
// times Append plus the release of the pinned version. One warm-up append
// first builds the base's EdgeId index, a once-per-base cost.
VersionedSample VersionedAppendPass(const TemporalGraph& base, int appends) {
  constexpr int kCompactEvery = 5;
  const std::vector<EdgeBatch> batches = VersionedBatches(base, appends + 1);
  GraphRegistry registry;
  registry.Add("g", base);
  GRAPHITE_CHECK(registry.Append("g", batches[0], false).ok());

  std::vector<double> plain_ms, compact_ms;
  uint64_t plain_allocs = 0, compact_allocs = 0;
  for (int k = 1; k <= appends; ++k) {
    const bool compact = k % kCompactEvery == 0;
    std::shared_ptr<ResidentGraph> pinned = registry.Get("g");
    const uint64_t a0 = benchalloc::AllocCount();
    const int64_t t0 = NowNanos();
    GRAPHITE_CHECK(registry.Append("g", batches[k], compact).ok());
    const uint64_t allocs = benchalloc::AllocCount() - a0;
    pinned.reset();
    const double ms = bench::Ms(NowNanos() - t0);
    (compact ? compact_ms : plain_ms).push_back(ms);
    (compact ? compact_allocs : plain_allocs) += allocs;
  }
  auto median = [](std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  auto mean = [](uint64_t total, size_t n) {
    return n > 0 ? static_cast<double>(total) / static_cast<double>(n) : 0.0;
  };
  VersionedSample s;
  s.base_vertices = base.num_vertices();
  s.base_edges = base.num_edges();
  s.allocs_per_append = mean(plain_allocs, plain_ms.size());
  s.append_ms = median(plain_ms);
  s.compact_append_ms = median(compact_ms);
  s.compact_allocs_per_append = mean(compact_allocs, compact_ms.size());
  return s;
}

}  // namespace
}  // namespace graphite

int main(int argc, char** argv) {
  using namespace graphite;
  const double scale = bench::ResolveScale(argc, argv, 1.0);
  const char* json_path = argc > 2 ? argv[2] : "BENCH_ingest.json";
  const int threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int windows = 8;

  const int accounts = std::max(40, static_cast<int>(600 * scale));
  const int events = std::max(400, static_cast<int>(12000 * scale));
  const TimePoint horizon = 32;

  IngestWorkload w = BuildWorkload(accounts, events, horizon, windows);
  const VertexId source = bench::HubVertex(w.base);
  std::printf("Ingest bench (scale %.2f): base %zu vertices / %zu edges, "
              "%zu batches (%zu entities, %zu edges) over horizon %lld\n",
              scale, w.base.num_vertices(), w.base.num_edges(),
              w.batches.size(), w.append_entities, w.append_edges,
              static_cast<long long>(horizon));

  // 1. Append throughput: fold every batch into a fresh copy of the
  // base, best wall time of 3. The copy happens outside the timer.
  double append_ms = 0;
  for (int rep = 0; rep < 3; ++rep) {
    TemporalGraph g = w.base;
    AppendReceipt receipt;
    const int64_t t0 = NowNanos();
    for (const EdgeBatch& batch : w.batches) {
      GRAPHITE_CHECK(g.Append(batch, &receipt).ok());
    }
    const double ms = bench::Ms(NowNanos() - t0);
    if (rep == 0 || ms < append_ms) append_ms = ms;
  }
  const double appends_per_sec =
      append_ms > 0 ? 1000.0 * static_cast<double>(w.append_entities) /
                          append_ms
                    : 0.0;

  // 2. Incremental vs full wall time, threaded, best of 3 by total
  // incremental time.
  IcmOptions timed_options;
  timed_options.num_workers = 8;
  timed_options.use_threads = true;
  timed_options.runtime.num_threads = threads;
  RecomputeSample timed;
  for (int rep = 0; rep < 3; ++rep) {
    const RecomputeSample s = RecomputePass(w, source, timed_options);
    if (rep == 0 || s.inc_ms < timed.inc_ms) timed = s;
  }
  const double speedup =
      timed.inc_ms > 0 ? timed.full_ms / timed.inc_ms : 0.0;

  // 3. Compute-call counts from a sequential pass: deterministic on any
  // host, so the fraction gates unconditionally.
  IcmOptions seq_options;
  seq_options.num_workers = 8;
  const RecomputeSample counted = RecomputePass(w, source, seq_options);
  const double call_fraction =
      counted.full_calls > 0
          ? static_cast<double>(counted.inc_calls) /
                static_cast<double>(counted.full_calls)
          : 1.0;

  // 4. Versioned registry appends at two base sizes, 4x apart.
  const int kVersionedAppends = 40;
  VersionedSample versioned[2];
  for (int i = 0; i < 2; ++i) {
    const TemporalGraph rd =
        Generate(DatasetByName("reddit", scale * (i == 0 ? 1 : 4)).options);
    versioned[i] = VersionedAppendPass(rd, kVersionedAppends);
  }
  const VersionedSample& small = versioned[0];
  const VersionedSample& large = versioned[1];
  const double alloc_growth =
      small.allocs_per_append > 0
          ? large.allocs_per_append / small.allocs_per_append
          : 0.0;
  const double compact_alloc_growth =
      small.compact_allocs_per_append > 0
          ? large.compact_allocs_per_append / small.compact_allocs_per_append
          : 0.0;
  for (const VersionedSample& v : versioned) {
    std::printf(
        "  registry append (%zu V / %zu E, previous version pinned): "
        "%.3f ms, %.0f allocs; compacting: %.3f ms, %.0f allocs\n",
        v.base_vertices, v.base_edges, v.append_ms, v.allocs_per_append,
        v.compact_append_ms, v.compact_allocs_per_append);
  }

  std::printf(
      "  append: %.2f ms for %zu entities (%.0f entities/s)\n"
      "  recompute: incremental %.2f ms vs full %.2f ms (%.2fx), "
      "%lld vs %lld compute calls (%.1f%% of the work), states identical\n",
      append_ms, w.append_entities, appends_per_sec, timed.inc_ms,
      timed.full_ms, speedup, static_cast<long long>(counted.inc_calls),
      static_cast<long long>(counted.full_calls), 100.0 * call_fraction);

  JsonWriter json(2);
  json.BeginObject();
  json.Key("bench").String("ingest");
  json.Key("scale").Fixed(scale, 2);
  json.Key("hardware_concurrency").Int(threads);
  json.Key("accounts").Int(accounts);
  json.Key("events").Int(events);
  json.Key("horizon").Int(horizon);
  json.Key("base_vertices").Int(static_cast<int64_t>(w.base.num_vertices()));
  json.Key("base_edges").Int(static_cast<int64_t>(w.base.num_edges()));
  json.Key("batches").Int(static_cast<int64_t>(w.batches.size()));
  json.Key("append_entities").Int(static_cast<int64_t>(w.append_entities));
  json.Key("append_edges").Int(static_cast<int64_t>(w.append_edges));
  json.Key("append_ms").Fixed(append_ms, 3);
  json.Key("appends_per_sec").Fixed(appends_per_sec, 1);
  json.Key("incremental_ms").Fixed(timed.inc_ms, 3);
  json.Key("full_ms").Fixed(timed.full_ms, 3);
  json.Key("incremental_speedup").Fixed(speedup, 2);
  json.Key("incremental_calls").Int(counted.inc_calls);
  json.Key("full_calls").Int(counted.full_calls);
  json.Key("compute_call_fraction").Fixed(call_fraction, 4);
  json.Key("registry_append").BeginArray();
  for (const VersionedSample& v : versioned) {
    json.BeginObject();
    json.Key("base_vertices").Int(static_cast<int64_t>(v.base_vertices));
    json.Key("base_edges").Int(static_cast<int64_t>(v.base_edges));
    json.Key("append_ms").Fixed(v.append_ms, 4);
    json.Key("allocs_per_append").Fixed(v.allocs_per_append, 1);
    json.Key("compact_append_ms").Fixed(v.compact_append_ms, 4);
    json.Key("compact_allocs_per_append")
        .Fixed(v.compact_allocs_per_append, 1);
    json.EndObject();
  }
  json.EndArray();
  json.Key("gated").BeginObject();
  // The ingest acceptance: warm restarts must beat full recomputes, and
  // the fixed points must agree (RecomputePass aborts on mismatch, so
  // reaching this write means they did). Both encoded as robust gates:
  // the states flag and call fraction are deterministic; raw speedup and
  // append rate are timing and so strict-mode / same-host only.
  GateEntry(&json, "ingest_states_match", 1.0, "higher", /*timing=*/false);
  GateEntry(&json, "ingest_compute_call_fraction", call_fraction, "lower",
            /*timing=*/false);
  GateEntry(&json, "ingest_incremental_speedup", speedup, "higher",
            /*timing=*/true);
  GateEntry(&json, "ingest_appends_per_sec", appends_per_sec, "higher",
            /*timing=*/true);
  // Versioned appends: the allocation count is exact and must not grow
  // with the base (growth ratio ~1 between bases 4x apart).
  GateEntry(&json, "ingest_registry_append_allocs", large.allocs_per_append,
            "lower", /*timing=*/false);
  GateEntry(&json, "ingest_registry_append_alloc_growth", alloc_growth,
            "lower", /*timing=*/false);
  GateEntry(&json, "ingest_registry_append_ms", large.append_ms, "lower",
            /*timing=*/true);
  // Compacting appends: the same, counting the new base's build and the
  // release of the pinned version's.
  GateEntry(&json, "ingest_registry_compact_allocs",
            large.compact_allocs_per_append, "lower", /*timing=*/false);
  GateEntry(&json, "ingest_registry_compact_alloc_growth",
            compact_alloc_growth, "lower", /*timing=*/false);
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
