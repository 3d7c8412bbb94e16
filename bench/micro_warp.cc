// Micro-benchmarks (google-benchmark) for the ICM hot paths:
//   * the time-warp operator at varying inbox sizes and state partition
//     counts (the paper's O(m log m) merge implementation),
//   * the interval-message codec (§VI: 59-78% message-size reduction vs
//     fixed-width encoding),
//   * IntervalMap::Set dynamic repartitioning.
//
// The warp benchmarks report ns_per_tuple and allocs_per_tuple (via the
// counting allocator hook in alloc_counter.h) for both the legacy
// vector-of-vectors API and the arena-backed SoA path, so the hot-path
// allocation behavior is visible without the full bench_warp_alloc run.
#define GRAPHITE_ALLOC_COUNTER_IMPL
#include "alloc_counter.h"

#include <benchmark/benchmark.h>

#include <algorithm>

#include "icm/message.h"
#include "icm/warp.h"
#include "temporal/interval_map.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/timer.h"
#include "../tests/warp_reference.h"

namespace graphite {
namespace {

std::vector<IntervalMap<int64_t>::Entry> MakeStates(int n, TimePoint horizon,
                                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<IntervalMap<int64_t>::Entry> out;
  TimePoint t = 0;
  for (int i = 0; i < n && t < horizon; ++i) {
    const TimePoint end =
        i == n - 1 ? horizon : rng.UniformRange(t + 1, horizon + 1);
    out.push_back({{t, end}, static_cast<int64_t>(rng.Uniform(1000))});
    t = end;
  }
  return out;
}

std::vector<TemporalItem<int64_t>> MakeMessages(int m, TimePoint horizon,
                                                uint64_t seed) {
  Rng rng(seed);
  std::vector<TemporalItem<int64_t>> out;
  for (int i = 0; i < m; ++i) {
    const TimePoint s = rng.UniformRange(0, horizon - 1);
    out.push_back({{s, rng.UniformRange(s + 1, horizon + 1)},
                   static_cast<int64_t>(rng.Uniform(1'000'000))});
  }
  return out;
}

void BM_TimeWarp(benchmark::State& state) {
  const int num_states = static_cast<int>(state.range(0));
  const int num_messages = static_cast<int>(state.range(1));
  const auto states = MakeStates(num_states, 1000, 1);
  const auto messages = MakeMessages(num_messages, 1000, 2);
  uint64_t tuples = 0;
  const uint64_t alloc0 = benchalloc::AllocCount();
  const int64_t t0 = NowNanos();
  for (auto _ : state) {
    auto warp = TimeWarp<int64_t, int64_t>(states, messages);
    tuples += warp.size();
    benchmark::DoNotOptimize(warp);
  }
  const int64_t elapsed = NowNanos() - t0;
  const uint64_t allocs = benchalloc::AllocCount() - alloc0;
  state.SetItemsProcessed(state.iterations() * num_messages);
  if (tuples > 0) {
    state.counters["ns_per_tuple"] =
        static_cast<double>(elapsed) / static_cast<double>(tuples);
    state.counters["allocs_per_tuple"] =
        static_cast<double>(allocs) / static_cast<double>(tuples);
  }
}
BENCHMARK(BM_TimeWarp)
    ->Args({1, 8})
    ->Args({1, 64})
    ->Args({4, 64})
    ->Args({16, 64})
    ->Args({4, 512})
    ->Args({16, 4096});

// The engines' steady-state path: flat SoA output and sweep scratch out of
// one arena, reset after each simulated superstep. allocs_per_tuple is
// expected to be ~0 once the arena's high-water mark is warm.
//
// The WarpStats counters attribute the two-pass kernel: merge_hit_rate is
// the fraction of non-empty slices the maximality merge coalesced (fewer
// Compute calls downstream), and endpoint_share_% is the fraction of the
// kernel's internally timed ns spent in the endpoint pass (clip + sort +
// boundary merge) versus payload materialization — so a future kernel
// change shows up as a shift in the split, not just total time.
void BM_TimeWarpInto(benchmark::State& state) {
  const int num_states = static_cast<int>(state.range(0));
  const int num_messages = static_cast<int>(state.range(1));
  const auto states = MakeStates(num_states, 1000, 1);
  const auto messages = MakeMessages(num_messages, 1000, 2);
  Arena arena;
  WarpScratch scratch;
  scratch.Attach(&arena);
  WarpOutput out;
  out.Attach(&arena);
  WarpStats stats;
  stats.timed = true;
  uint64_t tuples = 0;
  const uint64_t alloc0 = benchalloc::AllocCount();
  const int64_t t0 = NowNanos();
  for (auto _ : state) {
    TimeWarpInto<int64_t, int64_t>(states, messages, &scratch, &out, &stats);
    tuples += out.size();
    benchmark::DoNotOptimize(out);
    // Superstep barrier: release arena-backed buffers, decay the arena.
    scratch.Release();
    out.Release();
    arena.Reset();
  }
  const int64_t elapsed = NowNanos() - t0;
  const uint64_t allocs = benchalloc::AllocCount() - alloc0;
  state.SetItemsProcessed(state.iterations() * num_messages);
  if (tuples > 0) {
    state.counters["ns_per_tuple"] =
        static_cast<double>(elapsed) / static_cast<double>(tuples);
    state.counters["allocs_per_tuple"] =
        static_cast<double>(allocs) / static_cast<double>(tuples);
  }
  if (stats.slices > 0) {
    state.counters["merge_hit_rate"] =
        static_cast<double>(stats.merge_hits) /
        static_cast<double>(stats.slices);
    state.counters["endpoint_ns_per_tuple"] =
        static_cast<double>(stats.endpoint_ns) /
        static_cast<double>(std::max<int64_t>(1, stats.tuples));
    state.counters["payload_ns_per_tuple"] =
        static_cast<double>(stats.payload_ns) /
        static_cast<double>(std::max<int64_t>(1, stats.tuples));
    const int64_t pass_ns = stats.endpoint_ns + stats.payload_ns;
    if (pass_ns > 0) {
      state.counters["endpoint_share_%"] =
          100.0 * static_cast<double>(stats.endpoint_ns) /
          static_cast<double>(pass_ns);
    }
  }
}
BENCHMARK(BM_TimeWarpInto)
    ->Args({1, 8})
    ->Args({1, 64})
    ->Args({4, 64})
    ->Args({16, 64})
    ->Args({4, 512})
    ->Args({16, 4096});

// The §VI inline-combiner kernel, same counters: both passes share the
// endpoint pass with TimeWarpInto, so comparing the two payload splits
// isolates the cost of group materialization vs in-sweep folding.
void BM_TimeWarpCombineInto(benchmark::State& state) {
  const int num_states = static_cast<int>(state.range(0));
  const int num_messages = static_cast<int>(state.range(1));
  const auto states = MakeStates(num_states, 1000, 1);
  const auto messages = MakeMessages(num_messages, 1000, 2);
  Arena arena;
  WarpScratch scratch;
  scratch.Attach(&arena);
  SuperstepVec<CombinedWarpTuple<int64_t>> out;
  out.Attach(&arena);
  WarpStats stats;
  stats.timed = true;
  uint64_t tuples = 0;
  const int64_t t0 = NowNanos();
  for (auto _ : state) {
    TimeWarpCombineInto<int64_t, int64_t>(
        states, messages,
        [](int64_t a, int64_t b) { return std::min(a, b); }, &scratch, &out,
        &stats);
    tuples += out.size();
    benchmark::DoNotOptimize(out);
    scratch.Release();
    out.Release();
    arena.Reset();
  }
  const int64_t elapsed = NowNanos() - t0;
  state.SetItemsProcessed(state.iterations() * num_messages);
  if (tuples > 0) {
    state.counters["ns_per_tuple"] =
        static_cast<double>(elapsed) / static_cast<double>(tuples);
  }
  if (stats.slices > 0) {
    state.counters["merge_hit_rate"] =
        static_cast<double>(stats.merge_hits) /
        static_cast<double>(stats.slices);
    const int64_t pass_ns = stats.endpoint_ns + stats.payload_ns;
    if (pass_ns > 0) {
      state.counters["endpoint_share_%"] =
          100.0 * static_cast<double>(stats.endpoint_ns) /
          static_cast<double>(pass_ns);
    }
  }
}
BENCHMARK(BM_TimeWarpCombineInto)
    ->Args({4, 64})
    ->Args({4, 512})
    ->Args({16, 4096});

void BM_TimeJoin(benchmark::State& state) {
  const auto states = MakeStates(8, 1000, 1);
  const auto messages =
      MakeMessages(static_cast<int>(state.range(0)), 1000, 2);
  for (auto _ : state) {
    auto join = TimeJoin<int64_t, int64_t>(states, messages);
    benchmark::DoNotOptimize(join);
  }
}
BENCHMARK(BM_TimeJoin)->Arg(64)->Arg(512);

void BM_IntervalCodecEncode(benchmark::State& state) {
  const auto messages = MakeMessages(1024, 100000, 3);
  size_t varint_bytes = 0;
  for (auto _ : state) {
    Writer w;
    for (const auto& m : messages) WriteInterval(w, m.interval);
    varint_bytes = w.size();
    benchmark::DoNotOptimize(w);
  }
  // §VI headline: compression vs the fixed 16-byte interval encoding.
  state.counters["bytes_per_interval"] =
      static_cast<double>(varint_bytes) / 1024.0;
  state.counters["reduction_vs_fixed_%"] =
      100.0 * (1.0 - static_cast<double>(varint_bytes) /
                         static_cast<double>(1024 * kFixedIntervalWireSize));
}
BENCHMARK(BM_IntervalCodecEncode);

void BM_IntervalCodecUnitMessages(benchmark::State& state) {
  // Unit-length messages: single time-point + flag on the wire.
  Rng rng(4);
  std::vector<Interval> intervals;
  for (int i = 0; i < 1024; ++i) {
    const TimePoint t = rng.UniformRange(0, 200);
    intervals.push_back(Interval(t, t + 1));
  }
  size_t bytes = 0;
  for (auto _ : state) {
    Writer w;
    for (const Interval& iv : intervals) WriteInterval(w, iv);
    bytes = w.size();
    benchmark::DoNotOptimize(w);
  }
  state.counters["reduction_vs_fixed_%"] =
      100.0 * (1.0 - static_cast<double>(bytes) /
                         static_cast<double>(1024 * kFixedIntervalWireSize));
}
BENCHMARK(BM_IntervalCodecUnitMessages);

void BM_IntervalMapSet(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    IntervalMap<int64_t> map(Interval(0, 10000), 0);
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
      const TimePoint s = rng.UniformRange(0, 9999);
      map.Set(Interval(s, rng.UniformRange(s + 1, 10001)),
              static_cast<int64_t>(i));
    }
    benchmark::DoNotOptimize(map);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IntervalMapSet)->Arg(64)->Arg(512);

}  // namespace
}  // namespace graphite

BENCHMARK_MAIN();
