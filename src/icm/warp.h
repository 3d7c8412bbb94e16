// The time-join and time-warp operators (paper §IV-B).
//
// Time-join (Soo/Snodgrass/Jensen, ICDE'94) intersects every (interval,
// value) pair of an outer and an inner set. Time-warp is a temporal
// self-join over the time-join: it slices time at the boundary points of
// the join results and, per slice, groups every inner value live in that
// slice with the (unique) outer value live there. Warp output drives one
// Compute invocation per tuple and guarantees (paper, Properties 1-4):
//   1. Valid inclusion    — every overlapping (state, message) pair appears
//                           at each shared time-point;
//   2. No invalid inclusion — nothing appears at a time-point where either
//                           side does not exist;
//   3. No duplication     — an outer value covers each of its time-points
//                           in at most one tuple;
//   4. Maximal            — adjacent/overlapping tuples with equal state
//                           value and equal message group are merged, so
//                           the user logic is invoked minimally often.
//
// Implementation: a branch-lean TWO-PASS kernel per outer entry (replacing
// the earlier event-queue plane sweep that maintained a sorted live set
// with per-event memmoves).
//
//   Endpoint pass   Every inner item is clipped against the entry with a
//                   predictable min/max overlap test into SoA endpoint
//                   arrays (start[] / end[] pulled out of the tuple
//                   structs); the two arrays are sorted independently on a
//                   single scalar key and merged into the distinct slice
//                   boundaries, each item's live slice range [first, past)
//                   falling out of the merge. Per-slice live counts come
//                   from a difference array + prefix sum.
//   Payload pass    Slices are walked in time order deciding emission vs
//                   maximality merge, then groups are materialized with
//                   one counting scatter over the clip list. The clip
//                   list is in arrival order, so every group span lists
//                   inner indices in arrival (inbox) order, including
//                   after merges — merging keeps the earlier tuple's
//                   group (tests/warp_test.cc pins this guarantee).
//
// The maximality merge (Property 4) is decided per boundary: within an
// unbroken run of non-empty slices, adjacent groups differ exactly by the
// items ending/starting at the shared boundary, so multiset equality
// reduces to comparing those (tiny) boundary deltas instead of re-matching
// whole groups. Only chain breaks (entry boundaries) fall back to the full
// quadratic multiset match.
//
// Hot-path layout: the engines call the allocation-free *Into entry
// points. Warp output is a flat structure-of-arrays (WarpOutput) — one
// shared inner-index pool with an (offset, count) span per tuple instead
// of a vector-of-vectors — and all kernel state lives in arena-backed
// scratch (WarpScratch) that is reused across vertices and reclaimed at
// superstep barriers.
//
// The original allocating API (TimeWarp / TimeWarpCombine returning
// std::vector) remains as a thin shim over the *Into forms: it is the
// measured "vector-of-vectors" baseline of bench/bench_warp_alloc and the
// second API exercised by the property tests.
#ifndef GRAPHITE_ICM_WARP_H_
#define GRAPHITE_ICM_WARP_H_

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "temporal/interval.h"
#include "temporal/interval_map.h"
#include "util/arena.h"
#include "util/status.h"
#include "util/timer.h"

namespace graphite {

/// One (interval, value) item of the inner set (e.g. a received message).
template <typename V>
struct TemporalItem {
  Interval interval;
  V value;

  bool operator==(const TemporalItem& other) const {
    return interval == other.interval && value == other.value;
  }
};

/// One output triple of the time-join.
template <typename S, typename M>
struct TimeJoinTuple {
  Interval interval;      ///< tau_s intersect tau_m.
  uint32_t outer_index;   ///< Index into the outer set.
  uint32_t inner_index;   ///< Index into the inner set.
};

/// One output triple of the time-warp in the legacy allocating API: a
/// maximal sub-interval, the outer value live there (by index), and the
/// group of inner values live there (by index, in arrival order).
struct WarpTuple {
  Interval interval;
  uint32_t outer_index = 0;
  std::vector<uint32_t> inner_indices;  // lint:allow(vector: legacy allocating shim, kept for API compat)
};

/// An (offset, count) span into WarpOutput's shared inner-index pool.
struct WarpGroup {
  uint32_t offset = 0;
  uint32_t count = 0;
};

/// One output triple of the flat time-warp; the group indices live in the
/// owning WarpOutput's pool.
struct FlatWarpTuple {
  Interval interval;
  uint32_t outer_index = 0;
  WarpGroup group;
};

/// Per-kernel counters (and optional pass timings) for the two-pass merge.
/// The engines accumulate the counters into SuperstepMetrics; the benches
/// additionally set `timed` to attribute time to the endpoint vs payload
/// pass. A null WarpStats* costs the kernels nothing.
struct WarpStats {
  int64_t slices = 0;       ///< Non-empty slices considered for emission.
  int64_t merge_hits = 0;   ///< Slices coalesced into the previous tuple.
  int64_t tuples = 0;       ///< Tuples emitted after the maximality merge.
  int64_t endpoint_ns = 0;  ///< Endpoint pass time (only when `timed`).
  int64_t payload_ns = 0;   ///< Payload pass time (only when `timed`).
  bool timed = false;       ///< Sample NowNanos around the passes.
};

/// Time-join: all pairwise intersections, ordered by (outer, inner) index.
/// The outer set must be temporally partitioned (disjoint intervals).
template <typename S, typename M>
std::vector<TimeJoinTuple<S, M>> TimeJoin(  // lint:allow(vector: naive O(n^2) reference, tests only)
    std::span<const typename IntervalMap<S>::Entry> outer,
    std::span<const TemporalItem<M>> inner) {
  std::vector<TimeJoinTuple<S, M>> out;  // lint:allow(vector: naive O(n^2) reference, tests only)
  for (uint32_t i = 0; i < outer.size(); ++i) {
    for (uint32_t j = 0; j < inner.size(); ++j) {
      const Interval isect = outer[i].interval.Intersect(inner[j].interval);
      if (isect.IsValid()) out.push_back({isect, i, j});
    }
  }
  return out;
}

namespace warp_internal {

/// One clipped interval endpoint: its time and the clip-list position of
/// the item it belongs to. Sorted on the single scalar key.
struct Endpoint {
  TimePoint time;
  uint32_t pos;
};

/// Payload-pass sentinel: slice has no reserved pool span (it merged).
inline constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

}  // namespace warp_internal

/// Reusable two-pass kernel state shared by every warp invocation of one
/// OS thread. All buffers are arena-backed; the owner resets the arena at
/// superstep barriers (after Release).
struct WarpScratch {
  void Attach(Arena* arena) {
    item.Attach(arena);
    starts.Attach(arena);
    ends.Attach(arena);
    bounds.Attach(arena);
    first.Attach(arena);
    past.Attach(arena);
    live_count.Attach(arena);
    cursor.Attach(arena);
    live.Attach(arena);
    used.Attach(arena);
  }
  void Release() {
    item.Release();
    starts.Release();
    ends.Release();
    bounds.Release();
    first.Release();
    past.Release();
    live_count.Release();
    cursor.Release();
    live.Release();
    used.Release();
  }

  // Endpoint-pass SoA state, rebuilt per outer entry:
  ArenaVec<uint32_t> item;    ///< clip list: inner indices, arrival order
  ArenaVec<warp_internal::Endpoint> starts;  ///< clipped starts, by time
  ArenaVec<warp_internal::Endpoint> ends;    ///< clipped ends, by time
  ArenaVec<TimePoint> bounds;    ///< distinct slice boundary times
  ArenaVec<uint32_t> first;      ///< per clip item: first live slice
  ArenaVec<uint32_t> past;       ///< per clip item: one past last live slice
  ArenaVec<int32_t> live_count;  ///< per slice: live items (diff -> prefix)
  // Payload-pass state:
  ArenaVec<uint32_t> cursor;  ///< per slice: pool scatter cursor / kNoSlot
  ArenaVec<uint32_t> live;    ///< gathered group / per-slice item runs
  ArenaVec<char> used;        ///< multiset-match scratch
};

/// Flat structure-of-arrays warp output: tuples plus one shared pool of
/// inner indices addressed by per-tuple (offset, count) spans. Reused
/// across vertices (clear) within a superstep; storage is reclaimed by
/// the backing arena at barriers (Release).
class WarpOutput {
 public:
  void Attach(Arena* arena) {
    tuples_.Attach(arena);
    pool_.Attach(arena);
  }
  void Release() {
    tuples_.Release();
    pool_.Release();
  }
  void clear() {
    tuples_.clear();
    pool_.clear();
  }

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  const FlatWarpTuple& operator[](size_t i) const { return tuples_[i]; }
  std::span<const FlatWarpTuple> tuples() const { return tuples_.span(); }

  /// The tuple's group of inner indices, in arrival order.
  std::span<const uint32_t> group(const FlatWarpTuple& t) const {
    return pool_.subspan(t.group.offset, t.group.count);
  }
  std::span<const uint32_t> group(size_t i) const {
    return group(tuples_[i]);
  }

  /// Kernel-internal: appends a tuple reserving `count` uninitialized pool
  /// slots for the payload pass to fill; returns the reserved offset.
  uint32_t EmitReserve(const Interval& interval, uint32_t outer_index,
                       uint32_t count) {
    const uint32_t offset = static_cast<uint32_t>(pool_.size());
    tuples_.push_back({interval, outer_index, {offset, count}});
    pool_.ResizeUninitialized(pool_.size() + count);
    return offset;
  }
  /// Kernel-internal: raw pool storage for the payload scatter. Only valid
  /// until the next EmitReserve (the pool may relocate).
  uint32_t* pool_data() { return pool_.data(); }
  /// Kernel-internal: the previously emitted tuple, or nullptr.
  FlatWarpTuple* last() {
    return tuples_.empty() ? nullptr : &tuples_.back();
  }

 private:
  ArenaVec<FlatWarpTuple> tuples_;
  ArenaVec<uint32_t> pool_;
};

namespace warp_internal {

/// Endpoint pass shared by both kernels: clips every inner item against
/// `entry_interval` (a branch-predictable min/max overlap test over the
/// scalar endpoints), sorts the clipped start[] and end[] arrays
/// independently, merges the two sorted streams into the distinct slice
/// boundary times — each item's live slice range [first, past) falls out
/// of the merge — and computes per-slice live counts with a difference
/// array + prefix sum. Returns false when nothing overlaps the entry.
template <typename M>
bool BuildSlices(std::span<const TemporalItem<M>> inner,
                 const Interval& entry_interval, WarpScratch* s) {
  auto& item = s->item;
  auto& starts = s->starts;
  auto& ends = s->ends;
  item.clear();
  starts.clear();
  ends.clear();
  const TimePoint es = entry_interval.start;
  const TimePoint ee = entry_interval.end;
  uint32_t c = 0;
  for (uint32_t j = 0; j < inner.size(); ++j) {
    const TimePoint cs = std::max(inner[j].interval.start, es);
    const TimePoint ce = std::min(inner[j].interval.end, ee);
    if (cs >= ce) continue;
    item.push_back(j);
    starts.push_back({cs, c});
    ends.push_back({ce, c});
    ++c;
  }
  if (c == 0) return false;

  const auto by_time = [](const Endpoint& a, const Endpoint& b) {
    return a.time != b.time ? a.time < b.time : a.pos < b.pos;
  };
  std::sort(starts.data(), starts.data() + c, by_time);
  std::sort(ends.data(), ends.data() + c, by_time);

  auto& bounds = s->bounds;
  auto& first = s->first;
  auto& past = s->past;
  bounds.clear();
  first.ResizeUninitialized(c);
  past.ResizeUninitialized(c);
  uint32_t si = 0;
  uint32_t ei = 0;
  while (ei < c) {
    TimePoint t = ends[ei].time;
    if (si < c && starts[si].time < t) t = starts[si].time;
    const uint32_t slice = static_cast<uint32_t>(bounds.size());
    bounds.push_back(t);
    while (si < c && starts[si].time == t) first[starts[si++].pos] = slice;
    while (ei < c && ends[ei].time == t) past[ends[ei++].pos] = slice;
  }
  // Every start precedes its end, so the merged stream consumes them all.
  GRAPHITE_CHECK(si == c);
  const size_t num_slices = bounds.size() - 1;

  auto& live_count = s->live_count;
  live_count.ResizeUninitialized(bounds.size());
  std::memset(live_count.data(), 0, bounds.size() * sizeof(int32_t));
  for (uint32_t k = 0; k < c; ++k) {
    ++live_count[first[k]];
    --live_count[past[k]];
  }
  int32_t running = 0;
  for (size_t x = 0; x < num_slices; ++x) {
    running += live_count[x];
    live_count[x] = running;
  }
  GRAPHITE_CHECK(running + live_count[num_slices] == 0);
  return true;
}

}  // namespace warp_internal

/// Time-warp over a temporally partitioned outer set and an arbitrary
/// inner set, into flat SoA output. Steady-state allocation-free: kernel
/// state and output grow out of the scratch/output arenas, which the
/// caller resets at superstep barriers.
///
/// The maximality merge (Property 4) is applied at emission time: a slice
/// whose (state value, message-value multiset) matches the previous tuple
/// and meets it in time extends that tuple in place. This is equivalent
/// to the formal post-pass merge because tuples are emitted in temporal
/// order and merging keeps the earlier tuple's (arrival-ordered) group.
template <typename S, typename M>
void TimeWarpInto(std::span<const typename IntervalMap<S>::Entry> outer,
                  std::span<const TemporalItem<M>> inner,
                  WarpScratch* scratch, WarpOutput* out,
                  WarpStats* stats = nullptr) {
  using warp_internal::kNoSlot;
  out->clear();
  if (outer.empty() || inner.empty()) return;

  // Multiset equality of the previous tuple's group and a gathered live
  // set, by message value (only == required of the payload; identity
  // implies value equality). Quadratic, but it runs only where the
  // boundary-delta check cannot — chain breaks, i.e. entry boundaries.
  const auto multiset_equal = [&](std::span<const uint32_t> prev_group,
                                  std::span<const uint32_t> live) {
    auto& used = scratch->used;
    used.ResizeUninitialized(live.size());
    std::memset(used.data(), 0, live.size());
    for (const uint32_t ai : prev_group) {
      bool matched = false;
      for (size_t j = 0; j < live.size(); ++j) {
        if (used[j]) continue;
        if (ai == live[j] || inner[ai].value == inner[live[j]].value) {
          used[j] = 1;
          matched = true;
          break;
        }
      }
      if (!matched) return false;
    }
    return true;
  };

  for (const auto& entry : outer) {
    GRAPHITE_CHECK(entry.interval.IsValid());
    const bool timed = stats != nullptr && stats->timed;
    const int64_t t0 = timed ? NowNanos() : 0;
    const bool any = warp_internal::BuildSlices(inner, entry.interval, scratch);
    const int64_t t1 = timed ? NowNanos() : 0;
    if (timed) stats->endpoint_ns += t1 - t0;
    if (!any) continue;
    const uint32_t outer_index =
        static_cast<uint32_t>(&entry - outer.data());

    const auto& item = scratch->item;
    const auto& starts = scratch->starts;
    const auto& ends = scratch->ends;
    const auto& bounds = scratch->bounds;
    const auto& first = scratch->first;
    const auto& past = scratch->past;
    const auto& live_count = scratch->live_count;
    const uint32_t c = static_cast<uint32_t>(item.size());
    const size_t num_slices = bounds.size() - 1;

    auto& cursor = scratch->cursor;
    cursor.ResizeUninitialized(num_slices);
    std::memset(cursor.data(), 0xFF, num_slices * sizeof(uint32_t));

    // Emission walk: boundary event runs are contiguous in the sorted
    // endpoint arrays, consumed by two cursors as the walk advances.
    uint32_t sp = 0;
    uint32_t ep = 0;
    for (size_t x = 0; x < num_slices; ++x) {
      const uint32_t s0 = sp;
      while (sp < c && starts[sp].time == bounds[x]) ++sp;
      const uint32_t e0 = ep;
      while (ep < c && ends[ep].time == bounds[x]) ++ep;
      const int32_t live_here = live_count[x];
      if (live_here == 0) continue;
      const Interval slice(bounds[x], bounds[x + 1]);
      FlatWarpTuple* last = out->last();
      bool merge = false;
      if (last != nullptr && last->interval.end == slice.start) {
        if (x > 0 && live_count[x - 1] > 0) {
          // Unbroken within-entry chain: the previous slice extended
          // `last` (its group is multiset-equal to that slice's live set),
          // so equality with this slice reduces to the boundary delta —
          // the values ending here must match the values starting here.
          // The outer value matched when the chain began, transitively.
          const uint32_t ns = sp - s0;
          const uint32_t ne = ep - e0;
          if (ns == ne) {
            merge = true;
            auto& used = scratch->used;
            used.ResizeUninitialized(ns);
            std::memset(used.data(), 0, ns);
            for (uint32_t e = e0; e < ep && merge; ++e) {
              bool matched = false;
              for (uint32_t k = 0; k < ns; ++k) {
                if (used[k]) continue;
                if (inner[item[ends[e].pos]].value ==
                    inner[item[starts[s0 + k].pos]].value) {
                  used[k] = 1;
                  matched = true;
                  break;
                }
              }
              merge = matched;
            }
          }
        } else if (outer[last->outer_index].value ==
                       outer[outer_index].value &&
                   last->group.count == static_cast<uint32_t>(live_here)) {
          // Chain break that still meets in time (an entry boundary):
          // gather this slice's live set and run the full multiset match.
          auto& live = scratch->live;
          live.clear();
          for (uint32_t k = 0; k < c; ++k) {
            if (first[k] <= x && x < past[k]) live.push_back(item[k]);
          }
          merge = multiset_equal(out->group(*last), live.span());
        }
      }
      if (merge) {
        last->interval.end = slice.end;
        if (stats != nullptr) ++stats->merge_hits;
      } else {
        cursor[x] = out->EmitReserve(slice, outer_index,
                                     static_cast<uint32_t>(live_here));
      }
      if (stats != nullptr) ++stats->slices;
    }

    // Payload pass: one counting scatter over the (arrival-ordered) clip
    // list fills every reserved group span in arrival order.
    uint32_t* pool = out->pool_data();
    for (uint32_t k = 0; k < c; ++k) {
      const uint32_t j = item[k];
      for (uint32_t x = first[k]; x < past[k]; ++x) {
        const uint32_t cur = cursor[x];
        if (cur == kNoSlot) continue;
        pool[cur] = j;
        cursor[x] = cur + 1;
      }
    }
    if (timed) stats->payload_ns += NowNanos() - t1;
  }
  if (stats != nullptr) stats->tuples += static_cast<int64_t>(out->size());
}

/// Legacy allocating time-warp: the vector-of-vectors API kept as a shim
/// over TimeWarpInto for tests, callers outside the superstep hot path,
/// and as the measured baseline of bench/bench_warp_alloc.
template <typename S, typename M>
std::vector<WarpTuple> TimeWarp(  // lint:allow(vector: legacy allocating shim over TimeWarpInto)
    std::span<const typename IntervalMap<S>::Entry> outer,
    std::span<const TemporalItem<M>> inner) {
  Arena arena;
  WarpScratch scratch;
  scratch.Attach(&arena);
  WarpOutput flat;
  flat.Attach(&arena);
  TimeWarpInto<S, M>(outer, inner, &scratch, &flat);

  std::vector<WarpTuple> out;  // lint:allow(vector: legacy allocating shim over TimeWarpInto)
  out.reserve(flat.size());
  for (size_t i = 0; i < flat.size(); ++i) {
    const std::span<const uint32_t> group = flat.group(i);
    out.push_back({flat[i].interval, flat[i].outer_index,
                   std::vector<uint32_t>(group.begin(), group.end())});  // lint:allow(vector: legacy allocating shim over TimeWarpInto)
  }
  return out;
}

/// One output triple of the combining time-warp: the message group is
/// folded to a single payload during the sweep (§VI inline warp combiner),
/// so no per-tuple index vectors are materialized.
template <typename M>
struct CombinedWarpTuple {
  Interval interval;
  uint32_t outer_index = 0;
  M combined;
  uint32_t group_size = 0;
};

/// Time-warp with an inline combiner, into a reused output vector
/// (SuperstepVec<CombinedWarpTuple<M>> in the engines; any container with
/// the same interface works). Identical slicing to TimeWarpInto, but each
/// tuple carries fold(combine, values of the live group). The maximality
/// merge coalesces — in place, at emission — adjacent tuples with equal
/// state value and equal combined payload: the compute call sequence is
/// exactly what the non-combining warp plus a post-fold would produce for
/// commutative/associative combiners.
template <typename S, typename M, typename Combine, typename OutVec>
void TimeWarpCombineInto(
    std::span<const typename IntervalMap<S>::Entry> outer,
    std::span<const TemporalItem<M>> inner, Combine&& combine,
    WarpScratch* scratch, OutVec* out, WarpStats* stats = nullptr) {
  out->clear();
  if (outer.empty() || inner.empty()) return;

  for (const auto& entry : outer) {
    GRAPHITE_CHECK(entry.interval.IsValid());
    const bool timed = stats != nullptr && stats->timed;
    const int64_t t0 = timed ? NowNanos() : 0;
    const bool any = warp_internal::BuildSlices(inner, entry.interval, scratch);
    const int64_t t1 = timed ? NowNanos() : 0;
    if (timed) stats->endpoint_ns += t1 - t0;
    if (!any) continue;
    const uint32_t outer_index =
        static_cast<uint32_t>(&entry - outer.data());

    const auto& item = scratch->item;
    const auto& bounds = scratch->bounds;
    const auto& first = scratch->first;
    const auto& past = scratch->past;
    const auto& live_count = scratch->live_count;
    const uint32_t c = static_cast<uint32_t>(item.size());
    const size_t num_slices = bounds.size() - 1;

    // Materialize per-slice live runs (arrival order) with one counting
    // scatter; its total work equals the folds below, so nothing here is
    // asymptotically extra. After the scatter, cursor[x] is the END of
    // slice x's run (its start is cursor[x] - live_count[x]).
    auto& cursor = scratch->cursor;
    auto& runs = scratch->live;
    cursor.ResizeUninitialized(num_slices);
    uint32_t total = 0;
    for (size_t x = 0; x < num_slices; ++x) {
      cursor[x] = total;
      total += static_cast<uint32_t>(live_count[x]);
    }
    runs.ResizeUninitialized(total);
    for (uint32_t k = 0; k < c; ++k) {
      const uint32_t j = item[k];
      for (uint32_t x = first[k]; x < past[k]; ++x) runs[cursor[x]++] = j;
    }

    for (size_t x = 0; x < num_slices; ++x) {
      const int32_t live_here = live_count[x];
      if (live_here == 0) continue;
      const Interval slice(bounds[x], bounds[x + 1]);
      const uint32_t run_end = cursor[x];
      const uint32_t run_begin = run_end - static_cast<uint32_t>(live_here);
      M folded = inner[runs[run_begin]].value;
      for (uint32_t i = run_begin + 1; i < run_end; ++i) {
        folded = combine(folded, inner[runs[i]].value);
      }
      CombinedWarpTuple<M>* last = out->empty() ? nullptr : &out->back();
      if (last != nullptr && last->interval.Meets(slice) &&
          outer[last->outer_index].value == outer[outer_index].value &&
          last->combined == folded) {
        last->interval.end = slice.end;
        last->group_size += static_cast<uint32_t>(live_here);
        if (stats != nullptr) ++stats->merge_hits;
      } else {
        out->push_back({slice, outer_index, std::move(folded),
                        static_cast<uint32_t>(live_here)});
      }
      if (stats != nullptr) ++stats->slices;
    }
    if (timed) stats->payload_ns += NowNanos() - t1;
  }
  if (stats != nullptr) stats->tuples += static_cast<int64_t>(out->size());
}

/// Legacy allocating combine-warp shim (tests and non-hot-path callers).
template <typename S, typename M, typename Combine>
std::vector<CombinedWarpTuple<M>> TimeWarpCombine(  // lint:allow(vector: legacy allocating shim over TimeWarpCombineInto)
    std::span<const typename IntervalMap<S>::Entry> outer,
    std::span<const TemporalItem<M>> inner, Combine&& combine) {
  Arena arena;
  WarpScratch scratch;
  scratch.Attach(&arena);
  SuperstepVec<CombinedWarpTuple<M>> flat;
  flat.Attach(&arena);
  TimeWarpCombineInto<S, M>(outer, inner,
                            std::forward<Combine>(combine), &scratch,
                            &flat);
  std::vector<CombinedWarpTuple<M>> out;  // lint:allow(vector: legacy allocating shim over TimeWarpCombineInto)
  out.reserve(flat.size());
  for (size_t i = 0; i < flat.size(); ++i) out.push_back(flat[i]);
  return out;
}

}  // namespace graphite

#endif  // GRAPHITE_ICM_WARP_H_
