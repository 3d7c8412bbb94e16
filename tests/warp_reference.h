// The time-warp reference and legacy API, kept outside the library: the
// naive O(n^2) time-join the property tests check the kernels against,
// and the allocating vector-of-vectors shims over TimeWarpInto /
// TimeWarpCombineInto (icm/warp.h). The tests exercise the kernels through
// the shims, and bench/bench_warp_alloc and bench/micro_warp time the shim
// as the legacy baseline of the flat *Into forms.
#ifndef GRAPHITE_TESTS_WARP_REFERENCE_H_
#define GRAPHITE_TESTS_WARP_REFERENCE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "icm/warp.h"

namespace graphite {

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
  std::vector<uint32_t> inner_indices;
};

/// Time-join: all pairwise intersections, ordered by (outer, inner) index.
/// The outer set must be temporally partitioned (disjoint intervals).
template <typename S, typename M>
std::vector<TimeJoinTuple<S, M>> TimeJoin(
    std::span<const typename IntervalMap<S>::Entry> outer,
    std::span<const TemporalItem<M>> inner) {
  std::vector<TimeJoinTuple<S, M>> out;
  for (uint32_t i = 0; i < outer.size(); ++i) {
    for (uint32_t j = 0; j < inner.size(); ++j) {
      const Interval isect = outer[i].interval.Intersect(inner[j].interval);
      if (isect.IsValid()) out.push_back({isect, i, j});
    }
  }
  return out;
}

/// Allocating time-warp: TimeWarpInto with its groups copied out into one
/// vector per tuple.
template <typename S, typename M>
std::vector<WarpTuple> TimeWarp(
    std::span<const typename IntervalMap<S>::Entry> outer,
    std::span<const TemporalItem<M>> inner) {
  Arena arena;
  WarpScratch scratch;
  scratch.Attach(&arena);
  WarpOutput flat;
  flat.Attach(&arena);
  TimeWarpInto<S, M>(outer, inner, &scratch, &flat);

  std::vector<WarpTuple> out;
  out.reserve(flat.size());
  for (size_t i = 0; i < flat.size(); ++i) {
    const std::span<const uint32_t> group = flat.group(i);
    out.push_back({flat[i].interval, flat[i].outer_index,
                   std::vector<uint32_t>(group.begin(), group.end())});
  }
  return out;
}

/// Allocating combining time-warp: TimeWarpCombineInto copied out into a
/// vector.
template <typename S, typename M, typename Combine>
std::vector<CombinedWarpTuple<M>> TimeWarpCombine(
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
  std::vector<CombinedWarpTuple<M>> out;
  out.reserve(flat.size());
  for (size_t i = 0; i < flat.size(); ++i) out.push_back(flat[i]);
  return out;
}

}  // namespace graphite

#endif  // GRAPHITE_TESTS_WARP_REFERENCE_H_
