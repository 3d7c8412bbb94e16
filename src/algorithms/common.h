// Shared helpers for the algorithm library: infinity sentinels, graph
// reversal / undirection (for LD, SCC, WCC), per-vertex temporal
// out-degree profiles (PageRank), and the TemporalResult representation
// used to compare outcomes across platforms. The reversed and undirected
// graphs come from TemporalGraph::Filter's sealed-base writer, one array
// pass over the source (DESIGN.md §4l).
#ifndef GRAPHITE_ALGORITHMS_COMMON_H_
#define GRAPHITE_ALGORITHMS_COMMON_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/temporal_graph.h"
#include "temporal/interval_map.h"

namespace graphite {

/// "Unreached" cost/arrival sentinel for path algorithms.
inline constexpr int64_t kInfCost = std::numeric_limits<int64_t>::max();
/// "No departure possible" sentinel for latest-departure.
inline constexpr int64_t kNegInf = std::numeric_limits<int64_t>::min();

/// Per-vertex, per-time-point algorithm output, used to compare platforms:
/// result[v] maps time intervals to the algorithm's value for vertex v.
template <typename V>
using TemporalResult = std::vector<IntervalMap<V>>;

/// Value of `result[v]` at time t; `absent` when no entry covers t.
template <typename V>
V ResultAt(const TemporalResult<V>& result, VertexIdx v, TimePoint t,
           V absent) {
  auto val = result[v].Get(t);
  return val ? *val : absent;
}

/// Folds each vertex's interval entries into one value: out[v] starts at
/// `init` and `fold(out[v], entry)` runs over v's entries in time order.
/// The runners reduce ICM and GoFFish states to their per-vertex answers
/// with it (earliest arrival, latest departure, ...).
template <typename T, typename V, typename Fold>
std::vector<T> FoldPerVertex(const TemporalResult<V>& states, const T& init,
                             Fold fold) {
  std::vector<T> out(states.size(), init);
  for (size_t v = 0; v < states.size(); ++v) {
    for (const auto& entry : states[v].entries()) fold(out[v], entry);
  }
  return out;
}

/// The reversed graph: every edge (u -> v) becomes (v -> u), keeping ids,
/// lifespans and properties. Used by LD (reverse traversal in space and
/// time) and the backward phases of SCC.
TemporalGraph ReverseGraph(const TemporalGraph& g);

/// The undirected expansion: every edge (u -> v) at position p in `g` is
/// kept and followed by a reverse edge (v -> u) with id
/// max(0, max eid) + 1 + p, duplicating lifespan and properties. Used by
/// WCC.
TemporalGraph MakeUndirected(const TemporalGraph& g);

/// Temporal out-degree profile of every vertex: profile[v] maps each
/// interval to the number of out-edges alive throughout it (gaps where the
/// out-degree is zero). Used by PageRank's rank shares.
std::vector<IntervalMap<int64_t>> OutDegreeProfiles(const TemporalGraph& g);

}  // namespace graphite

#endif  // GRAPHITE_ALGORITHMS_COMMON_H_
