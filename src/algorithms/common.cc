#include "algorithms/common.h"

#include <algorithm>
#include <map>

namespace graphite {

// Both are Filter's sealed-base writer keeping every entity, with the
// edges laid out reversed or doubled (DESIGN.md §4l).
TemporalGraph ReverseGraph(const TemporalGraph& g) {
  return TemporalGraph::WriteBase(g, Interval::All(), nullptr, nullptr,
                                  TemporalGraph::EdgeLayout::kReversed);
}

TemporalGraph MakeUndirected(const TemporalGraph& g) {
  return TemporalGraph::WriteBase(g, Interval::All(), nullptr, nullptr,
                                  TemporalGraph::EdgeLayout::kUndirected);
}

std::vector<IntervalMap<int64_t>> OutDegreeProfiles(const TemporalGraph& g) {
  std::vector<IntervalMap<int64_t>> profiles(g.num_vertices());
  std::map<TimePoint, int64_t> deltas;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    deltas.clear();
    for (const StoredEdge& e : g.OutEdges(v)) {
      if (!e.interval.IsValid()) continue;
      deltas[e.interval.start] += 1;
      if (e.interval.end != kTimeMax) deltas[e.interval.end] -= 1;
    }
    int64_t running = 0;
    TimePoint prev = 0;
    for (const auto& [t, d] : deltas) {
      if (running > 0 && t > prev) {
        profiles[v].Set(Interval(prev, t), running);
      }
      running += d;
      prev = t;
    }
    if (running > 0) profiles[v].Set(Interval(prev, kTimeMax), running);
    profiles[v].Coalesce();
  }
  return profiles;
}

}  // namespace graphite
