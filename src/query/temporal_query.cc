#include "query/temporal_query.h"

#include <algorithm>
#include <unordered_set>

#include "graph/builder.h"

namespace graphite {

namespace {

// Rebuilds a temporal graph from entity keep/clip decisions. `clip` is
// the window lifespans are intersected with (Interval::All() = no clip).
TemporalGraph Rebuild(
    const TemporalGraph& g, const Interval& clip,
    const std::function<bool(VertexIdx)>& keep_vertex,
    const std::function<bool(EdgePos)>& keep_edge) {
  TemporalGraphBuilder builder;
  std::vector<uint8_t> vertex_kept(g.num_vertices(), 0);
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    if (!keep_vertex(v)) continue;
    const Interval span = g.vertex_interval(v).Intersect(clip);
    if (span.IsEmpty()) continue;
    vertex_kept[v] = 1;
    builder.AddVertex(g.vertex_id(v), span);
    for (const auto& [label, map] : g.VertexProperties(v)) {
      for (const auto& entry : map.entries()) {
        const Interval pi = entry.interval.Intersect(span);
        if (pi.IsValid()) {
          builder.SetVertexProperty(g.vertex_id(v), g.LabelName(label), pi,
                                    entry.value);
        }
      }
    }
  }
  for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
    const StoredEdge& e = g.edge(pos);
    if (!vertex_kept[e.src] || !vertex_kept[e.dst] || !keep_edge(pos)) {
      continue;
    }
    // The edge must fit inside both clipped endpoint lifespans.
    Interval span = e.interval.Intersect(clip);
    span = span.Intersect(g.vertex_interval(e.src).Intersect(clip));
    span = span.Intersect(g.vertex_interval(e.dst).Intersect(clip));
    if (span.IsEmpty()) continue;
    builder.AddEdge(e.eid, g.vertex_id(e.src), g.vertex_id(e.dst), span);
    for (const auto& [label, map] : g.EdgeProperties(pos)) {
      for (const auto& entry : map.entries()) {
        const Interval pi = entry.interval.Intersect(span);
        if (pi.IsValid()) {
          builder.SetEdgeProperty(e.eid, g.LabelName(label), pi, entry.value);
        }
      }
    }
  }
  BuilderOptions options;
  options.horizon = g.horizon();
  auto result = builder.Build(options);
  GRAPHITE_CHECK(result.ok());
  return std::move(result).value();
}

}  // namespace

bool TemporalPredicate::Matches(const Interval& lifespan) const {
  switch (kind) {
    case Kind::kIntersects:
      return lifespan.Intersects(window);
    case Kind::kContainedIn:
      return lifespan.ContainedIn(window);
    case Kind::kContains:
      return window.ContainedIn(lifespan);
    case Kind::kAllen:
      return Classify(lifespan, window) == relation;
  }
  return false;
}

TemporalGraph TemporalSelect(const TemporalGraph& g,
                             const TemporalPredicate& pred) {
  return Rebuild(
      g, Interval::All(),
      [&](VertexIdx v) { return pred.Matches(g.vertex_interval(v)); },
      [&](EdgePos pos) { return pred.Matches(g.edge(pos).interval); });
}

TemporalGraph TimeSlice(const TemporalGraph& g, const Interval& window) {
  GRAPHITE_CHECK(window.IsValid());
  return Rebuild(
      g, window, [](VertexIdx) { return true; },
      [](EdgePos) { return true; });
}

TemporalGraph TemporalSubgraph(const TemporalGraph& g,
                               const SubgraphPredicates& preds) {
  return Rebuild(
      g, Interval::All(),
      [&](VertexIdx v) { return !preds.vertex || preds.vertex(g, v); },
      [&](EdgePos pos) { return !preds.edge || preds.edge(g, pos); });
}

TemporalHistogram CountOverTime(const TemporalGraph& g) {
  TemporalHistogram h;
  h.vertices.assign(static_cast<size_t>(g.horizon()), 0);
  h.edges.assign(static_cast<size_t>(g.horizon()), 0);
  auto bump = [&](std::vector<int64_t>& hist, const Interval& span) {
    const Interval clipped = g.ClipToHorizon(span);
    for (TimePoint t = clipped.start; t < clipped.end; ++t) {
      ++hist[static_cast<size_t>(t)];
    }
  };
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    bump(h.vertices, g.vertex_interval(v));
  }
  for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
    bump(h.edges, g.edge(pos).interval);
  }
  return h;
}

PropertyStats AggregateEdgeProperty(const TemporalGraph& g,
                                    const std::string& label,
                                    const Interval& window) {
  PropertyStats stats;
  const auto label_id = g.LabelIdOf(label);
  if (!label_id) return stats;
  double sum = 0;
  for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
    const PropRuns runs = g.EdgeProperty(pos, *label_id);
    runs.ForEachIntersecting(window, [&](const Interval& iv, PropValue v) {
      const Interval clipped = g.ClipToHorizon(iv);
      if (clipped.IsEmpty()) return;
      const int64_t points = clipped.end - clipped.start;
      if (stats.count == 0) {
        stats.min = stats.max = v;
      } else {
        stats.min = std::min(stats.min, v);
        stats.max = std::max(stats.max, v);
      }
      stats.count += points;
      sum += static_cast<double>(v) * static_cast<double>(points);
    });
  }
  if (stats.count > 0) sum /= static_cast<double>(stats.count);
  stats.mean = sum;
  return stats;
}

TimePoint FirstTimeWhere(
    const TemporalGraph& g,
    const std::function<bool(int64_t, int64_t)>& pred) {
  const TemporalHistogram h = CountOverTime(g);
  for (TimePoint t = 0; t < g.horizon(); ++t) {
    if (pred(h.vertices[static_cast<size_t>(t)],
             h.edges[static_cast<size_t>(t)])) {
      return t;
    }
  }
  return -1;
}

}  // namespace graphite
