#include "query/temporal_query.h"

#include <algorithm>
#include <optional>

namespace graphite {

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

namespace {

TemporalGraph::VertexPredicate SelectVertex(const TemporalPredicate& pred) {
  return [&pred](const TemporalGraph& g, VertexIdx v) {
    return pred.Matches(g.vertex_interval(v));
  };
}

TemporalGraph::EdgePredicate SelectEdge(const TemporalPredicate& pred) {
  return [&pred](const TemporalGraph& g, EdgePos pos) {
    return pred.Matches(g.edge(pos).interval);
  };
}

}  // namespace

TemporalGraph TemporalSelect(const TemporalGraph& g,
                             const TemporalPredicate& pred) {
  return TemporalGraph::Filter(g, Interval::All(), SelectVertex(pred),
                               SelectEdge(pred));
}

TemporalGraph TimeSlice(const TemporalGraph& g, const Interval& window) {
  GRAPHITE_CHECK(window.IsValid());
  return TemporalGraph::Filter(g, window, nullptr, nullptr);
}

TemporalGraph SelectAndSlice(const TemporalGraph& g,
                             const TemporalPredicate& pred,
                             const Interval& window) {
  GRAPHITE_CHECK(window.IsValid());
  // TemporalSelect's output is sealed, so the slice interns labels in
  // (src, eid) edge order; filtering a compacted copy gives that order.
  std::optional<TemporalGraph> compacted;
  if (g.has_delta()) {
    compacted.emplace(g);
    compacted->Compact();
  }
  return TemporalGraph::Filter(compacted ? *compacted : g, window,
                               SelectVertex(pred), SelectEdge(pred));
}

TemporalGraph TemporalSubgraph(const TemporalGraph& g,
                               const SubgraphPredicates& preds) {
  return TemporalGraph::Filter(g, Interval::All(), preds.vertex, preds.edge);
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
