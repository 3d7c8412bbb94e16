#include "graph/graph_stats.h"

#include <algorithm>
#include <map>

namespace graphite {

namespace {

// Sweep-line over lifespan boundaries: returns (max concurrent, sum of
// lengths) for a stream of clipped intervals fed through `add`.
class ActiveSweep {
 public:
  void Add(const Interval& clipped) {
    if (clipped.IsEmpty()) return;
    deltas_[clipped.start] += 1;
    deltas_[clipped.end] -= 1;
    total_ += static_cast<size_t>(clipped.end - clipped.start);
  }

  size_t MaxConcurrent() const {
    int64_t active = 0, peak = 0;
    for (const auto& [t, d] : deltas_) {
      active += d;
      peak = std::max(peak, active);
    }
    return static_cast<size_t>(peak);
  }

  size_t TotalPointCount() const { return total_; }

 private:
  std::map<TimePoint, int64_t> deltas_;
  size_t total_ = 0;
};

}  // namespace

GraphStats ComputeGraphStats(const TemporalGraph& g, bool include_transformed) {
  GraphStats s;
  s.num_snapshots = g.horizon();
  s.interval_v = g.num_vertices();
  s.interval_e = g.num_edges();

  ActiveSweep vertex_sweep, edge_sweep;
  double vertex_span_sum = 0;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    const Interval clipped = g.ClipToHorizon(g.vertex_interval(v));
    vertex_sweep.Add(clipped);
    vertex_span_sum += static_cast<double>(clipped.Length());
  }
  double edge_span_sum = 0;
  for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
    const Interval clipped = g.ClipToHorizon(g.edge(pos).interval);
    edge_sweep.Add(clipped);
    edge_span_sum += static_cast<double>(clipped.Length());
  }
  s.largest_snapshot_v = vertex_sweep.MaxConcurrent();
  s.largest_snapshot_e = edge_sweep.MaxConcurrent();
  s.multi_snapshot_v = vertex_sweep.TotalPointCount();
  s.multi_snapshot_e = edge_sweep.TotalPointCount();
  s.avg_vertex_lifespan =
      g.num_vertices() ? vertex_span_sum / static_cast<double>(g.num_vertices())
                       : 0;
  s.avg_edge_lifespan =
      g.num_edges() ? edge_span_sum / static_cast<double>(g.num_edges()) : 0;

  double prop_span_sum = 0;
  size_t prop_count = 0;
  auto accumulate_props = [&](const PropertyRange& props) {
    for (const auto& [label, map] : props) {
      (void)label;
      for (const auto& entry : map.entries()) {
        const Interval clipped = g.ClipToHorizon(entry.interval);
        prop_span_sum += static_cast<double>(clipped.Length());
        ++prop_count;
      }
    }
  };
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    accumulate_props(g.VertexProperties(v));
  }
  for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
    accumulate_props(g.EdgeProperties(pos));
  }
  s.avg_prop_lifespan =
      prop_count ? prop_span_sum / static_cast<double>(prop_count) : 0;

  if (include_transformed) {
    CountTransformedGraph(g, TransformOptions(), &s.transformed_v,
                          &s.transformed_e);
  }
  return s;
}

}  // namespace graphite
