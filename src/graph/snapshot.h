// Snapshot view: the non-temporal graph S_t induced by the entities active
// at a single time-point t (paper Fig. 1c). Views are zero-copy and are the
// substrate the MSB / Chlonos / GoFFish baselines compute on.
#ifndef GRAPHITE_GRAPH_SNAPSHOT_H_
#define GRAPHITE_GRAPH_SNAPSHOT_H_

#include <optional>

#include "graph/temporal_graph.h"

namespace graphite {

class SnapshotView {
 public:
  SnapshotView(const TemporalGraph* graph, TimePoint t)
      : graph_(graph), t_(t) {}

  TimePoint time() const { return t_; }
  const TemporalGraph& graph() const { return *graph_; }

  /// True iff vertex `v` exists at this snapshot's time-point.
  bool VertexActive(VertexIdx v) const {
    return graph_->vertex_interval(v).Contains(t_);
  }

  /// True iff the edge at `pos` exists at this time-point.
  bool EdgeActive(EdgePos pos) const {
    return graph_->edge(pos).interval.Contains(t_);
  }

  /// Invokes fn(const StoredEdge&, EdgePos) for each out-edge of `v`
  /// active at t.
  template <typename Fn>
  void ForEachOutEdge(VertexIdx v, Fn&& fn) const {
    auto edges = graph_->OutEdges(v);
    for (size_t k = 0; k < edges.size(); ++k) {
      if (edges[k].interval.Contains(t_)) {
        fn(edges[k], edges.pos(k));
      }
    }
  }

  /// Value of edge property `label` at t, if present.
  std::optional<PropValue> EdgePropertyAt(EdgePos pos, LabelId label) const {
    return graph_->EdgeProperty(pos, label).Get(t_);
  }

  /// Counts active vertices and edges (used by Table 1 and Fig. 6a).
  void CountActive(size_t* vertices, size_t* edges) const {
    size_t nv = 0, ne = 0;
    for (VertexIdx v = 0; v < graph_->num_vertices(); ++v) {
      if (VertexActive(v)) ++nv;
    }
    for (EdgePos pos = 0; pos < graph_->num_edges(); ++pos) {
      if (EdgeActive(pos)) ++ne;
    }
    *vertices = nv;
    *edges = ne;
  }

 private:
  const TemporalGraph* graph_;
  TimePoint t_;
};

}  // namespace graphite

#endif  // GRAPHITE_GRAPH_SNAPSHOT_H_
