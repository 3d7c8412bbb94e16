// Mutable builder for TemporalGraph. Collects vertices, edges and
// properties in any order, then validates the paper's soundness
// constraints (§III, Constraints 1-3) and freezes an immutable CSR graph.
#ifndef GRAPHITE_GRAPH_BUILDER_H_
#define GRAPHITE_GRAPH_BUILDER_H_

#include <string>
#include <string_view>
#include <vector>

#include "graph/temporal_graph.h"

namespace graphite {

/// Build-time options.
struct BuilderOptions {
  /// Check Constraints 1-3; disable only for trusted generator output
  /// (generators are themselves tested to produce valid graphs).
  bool validate = true;
  /// Explicit horizon T (number of snapshot time-points). 0 = derive from
  /// the largest finite entity end-time.
  TimePoint horizon = 0;
};

class TemporalGraphBuilder {
 public:
  /// Declares a vertex with lifespan `interval`.
  void AddVertex(VertexId vid, const Interval& interval);

  /// Declares a directed edge src -> dst with lifespan `interval`.
  void AddEdge(EdgeId eid, VertexId src, VertexId dst,
               const Interval& interval);

  /// Assigns vertex property `label` = `value` over `interval`.
  void SetVertexProperty(VertexId vid, std::string_view label,
                         const Interval& interval, PropValue value);

  /// Assigns edge property `label` = `value` over `interval`.
  void SetEdgeProperty(EdgeId eid, std::string_view label,
                       const Interval& interval, PropValue value);

  /// Validates and freezes. The builder is consumed (moved-from) on
  /// success. Returns ConstraintViolation / InvalidArgument on bad input,
  /// including a property label that fails IsValidLabel.
  Result<TemporalGraph> Build(const BuilderOptions& options = {});

  size_t num_vertices() const { return vertices_.size(); }
  size_t num_edges() const { return edges_.size(); }

 private:
  struct PendingVertex {
    VertexId vid;
    Interval interval;
  };
  struct PendingEdge {
    EdgeId eid;
    VertexId src;
    VertexId dst;
    Interval interval;
  };
  struct PendingProp {
    int64_t entity;  // VertexId or EdgeId
    std::string label;
    Interval interval;
    PropValue value;
  };

  std::vector<PendingVertex> vertices_;
  std::vector<PendingEdge> edges_;
  std::vector<PendingProp> vertex_props_;
  std::vector<PendingProp> edge_props_;
};

}  // namespace graphite

#endif  // GRAPHITE_GRAPH_BUILDER_H_
