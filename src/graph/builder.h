// Mutable builder for TemporalGraph. Collects vertices, edges and
// properties in any order, then validates the paper's soundness
// constraints (§III, Constraints 1-3) and freezes an immutable CSR graph.
#ifndef GRAPHITE_GRAPH_BUILDER_H_
#define GRAPHITE_GRAPH_BUILDER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
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

  /// Assigns vertex property `label` = `value` over `interval`. The label
  /// is interned once per distinct name; Build() checks it.
  void SetVertexProperty(VertexId vid, std::string_view label,
                         const Interval& interval, PropValue value);

  /// Assigns edge property `label` = `value` over `interval`.
  void SetEdgeProperty(EdgeId eid, std::string_view label,
                       const Interval& interval, PropValue value);

  /// Validates and freezes. The builder is consumed (moved-from) on
  /// success. Returns ConstraintViolation / InvalidArgument on bad input,
  /// including a property label that fails IsValidLabel: vertex errors
  /// first, then edge errors, then vertex and edge property errors, each
  /// the first a scan in input order meets. Vertex and edge ids resolve
  /// through sorted (id, input position) arrays (graph/id_index.h), so
  /// the allocations do not grow with the entity count.
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
    uint32_t label;  // index into label_names_
    Interval interval;
    PropValue value;
  };
  /// Hashes std::string and std::string_view alike, so a label lookup
  /// builds no string.
  struct LabelHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
  };

  /// The index of `label` in label_names_, adding it on first use.
  uint32_t InternLabel(std::string_view label);

  std::vector<PendingVertex> vertices_;
  std::vector<PendingEdge> edges_;
  std::vector<PendingProp> vertex_props_;
  std::vector<PendingProp> edge_props_;
  /// Distinct property labels in first-set order, and their indices.
  std::vector<std::string> label_names_;
  std::unordered_map<std::string, uint32_t, LabelHash, std::equal_to<>>
      label_index_;
};

}  // namespace graphite

#endif  // GRAPHITE_GRAPH_BUILDER_H_
