// Transformed (time-expanded) graph for the TGB baseline (paper §II-C,
// §VII-A3; Wu et al., "Path problems in temporal graphs", PVLDB 2014).
//
// Every interval vertex is unrolled into replicas, one per distinct
// time-point at which the vertex can be departed from or arrived at. Two
// kinds of non-temporal edges connect replicas:
//   * chain edges u@t -> u@t' between consecutive replicas of the same
//     vertex (waiting; these carry the "shared state between replicas" the
//     paper counts as extra messages/compute), and
//   * transit edges u@t -> v@(t + travel_time(t)) for each temporal edge
//     (u, v) active at departure time t, weighted with travel_cost(t).
// TD algorithms then run as plain VCM on this larger static graph.
#ifndef GRAPHITE_GRAPH_TRANSFORMED_GRAPH_H_
#define GRAPHITE_GRAPH_TRANSFORMED_GRAPH_H_

#include <cstdint>
#include <vector>

#include "graph/temporal_graph.h"

namespace graphite {

/// Replica index in the transformed graph.
using ReplicaIdx = uint32_t;
inline constexpr ReplicaIdx kInvalidReplica = static_cast<ReplicaIdx>(-1);

/// Travel time and cost come from the kTravelTimeLabel and
/// kTravelCostLabel edge properties; a missing one means unit time or cost.
struct TransformOptions {
  /// When >= 0, overrides every travel time (the transformation is
  /// algorithm-specific: clustering algorithms expand with zero travel
  /// time so triangles connect same-time replicas).
  TimePoint forced_travel_time = -1;
};

class TransformedGraph {
 public:
  struct TransitEdge {
    ReplicaIdx dst = kInvalidReplica;
    PropValue cost = 0;        ///< travel cost (algorithm weight).
    TimePoint travel_time = 0; ///< duration of traversal; 0 for chain edges.
    bool is_chain = false;     ///< replica state-transfer edge.
  };

  size_t num_replicas() const { return replica_vertex_.size(); }
  size_t num_edges() const { return edges_.size(); }
  /// Number of chain (replica state-transfer) edges.
  size_t num_chain_edges() const { return num_chain_edges_; }

  /// Original vertex of a replica.
  VertexIdx replica_vertex(ReplicaIdx r) const { return replica_vertex_[r]; }
  /// Time-point a replica stands for.
  TimePoint replica_time(ReplicaIdx r) const { return replica_time_[r]; }

  /// Out-edges of a replica.
  std::span<const TransitEdge> OutEdges(ReplicaIdx r) const {
    return {edges_.data() + offsets_[r], offsets_[r + 1] - offsets_[r]};
  }

  /// Replica of vertex `v` at exactly time `t`; kInvalidReplica if none.
  ReplicaIdx ReplicaAt(VertexIdx v, TimePoint t) const;

  /// Earliest replica of `v` at time >= t; kInvalidReplica if none.
  ReplicaIdx FirstReplicaAtOrAfter(VertexIdx v, TimePoint t) const;

  /// Latest replica of `v` at time <= t; kInvalidReplica if none.
  ReplicaIdx LastReplicaAtOrBefore(VertexIdx v, TimePoint t) const;

  /// All replicas of a vertex, in increasing time order.
  std::span<const ReplicaIdx> ReplicasOf(VertexIdx v) const {
    return {replicas_by_vertex_.data() + vertex_offsets_[v],
            vertex_offsets_[v + 1] - vertex_offsets_[v]};
  }

  /// Rough in-memory footprint in bytes (Fig. 6a).
  size_t MemoryFootprintBytes() const;

 private:
  friend TransformedGraph BuildTransformedGraph(const TemporalGraph&,
                                                const TransformOptions&);

  std::vector<VertexIdx> replica_vertex_;   // by ReplicaIdx
  std::vector<TimePoint> replica_time_;     // by ReplicaIdx
  std::vector<uint32_t> offsets_;           // CSR, size num_replicas + 1
  std::vector<TransitEdge> edges_;
  std::vector<uint32_t> vertex_offsets_;    // size |V| + 1
  std::vector<ReplicaIdx> replicas_by_vertex_;
  size_t num_chain_edges_ = 0;
};

/// Unrolls `g` into its transformed graph. Time-points are clipped to the
/// graph horizon, matching the snapshot range the baselines see.
TransformedGraph BuildTransformedGraph(const TemporalGraph& g,
                                       const TransformOptions& options = {});

/// Counts replicas and edges of the transformed graph without materializing
/// it (Table 1 reporting for graphs whose expansion would not fit memory —
/// the paper's DNL cases).
void CountTransformedGraph(const TemporalGraph& g,
                           const TransformOptions& options, size_t* replicas,
                           size_t* edges);

}  // namespace graphite

#endif  // GRAPHITE_GRAPH_TRANSFORMED_GRAPH_H_
