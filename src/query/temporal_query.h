// Temporal query layer (paper §VIII future work: "offer query capabilities
// over temporal property graphs"). A small set of composable, principled
// operators in the spirit of the Temporal Graph Algebra [7] the paper
// cites as complementary to ICM:
//
//   * TemporalSelect   — sigma: keep entities whose lifespan satisfies a
//                        temporal predicate (Allen relation vs a window).
//   * TimeSlice        — the induced subgraph alive throughout a window
//                        (a multi-point generalization of snapshots).
//   * TemporalSubgraph — keep entities passing vertex/edge predicates
//                        (structure + property aware), fixing referential
//                        integrity afterwards.
//   * Aggregations     — vertex/edge counts and property statistics per
//                        time-point or per window.
//
// All operators produce valid temporal graphs (Constraints 1-3 preserved),
// so their outputs feed straight back into ICM runs. The three filters
// are TemporalGraph::Filter with different keep predicates and clips: one
// pass that writes the kept subgraph into a new sealed base.
#ifndef GRAPHITE_QUERY_TEMPORAL_QUERY_H_
#define GRAPHITE_QUERY_TEMPORAL_QUERY_H_

#include <functional>
#include <string>
#include <vector>

#include "graph/temporal_graph.h"
#include "temporal/allen.h"

namespace graphite {

/// Temporal predicate on an entity lifespan vs a query window.
struct TemporalPredicate {
  enum class Kind {
    kIntersects,   ///< lifespan intersects the window.
    kContainedIn,  ///< lifespan within the window.
    kContains,     ///< lifespan covers the whole window.
    kAllen,        ///< exact Allen relation vs the window.
  };
  Kind kind = Kind::kIntersects;
  Interval window;
  AllenRelation relation = AllenRelation::kEquals;  ///< kAllen only.

  bool Matches(const Interval& lifespan) const;

  static TemporalPredicate Intersects(const Interval& w) {
    return {Kind::kIntersects, w, AllenRelation::kEquals};
  }
  static TemporalPredicate ContainedIn(const Interval& w) {
    return {Kind::kContainedIn, w, AllenRelation::kEquals};
  }
  static TemporalPredicate Contains(const Interval& w) {
    return {Kind::kContains, w, AllenRelation::kEquals};
  }
  static TemporalPredicate Allen(AllenRelation r, const Interval& w) {
    return {Kind::kAllen, w, r};
  }
};

/// sigma_T: keeps vertices whose lifespan satisfies `pred`; edges survive
/// iff both endpoints survive AND the edge lifespan satisfies `pred`.
/// Lifespans are not altered (selection, not slicing).
TemporalGraph TemporalSelect(const TemporalGraph& g,
                             const TemporalPredicate& pred);

/// tau: the subgraph alive during `window`, with every lifespan and
/// property interval clipped to it. TimeSlice(g, [t, t+1)) is snapshot
/// S_t materialized as a (degenerate) temporal graph.
TemporalGraph TimeSlice(const TemporalGraph& g, const Interval& window);

/// TimeSlice(TemporalSelect(g, pred), window), computed in one pass.
TemporalGraph SelectAndSlice(const TemporalGraph& g,
                             const TemporalPredicate& pred,
                             const Interval& window);

/// Structure/property-aware filter. Predicates receive the graph being
/// filtered (a compacted copy of `g` when it has a delta) and the entity;
/// a dropped vertex drops its incident edges (referential integrity).
struct SubgraphPredicates {
  TemporalGraph::VertexPredicate vertex;  // null = all
  TemporalGraph::EdgePredicate edge;      // null = all
};
TemporalGraph TemporalSubgraph(const TemporalGraph& g,
                               const SubgraphPredicates& preds);

/// Per-time-point entity counts over [0, horizon).
struct TemporalHistogram {
  std::vector<int64_t> vertices;  ///< [t] = alive vertices.
  std::vector<int64_t> edges;     ///< [t] = alive edges.
};
TemporalHistogram CountOverTime(const TemporalGraph& g);

/// Statistics of an edge property over a window (across all edges and all
/// time-points where the property holds a value).
struct PropertyStats {
  int64_t count = 0;  ///< Number of (edge, time-point) samples.
  PropValue min = 0;
  PropValue max = 0;
  double mean = 0;
};
PropertyStats AggregateEdgeProperty(const TemporalGraph& g,
                                    const std::string& label,
                                    const Interval& window);

/// Earliest time-point in [0, horizon) at which `pred` over the alive
/// vertex count holds; -1 if never. Example: first time the graph has at
/// least k alive vertices.
TimePoint FirstTimeWhere(const TemporalGraph& g,
                         const std::function<bool(int64_t vertices,
                                                  int64_t edges)>& pred);

}  // namespace graphite

#endif  // GRAPHITE_QUERY_TEMPORAL_QUERY_H_
