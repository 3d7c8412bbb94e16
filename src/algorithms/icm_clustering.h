// ICM implementations of the TD clustering algorithms (paper §V):
// Triangle Counting (TC) and Local Clustering Coefficient (LCC).
//
// Semantics: a directed triangle u->v->w->u is counted for its origin u
// over the interval where ALL THREE edges co-exist (their lifespans
// intersect); "neighbors have to be time-respecting". The 4-superstep
// message protocol follows the paper's description: each vertex messages
// its neighbors (hop 1), which message their neighbors (hop 2); the 2-hop
// neighbor checks adjacency back to the origin and reports the closure
// (hop 3). Interval intersection is enforced automatically by warp: every
// forwarded message inherits the intersection of the path-so-far with the
// next edge's lifespan.
#ifndef GRAPHITE_ALGORITHMS_ICM_CLUSTERING_H_
#define GRAPHITE_ALGORITHMS_ICM_CLUSTERING_H_

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "algorithms/common.h"
#include "icm/icm_engine.h"

namespace graphite {

/// Per-interval TC vertex state.
struct TcState {
  /// Origins received at hop 1, to forward to our neighbors (duplicates
  /// preserved: parallel edges form distinct triangles).
  std::vector<int64_t> forward;
  /// Origins received at hop 2, to close back if we are adjacent.
  std::vector<int64_t> close;
  /// Triangles counted for this vertex as origin.
  int64_t triangles = 0;
  /// Marks the superstep-0 initialization (triggers the first scatter).
  bool started = false;

  bool operator==(const TcState& other) const {
    return forward == other.forward && close == other.close &&
           triangles == other.triangles && started == other.started;
  }
};

/// Triangle counting: result state carries triangles-per-interval.
class IcmTriangleCount {
 public:
  using State = TcState;
  /// (hop, origin vertex id).
  using Message = std::pair<int64_t, int64_t>;

  /// TI logic never reads edge properties: scatter slices are not
  /// refined at property boundaries (see IcmDeclaresScatterLabels).
  std::span<const LabelId> ScatterLabels() const { return {}; }

  static constexpr int kMaxSupersteps = 4;

  State Init(VertexIdx) const { return TcState{}; }

  void Compute(IcmVertexContext<IcmTriangleCount>& ctx,
               std::span<const Message> msgs) {
    if (ctx.superstep() == 0) {
      TcState s;
      s.started = true;
      ctx.SetState(ctx.interval(), s);
      return;
    }
    TcState s = ctx.state();
    bool changed = false;
    for (const Message& m : msgs) {
      switch (m.first) {
        case 1:
          if (m.second != ctx.vertex_id()) {  // u->v->u is not a triangle.
            s.forward.push_back(m.second);
            changed = true;
          }
          break;
        case 2:
          s.close.push_back(m.second);
          changed = true;
          break;
        case 3:
          GRAPHITE_CHECK(m.second == ctx.vertex_id());
          ++s.triangles;
          changed = true;
          break;
        default:
          GRAPHITE_CHECK(false);
      }
    }
    if (changed) {
      std::sort(s.forward.begin(), s.forward.end());
      std::sort(s.close.begin(), s.close.end());
      ctx.SetState(ctx.interval(), s);
    }
  }

  void Scatter(IcmScatterContext<IcmTriangleCount>& ctx, const State& s) {
    const VertexId dst_id = ctx.graph().vertex_id(ctx.edge().dst);
    switch (ctx.superstep()) {
      case 0: {
        // Announce ourselves to every time-respecting neighbor.
        const VertexId me = ctx.graph().vertex_id(ctx.edge().src);
        ctx.SendInherit({1, me});
        break;
      }
      case 1:
        // Forward each pending origin one hop further (not back to it).
        for (int64_t origin : s.forward) {
          if (origin != dst_id) ctx.SendInherit({2, origin});
        }
        break;
      case 2:
        // Close the triangle: we are adjacent to the origin over this
        // slice, so report one closure per pending request.
        for (int64_t origin : s.close) {
          if (origin == dst_id) ctx.SendInherit({3, origin});
        }
        break;
      default:
        break;  // Superstep 3 only counts; nothing to send.
    }
  }
};

/// IcmOptions preset for the 4-superstep clustering protocols.
inline IcmOptions TriangleOptions(IcmOptions base = {}) {
  base.max_supersteps = IcmTriangleCount::kMaxSupersteps;
  return base;
}

/// Extracts triangles-per-interval from a finished TC run.
inline TemporalResult<int64_t> TriangleCounts(
    const std::vector<IntervalMap<TcState>>& states) {
  TemporalResult<int64_t> out(states.size());
  for (size_t v = 0; v < states.size(); ++v) {
    for (const auto& entry : states[v].entries()) {
      out[v].Set(entry.interval, entry.value.triangles);
    }
    out[v].Coalesce();
  }
  return out;
}

/// Local clustering coefficient per interval:
///   lcc(u, t) = triangles(u, t) / (d(u, t) * (d(u, t) - 1))
/// with d the out-degree at t (directed convention; 0 when d < 2). The
/// protocol is the TC closure count plus the degree normalization.
struct LccRun {
  TemporalResult<double> lcc;
  RunMetrics metrics;
};

LccRun RunIcmLcc(const TemporalGraph& g, const IcmOptions& options);

}  // namespace graphite

#endif  // GRAPHITE_ALGORITHMS_ICM_CLUSTERING_H_
