// ICM implementations of the four TI algorithms (paper §V): BFS, WCC, PR
// and SCC. Their Compute bodies are the classic vertex-centric kernels —
// "the VCM logic for these algorithms can be reused for compute since ICM
// by default assigns appropriate intervals to the states and messages":
// messages inherit the intersection of state and edge lifespan, so a value
// propagated along a path is valid exactly where the whole path co-exists,
// which is the per-snapshot (time-independent) semantics.
#ifndef GRAPHITE_ALGORITHMS_ICM_TI_H_
#define GRAPHITE_ALGORITHMS_ICM_TI_H_

#include <algorithm>
#include <span>
#include <vector>

#include "algorithms/common.h"
#include "icm/icm_engine.h"

namespace graphite {

/// Per-snapshot BFS depth from a source vertex. State: hop distance,
/// kInfCost when unreached at that time-point. BFS is time-independent,
/// so a run seeded only on `seed` (bfs_at seeds one instant) computes
/// exactly the full run's depths there and produces no other interval.
class IcmBfs {
 public:
  using State = int64_t;
  using Message = int64_t;

  /// TI logic never reads edge properties: scatter slices are not
  /// refined at property boundaries (see IcmDeclaresScatterLabels).
  std::span<const LabelId> ScatterLabels() const { return {}; }

  explicit IcmBfs(VertexId source, Interval seed = Interval::All())
      : source_(source), seed_(seed) {}

  State Init(VertexIdx) const { return kInfCost; }
  /// Superstep 0 only seeds the source (IcmHasSeedVertex).
  VertexId SeedVertex() const { return source_; }

  static Message Combine(const Message& a, const Message& b) {
    return std::min(a, b);
  }

  void Compute(IcmVertexContext<IcmBfs>& ctx, std::span<const Message> msgs) {
    if (ctx.superstep() == 0) {
      const Interval seeded = ctx.interval().Intersect(seed_);
      if (ctx.vertex_id() == source_ && seeded.IsValid()) {
        ctx.SetState(seeded, 0);
      }
      return;
    }
    Message min_val = kInfCost;
    for (const Message& m : msgs) min_val = std::min(min_val, m);
    if (min_val < ctx.state()) ctx.SetState(ctx.interval(), min_val);
  }

  void Scatter(IcmScatterContext<IcmBfs>& ctx, const State& depth) {
    // TI: the message inherits the scatter slice, so the depth is valid
    // exactly where the path-so-far and this edge co-exist.
    ctx.SendInherit(depth + 1);
  }

 private:
  VertexId source_;
  Interval seed_;
};

/// Per-snapshot weakly connected components: min-vertex-id label
/// propagation. Run on MakeUndirected(g).
class IcmWcc {
 public:
  using State = int64_t;  ///< Component label (min vid), or kInfCost.
  using Message = int64_t;

  /// TI logic never reads edge properties: scatter slices are not
  /// refined at property boundaries (see IcmDeclaresScatterLabels).
  std::span<const LabelId> ScatterLabels() const { return {}; }

  State Init(VertexIdx) const { return kInfCost; }

  static Message Combine(const Message& a, const Message& b) {
    return std::min(a, b);
  }

  void Compute(IcmVertexContext<IcmWcc>& ctx, std::span<const Message> msgs) {
    if (ctx.superstep() == 0) {
      ctx.SetState(ctx.interval(), ctx.vertex_id());
      return;
    }
    Message min_val = kInfCost;
    for (const Message& m : msgs) min_val = std::min(min_val, m);
    if (min_val < ctx.state()) ctx.SetState(ctx.interval(), min_val);
  }

  void Scatter(IcmScatterContext<IcmWcc>& ctx, const State& label) {
    ctx.SendInherit(label);
  }
};

/// Per-snapshot PageRank with the unnormalized Pregel formula
/// rank = 0.15 + 0.85 * sum(shares), share = rank / outdeg(t). Runs in
/// always-active mode for a fixed number of supersteps (paper: 10).
class IcmPageRank {
 public:
  using State = double;
  using Message = double;

  /// TI logic never reads edge properties: scatter slices are not
  /// refined at property boundaries (see IcmDeclaresScatterLabels).
  std::span<const LabelId> ScatterLabels() const { return {}; }

  static constexpr int kIterations = 10;

  explicit IcmPageRank(const TemporalGraph& g)
      : degrees_(OutDegreeProfiles(g)) {}

  State Init(VertexIdx) const { return 1.0; }

  static Message Combine(const Message& a, const Message& b) { return a + b; }

  void Compute(IcmVertexContext<IcmPageRank>& ctx,
               std::span<const Message> msgs) {
    if (ctx.superstep() == 0) {
      // Seed the propagation: rewrite the initial rank so superstep 0
      // scatters the first shares.
      ctx.SetState(ctx.interval(), 1.0);
      return;
    }
    double sum = 0;
    for (const Message& m : msgs) sum += m;
    ctx.SetState(ctx.interval(), 0.15 + 0.85 * sum);
  }

  void Scatter(IcmScatterContext<IcmPageRank>& ctx, const State& rank) {
    // The out-degree varies over time; split the slice at the vertex's
    // degree-profile boundaries so each share is rank / outdeg(t).
    const IntervalMap<int64_t>& profile = degrees_[ctx.edge().src];
    profile.ForEachIntersecting(
        ctx.interval(), [&](const Interval& sub, int64_t deg) {
          ctx.Send(sub, rank / static_cast<double>(deg));
        });
  }

 private:
  std::vector<IntervalMap<int64_t>> degrees_;
};

/// IcmOptions preset for PageRank (always-active, fixed supersteps:
/// superstep 0 seeds, then kIterations rank updates).
inline IcmOptions PageRankOptions(IcmOptions base = {}) {
  base.always_active = true;
  base.max_supersteps = IcmPageRank::kIterations + 1;
  return base;
}

// ---------------------------------------------------------------------
// SCC: forward-backward coloring (Pregel-style, per time-point). Each
// round: (1) propagate the maximum vertex id forward through unassigned
// regions ("colors"); (2) on the reversed graph, each pivot (color equal
// to its own id) floods its color backward through same-colored regions —
// everything it reaches is its SCC; (3) mark assigned, repeat.
// ---------------------------------------------------------------------

/// Phase 1: forward max-id color propagation over unassigned regions.
class IcmSccForward {
 public:
  using State = int64_t;  ///< Current color; -1 outside unassigned regions.
  using Message = int64_t;

  /// TI logic never reads edge properties: scatter slices are not
  /// refined at property boundaries (see IcmDeclaresScatterLabels).
  std::span<const LabelId> ScatterLabels() const { return {}; }

  /// SCC is computed over the snapshot window [0, horizon); open-ended
  /// lifespans are clipped so the assignment loop terminates.
  IcmSccForward(const std::vector<IntervalMap<int64_t>>* assigned,
                TimePoint horizon)
      : assigned_(assigned), horizon_(horizon) {}

  State Init(VertexIdx) const { return -1; }

  static Message Combine(const Message& a, const Message& b) {
    return std::max(a, b);
  }

  void Compute(IcmVertexContext<IcmSccForward>& ctx,
               std::span<const Message> msgs) {
    if (ctx.superstep() == 0) {
      // Color every still-unassigned sub-slice with the own id.
      ForEachUnassigned(ctx, [&](const Interval& slice) {
        ctx.SetState(slice, ctx.vertex_id());
      });
      return;
    }
    Message max_val = -1;
    for (const Message& m : msgs) max_val = std::max(max_val, m);
    if (max_val <= ctx.state()) return;
    ForEachUnassigned(ctx, [&](const Interval& slice) {
      ctx.SetState(slice, max_val);
    });
  }

  void Scatter(IcmScatterContext<IcmSccForward>& ctx, const State& color) {
    if (color >= 0) ctx.SendInherit(color);
  }

 private:
  template <typename Fn>
  void ForEachUnassigned(IcmVertexContext<IcmSccForward>& ctx, Fn&& fn) {
    const Interval window =
        ctx.interval().Intersect(Interval(0, horizon_));
    if (window.IsEmpty()) return;
    const IntervalMap<int64_t>& assigned = (*assigned_)[ctx.vertex()];
    TimePoint cursor = window.start;
    assigned.ForEachIntersecting(window, [&](const Interval& iv, int64_t) {
      if (iv.start > cursor) fn(Interval(cursor, iv.start));
      cursor = iv.end;
    });
    if (cursor < window.end) fn(Interval(cursor, window.end));
  }

  const std::vector<IntervalMap<int64_t>>* assigned_;
  TimePoint horizon_;
};

/// Phase 2: backward flood of pivot labels through same-colored regions.
/// Runs on the REVERSED graph; `colors` holds phase-1 output indexed by
/// the same vertex indices (ReverseGraph preserves vertex order).
class IcmSccBackward {
 public:
  using State = int64_t;  ///< SCC label received; -1 if none yet.
  using Message = int64_t;

  /// TI logic never reads edge properties: scatter slices are not
  /// refined at property boundaries (see IcmDeclaresScatterLabels).
  std::span<const LabelId> ScatterLabels() const { return {}; }

  IcmSccBackward(const std::vector<IntervalMap<int64_t>>* colors,
                 const std::vector<IntervalMap<int64_t>>* assigned)
      : colors_(colors), assigned_(assigned) {}

  State Init(VertexIdx) const { return -1; }

  void Compute(IcmVertexContext<IcmSccBackward>& ctx,
               std::span<const Message> msgs) {
    const IntervalMap<int64_t>& color = (*colors_)[ctx.vertex()];
    if (ctx.superstep() == 0) {
      // Pivots: unassigned sub-slices whose color is the own id.
      color.ForEachIntersecting(
          ctx.interval(), [&](const Interval& iv, int64_t c) {
            if (c == ctx.vertex_id() && Unassigned(ctx.vertex(), iv)) {
              ctx.SetState(iv, c);
            }
          });
      return;
    }
    if (ctx.state() != -1) return;  // Already labeled here.
    // Accept a pivot label only where it matches this vertex's color.
    color.ForEachIntersecting(
        ctx.interval(), [&](const Interval& iv, int64_t c) {
          for (const Message& m : msgs) {
            if (m == c && Unassigned(ctx.vertex(), iv)) {
              ctx.SetState(iv, c);
              break;
            }
          }
        });
  }

  void Scatter(IcmScatterContext<IcmSccBackward>& ctx, const State& label) {
    if (label >= 0) ctx.SendInherit(label);
  }

 private:
  bool Unassigned(VertexIdx v, const Interval& iv) const {
    bool clear = true;
    (*assigned_)[v].ForEachIntersecting(
        iv, [&](const Interval&, int64_t) { clear = false; });
    return clear;
  }

  const std::vector<IntervalMap<int64_t>>* colors_;
  const std::vector<IntervalMap<int64_t>>* assigned_;
};

/// Outcome of the multi-phase SCC driver.
struct SccRun {
  /// Per vertex: SCC label (the pivot's vertex id) per interval.
  TemporalResult<int64_t> components;
  RunMetrics metrics;  ///< Summed over all phases and rounds.
  int rounds = 0;
};

/// Runs forward-backward-coloring SCC over the temporal graph with ICM.
/// `reversed` must be ReverseGraph(g) (callers typically reuse it).
SccRun RunIcmScc(const TemporalGraph& g, const TemporalGraph& reversed,
                 const IcmOptions& options);

}  // namespace graphite

#endif  // GRAPHITE_ALGORITHMS_ICM_TI_H_
