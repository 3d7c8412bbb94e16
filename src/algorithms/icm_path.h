// ICM implementations of the six TD path algorithms (paper §V):
//   SSSP — time-respecting path with minimum travel cost (Alg. 1),
//   EAT  — earliest arrival time,
//   TMST — time-minimum spanning tree (EAT + parent pointers),
//   RH   — time-respecting reachability,
//   FAST — fastest (minimum-duration) path,
//   LD   — latest departure time (reverse traversal, runs on the
//          reversed graph).
//
// Each program mirrors the structure of Alg. 1: warp pre-aligns messages
// with the partitioned states, so Compute is a plain fold (min/max) and
// Scatter shifts the interval by the edge's travel time.
#ifndef GRAPHITE_ALGORITHMS_ICM_PATH_H_
#define GRAPHITE_ALGORITHMS_ICM_PATH_H_

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <utility>

#include "algorithms/common.h"
#include "icm/icm_engine.h"

namespace graphite {

/// Resolves the travel-time / travel-cost labels of a graph once, so the
/// per-slice property lookups inside Scatter are by LabelId, and lists
/// them for the programs' ScatterLabels (IcmDeclaresScatterLabels).
struct PathLabels {
  std::optional<LabelId> travel_time;
  std::optional<LabelId> travel_cost;

  explicit PathLabels(const TemporalGraph& g)
      : travel_time(g.LabelIdOf(kTravelTimeLabel)),
        travel_cost(g.LabelIdOf(kTravelCostLabel)) {
    if (travel_time) read_[num_time_++] = *travel_time;
    num_both_ = num_time_;
    if (travel_cost) read_[num_both_++] = *travel_cost;
  }

  /// The labels TravelTime reads (those the graph has).
  std::span<const LabelId> TimeLabels() const {
    return {read_.data(), num_time_};
  }
  /// The labels TravelTime and TravelCost read.
  std::span<const LabelId> TimeAndCostLabels() const {
    return {read_.data(), num_both_};
  }

  template <typename Ctx>
  TimePoint TravelTime(const Ctx& ctx) const {
    if (!travel_time) return 1;
    auto v = ctx.EdgeProp(*travel_time);
    return v ? static_cast<TimePoint>(*v) : 1;
  }
  template <typename Ctx>
  PropValue TravelCost(const Ctx& ctx) const {
    if (!travel_cost) return 1;
    auto v = ctx.EdgeProp(*travel_cost);
    return v ? *v : 1;
  }

 private:
  std::array<LabelId, 2> read_{};
  size_t num_time_ = 0;
  size_t num_both_ = 0;
};

/// The vertex index of a point query's target; nullopt when there is no
/// target or it is not in the graph (nothing to bound then).
inline std::optional<VertexIdx> IndexOfTarget(const TemporalGraph& g,
                                              std::optional<VertexId> target) {
  return target ? g.IndexOf(*target) : std::nullopt;
}

/// Temporal single-source shortest (cheapest) path — the paper's Alg. 1.
/// State: minimum known travel cost from the source, per arrival interval.
class IcmSssp {
 public:
  using State = int64_t;
  using Message = int64_t;

  IcmSssp(const TemporalGraph& g, VertexId source)
      : labels_(g), source_(source) {}

  State Init(VertexIdx) const { return kInfCost; }
  /// Superstep 0 only seeds the source (IcmHasSeedVertex).
  VertexId SeedVertex() const { return source_; }
  /// Scatter reads travel time and cost (IcmDeclaresScatterLabels).
  std::span<const LabelId> ScatterLabels() const {
    return labels_.TimeAndCostLabels();
  }

  static Message Combine(const Message& a, const Message& b) {
    return std::min(a, b);
  }

  void Compute(IcmVertexContext<IcmSssp>& ctx, std::span<const Message> msgs) {
    if (ctx.superstep() == 0) {
      if (ctx.vertex_id() == source_) ctx.SetState(ctx.interval(), 0);
      return;
    }
    Message min_val = kInfCost;
    for (const Message& m : msgs) min_val = std::min(min_val, m);
    if (min_val < ctx.state()) ctx.SetState(ctx.interval(), min_val);
  }

  void Scatter(IcmScatterContext<IcmSssp>& ctx, const State& cost) {
    const TimePoint tt = labels_.TravelTime(ctx);
    const PropValue tc = labels_.TravelCost(ctx);
    // Departing anywhere in this slice arrives no earlier than start+tt;
    // the cost stays valid for every later arrival (one can wait).
    ctx.Send(Interval(ctx.interval().start + tt, kTimeMax), cost + tc);
  }

 private:
  PathLabels labels_;
  VertexId source_;
};

/// Earliest arrival time from the source. State: earliest time-respecting
/// arrival, per interval; only the first reachable instant matters, which
/// the interval [arrival, inf) of each message encodes.
///
/// With a `target` (a point query reading one vertex), MasterCompute keeps
/// the target's best arrival as a bound and Scatter drops every send that
/// arrives at or after it: travel times are non-negative, so such a send
/// only leads to arrivals no earlier than the bound. The target's value is
/// the full run's; other vertices may stay unreached.
class IcmEat {
 public:
  using State = int64_t;
  using Message = int64_t;

  IcmEat(const TemporalGraph& g, VertexId source,
         std::optional<VertexId> target = std::nullopt)
      : labels_(g), source_(source), target_(IndexOfTarget(g, target)) {}

  State Init(VertexIdx) const { return kInfCost; }
  /// Superstep 0 only seeds the source (IcmHasSeedVertex).
  VertexId SeedVertex() const { return source_; }
  /// Scatter reads travel time only (IcmDeclaresScatterLabels).
  std::span<const LabelId> ScatterLabels() const {
    return labels_.TimeLabels();
  }

  static Message Combine(const Message& a, const Message& b) {
    return std::min(a, b);
  }

  void Compute(IcmVertexContext<IcmEat>& ctx, std::span<const Message> msgs) {
    if (ctx.superstep() == 0) {
      if (ctx.vertex_id() == source_) {
        ctx.SetState(ctx.interval(), ctx.interval().start);
      }
      return;
    }
    Message min_val = kInfCost;
    for (const Message& m : msgs) min_val = std::min(min_val, m);
    if (min_val < ctx.state()) ctx.SetState(ctx.interval(), min_val);
  }

  void Scatter(IcmScatterContext<IcmEat>& ctx, const State& arrival) {
    const TimePoint tt = labels_.TravelTime(ctx);
    // The slice already lies within the state's validity, so departing at
    // its start is feasible (arrival <= slice.start).
    (void)arrival;
    const TimePoint arr = ctx.interval().start + tt;
    if (arr >= bound_) return;
    ctx.Send(Interval(arr, kTimeMax), arr);
  }

  /// The bound: the target's earliest arrival so far (kInfCost before).
  void MasterCompute(std::span<const IntervalMap<State>> states, int) {
    if (!target_) return;
    bound_ = kInfCost;
    for (const auto& e : states[*target_].entries()) {
      bound_ = std::min(bound_, e.value);
    }
  }

 private:
  PathLabels labels_;
  VertexId source_;
  std::optional<VertexIdx> target_;
  TimePoint bound_ = kInfCost;
};

/// Time-minimum spanning tree: EAT plus the parent vertex id carried in
/// state and message (paper §V), from which the tree is rebuilt.
class IcmTmst {
 public:
  /// (arrival time, parent vertex id); kInfCost/-1 when unreached.
  using State = std::pair<int64_t, int64_t>;
  using Message = std::pair<int64_t, int64_t>;

  IcmTmst(const TemporalGraph& g, VertexId source)
      : labels_(g), source_(source) {}

  State Init(VertexIdx) const { return {kInfCost, -1}; }
  /// Superstep 0 only seeds the source (IcmHasSeedVertex).
  VertexId SeedVertex() const { return source_; }
  /// Scatter reads travel time only (IcmDeclaresScatterLabels).
  std::span<const LabelId> ScatterLabels() const {
    return labels_.TimeLabels();
  }

  static Message Combine(const Message& a, const Message& b) {
    return std::min(a, b);  // Lexicographic: arrival, then parent id.
  }

  void Compute(IcmVertexContext<IcmTmst>& ctx, std::span<const Message> msgs) {
    if (ctx.superstep() == 0) {
      if (ctx.vertex_id() == source_) {
        ctx.SetState(ctx.interval(), {ctx.interval().start, ctx.vertex_id()});
      }
      return;
    }
    Message best = {kInfCost, -1};
    bool any = false;
    for (const Message& m : msgs) {
      if (!any || m < best) best = m;
      any = true;
    }
    if (any && best < ctx.state()) ctx.SetState(ctx.interval(), best);
  }

  void Scatter(IcmScatterContext<IcmTmst>& ctx, const State&) {
    const TimePoint tt = labels_.TravelTime(ctx);
    const TimePoint arr = ctx.interval().start + tt;
    const VertexId me = ctx.graph().vertex_id(ctx.edge().src);
    ctx.Send(Interval(arr, kTimeMax), {arr, me});
  }

 private:
  PathLabels labels_;
  VertexId source_;
};

/// Time-respecting reachability from the source: state is 1 over the
/// intervals where the vertex has been reached, else 0.
///
/// Two optional scopes for point queries, both exact for what they read:
///   * `by`: only states at instants <= by are read (reach_at). A send
///     arriving after `by` is dropped and every message is clipped to
///     [arrival, by+1), so no state past `by` is produced.
///   * `target`: only that vertex is read (path reach). MasterCompute
///     keeps the first instant at which it is reached as a bound, and a
///     send arriving at or after the bound is dropped: with non-negative
///     travel times it only reaches vertices at instants the target
///     already covers.
class IcmReach {
 public:
  using State = uint8_t;
  using Message = uint8_t;

  IcmReach(const TemporalGraph& g, VertexId source,
           std::optional<VertexId> target = std::nullopt,
           TimePoint by = kTimeMax)
      : labels_(g),
        source_(source),
        target_(IndexOfTarget(g, target)),
        until_(by == kTimeMax ? kTimeMax : by + 1) {}

  State Init(VertexIdx) const { return 0; }
  /// Superstep 0 only seeds the source (IcmHasSeedVertex).
  VertexId SeedVertex() const { return source_; }
  /// Scatter reads travel time only (IcmDeclaresScatterLabels).
  std::span<const LabelId> ScatterLabels() const {
    return labels_.TimeLabels();
  }

  static Message Combine(const Message&, const Message&) { return 1; }

  void Compute(IcmVertexContext<IcmReach>& ctx,
               std::span<const Message> msgs) {
    if (ctx.superstep() == 0) {
      if (ctx.vertex_id() == source_) ctx.SetState(ctx.interval(), 1);
      return;
    }
    if (!msgs.empty() && ctx.state() == 0) ctx.SetState(ctx.interval(), 1);
  }

  void Scatter(IcmScatterContext<IcmReach>& ctx, const State&) {
    const TimePoint tt = labels_.TravelTime(ctx);
    const TimePoint arr = ctx.interval().start + tt;
    if (arr >= until_ || arr >= bound_) return;
    ctx.Send(Interval(arr, until_), 1);
  }

  /// The bound: the first instant the target is reached (kTimeMax before).
  void MasterCompute(std::span<const IntervalMap<State>> states, int) {
    if (!target_) return;
    bound_ = kTimeMax;
    for (const auto& e : states[*target_].entries()) {
      if (e.value == 1) {
        bound_ = e.interval.start;  // Entries are sorted by start.
        return;
      }
    }
  }

 private:
  PathLabels labels_;
  VertexId source_;
  std::optional<VertexIdx> target_;
  TimePoint until_;  ///< One past the last instant read.
  TimePoint bound_ = kTimeMax;
};

/// Fastest (minimum-duration) path. Messages carry the journey's start
/// time at the source; a state interval holds the latest such start time
/// with which the vertex can be reached by each instant, so duration =
/// interval.start - state at the first covered instant. The source emits
/// one message per distinct departure time-point of each out-edge slice
/// (distinct starts are genuinely different journeys); downstream
/// propagation is per-slice like SSSP.
class IcmFast {
 public:
  using State = int64_t;  ///< Latest feasible journey start; kNegInf unset.
  using Message = int64_t;

  IcmFast(const TemporalGraph& g, VertexId source)
      : labels_(g), source_(source) {}

  State Init(VertexIdx) const { return kNegInf; }
  /// Superstep 0 only seeds the source (IcmHasSeedVertex).
  VertexId SeedVertex() const { return source_; }
  /// Scatter reads travel time only (IcmDeclaresScatterLabels).
  std::span<const LabelId> ScatterLabels() const {
    return labels_.TimeLabels();
  }

  static Message Combine(const Message& a, const Message& b) {
    return std::max(a, b);
  }

  void Compute(IcmVertexContext<IcmFast>& ctx, std::span<const Message> msgs) {
    if (ctx.superstep() == 0) {
      if (ctx.vertex_id() == source_) {
        ctx.SetState(ctx.interval(), ctx.interval().start);
      }
      return;
    }
    Message max_val = kNegInf;
    for (const Message& m : msgs) max_val = std::max(max_val, m);
    if (max_val > ctx.state()) ctx.SetState(ctx.interval(), max_val);
  }

  void Scatter(IcmScatterContext<IcmFast>& ctx, const State& start) {
    const TimePoint tt = labels_.TravelTime(ctx);
    const Interval& slice = ctx.interval();
    if (ctx.superstep() == 0 &&
        ctx.graph().vertex_id(ctx.edge().src) == source_) {
      // One journey per departure instant in the slice; clip to horizon so
      // open-ended source lifespans stay finite.
      const Interval window =
          slice.Intersect(Interval(slice.start, ctx.graph().horizon()));
      for (TimePoint t = window.start; t < window.end; ++t) {
        ctx.Send(Interval(t + tt, kTimeMax), t);
      }
      return;
    }
    if (start == kNegInf) return;
    ctx.Send(Interval(slice.start + tt, kTimeMax), start);
  }

 private:
  PathLabels labels_;
  VertexId source_;
};

/// Latest departure time to reach `target` by `deadline`. Runs on the
/// REVERSED graph (pass ReverseGraph(g)); traversal goes backwards in
/// space and time, with message validity [-inf, departure+1) as in the
/// paper ("setting its message interval to [-inf, t.end - travelTime)").
/// State: the latest instant one can leave the vertex and still make it.
class IcmLatestDeparture {
 public:
  using State = int64_t;  ///< Latest departure; kNegInf when impossible.
  using Message = int64_t;

  /// `reversed` must be ReverseGraph of the graph under analysis.
  IcmLatestDeparture(const TemporalGraph& reversed, VertexId target,
                     TimePoint deadline)
      : labels_(reversed), target_(target), deadline_(deadline) {}

  State Init(VertexIdx) const { return kNegInf; }
  /// Superstep 0 only seeds the target (IcmHasSeedVertex).
  VertexId SeedVertex() const { return target_; }
  /// Scatter reads travel time only (IcmDeclaresScatterLabels).
  std::span<const LabelId> ScatterLabels() const {
    return labels_.TimeLabels();
  }

  static Message Combine(const Message& a, const Message& b) {
    return std::max(a, b);
  }

  void Compute(IcmVertexContext<IcmLatestDeparture>& ctx,
               std::span<const Message> msgs) {
    if (ctx.superstep() == 0) {
      if (ctx.vertex_id() == target_ && deadline_ >= ctx.interval().start) {
        // Clamp to the target's lifespan: one cannot arrive after the
        // target ceases to exist (nor before it starts).
        ctx.SetState(ctx.interval(),
                     std::min<int64_t>(deadline_, ctx.interval().end - 1));
      }
      return;
    }
    Message max_val = kNegInf;
    for (const Message& m : msgs) max_val = std::max(max_val, m);
    if (max_val > ctx.state()) ctx.SetState(ctx.interval(), max_val);
  }

  void Scatter(IcmScatterContext<IcmLatestDeparture>& ctx,
               const State& latest) {
    if (latest == kNegInf) return;
    const TimePoint tt = labels_.TravelTime(ctx);
    // Original edge u->v appears here as v->u. A departure from u at time
    // t needs t within the edge slice and t + tt <= latest arrival bound.
    const Interval& slice = ctx.interval();
    const TimePoint depart = std::min(slice.end - 1, latest - tt);
    if (depart < slice.start) return;
    // Being at u at any instant <= depart suffices (one can wait there).
    ctx.Send(Interval(kTimeMin, depart + 1), depart);
  }

 private:
  PathLabels labels_;
  VertexId target_;
  TimePoint deadline_;
};

}  // namespace graphite

#endif  // GRAPHITE_ALGORITHMS_ICM_PATH_H_
