#include "graph/transformed_graph.h"

#include <algorithm>

namespace graphite {

namespace {

// Per-edge lookup of travel time / cost at a departure time-point.
struct EdgeWeights {
  PropRuns time_runs;
  PropRuns cost_runs;
  TimePoint forced_travel_time = -1;

  TimePoint TravelTime(TimePoint t) const {
    if (forced_travel_time >= 0) return forced_travel_time;
    auto v = time_runs.Get(t);
    return v ? static_cast<TimePoint>(*v) : 1;
  }
  PropValue Cost(TimePoint t) const {
    auto v = cost_runs.Get(t);
    return v ? *v : 1;
  }
};

std::vector<EdgeWeights> ResolveWeights(const TemporalGraph& g,
                                        const TransformOptions& options) {
  std::vector<EdgeWeights> weights(g.num_edges());
  auto time_label = g.LabelIdOf(kTravelTimeLabel);
  auto cost_label = g.LabelIdOf(kTravelCostLabel);
  for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
    if (time_label) weights[pos].time_runs = g.EdgeProperty(pos, *time_label);
    if (cost_label) weights[pos].cost_runs = g.EdgeProperty(pos, *cost_label);
    weights[pos].forced_travel_time = options.forced_travel_time;
  }
  return weights;
}

// Enumerates, per vertex, the sorted distinct replica time-points: every
// departure time of an out-edge plus every feasible arrival time of an
// in-edge (paper: "vertex replicas, one for the number of incoming and
// outgoing edges at distinct time-points").
std::vector<std::vector<TimePoint>> CollectReplicaTimes(
    const TemporalGraph& g, const std::vector<EdgeWeights>& weights) {
  std::vector<std::vector<TimePoint>> times(g.num_vertices());
  for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
    const StoredEdge& e = g.edge(pos);
    const Interval window = g.ClipToHorizon(e.interval);
    const Interval& dst_span = g.vertex_interval(e.dst);
    for (TimePoint t = window.start; t < window.end; ++t) {
      times[e.src].push_back(t);
      const TimePoint arrival = t + weights[pos].TravelTime(t);
      if (dst_span.Contains(arrival)) times[e.dst].push_back(arrival);
    }
  }
  for (auto& tv : times) {
    std::sort(tv.begin(), tv.end());
    tv.erase(std::unique(tv.begin(), tv.end()), tv.end());
  }
  return times;
}

}  // namespace

ReplicaIdx TransformedGraph::ReplicaAt(VertexIdx v, TimePoint t) const {
  auto replicas = ReplicasOf(v);
  auto it = std::lower_bound(replicas.begin(), replicas.end(), t,
                             [this](ReplicaIdx r, TimePoint tp) {
                               return replica_time_[r] < tp;
                             });
  if (it == replicas.end() || replica_time_[*it] != t) return kInvalidReplica;
  return *it;
}

ReplicaIdx TransformedGraph::FirstReplicaAtOrAfter(VertexIdx v,
                                                   TimePoint t) const {
  auto replicas = ReplicasOf(v);
  auto it = std::lower_bound(replicas.begin(), replicas.end(), t,
                             [this](ReplicaIdx r, TimePoint tp) {
                               return replica_time_[r] < tp;
                             });
  return it == replicas.end() ? kInvalidReplica : *it;
}

ReplicaIdx TransformedGraph::LastReplicaAtOrBefore(VertexIdx v,
                                                   TimePoint t) const {
  auto replicas = ReplicasOf(v);
  auto it = std::upper_bound(replicas.begin(), replicas.end(), t,
                             [this](TimePoint tp, ReplicaIdx r) {
                               return tp < replica_time_[r];
                             });
  if (it == replicas.begin()) return kInvalidReplica;
  return *(it - 1);
}

size_t TransformedGraph::MemoryFootprintBytes() const {
  return replica_vertex_.size() * sizeof(VertexIdx) +
         replica_time_.size() * sizeof(TimePoint) +
         offsets_.size() * sizeof(uint32_t) +
         edges_.size() * sizeof(TransitEdge) +
         vertex_offsets_.size() * sizeof(uint32_t) +
         replicas_by_vertex_.size() * sizeof(ReplicaIdx);
}

TransformedGraph BuildTransformedGraph(const TemporalGraph& g,
                                       const TransformOptions& options) {
  TransformedGraph tg;
  const std::vector<EdgeWeights> weights = ResolveWeights(g, options);
  const std::vector<std::vector<TimePoint>> times =
      CollectReplicaTimes(g, weights);

  // Assign replica indices, grouped by vertex in time order.
  tg.vertex_offsets_.assign(g.num_vertices() + 1, 0);
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    tg.vertex_offsets_[v + 1] =
        tg.vertex_offsets_[v] + static_cast<uint32_t>(times[v].size());
  }
  const size_t num_replicas = tg.vertex_offsets_.back();
  tg.replica_vertex_.reserve(num_replicas);
  tg.replica_time_.reserve(num_replicas);
  tg.replicas_by_vertex_.reserve(num_replicas);
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    for (TimePoint t : times[v]) {
      tg.replicas_by_vertex_.push_back(
          static_cast<ReplicaIdx>(tg.replica_vertex_.size()));
      tg.replica_vertex_.push_back(v);
      tg.replica_time_.push_back(t);
    }
  }

  // Degree pass: chain edges between consecutive replicas of one vertex,
  // transit edges per feasible departure.
  std::vector<uint32_t> degree(num_replicas, 0);
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    for (size_t k = 1; k < times[v].size(); ++k) {
      ++degree[tg.vertex_offsets_[v] + k - 1];
    }
  }
  auto for_each_transit = [&](auto&& fn) {
    for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
      const StoredEdge& e = g.edge(pos);
      const Interval window = g.ClipToHorizon(e.interval);
      const Interval& dst_span = g.vertex_interval(e.dst);
      for (TimePoint t = window.start; t < window.end; ++t) {
        const TimePoint tt = weights[pos].TravelTime(t);
        const TimePoint arrival = t + tt;
        if (!dst_span.Contains(arrival)) continue;
        const ReplicaIdx src = tg.ReplicaAt(e.src, t);
        const ReplicaIdx dst = tg.ReplicaAt(e.dst, arrival);
        GRAPHITE_CHECK(src != kInvalidReplica && dst != kInvalidReplica);
        fn(src, dst, weights[pos].Cost(t), tt);
      }
    }
  };
  for_each_transit([&](ReplicaIdx src, ReplicaIdx, PropValue, TimePoint) {
    ++degree[src];
  });

  tg.offsets_.assign(num_replicas + 1, 0);
  for (size_t r = 0; r < num_replicas; ++r) {
    tg.offsets_[r + 1] = tg.offsets_[r] + degree[r];
  }
  tg.edges_.resize(tg.offsets_.back());
  std::vector<uint32_t> cursor(tg.offsets_.begin(), tg.offsets_.end() - 1);
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    for (size_t k = 1; k < times[v].size(); ++k) {
      const ReplicaIdx src =
          static_cast<ReplicaIdx>(tg.vertex_offsets_[v] + k - 1);
      const ReplicaIdx dst = static_cast<ReplicaIdx>(tg.vertex_offsets_[v] + k);
      tg.edges_[cursor[src]++] = {dst, /*cost=*/0, /*travel_time=*/0,
                                  /*is_chain=*/true};
      ++tg.num_chain_edges_;
    }
  }
  for_each_transit(
      [&](ReplicaIdx src, ReplicaIdx dst, PropValue cost, TimePoint tt) {
        tg.edges_[cursor[src]++] = {dst, cost, tt, /*is_chain=*/false};
      });
  return tg;
}

void CountTransformedGraph(const TemporalGraph& g,
                           const TransformOptions& options, size_t* replicas,
                           size_t* edges) {
  const std::vector<EdgeWeights> weights = ResolveWeights(g, options);
  const std::vector<std::vector<TimePoint>> times =
      CollectReplicaTimes(g, weights);
  size_t nr = 0, chain = 0;
  for (const auto& tv : times) {
    nr += tv.size();
    if (!tv.empty()) chain += tv.size() - 1;
  }
  size_t transit = 0;
  for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
    const StoredEdge& e = g.edge(pos);
    const Interval window = g.ClipToHorizon(e.interval);
    const Interval& dst_span = g.vertex_interval(e.dst);
    for (TimePoint t = window.start; t < window.end; ++t) {
      if (dst_span.Contains(t + weights[pos].TravelTime(t))) ++transit;
    }
  }
  *replicas = nr;
  *edges = chain + transit;
}

}  // namespace graphite
