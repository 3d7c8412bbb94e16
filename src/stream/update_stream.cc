#include "stream/update_stream.h"

#include <algorithm>

#include "algorithms/common.h"
#include "util/rng.h"

namespace graphite {

GraphUpdate GraphUpdate::AddVertex(TimePoint t, VertexId id) {
  GraphUpdate u;
  u.kind = Kind::kAddVertex;
  u.time = t;
  u.id = id;
  return u;
}
GraphUpdate GraphUpdate::AddEdge(TimePoint t, EdgeId id, VertexId src,
                                 VertexId dst) {
  GraphUpdate u;
  u.kind = Kind::kAddEdge;
  u.time = t;
  u.id = id;
  u.src = src;
  u.dst = dst;
  return u;
}
GraphUpdate GraphUpdate::RemoveEdge(TimePoint t, EdgeId id) {
  GraphUpdate u;
  u.kind = Kind::kRemoveEdge;
  u.time = t;
  u.id = id;
  return u;
}
GraphUpdate GraphUpdate::SetEdgeProp(TimePoint t, EdgeId id, std::string label,
                                     PropValue value) {
  GraphUpdate u;
  u.kind = Kind::kSetEdgeProp;
  u.time = t;
  u.id = id;
  u.label = std::move(label);
  u.value = value;
  return u;
}

Status UpdateBatcher::Push(const GraphUpdate& update) {
  if (update.time < now_) {
    return Status::InvalidArgument(
        "out-of-order event: time " + std::to_string(update.time) +
        " < stream clock " + std::to_string(now_));
  }
  switch (update.kind) {
    case GraphUpdate::Kind::kAddVertex:
      // Open-ended: append-path vertices live to the horizon, so future
      // batches can attach edges to them after they leave the batcher.
      vertices_.push_back({update.id, Interval(update.time, kTimeMax)});
      break;
    case GraphUpdate::Kind::kAddEdge: {
      if (edge_index_.count(update.id) != 0) {
        return Status::ConstraintViolation(
            "Constraint 1: edge " + std::to_string(update.id) +
            " already pending (ids never re-occur)");
      }
      edge_index_.emplace(update.id, edges_.size());
      PendingEdge e;
      e.eid = update.id;
      e.src = update.src;
      e.dst = update.dst;
      e.start = update.time;
      edges_.push_back(std::move(e));
      break;
    }
    case GraphUpdate::Kind::kRemoveEdge: {
      auto it = edge_index_.find(update.id);
      if (it == edge_index_.end()) {
        return Status::NotFound(
            "edge " + std::to_string(update.id) +
            " is not pending (already appended edges are sealed)");
      }
      PendingEdge& e = edges_[it->second];
      if (e.end != kTimeMax) {
        return Status::NotFound("edge " + std::to_string(update.id) +
                                " is not alive");
      }
      if (update.time <= e.start) {
        return Status::InvalidArgument("edge would have empty lifespan");
      }
      for (PropRun& run : e.props) {
        if (run.end == kTimeMax) run.end = update.time;
      }
      e.end = update.time;
      break;
    }
    case GraphUpdate::Kind::kSetEdgeProp: {
      auto it = edge_index_.find(update.id);
      if (it == edge_index_.end() || edges_[it->second].end != kTimeMax) {
        return Status::ConstraintViolation(
            "Constraint 3: property on missing/dead/appended edge " +
            std::to_string(update.id));
      }
      PendingEdge& e = edges_[it->second];
      for (PropRun& run : e.props) {
        if (run.label == update.label && run.end == kTimeMax) {
          if (run.start == update.time) {
            run.value = update.value;  // Same-instant overwrite.
            now_ = update.time;
            return Status::OK();
          }
          run.end = update.time;
        }
      }
      e.props.push_back({update.label, update.time, kTimeMax, update.value});
      break;
    }
  }
  now_ = update.time;
  return Status::OK();
}

void UpdateBatcher::EmitEdge(const PendingEdge& e, TimePoint end,
                             EdgeBatch* batch) {
  batch->edges.push_back({e.eid, e.src, e.dst, Interval(e.start, end)});
  for (const PropRun& run : e.props) {
    const Interval ri(run.start, std::min(run.end, end));
    if (ri.IsValid()) {
      batch->props.push_back({e.eid, run.label, ri, run.value});
    }
  }
}

EdgeBatch UpdateBatcher::DrainClosed() {
  EdgeBatch batch;
  batch.vertices = std::move(vertices_);
  vertices_.clear();
  std::vector<PendingEdge> remaining;
  remaining.reserve(edges_.size());
  for (PendingEdge& e : edges_) {
    if (e.end != kTimeMax) {
      EmitEdge(e, e.end, &batch);
    } else {
      remaining.push_back(std::move(e));
    }
  }
  edges_ = std::move(remaining);
  edge_index_.clear();
  for (size_t i = 0; i < edges_.size(); ++i) {
    edge_index_.emplace(edges_[i].eid, i);
  }
  return batch;
}

Result<EdgeBatch> UpdateBatcher::FlushAll(TimePoint horizon) {
  if (horizon <= now_) {
    return Status::InvalidArgument("horizon must be beyond the stream clock");
  }
  EdgeBatch batch;
  batch.vertices = std::move(vertices_);
  vertices_.clear();
  for (PendingEdge& e : edges_) {
    EmitEdge(e, e.end == kTimeMax ? horizon : e.end, &batch);
  }
  edges_.clear();
  edge_index_.clear();
  return batch;
}

std::vector<GraphUpdate> SyntheticUpdateStream(uint64_t seed, int num_vertices,
                                               int num_events,
                                               TimePoint horizon,
                                               double churn) {
  Rng rng(seed);
  std::vector<GraphUpdate> out;
  out.reserve(static_cast<size_t>(num_events) + num_vertices);
  for (int v = 0; v < num_vertices; ++v) {
    out.push_back(GraphUpdate::AddVertex(0, v));
  }
  struct LiveEdge {
    EdgeId id;
    TimePoint since;
  };
  std::vector<LiveEdge> live;
  EdgeId next_eid = 0;
  for (int i = 0; i < num_events; ++i) {
    // Events spread uniformly over (0, horizon).
    const TimePoint t =
        1 + (static_cast<TimePoint>(i) * (horizon - 1)) / num_events;
    // Removal must leave a non-empty lifespan: pick an edge added earlier.
    size_t candidate = live.size();
    if (!live.empty() && rng.Bernoulli(churn)) {
      const size_t k = rng.Uniform(live.size());
      if (live[k].since < t) candidate = k;
    }
    if (candidate < live.size()) {
      out.push_back(GraphUpdate::RemoveEdge(t, live[candidate].id));
      live[candidate] = live.back();
      live.pop_back();
    } else {
      const VertexId src = static_cast<VertexId>(rng.Uniform(num_vertices));
      VertexId dst = static_cast<VertexId>(rng.Uniform(num_vertices));
      if (src == dst) dst = (dst + 1) % num_vertices;
      const EdgeId eid = next_eid++;
      out.push_back(GraphUpdate::AddEdge(t, eid, src, dst));
      out.push_back(GraphUpdate::SetEdgeProp(t, eid, kTravelTimeLabel,
                                             1 + rng.UniformRange(0, 2)));
      out.push_back(GraphUpdate::SetEdgeProp(t, eid, kTravelCostLabel,
                                             1 + rng.UniformRange(0, 9)));
      live.push_back({eid, t});
    }
  }
  return out;
}

}  // namespace graphite
