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
GraphUpdate GraphUpdate::RemoveVertex(TimePoint t, VertexId id) {
  GraphUpdate u;
  u.kind = Kind::kRemoveVertex;
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
GraphUpdate GraphUpdate::SetVertexProp(TimePoint t, VertexId id,
                                       std::string label, PropValue value) {
  GraphUpdate u;
  u.kind = Kind::kSetVertexProp;
  u.time = t;
  u.id = id;
  u.label = std::move(label);
  u.value = value;
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

bool StreamingGraphBuilder::VertexAlive(VertexId id) const {
  auto it = vertices_.find(id);
  return it != vertices_.end() && it->second.end == kTimeMax;
}

Status StreamingGraphBuilder::Apply(const GraphUpdate& update) {
  if (update.time < now_) {
    return Status::InvalidArgument(
        "out-of-order event: time " + std::to_string(update.time) +
        " < stream clock " + std::to_string(now_));
  }
  switch (update.kind) {
    case GraphUpdate::Kind::kAddVertex: {
      if (vertices_.count(update.id) > 0) {
        return Status::ConstraintViolation(
            "Constraint 1: vertex " + std::to_string(update.id) +
            " already exists (ids never re-occur)");
      }
      VertexRecord rec;
      rec.start = update.time;
      vertices_.emplace(update.id, std::move(rec));
      break;
    }
    case GraphUpdate::Kind::kRemoveVertex: {
      auto it = vertices_.find(update.id);
      if (it == vertices_.end() || it->second.end != kTimeMax) {
        return Status::NotFound("vertex " + std::to_string(update.id) +
                                " is not alive");
      }
      if (update.time <= it->second.start) {
        return Status::InvalidArgument("vertex would have empty lifespan");
      }
      // Removing a vertex retires its live edges and property runs too
      // (referential integrity, Constraints 2-3).
      for (auto& [eid, e] : edges_) {
        (void)eid;
        if (e.end == kTimeMax && (e.src == update.id || e.dst == update.id)) {
          e.end = update.time;
          for (auto& run : e.props) {
            if (run.end == kTimeMax) run.end = update.time;
          }
        }
      }
      for (auto& run : it->second.props) {
        if (run.end == kTimeMax) run.end = update.time;
      }
      it->second.end = update.time;
      break;
    }
    case GraphUpdate::Kind::kAddEdge: {
      if (edges_.count(update.id) > 0) {
        return Status::ConstraintViolation(
            "Constraint 1: edge " + std::to_string(update.id) +
            " already exists (ids never re-occur)");
      }
      if (!VertexAlive(update.src) || !VertexAlive(update.dst)) {
        return Status::ConstraintViolation(
            "Constraint 2: edge " + std::to_string(update.id) +
            " endpoints must both be alive");
      }
      EdgeRecord rec;
      rec.src = update.src;
      rec.dst = update.dst;
      rec.start = update.time;
      edges_.emplace(update.id, std::move(rec));
      break;
    }
    case GraphUpdate::Kind::kRemoveEdge: {
      auto it = edges_.find(update.id);
      if (it == edges_.end() || it->second.end != kTimeMax) {
        return Status::NotFound("edge " + std::to_string(update.id) +
                                " is not alive");
      }
      if (update.time <= it->second.start) {
        return Status::InvalidArgument("edge would have empty lifespan");
      }
      for (auto& run : it->second.props) {
        if (run.end == kTimeMax) run.end = update.time;
      }
      it->second.end = update.time;
      break;
    }
    case GraphUpdate::Kind::kSetVertexProp: {
      auto it = vertices_.find(update.id);
      if (it == vertices_.end() || it->second.end != kTimeMax) {
        return Status::ConstraintViolation(
            "Constraint 3: property on missing/dead vertex " +
            std::to_string(update.id));
      }
      for (auto& run : it->second.props) {
        if (run.label == update.label && run.end == kTimeMax) {
          if (run.start == update.time) {
            // Same-instant overwrite: replace the value in place.
            run.value = update.value;
            now_ = update.time;
            return Status::OK();
          }
          run.end = update.time;
        }
      }
      it->second.props.push_back(
          {update.label, update.time, kTimeMax, update.value});
      break;
    }
    case GraphUpdate::Kind::kSetEdgeProp: {
      auto it = edges_.find(update.id);
      if (it == edges_.end() || it->second.end != kTimeMax) {
        return Status::ConstraintViolation(
            "Constraint 3: property on missing/dead edge " +
            std::to_string(update.id));
      }
      for (auto& run : it->second.props) {
        if (run.label == update.label && run.end == kTimeMax) {
          if (run.start == update.time) {
            run.value = update.value;
            now_ = update.time;
            return Status::OK();
          }
          run.end = update.time;
        }
      }
      it->second.props.push_back(
          {update.label, update.time, kTimeMax, update.value});
      break;
    }
  }
  now_ = update.time;
  return Status::OK();
}

Status StreamingGraphBuilder::ApplyAll(const std::vector<GraphUpdate>& updates) {
  for (const GraphUpdate& u : updates) {
    GRAPHITE_RETURN_NOT_OK(Apply(u));
  }
  return Status::OK();
}

Result<TemporalGraph> StreamingGraphBuilder::Seal(TimePoint horizon) const {
  if (horizon <= now_) {
    return Status::InvalidArgument("horizon must be beyond the stream clock");
  }
  TemporalGraphBuilder builder;
  auto clip_end = [horizon](TimePoint end) {
    return end == kTimeMax ? horizon : std::min(end, horizon);
  };
  for (const auto& [vid, rec] : vertices_) {
    const Interval span(rec.start, clip_end(rec.end));
    if (!span.IsValid()) continue;
    builder.AddVertex(vid, span);
    for (const auto& run : rec.props) {
      const Interval ri(run.start, clip_end(run.end));
      if (ri.IsValid()) builder.SetVertexProperty(vid, run.label, ri, run.value);
    }
  }
  for (const auto& [eid, rec] : edges_) {
    const Interval span(rec.start, clip_end(rec.end));
    if (!span.IsValid()) continue;
    builder.AddEdge(eid, rec.src, rec.dst, span);
    for (const auto& run : rec.props) {
      const Interval ri(run.start, clip_end(run.end));
      if (ri.IsValid()) builder.SetEdgeProperty(eid, run.label, ri, run.value);
    }
  }
  BuilderOptions options;
  options.horizon = horizon;
  return builder.Build(options);
}

size_t StreamingGraphBuilder::num_live_vertices() const {
  size_t count = 0;
  for (const auto& [vid, rec] : vertices_) {
    (void)vid;
    if (rec.end == kTimeMax) ++count;
  }
  return count;
}

size_t StreamingGraphBuilder::num_live_edges() const {
  size_t count = 0;
  for (const auto& [eid, rec] : edges_) {
    (void)eid;
    if (rec.end == kTimeMax) ++count;
  }
  return count;
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
    case GraphUpdate::Kind::kRemoveVertex:
      return Status::InvalidArgument(
          "append path: vertex removal would rewrite sealed storage "
          "(vertex " + std::to_string(update.id) + ")");
    case GraphUpdate::Kind::kSetVertexProp:
      return Status::InvalidArgument(
          "append path: vertex properties would rewrite sealed storage "
          "(vertex " + std::to_string(update.id) + ")");
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
