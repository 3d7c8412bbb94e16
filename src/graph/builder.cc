#include "graph/builder.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace graphite {

void TemporalGraphBuilder::AddVertex(VertexId vid, const Interval& interval) {
  vertices_.push_back({vid, interval});
}

void TemporalGraphBuilder::AddEdge(EdgeId eid, VertexId src, VertexId dst,
                                   const Interval& interval) {
  edges_.push_back({eid, src, dst, interval});
}

void TemporalGraphBuilder::SetVertexProperty(VertexId vid,
                                             const std::string& label,
                                             const Interval& interval,
                                             PropValue value) {
  vertex_props_.push_back({vid, label, interval, value});
}

void TemporalGraphBuilder::SetEdgeProperty(EdgeId eid, const std::string& label,
                                           const Interval& interval,
                                           PropValue value) {
  edge_props_.push_back({eid, label, interval, value});
}

Result<TemporalGraph> TemporalGraphBuilder::Build(
    const BuilderOptions& options) {
  TemporalGraph g;
  auto base = std::make_shared<TemporalGraph::SealedBase>();
  TemporalGraph::SealedBase& b = *base;
  auto index_of = [&b](VertexId vid) -> std::optional<VertexIdx> {
    auto it = b.vid_to_idx.find(vid);
    if (it == b.vid_to_idx.end()) return std::nullopt;
    return it->second;
  };

  // --- Vertices (Constraint 1: unique vids, one contiguous lifespan). ---
  b.vertex_ids.reserve(vertices_.size());
  b.vertex_intervals.reserve(vertices_.size());
  b.vid_to_idx.reserve(vertices_.size());
  for (const PendingVertex& v : vertices_) {
    if (!v.interval.IsValid()) {
      return Status::InvalidArgument("vertex " + std::to_string(v.vid) +
                                     " has invalid lifespan " +
                                     v.interval.ToString());
    }
    auto [it, inserted] = b.vid_to_idx.emplace(
        v.vid, static_cast<VertexIdx>(b.vertex_ids.size()));
    if (!inserted) {
      return Status::ConstraintViolation(
          "Constraint 1: duplicate vertex id " + std::to_string(v.vid));
    }
    b.vertex_ids.push_back(v.vid);
    b.vertex_intervals.push_back(v.interval);
  }
  const size_t num_vertices = b.vertex_ids.size();

  // --- Edges (Constraint 1 uniqueness, Constraint 2 referential
  // integrity: edge lifespan contained in both endpoint lifespans). ---
  std::unordered_map<EdgeId, EdgePos> eid_to_pos;
  eid_to_pos.reserve(edges_.size());
  std::vector<uint32_t> out_degree(num_vertices + 1, 0);
  struct ResolvedEdge {
    EdgeId eid;
    VertexIdx src;
    VertexIdx dst;
    Interval interval;
  };
  std::vector<ResolvedEdge> resolved;
  resolved.reserve(edges_.size());
  std::unordered_set<EdgeId> seen_eids;
  seen_eids.reserve(edges_.size());
  for (const PendingEdge& e : edges_) {
    if (!e.interval.IsValid()) {
      return Status::InvalidArgument("edge " + std::to_string(e.eid) +
                                     " has invalid lifespan " +
                                     e.interval.ToString());
    }
    if (!seen_eids.insert(e.eid).second) {
      return Status::ConstraintViolation("Constraint 1: duplicate edge id " +
                                         std::to_string(e.eid));
    }
    auto src = index_of(e.src);
    auto dst = index_of(e.dst);
    if (!src || !dst) {
      return Status::ConstraintViolation(
          "Constraint 2: edge " + std::to_string(e.eid) +
          " references missing vertex");
    }
    if (options.validate) {
      if (!e.interval.ContainedIn(b.vertex_intervals[*src]) ||
          !e.interval.ContainedIn(b.vertex_intervals[*dst])) {
        return Status::ConstraintViolation(
            "Constraint 2: edge " + std::to_string(e.eid) + " lifespan " +
            e.interval.ToString() + " not contained in endpoint lifespans");
      }
    }
    resolved.push_back({e.eid, *src, *dst, e.interval});
    ++out_degree[*src];
  }

  // CSR out-adjacency, edges sorted by (src, eid) for determinism.
  std::stable_sort(resolved.begin(), resolved.end(),
                   [](const ResolvedEdge& a, const ResolvedEdge& b) {
                     return a.src != b.src ? a.src < b.src : a.eid < b.eid;
                   });
  b.out_offsets.assign(num_vertices + 1, 0);
  for (size_t v = 0; v < num_vertices; ++v) {
    b.out_offsets[v + 1] = b.out_offsets[v] + out_degree[v];
  }
  b.edges.reserve(resolved.size());
  for (const ResolvedEdge& e : resolved) {
    eid_to_pos.emplace(e.eid, static_cast<EdgePos>(b.edges.size()));
    b.edges.push_back({e.eid, e.src, e.dst, e.interval});
  }

  // CSR in-adjacency over edge positions.
  b.BuildInAdjacency();

  // --- Properties (Constraint 3: property interval contained in entity
  // lifespan; Def. 1: no overlapping values for one label). ---
  auto intern = [&g](const std::string& name) -> LabelId {
    auto it = g.label_to_id_.find(name);
    if (it != g.label_to_id_.end()) return it->second;
    LabelId id = static_cast<LabelId>(g.labels_.size());
    g.labels_.push_back(name);
    g.label_to_id_.emplace(name, id);
    return id;
  };
  b.vertex_props.resize(num_vertices);
  b.edge_props.resize(b.edges.size());

  auto apply_prop =
      [&](TemporalGraph::PropList& props,
          const PendingProp& p, const Interval& entity_span,
          const char* kind) -> Status {
    if (!p.interval.IsValid()) {
      return Status::InvalidArgument("property interval invalid: " +
                                     p.interval.ToString());
    }
    if (options.validate && !p.interval.ContainedIn(entity_span)) {
      return Status::ConstraintViolation(
          std::string("Constraint 3: ") + kind + " property '" + p.label +
          "' interval " + p.interval.ToString() +
          " not contained in entity lifespan " + entity_span.ToString());
    }
    LabelId label = intern(p.label);
    IntervalMap<PropValue>* map = nullptr;
    for (auto& [l, m] : props) {
      if (l == label) {
        map = &m;
        break;
      }
    }
    if (map == nullptr) {
      props.emplace_back(label, IntervalMap<PropValue>());
      map = &props.back().second;
    }
    if (options.validate) {
      bool overlap = false;
      map->ForEachIntersecting(p.interval,
                               [&](const Interval&, PropValue) { overlap = true; });
      if (overlap) {
        return Status::ConstraintViolation(
            std::string("Def. 1: overlapping values for ") + kind +
            " property '" + p.label + "' at " + p.interval.ToString());
      }
    }
    map->Set(p.interval, p.value);
    return Status::OK();
  };

  for (const PendingProp& p : vertex_props_) {
    auto idx = index_of(p.entity);
    if (!idx) {
      return Status::ConstraintViolation(
          "Constraint 3: property on missing vertex " +
          std::to_string(p.entity));
    }
    GRAPHITE_RETURN_NOT_OK(apply_prop(b.vertex_props[*idx], p,
                                      b.vertex_intervals[*idx], "vertex"));
  }
  for (const PendingProp& p : edge_props_) {
    auto it = eid_to_pos.find(p.entity);
    if (it == eid_to_pos.end()) {
      return Status::ConstraintViolation(
          "Constraint 3: property on missing edge " + std::to_string(p.entity));
    }
    GRAPHITE_RETURN_NOT_OK(apply_prop(b.edge_props[it->second], p,
                                      b.edges[it->second].interval, "edge"));
  }

  // --- Horizon. ---
  if (options.horizon > 0) {
    g.horizon_ = options.horizon;
  } else {
    TimePoint max_end = 0;
    auto consider = [&max_end](const Interval& i) {
      if (i.end != kTimeMax && i.end > max_end) max_end = i.end;
      if (i.start != kTimeMin && i.start + 1 > max_end) max_end = i.start + 1;
    };
    for (const Interval& i : b.vertex_intervals) consider(i);
    for (const StoredEdge& e : b.edges) consider(e.interval);
    for (const auto& per : b.vertex_props) {
      for (const auto& [l, m] : per) {
        (void)l;
        for (const auto& entry : m.entries()) consider(entry.interval);
      }
    }
    for (const auto& per : b.edge_props) {
      for (const auto& [l, m] : per) {
        (void)l;
        for (const auto& entry : m.entries()) consider(entry.interval);
      }
    }
    g.horizon_ = max_end > 0 ? max_end : 1;
  }

  g.AdoptBase(std::move(base));
  return g;
}

}  // namespace graphite
