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
                                             std::string_view label,
                                             const Interval& interval,
                                             PropValue value) {
  vertex_props_.push_back({vid, std::string(label), interval, value});
}

void TemporalGraphBuilder::SetEdgeProperty(EdgeId eid, std::string_view label,
                                           const Interval& interval,
                                           PropValue value) {
  edge_props_.push_back({eid, std::string(label), interval, value});
}

Result<TemporalGraph> TemporalGraphBuilder::Build(
    const BuilderOptions& options) {
  TemporalGraph g;
  auto base = std::make_shared<TemporalGraph::SealedBase>();
  TemporalGraph::SealedBase& b = *base;
  // Endpoints resolve through a hash map while building; the base keeps
  // the same index as a sorted flat array.
  std::unordered_map<VertexId, VertexIdx> vid_to_idx;
  auto index_of = [&vid_to_idx](VertexId vid) -> std::optional<VertexIdx> {
    auto it = vid_to_idx.find(vid);
    if (it == vid_to_idx.end()) return std::nullopt;
    return it->second;
  };

  // --- Vertices (Constraint 1: unique vids, one contiguous lifespan). ---
  b.vertex_ids.reserve(vertices_.size());
  b.vertex_intervals.reserve(vertices_.size());
  vid_to_idx.reserve(vertices_.size());
  for (const PendingVertex& v : vertices_) {
    if (!v.interval.IsValid()) {
      return Status::InvalidArgument("vertex " + std::to_string(v.vid) +
                                     " has invalid lifespan " +
                                     v.interval.ToString());
    }
    auto [it, inserted] = vid_to_idx.emplace(
        v.vid, static_cast<VertexIdx>(b.vertex_ids.size()));
    if (!inserted) {
      return Status::ConstraintViolation(
          "Constraint 1: duplicate vertex id " + std::to_string(v.vid));
    }
    b.vertex_ids.push_back(v.vid);
    b.vertex_intervals.push_back(v.interval);
  }
  const size_t num_vertices = b.vertex_ids.size();
  b.vid_index.reserve(num_vertices);
  for (size_t i = 0; i < num_vertices; ++i) {
    b.vid_index.emplace_back(b.vertex_ids[i], static_cast<VertexIdx>(i));
  }
  std::sort(b.vid_index.begin(), b.vid_index.end());

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
  // lifespan; Def. 1: no overlapping values for one label). Vertex
  // properties are checked and flattened before edge properties, each run
  // in input order up to the first failure, so the error reported is the
  // one a run-by-run scan meets first. ---
  auto intern = [&g](const std::string& name) -> std::optional<LabelId> {
    auto it = g.label_to_id_.find(name);
    if (it != g.label_to_id_.end()) return it->second;
    if (!IsValidLabel(name)) return std::nullopt;
    LabelId id = static_cast<LabelId>(g.labels_.size());
    g.labels_.push_back(name);
    g.label_to_id_.emplace(name, id);
    return id;
  };
  std::vector<TemporalGraph::StagedRun> staged;
  auto add_props = [&](const std::vector<PendingProp>& pending,
                       const char* kind, size_t num_entities,
                       auto entity_of, auto span_of,
                       TemporalGraph::PropStore* store) -> Status {
    staged.clear();
    staged.reserve(pending.size());
    Status bad = Status::OK();
    for (uint32_t i = 0; i < pending.size() && bad.ok(); ++i) {
      const PendingProp& p = pending[i];
      const std::optional<uint32_t> entity = entity_of(p.entity);
      if (!entity) {
        bad = Status::ConstraintViolation(
            std::string("Constraint 3: property on missing ") + kind + " " +
            std::to_string(p.entity));
      } else if (!p.interval.IsValid()) {
        bad = Status::InvalidArgument("property interval invalid: " +
                                      p.interval.ToString());
      } else if (const Interval& span = span_of(*entity);
                 options.validate && !p.interval.ContainedIn(span)) {
        bad = Status::ConstraintViolation(
            std::string("Constraint 3: ") + kind + " property '" + p.label +
            "' interval " + p.interval.ToString() +
            " not contained in entity lifespan " + span.ToString());
      } else if (const std::optional<LabelId> label = intern(p.label);
                 !label) {
        bad = Status::InvalidArgument(std::string(kind) + " property label '" +
                                      p.label +
                                      "' is empty or contains whitespace");
      } else {
        staged.push_back({*entity, i, 0, *label, p.interval, p.value});
      }
    }
    const uint32_t overlap =
        TemporalGraph::OrderStagedRuns(&staged, num_entities);
    if (options.validate && overlap != TemporalGraph::kNoOverlap) {
      const PendingProp& p = pending[overlap];
      return Status::ConstraintViolation(
          std::string("Def. 1: overlapping values for ") + kind +
          " property '" + p.label + "' at " + p.interval.ToString());
    }
    GRAPHITE_RETURN_NOT_OK(bad);
    size_t groups = 0;
    for (size_t k = 0; k < staged.size(); ++k) {
      groups += k == 0 || staged[k].entity != staged[k - 1].entity ||
                staged[k].rank != staged[k - 1].rank;
    }
    store->Reserve(num_entities, groups, staged.size());
    store->AppendStaged(staged, num_entities);
    return Status::OK();
  };
  GRAPHITE_RETURN_NOT_OK(add_props(
      vertex_props_, "vertex", num_vertices,
      [&](int64_t vid) { return index_of(vid); },
      [&](uint32_t v) -> const Interval& { return b.vertex_intervals[v]; },
      &b.vertex_props));
  GRAPHITE_RETURN_NOT_OK(add_props(
      edge_props_, "edge", b.edges.size(),
      [&](int64_t eid) -> std::optional<uint32_t> {
        auto it = eid_to_pos.find(eid);
        if (it == eid_to_pos.end()) return std::nullopt;
        return it->second;
      },
      [&](uint32_t pos) -> const Interval& { return b.edges[pos].interval; },
      &b.edge_props));

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
    for (const PropRun& run : b.vertex_props.runs) consider(run.interval);
    for (const PropRun& run : b.edge_props.runs) consider(run.interval);
    g.horizon_ = max_end > 0 ? max_end : 1;
  }

  g.AdoptBase(std::move(base));
  return g;
}

}  // namespace graphite
