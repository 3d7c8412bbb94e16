#include "graph/builder.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "graph/id_index.h"

namespace graphite {

void TemporalGraphBuilder::AddVertex(VertexId vid, const Interval& interval) {
  vertices_.push_back({vid, interval});
}

void TemporalGraphBuilder::AddEdge(EdgeId eid, VertexId src, VertexId dst,
                                   const Interval& interval) {
  edges_.push_back({eid, src, dst, interval});
}

uint32_t TemporalGraphBuilder::InternLabel(std::string_view label) {
  auto it = label_index_.find(label);
  if (it == label_index_.end()) {
    const auto index = static_cast<uint32_t>(label_names_.size());
    label_names_.emplace_back(label);
    it = label_index_.emplace(label_names_.back(), index).first;
  }
  return it->second;
}

void TemporalGraphBuilder::SetVertexProperty(VertexId vid,
                                             std::string_view label,
                                             const Interval& interval,
                                             PropValue value) {
  vertex_props_.push_back({vid, InternLabel(label), interval, value});
}

void TemporalGraphBuilder::SetEdgeProperty(EdgeId eid, std::string_view label,
                                           const Interval& interval,
                                           PropValue value) {
  edge_props_.push_back({eid, InternLabel(label), interval, value});
}

Result<TemporalGraph> TemporalGraphBuilder::Build(
    const BuilderOptions& options) {
  TemporalGraph g;
  auto base = std::make_shared<TemporalGraph::SealedBase>();
  TemporalGraph::SealedBase& b = *base;

  // --- Vertices (Constraint 1: unique vids, one contiguous lifespan). A
  // vertex's index is its input position; the sorted id index the base
  // keeps is what finds the first repeated id. ---
  const auto num_vertices = static_cast<uint32_t>(vertices_.size());
  b.vid_index.reserve(num_vertices);
  for (uint32_t i = 0; i < num_vertices; ++i) {
    b.vid_index.emplace_back(vertices_[i].vid, i);
  }
  const uint32_t dup_vertex =
      SortAndFindFirstDuplicate(&b.vid_index, num_vertices);
  b.vertex_ids.reserve(num_vertices);
  b.vertex_intervals.reserve(num_vertices);
  for (uint32_t i = 0; i < num_vertices; ++i) {
    const PendingVertex& v = vertices_[i];
    if (!v.interval.IsValid()) {
      return Status::InvalidArgument("vertex " + std::to_string(v.vid) +
                                     " has invalid lifespan " +
                                     v.interval.ToString());
    }
    if (i == dup_vertex) {
      return Status::ConstraintViolation(
          "Constraint 1: duplicate vertex id " + std::to_string(v.vid));
    }
    b.vertex_ids.push_back(v.vid);
    b.vertex_intervals.push_back(v.interval);
  }

  // --- Edges (Constraint 1 uniqueness, Constraint 2 referential
  // integrity: edge lifespan contained in both endpoint lifespans). ---
  const auto num_edges = static_cast<uint32_t>(edges_.size());
  IdIndex<EdgeId> eid_index;  // input position, then storage position
  eid_index.reserve(num_edges);
  for (uint32_t i = 0; i < num_edges; ++i) {
    eid_index.emplace_back(edges_[i].eid, i);
  }
  const uint32_t dup_edge = SortAndFindFirstDuplicate(&eid_index, num_edges);
  std::vector<std::pair<VertexIdx, VertexIdx>> ends;  // by input position
  ends.reserve(num_edges);
  b.out_offsets.assign(num_vertices + 1, 0);
  for (uint32_t i = 0; i < num_edges; ++i) {
    const PendingEdge& e = edges_[i];
    if (!e.interval.IsValid()) {
      return Status::InvalidArgument("edge " + std::to_string(e.eid) +
                                     " has invalid lifespan " +
                                     e.interval.ToString());
    }
    if (i == dup_edge) {
      return Status::ConstraintViolation("Constraint 1: duplicate edge id " +
                                         std::to_string(e.eid));
    }
    const VertexIdx* src = FindId(b.vid_index, e.src);
    const VertexIdx* dst = FindId(b.vid_index, e.dst);
    if (src == nullptr || dst == nullptr) {
      return Status::ConstraintViolation(
          "Constraint 2: edge " + std::to_string(e.eid) +
          " references missing vertex");
    }
    if (!e.interval.ContainedIn(b.vertex_intervals[*src]) ||
        !e.interval.ContainedIn(b.vertex_intervals[*dst])) {
      return Status::ConstraintViolation(
          "Constraint 2: edge " + std::to_string(e.eid) + " lifespan " +
          e.interval.ToString() + " not contained in endpoint lifespans");
    }
    ends.emplace_back(*src, *dst);
    ++b.out_offsets[*src + 1];
  }

  // CSR out-adjacency, edges sorted by (src, eid) for determinism: a
  // counting sort by source, then each source's edges by id.
  for (uint32_t v = 0; v < num_vertices; ++v) {
    b.out_offsets[v + 1] += b.out_offsets[v];
  }
  std::vector<uint32_t> order(num_edges);  // storage -> input position
  {
    std::vector<uint32_t> next(b.out_offsets.begin(), b.out_offsets.end() - 1);
    for (uint32_t i = 0; i < num_edges; ++i) order[next[ends[i].first]++] = i;
  }
  const auto by_eid = [this](uint32_t x, uint32_t y) {
    return edges_[x].eid < edges_[y].eid;
  };
  for (uint32_t v = 0; v < num_vertices; ++v) {
    const auto first = order.begin() + b.out_offsets[v];
    const auto last = order.begin() + b.out_offsets[v + 1];
    std::sort(first, last, by_eid);
  }
  std::vector<uint32_t> pos_of(num_edges);  // input -> storage position
  b.edges.reserve(num_edges);
  for (uint32_t pos = 0; pos < num_edges; ++pos) {
    const uint32_t i = order[pos];
    const PendingEdge& e = edges_[i];
    b.edges.push_back({e.eid, ends[i].first, ends[i].second, e.interval});
    pos_of[i] = pos;
  }
  for (auto& entry : eid_index) entry.second = pos_of[entry.second];

  // CSR in-adjacency over edge positions.
  b.BuildInAdjacency();

  // --- Properties (Constraint 3: property interval contained in entity
  // lifespan; Def. 1: no overlapping values for one label). Vertex
  // properties are checked and flattened before edge properties, each run
  // in input order up to the first failure, so the error reported is the
  // one a run-by-run scan meets first. ---
  // Builder labels become graph labels in the order runs that pass their
  // checks first use them, as interning each run's label in turn would.
  std::vector<std::optional<LabelId>> label_ids(label_names_.size());
  auto intern = [&](uint32_t label) -> std::optional<LabelId> {
    if (label_ids[label]) return label_ids[label];
    const std::string& name = label_names_[label];
    if (!IsValidLabel(name)) return std::nullopt;
    const auto id = static_cast<LabelId>(g.labels_.size());
    g.labels_.push_back(name);
    g.label_to_id_.emplace(name, id);
    label_ids[label] = id;
    return id;
  };
  std::vector<TemporalGraph::StagedRun> staged;
  auto add_props = [&](const std::vector<PendingProp>& pending,
                       const char* kind, const IdIndex<int64_t>& ids,
                       auto span_of, TemporalGraph::PropStore* store) -> Status {
    const size_t num_entities = ids.size();
    staged.clear();
    staged.reserve(pending.size());
    Status bad = Status::OK();
    for (uint32_t i = 0; i < pending.size() && bad.ok(); ++i) {
      const PendingProp& p = pending[i];
      const uint32_t* entity = FindId(ids, p.entity);
      if (entity == nullptr) {
        bad = Status::ConstraintViolation(
            std::string("Constraint 3: property on missing ") + kind + " " +
            std::to_string(p.entity));
      } else if (!p.interval.IsValid()) {
        bad = Status::InvalidArgument("property interval invalid: " +
                                      p.interval.ToString());
      } else if (const Interval& span = span_of(*entity);
                 !p.interval.ContainedIn(span)) {
        bad = Status::ConstraintViolation(
            std::string("Constraint 3: ") + kind + " property '" +
            label_names_[p.label] + "' interval " + p.interval.ToString() +
            " not contained in entity lifespan " + span.ToString());
      } else if (const std::optional<LabelId> label = intern(p.label);
                 !label) {
        bad = Status::InvalidArgument(std::string(kind) + " property label '" +
                                      label_names_[p.label] +
                                      "' is empty or contains whitespace");
      } else {
        staged.push_back({*entity, i, 0, *label, p.interval, p.value});
      }
    }
    const uint32_t overlap =
        TemporalGraph::OrderStagedRuns(&staged, num_entities);
    if (overlap != TemporalGraph::kNoOverlap) {
      const PendingProp& p = pending[overlap];
      return Status::ConstraintViolation(
          std::string("Def. 1: overlapping values for ") + kind +
          " property '" + label_names_[p.label] + "' at " +
          p.interval.ToString());
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
      vertex_props_, "vertex", b.vid_index,
      [&](uint32_t v) -> const Interval& { return b.vertex_intervals[v]; },
      &b.vertex_props));
  GRAPHITE_RETURN_NOT_OK(add_props(
      edge_props_, "edge", eid_index,
      [&](uint32_t pos) -> const Interval& { return b.edges[pos].interval; },
      &b.edge_props));

  // --- Horizon. ---
  if (options.horizon > 0) {
    g.horizon_ = options.horizon;
  } else {
    g.DeriveHorizon(b);
  }

  g.AdoptBase(std::move(base));
  return g;
}

}  // namespace graphite
