#include "graph/temporal_graph.h"

#include <algorithm>
#include <functional>
#include <iterator>

namespace graphite {

void AppendReceipt::Merge(const AppendReceipt& later) {
  first_fresh_vertex = std::min(first_fresh_vertex, later.first_fresh_vertex);
  // Union the edge ids (both sides sorted).
  std::vector<EdgeId> ids;
  ids.reserve(new_edge_ids.size() + later.new_edge_ids.size());
  std::set_union(new_edge_ids.begin(), new_edge_ids.end(),
                 later.new_edge_ids.begin(), later.new_edge_ids.end(),
                 std::back_inserter(ids));
  new_edge_ids = std::move(ids);
  // Union the touched sources, then drop anything at or past the merged
  // fresh boundary: a vertex fresh relative to the earliest baseline is
  // cold-started by the warm run, so re-scattering it would double-send.
  std::vector<VertexIdx> srcs;
  srcs.reserve(touched_sources.size() + later.touched_sources.size());
  std::set_union(touched_sources.begin(), touched_sources.end(),
                 later.touched_sources.begin(), later.touched_sources.end(),
                 std::back_inserter(srcs));
  srcs.erase(std::remove_if(srcs.begin(), srcs.end(),
                            [this](VertexIdx v) {
                              return v >= first_fresh_vertex;
                            }),
             srcs.end());
  touched_sources = std::move(srcs);
}

namespace {

// Sorts the unsorted tail [sorted_prefix, end) of `v` and merges it into
// the sorted prefix: O(n) for the small tails appends add.
template <typename T, typename Less>
void MergeTail(std::vector<T>* v, size_t sorted_prefix, Less less) {
  const auto mid = v->begin() + static_cast<std::ptrdiff_t>(sorted_prefix);
  std::sort(mid, v->end(), less);
  std::inplace_merge(v->begin(), mid, v->end(), less);
}

bool LinkLess(const TemporalGraph::DeltaLink& a,
              const TemporalGraph::DeltaLink& b) {
  return a.v != b.v ? a.v < b.v : a.idx < b.idx;
}

}  // namespace

void TemporalGraph::SealedBase::BuildInAdjacency() {
  const size_t n = out_offsets.size() - 1;
  std::vector<uint32_t> in_degree(n, 0);
  for (const StoredEdge& e : edges) ++in_degree[e.dst];
  in_offsets.assign(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    in_offsets[v + 1] = in_offsets[v] + in_degree[v];
  }
  in_positions.assign(edges.size(), 0);
  std::vector<uint32_t> cursor(in_offsets.begin(), in_offsets.end() - 1);
  for (EdgePos pos = 0; pos < edges.size(); ++pos) {
    in_positions[cursor[edges[pos].dst]++] = pos;
  }
}

TemporalGraph::TemporalGraph() {
  static const std::shared_ptr<const SealedBase> kEmpty =
      std::make_shared<SealedBase>();
  AdoptBase(kEmpty);
}

void TemporalGraph::AdoptBase(std::shared_ptr<const SealedBase> base) {
  base_ = std::move(base);
  sealed_edges_ = base_->edges.data();
  sealed_edge_props_ = base_->edge_props.data();
  vertex_ids_ = base_->vertex_ids.data();
  vertex_intervals_ = base_->vertex_intervals.data();
  out_offsets_ = base_->out_offsets.data();
  in_offsets_ = base_->in_offsets.data();
  in_positions_ = base_->in_positions.data();
  num_sealed_vertices_ = static_cast<uint32_t>(base_->vertex_ids.size());
  num_sealed_edges_ = static_cast<uint32_t>(base_->edges.size());
}

std::optional<VertexIdx> TemporalGraph::IndexOf(VertexId vid) const {
  auto it = base_->vid_to_idx.find(vid);
  if (it != base_->vid_to_idx.end()) return it->second;
  auto d = std::lower_bound(
      delta_vid_index_.begin(), delta_vid_index_.end(), vid,
      [](const std::pair<VertexId, VertexIdx>& p, VertexId x) {
        return p.first < x;
      });
  if (d != delta_vid_index_.end() && d->first == vid) return d->second;
  return std::nullopt;
}

const TemporalGraph::PropList& TemporalGraph::VertexProperties(
    VertexIdx v) const {
  static const PropList kNone;
  return v < num_sealed_vertices_ ? base_->vertex_props[v] : kNone;
}

LabelId TemporalGraph::InternLabel(const std::string& name) {
  auto it = label_to_id_.find(name);
  if (it != label_to_id_.end()) return it->second;
  LabelId id = static_cast<LabelId>(labels_.size());
  labels_.push_back(name);
  label_to_id_.emplace(name, id);
  return id;
}

bool TemporalGraph::HasEdgeId(EdgeId eid) const {
  return std::binary_search(sealed_eids_->begin(), sealed_eids_->end(), eid) ||
         std::binary_search(delta_eids_.begin(), delta_eids_.end(), eid);
}

void TemporalGraph::EnsureEidIndex() {
  if (sealed_eids_ != nullptr) return;
  auto eids = std::make_shared<std::vector<EdgeId>>();
  eids->reserve(num_sealed_edges_);
  for (uint32_t pos = 0; pos < num_sealed_edges_; ++pos) {
    eids->push_back(sealed_edges_[pos].eid);
  }
  std::sort(eids->begin(), eids->end());
  sealed_eids_ = std::move(eids);
}

void TemporalGraph::GrowHorizon(const Interval& i) {
  // The builder's derivation rule: the largest finite end, or one past the
  // largest finite start, whichever is later. Appends only ever grow T.
  if (i.end != kTimeMax && i.end > horizon_) horizon_ = i.end;
  if (i.start != kTimeMin && i.start + 1 > horizon_) horizon_ = i.start + 1;
}

Status TemporalGraph::Append(const EdgeBatch& batch, AppendReceipt* receipt) {
  if (batch.empty()) return Status::OK();
  EnsureEidIndex();

  // --- Validate everything first; the graph must be untouched on error.
  // Constraint 1: unique vertex ids (against the graph and batch-local).
  std::unordered_map<VertexId, Interval> batch_vertices;
  batch_vertices.reserve(batch.vertices.size());
  for (const EdgeBatch::NewVertex& v : batch.vertices) {
    if (!v.interval.IsValid()) {
      return Status::InvalidArgument("append: vertex " + std::to_string(v.vid) +
                                     " has invalid lifespan " +
                                     v.interval.ToString());
    }
    if (IndexOf(v.vid).has_value() ||
        !batch_vertices.emplace(v.vid, v.interval).second) {
      return Status::ConstraintViolation(
          "Constraint 1: append duplicates vertex id " + std::to_string(v.vid));
    }
  }

  // Constraint 1 (edge ids) + Constraint 2 (endpoints exist, lifespan
  // containment). Endpoints may be sealed vertices or batch vertices.
  auto lifespan_of = [&](VertexId vid) -> const Interval* {
    if (const auto idx = IndexOf(vid)) return &vertex_interval(*idx);
    auto bit = batch_vertices.find(vid);
    if (bit != batch_vertices.end()) return &bit->second;
    return nullptr;
  };
  std::unordered_map<EdgeId, Interval> batch_edges;
  batch_edges.reserve(batch.edges.size());
  for (const EdgeBatch::NewEdge& e : batch.edges) {
    if (!e.interval.IsValid()) {
      return Status::InvalidArgument("append: edge " + std::to_string(e.eid) +
                                     " has invalid lifespan " +
                                     e.interval.ToString());
    }
    if (HasEdgeId(e.eid) ||
        !batch_edges.emplace(e.eid, e.interval).second) {
      return Status::ConstraintViolation(
          "Constraint 1: append duplicates edge id " + std::to_string(e.eid));
    }
    const Interval* src_span = lifespan_of(e.src);
    const Interval* dst_span = lifespan_of(e.dst);
    if (src_span == nullptr || dst_span == nullptr) {
      return Status::ConstraintViolation(
          "Constraint 2: append edge " + std::to_string(e.eid) +
          " references missing vertex");
    }
    if (!e.interval.ContainedIn(*src_span) ||
        !e.interval.ContainedIn(*dst_span)) {
      return Status::ConstraintViolation(
          "Constraint 2: append edge " + std::to_string(e.eid) + " lifespan " +
          e.interval.ToString() + " not contained in endpoint lifespans");
    }
  }

  // Constraint 3 + Def. 1 for properties. Sealed edges are immutable, so
  // properties may only target edges of this batch; overlap checks are
  // therefore batch-local per (eid, label).
  std::unordered_map<EdgeId,
                     std::vector<std::pair<std::string, IntervalMap<int>>>>
      prop_probe;
  for (const EdgeBatch::NewEdgeProp& p : batch.props) {
    if (!p.interval.IsValid()) {
      return Status::InvalidArgument("append: property interval invalid: " +
                                     p.interval.ToString());
    }
    auto eit = batch_edges.find(p.eid);
    if (eit == batch_edges.end()) {
      return Status::ConstraintViolation(
          "append: property targets edge " + std::to_string(p.eid) +
          " outside this batch (sealed edges are immutable)");
    }
    if (!p.interval.ContainedIn(eit->second)) {
      return Status::ConstraintViolation(
          "Constraint 3: append edge property '" + p.label + "' interval " +
          p.interval.ToString() + " not contained in edge lifespan " +
          eit->second.ToString());
    }
    auto& maps = prop_probe[p.eid];
    IntervalMap<int>* map = nullptr;
    for (auto& [label, m] : maps) {
      if (label == p.label) {
        map = &m;
        break;
      }
    }
    if (map == nullptr) {
      maps.emplace_back(p.label, IntervalMap<int>());
      map = &maps.back().second;
    }
    bool overlap = false;
    map->ForEachIntersecting(p.interval,
                             [&](const Interval&, int) { overlap = true; });
    if (overlap) {
      return Status::ConstraintViolation(
          "Def. 1: overlapping values for append edge property '" + p.label +
          "' at " + p.interval.ToString());
    }
    map->Set(p.interval, 1);
  }

  // --- Apply (no failure paths from here on). ---
  const VertexIdx old_num_vertices = static_cast<VertexIdx>(num_vertices());
  AppendReceipt out;
  out.first_fresh_vertex =
      batch.vertices.empty() ? kInvalidVertex : old_num_vertices;

  // A fresh vertex has no sealed adjacency: it lives in the delta only.
  const size_t old_vid_index = delta_vid_index_.size();
  for (const EdgeBatch::NewVertex& v : batch.vertices) {
    delta_vid_index_.emplace_back(v.vid,
                                  static_cast<VertexIdx>(num_vertices()));
    delta_vertex_ids_.push_back(v.vid);
    delta_vertex_intervals_.push_back(v.interval);
    GrowHorizon(v.interval);
  }
  MergeTail(&delta_vid_index_, old_vid_index,
            [](const std::pair<VertexId, VertexIdx>& a,
               const std::pair<VertexId, VertexIdx>& b) {
              return a.first < b.first;
            });

  const size_t old_links = delta_out_.size();
  const size_t old_eids = delta_eids_.size();
  std::unordered_map<EdgeId, size_t> batch_eid_to_delta;
  batch_eid_to_delta.reserve(batch.edges.size());
  for (const EdgeBatch::NewEdge& e : batch.edges) {
    const VertexIdx src = *IndexOf(e.src);
    const VertexIdx dst = *IndexOf(e.dst);
    const uint32_t delta_idx = static_cast<uint32_t>(delta_edges_.size());
    const EdgePos global = static_cast<EdgePos>(num_sealed_edges_ + delta_idx);
    delta_edges_.push_back({e.eid, src, dst, e.interval});
    delta_edge_props_.emplace_back();
    delta_out_.push_back({src, delta_idx});
    delta_in_.push_back({dst, global});
    delta_eids_.push_back(e.eid);
    batch_eid_to_delta.emplace(e.eid, delta_idx);
    GrowHorizon(e.interval);
    out.new_edge_ids.push_back(e.eid);
    if (src < old_num_vertices) out.touched_sources.push_back(src);
  }
  MergeTail(&delta_out_, old_links, LinkLess);
  MergeTail(&delta_in_, old_links, LinkLess);
  MergeTail(&delta_eids_, old_eids, std::less<EdgeId>());

  for (const EdgeBatch::NewEdgeProp& p : batch.props) {
    auto& props = delta_edge_props_[batch_eid_to_delta.at(p.eid)];
    const LabelId label = InternLabel(p.label);
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
    map->Set(p.interval, p.value);
    GrowHorizon(p.interval);
  }

  delta_watermark_ += batch.size();

  std::sort(out.new_edge_ids.begin(), out.new_edge_ids.end());
  std::sort(out.touched_sources.begin(), out.touched_sources.end());
  out.touched_sources.erase(
      std::unique(out.touched_sources.begin(), out.touched_sources.end()),
      out.touched_sources.end());
  if (receipt != nullptr) {
    if (receipt->empty()) {
      *receipt = std::move(out);
    } else {
      receipt->Merge(out);
    }
  }
  return Status::OK();
}

void TemporalGraph::Compact() {
  if (delta_edges_.empty()) return;  // Nothing to seal; keep the epoch.

  // The old base is only read: other versions may share it.
  const SealedBase& old = *base_;
  auto next = std::make_shared<SealedBase>();
  SealedBase& nb = *next;
  const size_t n = num_vertices();

  // Edges in the builder's canonical (src, eid) order, so a compacted
  // graph is indistinguishable from one built in a single shot: each
  // vertex's sealed slice (already eid-sorted) merged with its delta
  // edges sorted by eid — O(E) plus sorting the delta.
  nb.edges.reserve(num_edges());
  nb.edge_props.reserve(num_edges());
  nb.out_offsets.assign(n + 1, 0);
  std::vector<uint32_t> pending;
  auto link = delta_out_.begin();
  for (VertexIdx v = 0; v < n; ++v) {
    pending.clear();
    for (; link != delta_out_.end() && link->v == v; ++link) {
      pending.push_back(link->idx);
    }
    std::sort(pending.begin(), pending.end(), [this](uint32_t a, uint32_t b) {
      return delta_edges_[a].eid < delta_edges_[b].eid;
    });
    const bool sealed = v < num_sealed_vertices_;
    uint32_t pos = sealed ? out_offsets_[v] : 0;
    const uint32_t end = sealed ? out_offsets_[v + 1] : 0;
    size_t k = 0;
    while (pos < end || k < pending.size()) {
      if (k == pending.size() ||
          (pos < end &&
           sealed_edges_[pos].eid < delta_edges_[pending[k]].eid)) {
        nb.edges.push_back(sealed_edges_[pos]);
        nb.edge_props.push_back(old.edge_props[pos]);
        ++pos;
      } else {
        nb.edges.push_back(delta_edges_[pending[k]]);
        nb.edge_props.push_back(std::move(delta_edge_props_[pending[k]]));
        ++k;
      }
    }
    nb.out_offsets[v + 1] = static_cast<uint32_t>(nb.edges.size());
  }

  nb.BuildInAdjacency();

  // Vertices: the old base's, then the appended ones in index order.
  nb.vertex_ids = old.vertex_ids;
  nb.vertex_intervals = old.vertex_intervals;
  nb.vid_to_idx = old.vid_to_idx;
  nb.vertex_props = old.vertex_props;
  nb.vertex_ids.insert(nb.vertex_ids.end(), delta_vertex_ids_.begin(),
                       delta_vertex_ids_.end());
  nb.vertex_intervals.insert(nb.vertex_intervals.end(),
                             delta_vertex_intervals_.begin(),
                             delta_vertex_intervals_.end());
  for (const auto& [vid, idx] : delta_vid_index_) {
    nb.vid_to_idx.emplace(vid, idx);
  }
  nb.vertex_props.resize(n);

  if (sealed_eids_ != nullptr) {
    auto eids = std::make_shared<std::vector<EdgeId>>();
    eids->reserve(nb.edges.size());
    std::merge(sealed_eids_->begin(), sealed_eids_->end(), delta_eids_.begin(),
               delta_eids_.end(), std::back_inserter(*eids));
    sealed_eids_ = std::move(eids);
  }

  AdoptBase(std::move(next));
  delta_vertex_ids_.clear();
  delta_vertex_intervals_.clear();
  delta_vid_index_.clear();
  delta_edges_.clear();
  delta_edge_props_.clear();
  delta_out_.clear();
  delta_in_.clear();
  delta_eids_.clear();

  ++base_epoch_;
  delta_watermark_ = 0;
}

size_t TemporalGraph::MemoryFootprintBytes() const {
  const SealedBase& b = *base_;
  size_t bytes = 0;
  bytes += b.vertex_ids.size() * sizeof(VertexId);
  bytes += b.vertex_intervals.size() * sizeof(Interval);
  bytes += b.vid_to_idx.size() * (sizeof(VertexId) + sizeof(VertexIdx) + 16);
  bytes += b.out_offsets.size() * sizeof(uint32_t);
  bytes += b.edges.size() * sizeof(StoredEdge);
  bytes += b.in_offsets.size() * sizeof(uint32_t);
  bytes += b.in_positions.size() * sizeof(EdgePos);
  auto props_bytes = [](const std::vector<PropList>& props) {
    size_t sum = 0;
    for (const auto& per_entity : props) {
      sum += per_entity.size() * sizeof(std::pair<LabelId, void*>);
      for (const auto& [label, map] : per_entity) {
        (void)label;
        sum += map.size() * (sizeof(Interval) + sizeof(PropValue));
      }
    }
    return sum;
  };
  bytes += props_bytes(b.vertex_props);
  bytes += props_bytes(b.edge_props);
  // Delta segment.
  bytes += delta_vertex_ids_.size() * sizeof(VertexId);
  bytes += delta_vertex_intervals_.size() * sizeof(Interval);
  bytes += delta_vid_index_.size() * sizeof(std::pair<VertexId, VertexIdx>);
  bytes += delta_edges_.size() * sizeof(StoredEdge);
  bytes += props_bytes(delta_edge_props_);
  bytes += (delta_out_.size() + delta_in_.size()) * sizeof(DeltaLink);
  // EdgeId index (built by the first Append).
  if (sealed_eids_ != nullptr) bytes += sealed_eids_->size() * sizeof(EdgeId);
  bytes += delta_eids_.size() * sizeof(EdgeId);
  return bytes;
}

}  // namespace graphite
