#include "graph/temporal_graph.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <string_view>
#include <unordered_map>

#include "graph/id_index.h"

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

uint32_t TemporalGraph::OrderStagedRuns(std::vector<StagedRun>* runs,
                                        size_t num_entities) {
  std::vector<StagedRun>& r = *runs;
  // By entity, keeping input order within each: a counting sort, skipped
  // when the runs already come entity by entity.
  if (!std::is_sorted(r.begin(), r.end(),
                      [](const StagedRun& a, const StagedRun& b) {
                        return a.entity < b.entity;
                      })) {
    std::vector<uint32_t> next(num_entities + 1, 0);
    for (const StagedRun& run : r) ++next[run.entity + 1];
    for (size_t e = 0; e < num_entities; ++e) next[e + 1] += next[e];
    std::vector<StagedRun> sorted(r.size());
    for (const StagedRun& run : r) sorted[next[run.entity]++] = run;
    r = std::move(sorted);
  }

  // Whether two runs in [first, last) — one label's, sorted by start —
  // with seq below `limit` overlap.
  const auto overlap_below = [](const StagedRun* first, const StagedRun* last,
                                uint32_t limit) {
    bool any = false;
    TimePoint reach = 0;  // max end so far
    for (const StagedRun* run = first; run != last; ++run) {
      if (run->seq >= limit) continue;
      if (any && run->interval.start < reach) return true;
      reach = any ? std::max(reach, run->interval.end) : run->interval.end;
      any = true;
    }
    return false;
  };
  uint32_t first_overlap = kNoOverlap;
  std::vector<LabelId> labels;  // the current entity's, in first-set order
  for (size_t b = 0, e = 0; b < r.size(); b = e) {
    labels.clear();
    for (e = b; e < r.size() && r[e].entity == r[b].entity; ++e) {
      const auto it = std::find(labels.begin(), labels.end(), r[e].label);
      r[e].rank = static_cast<uint32_t>(it - labels.begin());
      if (it == labels.end()) labels.push_back(r[e].label);
    }
    std::sort(r.begin() + static_cast<std::ptrdiff_t>(b),
              r.begin() + static_cast<std::ptrdiff_t>(e),
              [](const StagedRun& x, const StagedRun& y) {
                if (x.rank != y.rank) return x.rank < y.rank;
                if (x.interval.start != y.interval.start) {
                  return x.interval.start < y.interval.start;
                }
                return x.seq < y.seq;
              });
    for (size_t gb = b, ge = b; gb < e; gb = ge) {
      uint32_t max_seq = r[gb].seq;
      for (ge = gb + 1; ge < e && r[ge].rank == r[gb].rank; ++ge) {
        max_seq = std::max(max_seq, r[ge].seq);
      }
      const StagedRun* first = r.data() + gb;
      const StagedRun* last = r.data() + ge;
      if (!overlap_below(first, last, kNoOverlap)) continue;
      // The smallest input prefix holding an overlap ends with the first
      // run to overlap an earlier one.
      uint32_t lo = 1, hi = max_seq + 1;  // overlap_below(.., hi) holds
      while (lo < hi) {
        const uint32_t mid = lo + (hi - lo) / 2;
        if (overlap_below(first, last, mid)) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      first_overlap = std::min(first_overlap, hi - 1);
    }
  }
  return first_overlap;
}

void TemporalGraph::PropStore::AppendStaged(
    const std::vector<StagedRun>& staged, size_t count) {
  size_t k = 0;
  for (uint32_t entity = 0; entity < count; ++entity) {
    while (k < staged.size() && staged[k].entity == entity) {
      const StagedRun& head = staged[k];
      for (; k < staged.size() && staged[k].entity == entity &&
             staged[k].rank == head.rank;
           ++k) {
        runs.push_back({staged[k].interval, staged[k].value});
      }
      groups.push_back({head.label, static_cast<uint32_t>(runs.size())});
    }
    offsets.push_back(static_cast<uint32_t>(groups.size()));
  }
}

void TemporalGraph::PropStore::AppendRange(const PropStore& src, size_t first,
                                           size_t last) {
  const uint32_t g0 = src.offsets[first];
  const uint32_t g1 = src.offsets[last];
  const uint32_t r0 = src.RunBegin(g0);
  const uint32_t r1 = src.RunBegin(g1);
  // Unsigned wrap-around keeps the shifts exact when they are negative.
  const uint32_t group_shift = static_cast<uint32_t>(groups.size()) - g0;
  const uint32_t run_shift = static_cast<uint32_t>(runs.size()) - r0;
  runs.insert(runs.end(), src.runs.begin() + r0, src.runs.begin() + r1);
  const size_t new_groups = groups.size();
  groups.insert(groups.end(), src.groups.begin() + g0,
                src.groups.begin() + g1);
  for (size_t k = new_groups; k < groups.size(); ++k) {
    groups[k].end += run_shift;
  }
  const size_t new_offsets = offsets.size();
  offsets.insert(offsets.end(), src.offsets.begin() + first + 1,
                 src.offsets.begin() + last + 1);
  for (size_t k = new_offsets; k < offsets.size(); ++k) {
    offsets[k] += group_shift;
  }
}

void TemporalGraph::PropStore::Reserve(size_t entities, size_t num_groups,
                                       size_t num_runs) {
  offsets.reserve(entities + 1);
  groups.reserve(num_groups);
  runs.reserve(num_runs);
}

size_t TemporalGraph::PropStore::Bytes() const {
  return offsets.size() * sizeof(uint32_t) + groups.size() * sizeof(PropGroup) +
         runs.size() * sizeof(PropRun);
}

void TemporalGraph::SealedBase::BuildInAdjacency() {
  const size_t n = out_offsets.size() - 1;
  in_offsets.assign(n + 1, 0);
  for (const StoredEdge& e : edges) ++in_offsets[e.dst + 1];
  for (size_t v = 0; v < n; ++v) in_offsets[v + 1] += in_offsets[v];
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
  vertex_ids_ = base_->vertex_ids.data();
  vertex_intervals_ = base_->vertex_intervals.data();
  out_offsets_ = base_->out_offsets.data();
  in_offsets_ = base_->in_offsets.data();
  in_positions_ = base_->in_positions.data();
  num_sealed_vertices_ = static_cast<uint32_t>(base_->vertex_ids.size());
  num_sealed_edges_ = static_cast<uint32_t>(base_->edges.size());
}

std::optional<VertexIdx> TemporalGraph::IndexOf(VertexId vid) const {
  const VertexIdx* idx = FindId(base_->vid_index, vid);
  if (idx == nullptr) idx = FindId(delta_vid_index_, vid);
  if (idx == nullptr) return std::nullopt;
  return *idx;
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

void TemporalGraph::DeriveHorizon(const SealedBase& b) {
  for (const Interval& i : b.vertex_intervals) GrowHorizon(i);
  for (const StoredEdge& e : b.edges) GrowHorizon(e.interval);
  for (const PropRun& run : b.vertex_props.runs) GrowHorizon(run.interval);
  for (const PropRun& run : b.edge_props.runs) GrowHorizon(run.interval);
  if (horizon_ == 0) horizon_ = 1;
}

Status TemporalGraph::Append(const EdgeBatch& batch, AppendReceipt* receipt) {
  if (batch.empty()) return Status::OK();
  EnsureEidIndex();

  // --- Validate everything first; the graph must be untouched on error.
  // Every check runs in batch order and reports the first failing element,
  // as a one-pass scan would; batch-local lookups go through sorted
  // (id, batch position) arrays, so validation allocates per batch, not
  // per element.
  // Constraint 1: unique vertex ids (against the graph and batch-local).
  const uint32_t nv = static_cast<uint32_t>(batch.vertices.size());
  std::vector<std::pair<VertexId, uint32_t>> batch_vids;
  batch_vids.reserve(nv);
  for (uint32_t i = 0; i < nv; ++i) {
    batch_vids.emplace_back(batch.vertices[i].vid, i);
  }
  const uint32_t dup_vertex = SortAndFindFirstDuplicate(&batch_vids, nv);
  for (uint32_t i = 0; i < nv; ++i) {
    const EdgeBatch::NewVertex& v = batch.vertices[i];
    if (!v.interval.IsValid()) {
      return Status::InvalidArgument("append: vertex " + std::to_string(v.vid) +
                                     " has invalid lifespan " +
                                     v.interval.ToString());
    }
    if (i == dup_vertex || IndexOf(v.vid).has_value()) {
      return Status::ConstraintViolation(
          "Constraint 1: append duplicates vertex id " + std::to_string(v.vid));
    }
  }

  // Constraint 1 (edge ids) + Constraint 2 (endpoints exist, lifespan
  // containment). Endpoints may be sealed vertices or batch vertices.
  auto lifespan_of = [&](VertexId vid) -> const Interval* {
    if (const auto idx = IndexOf(vid)) return &vertex_interval(*idx);
    if (const uint32_t* i = FindId(batch_vids, vid)) {
      return &batch.vertices[*i].interval;
    }
    return nullptr;
  };
  const uint32_t ne = static_cast<uint32_t>(batch.edges.size());
  std::vector<std::pair<EdgeId, uint32_t>> batch_eids;
  batch_eids.reserve(ne);
  for (uint32_t i = 0; i < ne; ++i) {
    batch_eids.emplace_back(batch.edges[i].eid, i);
  }
  const uint32_t dup_edge = SortAndFindFirstDuplicate(&batch_eids, ne);
  for (uint32_t i = 0; i < ne; ++i) {
    const EdgeBatch::NewEdge& e = batch.edges[i];
    if (!e.interval.IsValid()) {
      return Status::InvalidArgument("append: edge " + std::to_string(e.eid) +
                                     " has invalid lifespan " +
                                     e.interval.ToString());
    }
    if (i == dup_edge || HasEdgeId(e.eid)) {
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
  // therefore batch-local per (eid, label). The per-run checks stop at the
  // first failing run; the overlap check then looks only at the runs
  // before it. Runs are staged under the label ids interning them in
  // batch order will assign, without interning yet.
  std::unordered_map<std::string_view, LabelId> new_labels;
  auto label_id = [&](const std::string& name) -> std::optional<LabelId> {
    if (const auto id = LabelIdOf(name)) return *id;
    if (!IsValidLabel(name)) return std::nullopt;
    const auto next = static_cast<LabelId>(labels_.size() + new_labels.size());
    return new_labels.emplace(name, next).first->second;
  };
  const uint32_t np = static_cast<uint32_t>(batch.props.size());
  std::vector<StagedRun> staged;
  staged.reserve(np);
  Status bad_prop = Status::OK();
  for (uint32_t i = 0; i < np && bad_prop.ok(); ++i) {
    const EdgeBatch::NewEdgeProp& p = batch.props[i];
    const uint32_t* edge = FindId(batch_eids, p.eid);
    if (!p.interval.IsValid()) {
      bad_prop = Status::InvalidArgument("append: property interval invalid: " +
                                         p.interval.ToString());
    } else if (edge == nullptr) {
      bad_prop = Status::ConstraintViolation(
          "append: property targets edge " + std::to_string(p.eid) +
          " outside this batch (sealed edges are immutable)");
    } else if (const Interval& span = batch.edges[*edge].interval;
               !p.interval.ContainedIn(span)) {
      bad_prop = Status::ConstraintViolation(
          "Constraint 3: append edge property '" + p.label + "' interval " +
          p.interval.ToString() + " not contained in edge lifespan " +
          span.ToString());
    } else if (const std::optional<LabelId> label = label_id(p.label);
               !label) {
      bad_prop = Status::InvalidArgument("append: property label '" + p.label +
                                         "' is empty or contains whitespace");
    } else {
      staged.push_back({*edge, i, 0, *label, p.interval, p.value});
    }
  }
  if (const uint32_t overlap = OrderStagedRuns(&staged, ne);
      overlap != kNoOverlap) {
    const EdgeBatch::NewEdgeProp& p = batch.props[overlap];
    return Status::ConstraintViolation(
        "Def. 1: overlapping values for append edge property '" + p.label +
        "' at " + p.interval.ToString());
  }
  GRAPHITE_RETURN_NOT_OK(bad_prop);

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
  for (const EdgeBatch::NewEdge& e : batch.edges) {
    const VertexIdx src = *IndexOf(e.src);
    const VertexIdx dst = *IndexOf(e.dst);
    const uint32_t delta_idx = static_cast<uint32_t>(delta_edges_.size());
    const EdgePos global = static_cast<EdgePos>(num_sealed_edges_ + delta_idx);
    delta_edges_.push_back({e.eid, src, dst, e.interval});
    delta_out_.push_back({src, delta_idx});
    delta_in_.push_back({dst, global});
    delta_eids_.push_back(e.eid);
    GrowHorizon(e.interval);
    out.new_edge_ids.push_back(e.eid);
    if (src < old_num_vertices) out.touched_sources.push_back(src);
  }
  MergeTail(&delta_out_, old_links, LinkLess);
  MergeTail(&delta_in_, old_links, LinkLess);
  MergeTail(&delta_eids_, old_eids, std::less<EdgeId>());

  // Interning in batch order assigns the ids the runs were staged under.
  for (const EdgeBatch::NewEdgeProp& p : batch.props) {
    InternLabel(p.label);
    GrowHorizon(p.interval);
  }
  delta_edge_props_.AppendStaged(staged, ne);

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
  // Nothing to seal; keep the epoch.
  if (delta_vertex_ids_.empty() && delta_edges_.empty()) return;

  // The old base is only read: other versions may share it.
  const SealedBase& old = *base_;
  auto next = std::make_shared<SealedBase>();
  SealedBase& nb = *next;
  const size_t n = num_vertices();
  const size_t m = num_edges();

  // Edges in the builder's canonical (src, eid) order, so a compacted
  // graph is indistinguishable from one built in a single shot: each
  // vertex's sealed slice (already eid-sorted) merged with its delta
  // edges sorted by eid. Sealed edges keep their relative order, so the
  // sealed edges between two inserted delta edges move as one block.
  const PropStore& delta_props = delta_edge_props_;
  nb.edges.reserve(m);
  nb.edge_props.Reserve(m, old.edge_props.groups.size() +
                               delta_props.groups.size(),
                        old.edge_props.runs.size() + delta_props.runs.size());
  uint32_t block = 0;  // first sealed position not yet copied
  auto copy_sealed_until = [&](uint32_t end) {
    nb.edges.insert(nb.edges.end(), sealed_edges_ + block,
                    sealed_edges_ + end);
    nb.edge_props.AppendRange(old.edge_props, block, end);
    block = end;
  };
  nb.out_offsets.assign(n + 1, 0);
  std::vector<uint32_t> pending;
  uint32_t delta_done = 0;
  auto link = delta_out_.begin();
  for (VertexIdx v = 0; v < n; ++v) {
    const bool sealed = v < num_sealed_vertices_;
    const uint32_t end = sealed ? out_offsets_[v + 1] : num_sealed_edges_;
    if (link != delta_out_.end() && link->v == v) {
      pending.clear();
      for (; link != delta_out_.end() && link->v == v; ++link) {
        pending.push_back(link->idx);
      }
      std::sort(pending.begin(), pending.end(),
                [this](uint32_t a, uint32_t b) {
                  return delta_edges_[a].eid < delta_edges_[b].eid;
                });
      uint32_t pos = sealed ? out_offsets_[v] : num_sealed_edges_;
      for (const uint32_t d : pending) {
        while (pos < end && sealed_edges_[pos].eid < delta_edges_[d].eid) {
          ++pos;
        }
        copy_sealed_until(pos);
        nb.edges.push_back(delta_edges_[d]);
        nb.edge_props.AppendRange(delta_props, d, d + 1);
      }
      delta_done += static_cast<uint32_t>(pending.size());
    }
    nb.out_offsets[v + 1] = end + delta_done;
  }
  copy_sealed_until(num_sealed_edges_);

  nb.BuildInAdjacency();

  // Vertices: the old base's, then the appended ones in index order.
  // Appended vertices carry no properties.
  nb.vertex_ids.reserve(n);
  nb.vertex_ids = old.vertex_ids;
  nb.vertex_ids.insert(nb.vertex_ids.end(), delta_vertex_ids_.begin(),
                       delta_vertex_ids_.end());
  nb.vertex_intervals.reserve(n);
  nb.vertex_intervals = old.vertex_intervals;
  nb.vertex_intervals.insert(nb.vertex_intervals.end(),
                             delta_vertex_intervals_.begin(),
                             delta_vertex_intervals_.end());
  nb.vid_index.resize(n);
  std::merge(old.vid_index.begin(), old.vid_index.end(),
             delta_vid_index_.begin(), delta_vid_index_.end(),
             nb.vid_index.begin());
  nb.vertex_props.Reserve(n, old.vertex_props.groups.size(),
                          old.vertex_props.runs.size());
  nb.vertex_props = old.vertex_props;
  nb.vertex_props.AppendEmpty(delta_vertex_ids_.size());

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
  delta_edge_props_ = PropStore();
  delta_out_.clear();
  delta_in_.clear();
  delta_eids_.clear();

  ++base_epoch_;
  delta_watermark_ = 0;
}

TemporalGraph TemporalGraph::Filter(const TemporalGraph& g,
                                    const Interval& clip,
                                    const VertexPredicate& keep_vertex,
                                    const EdgePredicate& keep_edge) {
  return WriteBase(g, clip, keep_vertex, keep_edge, EdgeLayout::kForward);
}

TemporalGraph TemporalGraph::WriteBase(const TemporalGraph& g,
                                       const Interval& clip,
                                       const VertexPredicate& keep_vertex,
                                       const EdgePredicate& keep_edge,
                                       EdgeLayout layout) {
  // A delta is folded on a private copy, so the passes read sealed arrays
  // only; `g` is read again just to order the labels.
  std::optional<TemporalGraph> compacted;
  if (g.has_delta()) {
    compacted.emplace(g);
    compacted->Compact();
  }
  const TemporalGraph& s = compacted ? *compacted : g;
  const SealedBase& old = *s.base_;
  const uint32_t n = s.num_sealed_vertices_;
  auto next = std::make_shared<SealedBase>();
  SealedBase& nb = *next;

  // Labels are interned in the order the builder path first meets them:
  // by entity (vertex index, then n + edge position in `g`), then by the
  // label's place on the entity. Compaction reorders edges, so a label
  // keeps the smallest key it is met under and the table is sorted last.
  constexpr uint32_t kUnmapped = static_cast<uint32_t>(-1);
  std::vector<uint32_t> label_id(s.labels_.size(), kUnmapped);
  std::vector<std::pair<uint64_t, LabelId>> used;  // (first use, label)
  auto intern = [&](LabelId label, uint64_t key) {
    uint32_t& id = label_id[label];
    if (id == kUnmapped) {
      id = static_cast<uint32_t>(used.size());
      used.emplace_back(key, label);
    }
    used[id].first = std::min(used[id].first, key);
    return static_cast<LabelId>(id);
  };
  // Appends entity `i` of `src` with its runs cut to `span`, dropping the
  // labels left without a run, and checks Constraint 3 and Def. 1 as the
  // builder does.
  auto copy_props = [&](const PropStore& src, size_t i, const Interval& span,
                        uint64_t entity_key, PropStore* dst) {
    uint32_t r = src.RunBegin(src.offsets[i]);
    for (uint32_t k = src.offsets[i]; k < src.offsets[i + 1]; ++k) {
      const size_t first = dst->runs.size();
      for (; r < src.groups[k].end; ++r) {
        const Interval cut = src.runs[r].interval.Intersect(span);
        if (cut.IsEmpty()) continue;
        GRAPHITE_CHECK(cut.ContainedIn(span));
        GRAPHITE_CHECK(dst->runs.size() == first ||
                       dst->runs.back().interval.end <= cut.start);
        dst->runs.push_back({cut, src.runs[r].value});
      }
      if (dst->runs.size() == first) continue;
      const uint64_t key = entity_key << 16 | (k - src.offsets[i]);
      dst->groups.push_back({intern(src.groups[k].label, key),
                             static_cast<uint32_t>(dst->runs.size())});
    }
    dst->offsets.push_back(static_cast<uint32_t>(dst->groups.size()));
  };
  // Position in `g` of the edge at `pos` in `s`. Compaction keeps vertex
  // indices, and in `g` a vertex's edges are its eid-sorted sealed slice
  // plus its delta out-links.
  auto position_in_g = [&](EdgePos pos) -> EdgePos {
    if (!compacted) return pos;
    const StoredEdge& e = s.sealed_edges_[pos];
    if (e.src < g.num_sealed_vertices_) {
      const StoredEdge* last = g.sealed_edges_ + g.out_offsets_[e.src + 1];
      const StoredEdge* it = std::lower_bound(
          g.sealed_edges_ + g.out_offsets_[e.src], last, e.eid,
          [](const StoredEdge& x, EdgeId eid) { return x.eid < eid; });
      if (it != last && it->eid == e.eid) {
        return static_cast<EdgePos>(it - g.sealed_edges_);
      }
    }
    const auto [links, count] = LinksOf(g.delta_out_, e.src);
    size_t k = 0;
    while (k < count && g.delta_edges_[links[k].idx].eid != e.eid) ++k;
    GRAPHITE_CHECK(k < count);
    return g.num_sealed_edges_ + links[k].idx;
  };

  // --- Vertices: keep, clip, remap; the id index stays sorted.
  std::vector<VertexIdx> remap(n, kInvalidVertex);
  nb.vertex_ids.reserve(n);
  nb.vertex_intervals.reserve(n);
  nb.vertex_props.Reserve(n, old.vertex_props.groups.size(),
                          old.vertex_props.runs.size());
  for (VertexIdx v = 0; v < n; ++v) {
    if (keep_vertex && !keep_vertex(s, v)) continue;
    const Interval span = s.vertex_intervals_[v].Intersect(clip);
    if (span.IsEmpty()) continue;
    remap[v] = static_cast<VertexIdx>(nb.vertex_ids.size());
    nb.vertex_ids.push_back(s.vertex_ids_[v]);
    nb.vertex_intervals.push_back(span);
    copy_props(old.vertex_props, v, span, v, &nb.vertex_props);
  }
  const size_t kept = nb.vertex_ids.size();
  nb.vid_index.reserve(kept);
  for (const auto& [vid, v] : old.vid_index) {
    if (remap[v] != kInvalidVertex) nb.vid_index.emplace_back(vid, remap[v]);
  }

  // --- Edges, in (src, eid) order: a vertex's forward edges are its
  // eid-sorted slice of `s`, its reversed ones its in-edges sorted by the
  // id they take.
  const uint32_t m = s.num_sealed_edges_;
  const size_t copies = layout == EdgeLayout::kUndirected ? 2 : 1;
  nb.out_offsets.reserve(kept + 1);
  nb.out_offsets.push_back(0);
  nb.edges.reserve(copies * m);
  nb.edge_props.Reserve(copies * m, copies * old.edge_props.groups.size(),
                        copies * old.edge_props.runs.size());
  EdgeId max_eid = 0;
  std::vector<std::pair<EdgeId, EdgePos>> flipped;  // (new eid, pos in s)
  if (layout != EdgeLayout::kForward) {
    for (const StoredEdge& e : old.edges) max_eid = std::max(max_eid, e.eid);
    flipped.reserve(m);
  }
  // Writes the edge at `pos` as src -> dst under `eid`.
  auto write_edge = [&](VertexIdx src, VertexIdx dst, EdgePos pos,
                        EdgeId eid) {
    if (dst == kInvalidVertex || (keep_edge && !keep_edge(s, pos))) return;
    const Interval& src_span = nb.vertex_intervals[src];
    const Interval& dst_span = nb.vertex_intervals[dst];
    const Interval span = s.sealed_edges_[pos]
                              .interval.Intersect(clip)
                              .Intersect(src_span)
                              .Intersect(dst_span);
    if (span.IsEmpty()) return;
    // Constraint 2, and the builder's (src, eid) order.
    GRAPHITE_CHECK(span.ContainedIn(src_span) && span.ContainedIn(dst_span));
    GRAPHITE_CHECK(nb.edges.size() == nb.out_offsets.back() ||
                   nb.edges.back().eid < eid);
    nb.edges.push_back({eid, src, dst, span});
    copy_props(old.edge_props, pos, span, uint64_t{n} + position_in_g(pos),
               &nb.edge_props);
  };
  for (VertexIdx v = 0; v < n; ++v) {
    const VertexIdx src = remap[v];
    if (src == kInvalidVertex) continue;
    if (layout != EdgeLayout::kReversed) {
      for (EdgePos pos = s.out_offsets_[v]; pos < s.out_offsets_[v + 1];
           ++pos) {
        const StoredEdge& e = s.sealed_edges_[pos];
        write_edge(src, remap[e.dst], pos, e.eid);
      }
    }
    if (layout != EdgeLayout::kForward) {
      flipped.clear();
      for (uint32_t k = s.in_offsets_[v]; k < s.in_offsets_[v + 1]; ++k) {
        const EdgePos pos = s.in_positions_[k];
        flipped.emplace_back(layout == EdgeLayout::kReversed
                                 ? s.sealed_edges_[pos].eid
                                 : max_eid + 1 + position_in_g(pos),
                             pos);
      }
      std::sort(flipped.begin(), flipped.end());
      for (const auto& [eid, pos] : flipped) {
        write_edge(src, remap[s.sealed_edges_[pos].src], pos, eid);
      }
    }
    nb.out_offsets.push_back(static_cast<uint32_t>(nb.edges.size()));
  }
  nb.BuildInAdjacency();

  TemporalGraph out;
  // The label table in first-use order; groups are relabeled only when
  // compaction made the keys arrive out of order.
  std::vector<uint32_t> order(used.size());
  for (uint32_t id = 0; id < order.size(); ++id) order[id] = id;
  std::sort(order.begin(), order.end(), [&used](uint32_t a, uint32_t b) {
    return used[a].first < used[b].first;
  });
  if (!std::is_sorted(order.begin(), order.end())) {
    std::vector<LabelId> rank(order.size());
    for (size_t r = 0; r < order.size(); ++r) {
      rank[order[r]] = static_cast<LabelId>(r);
    }
    for (PropStore* store : {&nb.vertex_props, &nb.edge_props}) {
      for (PropGroup& group : store->groups) group.label = rank[group.label];
    }
  }
  out.labels_.reserve(order.size());
  for (const uint32_t id : order) out.InternLabel(s.labels_[used[id].second]);

  out.horizon_ = g.horizon_;
  // The builder derives a horizon only when given none.
  if (out.horizon_ == 0) out.DeriveHorizon(nb);
  out.AdoptBase(std::move(next));
  return out;
}

size_t TemporalGraph::MemoryFootprintBytes() const {
  const SealedBase& b = *base_;
  size_t bytes = 0;
  bytes += b.vertex_ids.size() * sizeof(VertexId);
  bytes += b.vertex_intervals.size() * sizeof(Interval);
  bytes += b.vid_index.size() * sizeof(VidIndex::value_type);
  bytes += b.out_offsets.size() * sizeof(uint32_t);
  bytes += b.edges.size() * sizeof(StoredEdge);
  bytes += b.in_offsets.size() * sizeof(uint32_t);
  bytes += b.in_positions.size() * sizeof(EdgePos);
  bytes += b.vertex_props.Bytes();
  bytes += b.edge_props.Bytes();
  // Delta segment.
  bytes += delta_vertex_ids_.size() * sizeof(VertexId);
  bytes += delta_vertex_intervals_.size() * sizeof(Interval);
  bytes += delta_vid_index_.size() * sizeof(VidIndex::value_type);
  bytes += delta_edges_.size() * sizeof(StoredEdge);
  bytes += delta_edge_props_.Bytes();
  bytes += (delta_out_.size() + delta_in_.size()) * sizeof(DeltaLink);
  // EdgeId index (built by the first Append).
  if (sealed_eids_ != nullptr) bytes += sealed_eids_->size() * sizeof(EdgeId);
  bytes += delta_eids_.size() * sizeof(EdgeId);
  return bytes;
}

}  // namespace graphite
