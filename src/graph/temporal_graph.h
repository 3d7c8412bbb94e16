// The temporal property graph data model (paper §III, Definition 1): a
// directed multi-graph G = (V, E, L, A_V, A_E) where vertices and edges
// carry lifespans and properties carry per-interval values.
//
// Storage is a SEALED CSR BASE plus a small MUTABLE DELTA SEGMENT at the
// time-axis head (DESIGN.md §4l). The base — out/in adjacency, lifespans,
// vertex ids and the sorted id->index array, temporal properties as flat
// run arrays — is built by TemporalGraphBuilder, Compact() or Filter()
// and is then immutable: it is held by reference count and shared by
// every copy of the graph, so a copy costs O(delta), not O(E).
// `Append(EdgeBatch)` admits new vertices, edges, and edge properties
// into the copy's own delta, which the iteration API (OutEdges /
// InEdgePositions / edge) merges behind two-segment views, so algorithm
// code never distinguishes sealed from delta edges. `Compact()` folds the
// delta into a new sealed base and leaves the old one to whoever else
// holds it. The (base_epoch, delta_watermark) pair — the GraphHead —
// names the mutation state exactly; checkpoints and the serving registry
// use it to pin results to the head they were computed against.
//
// Vertices are referenced internally by dense indices (VertexIdx) for O(1)
// adjacency; external ids (VertexId) are opaque, per Def. 1.
#ifndef GRAPHITE_GRAPH_TEMPORAL_GRAPH_H_
#define GRAPHITE_GRAPH_TEMPORAL_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "temporal/interval.h"
#include "temporal/interval_map.h"
#include "util/status.h"

namespace graphite {

/// External (user-facing, opaque) vertex identifier.
using VertexId = int64_t;
/// External edge identifier.
using EdgeId = int64_t;
/// Internal dense vertex index in [0, num_vertices).
using VertexIdx = uint32_t;
/// Internal dense edge position in [0, num_edges).
using EdgePos = uint32_t;
/// Property values (the paper's TD algorithms use numeric edge properties
/// such as travel-time and travel-cost).
using PropValue = int64_t;
/// Interned property-label identifier.
using LabelId = uint16_t;

/// Canonical edge-property names used by the TD algorithms and the TGB
/// transformation.
inline constexpr const char* kTravelTimeLabel = "travel-time";
inline constexpr const char* kTravelCostLabel = "travel-cost";

inline constexpr VertexIdx kInvalidVertex = static_cast<VertexIdx>(-1);

/// One label's temporal values on one entity: runs sorted by start and
/// disjoint, viewed in place in the graph's property arrays.
using PropRuns = IntervalRuns<PropValue>;
using PropRun = PropRuns::Entry;

/// The C locale's whitespace (space, \t, \n, \v, \f, \r): what
/// separates fields in the text format (io/text_format.h).
inline bool IsFieldSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Whether `name` can label a property: non-empty and free of field
/// whitespace, so every graph writes a text file its reader accepts.
/// TemporalGraphBuilder::Build and TemporalGraph::Append reject others.
inline bool IsValidLabel(std::string_view name) {
  return !name.empty() && std::none_of(name.begin(), name.end(), IsFieldSpace);
}

/// One label of one entity in a flat property store: its runs end at run
/// index `end` and begin at the previous group's `end` (0 for the first).
struct PropGroup {
  LabelId label = 0;
  uint32_t end = 0;
};

/// The (label, runs) pairs of one entity, in the order each label was
/// first set. Iterating yields std::pair<LabelId, PropRuns> by value.
class PropertyRange {
 public:
  PropertyRange() = default;
  PropertyRange(const PropGroup* first, const PropGroup* last,
                const PropRun* runs, uint32_t run_begin)
      : first_(first), last_(last), runs_(runs), run_begin_(run_begin) {}

  class iterator {
   public:
    using value_type = std::pair<LabelId, PropRuns>;
    using difference_type = std::ptrdiff_t;

    iterator(const PropGroup* group, const PropRun* runs, uint32_t begin)
        : group_(group), runs_(runs), begin_(begin) {}
    value_type operator*() const {
      return {group_->label, PropRuns(runs_ + begin_, group_->end - begin_)};
    }
    iterator& operator++() {
      begin_ = group_->end;
      ++group_;
      return *this;
    }
    bool operator==(const iterator& o) const { return group_ == o.group_; }
    bool operator!=(const iterator& o) const { return group_ != o.group_; }

   private:
    const PropGroup* group_;
    const PropRun* runs_;
    uint32_t begin_;
  };
  iterator begin() const { return iterator(first_, runs_, run_begin_); }
  iterator end() const { return iterator(last_, runs_, 0); }
  size_t size() const { return static_cast<size_t>(last_ - first_); }
  bool empty() const { return first_ == last_; }

  /// The runs of `label`; empty when the entity has no such property.
  PropRuns Find(LabelId label) const {
    uint32_t begin = run_begin_;
    for (const PropGroup* g = first_; g != last_; ++g) {
      if (g->label == label) return PropRuns(runs_ + begin, g->end - begin);
      begin = g->end;
    }
    return PropRuns();
  }

 private:
  const PropGroup* first_ = nullptr;
  const PropGroup* last_ = nullptr;
  const PropRun* runs_ = nullptr;
  uint32_t run_begin_ = 0;
};

/// One stored directed edge (CSR payload).
struct StoredEdge {
  EdgeId eid = 0;
  VertexIdx src = kInvalidVertex;
  VertexIdx dst = kInvalidVertex;
  Interval interval;  ///< Edge lifespan.
};

/// A typed batch of head appends: new vertices, new edges between
/// existing-or-batch vertices, and temporal properties on the batch's own
/// edges. Produced by UpdateBatcher (stream/update_stream.h) or decoded
/// from the wire; consumed by TemporalGraph::Append.
struct EdgeBatch {
  struct NewVertex {
    VertexId vid = 0;
    Interval interval;
  };
  struct NewEdge {
    EdgeId eid = 0;
    VertexId src = 0;
    VertexId dst = 0;
    Interval interval;
  };
  struct NewEdgeProp {
    EdgeId eid = 0;
    std::string label;
    Interval interval;
    PropValue value = 0;
  };

  std::vector<NewVertex> vertices;
  std::vector<NewEdge> edges;
  std::vector<NewEdgeProp> props;

  bool empty() const {
    return vertices.empty() && edges.empty() && props.empty();
  }
  /// Total element count — the amount the delta watermark advances by.
  size_t size() const {
    return vertices.size() + edges.size() + props.size();
  }
};

/// Names the mutation state of a graph exactly: the sealed base's
/// generation and how many batch elements have been appended on top of it.
/// Compact() bumps the epoch and zeroes the watermark; Append advances the
/// watermark. Two graphs with equal heads (derived from the same build)
/// hold identical edge sets.
struct GraphHead {
  uint64_t base_epoch = 0;
  uint64_t delta_watermark = 0;

  bool operator==(const GraphHead& o) const {
    return base_epoch == o.base_epoch && delta_watermark == o.delta_watermark;
  }
  bool operator!=(const GraphHead& o) const { return !(*this == o); }
};

/// What an Append changed, in the terms incremental recompute needs:
/// which PRE-EXISTING vertices gained out-edges (they re-scatter their
/// converged state over just the new edges), where the fresh vertices
/// start (they cold-start), and the new edges' stable external ids (edge
/// positions shuffle across Compact(); EdgeIds never do).
struct AppendReceipt {
  /// First vertex index that did not exist before the (first merged)
  /// append; kInvalidVertex when no receipt has been merged yet.
  VertexIdx first_fresh_vertex = kInvalidVertex;
  /// Sorted, deduplicated indices of pre-existing vertices that gained at
  /// least one out-edge. Never contains fresh vertices.
  std::vector<VertexIdx> touched_sources;
  /// Sorted external ids of every appended edge.
  std::vector<EdgeId> new_edge_ids;

  bool empty() const {
    return touched_sources.empty() && new_edge_ids.empty() &&
           first_fresh_vertex == kInvalidVertex;
  }

  /// Folds a later append's receipt into this one. Sources that were
  /// fresh relative to the EARLIER baseline are dropped from
  /// touched_sources — the warm start cold-runs every fresh vertex, so
  /// listing them twice would double-scatter.
  void Merge(const AppendReceipt& later);
};

/// Temporal property graph: a sealed CSR base shared by every version,
/// plus this version's private delta head. Create via
/// TemporalGraphBuilder; grow via Append; reseal via Compact.
///
/// Copying a TemporalGraph copies the delta segment and one reference to
/// the base — O(delta), independent of the base's size — so "copy, then
/// Append" is how a server publishes a new version while older ones stay
/// readable. Distinct versions may be read and written from different
/// threads; one version is not safe for concurrent Append/Compact.
class TemporalGraph {
 public:
  /// One delta adjacency entry: vertex `v` owns delta item `idx` (an
  /// index into the delta edges for out-links, a global edge position for
  /// in-links). Kept sorted by (v, idx), so one vertex's links are a
  /// contiguous run in append order.
  struct DeltaLink {
    VertexIdx v = kInvalidVertex;
    uint32_t idx = 0;
  };

  /// Two-segment view over the out-edges of one vertex: the contiguous
  /// sealed CSR slice followed by the vertex's delta edges in append
  /// order. Indexing, iteration and pos() are O(1) per element;
  /// references point into graph storage and outlive the view.
  class OutEdgeView {
   public:
    OutEdgeView(const StoredEdge* base, uint32_t base_begin,
                size_t base_count, const StoredEdge* delta_edges,
                uint32_t num_sealed_edges, const DeltaLink* links,
                size_t link_count)
        : base_(base),
          base_begin_(base_begin),
          base_count_(base_count),
          delta_edges_(delta_edges),
          num_sealed_edges_(num_sealed_edges),
          links_(links),
          link_count_(link_count) {}

    size_t size() const { return base_count_ + link_count_; }
    bool empty() const { return size() == 0; }
    const StoredEdge& operator[](size_t i) const {
      return i < base_count_ ? base_[i]
                             : delta_edges_[links_[i - base_count_].idx];
    }
    /// Storage position (as taken by edge() / EdgeProperty()) of the
    /// i-th edge.
    EdgePos pos(size_t i) const {
      return i < base_count_
                 ? static_cast<EdgePos>(base_begin_ + i)
                 : static_cast<EdgePos>(num_sealed_edges_ +
                                        links_[i - base_count_].idx);
    }

    // Iterators copy the view's segment pointers, so they stay valid past
    // the (typically temporary) view that minted them.
    class iterator {
     public:
      using value_type = StoredEdge;
      using difference_type = std::ptrdiff_t;
      using reference = const StoredEdge&;

      iterator(const OutEdgeView& view, size_t i)
          : base_(view.base_),
            base_count_(view.base_count_),
            delta_edges_(view.delta_edges_),
            links_(view.links_),
            i_(i) {}
      reference operator*() const { return deref(); }
      const StoredEdge* operator->() const { return &deref(); }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator==(const iterator& o) const { return i_ == o.i_; }
      bool operator!=(const iterator& o) const { return i_ != o.i_; }

     private:
      const StoredEdge& deref() const {
        return i_ < base_count_ ? base_[i_]
                                : delta_edges_[links_[i_ - base_count_].idx];
      }
      const StoredEdge* base_;
      size_t base_count_;
      const StoredEdge* delta_edges_;
      const DeltaLink* links_;
      size_t i_;
    };
    iterator begin() const { return iterator(*this, 0); }
    iterator end() const { return iterator(*this, size()); }

   private:
    const StoredEdge* base_;
    uint32_t base_begin_;
    size_t base_count_;
    const StoredEdge* delta_edges_;
    uint32_t num_sealed_edges_;
    const DeltaLink* links_;
    size_t link_count_;
  };

  /// Two-segment view over in-edge storage positions of one vertex.
  class InPosView {
   public:
    InPosView(const EdgePos* base, size_t base_count, const DeltaLink* links,
              size_t link_count)
        : base_(base),
          base_count_(base_count),
          links_(links),
          link_count_(link_count) {}

    size_t size() const { return base_count_ + link_count_; }
    bool empty() const { return size() == 0; }
    EdgePos operator[](size_t i) const {
      return i < base_count_ ? base_[i] : links_[i - base_count_].idx;
    }

    class iterator {
     public:
      using value_type = EdgePos;
      using difference_type = std::ptrdiff_t;

      iterator(const InPosView& view, size_t i)
          : base_(view.base_),
            base_count_(view.base_count_),
            links_(view.links_),
            i_(i) {}
      EdgePos operator*() const {
        return i_ < base_count_ ? base_[i_] : links_[i_ - base_count_].idx;
      }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator==(const iterator& o) const { return i_ == o.i_; }
      bool operator!=(const iterator& o) const { return i_ != o.i_; }

     private:
      const EdgePos* base_;
      size_t base_count_;
      const DeltaLink* links_;
      size_t i_;
    };
    iterator begin() const { return iterator(*this, 0); }
    iterator end() const { return iterator(*this, size()); }

   private:
    const EdgePos* base_;
    size_t base_count_;
    const DeltaLink* links_;
    size_t link_count_;
  };

  /// An empty graph (no vertices, horizon 0).
  TemporalGraph();

  size_t num_vertices() const {
    return num_sealed_vertices_ + delta_vertex_ids_.size();
  }
  size_t num_edges() const { return num_sealed_edges_ + delta_edges_.size(); }
  /// Edges in the sealed base (positions below this are CSR positions).
  size_t num_sealed_edges() const { return num_sealed_edges_; }
  /// Edges in the mutable delta segment.
  size_t num_delta_edges() const { return delta_edges_.size(); }

  /// External id of a vertex.
  VertexId vertex_id(VertexIdx v) const {
    return v < num_sealed_vertices_
               ? vertex_ids_[v]
               : delta_vertex_ids_[v - num_sealed_vertices_];
  }
  /// Lifespan of a vertex.
  const Interval& vertex_interval(VertexIdx v) const {
    return v < num_sealed_vertices_
               ? vertex_intervals_[v]
               : delta_vertex_intervals_[v - num_sealed_vertices_];
  }
  /// Dense index for an external id, if the vertex exists.
  std::optional<VertexIdx> IndexOf(VertexId vid) const;

  /// Out-edges of `v`: sealed CSR slice, then delta edges in append order.
  OutEdgeView OutEdges(VertexIdx v) const {
    const bool sealed = v < num_sealed_vertices_;
    const uint32_t begin = sealed ? out_offsets_[v] : 0;
    const uint32_t count = sealed ? out_offsets_[v + 1] - begin : 0;
    const auto [links, link_count] = LinksOf(delta_out_, v);
    return OutEdgeView(sealed_edges_ + begin, begin, count,
                       delta_edges_.data(), num_sealed_edges_, links,
                       link_count);
  }
  /// Positions (into edge storage) of in-edges of `v`.
  InPosView InEdgePositions(VertexIdx v) const {
    const bool sealed = v < num_sealed_vertices_;
    const uint32_t begin = sealed ? in_offsets_[v] : 0;
    const uint32_t count = sealed ? in_offsets_[v + 1] - begin : 0;
    const auto [links, link_count] = LinksOf(delta_in_, v);
    return InPosView(in_positions_ + begin, count, links, link_count);
  }
  /// Edge record by storage position. Positions >= num_sealed_edges()
  /// address the delta segment.
  const StoredEdge& edge(EdgePos pos) const {
    return pos < num_sealed_edges_ ? sealed_edges_[pos]
                                   : delta_edges_[pos - num_sealed_edges_];
  }
  /// Storage position of the k-th out-edge of `v`. Loops over a
  /// vertex's edges should take OutEdges(v) once and call its pos(k):
  /// this re-finds the vertex's delta links on every call.
  EdgePos OutEdgePos(VertexIdx v, size_t k) const {
    return OutEdges(v).pos(k);
  }

  /// Interned id for a label name, if used anywhere in the graph.
  std::optional<LabelId> LabelIdOf(const std::string& name) const {
    auto it = label_to_id_.find(name);
    if (it == label_to_id_.end()) return std::nullopt;
    return it->second;
  }
  /// Name of an interned label.
  const std::string& LabelName(LabelId id) const { return labels_[id]; }
  size_t num_labels() const { return labels_.size(); }

  /// Temporal values of edge property `label` on the edge at `pos`;
  /// empty when the edge has no such property. Views point into graph
  /// storage and stay valid while any version sharing it is alive.
  PropRuns EdgeProperty(EdgePos pos, LabelId label) const {
    return EdgeProperties(pos).Find(label);
  }
  /// All properties of the edge at `pos`.
  PropertyRange EdgeProperties(EdgePos pos) const {
    return pos < num_sealed_edges_
               ? base_->edge_props.Of(pos)
               : delta_edge_props_.Of(pos - num_sealed_edges_);
  }
  /// All properties of vertex `v` (appended vertices carry none).
  PropertyRange VertexProperties(VertexIdx v) const {
    return v < num_sealed_vertices_ ? base_->vertex_props.Of(v)
                                    : PropertyRange();
  }

  /// The graph horizon T: snapshots are the time-points [0, T). Open-ended
  /// entity lifespans are interpreted as reaching the horizon. Appends can
  /// only grow the horizon, never shrink it.
  TimePoint horizon() const { return horizon_; }

  /// Clips an entity lifespan to the finite horizon window [0, T).
  Interval ClipToHorizon(const Interval& i) const {
    return i.Intersect(Interval(0, horizon_));
  }

  /// The mutation head: (sealed-base generation, delta watermark).
  GraphHead head() const { return GraphHead{base_epoch_, delta_watermark_}; }

  /// Admits a batch of new vertices, edges, and edge properties into the
  /// delta segment. Validates the batch against the paper's Constraints
  /// 1-3 BEFORE applying anything — on error the graph is unchanged.
  /// Existing vertices, edges, and properties are never modified; batch
  /// properties may only target batch edges. On success the delta
  /// watermark advances by batch.size(), and `receipt` (when non-null)
  /// has this append's effects merged into it. Costs O(batch + delta),
  /// allocating per batch rather than per element, and
  /// never touches the shared base, except that the first append on a
  /// base builds its EdgeId index (O(E log E), once per base). The O(delta)
  /// term is real: each append merges its links into the sorted delta
  /// arrays, so a stream that never compacts pays O(delta) per batch —
  /// compact periodically (as the server's "compact":true does).
  Status Append(const EdgeBatch& batch, AppendReceipt* receipt = nullptr);

  /// Folds the delta segment (appended vertices and edges) into a NEW
  /// sealed CSR base: edges merged into the builder's (src, eid) order,
  /// in-adjacency rebuilt, delta cleared. The previous base is never
  /// modified, so other versions sharing it are unaffected. Its arrays are
  /// copied as blocks — one copy per run of sealed edges between two
  /// inserted delta edges, with offsets shifted — so the cost is O(E)
  /// memory traffic in a fixed number of allocations, independent of the
  /// base's size. Bumps base_epoch and zeroes the delta watermark. No-op
  /// (and NO epoch bump) only when the delta is empty. Edge storage
  /// positions are NOT stable across compaction; EdgeIds are.
  void Compact();

  /// True when appended vertices or edges await Compact().
  bool has_delta() const {
    return !delta_vertex_ids_.empty() || !delta_edges_.empty();
  }

  /// Keep predicates for Filter(). Each is asked about the graph being
  /// traversed, which is a compacted copy when the source has a delta, so
  /// edge positions must be read from the graph passed in. A null
  /// predicate keeps everything.
  using VertexPredicate =
      std::function<bool(const TemporalGraph&, VertexIdx)>;
  using EdgePredicate = std::function<bool(const TemporalGraph&, EdgePos)>;

  /// The subgraph of `g` on the vertices passing `keep_vertex` and the
  /// edges passing `keep_edge` between two kept vertices, clipped to
  /// `clip` (Interval::All() clips nothing): a vertex lifespan becomes
  /// lifespan ∩ clip, an edge lifespan lifespan ∩ clip ∩ both clipped
  /// endpoint lifespans, and a property run is cut to its entity's new
  /// lifespan. Entities and runs left empty are dropped.
  ///
  /// Writes a new sealed base directly, in one pass over the vertices and
  /// one over the edges in (src, eid) order. The result equals what
  /// TemporalGraphBuilder builds when fed the kept entities of `g` in
  /// vertex-index, then edge-position order: same vertex and edge order,
  /// labels interned in that first-use order, horizon copied from `g`. A
  /// source with a delta is compacted on a private copy first. Costs
  /// O(V + E + runs) in a fixed number of allocations; the builder's
  /// containment and run-order checks run inline and CHECK-fail.
  static TemporalGraph Filter(const TemporalGraph& g, const Interval& clip,
                              const VertexPredicate& keep_vertex,
                              const EdgePredicate& keep_edge);

  /// In-memory footprint in bytes of this interval-graph representation's
  /// arrays (used by the Fig. 6a footprint benchmark). Counts
  /// everything this version reaches, the shared base in full: versions
  /// sharing one base each report it, so summing over versions
  /// over-counts. The EdgeId index is counted once the first Append has
  /// built it; a sealed, never-appended graph has none.
  size_t MemoryFootprintBytes() const;

 private:
  friend class TemporalGraphBuilder;
  /// The hash-map builder that BuilderDifferentialTest keeps as the
  /// reference for TemporalGraphBuilder's output and errors.
  friend class HashMapGraphBuilder;
  /// The derived graphs of algorithms/common.h, written by WriteBase.
  friend TemporalGraph ReverseGraph(const TemporalGraph& g);
  friend TemporalGraph MakeUndirected(const TemporalGraph& g);

  /// How WriteBase lays out the edges it keeps: as they are (Filter),
  /// each reversed (ReverseGraph), or each followed by a reversed copy
  /// (MakeUndirected).
  enum class EdgeLayout { kForward, kReversed, kUndirected };
  /// Filter's writer, with the edge layout the derived graphs need. A
  /// vertex's reversed edges are its in-edges with the endpoints swapped;
  /// in kUndirected each copy takes the id max(0, max eid) + 1 + the
  /// original's position in `g`. Either way the out-lists keep the
  /// builder's (src, eid) order.
  static TemporalGraph WriteBase(const TemporalGraph& g, const Interval& clip,
                                 const VertexPredicate& keep_vertex,
                                 const EdgePredicate& keep_edge,
                                 EdgeLayout layout);

  /// (VertexId, VertexIdx) pairs sorted by id.
  using VidIndex = std::vector<std::pair<VertexId, VertexIdx>>;

  /// A property run awaiting flattening onto a PropStore; the builder and
  /// Append stage their input this way.
  struct StagedRun {
    uint32_t entity = 0;  ///< Position among the entities being added.
    uint32_t seq = 0;     ///< Input order.
    uint32_t rank = 0;    ///< Set by OrderStagedRuns.
    LabelId label = 0;
    Interval interval;
    PropValue value = 0;
  };
  static constexpr uint32_t kNoOverlap = static_cast<uint32_t>(-1);
  /// Orders `runs` (given in input order, entities below `num_entities`)
  /// for PropStore::AppendStaged: by entity, then label in first-set
  /// order (`rank`), then start. Returns the seq of the first run, in
  /// input order, that overlaps an earlier run of its (entity, label), or
  /// kNoOverlap — what a run-by-run Def. 1 check would reject first.
  static uint32_t OrderStagedRuns(std::vector<StagedRun>* runs,
                                  size_t num_entities);

  /// Flat temporal properties of one entity kind (DESIGN.md §4l). Entity
  /// i's labels are groups[offsets[i], offsets[i + 1]) in first-set order;
  /// each group's runs are contiguous in `runs`, and entity i + 1's groups
  /// and runs follow entity i's. There are no per-entity heap objects, so
  /// copying or freeing a store is three array operations.
  struct PropStore {
    std::vector<uint32_t> offsets = {0};  // size num_entities + 1
    std::vector<PropGroup> groups;
    std::vector<PropRun> runs;

    PropertyRange Of(size_t i) const {
      const uint32_t g0 = offsets[i];
      return PropertyRange(groups.data() + g0, groups.data() + offsets[i + 1],
                           runs.data(), RunBegin(g0));
    }
    /// Index of the first run of group `g` (or of runs.size() at the end).
    uint32_t RunBegin(uint32_t g) const {
      return g == 0 ? 0 : groups[g - 1].end;
    }
    /// Appends entities [first, last) of `src` as one block: their groups
    /// and runs copied, run ends and offsets shifted to this store.
    void AppendRange(const PropStore& src, size_t first, size_t last);
    /// Appends `count` entities without properties.
    void AppendEmpty(size_t count) {
      offsets.insert(offsets.end(), count, offsets.back());
    }
    /// Appends `count` entities holding `runs`, ordered by
    /// OrderStagedRuns. Overlapping runs of one label (left only when the
    /// caller skips validation) resolve as IntervalMap::Set calls in input
    /// order would.
    void AppendStaged(const std::vector<StagedRun>& runs, size_t count);
    void Reserve(size_t entities, size_t num_groups, size_t num_runs);
    size_t Bytes() const;
  };

  /// The sealed base: immutable once published, shared by every version
  /// derived from it (DESIGN.md §4l). Flat arrays only, so building,
  /// copying and freeing one takes a fixed number of allocations.
  struct SealedBase {
    std::vector<VertexId> vertex_ids;
    std::vector<Interval> vertex_intervals;
    VidIndex vid_index;

    std::vector<uint32_t> out_offsets;  // size num_vertices + 1
    std::vector<StoredEdge> edges;      // grouped by src, sorted by eid
    std::vector<uint32_t> in_offsets;   // size num_vertices + 1
    std::vector<EdgePos> in_positions;  // positions into edges

    PropStore vertex_props;  // by VertexIdx
    PropStore edge_props;    // by EdgePos

    /// Fills in_offsets / in_positions from `edges` (the builder and
    /// Compact() share this).
    void BuildInAdjacency();
  };

  /// Installs `base` and caches its arrays' data pointers, so the
  /// iteration API reads sealed storage with no extra indirection.
  void AdoptBase(std::shared_ptr<const SealedBase> base);

  /// The run of `v`'s links: a binary search for its start, then a
  /// galloping search for its end, so O(log delta + log run).
  static std::pair<const DeltaLink*, size_t> LinksOf(
      const std::vector<DeltaLink>& links, VertexIdx v) {
    const DeltaLink* const first = links.data();
    const DeltaLink* const last = first + links.size();
    const DeltaLink* lo = std::lower_bound(
        first, last, v,
        [](const DeltaLink& l, VertexIdx x) { return l.v < x; });
    if (lo == last || lo->v != v) return {nullptr, 0};
    // Gallop: hi->v == v throughout; the run ends within (hi, hi + step].
    const DeltaLink* hi = lo;
    size_t step = 1;
    while (step < static_cast<size_t>(last - hi) && hi[step].v == v) {
      hi += step;
      step *= 2;
    }
    hi = std::upper_bound(
        hi + 1, hi + std::min(step, static_cast<size_t>(last - hi)), v,
        [](VertexIdx x, const DeltaLink& l) { return x < l.v; });
    return {lo, static_cast<size_t>(hi - lo)};
  }

  LabelId InternLabel(const std::string& name);
  /// True when `eid` names a sealed or delta edge. Needs the EdgeId index.
  bool HasEdgeId(EdgeId eid) const;
  /// Builds the sealed EdgeId index on first Append. The builder does not
  /// carry its own over; sealed graphs that are never appended pay nothing.
  void EnsureEidIndex();
  /// Grows the horizon to cover `i`, using the builder's derivation rule.
  void GrowHorizon(const Interval& i);

  // --- Sealed base, shared and immutable. The raw pointers cache the
  // base's arrays (valid while base_ holds it; copies share it).
  std::shared_ptr<const SealedBase> base_;
  /// Sorted EdgeIds of the base's edges; null until the first Append.
  /// Shared like the base and replaced, never modified, by Compact().
  std::shared_ptr<const std::vector<EdgeId>> sealed_eids_;
  const StoredEdge* sealed_edges_ = nullptr;
  const VertexId* vertex_ids_ = nullptr;
  const Interval* vertex_intervals_ = nullptr;
  const uint32_t* out_offsets_ = nullptr;
  const uint32_t* in_offsets_ = nullptr;
  const EdgePos* in_positions_ = nullptr;
  uint32_t num_sealed_vertices_ = 0;
  uint32_t num_sealed_edges_ = 0;

  // --- Per-version state. Labels only ever grow, so every version's
  // table extends the table its base's properties were interned in.
  std::vector<std::string> labels_;
  std::unordered_map<std::string, LabelId> label_to_id_;
  TimePoint horizon_ = 0;

  // --- Delta segment (mutable head; DESIGN.md §4l), flat so copying it
  // costs O(delta) in a handful of allocations. Appended vertex k has
  // index num_sealed_vertices_ + k; delta edge i lives at global position
  // num_sealed_edges() + i.
  std::vector<VertexId> delta_vertex_ids_;
  std::vector<Interval> delta_vertex_intervals_;
  VidIndex delta_vid_index_;
  std::vector<StoredEdge> delta_edges_;
  PropStore delta_edge_props_;  // by delta edge index
  std::vector<DeltaLink> delta_out_;  // idx into delta_edges_
  std::vector<DeltaLink> delta_in_;   // idx = global EdgePos
  std::vector<EdgeId> delta_eids_;    // sorted

  uint64_t base_epoch_ = 0;
  uint64_t delta_watermark_ = 0;
};

}  // namespace graphite

#endif  // GRAPHITE_GRAPH_TEMPORAL_GRAPH_H_
