// Streaming ingestion (paper §VIII future work: "extend ICM to process
// real-time temporal graphs of a streaming nature").
//
// A StreamingGraphBuilder consumes a totally ordered stream of timestamped
// structural and property events (vertex/edge add & remove, property
// assignment) and maintains the evolving graph. At any time it can seal a
// fully evolved interval graph for ICM processing — the bridge between a
// live feed and the paper's "fully evolved, ready for processing" model —
// and it enforces the §III soundness constraints on the fly, rejecting
// events that would violate them.
#ifndef GRAPHITE_STREAM_UPDATE_STREAM_H_
#define GRAPHITE_STREAM_UPDATE_STREAM_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "graph/builder.h"
#include "graph/temporal_graph.h"

namespace graphite {

/// One timestamped event of the update stream.
struct GraphUpdate {
  enum class Kind {
    kAddVertex,     ///< Vertex `id` comes alive at `time`.
    kRemoveVertex,  ///< Vertex `id` ceases to exist at `time` (exclusive).
    kAddEdge,       ///< Edge `id` (src -> dst) comes alive at `time`.
    kRemoveEdge,    ///< Edge `id` ceases to exist at `time` (exclusive).
    kSetVertexProp, ///< Vertex `id` property `label` = `value` from `time`.
    kSetEdgeProp,   ///< Edge `id` property `label` = `value` from `time`.
  };

  Kind kind;
  TimePoint time = 0;
  int64_t id = 0;        ///< VertexId or EdgeId.
  VertexId src = 0;      ///< kAddEdge only.
  VertexId dst = 0;      ///< kAddEdge only.
  std::string label;     ///< Property events only.
  PropValue value = 0;   ///< Property events only.

  static GraphUpdate AddVertex(TimePoint t, VertexId id);
  static GraphUpdate RemoveVertex(TimePoint t, VertexId id);
  static GraphUpdate AddEdge(TimePoint t, EdgeId id, VertexId src,
                             VertexId dst);
  static GraphUpdate RemoveEdge(TimePoint t, EdgeId id);
  static GraphUpdate SetVertexProp(TimePoint t, VertexId id,
                                   std::string label, PropValue value);
  static GraphUpdate SetEdgeProp(TimePoint t, EdgeId id, std::string label,
                                 PropValue value);
};

/// Incrementally folds an ordered update stream into an interval graph.
///
/// Apply() returns an error (and leaves the builder unchanged) for events
/// that violate the temporal-graph constraints: re-adding a live or dead
/// entity (Constraint 1), edges on missing/dead endpoints (Constraint 2),
/// properties on missing entities (Constraint 3), or timestamps that go
/// backwards.
class StreamingGraphBuilder {
 public:
  /// Applies one event. Events must be non-decreasing in time.
  Status Apply(const GraphUpdate& update);

  /// Applies a batch, stopping at the first error.
  Status ApplyAll(const std::vector<GraphUpdate>& updates);

  /// Seals the stream at `horizon` (every still-alive entity's lifespan
  /// closes at the horizon) and builds the fully evolved interval graph.
  /// The builder remains usable; sealing is a snapshot operation.
  Result<TemporalGraph> Seal(TimePoint horizon) const;

  /// Latest event time applied so far.
  TimePoint now() const { return now_; }
  size_t num_live_vertices() const;
  size_t num_live_edges() const;

 private:
  struct VertexRecord {
    TimePoint start = 0;
    TimePoint end = kTimeMax;  ///< kTimeMax while alive.
    // Property runs: (label, start, end|kTimeMax, value).
    struct PropRun {
      std::string label;
      TimePoint start;
      TimePoint end;
      PropValue value;
    };
    std::vector<PropRun> props;
  };
  struct EdgeRecord {
    VertexId src = 0;
    VertexId dst = 0;
    TimePoint start = 0;
    TimePoint end = kTimeMax;
    std::vector<VertexRecord::PropRun> props;
  };

  bool VertexAlive(VertexId id) const;

  TimePoint now_ = 0;
  std::unordered_map<VertexId, VertexRecord> vertices_;
  std::unordered_map<EdgeId, EdgeRecord> edges_;
};

/// Groups an ordered update stream into EdgeBatch frames for the
/// sealed-base + delta append path (TemporalGraph::Append, DESIGN.md §4l).
/// This is the typed producer feeding a LIVE graph, where the streaming
/// builder above rebuilds a fresh one per seal.
///
/// The append path extends the time-axis head and never rewrites sealed
/// storage, which shapes the contract:
///   * vertices are emitted open-ended (their lifespan reaches the
///     horizon) at the first drain after their add event;
///   * an edge is emitted once, with its final lifespan — either when its
///     removal event arrives (DrainClosed) or clipped at FlushAll's
///     horizon — together with its property runs;
///   * kRemoveVertex / kSetVertexProp are rejected: they would require
///     mutating already-appended entities.
/// Endpoint existence is NOT checked here (targets may live in the sealed
/// base the batcher never sees); TemporalGraph::Append validates
/// authoritatively.
class UpdateBatcher {
 public:
  /// Accepts one event. Events must be non-decreasing in time.
  Status Push(const GraphUpdate& update);

  /// Emits every pending vertex plus the pending edges whose removal has
  /// been observed (their lifespans are final). Emitted entities leave the
  /// batcher; still-live edges stay pending.
  EdgeBatch DrainClosed();

  /// Emits everything still pending, closing still-live edge lifespans
  /// and property runs at `horizon` (which must be beyond the stream
  /// clock). The batcher is empty afterwards.
  Result<EdgeBatch> FlushAll(TimePoint horizon);

  TimePoint now() const { return now_; }
  size_t num_pending_vertices() const { return vertices_.size(); }
  size_t num_pending_edges() const { return edges_.size(); }

 private:
  struct PropRun {
    std::string label;
    TimePoint start;
    TimePoint end;  ///< kTimeMax while the run is open.
    PropValue value;
  };
  struct PendingEdge {
    EdgeId eid;
    VertexId src;
    VertexId dst;
    TimePoint start;
    TimePoint end = kTimeMax;  ///< kTimeMax while the edge is live.
    std::vector<PropRun> props;
  };

  /// Appends `e` (with lifespan closed at `end`) to `batch`.
  static void EmitEdge(const PendingEdge& e, TimePoint end, EdgeBatch* batch);

  TimePoint now_ = 0;
  std::vector<EdgeBatch::NewVertex> vertices_;  // insertion order
  std::vector<PendingEdge> edges_;              // insertion order
  std::unordered_map<EdgeId, size_t> edge_index_;  // eid -> edges_ slot
};

/// Generates a deterministic random update stream (used by tests and the
/// streaming example): `churn` controls how often live edges are removed.
std::vector<GraphUpdate> SyntheticUpdateStream(uint64_t seed,
                                               int num_vertices,
                                               int num_events,
                                               TimePoint horizon,
                                               double churn = 0.3);

}  // namespace graphite

#endif  // GRAPHITE_STREAM_UPDATE_STREAM_H_
