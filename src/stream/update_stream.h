// Streaming ingestion (paper §VIII future work: "extend ICM to process
// real-time temporal graphs of a streaming nature").
//
// A feed of timestamped structural and property events (vertex and edge
// adds, edge removals, edge property assignments) is grouped by the
// UpdateBatcher into EdgeBatch frames that TemporalGraph::Append folds
// into a live graph; Append checks the §III soundness constraints.
#ifndef GRAPHITE_STREAM_UPDATE_STREAM_H_
#define GRAPHITE_STREAM_UPDATE_STREAM_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "graph/temporal_graph.h"

namespace graphite {

/// One timestamped event of the update stream.
struct GraphUpdate {
  enum class Kind {
    kAddVertex,   ///< Vertex `id` comes alive at `time`.
    kAddEdge,     ///< Edge `id` (src -> dst) comes alive at `time`.
    kRemoveEdge,  ///< Edge `id` ceases to exist at `time` (exclusive).
    kSetEdgeProp, ///< Edge `id` property `label` = `value` from `time`.
  };

  Kind kind;
  TimePoint time = 0;
  int64_t id = 0;        ///< VertexId or EdgeId.
  VertexId src = 0;      ///< kAddEdge only.
  VertexId dst = 0;      ///< kAddEdge only.
  std::string label;     ///< kSetEdgeProp only.
  PropValue value = 0;   ///< kSetEdgeProp only.

  static GraphUpdate AddVertex(TimePoint t, VertexId id);
  static GraphUpdate AddEdge(TimePoint t, EdgeId id, VertexId src,
                             VertexId dst);
  static GraphUpdate RemoveEdge(TimePoint t, EdgeId id);
  static GraphUpdate SetEdgeProp(TimePoint t, EdgeId id, std::string label,
                                 PropValue value);
};

/// Groups an ordered update stream into EdgeBatch frames for the
/// sealed-base + delta append path (TemporalGraph::Append, DESIGN.md §4l):
/// the typed producer feeding a LIVE graph. A base graph is bootstrapped
/// the same way, by flushing a feed prefix and appending it to an empty
/// graph.
///
/// The append path extends the time-axis head and never rewrites sealed
/// storage, which shapes the contract:
///   * vertices are emitted open-ended (their lifespan reaches the
///     horizon) at the first drain after their add event;
///   * an edge is emitted once, with its final lifespan — either when its
///     removal event arrives (DrainClosed) or clipped at FlushAll's
///     horizon — together with its property runs.
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
