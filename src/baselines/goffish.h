// GoFFish-TS (GOF) baseline (paper §VII-A3, [12]): models the temporal
// graph as a sequence of snapshots. An OUTER loop walks the snapshots (in
// time order, or reverse for LD) delivering temporal messages; an INNER
// loop of VCM supersteps operates on one snapshot at a time. Vertex state
// is persistent across snapshots, and the user logic explicitly passes
// state forward as self-messages to the next snapshot — so neither compute
// nor messaging is shared across time, which is the baseline's cost.
#ifndef GRAPHITE_BASELINES_GOFFISH_H_
#define GRAPHITE_BASELINES_GOFFISH_H_

#include <limits>
#include <utility>
#include <vector>

#include "algorithms/common.h"
#include "baselines/msb.h"
#include "engine/message_traits.h"
#include "engine/superstep_driver.h"
#include "graph/snapshot.h"
#include "util/timer.h"

namespace graphite {

struct GoffishOptions : EngineOptions {
  /// Process snapshots from horizon-1 down to 0 (LD's reverse traversal).
  bool reverse_time = false;
  /// Vertex->worker placement policy (graph/partitioner.h).
  Placement placement;
};

/// Send-side context for one (snapshot, worker). Same-snapshot sends are
/// delivered in the next inner superstep; other targets become temporal
/// messages delivered when the outer loop reaches that snapshot.
template <typename Message>
class GofContext {
 public:
  struct Pending {
    uint32_t dst;
    TimePoint t;
    Message payload;
  };

  GofContext(int inner_superstep, TimePoint t, std::vector<Pending>* outbox)
      : inner_superstep_(inner_superstep), t_(t), outbox_(outbox) {}

  /// Inner (within-snapshot) superstep number.
  int superstep() const { return inner_superstep_; }
  /// The snapshot currently being processed.
  TimePoint time() const { return t_; }

  /// Sends `msg` to vertex `dst` at snapshot `t` (any time, including the
  /// current snapshot). Messages outside [0, horizon) are dropped by the
  /// engine after being counted — they can never be delivered.
  void SendTemporal(uint32_t dst, TimePoint t, const Message& msg) {
    outbox_->push_back({dst, t, msg});
  }

 private:
  int inner_superstep_;
  TimePoint t_;
  std::vector<Pending>* outbox_;
};

/// Runs a GoFFish program over all snapshots. The per-(vertex, time)
/// result records the persistent value after each snapshot's inner loop.
///
/// Program contract:
///   using Value / Message;
///   Value Init(VertexIdx) const;
///   bool InitialActive(VertexIdx v, TimePoint t,
///                      const SnapshotView&) const;    // seed activation
///   void Compute(GofContext<Message>&, VertexIdx, Value&,
///                std::span<const Message>, const SnapshotView&);
template <typename Program>
BaselineOutcome<typename Program::Value> RunGoffish(
    const TemporalGraph& g, Program& program, const GoffishOptions& options) {
  using Value = typename Program::Value;
  using Message = typename Program::Message;
  using Pending = typename GofContext<Message>::Pending;

  const size_t n = g.num_vertices();
  const TimePoint T = g.horizon();
  // One superstep driver (engine/superstep_driver.h) shared by every
  // snapshot's inner loop.
  SuperstepDriver<Message> driver(
      options, WorkerMap(n, options.num_workers, options.placement,
                         [&g](uint32_t v) { return g.vertex_id(v); }));
  DeliveryPlane<Message>& plane = driver.plane();

  struct Operator {
    Program& program;
    SuperstepDriver<Message>& driver;
    std::vector<Value> values{};
    // Temporal mailboxes, one per snapshot.
    std::vector<std::vector<std::pair<VertexIdx, Message>>> temporal{};
    // Per-chunk outboxes: concatenated in chunk order they equal
    // sequential mode's per-worker outbox order exactly.
    std::vector<std::vector<Pending>> outbox{};
    Writer scratch{};
    TimePoint t = 0;
    const SnapshotView* view = nullptr;

    void Visit(const ChunkCursor<ChunkTally>& at, VertexIdx v) {
      // A vertex can be mailed by a neighbor even where the snapshot
      // excludes it. Past inner superstep 0 only mailed vertices are
      // visited; at 0, every vertex is probed for InitialActive.
      if (!view->VertexActive(v)) return;
      if (at.superstep == 0 && !driver.plane().HasMail(v) &&
          !program.InitialActive(v, t, *view)) {
        return;
      }
      GofContext<Message> ctx(at.superstep, t, &outbox[at.chunk]);
      program.Compute(ctx, v, values[v],
                      driver.plane().MessagesFor(at.worker, v), *view);
      ++at.tally->compute_calls;
    }

    // Serialize everything (bytes metric). Same-snapshot messages become
    // wire rows and reappear in the next inner superstep; cross-snapshot
    // ones are byte-counted with the identical encoding, then queued typed
    // in the temporal mailboxes. Outboxes are walked in chunk order, the
    // sequential per-worker order.
    void PreRoute(SuperstepMetrics* ss) {
      const TimePoint horizon = static_cast<TimePoint>(temporal.size());
      for (int src_w = 0; src_w < driver.map().num_workers(); ++src_w) {
        const auto [c0, c1] = driver.runtime().ChunkRange(src_w);
        for (int c = c0; c < c1; ++c) {
          for (Pending& p : outbox[c]) {
            const int dst_w = driver.map().WorkerOf(p.dst);
            ss->messages += 1;
            if (p.t == t) {
              // Bytes are accounted by the driver's Route.
              Writer& row = driver.wire(c)[dst_w];
              row.WriteU64(p.dst);
              row.WriteI64(p.t);
              MessageTraits<Message>::Write(row, p.payload);
              continue;
            }
            scratch.Clear();
            scratch.WriteU64(p.dst);
            scratch.WriteI64(p.t);
            MessageTraits<Message>::Write(scratch, p.payload);
            const int64_t bytes = static_cast<int64_t>(scratch.size());
            ss->message_bytes += bytes;
            if (dst_w != src_w) ss->worker_in_bytes[dst_w] += bytes;
            if (p.t >= 0 && p.t < horizon) {
              temporal[static_cast<size_t>(p.t)].emplace_back(
                  p.dst, std::move(p.payload));
            }
            // Else: addressed beyond the horizon; counted, undeliverable.
          }
          outbox[c].clear();
        }
      }
    }

    void Decode(Reader& reader, int dst) {
      const uint32_t dv = static_cast<uint32_t>(reader.ReadU64());
      const TimePoint mt = reader.ReadI64();
      GRAPHITE_CHECK(mt == t);
      driver.plane().Deliver(dst, dv, MessageTraits<Message>::Read(reader));
    }
  } op{program, driver};
  op.temporal.resize(static_cast<size_t>(T));
  op.outbox.resize(driver.runtime().num_chunks());
  op.values.resize(n);
  for (VertexIdx v = 0; v < n; ++v) op.values[v] = program.Init(v);

  BaselineOutcome<Value> out;
  out.result.resize(n);
  const int64_t run_start = NowNanos();
  for (TimePoint step = 0; step < T; ++step) {
    const TimePoint t = options.reverse_time ? T - 1 - step : step;
    const SnapshotView view(&g, t);
    op.t = t;
    op.view = &view;

    // Snapshot boundary: drop whatever the previous snapshot left sealed,
    // then seed this snapshot's inboxes from its temporal mailbox.
    plane.Barrier();
    for (auto& [v, m] : op.temporal[static_cast<size_t>(t)]) {
      plane.Deliver(plane.map().WorkerOf(v), v, std::move(m));
    }
    op.temporal[static_cast<size_t>(t)].clear();
    plane.SealAll();

    // Inner VCM loop over this snapshot.
    driver.Run(op, 0, std::numeric_limits<int>::max(),
               /*always_active=*/false, &out.metrics);
    for (VertexIdx v = 0; v < n; ++v) {
      if (view.VertexActive(v)) {
        out.result[v].Set(Interval(t, t + 1), op.values[v]);
      }
    }
  }

  out.metrics.makespan_ns = NowNanos() - run_start;
  for (auto& map : out.result) map.Coalesce();
  return out;
}

}  // namespace graphite

#endif  // GRAPHITE_BASELINES_GOFFISH_H_
