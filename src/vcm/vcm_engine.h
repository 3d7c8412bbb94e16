// Vertex-centric (Pregel-style) BSP engine. This is the stand-in for stock
// Apache Giraph: every baseline platform in the paper (MSB, Chlonos, TGB,
// GoFFish) is implemented over this engine, so — as in the paper — "the
// primitives are the key distinction and not the ... engine" (§VII-A3).
//
// A Program defines:
//   using Value   = ...;   // per-unit state
//   using Message = ...;   // payload (needs MessageTraits<Message>)
//   Value Init(uint32_t unit) const;
//   void Compute(VcmContext<...>& ctx, uint32_t unit, Value& value,
//                std::span<const Message> msgs);
//
// An Adapter abstracts the graph view the programs run on — a snapshot of
// the temporal graph (MSB/Chlonos/GoFFish) or the transformed graph (TGB):
//   size_t NumUnits() const;
//   bool UnitExists(uint32_t unit) const;
//   int64_t PartitionId(uint32_t unit) const;   // id hashed for placement
//
// Execution follows the paper's activation rule (§IV-A2): units implicitly
// vote to halt after every superstep and reactivate on message receipt. In
// superstep 0 every existing unit runs once with no messages (Pregel's
// initialization superstep). `always_active` keeps every unit live for
// fixed-iteration algorithms like PageRank.
#ifndef GRAPHITE_VCM_VCM_ENGINE_H_
#define GRAPHITE_VCM_VCM_ENGINE_H_

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "engine/message_traits.h"
#include "engine/metrics.h"
#include "engine/superstep_driver.h"
#include "util/serde.h"
#include "util/timer.h"

namespace graphite {

struct VcmOptions : EngineOptions {
  bool always_active = false;
  int max_supersteps = std::numeric_limits<int>::max();
  /// Unit->worker placement policy (graph/partitioner.h): hash of the
  /// adapter's PartitionId by default, or any strategy/explicit map.
  Placement placement;
};

/// Per-chunk send-side context handed to Program::Compute.
template <typename Message>
class VcmContext {
 public:
  VcmContext(const ChunkCursor<ChunkTally>& at,
             const std::vector<int>& worker_of)
      : at_(at), worker_of_(worker_of) {}

  /// Current superstep, starting at 0.
  int superstep() const { return at_.superstep; }

  /// Sends `msg` to unit `dst`, delivered at the start of the next
  /// superstep. Serialized immediately into the destination worker's wire
  /// buffer so byte metrics reflect the wire format.
  void Send(uint32_t dst, const Message& msg) {
    Writer& w = (*at_.wire)[worker_of_[dst]];
    w.WriteU64(dst);
    MessageTraits<Message>::Write(w, msg);
    ++at_.tally->messages;
  }

 private:
  const ChunkCursor<ChunkTally>& at_;
  const std::vector<int>& worker_of_;
};

/// Adapters over a mutable time-axis graph (DESIGN.md §4l) may expose the
/// head they were built against; checkpoints then record it and a resume
/// against a different head (edges appended or compacted since) silently
/// skips the frame. Headless adapters checkpoint as {0, 0}.
template <typename A>
concept VcmAdapterHasHead = requires(const A& a) {
  { a.head() } -> std::convertible_to<GraphHead>;
};

namespace vcm_internal {

/// RunVcm's operator for the superstep driver (engine/superstep_driver.h).
template <typename Program>
struct VcmOperator {
  using Value = typename Program::Value;
  using Message = typename Program::Message;
  /// Checkpointing needs the unit Value on the wire too (the Message
  /// already has traits by the engine contract); see ckpt/checkpoint.h.
  static constexpr bool kCheckpointable = HasWireTraits<Value>;
  static constexpr bool kPrefetchDense = true;

  Program& program;
  DeliveryPlane<Message>& plane;
  std::vector<Value>& values;

  void Visit(const ChunkCursor<ChunkTally>& at, uint32_t u) {
    VcmContext<Message> ctx(at, plane.map().worker_of());
    program.Compute(ctx, u, values[u], plane.MessagesFor(at.worker, u));
    ++at.tally->compute_calls;
  }

  // The per-message wire format: dst, then the payload (DecodeItem).
  void Decode(Reader& reader, int dst) {
    const uint32_t unit = static_cast<uint32_t>(reader.ReadU64());
    plane.Deliver(dst, unit, DecodeItem(reader));
  }

  // The checkpoint codec (the driver frames each worker's section).
  void EncodeUnit(Writer& w, uint32_t u) const {
    MessageTraits<Value>::Write(w, values[u]);
  }
  void DecodeUnit(Reader& r, uint32_t u) {
    values[u] = MessageTraits<Value>::Read(r);
  }
  void EncodeItem(Writer& w, const Message& m) const {
    MessageTraits<Message>::Write(w, m);
  }
  Message DecodeItem(Reader& r) const {
    return MessageTraits<Message>::Read(r);
  }
};

}  // namespace vcm_internal

/// Runs `program` over `adapter` to convergence (or max_supersteps).
/// Final unit values are moved into *out_values if non-null.
/// `recovery` connects the run to the checkpoint subsystem (ckpt/):
/// checkpoints are written where options.runtime.checkpoint says, into
/// recovery.store; with recovery.resume the run restarts from the newest
/// valid checkpoint. Requires MessageTraits for Value when used.
template <typename Program, typename Adapter>
RunMetrics RunVcm(const Adapter& adapter, Program& program,
                  const VcmOptions& options,
                  std::vector<typename Program::Value>* out_values = nullptr,
                  const RecoveryContext& recovery = {}) {
  using Value = typename Program::Value;
  using Message = typename Program::Message;

  const size_t n = adapter.NumUnits();
  // Non-existent units stay off every owner list.
  SuperstepDriver<Message> driver(
      options,
      WorkerMap(
          n, options.num_workers, options.placement,
          [&adapter](uint32_t u) { return adapter.PartitionId(u); },
          [&adapter](uint32_t u) { return adapter.UnitExists(u); }));

  std::vector<Value> values(n);  // lint:allow(vector: per-run vertex values, live across supersteps)
  for (uint32_t u = 0; u < n; ++u) {
    if (adapter.UnitExists(u)) values[u] = program.Init(u);
  }

  // The mutable time-axis head this run executes against; stamped into
  // checkpoint frames and compared on resume.
  GraphHead head;
  if constexpr (VcmAdapterHasHead<Adapter>) head = adapter.head();
  vcm_internal::VcmOperator<Program> op{program, driver.plane(), values};
  RunMetrics metrics;
  driver.Recover(op, recovery, head, &metrics);
  const int start = std::max(0, metrics.resumed_from);
  const int64_t run_start = NowNanos();
  driver.Run(op, start, options.max_supersteps, options.always_active,
             &metrics);
  metrics.makespan_ns = NowNanos() - run_start;
  if (out_values != nullptr) *out_values = std::move(values);
  return metrics;
}

}  // namespace graphite

#endif  // GRAPHITE_VCM_VCM_ENGINE_H_
