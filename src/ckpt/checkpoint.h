// The checkpoint frame: everything a BSP engine needs to resume a run at
// a superstep barrier, independent of the engine's State/Message types.
//
// A frame is written at the barrier after superstep s's messaging phase,
// so it captures the exact input of superstep s+1:
//   * superstep        — the next superstep to execute (s+1);
//   * carry counters   — the run's cumulative model-intrinsic counters
//                        (supersteps, compute/scatter calls, messages,
//                        bytes, ...) so a resumed run reports totals
//                        byte-identical to an uninterrupted one;
//   * worker sections  — one opaque byte blob per logical worker, encoded
//                        in parallel on the engine's thread pool. Each
//                        section holds the worker's owned units: their
//                        partitioned interval states (or plain values for
//                        VCM), halted/active flags, and the undelivered
//                        inbox for superstep s+1.
//
// The frame layout is engine-agnostic; the engines own their section
// encoding (they have the Program's State/Message types). DecodeFrame is
// Status-returning with byte offsets (a DataLoss error), though in
// practice the store's CRC rejects damage before a frame is ever decoded.
//
// Frame payload layout (all varints; see CheckpointStore for the
// checksummed envelope):
//   superstep | num_units | base_epoch | delta_watermark
//   | counters: supersteps, compute_calls, scatter_calls, messages,
//               message_bytes, active_compute_calls, suppressed_vertices
//   | #sections | per section: byte length
//   | section bytes, back to back
#ifndef GRAPHITE_CKPT_CHECKPOINT_H_
#define GRAPHITE_CKPT_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace graphite {

class CheckpointStore;
class FaultInjector;

/// Cumulative model-intrinsic counters carried across a resume. Timing
/// metrics are deliberately absent: wall clock cannot be replayed, counts
/// can.
struct CarryCounters {
  int64_t supersteps = 0;
  int64_t compute_calls = 0;
  int64_t scatter_calls = 0;
  int64_t messages = 0;
  int64_t message_bytes = 0;
  int64_t active_compute_calls = 0;  ///< ICM only; 0 for VCM.
  int64_t suppressed_vertices = 0;   ///< ICM only; 0 for VCM.
};

struct CheckpointFrame {
  int superstep = 0;        ///< Next superstep to execute on resume.
  uint64_t num_units = 0;   ///< Sanity: vertex/unit count of the run.
  /// The mutable time-axis head the run executed against (DESIGN.md §4l):
  /// TemporalGraph::head() for ICM, the adapter's head (or {0,0}) for VCM.
  /// A resume against a different head silently skips the frame — the
  /// checkpointed states reference an edge set that no longer matches.
  uint64_t base_epoch = 0;
  uint64_t delta_watermark = 0;
  CarryCounters counters;
  std::vector<std::string> sections;  ///< One per logical worker.
};

/// Serializes a frame to the payload the store checksums and commits.
std::string EncodeFrame(const CheckpointFrame& frame);

/// Parses a frame payload. DataLoss with byte-offset context on damage.
Result<CheckpointFrame> DecodeFrame(const std::string& payload);

/// How a Run() interacts with the checkpoint subsystem. The policy that
/// decides *when* to checkpoint lives in RuntimeOptions (see
/// ckpt/checkpoint_policy.h); this carries the *where* and the recovery
/// request. All pointers are borrowed and may be null.
struct RecoveryContext {
  /// Destination of policy-triggered checkpoints, and the source of a
  /// resume. Null disables both.
  CheckpointStore* store = nullptr;
  /// Load a checkpoint before the first superstep and continue from it.
  /// When the store has no valid checkpoint the run starts from scratch
  /// (cold start and first run share one code path).
  bool resume = false;
  /// Specific checkpoint superstep to resume from; -1 = newest valid
  /// (corrupt files skipped via checksum).
  int resume_from = -1;
  /// Deterministic crash injection for recovery tests; null in production.
  FaultInjector* fault = nullptr;
};

}  // namespace graphite

#endif  // GRAPHITE_CKPT_CHECKPOINT_H_
