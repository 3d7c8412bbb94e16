// Deterministic fault injection for recovery tests. Two sabotage axes:
//
//   * process death — ScheduleKill(superstep, worker) makes the engine
//     stop abruptly when that logical worker begins compute in that
//     superstep, exactly as if the process died mid-superstep: nothing
//     from the killed superstep reaches the store or the returned result
//     (RunMetrics::interrupted marks the corpse). Tests then call Run()
//     again with RecoveryContext::resume to model the restarted process.
//   * at-rest corruption — CorruptByte/Truncate deterministically damage
//     a committed checkpoint file, exercising the CRC-driven fallback to
//     the previous valid snapshot in CheckpointStore::LoadLatestValid.
//
// The kill is keyed on (superstep, logical worker), not OS thread: logical
// workers are the stable routing entities (engine/parallel.h), so the
// crash point is identical in sequential and stealing mode, at any thread
// count.
#ifndef GRAPHITE_CKPT_FAULT_INJECTOR_H_
#define GRAPHITE_CKPT_FAULT_INJECTOR_H_

#include <atomic>
#include <cstddef>

#include "ckpt/checkpoint_store.h"
#include "util/status.h"

namespace graphite {

class FaultInjector {
 public:
  FaultInjector() = default;

  /// Schedules the crash: the run dies when logical worker `worker` starts
  /// compute in `superstep`. Fires at most once per arm.
  void ScheduleKill(int superstep, int worker) {
    kill_superstep_ = superstep;
    kill_worker_ = worker;
    triggered_.store(false, std::memory_order_relaxed);
  }

  /// Engine hook, called from compute workers (thread-safe): true exactly
  /// once, when the scheduled (superstep, worker) point is reached.
  bool Fire(int superstep, int worker) {
    if (superstep != kill_superstep_ || worker != kill_worker_) return false;
    return !triggered_.exchange(true, std::memory_order_relaxed);
  }

  /// Whether the scheduled kill has fired (tests assert the crash was
  /// real, not a silent completion).
  bool triggered() const {
    return triggered_.load(std::memory_order_relaxed);
  }

  /// XORs one byte of the committed checkpoint for `superstep` at
  /// `offset` (modulo the file size), defeating the CRC.
  static Status CorruptByte(const CheckpointStore& store, int superstep,
                            size_t offset);

  /// Truncates the committed checkpoint for `superstep` to `keep_bytes`,
  /// modeling a crash mid-write on a filesystem without atomic rename.
  static Status Truncate(const CheckpointStore& store, int superstep,
                         size_t keep_bytes);

 private:
  int kill_superstep_ = -1;
  int kill_worker_ = -1;
  std::atomic<bool> triggered_{false};
};

}  // namespace graphite

#endif  // GRAPHITE_CKPT_FAULT_INJECTOR_H_
