// Persistent worker pool for the BSP engines. Created once per Run() and
// reused across supersteps: threads park on a condition variable between
// phases instead of being respawned every superstep.
//
// The single primitive is RunOnAll(job): `job(thread_id)` executes once on
// every pool thread AND on the calling thread (thread id 0), and RunOnAll
// returns when all copies have finished. Phase executors (work-stealing
// compute, parallel message delivery) are built on top by having the job
// drain shared atomic cursors — see SuperstepRuntime in engine/parallel.h.
//
// Lock discipline is compiler-checked: every cross-thread member is
// GRAPHITE_GUARDED_BY(mu_) and Clang's -Wthread-safety verifies that all
// accesses hold the lock (util/thread_annotations.h).
#ifndef GRAPHITE_ENGINE_THREAD_POOL_H_
#define GRAPHITE_ENGINE_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace graphite {

class ThreadPool {
 public:
  /// Creates a pool of `num_threads` total execution lanes: the caller of
  /// RunOnAll counts as lane 0, so `num_threads - 1` OS threads are
  /// spawned. `num_threads == 1` spawns nothing and RunOnAll degenerates
  /// to a plain call.
  explicit ThreadPool(int num_threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// Runs `job(thread_id)` on every lane (ids in [0, num_threads), id 0 on
  /// the calling thread) and returns once all lanes have completed.
  /// Completion synchronizes-with the return, so the caller may freely
  /// read anything the lanes wrote. Not reentrant.
  void RunOnAll(const std::function<void(int)>& job);

  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

 private:
  void WorkerLoop(int thread_id);

  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  const std::function<void(int)>* job_ GRAPHITE_GUARDED_BY(mu_) = nullptr;
  uint64_t generation_ GRAPHITE_GUARDED_BY(mu_) = 0;
  int pending_ GRAPHITE_GUARDED_BY(mu_) = 0;
  bool stop_ GRAPHITE_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // Written in ctor only; const after.
};

}  // namespace graphite

#endif  // GRAPHITE_ENGINE_THREAD_POOL_H_
