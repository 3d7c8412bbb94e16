// Superstep execution runtime under the shared superstep driver
// (engine/superstep_driver.h), which all four engines (ICM, VCM, Chlonos,
// GoFFish) run on. SuperstepRuntime has two execution modes:
//
//   sequential — use_threads off: one chunk per logical worker, run in
//                worker order on the calling thread.
//   stealing   — use_threads on: a persistent ThreadPool created once per
//                run and reused across supersteps. Each logical worker's
//                item list is cut into chunks; threads drain their home
//                workers' chunk cursors first, then steal the remaining
//                chunks of other workers. A generic ParallelFor
//                deserializes per-destination wire columns concurrently
//                in the messaging phase.
//
// Logical workers stay fixed no matter how many OS threads run: message
// routing (worker_of), per-worker metrics and wire-byte accounting are all
// keyed by logical worker. OS threads only steal *chunks* of a logical
// worker's vertex list via per-worker atomic cursors, and every chunk
// writes into its own output slot (wire-buffer row / outbox). Because
// chunks split each worker's list contiguously and in order, concatenating
// the chunk outputs in chunk order reproduces the sequential per-worker
// buffers byte for byte — results are identical in both modes and at any
// thread count; tests enforce this (runtime_determinism_test).
#ifndef GRAPHITE_ENGINE_PARALLEL_H_
#define GRAPHITE_ENGINE_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/checkpoint_policy.h"
#include "engine/thread_pool.h"
#include "util/arena.h"
#include "util/status.h"
#include "util/timer.h"

namespace graphite {

/// Runtime knobs shared by every engine's options struct.
struct RuntimeOptions {
  /// OS threads used when use_threads is set; 0 = min(num_workers,
  /// hardware_concurrency). May exceed the logical worker count — extra
  /// threads have no home workers and go straight to stealing.
  int num_threads = 0;
  /// Work-stealing granularity: items (vertices/units) per chunk.
  int chunk_size = 64;
  /// Compute-frontier density threshold, as a fraction of each worker's
  /// owned units: after messaging, a worker whose mailed-unit count is at
  /// most `frontier_density * owned` gets a sorted frontier of exactly the
  /// mailed units and compute skips the dense activation scan; above the
  /// threshold it falls back to the dense scan (direction switching, as in
  /// frontier-based BFS engines). 0 disables the frontier path; values
  /// >= 1 effectively never switch to dense. Either path produces
  /// byte-identical results (tests enforce it); this knob is purely about
  /// which is faster for a workload's activation pattern.
  double frontier_density = 0.5;
  /// When to write barrier checkpoints; inert unless a CheckpointStore is
  /// supplied via RecoveryContext (see ckpt/checkpoint.h).
  CheckpointPolicy checkpoint;
};

/// A contiguous slice [begin, end) of logical worker `worker`'s item list.
struct WorkChunk {
  int worker;
  size_t begin;
  size_t end;
};

class SuperstepRuntime {
 public:
  /// `worker_sizes[w]` is the item count of logical worker w. The chunk
  /// table is fixed for the lifetime of the runtime (item lists are static
  /// across supersteps), so per-chunk output slots can be allocated once
  /// and reused.
  SuperstepRuntime(int num_workers, bool use_threads,
                   const RuntimeOptions& options,
                   const std::vector<size_t>& worker_sizes)
      : num_workers_(num_workers) {
    GRAPHITE_CHECK(static_cast<int>(worker_sizes.size()) == num_workers);
    if (use_threads) {
      const int hw = static_cast<int>(std::thread::hardware_concurrency());
      num_threads_ = options.num_threads > 0
                         ? options.num_threads
                         : std::max(1, std::min(num_workers, hw));
    }
    const size_t chunk_items =
        use_threads ? static_cast<size_t>(std::max(1, options.chunk_size))
                    : std::numeric_limits<size_t>::max();
    first_.resize(num_workers + 1, 0);
    for (int w = 0; w < num_workers; ++w) {
      first_[w] = static_cast<int>(chunks_.size());
      for (size_t b = 0; b < worker_sizes[w];) {
        const size_t len = std::min(chunk_items, worker_sizes[w] - b);
        chunks_.push_back({w, b, b + len});
        b += len;
      }
    }
    first_[num_workers] = static_cast<int>(chunks_.size());
    if (num_threads_ > 1) {
      pool_ = std::make_unique<ThreadPool>(num_threads_);
    }
    worker_arenas_ = std::vector<Arena>(num_workers);
  }

  int num_workers() const { return num_workers_; }
  /// Execution lanes: 1 (sequential) or the pool width. Sizes per-thread
  /// scratch and timing vectors.
  int num_threads() const { return num_threads_; }
  int num_chunks() const { return static_cast<int>(chunks_.size()); }
  const WorkChunk& chunk(int c) const { return chunks_[c]; }
  /// Chunk-index range [first, second) of logical worker w; chunks are
  /// contiguous per worker and ordered by item position.
  std::pair<int, int> ChunkRange(int w) const {
    return {first_[w], first_[w + 1]};
  }

  /// Logical worker w's superstep arena. Backs that worker's flat inbox
  /// (filled by its exclusive delivery lane in the messaging phase, read
  /// by the compute phase and checkpoint encode). The engine resets it at
  /// each superstep barrier — never mid-phase: compute of worker w's
  /// chunks may run on several OS threads at once, so per-worker arenas
  /// must not back compute-phase scratch (that is what per-thread arenas
  /// in the engines' scratch structs are for).
  Arena& worker_arena(int w) { return worker_arenas_[w]; }

  /// Compute phase: runs body(chunk_index, chunk, thread_id) for every
  /// chunk. Per-thread phase durations go to *thread_ns (resized to
  /// num_threads()); returns the number of stolen chunks (chunks executed
  /// by a thread other than their worker's home thread).
  template <typename Body>
  int64_t ComputePhase(std::vector<int64_t>* thread_ns, Body&& body) {
    thread_ns->assign(num_threads_, 0);
    if (pool_ == nullptr) {
      const int64_t t0 = NowNanos();
      for (int c = 0; c < num_chunks(); ++c) body(c, chunks_[c], 0);
      (*thread_ns)[0] = NowNanos() - t0;
      return 0;
    }
    std::vector<std::atomic<size_t>> cursor(num_workers_);
    std::atomic<int64_t> steals{0};
    pool_->RunOnAll([&](int t) {
      const int64_t t0 = NowNanos();
      auto drain = [&](int w, bool stolen) {
        const int base = first_[w];
        const size_t count = static_cast<size_t>(first_[w + 1] - base);
        for (;;) {
          const size_t k = cursor[w].fetch_add(1, std::memory_order_relaxed);
          if (k >= count) break;
          const int c = base + static_cast<int>(k);
          body(c, chunks_[c], t);
          if (stolen) steals.fetch_add(1, std::memory_order_relaxed);
        }
      };
      for (int w = t; w < num_workers_; w += num_threads_) drain(w, false);
      for (int off = 1; off <= num_workers_; ++off) {
        drain((t + off) % num_workers_, true);
      }
      (*thread_ns)[t] = NowNanos() - t0;
    });
    return steals.load();
  }

  /// Runs body(i, thread_id) for i in [0, count) across the pool (atomic
  /// cursor; sequential without one). Used by the messaging phase: i is
  /// a destination worker, and destination columns touch disjoint
  /// inboxes, so the deliveries are data-race free (Chlonos's sharing
  /// likewise runs one source worker per i, each writing its own row).
  template <typename Body>
  void ParallelFor(int count, std::vector<int64_t>* thread_ns,
                   Body&& body) const {
    thread_ns->assign(num_threads_, 0);
    if (pool_ == nullptr) {
      const int64_t t0 = NowNanos();
      for (int i = 0; i < count; ++i) body(i, 0);
      (*thread_ns)[0] = NowNanos() - t0;
      return;
    }
    std::atomic<int> next{0};
    pool_->RunOnAll([&](int t) {
      const int64_t t0 = NowNanos();
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        body(i, t);
      }
      (*thread_ns)[t] = NowNanos() - t0;
    });
  }

 private:
  int num_workers_;
  int num_threads_ = 1;
  std::vector<WorkChunk> chunks_;
  std::vector<int> first_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<Arena> worker_arenas_;
};

}  // namespace graphite

#endif  // GRAPHITE_ENGINE_PARALLEL_H_
