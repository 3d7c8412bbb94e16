// Bounded-admission job scheduler multiplexing many small queries over
// the resident graphs.
//
// Policy (the serving contract the tests pin down):
//   * Admission — a bounded FIFO queue; a full queue rejects the request
//     with OutOfRange instead of blocking the connection thread.
//   * Cache fast path — Submit() first consults the ResultCache; a hit is
//     answered inline on the submitting thread, without touching the
//     queue or running a single superstep. This is what makes repeated
//     requests an order of magnitude faster than cold runs.
//   * One FIFO queue — each idle worker pops the head. Jobs on the same
//     graph run concurrently: a Workload builds each derived graph once
//     even under racing callers, so the scheduler keeps no per-graph
//     state.
//
// `num_threads == 0` is an admission-only mode used by tests: requests
// queue (or get rejected) deterministically and are executed by explicit
// RunOneForTest() calls or failed by Stop().
#ifndef GRAPHITE_SERVER_JOB_SCHEDULER_H_
#define GRAPHITE_SERVER_JOB_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "server/query_service.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace graphite {

struct SchedulerOptions {
  int num_threads = 4;    ///< 0 = admission-only (tests).
  size_t max_queue = 128; ///< Queued (not yet running) job bound.
};

/// Aggregate counters for the `metrics` control op and the bench report.
struct SchedulerStats {
  int64_t submitted = 0;      ///< Accepted jobs (queued or fast-pathed).
  int64_t rejected = 0;       ///< Admission rejections (queue full).
  int64_t completed = 0;      ///< Jobs run to completion by workers.
  int64_t fastpath_hits = 0;  ///< Served inline from the cache in Submit.
  int64_t queue_wait_ns = 0;  ///< Total queue wait across completed jobs.
  int64_t run_ns = 0;         ///< Total execution time across completed jobs.
  int64_t supersteps = 0;     ///< Total supersteps across completed jobs.
  size_t queued = 0;          ///< Currently queued.
  size_t running = 0;         ///< Currently running.
};

class JobScheduler {
 public:
  /// `service` must outlive the scheduler.
  JobScheduler(QueryService* service, SchedulerOptions options = {});
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Submits one data-op request. On the cache fast path `done` is
  /// invoked inline before Submit returns; otherwise the job is queued
  /// and `done` fires on a worker thread with the response line.
  /// Returns OutOfRange (without calling `done`) when the queue is full,
  /// and InvalidArgument for non-data ops.
  Status Submit(QueryRequest req, std::function<void(std::string)> done);

  /// Blocks until every accepted job has completed.
  void Drain();

  /// Stops workers; every still-queued job's `done` fires with an
  /// OutOfRange "server shutting down" error response. Idempotent.
  void Stop();

  /// Admission-only mode: runs the queue's head job on the calling
  /// thread. Returns false when the queue is empty.
  bool RunOneForTest();

  SchedulerStats stats() const;

 private:
  struct Job {
    QueryRequest req;
    std::function<void(std::string)> done;
    int64_t enqueued_ns = 0;
  };

  void WorkerLoop();
  /// Pops the queue's head job.
  bool PickRunnable(Job* out) GRAPHITE_REQUIRES(mu_);
  void RunJob(Job job);

  QueryService* service_;
  const SchedulerOptions options_;

  mutable Mutex mu_;
  CondVar work_cv_;   ///< Signals workers: queue changed.
  CondVar drain_cv_;  ///< Signals Drain/Stop: job finished.
  std::deque<Job> queue_ GRAPHITE_GUARDED_BY(mu_);
  size_t running_ GRAPHITE_GUARDED_BY(mu_) = 0;
  bool stopping_ GRAPHITE_GUARDED_BY(mu_) = false;

  int64_t submitted_ GRAPHITE_GUARDED_BY(mu_) = 0;
  int64_t rejected_ GRAPHITE_GUARDED_BY(mu_) = 0;
  int64_t completed_ GRAPHITE_GUARDED_BY(mu_) = 0;
  int64_t fastpath_hits_ GRAPHITE_GUARDED_BY(mu_) = 0;
  int64_t queue_wait_ns_ GRAPHITE_GUARDED_BY(mu_) = 0;
  int64_t run_ns_ GRAPHITE_GUARDED_BY(mu_) = 0;
  int64_t supersteps_ GRAPHITE_GUARDED_BY(mu_) = 0;

  std::vector<std::thread> workers_;
};

}  // namespace graphite

#endif  // GRAPHITE_SERVER_JOB_SCHEDULER_H_
