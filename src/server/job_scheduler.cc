#include "server/job_scheduler.h"

#include <algorithm>
#include <optional>

#include "util/timer.h"

namespace graphite {

JobScheduler::JobScheduler(QueryService* service, SchedulerOptions options)
    : service_(service), options_(options) {
  workers_.reserve(static_cast<size_t>(std::max(options_.num_threads, 0)));
  for (int i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

JobScheduler::~JobScheduler() { Stop(); }

Status JobScheduler::Submit(QueryRequest req,
                            std::function<void(std::string)> done) {
  if (!QueryService::IsDataOp(req.op)) {
    return Status::InvalidArgument("not a data op: " + req.op);
  }
  // The graph is pinned here, at admission: a queued job answers from the
  // version resident when its request arrived, whatever lands meanwhile.
  // A missing graph and a cache hit are answered inline on the submitting
  // thread, with no queue and no supersteps. Registry and cache are
  // thread-safe.
  auto entry = service_->Resident(req);
  std::optional<std::string> reply =
      entry.ok() ? service_->TryServeFromCache(req, **entry)
                 : QueryService::ErrorResponse(req.id, req.op, entry.status());
  if (reply) {
    {
      MutexLock lock(mu_);
      if (stopping_) {
        return Status::OutOfRange("scheduler stopped");
      }
      ++submitted_;
      if (entry.ok()) ++fastpath_hits_;
    }
    done(*std::move(reply));
    return Status::OK();
  }
  {
    MutexLock lock(mu_);
    if (stopping_) {
      return Status::OutOfRange("scheduler stopped");
    }
    if (queue_.size() >= options_.max_queue) {
      ++rejected_;
      return Status::OutOfRange(
          "admission queue full (" + std::to_string(queue_.size()) +
          " queued)");
    }
    ++submitted_;
    queue_.push_back(Job{std::move(req), *std::move(entry), std::move(done),
                         NowNanos()});
  }
  work_cv_.NotifyOne();
  return Status::OK();
}

bool JobScheduler::PickRunnable(Job* out) {
  if (queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  ++running_;
  return true;
}

void JobScheduler::RunJob(Job job) {
  const int64_t queue_wait_ns = NowNanos() - job.enqueued_ns;
  ExecStats stats;
  std::string response =
      service_->ExecuteOn(job.req, *job.entry, queue_wait_ns, &stats);
  job.done(std::move(response));
  // Counters must land in the same critical section that wakes Drain():
  // a stats() read right after Drain() returns has to see every
  // completed job accounted for.
  {
    MutexLock lock(mu_);
    --running_;
    ++completed_;
    queue_wait_ns_ += queue_wait_ns;
    run_ns_ += stats.run_ns;
    supersteps_ += stats.supersteps;
  }
  drain_cv_.NotifyAll();
}

void JobScheduler::WorkerLoop() {
  for (;;) {
    Job job;
    {
      MutexLock lock(mu_);
      while (!stopping_ && !PickRunnable(&job)) work_cv_.Wait(mu_);
      if (stopping_) return;
    }
    RunJob(std::move(job));
  }
}

void JobScheduler::Drain() {
  MutexLock lock(mu_);
  while (!queue_.empty() || running_ != 0) drain_cv_.Wait(mu_);
}

void JobScheduler::Stop() {
  std::deque<Job> abandoned;
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    abandoned.swap(queue_);
  }
  work_cv_.NotifyAll();
  for (Job& job : abandoned) {
    job.done(QueryService::ErrorResponse(
        job.req.id, job.req.op,
        Status::OutOfRange("server shutting down")));
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  drain_cv_.NotifyAll();
}

bool JobScheduler::RunOneForTest() {
  Job job;
  {
    MutexLock lock(mu_);
    if (!PickRunnable(&job)) return false;
  }
  RunJob(std::move(job));
  return true;
}

SchedulerStats JobScheduler::stats() const {
  MutexLock lock(mu_);
  SchedulerStats s;
  s.submitted = submitted_;
  s.rejected = rejected_;
  s.completed = completed_;
  s.fastpath_hits = fastpath_hits_;
  s.queue_wait_ns = queue_wait_ns_;
  s.run_ns = run_ns_;
  s.supersteps = supersteps_;
  s.queued = queue_.size();
  s.running = running_;
  return s;
}

}  // namespace graphite
