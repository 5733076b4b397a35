#include "exec/thread_pool.h"

#include <algorithm>

namespace mpfdb::exec {

namespace {
// Set while this thread executes a task body, so nested ParallelFor calls
// degrade to inline serial execution instead of waiting on workers that are
// already busy running the outer job.
thread_local bool t_in_task = false;
}  // namespace

struct ThreadPool::Job {
  size_t num_tasks = 0;
  const std::function<Status(size_t)>* fn = nullptr;
  std::atomic<size_t> next_task{0};
  std::atomic<size_t> tasks_done{0};
  std::atomic<bool> failed{false};
  // Workers currently inside RunJob for this job; the coordinator only
  // destroys the job once this drops to zero.
  std::atomic<size_t> active_workers{0};

  // Lowest-indexed failure wins, so callers see a stable error when several
  // morsels fail together. Guarded by `error_mu`.
  std::mutex error_mu;
  size_t first_error_index = 0;
  Status first_error = Status::Ok();

  std::mutex done_mu;
  std::condition_variable done_cv;
};

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(std::max<size_t>(1, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (size_t i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  job_ready_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::RunJob(Job& job) {
  for (;;) {
    size_t i = job.next_task.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.num_tasks) break;
    // A claimed index is always counted as done, even when the job already
    // failed and the body is skipped, so completion accounting stays exact.
    if (!job.failed.load(std::memory_order_relaxed)) {
      t_in_task = true;
      Status s = (*job.fn)(i);
      t_in_task = false;
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(job.error_mu);
        if (job.first_error.ok() || i < job.first_error_index) {
          job.first_error = s;
          job.first_error_index = i;
        }
        job.failed.store(true, std::memory_order_relaxed);
      }
    }
    {
      std::lock_guard<std::mutex> lock(job.done_mu);
      job.tasks_done.fetch_add(1, std::memory_order_relaxed);
      job.done_cv.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Joining a job is only useful while it still has unclaimed tasks;
      // exhausted jobs stay on the list merely until their coordinator
      // retires them, and workers skip those instead of spinning.
      job_ready_.wait(lock, [this, &job] {
        if (shutdown_) return true;
        for (Job* j : jobs_) {
          if (j->next_task.load(std::memory_order_relaxed) < j->num_tasks) {
            job = j;
            return true;
          }
        }
        return false;
      });
      if (shutdown_) return;
      // Taking the pointer and registering as active happen under the same
      // lock the coordinator uses to retire the job, so a retired job can
      // never gain new workers.
      job->active_workers.fetch_add(1, std::memory_order_relaxed);
    }
    RunJob(*job);
    {
      std::lock_guard<std::mutex> lock(job->done_mu);
      job->active_workers.fetch_sub(1, std::memory_order_relaxed);
      job->done_cv.notify_all();
    }
  }
}

Status ThreadPool::ParallelFor(size_t num_tasks,
                               const std::function<Status(size_t)>& fn) {
  if (num_tasks == 0) return Status::Ok();
  if (num_threads_ == 1 || num_tasks == 1 || t_in_task) {
    // Inline serial execution: pool of one, a trivial job, or a nested call
    // from inside a task body (the workers are busy with the outer job).
    bool was_in_task = t_in_task;
    for (size_t i = 0; i < num_tasks; ++i) {
      t_in_task = true;
      Status s = fn(i);
      t_in_task = was_in_task;
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }

  Job job;
  job.num_tasks = num_tasks;
  job.fn = &fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(&job);
  }
  dispatched_jobs_.fetch_add(1, std::memory_order_relaxed);
  // The caller claims tasks too, so at most num_tasks - 1 workers can help.
  // Waking more would only have them find the job exhausted and sleep again.
  const size_t helpers = std::min(num_tasks - 1, workers_.size());
  for (size_t i = 0; i < helpers; ++i) job_ready_.notify_one();

  // The calling thread is a full participant in the claim loop.
  RunJob(job);

  // Stop new workers from joining, then wait for the ones already inside.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
      if (*it == &job) {
        jobs_.erase(it);
        break;
      }
    }
  }
  {
    std::unique_lock<std::mutex> lock(job.done_mu);
    job.done_cv.wait(lock, [&job] {
      return job.tasks_done.load(std::memory_order_relaxed) == job.num_tasks &&
             job.active_workers.load(std::memory_order_relaxed) == 0;
    });
  }

  std::lock_guard<std::mutex> lock(job.error_mu);
  return job.first_error;
}

}  // namespace mpfdb::exec
