#ifndef MPFDB_EXEC_THREAD_POOL_H_
#define MPFDB_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace mpfdb::exec {

// Work-stealing pool for intra-query morsel parallelism. The pool owns
// num_threads - 1 worker threads; the thread that calls ParallelFor is the
// remaining worker, so a pool of size 1 spawns nothing and runs everything
// inline. Tasks within one ParallelFor are claimed from a shared atomic
// cursor, which is the stealing mechanism: a worker that finishes its task
// immediately claims the next unclaimed index, so skew in per-morsel cost
// balances out without any static assignment.
//
// Determinism contract: task indices carry the semantics (a morsel's range,
// a partition's id), never the executing thread, so callers get identical
// results regardless of which worker ran what. Error reporting follows the
// same rule: when several tasks fail, ParallelFor returns the failure with
// the lowest task index, not the first to be observed.
//
// Concurrent queries share one pool: any number of threads may call
// ParallelFor at the same time. Each call posts its own job onto a shared
// list; idle workers pick any job that still has unclaimed tasks, and every
// coordinator drives its own job inline, so a call always makes progress
// even when all workers are busy with other queries' jobs (no cross-query
// deadlock, merely less speedup under contention).
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  // Number of ParallelFor calls that posted a job to the workers, i.e. did
  // not run inline. Lets tests prove a parallel path really went parallel.
  uint64_t dispatched_jobs() const {
    return dispatched_jobs_.load(std::memory_order_relaxed);
  }

  // Runs fn(i) for every i in [0, num_tasks). The calling thread
  // participates; the call returns only after every claimed task finished.
  // Once any task fails, unclaimed tasks are abandoned (their fn never
  // runs); the returned Status is the lowest-indexed failure. Nested calls
  // from inside a task run inline on the calling worker, so task bodies may
  // themselves use ParallelFor without deadlocking the pool.
  Status ParallelFor(size_t num_tasks, const std::function<Status(size_t)>& fn);

 private:
  struct Job;

  void WorkerLoop();
  static void RunJob(Job& job);

  size_t num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable job_ready_;
  std::deque<Job*> jobs_;  // guarded by mu_; every entry has unretired tasks
  bool shutdown_ = false;  // guarded by mu_
  std::atomic<uint64_t> dispatched_jobs_{0};
};

}  // namespace mpfdb::exec

#endif  // MPFDB_EXEC_THREAD_POOL_H_
