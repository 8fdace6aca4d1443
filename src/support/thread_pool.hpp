// A persistent worker pool for data-parallel loops.
//
// Threads are created once (per pool) and reused across any number of
// for_range calls, so callers can hoist thread creation out of hot loops -
// e.g. one pool per sweep instead of one thread spawn per sweep point. Each
// call publishes a job with its own atomic cursor; the calling thread runs
// its job as worker 0 and idle helpers take chunks from the oldest job that
// still has some, so several threads can share one pool. A pool of size 1
// runs every call inline on its caller.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace avglocal::support {

class ThreadPool {
 public:
  /// Worker body for one chunk: fn(worker, begin, end) with 0 <= worker <
  /// size() identifying the executing worker (stable across chunks of one
  /// for_range call - usable to index per-worker scratch state).
  using RangeFn = std::function<void(std::size_t worker, std::size_t begin, std::size_t end)>;

  /// threads == 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// Number of workers, including the calling thread.
  std::size_t size() const noexcept { return worker_count_; }

  /// Runs fn over [0, count) in chunks of `grain`, blocking until done.
  /// Chunk order across workers is unspecified; callers needing determinism
  /// must write to disjoint, index-addressed outputs. The first exception
  /// thrown by fn is rethrown here (remaining chunks may be skipped) and
  /// reaches no other call.
  /// Concurrent calls from different threads are allowed: each is its own
  /// job, and the worker-index guarantee holds per call (no two chunks of
  /// one call run at once under one index). A call from inside fn on the
  /// same pool (nested) throws std::logic_error.
  void for_range(std::size_t count, std::size_t grain, const RangeFn& fn);

 private:
  struct Job;

  void worker_loop(std::size_t worker);
  void run_chunks(Job& job, std::size_t worker);
  /// The oldest published job with chunks left, or null. Needs mutex_.
  Job* open_job() const;

  std::size_t worker_count_;
  std::vector<std::thread> threads_;  // worker_count_ - 1 helpers

  std::mutex mutex_;
  std::condition_variable wake_cv_;  // helpers wait for an open job
  std::condition_variable done_cv_;  // callers wait for their job's helpers
  std::vector<Job*> jobs_;           // published jobs, oldest first
  bool stopping_ = false;
};

}  // namespace avglocal::support
