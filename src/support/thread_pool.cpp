#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "support/assert.hpp"

namespace avglocal::support {

/// One for_range call, on its caller's stack until every helper inside it
/// has left.
struct ThreadPool::Job {
  Job(const RangeFn& body, std::size_t total, std::size_t chunk)
      : fn(body), count(total), grain(chunk) {}

  bool has_chunks() const { return cursor.load(std::memory_order_relaxed) < count; }

  const RangeFn& fn;
  const std::size_t count;
  const std::size_t grain;
  std::atomic<std::size_t> cursor{0};
  std::size_t helpers = 0;   // helpers inside run_chunks; guarded by mutex_
  std::exception_ptr error;  // first failure; guarded by mutex_
};

namespace {

/// The pools whose chunks this thread is running, innermost first: a
/// for_range on any of them from here would be nested.
struct ChunkFrame {
  const ThreadPool* pool;
  const ChunkFrame* outer;
};
thread_local const ChunkFrame* t_running = nullptr;

bool running_chunk_of(const ThreadPool* pool) {
  for (const ChunkFrame* frame = t_running; frame != nullptr; frame = frame->outer) {
    if (frame->pool == pool) return true;
  }
  return false;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : worker_count_(threads != 0 ? threads
                                 : std::max<std::size_t>(1, std::thread::hardware_concurrency())) {
  threads_.reserve(worker_count_ - 1);
  try {
    for (std::size_t w = 1; w < worker_count_; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  } catch (...) {
    // Thread creation failed partway (resource exhaustion): shut down the
    // workers that did start, or their joinable destructors would terminate.
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool::Job* ThreadPool::open_job() const {
  for (Job* job : jobs_) {
    if (job->has_chunks()) return job;
  }
  return nullptr;
}

void ThreadPool::run_chunks(Job& job, std::size_t worker) {
  const ChunkFrame frame{this, t_running};
  t_running = &frame;
  try {
    std::size_t begin;
    while ((begin = job.cursor.fetch_add(job.grain, std::memory_order_relaxed)) < job.count) {
      job.fn(worker, begin, std::min(begin + job.grain, job.count));
    }
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!job.error) job.error = std::current_exception();
    // Drain the remaining chunks so other workers stop quickly.
    job.cursor.store(job.count, std::memory_order_relaxed);
  }
  t_running = frame.outer;
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    Job* job = nullptr;
    wake_cv_.wait(lock, [&] { return stopping_ || (job = open_job()) != nullptr; });
    if (stopping_) return;
    ++job->helpers;
    lock.unlock();
    run_chunks(*job, worker);
    lock.lock();
    if (--job->helpers == 0) done_cv_.notify_all();
  }
}

void ThreadPool::for_range(std::size_t count, std::size_t grain, const RangeFn& fn) {
  AVGLOCAL_EXPECTS_MSG(grain >= 1, "for_range: grain must be positive");
  if (count == 0) return;
  // A nested call's worker indices would alias those of the enclosing call,
  // whose chunk is still running on this thread, so it fails loudly instead.
  AVGLOCAL_REQUIRE_MSG(!running_chunk_of(this),
                       "for_range: nested call from inside a chunk of the same pool");
  Job job(fn, count, grain);
  if (worker_count_ == 1) {
    // Inline fast path: no helpers, nothing published.
    run_chunks(job, 0);
  } else {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      jobs_.push_back(&job);
    }
    wake_cv_.notify_all();
    run_chunks(job, 0);
    // The cursor is exhausted, so no helper joins from here on; wait only
    // for the ones already inside.
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return job.helpers == 0; });
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace avglocal::support
