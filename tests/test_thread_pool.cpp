// Tests of the persistent worker pool: coverage (every index exactly
// once), worker identification, reuse across jobs, the inline size-1 path,
// exception propagation, and concurrent calls from several threads.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace {

using avglocal::support::ThreadPool;

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    const std::size_t count = 1000;
    std::vector<std::atomic<int>> hits(count);
    pool.for_range(count, 3, [&](std::size_t worker, std::size_t begin, std::size_t end) {
      EXPECT_LT(worker, pool.size());
      EXPECT_LT(begin, end);
      EXPECT_LE(end, count);
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads << " threads";
    }
  }
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  for (int job = 0; job < 20; ++job) {
    pool.for_range(100, 1, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) total.fetch_add(i);
    });
  }
  EXPECT_EQ(total.load(), 20u * (99u * 100u / 2));
}

TEST(ThreadPool, GrainLargerThanCountIsOneChunk) {
  ThreadPool pool(3);
  std::atomic<int> chunks{0};
  pool.for_range(5, 100, [&](std::size_t, std::size_t begin, std::size_t end) {
    chunks.fetch_add(1);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
  });
  EXPECT_EQ(chunks.load(), 1);
}

TEST(ThreadPool, EmptyRangeRunsNothing) {
  ThreadPool pool(2);
  bool ran = false;
  pool.for_range(0, 1, [&](std::size_t, std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesExceptionsFromWorkers) {
  for (const std::size_t threads : {1u, 3u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.for_range(64, 1,
                       [&](std::size_t, std::size_t begin, std::size_t) {
                         if (begin == 13) throw std::runtime_error("boom");
                       }),
        std::runtime_error);
    // The pool must survive a throwing job and accept the next one.
    std::atomic<int> done{0};
    pool.for_range(8, 1, [&](std::size_t, std::size_t, std::size_t) { done.fetch_add(1); });
    EXPECT_EQ(done.load(), 8);
  }
}

TEST(ThreadPool, DefaultSizeIsHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

// ---------------------------------------------------------------------
// Shutdown / task-handoff stress. These exist to give ThreadSanitizer (the
// tsan CI job builds this suite with -fsanitize=thread) a dense schedule
// to chew on: pool construction and destruction race worker wake-up, the
// destructor races the tail of the last job, and exception unwinding races
// the cursor drain. A clean run pins the pool's happens-before structure.
// ---------------------------------------------------------------------

TEST(ThreadPoolStress, ConstructionDestructionChurnUnderLoad) {
  // Spin pools up and down with real work in between: the destructor must
  // always observe fully parked helpers, never a worker still reading job
  // state. 60 pools x up to 4 helpers each.
  std::atomic<std::uint64_t> total{0};
  for (std::size_t round = 0; round < 60; ++round) {
    ThreadPool pool(1 + round % 4);
    pool.for_range(97, 5, [&](std::size_t, std::size_t begin, std::size_t end) {
      std::uint64_t local = 0;
      for (std::size_t i = begin; i < end; ++i) local += i;
      total.fetch_add(local, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 60u * (97u * 96u / 2));
}

TEST(ThreadPoolStress, ImmediateDestructionAfterConstruction) {
  // Destruction may run before a helper has even reached its first wait;
  // the stopping_ flag handshake must cover that window too.
  for (std::size_t round = 0; round < 200; ++round) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
  }
}

TEST(ThreadPoolStress, BackToBackJobsReuseHelpersSafely) {
  // Many tiny generations through one pool: each for_range hands the job
  // state to helpers afresh, and the previous job's teardown must be
  // complete before the next publishes new state.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> ticks{0};
  for (std::size_t job = 0; job < 500; ++job) {
    pool.for_range(8, 1, [&](std::size_t, std::size_t, std::size_t) {
      ticks.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(ticks.load(), 500u * 8u);
}

TEST(ThreadPoolStress, ExceptionUnwindingRacesAreClean) {
  // A throwing chunk drains the cursor while other workers are mid-chunk;
  // destruction immediately afterwards must still join cleanly.
  for (std::size_t round = 0; round < 40; ++round) {
    ThreadPool pool(3);
    EXPECT_THROW(pool.for_range(64, 1,
                                [&](std::size_t, std::size_t begin, std::size_t) {
                                  if (begin == 32) throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
  }
}

TEST(ThreadPool, NestedForRangeThrowsInsteadOfCorrupting) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.for_range(4, 1,
                     [&](std::size_t, std::size_t, std::size_t) {
                       pool.for_range(2, 1, [](std::size_t, std::size_t, std::size_t) {});
                     }),
      std::logic_error);
  // And the pool still works afterwards.
  std::atomic<int> done{0};
  pool.for_range(6, 1, [&](std::size_t, std::size_t, std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 6);
}

// ---------------------------------------------------------------------
// Concurrent calls: several threads share one pool, each call its own job.
// ---------------------------------------------------------------------

/// One job's checks: every index of [0, count) exactly once, every worker
/// index below size(), and never two chunks at once under one index.
struct JobProbe {
  JobProbe(std::size_t count, std::size_t workers) : hits(count), busy(workers) {}

  ThreadPool::RangeFn body(const ThreadPool& pool) {
    return [this, &pool](std::size_t worker, std::size_t begin, std::size_t end) {
      ASSERT_LT(worker, pool.size());
      EXPECT_EQ(busy[worker].fetch_add(1), 0) << "worker " << worker << " ran two chunks at once";
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      std::this_thread::yield();  // widen the window another chunk could overlap
      busy[worker].fetch_sub(1);
    };
  }

  bool covered_once() const {
    for (const std::atomic<int>& hit : hits) {
      if (hit.load() != 1) return false;
    }
    return true;
  }

  std::vector<std::atomic<int>> hits;
  std::vector<std::atomic<int>> busy;
};

/// Runs caller(c) on `callers` threads released together.
template <class Caller>
void run_callers(std::size_t callers, const Caller& caller) {
  std::latch start(static_cast<std::ptrdiff_t>(callers));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      start.arrive_and_wait();
      caller(c);
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(ThreadPool, ConcurrentJobsFromManyThreadsEachCoverTheirRange) {
  ThreadPool pool(4);
  std::atomic<std::size_t> failures{0};
  run_callers(4, [&](std::size_t c) {
    for (std::size_t job = 0; job < 200; ++job) {
      const std::size_t count = 17 + (job * 7 + c * 13) % 90;
      JobProbe probe(count, pool.size());
      pool.for_range(count, 1 + job % 4, probe.body(pool));
      if (!probe.covered_once()) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0u);
}

TEST(ThreadPool, ThrowingJobDoesNotLeakIntoAConcurrentJob) {
  ThreadPool pool(3);
  for (std::size_t round = 0; round < 50; ++round) {
    std::atomic<int> thrown{0};
    std::atomic<int> completed{0};
    run_callers(2, [&](std::size_t c) {
      if (c == 0) {
        try {
          pool.for_range(64, 1, [](std::size_t, std::size_t begin, std::size_t) {
            if (begin == 20) throw std::runtime_error("boom");
            std::this_thread::yield();
          });
        } catch (const std::runtime_error&) {
          thrown.fetch_add(1);
        }
      } else {
        JobProbe probe(64, pool.size());
        try {
          pool.for_range(64, 1, probe.body(pool));
          if (probe.covered_once()) completed.fetch_add(1);
        } catch (...) {
          ADD_FAILURE() << "an exception leaked into the concurrent job";
        }
      }
    });
    EXPECT_EQ(thrown.load(), 1) << "round " << round;
    EXPECT_EQ(completed.load(), 1) << "round " << round;
  }
}

TEST(ThreadPool, SizeOnePoolRunsConcurrentCallsInline) {
  ThreadPool pool(1);
  std::atomic<std::size_t> failures{0};
  run_callers(4, [&](std::size_t c) {
    for (std::size_t job = 0; job < 50; ++job) {
      JobProbe probe(40 + c, 1);
      pool.for_range(40 + c, 3, probe.body(pool));
      if (!probe.covered_once()) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0u);
}

}  // namespace
