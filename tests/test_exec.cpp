// Unit tests for snp::exec — the host-side thread pool and its
// parallel-for.
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace snp::exec {
namespace {

using namespace std::chrono_literals;

TEST(ThreadPool, ZeroThreadsRunsInlineOnThePostingThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  bool ran = false;
  pool.post([&] {
    ran_on = std::this_thread::get_id();
    ran = true;
  });
  // Inline mode: the task has already run by the time post() returns.
  EXPECT_TRUE(ran);
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, DestructionDrainsEveryQueuedTask) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.post([&ran] {
        std::this_thread::sleep_for(100us);
        ran.fetch_add(1);
      });
    }
    // Destructor must execute all 64, not drop the still-queued tail.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, WaitIdleObservesAllPostedWork) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.post([&ran] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, PostedTaskExceptionPropagatesToWaitIdle) {
  // Regression: a throwing post()ed task used to escape the worker loop
  // (std::terminate). The first exception must be captured and rethrown
  // from the next wait_idle(); later tasks keep running.
  ThreadPool pool(2);
  pool.post([] { throw std::runtime_error("task boom"); });
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.post([&ran] { ++ran; });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(pool.failed_count(), 1u);
  // Sticky until cleared, so callers that wait in several places cannot
  // miss it; clear_error() re-arms the pool for reuse.
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  pool.clear_error();
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(pool.failed_count(), 0u);
  // A task posted after the clear runs, and nothing is rethrown.
  pool.post([&ran] { ++ran; });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(ran.load(), 9);
  EXPECT_EQ(pool.failed_count(), 0u);
}

TEST(ThreadPool, OnlyTheFirstExceptionIsRethrown) {
  ThreadPool pool(1);  // single worker => deterministic failure order
  pool.post([] { throw std::runtime_error("first"); });
  pool.post([] { throw std::runtime_error("second"); });
  try {
    pool.wait_idle();
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_EQ(pool.failed_count(), 2u);
}

TEST(ThreadPool, InlineModePropagatesDirectlyFromPost) {
  ThreadPool pool(0);
  EXPECT_THROW(pool.post([] { throw std::runtime_error("inline"); }),
               std::runtime_error);
  EXPECT_NO_THROW(pool.wait_idle());  // nothing captured: it unwound
}

TEST(ThreadPool, DestructorDrainsCleanlyPastFailingTasks) {
  // Shutdown with a queue full of throwing tasks must drain and join
  // without terminating the process.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.post([&ran, i] {
        ++ran;
        if (i % 2 == 0) {
          throw std::runtime_error("flaky shutdown task");
        }
      });
    }
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, HardwareThreadsCountsTheAffinityMask) {
  // Under `taskset -c 0` hardware_concurrency() still counts every CPU of
  // the host; the pool must size itself from the CPUs it may run on.
  cpu_set_t saved{};
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  std::size_t cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) {
    ++cpu;
  }
  cpu_set_t one{};
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t pinned = ThreadPool::hardware_threads();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(ThreadPool::hardware_threads(),
            static_cast<std::size_t>(CPU_COUNT(&saved)));
}

TEST(ThreadPool, WorkersGaugeCountsLiveWorkersOverAllPools) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "telemetry compiled out (SNPCMP_OBS=OFF)";
  }
  const obs::Gauge& workers =
      obs::MetricsRegistry::global().gauge("exec.pool.workers");
  const std::int64_t before = workers.value();
  {
    const ThreadPool two(2);
    const ThreadPool three(3);
    EXPECT_EQ(workers.value(), before + 5);
  }
  EXPECT_EQ(workers.value(), before);
}

TEST(ThreadPool, QueueDepthAndActiveWorkersTrackHeldWork) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.active_workers(), 0u);
  std::promise<void> started;
  std::promise<void> release;
  auto worker_busy = started.get_future();
  pool.post([&started, held = release.get_future().share()] {
    started.set_value();
    held.wait();
  });
  worker_busy.wait();
  std::atomic<int> ran{0};
  pool.post([&ran] { ran.fetch_add(1); });
  pool.post([&ran] { ran.fetch_add(1); });
  // The only worker holds the first task; the other two wait in line.
  EXPECT_EQ(pool.active_workers(), 1u);
  EXPECT_EQ(pool.queue_depth(), 2u);
  release.set_value();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.active_workers(), 0u);
}

TEST(HostPool, OneProcessWidePoolLeavesTheCallerASlot) {
  // Every caller gets the same pool, from any thread, with one worker
  // fewer than the CPUs it may run on: the caller is the last
  // participant of each parallel_for.
  ThreadPool& pool = host_pool();
  ThreadPool* from_other_thread = nullptr;
  std::thread([&from_other_thread] { from_other_thread = &host_pool(); })
      .join();
  EXPECT_EQ(from_other_thread, &pool);
  EXPECT_EQ(&host_pool(), &pool);
  const std::size_t cpus = ThreadPool::hardware_threads();
  EXPECT_EQ(pool.thread_count(), cpus - 1);
  std::vector<std::atomic<int>> runs(100);
  pool.parallel_for(runs.size(), [&](std::size_t slot, std::size_t i) {
    EXPECT_LT(slot, cpus);
    runs[i].fetch_add(1);
  });
  for (const auto& r : runs) {
    EXPECT_EQ(r.load(), 1);
  }
}

TEST(ParallelFor, RunsInlineWithoutWorkersOrForOneIndex) {
  const auto caller = std::this_thread::get_id();
  // No workers: every index runs on the calling thread, in order.
  ThreadPool none(0);
  std::vector<std::size_t> order;
  bool off_caller = false;
  none.parallel_for(5, [&](std::size_t slot, std::size_t i) {
    off_caller |= std::this_thread::get_id() != caller;
    EXPECT_EQ(slot, 0u);
    order.push_back(i);
  });
  EXPECT_FALSE(off_caller);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  // One index on a pool whose workers are all held: it runs on the
  // caller and posts no helper, so the queue stays empty.
  ThreadPool busy(2);
  std::promise<void> release;
  const auto held = release.get_future().share();
  std::atomic<int> started{0};
  for (int w = 0; w < 2; ++w) {
    busy.post([&started, held] {
      started.fetch_add(1);
      held.wait();
    });
  }
  while (started.load() < 2) {
    std::this_thread::sleep_for(100us);
  }
  std::thread::id ran_on;
  busy.parallel_for(1, [&ran_on](std::size_t, std::size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
  EXPECT_EQ(busy.queue_depth(), 0u) << "a helper was posted for one index";
  release.set_value();
  busy.wait_idle();
}

TEST(ParallelFor, EachSlotBelongsToOneThreadForTheWholeCall) {
  // A body may keep per-participant scratch indexed by slot, so no two
  // threads may ever share a slot within one call.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::vector<std::thread::id> owner(threads + 1);  // id{} = unclaimed
    int shared_slots = 0;
    pool.parallel_for(2000, [&](std::size_t slot, std::size_t) {
      ASSERT_LE(slot, threads);
      const std::lock_guard<std::mutex> lock(mu);
      const auto me = std::this_thread::get_id();
      if (owner[slot] == std::thread::id{}) {
        owner[slot] = me;
      } else if (owner[slot] != me) {
        ++shared_slots;
      }
    });
    EXPECT_EQ(shared_slots, 0) << threads << " workers";
  }
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, std::size_t{8}}) {
    ThreadPool pool(threads);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{2}, std::size_t{17},
                                std::size_t{1000}}) {
      std::vector<std::atomic<int>> runs(n);
      std::atomic<bool> slot_in_range{true};
      pool.parallel_for(n, [&](std::size_t slot, std::size_t i) {
        if (slot > threads) {
          slot_in_range = false;
        }
        runs[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(runs[i].load(), 1)
            << "index " << i << " of " << n << " on " << threads
            << " workers";
      }
      EXPECT_TRUE(slot_in_range) << n << " on " << threads << " workers";
    }
  }
}

TEST(ParallelFor, NestedLoopOnAOneWorkerPoolCompletes) {
  // The inner loop's helper queues behind the outer one on the only
  // worker; the inner caller must finish its indices itself.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  pool.parallel_for(4, [&](std::size_t, std::size_t) {
    pool.parallel_for(8, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
  });
  EXPECT_EQ(ran.load(), 32);
}

TEST(ParallelFor, RethrowsTheFirstExceptionAfterEveryIndexRan) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{3}}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    const auto throwing = [&](std::size_t, std::size_t i) {
      ran.fetch_add(1);
      if (i % 10 == 3) {
        throw std::runtime_error("body boom");
      }
    };
    EXPECT_THROW(pool.parallel_for(64, throwing), std::runtime_error);
    EXPECT_EQ(ran.load(), 64) << threads << " workers";
    // The pool serves the next call normally.
    std::atomic<int> again{0};
    pool.parallel_for(64,
                      [&](std::size_t, std::size_t) { again.fetch_add(1); });
    EXPECT_EQ(again.load(), 64) << threads << " workers";
  }
}

TEST(ParallelFor, HelperStartingAfterTheCallReadsNoFreedMemory) {
  // The only worker is held, so the caller runs every index and returns
  // while its helper is still queued; the body is freed before the helper
  // runs, so a helper that touched it fails under ASan.
  ThreadPool pool(1);
  std::promise<void> started;
  std::promise<void> release;
  auto worker_busy = started.get_future();
  pool.post([&started, held = release.get_future().share()] {
    started.set_value();
    held.wait();
  });
  worker_busy.wait();
  std::atomic<int> ran{0};
  auto body = std::make_unique<ThreadPool::ForBody>(
      [&ran](std::size_t, std::size_t) { ran.fetch_add(1); });
  pool.parallel_for(16, *body);
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(pool.queue_depth(), 1u) << "the helper should still be queued";
  body.reset();
  release.set_value();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 16);
}

}  // namespace
}  // namespace snp::exec
