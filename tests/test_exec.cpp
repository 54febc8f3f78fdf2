// Unit tests for snp::exec — the host-side thread pool, semaphore, and
// dependency-ordered task graph behind the asynchronous chunk pipeline.
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/task_graph.hpp"
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

TEST(ThreadPool, SubmitCarriesResultsAndExceptions) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{3}}) {
    ThreadPool pool(threads);
    auto ok = pool.submit([] { return 6 * 7; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("task boom"); });
    EXPECT_EQ(ok.get(), 42);
    EXPECT_THROW(bad.get(), std::runtime_error);
  }
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

TEST(Semaphore, BlocksAtZeroUntilReleased) {
  Semaphore sem(2);
  sem.acquire();
  sem.acquire();
  EXPECT_EQ(sem.available(), 0u);

  std::atomic<bool> acquired{false};
  std::thread blocked([&] {
    sem.acquire();  // must block until the release below
    acquired.store(true);
  });
  std::this_thread::sleep_for(2ms);
  EXPECT_FALSE(acquired.load());
  sem.release();
  blocked.join();
  EXPECT_TRUE(acquired.load());
}

TEST(TaskGraph, RespectsDependencyOrder) {
  ThreadPool pool(4);
  TaskGraph graph(pool);
  std::mutex mu;
  std::vector<int> order;
  const auto record = [&](int tag) {
    return [&order, &mu, tag] {
      const std::lock_guard<std::mutex> lock(mu);
      order.push_back(tag);
    };
  };
  // Diamond: 0 -> {1, 2} -> 3.
  const auto t0 = graph.add(record(0));
  const auto t1 = graph.add(record(1), {t0});
  const auto t2 = graph.add(record(2), {t0});
  graph.add(record(3), {t1, t2});
  graph.wait();

  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 0);
  EXPECT_EQ(order.back(), 3);
  EXPECT_EQ(graph.completed(), 4u);
}

TEST(TaskGraph, DrainChainDeliversInOrderUnderParallelism) {
  // The async compare() idiom: exec tasks run in any order, but drain i
  // depends on {exec i, drain i-1} and so fires strictly in stream order.
  ThreadPool pool(4);
  TaskGraph graph(pool);
  constexpr std::size_t kChunks = 48;
  std::vector<std::size_t> delivered;
  std::mutex mu;
  TaskGraph::TaskId prev_drain = 0;
  for (std::size_t i = 0; i < kChunks; ++i) {
    const auto exec_id = graph.add([i] {
      if (i % 3 == 0) {
        std::this_thread::sleep_for(200us);  // jitter the exec order
      }
    });
    std::vector<TaskGraph::TaskId> deps{exec_id};
    if (i > 0) {
      deps.push_back(prev_drain);
    }
    prev_drain = graph.add(
        [&delivered, &mu, i] {
          const std::lock_guard<std::mutex> lock(mu);
          delivered.push_back(i);
        },
        deps);
  }
  graph.wait();

  std::vector<std::size_t> expected(kChunks);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(delivered, expected);
}

TEST(TaskGraph, FirstExceptionPropagatesAndDependentsAreSkipped) {
  ThreadPool pool(2);
  TaskGraph graph(pool);
  std::atomic<int> ran{0};
  const auto boom = graph.add([] {
    throw std::runtime_error("chunk 2 failed");
  });
  const auto child = graph.add([&ran] { ran.fetch_add(1); }, {boom});
  graph.add([&ran] { ran.fetch_add(1); }, {child});  // transitive skip
  graph.add([&ran] { ran.fetch_add(1); });           // independent: runs
  EXPECT_THROW(graph.wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(graph.completed(), 1u);
  EXPECT_EQ(graph.skipped(), 2u);
  // wait() after failure stays terminal and keeps rethrowing.
  EXPECT_THROW(graph.wait(), std::runtime_error);
}

TEST(TaskGraph, AddingToAFailedDependencySkipsImmediately) {
  ThreadPool pool(1);
  TaskGraph graph(pool);
  const auto boom = graph.add([] { throw std::logic_error("early"); });
  EXPECT_THROW(graph.wait(), std::logic_error);
  bool ran = false;
  graph.add([&ran] { ran = true; }, {boom});  // dep already failed
  EXPECT_THROW(graph.wait(), std::logic_error);
  EXPECT_FALSE(ran);
  EXPECT_EQ(graph.skipped(), 1u);
}

TEST(TaskGraph, SemaphoreBoundsTasksInFlight) {
  // The producer-side backpressure pattern from compare(): acquire a slot
  // before adding a chunk, release it from the chunk's final task. At most
  // `kSlots` chunks may ever be between acquire and release.
  constexpr std::size_t kSlots = 3;
  constexpr std::size_t kChunks = 40;
  ThreadPool pool(4);
  TaskGraph graph(pool);
  Semaphore slots(kSlots);
  std::atomic<std::size_t> in_flight{0};
  std::atomic<std::size_t> peak{0};
  for (std::size_t i = 0; i < kChunks; ++i) {
    slots.acquire();
    const std::size_t now = in_flight.fetch_add(1) + 1;
    std::size_t seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    graph.add([&] {
      std::this_thread::sleep_for(100us);
      in_flight.fetch_sub(1);
      slots.release();
    });
  }
  graph.wait();
  EXPECT_EQ(in_flight.load(), 0u);
  EXPECT_LE(peak.load(), kSlots);
  EXPECT_GE(peak.load(), 1u);
}

TEST(TaskGraph, DestructorQuiescesWithQueuedWork) {
  std::atomic<int> ran{0};
  ThreadPool pool(2);
  {
    TaskGraph graph(pool);
    TaskGraph::TaskId prev = 0;
    for (int i = 0; i < 32; ++i) {
      std::vector<TaskGraph::TaskId> deps;
      if (i > 0) {
        deps.push_back(prev);
      }
      prev = graph.add(
          [&ran] {
            std::this_thread::sleep_for(100us);
            ran.fetch_add(1);
          },
          deps);
    }
    // No wait(): the destructor must block until the chain finishes.
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(TaskGraph, StressHundredsOfTinyTasksWithRandomDeps) {
  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    ThreadPool pool(threads);
    TaskGraph graph(pool);
    constexpr std::size_t kTasks = 600;
    std::atomic<std::size_t> ran{0};
    std::vector<TaskGraph::TaskId> ids;
    ids.reserve(kTasks);
    std::uint64_t rng = 12345;
    for (std::size_t i = 0; i < kTasks; ++i) {
      std::vector<TaskGraph::TaskId> deps;
      if (!ids.empty()) {
        // Up to two pseudo-random earlier tasks as dependencies.
        for (int d = 0; d < 2; ++d) {
          rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
          if (rng % 3 != 0) {
            deps.push_back(ids[(rng >> 33) % ids.size()]);
          }
        }
      }
      ids.push_back(graph.add([&ran] { ran.fetch_add(1); }, deps));
    }
    graph.wait();
    EXPECT_EQ(ran.load(), kTasks) << threads << " threads";
    EXPECT_EQ(graph.added(), kTasks);
    EXPECT_EQ(graph.completed(), kTasks);
    EXPECT_EQ(graph.skipped(), 0u);
  }
}

}  // namespace
}  // namespace snp::exec
