#include "exec/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace snp::exec {

namespace {

[[maybe_unused]] double seconds_since(
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

/// One parallel_for's shared state. Posted helpers co-own it, and `body`
/// points into the caller's frame: it is read only after claiming an
/// index, which a helper that starts after the call returned never does.
struct ForLoop {
  ForLoop(std::size_t count, const ThreadPool::ForBody& fn)
      : n(count), body(&fn) {}

  /// Claims and runs indices until none remain.
  void run(std::size_t slot) {
    std::size_t ran = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        break;
      }
      try {
        (*body)(slot, i);
      } catch (...) {
        const std::lock_guard lock(mu);
        if (!error) {
          error = std::current_exception();
        }
      }
      ++ran;
    }
    if (ran != 0 && done.fetch_add(ran, std::memory_order_acq_rel) + ran == n) {
      // Taking the lock orders this with finish()'s check, so the wakeup
      // cannot fall between its check and its wait.
      const std::lock_guard lock(mu);
      cv.notify_one();
    }
  }

  /// Waits for the indices other participants claimed, then rethrows the
  /// first error, which the loop gives up so a late helper cannot hold it.
  void finish() {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return done.load(std::memory_order_acquire) == n; });
    if (error) {
      std::rethrow_exception(std::exchange(error, nullptr));
    }
  }

  const std::size_t n;
  const ThreadPool::ForBody* body;
  std::atomic<std::size_t> next{0};  ///< next unclaimed index
  std::atomic<std::size_t> done{0};  ///< indices run to completion
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  ///< first body exception, guarded by mu
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  last_queue_change_ = std::chrono::steady_clock::now();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  SNP_OBS_GAUGE_ADD("exec.pool.workers", threads);
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
  SNP_OBS_GAUGE_SUB("exec.pool.workers", workers_.size());
}

std::size_t ThreadPool::hardware_threads() {
  cpu_set_t mask{};
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&mask)));
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool& host_pool() {
  static auto& pool = *new ThreadPool(ThreadPool::hardware_threads() - 1);
  return pool;
}

std::size_t ThreadPool::queue_depth() const {
  const std::lock_guard lock(mu_);
  return queue_.size();
}

std::size_t ThreadPool::active_workers() const {
  const std::lock_guard lock(mu_);
  return active_;
}

void ThreadPool::post(std::function<void()> task) {
  SNP_OBS_COUNT("exec.pool.tasks_posted", 1);
  if (workers_.empty()) {
    // Inline mode: the posting thread is the worker.
    SNP_OBS_COUNT("exec.pool.tasks_inline", 1);
    task();
    return;
  }
  QueuedTask item;
  item.fn = std::move(task);
  // Trace identity is part of the execution contract (request ids exist
  // even with telemetry compiled out); only the wait clock is obs-gated.
  item.trace = obs::current_trace();
  if constexpr (obs::kEnabled) {
    item.enqueued = std::chrono::steady_clock::now();
  }
  {
    const std::lock_guard lock(mu_);
    if constexpr (obs::kEnabled) {
      note_queue_transition(item.enqueued);
    }
    queue_.push_back(std::move(item));
    SNP_OBS_GAUGE_SET("exec.pool.queue_depth",
                      static_cast<std::int64_t>(queue_.size()));
  }
  cv_work_.notify_one();
}

void ThreadPool::parallel_for(std::size_t n, const ForBody& body) {
  const std::size_t helpers =
      n > 1 ? std::min(workers_.size(), n - 1) : std::size_t{0};
  if (helpers == 0) {
    ForLoop loop(n, body);
    loop.run(0);
    loop.finish();
    return;
  }
  const auto loop = std::make_shared<ForLoop>(n, body);
  for (std::size_t slot = 1; slot <= helpers; ++slot) {
    post([loop, slot] { loop->run(slot); });
  }
  loop->run(0);
  loop->finish();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    std::rethrow_exception(first_error_);
  }
}

std::size_t ThreadPool::failed_count() const {
  const std::lock_guard lock(mu_);
  return failed_;
}

void ThreadPool::clear_error() {
  const std::lock_guard lock(mu_);
  first_error_ = nullptr;
  failed_ = 0;
}

void ThreadPool::note_queue_transition(
    std::chrono::steady_clock::time_point now) {
  if (now < last_queue_change_) {
    return;  // a poster's pre-lock timestamp may race an earlier pop
  }
  depth_time_ns_ +=
      static_cast<std::uint64_t>(queue_.size()) *
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - last_queue_change_)
              .count());
  last_queue_change_ = now;
  SNP_OBS_GAUGE_SET("exec.pool.queue_depth_time_us",
                    depth_time_ns_ / 1000);
}

void ThreadPool::worker_loop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock lock(mu_);
      cv_work_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ set and the queue fully drained
      }
      if constexpr (obs::kEnabled) {
        note_queue_transition(std::chrono::steady_clock::now());
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      SNP_OBS_GAUGE_SET("exec.pool.queue_depth",
                        static_cast<std::int64_t>(queue_.size()));
      ++active_;
    }
    SNP_OBS_GAUGE_ADD("exec.pool.active_workers", 1);
    // A throwing task must not unwind the worker (std::thread would
    // terminate): capture the first exception for wait_idle() and keep
    // the pool serving — shutdown still drains every queued task.
    try {
      // Run under the poster's trace context: spans, flight events,
      // and fault records inside the task — and any tasks it posts in
      // turn — inherit the request identity.
      const obs::ScopedTraceContext trace_scope(task.trace);
      if constexpr (obs::kEnabled) {
        SNP_OBS_OBSERVE("exec.pool.task_wait_seconds",
                        seconds_since(task.enqueued));
        // maybe_unused: with SNPCMP_OBS=OFF the OBSERVE below is a no-op.
        [[maybe_unused]] const auto run0 = std::chrono::steady_clock::now();
        task.fn();
        SNP_OBS_OBSERVE("exec.pool.task_run_seconds", seconds_since(run0));
      } else {
        task.fn();
      }
    } catch (...) {
      SNP_OBS_COUNT("exec.pool.tasks_failed", 1);
      const std::lock_guard lock(mu_);
      ++failed_;
      if (!first_error_) {
        first_error_ = std::current_exception();
      }
    }
    SNP_OBS_COUNT("exec.pool.tasks_run", 1);
    SNP_OBS_GAUGE_SUB("exec.pool.active_workers", 1);
    // Drop the task's captures before reporting idle: a wait_idle() caller
    // may go on to release what they share.
    task.fn = nullptr;
    {
      const std::lock_guard lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) {
        cv_idle_.notify_all();
      }
    }
  }
}

}  // namespace snp::exec
