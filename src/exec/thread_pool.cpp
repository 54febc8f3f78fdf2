#include "exec/thread_pool.hpp"

#include <algorithm>

namespace snp::exec {

namespace {

[[maybe_unused]] double seconds_since(
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  last_queue_change_ = std::chrono::steady_clock::now();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  SNP_OBS_GAUGE_SET("exec.pool.workers", threads);
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
}

std::size_t ThreadPool::hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
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
      // turn (TaskGraph successors) — inherit the request identity.
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
