// snp::exec — the host's one thread runtime.
//
// A plain fixed-size worker pool over a FIFO work queue, with a
// parallel-for in which the caller works too. The host kernels' parallel
// loops (the engine's macro-tile grid, the sparse engines' rows, r^2's
// tile rows) run on one process-wide pool, host_pool(), the only pool
// src/ builds. Under src/ only parallel_for posts tasks, and nothing
// calls wait_idle() or reads the sticky first-error channel; tests and
// snpbench's hand-off replay still do.
//
// Threading contract: submission is thread-safe; tasks run exactly once;
// a pool constructed with 0 threads degenerates to inline execution on the
// submitting thread.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace snp::exec {

/// Fixed-size worker pool over a FIFO queue. Destruction drains: every task
/// posted before the destructor runs is executed before the workers join
/// (shutdown never drops queued work).
class ThreadPool {
 public:
  /// `threads == 0` runs every task inline on the posting thread.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// Tasks queued but not yet picked up by a worker. Instantaneous —
  /// meaningful as a backpressure signal, not a completion check (pair
  /// with active_workers() or wait_idle()). Feeds the
  /// "exec.pool.queue_depth" gauge.
  [[nodiscard]] std::size_t queue_depth() const;
  /// Workers currently executing a task (0 on an inline pool).
  [[nodiscard]] std::size_t active_workers() const;

  /// CPUs in the calling thread's affinity mask, so `taskset` and cpusets
  /// limit it; std::thread::hardware_concurrency() (floored at 1) if the
  /// mask cannot be read.
  [[nodiscard]] static std::size_t hardware_threads();

  /// Fire-and-forget. A throwing posted task no longer terminates the
  /// process: the first exception is captured and rethrown from the next
  /// wait_idle() (sticky until cleared), later ones are counted in
  /// failed_count(). On an inline (0-thread) pool the exception
  /// propagates directly to the poster.
  void post(std::function<void()> task);

  /// Loop body of parallel_for: (participant slot, index).
  using ForBody = std::function<void(std::size_t, std::size_t)>;

  /// Runs body(slot, i) once for every i in [0, n) and returns when all
  /// have run; the first exception a body threw is rethrown after the
  /// other indices finish. The caller claims indices itself beside at
  /// most min(thread_count(), n - 1) posted helpers, and with n <= 1 or
  /// no workers runs them all inline without touching the queue. It never
  /// waits on an index no thread has claimed, so calling it from a worker
  /// (of this pool or another) cannot deadlock, and a helper that starts
  /// after the call returned touches nothing of the caller's. `slot` is
  /// below thread_count() + 1 and names one participant for the whole
  /// call, so a body can keep per-participant scratch indexed by it.
  void parallel_for(std::size_t n, const ForBody& body);

  /// Blocks until the queue is empty and every worker is idle, then
  /// rethrows the first exception any posted task threw since the last
  /// clear_error() (the error is sticky: repeated calls keep throwing
  /// until cleared). Tasks posted concurrently with wait_idle() may or
  /// may not be covered; quiesce your producers first.
  void wait_idle();

  /// Tasks that threw since construction / the last clear_error().
  [[nodiscard]] std::size_t failed_count() const;
  /// Drops the captured first exception and resets failed_count().
  void clear_error();

 private:
  /// Queue entry: the task, its enqueue timestamp (feeds the
  /// "exec.pool.task_wait_seconds" histogram), and the poster's trace
  /// context, which the worker re-installs around the task body so
  /// request identity crosses the pool boundary (both only stamped in
  /// SNPCMP_OBS=ON builds; default-initialized otherwise).
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
    obs::TraceContext trace;
  };

  void worker_loop();
  /// Caller holds mu_. Accrues the queue-depth time integral up to `now`
  /// (before the queue mutates) and republishes the
  /// "exec.pool.queue_depth_time_us" gauge — the pool-side Little's-law
  /// anchor, mirroring the service queue's svc.queue.depth_time_us.
  void note_queue_transition(std::chrono::steady_clock::time_point now);

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   ///< workers wait here for tasks
  std::condition_variable cv_idle_;   ///< wait_idle() waits here
  std::deque<QueuedTask> queue_;
  std::vector<std::thread> workers_;
  std::size_t active_ = 0;  ///< tasks currently executing
  bool stop_ = false;
  std::exception_ptr first_error_;  ///< first pooled-task throw (sticky)
  std::size_t failed_ = 0;          ///< pooled tasks that threw
  /// Queue-depth time integral state (note_queue_transition).
  std::uint64_t depth_time_ns_ = 0;
  std::chrono::steady_clock::time_point last_queue_change_;
};

/// The process-wide pool the host kernels' parallel loops run on, built
/// on first use with hardware_threads() - 1 workers: the calling thread is
/// the last participant of each parallel_for. Never destroyed: a helper
/// may still run while the process exits, so its workers touch only
/// objects that are never destroyed either (the pool, the metrics
/// registry, the latency grid, thread-locals).
[[nodiscard]] ThreadPool& host_pool();

}  // namespace snp::exec
