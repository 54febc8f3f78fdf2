// snp::exec — host-side asynchronous execution engine.
//
// The paper's end-to-end numbers depend on overlapping chunk transfer with
// compute (Section VI-A); Beyer & Bientinesi's HDD->GPU streaming work and
// Samsi et al.'s GPU DNA-mixture pipeline both reach sustained throughput
// the same way: an asynchronous host pipeline keeps every engine busy.
// This module is the host's one thread runtime — a plain fixed-size worker
// pool with a FIFO work queue, futures for one-shot results, a
// parallel-for in which the caller works too, and a counting semaphore for
// bounded in-flight backpressure. TaskGraph (task_graph.hpp) layers
// dependency edges on top. The host kernels' parallel loops run on one
// process-wide pool, host_pool().
//
// Threading contract: submission is thread-safe; tasks run exactly once;
// a pool constructed with 0 threads degenerates to inline execution on the
// submitting thread (the serial path — used to make "async with 1-thread
// semantics" trivially deterministic and debuggable).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace snp::exec {

/// Counting semaphore used for bounded in-flight chunk scheduling (the
/// producer blocks in acquire() once `count` chunks are queued but not yet
/// drained). std::counting_semaphore exists, but this one is introspectable
/// (available()) and keeps the module self-contained.
class Semaphore {
 public:
  explicit Semaphore(std::size_t count) : count_(count) {}

  void acquire() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return count_ > 0; });
    --count_;
  }

  /// acquire() that gives up after `timeout`. Producers gating on tasks
  /// that release slots must use this and poll an abort condition (e.g.
  /// TaskGraph::failed()): a failed pipeline skips its remaining tasks,
  /// so the releases pending on them never happen and a plain acquire()
  /// would deadlock.
  [[nodiscard]] bool acquire_for(std::chrono::milliseconds timeout) {
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, timeout, [&] { return count_ > 0; })) {
      return false;
    }
    --count_;
    return true;
  }

  void release() {
    {
      const std::lock_guard lock(mu_);
      ++count_;
    }
    cv_.notify_one();
  }

  [[nodiscard]] std::size_t available() const {
    const std::lock_guard lock(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t count_;
};

/// Fixed-size worker pool over a FIFO queue. Destruction drains: every task
/// posted before the destructor runs is executed before the workers join
/// (shutdown never drops queued work — an async compare() that goes out of
/// scope mid-stream still delivers every chunk).
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
  /// propagates directly to the poster. Use submit() or TaskGraph when a
  /// per-task result/exception channel is needed.
  void post(std::function<void()> task);

  /// Schedules `fn` and returns a future carrying its result or exception.
  template <typename F>
  [[nodiscard]] auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    post([task]() { (*task)(); });
    return fut;
  }

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
