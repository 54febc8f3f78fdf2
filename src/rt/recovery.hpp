// snp::rt — recovery policy: bounded retry, deadlines, and the
// failover/degrade ladder.
//
// The policy ladder (docs/robustness.md):
//   abort    — propagate the first failure unchanged; no second chances.
//   retry    — each faulting operation is re-attempted up to
//              max_attempts times with deterministic exponential
//              backoff; exhaustion propagates kExhausted.
//   failover — retry first; a shard whose device stays dead has its
//              rows redistributed across surviving devices
//              (multi::MultiGpuContext); with no survivors, fall
//              through to the CPU rung.
//   degrade  — retry first; if the device pipeline still cannot finish,
//              the remaining rows are recomputed on the host
//              (cpu::compare) and the report is flagged
//              `degraded` — slower, never wrong, never silent.
//
// Everything here is deterministic: backoff is a pure function of the
// attempt number, and FaultEvents are logged in completion order under a
// lock so soak tests can assert exact recovery behaviour across 100
// seeds.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/trace_context.hpp"
#include "rt/fault.hpp"
#include "rt/status.hpp"

namespace snp::rt {

enum class FailPolicy : std::uint8_t {
  kAbort = 0,
  kRetry,
  kFailover,
  kDegrade,
};

[[nodiscard]] std::string_view to_string(FailPolicy policy);
/// Parses "abort|retry|failover|degrade"; nullopt on anything else.
[[nodiscard]] std::optional<FailPolicy> parse_fail_policy(
    std::string_view text);

/// Token bucket bounding the *total* retry volume shared by a request
/// class, so correlated faults fast-fail to the next recovery rung
/// instead of multiplying attempts across concurrent requests (the
/// retry-storm failure mode from "The Tail at Scale"). Deterministic by
/// construction: the bucket refills a fixed fraction of a token per
/// *successful* operation — refill is driven by operation ordinals,
/// never wall-clock — so seeded soaks replay bit-identically.
class RetryBudget {
 public:
  explicit RetryBudget(double capacity, double refill_per_success = 0.1)
      : capacity_(std::max(0.0, capacity)),
        refill_(std::max(0.0, refill_per_success)),
        tokens_(std::max(0.0, capacity)) {}

  /// Consumes one token for a retry; false when the bucket is dry (the
  /// caller must fast-fail instead of re-attempting).
  [[nodiscard]] bool try_acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }
  /// Credits one successful operation; fractions accumulate and the
  /// bucket is capped at its capacity.
  void note_success() {
    std::lock_guard<std::mutex> lock(mu_);
    tokens_ = std::min(capacity_, tokens_ + refill_);
  }
  [[nodiscard]] double available() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tokens_;
  }
  [[nodiscard]] double capacity() const { return capacity_; }

 private:
  mutable std::mutex mu_;
  double capacity_;
  double refill_;
  double tokens_;
};

/// Knobs for the retry rung. Backoff for attempt n (1-based, i.e. after
/// the nth failure) is min(backoff_base_s * 2^(n-1), backoff_max_s) —
/// deterministic, so two runs with the same plan sleep identically.
struct RecoveryOptions {
  FailPolicy policy = FailPolicy::kRetry;
  int max_attempts = 4;             ///< total tries per operation
  double backoff_base_s = 100e-6;   ///< first-retry sleep
  double backoff_max_s = 10e-3;     ///< backoff ceiling
  double op_deadline_s = 0.0;       ///< per-operation watchdog (0 = off)
  /// Shared retry budget (null = unbounded). Copies of one
  /// RecoveryOptions share the same bucket, which is exactly how a
  /// request class shares its budget across concurrent operations.
  std::shared_ptr<RetryBudget> budget;
};

[[nodiscard]] double backoff_delay_s(const RecoveryOptions& opts,
                                     int attempt);

/// One recovery-relevant incident: a fault observed and what was done
/// about it. Collected into TimingReport::fault_events / the CLI report.
struct FaultEvent {
  std::string site;     ///< injection-site / operation label
  ErrorCode code = ErrorCode::kInternal;
  std::string action;   ///< "retry" | "failover" | "degrade" | "abort" |
                        ///< "exhausted"
  std::int64_t chunk = -1;   ///< chunk index or device id (-1 = n/a)
  int attempt = 0;           ///< attempt number the fault hit
  std::string detail;        ///< human-readable cause (Error::what())
  std::uint64_t trace_id = 0;  ///< originating request (0 = none)
};

/// Tally of recovery actions over a run's fault events — the shape the
/// cost ledger's retry/failover/degrade surcharges want (obs::CostLedger
/// must not depend on rt, so svc folds these counts in).
struct ActionCounts {
  std::uint32_t retries = 0;
  std::uint32_t failovers = 0;
  std::uint32_t degrades = 0;
  std::uint32_t aborts = 0;
  std::uint32_t exhausted = 0;
};

/// Counts events by their recorded action string (unknown actions are
/// ignored — forward compatibility over strictness).
[[nodiscard]] ActionCounts count_actions(std::span<const FaultEvent> events);

/// Thread-safe event sink shared by every retry scope of one run.
class FaultLog {
 public:
  void record(FaultEvent event) {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(event));
  }
  [[nodiscard]] std::vector<FaultEvent> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<FaultEvent> events_;
};

/// Sleeps for the deterministic backoff of `attempt` (no-op for
/// non-positive delays). Split out so tests can pin the schedule.
void backoff_sleep(const RecoveryOptions& opts, int attempt);

/// Per-operation / per-request watchdog. Budget semantics are explicit:
///   seconds > 0 (finite)  — expires once that much time elapses;
///   seconds == 0 or +inf  — disabled: never expires (0 matches the
///                           op_deadline_s = 0 "off" convention); NaN is
///                           treated as disabled too;
///   seconds < 0           — already expired at construction (a request
///                           admitted after its deadline).
/// All measurements use the monotonic clock (std::chrono::steady_clock),
/// never the wall clock — an NTP step cannot un-expire a deadline, so
/// injected `timeout` faults replay bit-identically. expired() also
/// samples the kTimeout injection site (before the clock check, so even
/// a disabled deadline is injectable), making stuck operations testable
/// without real stalls.
class Deadline {
 public:
  explicit Deadline(double seconds);
  /// True if the deadline passed (or a timeout fault fired). `index`
  /// feeds the injector's at= filter.
  [[nodiscard]] bool expired(std::int64_t index = -1) const;
  /// Seconds of budget left: +inf when disabled, 0 at/after expiry
  /// (including negative budgets). Never samples the injector.
  [[nodiscard]] double remaining_s() const;
  [[nodiscard]] double seconds() const { return seconds_; }

 private:
  double seconds_ = 0.0;
  double start_s_ = 0.0;
};

/// Cooperative cancellation handle shared between a request's owner (the
/// service dispatcher) and the pipeline executing it. The owner arms the
/// token with an explicit cancel(reason) and/or an attached Deadline;
/// pipeline code calls checkpoint() between chunks and at the top of
/// thread-pool tasks, which throws the structured reason as soon as the
/// token fires — so an expired request stops consuming device work at
/// the next chunk boundary instead of running to completion.
///
/// Determinism: a token with no attached deadline never touches the
/// fault injector, so adding checkpoints to a pipeline does not shift
/// the kTimeout ordinal stream of existing seeded soaks.
class CancelToken {
 public:
  CancelToken() = default;
  /// Arms the token with a deadline; checkpoint() throws kDeadline once
  /// it expires. Disabled budgets (0 / +inf) never fire.
  explicit CancelToken(Deadline deadline) : deadline_(deadline) {}

  /// Fires the token with an explicit reason. First cancel wins; later
  /// calls are no-ops.
  void cancel(Status reason);
  [[nodiscard]] bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }
  /// The pending cancellation — explicit reason first, then an expired
  /// attached deadline (as kDeadline) — or nullopt when the token is
  /// idle. `index` feeds the timeout injector's at= filter.
  [[nodiscard]] std::optional<Status> poll(std::int64_t index = -1) const;
  /// Throws Error with the pending cancellation, if any.
  void checkpoint(std::int64_t index = -1) const;

 private:
  mutable std::mutex mu_;
  std::atomic<bool> cancelled_{false};
  Status reason_;
  std::optional<Deadline> deadline_;
};

/// Per-device circuit breaker: closed → open after failure_threshold
/// consecutive failures → half-open via deterministic probes (every
/// probe_interval-th denied attempt is let through as a probe) → closed
/// again after success_threshold consecutive probe successes. It sits
/// *ahead of* the failover/degrade ladder: an open breaker fails fast
/// with kCancelled so the ladder's CPU rung takes over without paying
/// another doomed device attempt. State advances only on call ordinals
/// (allow/on_success/on_failure), never wall-clock, so seeded fault
/// soaks replay bit-identically. Transitions emit rt.breaker.* counters
/// and flight-recorder kBreaker events.
struct BreakerOptions {
  int failure_threshold = 0;  ///< consecutive failures to open (0 = off)
  int probe_interval = 8;     ///< every Nth denied attempt probes
  int success_threshold = 2;  ///< probe successes needed to close
};

class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed = 0, kOpen, kHalfOpen };

  CircuitBreaker(std::string name, BreakerOptions opts)
      : name_(std::move(name)), opts_(opts) {}

  /// True = the attempt may proceed (closed, half-open, or an open-state
  /// probe turn); false = fast-fail without touching the device.
  [[nodiscard]] bool allow();
  void on_success();
  void on_failure();
  [[nodiscard]] State state() const;
  /// Back to closed with all counters zeroed (tests / manual override).
  void reset();
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  void transition_locked(State next);

  std::string name_;
  BreakerOptions opts_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int probe_successes_ = 0;
  std::uint64_t denied_ = 0;
};

[[nodiscard]] std::string_view to_string(CircuitBreaker::State state);

/// Process-wide breaker table keyed by device name: every pipeline that
/// targets a device shares its breaker, which is what lets correlated
/// failures on one device open the circuit for everyone. Tests that run
/// several breaker scenarios in one process must reset() between them.
class BreakerRegistry {
 public:
  static BreakerRegistry& global();
  /// Returns the breaker for `name`, creating it with `opts` on first
  /// use (later calls keep the original options).
  CircuitBreaker& get(const std::string& name, const BreakerOptions& opts);
  void reset();

 private:
  std::mutex mu_;
  std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
};

/// Extracts an rt::Status from any in-flight exception: rt::Error passes
/// its status through; everything else is wrapped as kInternal (and is
/// therefore not retried — unknown failures are bugs until classified).
[[nodiscard]] Status status_from_exception(const std::exception& e);

namespace detail {
/// Out-of-line so this header does not pull in the obs macros.
void count_retry_metrics(bool retried);
/// Counts rt.budget.fast_fail when a dry budget vetoed a retry.
void count_budget_metrics(bool budget_dry);
/// Flight-recorder hook: records a fault/retry event tagged with the
/// ambient trace id (and installs the SNPRT code namer on first use so
/// dumps print "SNPRT-LAUNCH" instead of a number).
void record_fault_flight(ErrorCode code, std::int64_t chunk, int attempt,
                         bool retried);
}  // namespace detail

/// Runs `fn` under the retry rung: up to opts.max_attempts tries while
/// the failure is retryable (see is_retryable(Status)), with
/// deterministic backoff between tries and an optional per-operation
/// deadline. Policy kAbort rethrows the first failure immediately.
/// When opts.budget is set, every retry must first win a token from the
/// shared bucket — a dry bucket turns a retryable failure into an
/// immediate Error(kExhausted) fast-fail, and every success refills the
/// bucket by its configured ratio. Exhaustion throws Error(kExhausted)
/// — deliberately non-retryable, so an enclosing retry scope cannot
/// multiply attempts. Every fault and the action taken is recorded in
/// `log` (if non-null) and counted in rt.retries.
template <typename Fn>
auto with_retry(const RecoveryOptions& opts, std::string_view site_label,
                std::int64_t chunk, FaultLog* log, Fn&& fn)
    -> decltype(fn()) {
  const int max_attempts =
      opts.policy == FailPolicy::kAbort ? 1 : std::max(1, opts.max_attempts);
  Deadline deadline(opts.op_deadline_s);
  for (int attempt = 1;; ++attempt) {
    try {
      if (deadline.expired(chunk)) {
        throw Error(ErrorCode::kTimeout,
                    "operation '" + std::string(site_label) +
                        "' exceeded its deadline");
      }
      if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        if (opts.budget != nullptr) opts.budget->note_success();
        return;
      } else {
        auto result = fn();
        if (opts.budget != nullptr) opts.budget->note_success();
        return result;
      }
    } catch (const Error& e) {
      const Status& st = e.status();
      bool can_retry = attempt < max_attempts && is_retryable(st) &&
                       st.code != ErrorCode::kExhausted;
      bool budget_dry = false;
      if (can_retry && opts.policy != FailPolicy::kAbort &&
          opts.budget != nullptr && !opts.budget->try_acquire()) {
        can_retry = false;
        budget_dry = true;
      }
      detail::count_retry_metrics(can_retry);
      detail::count_budget_metrics(budget_dry);
      detail::record_fault_flight(st.code, chunk, attempt, can_retry);
      if (log != nullptr) {
        FaultEvent ev;
        ev.site = std::string(site_label);
        ev.code = st.code;
        ev.action = opts.policy == FailPolicy::kAbort ? "abort"
                    : can_retry                       ? "retry"
                                                      : "exhausted";
        ev.chunk = chunk;
        ev.attempt = attempt;
        ev.detail = e.what();
        ev.trace_id = obs::current_trace().trace_id;
        log->record(std::move(ev));
      }
      if (opts.policy == FailPolicy::kAbort) throw;
      if (!can_retry) {
        if (!is_retryable(st) || st.code == ErrorCode::kExhausted) throw;
        if (budget_dry) {
          throw Error(ErrorCode::kExhausted,
                      "operation '" + std::string(site_label) +
                          "' fast-failed: retry budget exhausted; last: " +
                          e.what());
        }
        throw Error(ErrorCode::kExhausted,
                    "operation '" + std::string(site_label) + "' failed " +
                        std::to_string(attempt) +
                        " attempt(s); last: " + e.what());
      }
      backoff_sleep(opts, attempt);
    }
  }
}

}  // namespace snp::rt
