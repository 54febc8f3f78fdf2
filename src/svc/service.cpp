#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/obs.hpp"
#include "rt/status.hpp"
#include "svc/packed_row.hpp"

namespace snp::svc {
namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] Context make_context(const std::string& device) {
  if (device == "cpu") return Context::cpu();
  return Context::gpu(device);
}

/// Requests only share a batch when their whole recovery policy matches:
/// one compare launch runs under exactly one policy, so mixing classes
/// would silently upgrade or downgrade somebody's contract. Budgets
/// compare by identity — two requests share a batch only when their
/// retries draw from the same bucket.
[[nodiscard]] bool same_class(const rt::RecoveryOptions& a,
                              const rt::RecoveryOptions& b) {
  return a.policy == b.policy && a.max_attempts == b.max_attempts &&
         a.backoff_base_s == b.backoff_base_s &&
         a.backoff_max_s == b.backoff_max_s &&
         a.op_deadline_s == b.op_deadline_s && a.budget == b.budget;
}

/// FNV-1a over the query's canonical words; op and epoch are folded in so
/// one table serves every (op, epoch) generation.
[[nodiscard]] std::uint64_t cache_hash(std::span<const bits::Word64> words,
                                       bits::Comparison op,
                                       std::uint64_t epoch) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto w : words) mix(w);
  mix(static_cast<std::uint64_t>(op));
  mix(epoch);
  return h;
}

}  // namespace

std::string_view to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kReject:
      return "reject";
    case AdmissionPolicy::kBlock:
      return "block";
  }
  return "?";
}

std::optional<AdmissionPolicy> parse_admission_policy(std::string_view text) {
  if (text == "reject") return AdmissionPolicy::kReject;
  if (text == "block") return AdmissionPolicy::kBlock;
  return std::nullopt;
}

struct ServiceEngine::Impl {
  /// One accepted, not-yet-resolved query.
  struct Request {
    std::vector<bits::Word64> words;  ///< canonical (base-stride) query row
    std::uint64_t key = 0;            ///< cache key at admission epoch
    bool admit = false;               ///< second miss: cache the row
    std::uint64_t trace_id = 0;       ///< allocated at submit()
    rt::RecoveryOptions recovery;
    /// End-to-end deadline (absolute, from submit() + deadline_ms).
    /// Checked at batch formation and armed on the batch's CancelToken;
    /// never re-checked at admission for positive budgets.
    bool has_deadline = false;
    Clock::time_point deadline_at;
    /// Batching partition + brown-out shed order (SubmitOptions).
    int request_class = 1;
    Clock::time_point submitted;
    /// When the request entered the pending queue (after any admission
    /// block) — the queue-wait clock starts here, not at submit().
    Clock::time_point enqueued;
    /// Filled at batch formation: enqueued -> formation, the per-request
    /// side of the queue-depth time integral (Little's law).
    std::uint64_t queue_wait_ns = 0;
    std::promise<QueryResult> promise;
  };

  /// A formed batch: the FIFO same-class prefix plus the database
  /// generation it was formed under (in-flight batches finish against
  /// their own epoch even if update_database() lands meanwhile).
  struct Batch {
    std::vector<Request> requests;
    std::shared_ptr<const bits::BitMatrix> db;
    std::uint64_t epoch = 1;
    std::uint64_t id = 0;
  };

  struct CacheEntry {
    std::vector<bits::Word64> words;  ///< stored for exact collision check
    std::uint64_t epoch = 1;
    PackedRow row;
  };

  Impl(bits::BitMatrix database, ServiceConfig config)
      : cfg(std::move(config)),
        bit_cols(database.bit_cols()),
        ctx(make_context(cfg.device)),
        slo_mon(cfg.slo),
        seen(cfg.cache_capacity),
        paused(cfg.start_paused) {
    if (database.empty()) {
      throw std::invalid_argument("svc: database must be non-empty");
    }
    if (cfg.max_batch_rows == 0) {
      throw std::invalid_argument("svc: max_batch_rows must be >= 1");
    }
    effective_op = cfg.op;
    if (cfg.op == bits::Comparison::kAndNot && cfg.pre_negate) {
      // Eq. 3 served as AND against the stored complement — bit-identical
      // to AND-NOT by negation duality (pinned in test_properties).
      database = database.negated();
      effective_op = bits::Comparison::kAnd;
    }
    db = std::make_shared<const bits::BitMatrix>(std::move(database));
    last_queue_change = Clock::now();
    // Published once so the offline analyzer can compute coalescing
    // efficiency (achieved batch width / configured maximum) from a
    // metrics snapshot alone.
    SNP_OBS_GAUGE_SET("svc.config.max_batch_rows", cfg.max_batch_rows);
    // The gauge is process-wide: a new engine's empty cache replaces what
    // an earlier engine left in it.
    SNP_OBS_GAUGE_SET("svc.cache.bytes", 0);
    dispatcher = std::thread([this] { dispatch_loop(); });
  }

  ~Impl() {
    {
      std::unique_lock lock(mu);
      stop = true;
      paused = false;  // shutdown drains even a paused engine
      cv_work.notify_all();
      cv_space.notify_all();
      // Handshake with kBlock submitters: a thread parked in submit()'s
      // admission wait touches mu/cv_space when it wakes, so the
      // destructor must not tear those down until every blocked
      // submitter has observed stop and left (each resolves its submit
      // with a structured kCancelled — never a deadlock, never a
      // dangling wait). Pinned by the TSan regression test.
      cv_blocked.wait(lock, [&] { return blocked_submitters == 0; });
    }
    dispatcher.join();
  }

  // ---- client side -------------------------------------------------------

  std::future<QueryResult> submit(const bits::BitMatrix& query,
                                  const SubmitOptions& options) {
    const auto submitted = Clock::now();
    // Identity first: the id exists (and reaches the caller) before any
    // admission decision, so even a shed request is chaseable in the
    // flight recorder and the Perfetto flow chain.
    const std::uint64_t trace_id = obs::next_trace_id();
    if (options.trace_out != nullptr) *options.trace_out = trace_id;
    if (query.rows() != 1 || query.bit_cols() != bit_cols) {
      throw std::invalid_argument(
          "svc: query must be a single row with the database's bit_cols");
    }
    if (!std::isfinite(options.deadline_ms)) {
      throw std::invalid_argument("svc: deadline_ms must be finite");
    }
    SNP_OBS_FLOW_POINT("req.submit", trace_id, 's');
    // Canonicalize to the base stride so clients with padded strides hash
    // and batch identically (padding words are zero by invariant).
    const std::size_t base_words = (query.bit_cols() + 63) / 64;
    const auto src = query.row64(0);
    std::vector<bits::Word64> words(src.begin(),
                                    src.begin() + static_cast<std::ptrdiff_t>(
                                                      base_words));

    const bool has_deadline = options.deadline_ms != 0.0;
    // A budget beyond the clock's range saturates, so that request never
    // expires. A negative budget is shed below, before this is read.
    const std::chrono::duration<double> budget(
        std::max(options.deadline_ms, 0.0) * 1e-3);
    const auto deadline_at =
        budget < Clock::time_point::max() - submitted
            ? submitted + std::chrono::duration_cast<Clock::duration>(budget)
            : Clock::time_point::max();

    std::unique_lock lock(mu);
    // A submit racing the destructor after the dispatcher has drained
    // would queue a request nobody is left to resolve.
    if (stop) {
      throw rt::Error(rt::ErrorCode::kCancelled,
                      "service shut down; request not accepted");
    }
    submitted_count++;
    SNP_OBS_COUNT("svc.requests", 1);

    // Only an already-expired budget (deadline_ms < 0) is checked at
    // admission: the request cannot possibly be served in time, so it
    // sheds before consuming queue space or a cache probe. Positive
    // budgets are deliberately *not* checked here — expiry for them is
    // enforced at batch formation and inside the pipeline, which keeps
    // admission free of wall-clock races and makes formation-time
    // shedding deterministically testable.
    if (options.deadline_ms < 0.0) {
      rejected_count++;
      deadline_shed_count++;
      SNP_OBS_COUNT("svc.deadline.shed", 1);
      SNP_OBS_FLIGHT(obs::FlightKind::kDeadlineShed, trace_id, 0,
                     static_cast<std::int64_t>(pending.size()), 0);
      throw rt::Error(rt::ErrorCode::kDeadline,
                      "request deadline already expired at submission");
    }

    const std::uint64_t key = cache_hash(words, cfg.op, epoch);
    if (cfg.cache_capacity > 0) {
      if (const auto it = cache.find(key);
          it != cache.end() && it->second.epoch == epoch &&
          it->second.words == words) {
        cache_hits++;
        SNP_OBS_COUNT("svc.cache.hits", 1);
        SNP_OBS_FLIGHT(obs::FlightKind::kCacheHit, trace_id, 0,
                       static_cast<std::int64_t>(epoch), 0);
        QueryResult qr;
        it->second.row.decode(qr.row);
        qr.cache_hit = true;
        qr.epoch = epoch;
        qr.trace_id = trace_id;
        const auto now = Clock::now();
        qr.latency_s = seconds_between(submitted, now);
        completed_count++;
        if (has_deadline) {
          // A cache hit resolves inline, so the deadline is met unless
          // the budget was so small it passed during the probe itself.
          qr.deadline_expired = now > deadline_at;
          if (qr.deadline_expired) {
            deadline_expired_count++;
          } else {
            deadline_met_count++;
          }
        }
        max_latency = std::max(max_latency, qr.latency_s);
        SNP_OBS_OBSERVE("svc.request_latency_seconds", qr.latency_s);
        // A cache hit never queues: wait 0, the whole latency is service.
        SNP_OBS_OBSERVE("svc.queue.wait_seconds", 0.0);
        SNP_OBS_OBSERVE("svc.service.time_seconds", qr.latency_s);
        if constexpr (obs::kEnabled) {
          qr.cost.trace_id = trace_id;
          qr.cost.epoch = epoch;
          qr.cost.cache_hit = true;
          qr.cost.service_ns =
              obs::quantize_cost_ns(qr.latency_s);
          if (obs::CostLedger::attribution_enabled()) {
            ledger.record_cache_hit(qr.cost);
          }
        }
        // The monitor is the engine's latency record in every build; only
        // telemetry builds act on its burn-rate trip.
        const bool tripped =
            slo_mon.record(qr.latency_s, trace_id) && obs::kEnabled;
        if (cfg.slo.objective_s > 0.0 && qr.latency_s > cfg.slo.objective_s) {
          SNP_OBS_COUNT("svc.slo.breaches", 1);
        }
        SNP_OBS_FLIGHT(obs::FlightKind::kResolve, trace_id, 0, 0,
                       static_cast<std::int64_t>(qr.latency_s * 1e6));
        SNP_OBS_FLOW_POINT("req.resolve", trace_id, 'f');
        std::promise<QueryResult> p;
        auto fut = p.get_future();
        p.set_value(std::move(qr));
        lock.unlock();
        if (tripped) on_slo_trip(trace_id);
        return fut;
      }
      cache_misses++;
      SNP_OBS_COUNT("svc.cache.misses", 1);
    }

    // Brown-out shed: while the SLO burn-rate trip is latched, the
    // lowest request classes are turned away at the door (after the
    // cache probe — hits cost nothing and still help the burn recover).
    if (brownout && options.request_class <= cfg.brownout_class_max) {
      rejected_count++;
      brownout_shed_count++;
      SNP_OBS_COUNT("svc.brownout.shed", 1);
      SNP_OBS_FLIGHT(obs::FlightKind::kShed, trace_id, 0,
                     static_cast<std::int64_t>(pending.size()),
                     options.request_class);
      throw rt::Error(rt::ErrorCode::kOverload,
                      "brown-out: shedding request class " +
                          std::to_string(options.request_class) +
                          " until the SLO burn rate recovers");
    }

    // Admission control: the pending queue is the only unbounded-growth
    // surface, so it is the one that is bounded.
    if (pending.size() >= cfg.max_queue) {
      if (cfg.admission == AdmissionPolicy::kReject) {
        rejected_count++;
        SNP_OBS_COUNT("svc.rejected", 1);
        SNP_OBS_FLIGHT(obs::FlightKind::kShed, trace_id, 0,
                       static_cast<std::int64_t>(pending.size()), 0);
        throw rt::Error(rt::ErrorCode::kOverload,
                        "service queue full (" +
                            std::to_string(cfg.max_queue) +
                            " pending); request shed");
      }
      // kBlock backpressure. The destructor handshake (blocked_submitters
      // / cv_blocked) guarantees a blocked submitter either re-acquires
      // the queue or observes stop — never a dangling wait on a dying
      // engine. A deadline bounds the block: waiting past it would hand
      // the dispatcher a request that is already dead on arrival.
      blocked_submitters++;
      bool has_space = true;
      if (has_deadline) {
        has_space = cv_space.wait_until(lock, deadline_at, [&] {
          return stop || pending.size() < cfg.max_queue;
        });
      } else {
        cv_space.wait(lock,
                      [&] { return stop || pending.size() < cfg.max_queue; });
      }
      blocked_submitters--;
      if (blocked_submitters == 0) cv_blocked.notify_all();
      if (stop) {
        throw rt::Error(rt::ErrorCode::kCancelled,
                        "service shut down while request was blocked on "
                        "admission");
      }
      if (!has_space) {
        rejected_count++;
        deadline_shed_count++;
        SNP_OBS_COUNT("svc.deadline.shed", 1);
        SNP_OBS_FLIGHT(obs::FlightKind::kDeadlineShed, trace_id, 0,
                       static_cast<std::int64_t>(pending.size()), 0);
        throw rt::Error(rt::ErrorCode::kDeadline,
                        "request deadline expired while blocked on "
                        "admission");
      }
    }

    Request req;
    req.words = std::move(words);
    req.key = key;
    if (!seen.empty()) {
      // Second-miss admission: the row is cached only if this key missed
      // before, so a query asked once costs the cache nothing.
      std::uint64_t& slot = seen[key % seen.size()];
      req.admit = slot == key;
      slot = key;
    }
    req.trace_id = trace_id;
    req.recovery = options.recovery.value_or(cfg.recovery);
    req.has_deadline = has_deadline;
    req.deadline_at = deadline_at;
    req.request_class = options.request_class;
    if (cfg.retry_budget > 0.0 && req.recovery.budget == nullptr) {
      // Classes draw from independent buckets; same_class() compares
      // bucket identity, so sharing the class bucket keeps same-class
      // requests batchable.
      auto& bucket = class_budgets[options.request_class];
      if (bucket == nullptr) {
        bucket = std::make_shared<rt::RetryBudget>(cfg.retry_budget,
                                                   cfg.retry_budget_refill);
      }
      req.recovery.budget = bucket;
    }
    req.submitted = submitted;
    req.enqueued = Clock::now();
    auto fut = req.promise.get_future();
    note_queue_transition(req.enqueued);
    pending.push_back(std::move(req));
    peak_queue = std::max(peak_queue, pending.size());
    SNP_OBS_GAUGE_ADD("svc.queue_depth", 1);
    SNP_OBS_FLIGHT(obs::FlightKind::kEnqueue, trace_id, 0,
                   static_cast<std::int64_t>(pending.size()), 0);
    lock.unlock();
    cv_work.notify_one();
    return fut;
  }

  void update_database(bits::BitMatrix database) {
    if (database.empty() || database.bit_cols() != bit_cols) {
      throw std::invalid_argument(
          "svc: replacement database must be non-empty with matching "
          "bit_cols");
    }
    if (cfg.op == bits::Comparison::kAndNot && cfg.pre_negate) {
      database = database.negated();
    }
    auto next = std::make_shared<const bits::BitMatrix>(std::move(database));
    const std::lock_guard lock(mu);
    db = std::move(next);
    epoch++;
    cache.clear();
    cache_fifo.clear();
    cache_bytes = 0;
    SNP_OBS_GAUGE_SET("svc.cache.bytes", 0);
    SNP_OBS_COUNT("svc.epoch_bumps", 1);
    SNP_OBS_FLIGHT(obs::FlightKind::kEpoch, obs::current_trace().trace_id,
                   0, static_cast<std::int64_t>(epoch),
                   static_cast<std::int64_t>(db->rows()));
  }

  void drain() {
    std::unique_lock lock(mu);
    cv_drain.wait(lock, [&] { return pending.empty() && inflight == 0; });
  }

  void set_paused(bool value) {
    {
      const std::lock_guard lock(mu);
      paused = value;
    }
    if (!value) cv_work.notify_all();
  }

  // ---- dispatcher side ---------------------------------------------------

  void dispatch_loop() {
    for (;;) {
      std::unique_lock lock(mu);
      cv_work.wait(lock,
                   [&] { return stop || (!paused && !pending.empty()); });
      if (pending.empty()) {
        if (stop) return;
        continue;
      }
      // Keep the batch open for the coalescing window (unless it is
      // already full or the engine is shutting down). Brown-out shrinks
      // the window to zero: latency is already burning, so dispatch
      // whatever is queued instead of waiting for width.
      if (cfg.coalesce_window_s > 0.0 && !brownout &&
          pending.size() < cfg.max_batch_rows) {
        const auto deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   cfg.coalesce_window_s));
        cv_work.wait_until(lock, deadline, [&] {
          return stop || pending.size() >= cfg.max_batch_rows;
        });
      }

      // One formation timestamp for the whole batch: the depth integral
      // accrues the open interval once, and every popped request's
      // queue wait ends at this same instant — so the integral equals
      // the sum of waits identically (the Little's-law cross-check).
      const auto formed = Clock::now();
      note_queue_transition(formed);
      // Deadline gate: sweep the whole pending queue *before* forming a
      // batch, so a request whose budget expired while it waited is
      // resolved with kDeadline here and can never reach a launch —
      // the svc.deadline.shed counter is the proof the acceptance tests
      // check against batch-member trace ids.
      shed_expired_locked(formed);
      if (pending.empty()) {
        lock.unlock();
        cv_space.notify_all();
        cv_drain.notify_all();
        continue;
      }

      // The batch lives in this block, so its promises are destroyed before
      // inflight is cleared and drain() can return: a client that reads a
      // failed future after drain() holds the last reference to its
      // exception and frees it on its own thread.
      {
        Batch batch;
        batch.db = db;
        batch.epoch = epoch;
        batch.id = ++batch_counter;
        // FIFO prefix of one recovery class: later same-class arrivals
        // never jump ahead of an earlier different-class request.
        while (!pending.empty() &&
               batch.requests.size() < cfg.max_batch_rows &&
               (batch.requests.empty() ||
                (same_class(batch.requests.front().recovery,
                            pending.front().recovery) &&
                 batch.requests.front().request_class ==
                     pending.front().request_class))) {
          Request& head = pending.front();
          head.queue_wait_ns = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  formed - head.enqueued)
                  .count());
          SNP_OBS_OBSERVE("svc.queue.wait_seconds",
                          static_cast<double>(head.queue_wait_ns) * 1e-9);
          batch.requests.push_back(std::move(head));
          pending.pop_front();
          SNP_OBS_GAUGE_SUB("svc.queue_depth", 1);
        }
        inflight = batch.requests.size();
        lock.unlock();
        cv_space.notify_all();

        // The batch executes under its root (first) request's trace
        // context, so every downstream span / chunk flight record / fault
        // event inherits the id. The other members stay visible through
        // their own per-request flow points.
        obs::TraceContext root{batch.requests.front().trace_id};
        if (batch.requests.front().has_deadline) {
          root.deadline_s = std::max(
              0.0, seconds_between(Clock::now(),
                                   batch.requests.front().deadline_at));
        }
        const obs::ScopedTraceContext root_scope(root);
        execute_batch(batch);
      }

      lock.lock();
      inflight = 0;
      // Brown-out recovery is edge-triggered on batch completion: once
      // both burn windows fall back under the trip threshold, admission
      // re-opens for the shed classes and the coalescing window is
      // restored.
      if (brownout) {
        const auto snap = slo_mon.snapshot();
        if (snap.burn_fast < cfg.slo.breach_burn_rate &&
            snap.burn_slow < cfg.slo.breach_burn_rate) {
          brownout = false;
          SNP_OBS_FLIGHT(obs::FlightKind::kBrownout,
                         obs::current_trace().trace_id, 0, 0,
                         cfg.brownout_class_max);
        }
      }
      lock.unlock();
      cv_drain.notify_all();
    }
  }

  /// Resolves every member exactly once, with its row or with the error
  /// that killed the batch, and returns normally: nothing reaches the
  /// dispatcher thread it runs on.
  void execute_batch(Batch& batch) {
    SNP_OBS_SPAN("svc.batch");
    const std::size_t n = batch.requests.size();
    SNP_OBS_FLIGHT(obs::FlightKind::kBatch, obs::current_trace().trace_id,
                   0, static_cast<std::int64_t>(batch.id),
                   static_cast<std::int64_t>(n));
    if constexpr (obs::kEnabled) {
      // Every member request's flow arrow passes through the batch, not
      // just the root whose context the batch runs under.
      for ([[maybe_unused]] const auto& req : batch.requests) {
        SNP_OBS_FLOW_POINT("req.batch", req.trace_id, 't');
      }
    }
    try {
      bits::BitMatrix a(n, bit_cols);
      for (std::size_t i = 0; i < n; ++i) {
        auto dst = a.row64(i);
        const auto& src = batch.requests[i].words;
        std::copy(src.begin(), src.end(), dst.begin());
      }

      ComputeOptions copts;
      copts.lint = false;  // per-batch lint would spam the serve path
      copts.recovery = batch.requests.front().recovery;
      copts.breaker = cfg.breaker;
      // Arm cooperative cancellation only when *every* member carries a
      // deadline, and with the latest one — a mixed batch must never be
      // killed out from under its unbounded members, and under the
      // latest deadline a kill wastes nothing (all members are already
      // expired). Deadline-free batches get no token at all, so their
      // pipelines take no extra fault-injector draws.
      if (std::all_of(batch.requests.begin(), batch.requests.end(),
                      [](const Request& r) { return r.has_deadline; })) {
        auto latest = batch.requests.front().deadline_at;
        for (const Request& r : batch.requests) {
          latest = std::max(latest, r.deadline_at);
        }
        const double remaining = seconds_between(Clock::now(), latest);
        copts.cancel = std::make_shared<rt::CancelToken>(
            rt::Deadline(remaining > 0.0 ? remaining : -1.0));
      }
      auto result = ctx.compare(a, *batch.db, effective_op, copts);

      const auto done = Clock::now();
      const auto counts = result.counts.raw();
      const std::size_t cols = batch.db->rows();
      std::vector<QueryResult> rows(n);
      for (std::size_t i = 0; i < n; ++i) {
        auto& qr = rows[i];
        const auto row = counts.subspan(i * cols, cols);
        qr.row.assign(row.begin(), row.end());
        qr.batch_id = batch.id;
        qr.batch_rows = n;
        qr.epoch = batch.epoch;
        qr.degraded = result.timing.degraded;
        qr.trace_id = batch.requests[i].trace_id;
        qr.latency_s = seconds_between(batch.requests[i].submitted, done);
        // Late results are delivered and flagged, never dropped: the
        // caller still gets its row, plus the honest signal that the
        // budget was blown.
        qr.deadline_expired = batch.requests[i].has_deadline &&
                              done > batch.requests[i].deadline_at;
      }

      if constexpr (obs::kEnabled) {
        if (obs::CostLedger::attribution_enabled()) {
          attribute_batch_costs(batch, result.timing, done, rows);
        }
      }

      // Entries of admitted members are built before taking mu, which
      // then only moves them in. The query words are no longer needed by
      // the request.
      std::vector<CacheEntry> fresh(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (!batch.requests[i].admit) continue;
        fresh[i].words = std::move(batch.requests[i].words);
        fresh[i].epoch = batch.epoch;
        fresh[i].row = PackedRow(counts.subspan(i * cols, cols));
      }

      std::uint64_t trip_trace = 0;
      {
        const std::lock_guard lock(mu);
        completed_count += n;
        batch_count++;
        batch_rows_total += n;
        max_batch = std::max(max_batch, n);
        fault_event_count += result.timing.fault_events.size();
        if (result.timing.degraded) degraded_batch_count++;
        for (std::size_t i = 0; i < n; ++i) {
          if (batch.requests[i].has_deadline) {
            if (rows[i].deadline_expired) {
              deadline_expired_count++;
            } else {
              deadline_met_count++;
            }
          }
          const double wait_s =
              static_cast<double>(batch.requests[i].queue_wait_ns) * 1e-9;
          // Formation -> resolution; enqueued + wait is the formation
          // instant, so this excludes any pre-queue admission block.
          [[maybe_unused]] const double service_s = std::max(
              0.0,
              seconds_between(batch.requests[i].enqueued, done) - wait_s);
          max_latency = std::max(max_latency, rows[i].latency_s);
          SNP_OBS_OBSERVE("svc.request_latency_seconds", rows[i].latency_s);
          SNP_OBS_OBSERVE("svc.service.time_seconds", service_s);
          if (slo_mon.record(rows[i].latency_s, rows[i].trace_id) &&
              obs::kEnabled) {
            trip_trace = rows[i].trace_id;
          }
          if (cfg.slo.objective_s > 0.0 &&
              rows[i].latency_s > cfg.slo.objective_s) {
            SNP_OBS_COUNT("svc.slo.breaches", 1);
          }
          if (batch.requests[i].admit && batch.epoch == epoch) {
            cache_insert(batch.requests[i].key, std::move(fresh[i]));
          }
        }
      }
      SNP_OBS_COUNT("svc.batches", 1);
      SNP_OBS_COUNT("svc.batch.rows", n);
      // Dump outside the service mutex: the breach path does file I/O.
      if (trip_trace != 0) on_slo_trip(trip_trace);

      // Exactly-once: every promise is resolved here and nowhere else.
      for (std::size_t i = 0; i < n; ++i) {
        SNP_OBS_FLIGHT(obs::FlightKind::kResolve, rows[i].trace_id, 0,
                       static_cast<std::int64_t>(batch.id),
                       static_cast<std::int64_t>(rows[i].latency_s * 1e6));
        SNP_OBS_FLOW_POINT("req.resolve", rows[i].trace_id, 'f');
        batch.requests[i].promise.set_value(std::move(rows[i]));
      }
    } catch (...) {
      [[maybe_unused]] std::uint32_t code = 0;
      try {
        throw;
      } catch (const rt::Error& e) {
        code = static_cast<std::uint32_t>(e.code());
      } catch (...) {
      }
      {
        const std::lock_guard lock(mu);
        failed_count += n;
        batch_count++;
        batch_rows_total += n;
        max_batch = std::max(max_batch, n);
        if (code == static_cast<std::uint32_t>(rt::ErrorCode::kDeadline)) {
          // The batch was killed mid-pipeline by its cancel token:
          // every deadline-carrying member blew its budget.
          for (const auto& req : batch.requests) {
            if (req.has_deadline) deadline_expired_count++;
          }
        }
      }
      SNP_OBS_COUNT("svc.batches", 1);
      SNP_OBS_COUNT("svc.batch.failures", 1);
      for (auto& req : batch.requests) {
        // Failed resolution keeps the flow arrow closed and records the
        // SNPRT code the future will carry; latency payload is -1.
        SNP_OBS_FLIGHT(obs::FlightKind::kResolve, req.trace_id, code,
                       static_cast<std::int64_t>(batch.id), -1);
        SNP_OBS_FLOW_POINT("req.resolve", req.trace_id, 'f');
        req.promise.set_exception(std::current_exception());
      }
    }
  }

  /// Builds the batch's quantized cost totals from the compare timing,
  /// splits them across the member requests by gamma-row ownership
  /// (every member owns exactly one row of the batched A operand), and
  /// records batch + shares in the ledger. The integer shares sum
  /// bit-identically to the batch totals (obs::split_exact).
  void attribute_batch_costs(Batch& batch, const TimingReport& timing,
                             Clock::time_point done,
                             std::vector<QueryResult>& rows) {
    const std::size_t n = batch.requests.size();
    obs::BatchCostTotals totals;
    totals.batch_id = batch.id;
    totals.width = static_cast<std::uint32_t>(n);
    totals.rows = n;
    totals.epoch = batch.epoch;
    totals.degraded = timing.degraded;
    const rt::ActionCounts actions = rt::count_actions(timing.fault_events);
    totals.retries = actions.retries;
    totals.failovers = actions.failovers;
    totals.device_ns = obs::quantize_cost_ns(timing.kernel_s);
    totals.h2d_ns = obs::quantize_cost_ns(timing.h2d_s);
    totals.d2h_ns = obs::quantize_cost_ns(timing.d2h_s);
    totals.h2d_bytes = timing.h2d_bytes;
    totals.d2h_bytes = timing.d2h_bytes;
    totals.wordops = timing.wordops;

    std::vector<std::uint64_t> trace_ids(n);
    for (std::size_t i = 0; i < n; ++i) {
      trace_ids[i] = batch.requests[i].trace_id;
    }
    const std::vector<std::uint64_t> rows_owned(n, 1);
    auto costs = obs::attribute_batch(totals, trace_ids, rows_owned);
    for (std::size_t i = 0; i < n; ++i) {
      costs[i].queue_wait_ns = batch.requests[i].queue_wait_ns;
      const double service_s = std::max(
          0.0, seconds_between(batch.requests[i].enqueued, done) -
                   static_cast<double>(batch.requests[i].queue_wait_ns) *
                       1e-9);
      costs[i].service_ns = obs::quantize_cost_ns(service_s);
      rows[i].cost = costs[i];
    }
    ledger.record_batch(totals, costs);
  }

  /// Caller holds mu (and has already accrued the depth integral up to
  /// `now`). Resolves every pending request whose deadline has passed
  /// with rt::Error(kDeadline) and removes it from the queue — the
  /// batch-formation gate that guarantees an expired request never
  /// reaches a kernel launch. Erasures do not advance the clock, so the
  /// depth integral is unaffected.
  void shed_expired_locked(Clock::time_point now) {
    for (auto it = pending.begin(); it != pending.end();) {
      if (!it->has_deadline || now < it->deadline_at) {
        ++it;
        continue;
      }
      failed_count++;
      deadline_shed_count++;
      SNP_OBS_COUNT("svc.deadline.shed", 1);
      SNP_OBS_FLIGHT(obs::FlightKind::kDeadlineShed, it->trace_id, 0,
                     static_cast<std::int64_t>(pending.size()),
                     static_cast<std::int64_t>(
                         seconds_between(it->deadline_at, now) * -1e6));
      SNP_OBS_FLOW_POINT("req.resolve", it->trace_id, 'f');
      it->promise.set_exception(std::make_exception_ptr(rt::Error(
          rt::ErrorCode::kDeadline,
          "request deadline expired before batch formation; shed without "
          "a launch")));
      it = pending.erase(it);
      SNP_OBS_GAUGE_SUB("svc.queue_depth", 1);
    }
  }

  /// Caller holds mu. Accrues the queue-depth time integral
  /// (sum of depth x dt over pending-queue transitions) up to `now`,
  /// *before* the queue is mutated. Published as the
  /// svc.queue.depth_time_us gauge — exact at every transition, so any
  /// quiescent read (post-drain) equals the sum of per-request queue
  /// waits identically: the Little's-law consistency anchor.
  void note_queue_transition(Clock::time_point now) {
    depth_time_ns +=
        static_cast<std::uint64_t>(pending.size()) *
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - last_queue_change)
                .count());
    last_queue_change = now;
    SNP_OBS_GAUGE_SET("svc.queue.depth_time_us", depth_time_ns / 1000);
  }

  /// Burn-rate trigger edge: latch brown-out, pin the breach in the
  /// flight stream, then dump the rings while the evidence is still
  /// resident. Never called under mu (auto_dump writes a file).
  void on_slo_trip([[maybe_unused]] std::uint64_t trace_id) {
    {
      const std::lock_guard lock(mu);
      if (!brownout) {
        brownout = true;
        brownout_entry_count++;
        SNP_OBS_COUNT("svc.brownout.entries", 1);
        SNP_OBS_FLIGHT(obs::FlightKind::kBrownout, trace_id, 0, 1,
                       cfg.brownout_class_max);
      }
    }
    if constexpr (obs::kEnabled) {
      [[maybe_unused]] const auto snap = slo_mon.snapshot();
      SNP_OBS_COUNT("svc.slo.trips", 1);
      SNP_OBS_FLIGHT(obs::FlightKind::kSloBreach, trace_id, 0,
                     static_cast<std::int64_t>(snap.breaches),
                     static_cast<std::int64_t>(snap.total));
      obs::FlightRecorder::global().auto_dump("slo-breach");
    }
  }

  /// Bytes an entry holds in its row and query words (svc.cache.bytes).
  [[nodiscard]] static std::size_t entry_bytes(const CacheEntry& entry) {
    return entry.words.size() * sizeof(bits::Word64) + entry.row.size_bytes();
  }

  /// Caller holds mu. Single-probe table: a hash collision with different
  /// key material is overwritten (verified by the stored words on lookup),
  /// eviction is FIFO by insertion order. cache_fifo holds exactly the
  /// table's keys, oldest first.
  void cache_insert(std::uint64_t key, CacheEntry entry) {
    SNP_OBS_COUNT("svc.cache.admitted", 1);
    cache_bytes += entry_bytes(entry);
    if (const auto it = cache.find(key); it != cache.end()) {
      cache_bytes -= entry_bytes(it->second);
      it->second = std::move(entry);
    } else {
      while (cache.size() >= cfg.cache_capacity && !cache_fifo.empty()) {
        const auto victim = cache.find(cache_fifo.front());
        cache_bytes -= entry_bytes(victim->second);
        cache.erase(victim);
        cache_fifo.pop_front();
      }
      cache_fifo.push_back(key);
      cache.emplace(key, std::move(entry));
    }
    SNP_OBS_GAUGE_SET("svc.cache.bytes", cache_bytes);
  }

  ServiceStats stats() const {
    ServiceStats s;
    const std::lock_guard lock(mu);
    s.submitted = submitted_count;
    s.completed = completed_count;
    s.failed = failed_count;
    s.rejected = rejected_count;
    s.batches = batch_count;
    s.cache_hits = cache_hits;
    s.cache_misses = cache_misses;
    s.fault_events = fault_event_count;
    s.degraded_batches = degraded_batch_count;
    s.deadline_shed = deadline_shed_count;
    s.deadline_expired = deadline_expired_count;
    s.deadline_met = deadline_met_count;
    s.brownout_entries = brownout_entry_count;
    s.brownout_shed = brownout_shed_count;
    s.brownout_active = brownout;
    s.max_batch_rows = max_batch;
    s.mean_batch_rows =
        batch_count == 0 ? 0.0
                         : static_cast<double>(batch_rows_total) /
                               static_cast<double>(batch_count);
    s.peak_queue_depth = peak_queue;
    s.epoch = epoch;
    // Read under mu, which every slo_mon.record() call holds too, so the
    // bucket bounds and the exact max describe the same completions.
    const auto capped = [this](double q) {
      const double le = slo_mon.percentile_le(q);
      return std::isnan(le) ? 0.0 : std::min(le, max_latency);
    };
    s.p50_latency_s = capped(0.50);
    s.p99_latency_s = capped(0.99);
    s.max_latency_s = max_latency;
    if constexpr (obs::kEnabled) {
      const auto slo = slo_mon.snapshot();
      s.slo_breaches = slo.breaches;
      s.slo_trips = slo.trips;
      s.slo_burn_fast = slo.burn_fast;
      s.slo_burn_slow = slo.burn_slow;
    }
    return s;
  }

  [[nodiscard]] SloReport slo_report() const {
    SloReport r;
    r.objective_s = cfg.slo.objective_s;
    r.state = slo_mon.snapshot();
    r.p50_le_s = slo_mon.percentile_le(0.50);
    r.p99_le_s = slo_mon.percentile_le(0.99);
    r.bounds = slo_mon.bounds();
    r.bucket_counts = slo_mon.bucket_counts();
    r.exemplars = slo_mon.exemplars();
    for (std::size_t i = r.exemplars.size(); i-- > 0;) {
      if (r.exemplars[i].has_value()) {
        r.worst = r.exemplars[i];
        break;
      }
    }
    return r;
  }

  // ---- state -------------------------------------------------------------

  const ServiceConfig cfg;
  /// The database's bit width, fixed for the engine's life
  /// (update_database rejects another); read without mu.
  const std::size_t bit_cols;
  Context ctx;
  bits::Comparison effective_op = bits::Comparison::kXor;
  /// Internally locked; fed under mu on every completion path (the
  /// engine's one latency record, in every build), never under mu for
  /// the dump-triggering edge (see on_slo_trip).
  obs::SloMonitor slo_mon;

  mutable std::mutex mu;
  std::condition_variable cv_work;   ///< dispatcher waits for arrivals
  std::condition_variable cv_space;  ///< kBlock submitters wait for room
  std::condition_variable cv_drain;  ///< drain() waits for quiescence
  std::shared_ptr<const bits::BitMatrix> db;
  std::deque<Request> pending;
  std::unordered_map<std::uint64_t, CacheEntry> cache;
  std::deque<std::uint64_t> cache_fifo;
  /// Second-miss admission, the doorkeeper of TinyLFU (Einziger et al.):
  /// the last key queued as a miss in each slot, one slot per cache entry
  /// (empty when the cache is off). A key that is still in its slot at its
  /// next miss is admitted.
  std::vector<std::uint64_t> seen;
  /// Bytes held by the cache's rows and query words (entry_bytes).
  std::size_t cache_bytes = 0;
  std::uint64_t epoch = 1;
  bool paused = false;
  bool stop = false;
  std::size_t inflight = 0;
  /// kBlock submitters currently parked in the admission wait; the
  /// destructor waits (on cv_blocked) for this to reach zero.
  std::size_t blocked_submitters = 0;
  std::condition_variable cv_blocked;
  /// Brown-out latch (set on SLO trip, cleared edge-triggered after a
  /// batch completes with both burn rates back under the threshold).
  bool brownout = false;
  /// Per-class retry-budget buckets (created lazily at first use).
  std::unordered_map<int, std::shared_ptr<rt::RetryBudget>> class_budgets;

  std::uint64_t submitted_count = 0;
  std::uint64_t completed_count = 0;
  std::uint64_t failed_count = 0;
  std::uint64_t rejected_count = 0;
  std::uint64_t batch_count = 0;
  std::uint64_t batch_counter = 0;
  std::uint64_t batch_rows_total = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t fault_event_count = 0;
  std::uint64_t degraded_batch_count = 0;
  std::uint64_t deadline_shed_count = 0;
  std::uint64_t deadline_expired_count = 0;
  std::uint64_t deadline_met_count = 0;
  std::uint64_t brownout_entry_count = 0;
  std::uint64_t brownout_shed_count = 0;
  std::size_t max_batch = 0;
  std::size_t peak_queue = 0;
  /// Exact max of completed latencies; caps the monitor's bucket bounds.
  double max_latency = 0.0;
  /// Queue-depth time integral state (note_queue_transition).
  std::uint64_t depth_time_ns = 0;
  Clock::time_point last_queue_change;
  /// Per-engine cost ledger (batch totals + exact per-request shares).
  obs::CostLedger ledger;

  std::thread dispatcher;
};

ServiceEngine::ServiceEngine(bits::BitMatrix database, ServiceConfig config)
    : impl_(std::make_unique<Impl>(std::move(database), std::move(config))) {}

ServiceEngine::~ServiceEngine() = default;

std::future<QueryResult> ServiceEngine::submit(const bits::BitMatrix& query,
                                               const SubmitOptions& options) {
  return impl_->submit(query, options);
}

void ServiceEngine::update_database(bits::BitMatrix database) {
  impl_->update_database(std::move(database));
}

std::uint64_t ServiceEngine::epoch() const {
  const std::lock_guard lock(impl_->mu);
  return impl_->epoch;
}

void ServiceEngine::drain() { impl_->drain(); }
void ServiceEngine::pause() { impl_->set_paused(true); }
void ServiceEngine::resume() { impl_->set_paused(false); }

ServiceStats ServiceEngine::stats() const { return impl_->stats(); }

obs::CostSnapshot ServiceEngine::cost() const {
  return impl_->ledger.snapshot();
}

obs::CostSnapshot ServiceEngine::cost_totals() const {
  return impl_->ledger.totals();
}

void ServiceEngine::write_cost_json(std::ostream& os) const {
  impl_->ledger.write_json(os);
}

SloReport ServiceEngine::slo() const { return impl_->slo_report(); }

const ServiceConfig& ServiceEngine::config() const { return impl_->cfg; }

std::size_t ServiceEngine::db_rows() const {
  const std::lock_guard lock(impl_->mu);
  return impl_->db->rows();
}

}  // namespace snp::svc
