// snp::svc — batched resident-database query service.
//
// The FastID workloads (Eqs. 2-3) are shaped exactly like a high-QPS
// lookup service: a tiny query matrix against a ~20M-profile database
// that never changes between requests. ServiceEngine keeps that database
// loaded and packed once (pre-negated per Eq. 3 when serving AND-NOT),
// accepts independent client queries through a thread-safe submission
// API, and coalesces queries that arrive close together into one batched
// A-operand per core::compare launch — the paper's own insight that
// kernel launches only amortize when the A operand is wide enough,
// applied to serving. Samsi et al.'s GPU DNA-mixture pipeline (PAPERS.md)
// motivates the same serve-many-small-queries-against-one-big-DB shape.
//
// Contracts the conformance suite (tests/test_service.cpp) pins:
//  * Batching is invisible: every result row is bit-identical to a
//    serial per-query core::compare run, for any batch width, arrival
//    order, or client thread count.
//  * Exactly-once: every accepted request resolves its future exactly
//    once — with a result row or with the rt::Error that killed its
//    batch. A failed batch never poisons later batches.
//  * Admission control: a bounded pending queue sheds (kReject ->
//    rt::Error(kOverload)) or backpressures (kBlock) before the service
//    falls over; shed requests are counted, never half-processed.
//  * Cache coherence: the result cache is keyed by (query hash, op,
//    DB epoch); update_database() bumps the epoch, so a stale entry can
//    never be served after a swap.
//
// SLO telemetry: per-request latency (p50/p99), batch width, queue depth
// and cache hit rates are published through the obs registry ("svc.*")
// and summarized by stats() for the CLI "service:" report block. When
// ServiceConfig::slo sets a latency objective, an obs::SloMonitor
// evaluates rolling-window burn rates over completions and trips a
// flight-recorder dump on breach (see slo() / docs/observability.md).
//
// Request tracing: submit() allocates a process-unique trace id per
// request (obs::TraceContext). The dispatcher installs the batch root's
// context around batch execution so every span, chunk flight record and
// fault event downstream carries the originating request's id, and the
// merged Perfetto trace links submit -> batch -> chunks -> resolution
// with flow arrows.
#pragma once

#include <cstdint>
#include <future>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bits/bitmatrix.hpp"
#include "bits/compare.hpp"
#include "core/snpcmp.hpp"
#include "obs/cost.hpp"
#include "obs/slo.hpp"
#include "rt/recovery.hpp"

namespace snp::svc {

/// What to do with a submit() that finds the pending queue full.
enum class AdmissionPolicy : std::uint8_t {
  kReject = 0,  ///< shed: submit() throws rt::Error(kOverload)
  kBlock,       ///< backpressure: submit() blocks until space frees up
};

[[nodiscard]] std::string_view to_string(AdmissionPolicy policy);
/// Parses "reject|block"; nullopt on anything else.
[[nodiscard]] std::optional<AdmissionPolicy> parse_admission_policy(
    std::string_view text);

struct ServiceConfig {
  /// "cpu" or a simulated GPU name ("gtx980", "titanv", "vega64").
  std::string device = "titanv";
  /// The comparison every request runs (one engine serves one workload).
  bits::Comparison op = bits::Comparison::kXor;
  /// AND-NOT only: store the database negated once at load and serve AND
  /// (the Eq. 3 simplification) — results stay bit-identical to AND-NOT
  /// against the raw database.
  bool pre_negate = false;

  /// Coalescing: the dispatcher batches up to this many pending queries
  /// into one A-operand per compare launch (the paper's batch width).
  std::size_t max_batch_rows = 32;
  /// After picking up the first query of a batch, keep the batch open
  /// this long for more arrivals (0 = dispatch whatever is already
  /// queued). Scripted/CI runs use 0 so batch formation is
  /// deterministic; the soak and bench explore nonzero windows.
  double coalesce_window_s = 0.0;

  /// Admission control: pending (not yet batched) requests are bounded.
  std::size_t max_queue = 256;
  AdmissionPolicy admission = AdmissionPolicy::kReject;

  /// Result cache keyed by (query-row hash, op, DB epoch); 0 disables.
  /// Counted in entries: each holds its gamma row as a PackedRow, about
  /// 1 B per database profile on FastID data, so size it against the DB.
  /// A row is cached on its query's second miss, never on its first: a
  /// table of one 8-B key per entry remembers the last miss in each slot.
  std::size_t cache_capacity = 1024;

  /// Default per-request recovery policy (a request class may override
  /// at submit()).
  rt::RecoveryOptions recovery;

  /// Construct paused: the dispatcher holds off until resume() — used by
  /// the scripted CLI driver and the admission-control tests to make
  /// batch formation deterministic.
  bool start_paused = false;

  /// Latency SLO for the burn-rate monitor. objective_s == 0 (the
  /// default) disables burn evaluation; the exemplar histogram behind
  /// slo() still accumulates so the report's approximate percentiles
  /// work without an objective.
  obs::SloOptions slo;

  /// Per-device circuit breaker for batch execution (failure_threshold
  /// = 0 disables): consecutive GPU failures open the circuit and
  /// subsequent batches fast-fail to the recovery ladder without paying
  /// another doomed device attempt (see rt::CircuitBreaker).
  rt::BreakerOptions breaker;

  /// Per-request-class retry budget: capacity of the token bucket every
  /// retry of that class must draw from (0 = unbounded, the default).
  /// Classes get independent buckets; a dry bucket turns retryable
  /// faults into immediate kExhausted fast-fails. A RecoveryOptions
  /// passed at submit() with its own budget wins over this default.
  double retry_budget = 0.0;
  /// Tokens credited back per successful operation (fractions
  /// accumulate; ordinal-driven, never wall-clock).
  double retry_budget_refill = 0.1;

  /// Brown-out: when the SLO burn-rate monitor trips, the dispatcher
  /// drops the coalescing window to zero and admission sheds every
  /// request whose class is <= this bound (lowest classes first, with
  /// kOverload) until both burn rates fall back under the trip
  /// threshold. The default (0) sheds only class <= 0 — the designated
  /// best-effort tier — while the default request class (1) stays
  /// admitted.
  int brownout_class_max = 0;
};

/// Per-submission options for submit().
struct SubmitOptions {
  /// Recovery-policy override for this request's class (engine default
  /// when unset). Requests of different classes never share a batch.
  std::optional<rt::RecoveryOptions> recovery;
  /// End-to-end deadline measured from submit(), in milliseconds.
  /// 0 = no deadline. Negative = already expired at submission: the
  /// submit throws rt::Error(kDeadline) immediately (counted as shed).
  /// NaN or infinite: submit throws std::invalid_argument. A finite
  /// budget beyond the steady clock's range never expires.
  /// A positive deadline is never checked at admission — expiry is
  /// enforced at batch formation (expired requests are shed with
  /// kDeadline before any launch), at chunk boundaries inside the
  /// compare pipeline via rt::CancelToken, and at delivery (late
  /// results are flagged, never dropped).
  double deadline_ms = 0.0;
  /// Request class: batching partition and the brown-out shed order
  /// (lowest sheds first). Default 1; class <= brownout_class_max is
  /// the best-effort tier.
  int request_class = 1;
  /// When non-null, receives the request's trace id as soon as it is
  /// allocated — before any possible throw.
  std::uint64_t* trace_out = nullptr;
};

/// One resolved query.
struct QueryResult {
  /// gamma row: result.row[j] = popc(op(query, db[j])) for every
  /// database profile j (Eqs. 1-3 restricted to one query row).
  std::vector<std::uint32_t> row;
  bool cache_hit = false;
  /// Batch this request rode in (0 for cache hits) and its width.
  std::uint64_t batch_id = 0;
  std::size_t batch_rows = 0;
  /// DB epoch the result was computed against.
  std::uint64_t epoch = 0;
  /// submit() -> delivery wall time.
  double latency_s = 0.0;
  /// True when the batch finished on the CPU degrade rung.
  bool degraded = false;
  /// True when the request carried a deadline and the result was
  /// delivered after it passed (late results are delivered and flagged,
  /// never silently dropped).
  bool deadline_expired = false;
  /// The request's process-unique trace id (allocated at submit();
  /// never 0 for an accepted request). The same id tags the request's
  /// spans, flight records and fault events.
  std::uint64_t trace_id = 0;
  /// What this request cost, attributed from its batch by gamma-row
  /// ownership (obs::CostLedger): exact integer shares of device-sim
  /// time, H2D/D2H bytes and popcounted words that sum bit-identically
  /// to the batch totals, plus measured queue-wait/service wall time.
  /// All-zero under SNPCMP_OBS=OFF or when attribution is disabled.
  obs::RequestCost cost;
};

/// Point-in-time service telemetry (also published as "svc.*" metrics).
/// Every field is a counter or a single value: the engine keeps no
/// per-request history, so its telemetry memory is fixed however many
/// requests it serves.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;    ///< requests whose batch errored
  std::uint64_t rejected = 0;  ///< admission sheds (kOverload)
  std::uint64_t batches = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t fault_events = 0;  ///< recovery incidents across batches
  std::uint64_t degraded_batches = 0;
  std::size_t max_batch_rows = 0;
  double mean_batch_rows = 0.0;
  std::size_t peak_queue_depth = 0;
  /// Submit -> delivery latency of completed requests. p50/p99 are the
  /// SLO monitor's bucket upper bounds (obs::percentile_le over
  /// Histogram::latency_bounds(), at most ~9.1% above the exact value
  /// between 100 ns and 10 s) capped at the exact max; all 0 before the
  /// first completion. The queue-wait / service-time split is published
  /// as the svc.queue.wait_seconds / svc.service.time_seconds histograms.
  double p50_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double max_latency_s = 0.0;
  std::uint64_t epoch = 1;
  /// SLO monitor readout (all zero when obs is compiled out or no
  /// requests have completed).
  std::uint64_t slo_breaches = 0;  ///< completions over the objective
  std::uint64_t slo_trips = 0;     ///< burn-rate trigger edges
  double slo_burn_fast = 0.0;
  double slo_burn_slow = 0.0;
  /// Deadline accounting (docs/robustness.md "Request lifecycle"):
  /// shed = expired before any launch (admission or batch formation),
  /// expired = completed but delivered late, met = completed in time.
  /// Only requests that carried a deadline are counted.
  std::uint64_t deadline_shed = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t deadline_met = 0;
  /// Brown-out accounting: trigger edges entered and requests shed by
  /// class while browned out.
  std::uint64_t brownout_entries = 0;
  std::uint64_t brownout_shed = 0;
  bool brownout_active = false;
};

/// Point-in-time SLO report from the engine's burn-rate monitor, which
/// records every completed request in every build. The percentiles are
/// honest bucket upper bounds over Histogram::latency_bounds()
/// (obs::SloMonitor::percentile_le): NaN when nothing was recorded, +inf
/// when the quantile fell in the overflow bucket; render with a '~'
/// marker.
struct SloReport {
  double objective_s = 0.0;  ///< 0 = burn evaluation disabled
  obs::SloSnapshot state;    ///< totals, breaches, burn rates, trips
  double p50_le_s = 0.0;
  double p99_le_s = 0.0;
  /// Per-bucket exemplars parallel to bounds (plus overflow): the last
  /// (latency, trace id) seen in each latency bucket.
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;
  std::vector<std::optional<obs::SloExemplar>> exemplars;
  /// Exemplar from the highest populated bucket — the trace id to chase
  /// when asking "which request was the outlier?".
  std::optional<obs::SloExemplar> worst;
};

/// Long-running, in-process query service over one resident database.
/// Thread-safe: submit()/stats()/update_database() may be called from
/// any number of client threads; a single dispatcher thread forms
/// batches and executes them itself, in submission order.
class ServiceEngine {
 public:
  /// Loads and packs `database` once (negated here when config.op is
  /// AND-NOT and config.pre_negate is set). Throws std::invalid_argument
  /// on an empty database or unknown device.
  ServiceEngine(bits::BitMatrix database, ServiceConfig config);
  /// Drains: every accepted request is resolved before destruction
  /// returns (shutdown never drops a future).
  ~ServiceEngine();
  ServiceEngine(const ServiceEngine&) = delete;
  ServiceEngine& operator=(const ServiceEngine&) = delete;

  /// Submits one query profile (a 1-row BitMatrix with the database's
  /// bit_cols). Returns a future resolved exactly once — with the gamma
  /// row, or with the rt::Error that killed this request's batch.
  /// Throws rt::Error(kOverload) when the queue is full under kReject or
  /// when brown-out sheds the request's class; blocks under kBlock;
  /// throws std::invalid_argument on shape mismatch, and
  /// rt::Error(kDeadline) for an already-expired deadline or when a
  /// kBlock admission wait outlives the deadline. `options` carries the
  /// request's recovery-class override (requests of different classes
  /// never share a batch), deadline, request class and trace-id
  /// out-parameter (see SubmitOptions); the trace id is written as soon
  /// as it is allocated — before any possible throw — so callers can
  /// correlate even shed/failed submissions with the flight recorder.
  [[nodiscard]] std::future<QueryResult> submit(
      const bits::BitMatrix& query, const SubmitOptions& options = {});

  /// Atomically swaps the resident database and bumps the epoch; every
  /// cached result is invalidated (the cache key carries the epoch, and
  /// the store is purged). In-flight batches finish against the epoch
  /// they were formed under. The new database must have the same
  /// bit_cols as the current one.
  void update_database(bits::BitMatrix database);
  [[nodiscard]] std::uint64_t epoch() const;

  /// Blocks until every request accepted so far is resolved. (Requests
  /// submitted concurrently with drain() may or may not be covered.)
  void drain();

  /// Dispatcher gate for deterministic batch formation: while paused,
  /// submissions queue up but no batch is formed. resume() releases the
  /// backlog — the dispatcher then coalesces it FIFO into
  /// max_batch_rows-wide batches.
  void pause();
  void resume();

  [[nodiscard]] ServiceStats stats() const;
  /// Snapshot of the engine's cost ledger (per-batch totals + exact
  /// per-request shares; see obs::CostLedger). Empty under
  /// SNPCMP_OBS=OFF or when attribution is disabled.
  [[nodiscard]] obs::CostSnapshot cost() const;
  /// The ledger's running totals and dropped counts, without its records.
  [[nodiscard]] obs::CostSnapshot cost_totals() const;
  /// Writes the ledger's deterministic JSON document (--cost-out).
  void write_cost_json(std::ostream& os) const;
  /// The burn-rate monitor's current state: approximate percentiles,
  /// burn rates, per-bucket exemplars. Cheap (one mutex + histogram
  /// copy); safe to call concurrently with submissions.
  [[nodiscard]] SloReport slo() const;
  [[nodiscard]] const ServiceConfig& config() const;
  /// Database profile count (the gamma row length).
  [[nodiscard]] std::size_t db_rows() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace snp::svc
