// snp::obs — per-request cost ledger.
//
// The serving path batches many client queries into one core::compare
// launch, so the raw telemetry (device-sim seconds, H2D/D2H bytes,
// popcounted words) is naturally *per batch*. The ledger re-attributes
// those batch totals to the individual requests riding the batch, split
// by gamma-row ownership: request i owns the rows of the batched A
// operand it contributed, so it owns the same fraction of every cost
// axis. The streaming-GEMM literature the ROADMAP leans on wins by
// decomposing wall time into overlappable stages; this is the request-
// level ledger that makes the same decomposition answerable per query
// ("what did this request cost, and where?").
//
// Exactness contract (conformance-tested in tests/test_cost.cpp): the
// per-request shares of every integer cost axis sum *bit-identically*
// to the owning batch's totals. Floating-point splitting cannot promise
// that (rounded per-share values do not telescope), so the ledger's
// unit of account is integer nanoseconds / bytes / word-ops: batch
// totals are quantized once (quantize_cost_ns) and then divided by
// exact integer telescoping (split_exact) — share i is
// floor(total*C[i+1]/W) - floor(total*C[i]/W) over the cumulative
// weight prefix C, computed in 128-bit arithmetic, so the shares
// telescope to exactly `total` for any weights. Doubles appear only at
// presentation time.
//
// Determinism: device-sim time, bytes and word-ops are functions of the
// virtual clock, so under a scripted serve run (deterministic batch
// formation) the attributed costs — and the --cost-out JSON — are
// byte-identical across runs. Wall-clock fields (queue wait, service
// time) are measured, not simulated; they are kept out of the
// deterministic JSON document.
//
// The ledger compiles to nothing under SNPCMP_OBS=OFF like the rest of
// the obs stack (call sites are gated on obs::kEnabled); the runtime
// kill switch (set_attribution_enabled) exists so
// bench/abl_obs_overhead can price the always-on attribution cost the
// way it prices the flight recorder.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <span>
#include <vector>

namespace snp::obs {

/// What one request cost, attributed from its batch by row ownership.
/// Integer fields are exact shares (see split_exact); the two wall-clock
/// fields at the bottom are measured and therefore nondeterministic.
struct RequestCost {
  std::uint64_t trace_id = 0;
  std::uint64_t batch_id = 0;     ///< 0 for cache hits (no batch ridden)
  std::uint32_t batch_width = 0;  ///< requests in the owning batch
  std::uint64_t rows = 0;         ///< gamma rows this request contributed
  std::uint64_t epoch = 0;        ///< DB epoch the result was computed at
  bool cache_hit = false;
  bool degraded = false;   ///< owning batch finished on the CPU rung
  std::uint32_t retries = 0;    ///< recovery surcharge: batch retry count
  std::uint32_t failovers = 0;  ///< recovery surcharge: shard failovers
  std::uint64_t device_ns = 0;  ///< share of batched compute-engine time
  std::uint64_t h2d_ns = 0;     ///< share of copy-engine host->device time
  std::uint64_t d2h_ns = 0;     ///< share of copy-engine device->host time
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t wordops = 0;  ///< share of 32-bit words popcounted
  // -- measured wall clock (excluded from the deterministic JSON) ----------
  std::uint64_t queue_wait_ns = 0;  ///< enqueue -> batch formation
  std::uint64_t service_ns = 0;     ///< batch formation -> resolution
};

/// One batch's quantized cost totals — the thing the request shares must
/// sum back to, bit-identically.
struct BatchCostTotals {
  std::uint64_t batch_id = 0;
  std::uint32_t width = 0;  ///< requests coalesced into the batch
  std::uint64_t rows = 0;   ///< total gamma rows (== A-operand rows)
  std::uint64_t epoch = 0;
  bool degraded = false;
  std::uint32_t retries = 0;
  std::uint32_t failovers = 0;
  std::uint64_t device_ns = 0;
  std::uint64_t h2d_ns = 0;
  std::uint64_t d2h_ns = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t wordops = 0;
};

/// Quantizes a seconds value to the ledger's integer-nanosecond unit of
/// account (round-to-nearest; negative and non-finite inputs clamp to 0).
[[nodiscard]] std::uint64_t quantize_cost_ns(double seconds);

/// Splits `total` across `weights` exactly: returns shares such that
/// shares[i] is proportional to weights[i] (each off by at most one unit
/// from the real-valued split) and the shares sum bit-identically to
/// `total`. Zero-weight entries receive 0. Preconditions: when total > 0
/// the weights must not all be zero (the split would be undefined);
/// empty weights return an empty vector.
[[nodiscard]] std::vector<std::uint64_t> split_exact(
    std::uint64_t total, std::span<const std::uint64_t> weights);

/// Attributes a batch's totals to its member requests by row ownership.
/// `trace_ids[i]` / `rows_owned[i]` describe member i (spans must have
/// equal length == batch.width). Every integer axis of the returned
/// costs sums exactly to the batch totals; queue/service wall fields are
/// left zero for the caller to fill.
[[nodiscard]] std::vector<RequestCost> attribute_batch(
    const BatchCostTotals& batch, std::span<const std::uint64_t> trace_ids,
    std::span<const std::uint64_t> rows_owned);

/// Point-in-time copy of a ledger's records plus running totals.
struct CostSnapshot {
  std::vector<BatchCostTotals> batches;  ///< in execution order, FIFO-capped
  std::vector<RequestCost> requests;     ///< in recording order, FIFO-capped
  std::uint64_t dropped_batches = 0;     ///< evicted past kMaxRequests
  std::uint64_t dropped_requests = 0;    ///< evicted past kMaxRequests
  // Running totals over everything ever recorded (never evicted).
  std::uint64_t total_batches = 0;
  std::uint64_t total_requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t device_ns = 0;
  std::uint64_t h2d_ns = 0;
  std::uint64_t d2h_ns = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t wordops = 0;
  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;
  std::uint64_t degraded_batches = 0;
};

/// Thread-safe per-engine cost store. The recording paths are cold
/// relative to the kernel (once per batch / once per cache hit), so a
/// mutex is the right tool; the hot-path question is answered by the
/// paired A/B arm in bench/abl_obs_overhead.
///
/// Records are kept encoded, each fact once (cost.cpp has the format): a
/// batch record keeps the batch's totals and its members' weight sum, a
/// member's record only its trace id, row weight, the weight before it in
/// its batch and its wall fields, and a cache hit's its trace id, epoch
/// and wall fields. snapshot() and write_json() rebuild every other field
/// from the batch, so they give back exactly what was recorded.
class CostLedger {
 public:
  /// Bounded retention: per-request records and per-batch totals beyond
  /// this many each are evicted FIFO (counted in dropped_requests /
  /// dropped_batches). Every batch the engine records holds at least one
  /// request, so a retained request's batch is retained too; a member
  /// whose batch was evicted (possible only after batches recorded with
  /// no members) reads its batch's fields as 0.
  static constexpr std::size_t kMaxRequests = 1U << 16U;

  /// Process-wide runtime kill switch for attribution (the compile-time
  /// one is SNPCMP_OBS=OFF). Used by bench/abl_obs_overhead to price
  /// the always-on cost; production leaves it on.
  [[nodiscard]] static bool attribution_enabled() {
    return attribution_enabled_.load(std::memory_order_relaxed);
  }
  static void set_attribution_enabled(bool on) {
    attribution_enabled_.store(on, std::memory_order_relaxed);
  }

  /// Records one executed batch and its attributed member costs (spans
  /// the caller got from attribute_batch, wall fields filled in; their
  /// batch-derived fields are re-derived, not stored).
  void record_batch(const BatchCostTotals& batch,
                    std::span<const RequestCost> costs);
  /// Records one cache-hit shortcut: its trace id, epoch and wall fields
  /// (a hit rides no batch, so every other field reads 0).
  void record_cache_hit(const RequestCost& cost);

  [[nodiscard]] CostSnapshot snapshot() const;
  /// The running totals and dropped counts of snapshot(), without its
  /// records (batches and requests are empty).
  [[nodiscard]] CostSnapshot totals() const;
  /// Drops all records and totals (tests / epoch-scoped accounting).
  void clear();

  /// Deterministic JSON document {"cost":1,...}: totals, batches, and
  /// per-request integer shares. Wall-clock fields are omitted so the
  /// document is byte-identical across scripted replays.
  void write_json(std::ostream& os) const;

 private:
  /// What the delta-coded fields of a log's next record are taken from:
  /// the values of the record before it.
  struct Bases {
    std::uint64_t batch_id = 0;  ///< of the batch record before
    std::uint64_t trace_id = 0;  ///< of the request record before
    /// Ordinal (1-based, in recording order) of the batch the member
    /// record before rode; 0 before the first member.
    std::uint64_t ordinal = 0;
  };
  /// A copy of the logs taken under the mutex, decoded outside it.
  struct Reader;
  [[nodiscard]] Reader read() const;
  void evict_locked();

  static std::atomic<bool> attribution_enabled_;

  mutable std::mutex mu_;
  std::deque<std::uint8_t> batch_log_;
  std::deque<std::uint8_t> request_log_;
  Bases head_;  ///< for the oldest retained records: the last evicted
  Bases tail_;  ///< for the next records appended: the newest
  CostSnapshot totals_;  ///< only the counter fields are used
};

}  // namespace snp::obs
