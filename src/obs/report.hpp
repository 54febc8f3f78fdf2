// snp::obs — offline pipeline bottleneck analyzer (`snpcmp report`).
//
// The paper's Section VI argument is an accounting identity: achieved
// GOPS is explained by which pipe (PCIe H2D, kernel, D2H) saturates and
// how much of the transfer time double buffering hides behind compute.
// This module closes the loop on our own telemetry the same way: it
// ingests the artifacts a run already writes — the merged Perfetto trace
// (--trace-out), the metrics snapshot (--metrics-out JSON), and
// optionally the cost ledger (--cost-out) — and reduces them to the
// handful of numbers that say where the time went:
//
//   * per-track busy time and utilization over the trace span, so the
//     bottleneck engine is the first line read, not a Perfetto session;
//   * overlap efficiency: how much of the transfer time that could hide
//     behind compute actually did (1.0 = ideal pipelining, 0.0 = fully
//     serial), from the pid-0 device tracks;
//   * coalescing efficiency: achieved mean batch width over the
//     configured maximum (svc.batch.rows / svc.batches vs
//     svc.config.max_batch_rows);
//   * queue-wait vs service-time decomposition of request latency, from
//     the split svc.queue.wait_seconds / svc.service.time_seconds
//     histograms;
//   * a Little's-law consistency check: the dispatcher's queue-depth
//     time integral (svc.queue.depth_time_us) must equal the sum of
//     per-request queue waits — both sides are integrals of the same
//     step function, so disagreement beyond tolerance means the
//     telemetry itself is broken (lost requests, clock misuse);
//   * the top-N most expensive requests by attributed device time, from
//     the cost ledger document.
//
// Everything here is offline and deterministic: same input files, same
// report bytes. The JSON reader is a deliberately tiny recursive-descent
// parser (jsonlite) — enough for the three documents we emit ourselves,
// with strict error positions; it is not a general-purpose JSON library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace snp::obs::jsonlite {

/// Parsed JSON value. Object member order is preserved (the writers emit
/// deterministic order; the parser keeps it so round-trip tests can diff
/// bytes). Numbers are doubles — the documents we parse keep integers
/// within the 2^53 exact range except trace/cost ids, which are re-read
/// via u64() from the raw token to stay exact.
struct Value {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;  ///< string value, or the raw token of a number
  std::vector<Value> items;                            ///< array
  std::vector<std::pair<std::string, Value>> members;  ///< object

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// number value, or `fallback` when absent / not a number.
  [[nodiscard]] double num_or(std::string_view key, double fallback) const;
  /// Exact unsigned 64-bit read from the raw number token (doubles lose
  /// trace ids above 2^53); a positive fractional token rounds.
  /// `fallback` on absence, a non-number, any other non-integer token,
  /// or a value of 2^64 or more.
  [[nodiscard]] std::uint64_t u64_or(std::string_view key,
                                     std::uint64_t fallback) const;
  /// string value, or `fallback` when absent / not a string.
  [[nodiscard]] std::string_view str_or(std::string_view key,
                                        std::string_view fallback) const;
};

/// Parses one JSON document. Throws std::runtime_error with a byte
/// offset on malformed input, trailing garbage, or nesting deeper than
/// 64 arrays and objects.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace snp::obs::jsonlite

namespace snp::obs {

/// Busy time of one trace track (unique pid/tid) over the trace span.
struct TrackUtilization {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::string name;     ///< thread_name metadata, or "pid<p>/tid<t>"
  double busy_us = 0.0;  ///< sum of "X" slice durations on this track
  double utilization = 0.0;  ///< busy / trace span (0 when span is 0)
  std::uint64_t slices = 0;
};

/// One request row from the cost ledger document, ranked by attributed
/// device time (kernel + transfer shares).
struct ExpensiveRequest {
  std::uint64_t trace_id = 0;
  std::uint64_t batch_id = 0;
  std::uint64_t device_ns = 0;
  std::uint64_t h2d_ns = 0;
  std::uint64_t d2h_ns = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t wordops = 0;
  std::uint32_t retries = 0;
  std::uint32_t failovers = 0;
  bool cache_hit = false;
  bool degraded = false;
};

/// Little's-law consistency verdict. Both sides are integrals of the
/// same pending-queue step function — the dispatcher's depth-time
/// accumulator and the sum of per-request waits use the same enqueue and
/// batch-formation timestamps — so on a quiescent (drained) snapshot
/// they agree to integer-microsecond rounding. A relative error beyond
/// tolerance flags broken telemetry, not a slow service.
struct LittlesCheck {
  bool evaluated = false;  ///< inputs present (wait histogram + gauge)
  bool pass = false;
  double wait_sum_s = 0.0;        ///< Σ per-request queue waits (= λ·W·T)
  double depth_integral_s = 0.0;  ///< ∫ queue depth dt (gauge, µs→s)
  double rel_error = 0.0;
  double tolerance = 0.0;
  /// Presentation-side rates over the trace span (0 without a span):
  double lambda_per_s = 0.0;    ///< arrivals / span
  double mean_wait_s = 0.0;     ///< W
  double mean_depth = 0.0;      ///< depth integral / span
};

/// The analyzer's full output; see analyze_pipeline().
struct PipelineReport {
  // -- trace-derived --
  std::uint64_t trace_events = 0;
  double span_us = 0.0;  ///< max(ts+dur) − min(ts) over all slices
  std::vector<TrackUtilization> tracks;  ///< sorted by (pid, tid)
  bool has_device_tracks = false;        ///< any pid-0 slices seen
  double device_serial_us = 0.0;    ///< Σ busy over device engines
  double device_makespan_us = 0.0;  ///< extent of the pid-0 timeline
  double device_ideal_us = 0.0;     ///< max per-engine busy (perfect overlap)
  /// (serial − makespan) / (serial − ideal), clamped to [0,1]: the
  /// fraction of hideable time actually hidden. 1.0 when nothing was
  /// hideable (single engine active).
  double overlap_efficiency = 0.0;

  // -- metrics-derived --
  std::uint64_t batches = 0;
  std::uint64_t batched_rows = 0;
  std::int64_t max_batch_rows = 0;  ///< svc.config.max_batch_rows gauge
  double mean_batch_rows = 0.0;
  /// mean batch width / configured max width (0 when unknown).
  double coalescing_efficiency = 0.0;

  std::uint64_t wait_count = 0;  ///< requests in the wait histogram
  double mean_wait_s = 0.0;
  double p99_wait_le_s = 0.0;  ///< bucket upper bound (approx)
  double mean_service_s = 0.0;
  double p99_service_le_s = 0.0;
  /// mean wait / (mean wait + mean service): how much of a request's
  /// latency was spent queued rather than being served.
  double wait_share = 0.0;

  LittlesCheck littles;

  // -- cost-ledger-derived (empty without --cost) --
  bool has_cost = false;
  std::uint64_t cost_requests = 0;
  std::uint64_t cost_dropped = 0;
  std::vector<ExpensiveRequest> top_requests;  ///< ≤ top_n, by device time
};

struct ReportOptions {
  std::size_t top_n = 5;
  /// Little's-check relative-error tolerance. The identity is exact up
  /// to per-request integer-µs gauge rounding, but a default with slack
  /// keeps the check meaningful on snapshots taken mid-drain.
  double littles_tolerance = 0.10;
};

/// Reduces a merged trace document (the --trace-out array) and a metrics
/// snapshot document (the --metrics-out object) — plus, optionally, a
/// cost ledger document (--cost-out) — to a PipelineReport. Throws
/// std::runtime_error when `trace` is not an array or `metrics` is not
/// an object; absent metrics leave the corresponding sections zeroed.
[[nodiscard]] PipelineReport analyze_pipeline(
    const jsonlite::Value& trace, const jsonlite::Value& metrics,
    const jsonlite::Value* cost = nullptr, const ReportOptions& opts = {});

/// Renders the human-readable report block (the `snpcmp report` output).
/// Deterministic: fixed ordering, fixed formatting.
void write_pipeline_report(const PipelineReport& report, std::ostream& os);

}  // namespace snp::obs
