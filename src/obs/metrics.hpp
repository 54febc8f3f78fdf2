// snp::obs — process-wide metrics registry.
//
// The paper's methodology is measurement: microbenchmarked pipe latencies
// and throughputs feed an analytical model whose predictions are compared
// against achieved GOPS (Figs. 5-9). This module gives the runtime the
// same discipline — every subsystem publishes named counters, gauges, and
// fixed-bucket histograms into one registry, so a run can be accounted for
// in bytes, word-ops, and queue depths without ad-hoc printf timing.
//
// Hot-path contract: Counter/Gauge/Histogram updates are single relaxed
// atomic RMW operations — no locks, no allocation — so they are safe from
// worker threads of the exec pool and cheap enough for per-chunk (not
// per-word) call sites. Registration (name lookup) takes a mutex and is
// meant for cold paths; cache the returned reference:
//
//   static auto& packed = obs::MetricsRegistry::global()
//                             .counter("cpu.pack_a.words");
//   packed.add(panel_words);
//
// Handles returned by the registry live as long as the registry (node
// storage; the map never moves a metric). snapshot() copies a consistent
// point-in-time view for serialization (JSON / Prometheus text).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace snp::obs {

struct EnvInfo;

/// Monotonic event/byte/op count.
class Counter {
 public:
  void add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (queue depth, in-flight chunks, workers).
/// Tracks the high-water mark alongside the live value, since a snapshot
/// taken after a pipeline drains would otherwise always read 0.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    raise_peak(v);
  }
  void add(std::int64_t delta) {
    raise_peak(value_.fetch_add(delta, std::memory_order_relaxed) + delta);
  }
  void sub(std::int64_t delta) {
    value_.fetch_sub(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t peak() const {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  void raise_peak(std::int64_t v) {
    std::int64_t cur = peak_.load(std::memory_order_relaxed);
    while (v > cur &&
           !peak_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> peak_{0};
};

/// Fixed-bucket histogram: bounds are set at registration and immutable,
/// so observe() is a bucket search plus three relaxed atomics. Bucket i
/// counts observations <= bounds[i]; one overflow bucket catches the rest
/// (Prometheus "le" semantics, with +Inf implicit).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  /// Counts `v` and returns the index of the bucket it landed in
  /// (bounds().size() for the overflow bucket).
  std::size_t observe(double v);
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Sum of observed values (atomic CAS accumulation).
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }

  /// The one latency bucket layout, in seconds: the geometric grid
  /// 100 ns * 2^(i/8), eight buckets per octave, up to the first bound
  /// >= 10 s (214 bounds, built once per process). Adjacent bounds differ
  /// by a ratio of at most 2^(1/8), so for an exact quantile t in
  /// [100 ns, 10 s] the bucket-resolution percentile_le() reports a value
  /// in [t, 2^(1/8) t]: at most ~9.1% high, never low. Every registry
  /// latency histogram (SNP_OBS_OBSERVE) and the SLO monitor use it.
  [[nodiscard]] static const std::vector<double>& latency_bounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Honest bucket-resolution quantile: the upper bound ("le") of the
/// bucket holding the ceil-rank q-quantile of `count` observations — an
/// upper bound, not an interpolation, so presentation must carry a '~'
/// or "approx":true marker. Returns +inf when the quantile lands past the
/// last bound, NaN when count is 0. Reads only the first
/// min(bounds.size(), counts.size()) buckets, so it is safe on parsed,
/// untrusted documents whose arrays disagree in length.
[[nodiscard]] double percentile_le(std::span<const double> bounds,
                                   std::span<const std::uint64_t> counts,
                                   std::uint64_t count, double q);

/// Point-in-time copy of every registered metric, safe to serialize while
/// the hot path keeps mutating the live registry.
struct MetricsSnapshot {
  struct HistogramView {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 entries
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, std::int64_t> gauge_peaks;
  std::map<std::string, HistogramView> histograms;
};

class MetricsRegistry {
 public:
  /// The process-wide registry every subsystem publishes into.
  [[nodiscard]] static MetricsRegistry& global();

  /// Finds or creates; the reference stays valid for the registry's
  /// lifetime. Name convention: "<subsystem>.<object>.<unit-ish>"
  /// (e.g. "exec.pool.tasks_run", "core.h2d.bytes").
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// `bounds` must be strictly increasing; ignored (with the original
  /// bounds kept) when the histogram already exists.
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     std::vector<double> bounds);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Drops every metric. Tests only — outstanding references dangle.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Serializes a snapshot as a single JSON object:
///   {"counters": {..}, "gauges": {..}, "gauge_peaks": {..},
///    "histograms": {name: {"bounds": [..], "counts": [..],
///                          "count": n, "sum": s,
///                          "percentiles": {"p50_le": x, "p90_le": y,
///                                          "p99_le": z, "approx": true}}}}
/// Percentile values are bucket upper bounds (see
/// obs::percentile_le), hence the explicit "approx" flag.
void write_metrics_json(const MetricsSnapshot& snap, std::ostream& os);

/// Escapes a Prometheus label value per the text exposition format:
/// backslash, double quote, and newline become \\, \", and \n. Used for
/// the snpcmp_build_info labels (env strings are uncontrolled input).
[[nodiscard]] std::string prom_escape_label(std::string_view s);

/// Prometheus text exposition format (metric names sanitized to
/// [a-zA-Z0-9_] with a "snpcmp_" prefix; histograms as cumulative
/// _bucket{le=...} series plus _count and _sum). Conformance details
/// pinned by tests/test_obs.cpp:
///  * every family emits `# HELP` then `# TYPE` then its samples;
///  * non-finite values render as NaN / +Inf / -Inf (never inf/nan);
///  * a snpcmp_build_info gauge (value 1) carries the environment as
///    escaped labels — the standard join-key idiom for provenance.
/// The two-argument form collects the live environment; pass EnvInfo
/// explicitly for byte-stable output (golden tests).
void write_metrics_prometheus(const MetricsSnapshot& snap, std::ostream& os);
void write_metrics_prometheus(const MetricsSnapshot& snap,
                              const EnvInfo& env, std::ostream& os);

}  // namespace snp::obs
