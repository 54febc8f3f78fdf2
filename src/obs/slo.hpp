// snp::obs — SLO burn-rate monitor.
//
// Classic multi-window burn-rate alerting (SRE workbook style) over a
// per-class latency objective: every completed request is classified as
// within/over the objective, aggregated into small fixed-width time
// buckets, and two rolling windows — fast (default 1 s, catches sharp
// regressions) and slow (default 30 s, catches sustained burn) — are
// evaluated as
//
//   burn rate = (breach fraction over the window) / error budget
//
// so burn 1.0 means "spending budget exactly as fast as allowed",
// burn >= breach_burn_rate on BOTH windows trips the breach trigger
// (edge-detected), which the service uses to take a flight-recorder
// dump while the evidence is still in the rings.
//
// Latency record: every recorded request also lands in an obs::Histogram
// over Histogram::latency_bounds() (the one latency grid; quantiles at
// most ~9.1% high between 100 ns and 10 s), so the monitor's memory is
// fixed no matter how many requests it has seen. The service engine
// feeds it on every completion, in every build, and reads its stats()
// percentiles from it. Exemplars: each bucket also retains the most
// recent trace id observed in it — so "which request was that 250 ms
// outlier?" is answerable straight from the report.
//
// Thread safety: record()/snapshot() are mutex-protected; the monitor
// sits on the service's per-request completion path (thousands of QPS,
// not per-word), where a short critical section is fine.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"

namespace snp::obs {

struct SloOptions {
  double objective_s = 0.0;        ///< latency objective; 0 = no objective
  double error_budget = 0.01;      ///< allowed breach fraction (99% SLO)
  double fast_window_s = 1.0;      ///< sharp-regression window
  double slow_window_s = 30.0;     ///< sustained-burn window
  double breach_burn_rate = 10.0;  ///< trigger when both windows >= this
};

/// Point-in-time SLO state. Burn rates are 0 when the window is empty.
struct SloSnapshot {
  std::uint64_t total = 0;     ///< requests recorded
  std::uint64_t breaches = 0;  ///< requests over the objective
  double burn_fast = 0.0;
  double burn_slow = 0.0;
  std::uint64_t trips = 0;  ///< times the breach trigger edge fired
};

/// Per-bucket exemplar: the latest observation that landed in a latency
/// bucket, with the request that produced it.
struct SloExemplar {
  double latency_s = 0.0;
  std::uint64_t trace_id = 0;
};

class SloMonitor {
 public:
  explicit SloMonitor(SloOptions options);

  /// Records one completed request. Returns true when this observation
  /// tripped the breach trigger (both windows crossed breach_burn_rate,
  /// edge-detected — re-arms once burn drops below the threshold).
  /// Always feeds the exemplar histogram; burn-rate evaluation needs a
  /// nonzero objective.
  bool record(double latency_s, std::uint64_t trace_id);

  [[nodiscard]] SloSnapshot snapshot() const;
  [[nodiscard]] const SloOptions& options() const { return options_; }

  /// Histogram bounds / counts / per-bucket exemplars (one entry per
  /// bound plus overflow; exemplar is nullopt for untouched buckets).
  [[nodiscard]] const std::vector<double>& bounds() const {
    return hist_.bounds();
  }
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::vector<std::optional<SloExemplar>> exemplars() const;

  /// Honest bucket-resolution percentile over the recorded latencies
  /// (obs::percentile_le): upper bound of the quantile's bucket (+inf in
  /// overflow, NaN when empty). Present with a '~' marker.
  [[nodiscard]] double percentile_le(double q) const;

 private:
  struct Bucket {
    std::int64_t index = 0;  ///< time bucket number (ts / width)
    std::uint64_t total = 0;
    std::uint64_t breaches = 0;
  };

  /// Breach fraction over the trailing `window_s`, divided by the error
  /// budget. Caller holds mu_.
  [[nodiscard]] double burn_rate_locked(double now_s, double window_s) const;
  void prune_locked(double now_s);

  SloOptions options_;
  const double bucket_width_s_;

  mutable std::mutex mu_;
  std::deque<Bucket> window_;  ///< trailing slow_window_s of time buckets
  Histogram hist_;             ///< every recorded latency; count() = total
  std::vector<std::optional<SloExemplar>> hist_exemplars_;
  std::uint64_t breaches_ = 0;
  std::uint64_t trips_ = 0;
  bool armed_ = true;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace snp::obs
