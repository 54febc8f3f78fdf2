// snp::obs — RAII scoped spans and the unified trace collector.
//
// A Span marks a scope on the wall clock; on destruction it appends one
// complete Chrome Trace Event ("ph": "X") to a TraceCollector. Spans nest
// naturally: a thread-local depth counter tracks the open-span stack so
// collectors (and tests) can verify containment, and Perfetto renders
// same-thread nesting automatically from the duration intervals.
//
// The TraceCollector is the single funnel every trace source in the
// framework feeds: host spans (this module), the simulated device
// timeline, and the chunk pipeline's per-stage host events (both adapted
// in sim/trace.hpp) all become TraceEvents and share one JSON emitter —
// one merged, Perfetto-loadable file per run instead of the historical
// two disjoint writers.
//
// Cost model: the collector is disabled by default; a disabled collector
// makes Span construction two steady_clock-free atomic loads. When
// enabled, each span costs two clock reads and one mutex-protected
// append. Compile with SNPCMP_OBS=OFF (see obs/obs.hpp) to remove the
// macro call sites entirely.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace snp::obs {

/// One complete Chrome Trace Event Format slice. `pid` groups tracks
/// (process rows in Perfetto); `tid` is the track within the group.
/// Convention used by the merged trace: pid 0 = simulated device engines,
/// pid 1 = host threads (spans), pid 2 = host pipeline stages.
///
/// A slice may additionally carry request-trace linkage: `trace_id` tags
/// the slice (emitted into "args" for grep/conformance), and a nonzero
/// `flow_id` makes the emitter append a Perfetto flow record ("ph"
/// "s"/"t"/"f", chained by `flow_id`) bound to the slice start, so all
/// work done on behalf of one request is drawn as one arrow chain. An
/// event with `dur_us == 0` and a nonzero `flow_id` is emitted as an
/// instant ("ph" "i") plus its flow record — the submit/resolve
/// endpoints of a request chain; flowless zero-duration events are still
/// dropped (e.g. empty transfers).
struct TraceEvent {
  std::string name;
  std::uint32_t pid = 1;
  std::uint32_t tid = 0;
  double ts_us = 0.0;   ///< slice start, microseconds
  double dur_us = 0.0;  ///< slice duration, microseconds
  int depth = 0;        ///< open-span nesting depth at slice start
  std::uint64_t trace_id = 0;  ///< originating request (0 = none)
  std::uint64_t flow_id = 0;   ///< flow chain id (0 = not on a flow)
  char flow_phase = 0;         ///< 's' start | 't' step | 'f' finish
};

/// Named track label: emitted as thread_name metadata so Perfetto shows
/// "h2d copy (titanv)" instead of "tid 1".
struct TrackLabel {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::string name;
};

/// Shared Trace Event Format emitter: metadata records for `tracks`, then
/// one "X" (or, for flow endpoints, "i") event per TraceEvent, then the
/// flow records ("s"/"t"/"f") of every flow-carrying event, sorted by
/// timestamp so each chain's arrows read start -> steps -> finish. Every
/// trace writer in the framework (simulated timeline, host pipeline,
/// spans, merged) funnels through this, so the JSON dialect is defined in
/// exactly one place.
void write_trace_events(std::span<const TrackLabel> tracks,
                        std::span<const TraceEvent> events,
                        std::ostream& os);

/// Thread-safe append-only event sink with a process-wide instance.
/// Disabled by default: record() is dropped (and Span skips its clock
/// reads) until set_enabled(true), so library users who never ask for a
/// trace never pay for one or grow one.
class TraceCollector {
 public:
  [[nodiscard]] static TraceCollector& global();
  /// Standalone collectors are for tests; production spans record into
  /// global() via the SNP_OBS_SPAN macro.
  TraceCollector();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void record(TraceEvent ev);
  /// Records a zero-duration flow endpoint ("ph" "i" + flow record) at
  /// the current session time on the calling thread's host track:
  /// phase 's' opens a request's flow chain (submit), 'f' closes it
  /// (resolve). No-op while disabled.
  void instant(std::string name, std::uint64_t flow_id, char flow_phase);
  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t size() const;
  /// Clears events and re-zeroes the timestamp epoch: spans recorded after
  /// begin_session() have ts_us relative to this call — the natural "t=0
  /// is when the command started" origin for per-run traces.
  void begin_session();

  /// Microseconds since the collector epoch (begin_session, or collector
  /// construction before the first session).
  [[nodiscard]] double now_us() const;

  /// Small dense id for the calling thread (0, 1, 2, ... in first-use
  /// order) — the merged trace's host-thread track index.
  [[nodiscard]] static std::uint32_t thread_track();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII scope marker. Records into TraceCollector::global() (the only
/// collector the macros use; pass another explicitly for tests).
class Span {
 public:
  explicit Span(std::string name,
                TraceCollector& collector = TraceCollector::global());
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Open-span nesting depth of the calling thread (0 = no span open).
  [[nodiscard]] static int current_depth();

 private:
  TraceCollector& collector_;
  std::string name_;
  double start_us_ = 0.0;
  int depth_ = 0;
  std::uint64_t trace_id_ = 0;
  bool active_ = false;
};

}  // namespace snp::obs
