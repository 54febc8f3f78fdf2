// Chrome-trace export of simulated execution timelines.
//
// Writes a Timeline (init + per-chunk h2d / kernel / d2h intervals) as a
// Trace Event Format JSON array, loadable in chrome://tracing or Perfetto,
// with one track per engine. This is how you *see* double buffering doing
// its job — upload bars sliding under kernel bars — and what we used to
// sanity-check the Fig. 6/8 pipelines.
//
// All writers here are thin adapters over the single shared emitter in
// obs/span.hpp (obs::write_trace_events): they convert their source —
// simulated Timeline, per-chunk HostChunkEvents, collected obs::Spans —
// into obs::TraceEvents on the canonical pid/tid tracks and emit one
// consistent JSON dialect. write_merged_chrome_trace combines all three
// sources into one file: pid 0 = simulated device engines (virtual
// clock), pid 1 = host threads (span wall clock), pid 2 = host pipeline
// stages (wall clock since the compare started).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>

#include "obs/span.hpp"
#include "sim/transfer.hpp"

namespace snp::sim {

/// Emits `tl` as Trace Event Format JSON. Timestamps are microseconds on
/// the virtual clock; tracks: init(0), h2d(1), kernel(2), d2h(3).
void write_chrome_trace(const Timeline& tl, std::ostream& os,
                        const std::string& device_name = "simulated GPU");

/// Convenience: render to a string (tests, small timelines).
[[nodiscard]] std::string chrome_trace_json(
    const Timeline& tl, const std::string& device_name = "simulated GPU");

/// One chunk of a host-driven compare() pipeline, as recorded in
/// TimingReport::chunk_events: the simulated device intervals of the
/// chunk's h2d / kernel / d2h commands (virtual clock), plus the real
/// host wall-clock intervals of its pack -> execute -> drain stages
/// (seconds since the call started).
struct HostChunkEvent {
  std::size_t index = 0;
  std::size_t row0 = 0;  ///< first streamed row of the chunk
  std::size_t rows = 0;
  // Simulated virtual-clock intervals.
  double h2d_start = 0.0, h2d_end = 0.0;
  double kernel_start = 0.0, kernel_end = 0.0;
  double d2h_start = 0.0, d2h_end = 0.0;
  // Real host wall-clock of the chunk's stages.
  double host_pack_start = 0.0, host_pack_end = 0.0;
  double host_exec_start = 0.0, host_exec_end = 0.0;
  double host_drain_start = 0.0, host_drain_end = 0.0;
};

/// Emits the *host* pipeline of a functional compare() as Trace Event
/// Format JSON: tracks pack(0), execute(1), drain(2), wall-clock
/// microseconds. This is the measured counterpart of write_chrome_trace's
/// simulated timeline: where each chunk's host wall time went.
void write_host_chrome_trace(std::span<const HostChunkEvent> chunks,
                             std::ostream& os,
                             const std::string& label = "host pipeline");

[[nodiscard]] std::string host_chrome_trace_json(
    std::span<const HostChunkEvent> chunks,
    const std::string& label = "host pipeline");

/// The unified per-run trace: one Chrome-trace JSON covering
///   pid 0 — the simulated device timeline `tl` (pass nullptr when the run
///           had none, e.g. CPU contexts), virtual-clock microseconds;
///   pid 1 — host spans collected in `spans` (one track per real thread),
///           wall-clock microseconds since the collector session began;
///   pid 2 — the chunk pipeline's pack/execute/drain stage view from
///           `chunks`, wall-clock microseconds since compare() started.
/// `host_anchor_us` is the session-clock time at which the compare
/// started (TimingReport::trace_anchor_us): pid-0 and pid-2 timestamps
/// are shifted by it so all three pids share the span clock's origin —
/// required for the cross-pid flow arrows (request chains) to stay
/// monotone. Pass 0 to keep each source on its native origin (legacy
/// layout; flow arrows between pids may then point backwards).
void write_merged_chrome_trace(const obs::TraceCollector& spans,
                               const Timeline* tl,
                               std::span<const HostChunkEvent> chunks,
                               std::ostream& os,
                               const std::string& device_name,
                               double host_anchor_us = 0.0);

[[nodiscard]] std::string merged_chrome_trace_json(
    const obs::TraceCollector& spans, const Timeline* tl,
    std::span<const HostChunkEvent> chunks,
    const std::string& device_name, double host_anchor_us = 0.0);

}  // namespace snp::sim
