// snp::obs — request-scoped trace-context propagation.
//
// A TraceContext carries the trace id of the request (or other unit of
// work) the current thread is working on behalf of. Ids are allocated
// from a process-wide counter at the point of ingress (svc submit), are
// never reused, and id 0 means "no context". The context is a plain
// thread-local: installing one costs a pointer-sized store, reading one
// a pointer-sized load, so propagation stays on even when the rest of
// obs is compiled away — trace ids double as request identity in
// service results, not just telemetry.
//
// Propagation points:
//   - svc::ServiceEngine::submit() allocates the id;
//   - the svc dispatcher installs the batch root's context around the
//     batch it executes;
//   - exec::ThreadPool::post() captures the poster's context into the
//     queued task and the worker re-installs it around the task body,
//     which covers the helpers of every parallel_for;
//   - rt::with_retry stamps the ambient id into every FaultEvent and
//     flight-recorder fault/retry record;
//   - obs::Span snapshots the ambient id so every slice (svc.batch,
//     core.chunk.pack/execute/drain, ...) is taggable and flow-linkable
//     back to the originating request.
#pragma once

#include <cstdint>

namespace snp::obs {

/// The ambient unit-of-work identity. 0 = no context. `deadline_s`
/// carries the unit's remaining end-to-end budget at the point the
/// context was installed (0 = none) — a plain double, not an rt type,
/// because obs must not depend on rt; the svc dispatcher stamps it when
/// installing a batch root's context so downstream spans and dumps can
/// report how much budget a slice had left.
struct TraceContext {
  std::uint64_t trace_id = 0;
  double deadline_s = 0.0;
  [[nodiscard]] constexpr bool valid() const { return trace_id != 0; }
};

/// Allocates the next process-wide trace id (1, 2, 3, ...). Never
/// returns 0. Deterministic in allocation order, so single-threaded
/// submission scripts get reproducible ids.
[[nodiscard]] std::uint64_t next_trace_id();

/// The calling thread's current context ({0} when none installed).
[[nodiscard]] TraceContext current_trace();

/// RAII installer: saves the calling thread's context, installs `ctx`,
/// restores the saved context on destruction. Nests freely.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

}  // namespace snp::obs
