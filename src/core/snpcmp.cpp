#include "core/snpcmp.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "analyze/analyzer.hpp"
#include "cpu/engine.hpp"
#include "exec/task_graph.hpp"
#include "exec/thread_pool.hpp"
#include "kern/gpu_kernel.hpp"
#include "model/peak.hpp"
#include "obs/obs.hpp"
#include "rt/fault.hpp"
#include "sim/roofline.hpp"
#include "sim/transfer.hpp"
#include "stats/forensic.hpp"
#include "stats/ld.hpp"

namespace snp {

namespace {

using bits::BitMatrix;
using bits::Comparison;
using bits::CountMatrix;

model::WorkloadKind workload_for(std::size_t m_rows, std::size_t n_rows,
                                 const model::GpuSpec& dev) {
  // FastID shapes have a tiny query side against a huge database; LD
  // shapes are square-ish. Pick the Table II preset accordingly.
  const std::size_t small = std::min(m_rows, n_rows);
  const std::size_t large = std::max(m_rows, n_rows);
  const auto query_like = 4 * static_cast<std::size_t>(dev.banks);
  return (small <= query_like && large > 8 * small)
             ? model::WorkloadKind::kFastId
             : model::WorkloadKind::kLd;
}

void check_operands(const BitMatrix& a, const BitMatrix& b, Comparison op,
                    const ComputeOptions& options) {
  if (a.bit_cols() != b.bit_cols()) {
    throw std::invalid_argument(
        "compare: operands must share the K (bit) dimension");
  }
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("compare: empty operand");
  }
  if (options.pre_negate && op != Comparison::kAndNot) {
    throw std::invalid_argument(
        "compare: pre_negate only applies to AND-NOT (Eq. 3)");
  }
  if (!options.keep_counts && options.functional &&
      !options.chunk_callback) {
    throw std::invalid_argument(
        "compare: keep_counts=false without a chunk_callback would "
        "discard all results");
  }
}

}  // namespace

Context::Context() = default;
Context::~Context() = default;
Context::Context(Context&&) noexcept = default;
Context& Context::operator=(Context&&) noexcept = default;

Context Context::cpu() { return Context(); }

Context Context::gpu(const std::string& device_name) {
  Context ctx;
  ctx.gpu_ = cl::Platform::device(device_name);
  return ctx;
}

std::string Context::device_name() const {
  return gpu_ ? gpu_->name() : "CPU (native BLIS-like engine)";
}

const model::GpuSpec& Context::gpu_spec() const {
  if (!gpu_) {
    throw std::logic_error("gpu_spec: CPU context");
  }
  return gpu_->spec();
}

model::KernelConfig Context::effective_config(
    const BitMatrix& a, const BitMatrix& b, Comparison op,
    const ComputeOptions& options) const {
  if (!gpu_) {
    throw std::logic_error("effective_config: CPU context");
  }
  if (options.config) {
    return *options.config;
  }
  const auto& dev = gpu_->spec();
  model::KernelConfig cfg =
      model::paper_preset(dev, workload_for(a.rows(), b.rows(), dev));
  cfg.pre_negated = options.pre_negate && op == Comparison::kAndNot;
  return cfg;
}

namespace {

/// Chunking decision shared by compare() and estimate(): stream the larger
/// operand through device memory in tile-aligned chunks sized to fit two
/// in-flight buffers within the device limits.
struct ChunkPlan {
  bool stream_b = true;
  std::size_t chunk_rows = 0;
  std::size_t stream_rows = 0;
  std::size_t resident_bytes = 0;
  std::size_t stream_row_bytes = 0;
  std::size_t c_row_bytes = 0;
};

ChunkPlan plan_chunks(const model::GpuSpec& dev,
                      const model::KernelConfig& cfg, std::size_t m_rows,
                      std::size_t n_rows, std::size_t row_bytes,
                      std::size_t requested_chunk_rows) {
  ChunkPlan p;
  p.stream_b = n_rows >= m_rows;
  const std::size_t resident_rows = p.stream_b ? m_rows : n_rows;
  p.stream_rows = p.stream_b ? n_rows : m_rows;
  p.stream_row_bytes = row_bytes;
  p.resident_bytes = resident_rows * row_bytes;
  if (p.resident_bytes > dev.max_alloc_bytes) {
    throw rt::Error(
        rt::ErrorCode::kAlloc,
        "compare: resident operand exceeds the device allocation limit; "
        "reduce the smaller matrix or use a larger-memory device");
  }
  p.c_row_bytes = resident_rows * 4;

  p.chunk_rows = requested_chunk_rows;
  if (p.chunk_rows == 0) {
    const std::size_t avail =
        dev.global_bytes > p.resident_bytes * 2
            ? (dev.global_bytes - p.resident_bytes) / 2
            : dev.global_bytes / 4;
    const std::size_t per_row = p.stream_row_bytes + p.c_row_bytes;
    const std::size_t by_global = avail / (2 * per_row);
    const std::size_t by_alloc_in =
        dev.max_alloc_bytes / p.stream_row_bytes;
    const std::size_t by_alloc_out = dev.max_alloc_bytes / p.c_row_bytes;
    // Also keep chunks modest so transfers pipeline against compute: "the
    // amount of data to be transferred at each step must be evenly
    // balanced with the amount of computation ... to sufficiently overlap
    // execution and data transfer" (paper Section VI-E-2).
    constexpr std::size_t kMaxChunkBytes = 256ull << 20;
    const std::size_t by_pipeline = std::max<std::size_t>(
        kMaxChunkBytes / per_row, 1);
    p.chunk_rows = std::min({by_global, by_alloc_in, by_alloc_out,
                             by_pipeline, p.stream_rows});
    const auto tile =
        static_cast<std::size_t>(p.stream_b ? cfg.n_r : cfg.m_c);
    p.chunk_rows = std::max(tile, p.chunk_rows / tile * tile);
  }
  p.chunk_rows = std::min(p.chunk_rows, p.stream_rows);
  if (p.chunk_rows == 0) {
    throw rt::Error(rt::ErrorCode::kAlloc,
                    "compare: device memory cannot hold one chunk");
  }
  return p;
}

}  // namespace

TimingReport Context::estimate(std::size_t m, std::size_t n,
                               std::size_t k_bits, Comparison op,
                               const ComputeOptions& options) const {
  if (m == 0 || n == 0 || k_bits == 0) {
    throw std::invalid_argument("estimate: degenerate shape");
  }
  const std::size_t k_words =
      bits::ceil_div(k_bits, bits::kBitsPerWord32);
  const double wordops = static_cast<double>(m) * static_cast<double>(n) *
                         static_cast<double>(k_words);
  if (!gpu_) {
    TimingReport t;
    t.device = "Xeon E5-2620 v2 (model)";
    t.kernel_s = sim::cpu_kernel_seconds(model::xeon_e5_2620v2(), wordops);
    t.end_to_end_s = t.kernel_s;
    t.kernel_gops = wordops / t.kernel_s / 1e9;
    t.wordops = static_cast<std::uint64_t>(m) * n * k_words;
    t.chunks = 1;
    return t;
  }

  const model::GpuSpec& dev = gpu_->spec();
  model::KernelConfig cfg;
  if (options.config) {
    cfg = *options.config;
  } else {
    cfg = model::paper_preset(dev, workload_for(m, n, dev));
    cfg.pre_negated = options.pre_negate && op == Comparison::kAndNot;
  }
  const auto check = model::validate(cfg, dev);
  if (!check.ok) {
    throw std::invalid_argument("estimate: invalid kernel config: " +
                                check.reason);
  }
  const std::size_t row_bytes =
      bits::ceil_div(k_bits, bits::kBitsPerWord64) * 8;
  const ChunkPlan plan =
      plan_chunks(dev, cfg, m, n, row_bytes, options.chunk_rows);

  std::vector<sim::Chunk> chunks;
  chunks.push_back({plan.resident_bytes, 0.0, 0});  // resident upload
  double kernel_gops_weighted = 0.0;
  double pct_weighted = 0.0;
  double attainable_weighted = 0.0;
  double memory_bound_s = 0.0;
  double total_kernel_s = 0.0;
  std::uint64_t h2d_bytes = plan.resident_bytes;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t wordops_exact = 0;
  int active_cores = 0;
  for (std::size_t row0 = 0; row0 < plan.stream_rows;
       row0 += plan.chunk_rows) {
    const std::size_t rows =
        std::min(plan.chunk_rows, plan.stream_rows - row0);
    const sim::KernelShape shape{plan.stream_b ? m : rows,
                                 plan.stream_b ? rows : n, k_words};
    const auto kt =
        sim::estimate_kernel(dev, cfg, op, shape, cfg.pre_negated);
    const sim::RooflinePoint rp =
        sim::roofline_for(dev, cfg, op, shape, cfg.pre_negated);
    chunks.push_back({rows * plan.stream_row_bytes, kt.seconds,
                      rows * plan.c_row_bytes});
    h2d_bytes += rows * plan.stream_row_bytes;
    d2h_bytes += rows * plan.c_row_bytes;
    wordops_exact +=
        static_cast<std::uint64_t>(shape.m) * shape.n * shape.k_words;
    total_kernel_s += kt.seconds;
    kernel_gops_weighted += kt.gops * kt.seconds;
    pct_weighted += kt.pct_of_peak * kt.seconds;
    attainable_weighted += rp.attainable_gops * kt.seconds;
    if (rp.memory_bound) {
      memory_bound_s += kt.seconds;
    }
    active_cores = std::max(active_cores, kt.active_cores);
  }

  sim::TimelineOptions topts;
  topts.double_buffered = options.double_buffer;
  topts.include_init = options.include_init;
  const sim::Timeline tl = sim::run_timeline(dev, chunks, topts);
  if (options.timeline_out != nullptr) {
    *options.timeline_out = tl;
  }

  TimingReport t;
  if constexpr (obs::kEnabled) {
    if (obs::TraceCollector::global().enabled()) {
      t.trace_anchor_us = obs::TraceCollector::global().now_us();
    }
  }
  t.device = dev.name;
  t.config = cfg.to_string();
  t.init_s = tl.init_seconds;
  t.h2d_s = tl.h2d_seconds;
  t.kernel_s = total_kernel_s;
  t.d2h_s = tl.d2h_seconds;
  t.h2d_bytes = h2d_bytes;
  t.d2h_bytes = d2h_bytes;
  t.wordops = wordops_exact;
  t.end_to_end_s = tl.total_seconds;
  t.chunks = static_cast<int>(chunks.size()) - 1;
  t.active_cores = active_cores;
  if (total_kernel_s > 0.0) {
    t.kernel_gops = kernel_gops_weighted / total_kernel_s;
    t.pct_of_peak = pct_weighted / total_kernel_s;
    t.attainable_gops = attainable_weighted / total_kernel_s;
    t.memory_bound = memory_bound_s > total_kernel_s / 2;
  }
  const double serial = t.init_s + t.h2d_s + t.kernel_s + t.d2h_s;
  t.overlap_hidden_s = std::max(0.0, serial - t.end_to_end_s);
  return t;
}

CompareResult Context::compare(const BitMatrix& a, const BitMatrix& b,
                               Comparison op,
                               const ComputeOptions& options) {
  check_operands(a, b, op, options);
  if (!gpu_) {
    return compare_cpu(a, b, op, options);
  }
  rt::FaultLog fault_log;
  GpuProgress progress;
  CompareResult result;
  rt::CircuitBreaker* breaker = nullptr;
  if (options.breaker.failure_threshold > 0) {
    breaker =
        &rt::BreakerRegistry::global().get(gpu_->name(), options.breaker);
  }
  bool device_attempted = false;
  try {
    // Breaker consult sits ahead of the whole retry rung: an open
    // breaker means the device has failed persistently very recently,
    // so burn zero device attempts and let the ladder below route the
    // work (kCancelled is non-retryable, so abort/retry propagate and
    // degrade/failover fall straight to the CPU rung).
    if (breaker != nullptr && !breaker->allow()) {
      throw rt::Error(rt::ErrorCode::kCancelled,
                      "device '" + gpu_->name() +
                          "' circuit breaker open; fast-failing to the "
                          "recovery ladder");
    }
    device_attempted = true;
    compare_gpu(a, b, op, options, &fault_log, &progress, result);
    if (breaker != nullptr) breaker->on_success();
    result.timing.fault_events = fault_log.snapshot();
    return result;
  } catch (const rt::Error& e) {
    // A deadline cancellation is final: nobody is waiting for the
    // answer, so never recompute it on the CPU rung — and it says
    // nothing about device health, so the breaker is not fed either.
    if (e.code() == rt::ErrorCode::kDeadline) throw;
    if (breaker != nullptr && device_attempted) breaker->on_failure();
    const rt::FailPolicy policy = options.recovery.policy;
    // On a single device the failover rung has no surviving peer to move
    // work to, so it shares the degradation rung with kDegrade
    // (multi::MultiGpuContext owns true shard failover).
    if (policy != rt::FailPolicy::kDegrade &&
        policy != rt::FailPolicy::kFailover) {
      throw;  // abort/retry: propagate with the structured code intact
    }
    SNP_OBS_COUNT("rt.degrades", 1);
    SNP_OBS_FLIGHT(obs::FlightKind::kFault, obs::current_trace().trace_id,
                   static_cast<std::uint32_t>(e.code()), -1, 0);
    {
      rt::FaultEvent ev;
      ev.site = "compare.degrade";
      ev.code = e.code();
      ev.action = "degrade";
      ev.detail = e.what();
      ev.trace_id = obs::current_trace().trace_id;
      fault_log.record(std::move(ev));
    }
    // GPU->CPU graceful degradation: the in-order drain chain guarantees
    // the delivered rows form an exact prefix of the streamed operand, so
    // the host engine recomputes only the remainder — streaming consumers
    // see each chunk exactly once, and the merged counts are bit-identical
    // to a clean run (the device's functional kernel is the same host
    // engine).
    const std::string gpu_name = gpu_->name();
    const auto wall0 = std::chrono::steady_clock::now();
    if (options.functional) {
      const bool sb = progress.stream_b;
      const std::size_t total_rows = sb ? b.rows() : a.rows();
      const std::size_t delivered =
          std::min(progress.delivered_rows.load(), total_rows);
      if (delivered < total_rows) {
        const BitMatrix remainder = sb ? b.row_slice(delivered, total_rows)
                                       : a.row_slice(delivered, total_rows);
        const BitMatrix& cpu_a = sb ? a : remainder;
        const BitMatrix& cpu_b = sb ? remainder : b;
        const CountMatrix part =
            cpu::compare(cpu_a, cpu_b, op, options.threads);
        // The host rung really popcounts the remainder; the cost ledger
        // should see that work even though no device kernel ran it.
        result.timing.wordops +=
            static_cast<std::uint64_t>(cpu_a.rows()) * cpu_b.rows() *
            bits::ceil_div(a.bit_cols(), bits::kBitsPerWord32);
        if (options.chunk_callback) {
          options.chunk_callback(
              ComputeOptions::ChunkView{delivered, sb, part});
        }
        if (options.keep_counts) {
          if (result.counts.rows() != a.rows() ||
              result.counts.cols() != b.rows()) {
            result.counts = CountMatrix(a.rows(), b.rows());
          }
          for (std::size_t i = 0; i < part.rows(); ++i) {
            for (std::size_t j = 0; j < part.cols(); ++j) {
              if (sb) {
                result.counts.at(i, delivered + j) = part.at(i, j);
              } else {
                result.counts.at(delivered + i, j) = part.at(i, j);
              }
            }
          }
        }
      }
    }
    const double fallback_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0)
            .count();
    result.timing.degraded = true;
    result.timing.device = gpu_name + " -> cpu (degraded)";
    result.timing.kernel_s += fallback_s;
    result.timing.end_to_end_s += fallback_s;
    result.timing.fault_events = fault_log.snapshot();
    return result;
  }
}

CompareResult Context::compare_cpu(const BitMatrix& a, const BitMatrix& b,
                                   Comparison op,
                                   const ComputeOptions& options) {
  SNP_OBS_SPAN("core.compare_cpu");
  SNP_OBS_COUNT("core.compare.calls", 1);
  CompareResult result;
  if constexpr (obs::kEnabled) {
    if (obs::TraceCollector::global().enabled()) {
      result.timing.trace_anchor_us = obs::TraceCollector::global().now_us();
    }
  }
  result.timing.device = device_name();
  result.timing.chunks = 1;
  const double wordops = static_cast<double>(a.rows()) *
                         static_cast<double>(b.rows()) *
                         static_cast<double>(bits::ceil_div(
                             a.bit_cols(), bits::kBitsPerWord32));
  SNP_OBS_COUNT("core.kernel.wordops", wordops);
  result.timing.wordops =
      static_cast<std::uint64_t>(a.rows()) * b.rows() *
      bits::ceil_div(a.bit_cols(), bits::kBitsPerWord32);
  if (options.functional) {
    const auto t0 = std::chrono::steady_clock::now();
    bits::CountMatrix counts = cpu::compare(a, b, op, options.threads);
    const auto t1 = std::chrono::steady_clock::now();
    result.timing.kernel_s =
        std::chrono::duration<double>(t1 - t0).count();
    result.timing.end_to_end_s = result.timing.kernel_s;
    result.timing.kernel_gops =
        wordops / result.timing.kernel_s / 1e9;
    sim::HostChunkEvent ev;
    ev.rows = b.rows();
    ev.host_exec_end = result.timing.kernel_s;
    ev.kernel_end = result.timing.kernel_s;
    result.timing.chunk_events.push_back(ev);
    if (options.chunk_callback) {
      options.chunk_callback(
          ComputeOptions::ChunkView{0, true, counts});
    }
    if (options.keep_counts) {
      result.counts = std::move(counts);
    }
  }
  return result;
}

void Context::compare_gpu(const BitMatrix& a, const BitMatrix& b,
                          Comparison op, const ComputeOptions& options,
                          rt::FaultLog* fault_log, GpuProgress* progress,
                          CompareResult& result) {
  SNP_OBS_SPAN("core.compare_gpu");
  SNP_OBS_COUNT("core.compare.calls", 1);
  if constexpr (obs::kEnabled) {
    // Session-clock anchor for the merged trace: pid-0/pid-2 events are
    // relative to this compare, pid-1 spans to the collector session.
    if (obs::TraceCollector::global().enabled()) {
      result.timing.trace_anchor_us = obs::TraceCollector::global().now_us();
    }
  }
  const rt::RecoveryOptions rec = options.recovery;
  const model::GpuSpec& dev = gpu_->spec();
  model::KernelConfig cfg = effective_config(a, b, op, options);
  const auto check = model::validate(cfg, dev);
  if (!check.ok) {
    throw std::invalid_argument("compare: invalid kernel config: " +
                                check.reason);
  }

  // Eq. 3 lowering happens on the host before upload: the negated operand
  // is what the database would store.
  const BitMatrix* b_ptr = &b;
  BitMatrix b_negated;
  if (cfg.pre_negated) {
    b_negated = b.negated();
    b_ptr = &b_negated;
  }
  const BitMatrix& b_eff = *b_ptr;

  // Stream the larger operand through device memory in chunks; the other
  // stays resident. Row strides of both operands match (same K), so the
  // plan's per-row bytes use the streamed operand's stride.
  const std::size_t k_words =
      bits::ceil_div(a.bit_cols(), bits::kBitsPerWord32);
  const bool stream_b_pred = b_eff.rows() >= a.rows();
  const BitMatrix& streamed_ref = stream_b_pred ? b_eff : a;
  const ChunkPlan plan =
      plan_chunks(dev, cfg, a.rows(), b_eff.rows(),
                  streamed_ref.words64_per_row() * 8, options.chunk_rows);
  const bool stream_b = plan.stream_b;
  progress->stream_b = stream_b;
  const BitMatrix& resident = stream_b ? a : b_eff;
  const BitMatrix& streamed = stream_b ? b_eff : a;
  const std::size_t resident_bytes = resident.size_bytes();
  const std::size_t stream_row_bytes = plan.stream_row_bytes;
  const std::size_t c_row_bytes = plan.c_row_bytes;
  const std::size_t chunk_rows = plan.chunk_rows;

  cl::Context clctx(*gpu_);
  cl::CommandQueue& q = clctx.queue();

  result.timing.device = dev.name;
  result.timing.config = cfg.to_string();
  if (options.lint) {
    // Pre-launch verification: the dataflow engine proves the generated
    // kernel program race-free, in-bounds, and overflow-free for the
    // *actual* trip count and LDS allocation of this launch. Warn/info
    // findings ride along in lint_notes; an error-severity finding means
    // the kernel must not launch and aborts with exit code 3 (the first
    // failed check's ID leads the message).
    SNP_OBS_SPAN("core.lint");
    analyze::AnalyzeOptions aopts;
    aopts.k_iterations = std::max<std::uint64_t>(
        1, (k_words + static_cast<std::size_t>(aopts.unroll) - 1) /
               static_cast<std::size_t>(aopts.unroll));
    aopts.lds_words = options.lds_words;
    const auto lint = analyze::analyze(dev, cfg, op, aopts);
    SNP_OBS_COUNT("core.lint.diags", lint.diagnostics().size());
    for (const auto& d : lint.diagnostics()) {
      result.timing.lint_notes.push_back(
          std::string(analyze::to_string(d.severity)) + "  " + d.id +
          "  " + d.message);
    }
    if (lint.has_errors()) {
      const auto* first = lint.first_error();
      throw analyze::VerificationError(
          first->id, "pre-launch verification failed: " + first->message);
    }
  }
  if (options.functional && options.keep_counts) {
    result.counts = CountMatrix(a.rows(), b.rows());
  }

  const kern::GpuSnpKernel kernel(dev, cfg, op);

  // Every device operation below runs under the bounded-retry rung: the
  // clmini injection sites throw before any virtual-clock or accounting
  // mutation, so a retried call replays against bit-identical state and
  // recovered runs stay indistinguishable from clean ones.
  auto resident_buf = rt::with_retry(rec, "alloc", -1, fault_log, [&] {
    return clctx.create_buffer(resident_bytes);
  });
  {
    const auto raw = resident.raw64();
    const cl::Event ev = rt::with_retry(rec, "h2d", -1, fault_log, [&] {
      return q.enqueue_write(
          *resident_buf,
          std::span<const std::byte>(
              reinterpret_cast<const std::byte*>(raw.data()),
              raw.size_bytes()));
    });
    result.timing.h2d_s += ev.duration();
    result.timing.h2d_bytes += raw.size_bytes();
    SNP_OBS_COUNT("core.h2d.bytes", raw.size_bytes());
  }

  const int inflight = options.double_buffer ? 2 : 1;
  std::vector<std::shared_ptr<cl::Buffer>> stream_bufs;
  std::vector<std::shared_ptr<cl::Buffer>> c_bufs;
  for (int i = 0; i < inflight; ++i) {
    stream_bufs.push_back(rt::with_retry(rec, "alloc", i, fault_log, [&] {
      return clctx.create_buffer(chunk_rows * stream_row_bytes);
    }));
    c_bufs.push_back(rt::with_retry(rec, "alloc", i, fault_log, [&] {
      return clctx.create_buffer(chunk_rows * c_row_bytes);
    }));
  }

  double kernel_gops_weighted = 0.0;
  double pct_weighted = 0.0;
  double attainable_weighted = 0.0;
  double memory_bound_s = 0.0;
  double total_kernel_s = 0.0;
  int active_cores = 0;

  const std::size_t n_chunks =
      bits::ceil_div(streamed.rows(), chunk_rows);
  result.timing.chunk_events.resize(n_chunks);

  // Asynchronous host pipeline (options.threads > 0, functional runs
  // only): per chunk, a pack task slices the streamed operand, an execute
  // task (depending on the pack) runs the functional kernel, and a drain
  // task (depending on the execute AND the previous drain) delivers the
  // chunk callback and scatters the block into the gamma matrix. The
  // drain chain makes delivery order and the reduction deterministic and
  // identical to the serial path for every thread count; the semaphore
  // bounds chunks in flight so host memory stays bounded at paper scale.
  // The virtual-clock command enqueues below stay on the calling thread
  // in both modes — simulated timing is independent of host threading.
  const bool async = options.threads > 0 && options.functional;
  std::unique_ptr<exec::ThreadPool> pool;
  std::unique_ptr<exec::TaskGraph> graph;
  std::unique_ptr<exec::Semaphore> slots;
  exec::TaskGraph::TaskId prev_drain = 0;
  const auto wall0 = std::chrono::steady_clock::now();
  const auto host_now = [wall0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall0)
        .count();
  };
  if (async) {
    pool = std::make_unique<exec::ThreadPool>(options.threads);
    graph = std::make_unique<exec::TaskGraph>(*pool);
    slots = std::make_unique<exec::Semaphore>(
        options.max_inflight_chunks > 0 ? options.max_inflight_chunks
                                        : 2 * options.threads);
  }
  // If an enqueue fault exhausts its retries mid-loop, the unwind must
  // not destroy chunk-task captures while pool workers still run them:
  // this guard quiesces the graph first (swallowing its own error — the
  // original exception is the one that propagates). Declared after the
  // graph so it is destroyed before it.
  struct GraphQuiesce {
    exec::TaskGraph* graph = nullptr;
    ~GraphQuiesce() {
      if (graph != nullptr) {
        try {
          graph->wait();
        } catch (...) {  // NOLINT(bugprone-empty-catch)
        }
      }
    }
  } quiesce{graph.get()};

  struct ChunkState {
    BitMatrix chunk;    ///< packed slice of the streamed operand
    CountMatrix part;   ///< this chunk's block of the gamma matrix
  };

  std::vector<std::byte> readback;
  for (std::size_t ci = 0; ci < n_chunks; ++ci) {
    // Cooperative cancellation boundary: a fired token (explicit cancel
    // or expired request deadline) stops the pipeline here, before this
    // chunk's upload/launch, instead of running the stream to the end.
    // GraphQuiesce below settles any in-flight async chunks on unwind.
    if (options.cancel != nullptr) {
      options.cancel->checkpoint(static_cast<std::int64_t>(ci));
    }
    const std::size_t row0 = ci * chunk_rows;
    const std::size_t rows = std::min(chunk_rows, streamed.rows() - row0);
    const std::size_t slot =
        ci % static_cast<std::size_t>(inflight);
    if (!options.double_buffer) {
      q.barrier();
    }
    sim::HostChunkEvent& cev = result.timing.chunk_events[ci];
    cev.index = ci;
    cev.row0 = row0;
    cev.rows = rows;

    // Upload this chunk of the streamed operand. Chunk rows are contiguous
    // in the parent matrix, so the upload reads the parent's storage
    // directly; the functional pack task makes its own slice.
    {
      const auto raw = streamed.raw64().subspan(
          row0 * streamed.words64_per_row(),
          rows * streamed.words64_per_row());
      const cl::Event ev = rt::with_retry(
          rec, "h2d", static_cast<std::int64_t>(ci), fault_log, [&] {
            return q.enqueue_write(
                *stream_bufs[slot],
                std::span<const std::byte>(
                    reinterpret_cast<const std::byte*>(raw.data()),
                    raw.size_bytes()));
          });
      result.timing.h2d_s += ev.duration();
      result.timing.h2d_bytes += raw.size_bytes();
      SNP_OBS_COUNT("core.compare.chunks", 1);
      SNP_OBS_COUNT("core.h2d.bytes", raw.size_bytes());
      cev.h2d_start = ev.start;
      cev.h2d_end = ev.end;
    }

    // Kernel: timing from the analytical model, results (when functional)
    // from the host engine.
    const sim::KernelShape shape{stream_b ? a.rows() : rows,
                                 stream_b ? rows : b_eff.rows(), k_words};
    const sim::KernelTiming kt = kernel.timing(shape);
    const sim::RooflinePoint rp =
        sim::roofline_for(dev, cfg, op, shape, cfg.pre_negated);
    SNP_OBS_COUNT("core.kernel.wordops",
                  static_cast<double>(shape.m) *
                      static_cast<double>(shape.n) *
                      static_cast<double>(shape.k_words));
    result.timing.wordops +=
        static_cast<std::uint64_t>(shape.m) * shape.n * shape.k_words;
    cl::Buffer* reads[] = {resident_buf.get(), stream_bufs[slot].get()};
    cl::Buffer* writes[] = {c_bufs[slot].get()};
    std::function<void()> functional;
    if (options.functional) {
      CountMatrix* counts =
          options.keep_counts ? &result.counts : nullptr;
      const BitMatrix* streamed_ptr = &streamed;
      const BitMatrix* resident_ptr = stream_b ? &a : &b_eff;
      const std::size_t off = row0;
      const bool sb = stream_b;
      const kern::GpuSnpKernel* kptr = &kernel;
      const auto* callback =
          options.chunk_callback ? &options.chunk_callback : nullptr;
      auto state = std::make_shared<ChunkState>();
      // The pipeline bodies sample the `pool` injection site inside their
      // own retry scope: a transient task fault re-runs the body alone —
      // the virtual clock only moves in the enqueue calls on the calling
      // thread, so recovery cannot perturb simulated timing. The
      // injection check precedes any work, so a retried body is
      // idempotent by construction.
      const auto ci_ix = static_cast<std::int64_t>(ci);
      // Pool tasks honor the cancel token too: each stage checkpoints
      // before doing work, so a batch whose deadline fired mid-pipeline
      // stops at the next task boundary even when the stages run on
      // exec::ThreadPool workers rather than the calling thread.
      const std::shared_ptr<rt::CancelToken> cancel = options.cancel;
      auto pack = [state, streamed_ptr, off, rows, rec, fault_log, cancel,
                   ci_ix]() {
        if (cancel != nullptr) cancel->checkpoint(ci_ix);
        rt::with_retry(rec, "pool.pack", ci_ix, fault_log, [&] {
          rt::maybe_inject(rt::FaultSite::kPool, ci_ix);
          SNP_OBS_SPAN("core.chunk.pack");
          state->chunk = streamed_ptr->row_slice(off, off + rows);
        });
        SNP_OBS_FLIGHT(obs::FlightKind::kChunkPack,
                       obs::current_trace().trace_id, 0, ci_ix, rows);
      };
      auto execute = [state, resident_ptr, sb, kptr, rec, fault_log,
                      cancel, ci_ix]() {
        if (cancel != nullptr) cancel->checkpoint(ci_ix);
        rt::with_retry(rec, "pool.execute", ci_ix, fault_log, [&] {
          rt::maybe_inject(rt::FaultSite::kPool, ci_ix);
          SNP_OBS_SPAN("core.chunk.execute");
          const BitMatrix* ap = sb ? resident_ptr : &state->chunk;
          const BitMatrix* bp = sb ? &state->chunk : resident_ptr;
          // A fresh block is already zero, so accumulate into it.
          state->part = CountMatrix(ap->rows(), bp->rows());
          kptr->execute(*ap, *bp, state->part, /*accumulate=*/true);
        });
        SNP_OBS_FLIGHT(obs::FlightKind::kChunkExec,
                       obs::current_trace().trace_id, 0, ci_ix,
                       state->part.rows());
      };
      auto drain = [state, counts, off, sb, callback, rec, fault_log,
                    cancel, ci_ix, rows, progress]() {
        if (cancel != nullptr) cancel->checkpoint(ci_ix);
        rt::with_retry(rec, "pool.drain", ci_ix, fault_log, [&] {
          rt::maybe_inject(rt::FaultSite::kPool, ci_ix);
          SNP_OBS_SPAN("core.chunk.drain");
          const CountMatrix& part = state->part;
          if (callback != nullptr) {
            (*callback)(ComputeOptions::ChunkView{off, sb, part});
          }
          if (counts != nullptr) {
            // Scatter the chunk block into the full gamma matrix.
            for (std::size_t i = 0; i < part.rows(); ++i) {
              for (std::size_t j = 0; j < part.cols(); ++j) {
                if (sb) {
                  counts->at(i, off + j) = part.at(i, j);
                } else {
                  counts->at(off + i, j) = part.at(i, j);
                }
              }
            }
          }
        });
        SNP_OBS_FLIGHT(obs::FlightKind::kChunkDrain,
                       obs::current_trace().trace_id, 0, ci_ix, rows);
        // Only after a fully delivered chunk (callback ran, block
        // scattered) does the delivered prefix grow — the degradation
        // rung trusts this to never redeliver or skip rows.
        progress->delivered_rows.store(off + rows);
      };
      if (async) {
        // Bounded in-flight backpressure, failure-aware: a failed chunk
        // task skips every later drain, so the slot releases pending on
        // them never come — poll instead of deadlocking, and let
        // graph->wait() below rethrow the task's exception.
        bool got_slot = false;
        while (!(got_slot =
                     slots->acquire_for(std::chrono::milliseconds(20)))) {
          if (graph->failed()) {
            break;
          }
        }
        if (!got_slot) {
          break;
        }
        sim::HostChunkEvent* evp = &cev;
        evp->host_queued = host_now();
        const auto pack_id = graph->add([pack, evp, host_now]() {
          evp->host_pack_start = host_now();
          pack();
          evp->host_pack_end = host_now();
        });
        const auto exec_id = graph->add(
            [execute, evp, host_now]() {
              evp->host_exec_start = host_now();
              execute();
              evp->host_exec_end = host_now();
            },
            {pack_id});
        std::vector<exec::TaskGraph::TaskId> drain_deps{exec_id};
        if (ci > 0) {
          drain_deps.push_back(prev_drain);
        }
        exec::Semaphore* slots_ptr = slots.get();
        prev_drain = graph->add(
            [drain, evp, host_now, slots_ptr]() {
              evp->host_drain_start = host_now();
              drain();
              evp->host_drain_end = host_now();
              slots_ptr->release();
            },
            drain_deps);
      } else {
        functional = [pack, execute, drain]() {
          pack();
          execute();
          drain();
        };
      }
    }
    const cl::Event evk = rt::with_retry(
        rec, "launch", static_cast<std::int64_t>(ci), fault_log, [&] {
          return q.enqueue_kernel(kt.seconds, reads, writes, functional);
        });
    total_kernel_s += evk.duration();
    kernel_gops_weighted += kt.gops * kt.seconds;
    pct_weighted += kt.pct_of_peak * kt.seconds;
    attainable_weighted += rp.attainable_gops * kt.seconds;
    if (rp.memory_bound) {
      memory_bound_s += kt.seconds;
    }
    active_cores = std::max(active_cores, kt.active_cores);
    cev.kernel_start = evk.start;
    cev.kernel_end = evk.end;

    // Read the C chunk back.
    readback.resize(rows * c_row_bytes);
    const cl::Event evr = rt::with_retry(
        rec, "readback", static_cast<std::int64_t>(ci), fault_log, [&] {
          return q.enqueue_read(
              *c_bufs[slot],
              std::span<std::byte>(readback.data(), readback.size()));
        });
    result.timing.d2h_s += evr.duration();
    result.timing.d2h_bytes += readback.size();
    SNP_OBS_COUNT("core.d2h.bytes", readback.size());
    cev.d2h_start = evr.start;
    cev.d2h_end = evr.end;
  }
  if (async) {
    graph->wait();  // rethrows the first chunk-task exception, if any
  }

  const double end = q.finish();
  result.timing.init_s = options.include_init ? clctx.init_seconds() : 0.0;
  result.timing.end_to_end_s =
      end - (options.include_init ? 0.0 : clctx.init_seconds());
  result.timing.kernel_s = total_kernel_s;
  result.timing.chunks = static_cast<int>(
      bits::ceil_div(streamed.rows(), chunk_rows));
  result.timing.active_cores = active_cores;
  if (total_kernel_s > 0.0) {
    result.timing.kernel_gops = kernel_gops_weighted / total_kernel_s;
    result.timing.pct_of_peak = pct_weighted / total_kernel_s;
    result.timing.attainable_gops = attainable_weighted / total_kernel_s;
    result.timing.memory_bound = memory_bound_s > total_kernel_s / 2;
  }
  const double serial = result.timing.init_s + result.timing.h2d_s +
                        result.timing.kernel_s + result.timing.d2h_s;
  result.timing.overlap_hidden_s =
      std::max(0.0, serial - result.timing.end_to_end_s);
}

CompareResult Context::ld(const BitMatrix& loci,
                          const ComputeOptions& options) {
  return compare(loci, loci, Comparison::kAnd, options);
}

IdentitySearchResult Context::identity_search(
    const BitMatrix& queries, const BitMatrix& database,
    const ComputeOptions& options) {
  IdentitySearchResult out;
  out.comparison = compare(queries, database, Comparison::kXor, options);
  if (options.functional) {
    const CountMatrix& gamma = out.comparison.counts;
    out.best_match.resize(queries.rows());
    out.best_mismatches.resize(queries.rows());
    for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
      const auto row = gamma.raw().subspan(qi * gamma.cols(), gamma.cols());
      const auto best = std::min_element(row.begin(), row.end());
      out.best_match[qi] =
          static_cast<std::size_t>(best - row.begin());
      out.best_mismatches[qi] = *best;
    }
  }
  return out;
}

Context::StreamingSearchResult Context::identity_search_streaming(
    const BitMatrix& queries, const BitMatrix& database, std::size_t top_k,
    const ComputeOptions& options) {
  if (top_k == 0) {
    throw std::invalid_argument(
        "identity_search_streaming: top_k must be positive");
  }
  StreamingSearchResult out;
  out.top.resize(queries.rows());

  ComputeOptions opts = options;
  opts.functional = true;
  opts.keep_counts = false;
  const auto order = [](const stats::MatchCandidate& x,
                        const stats::MatchCandidate& y) {
    return x.mismatches != y.mismatches
               ? x.mismatches < y.mismatches
               : x.reference_index < y.reference_index;
  };
  const double sites = static_cast<double>(database.bit_cols());
  auto fold = [&](std::size_t query, std::size_t ref,
                  std::uint32_t mismatches) {
    auto& best = out.top[query];
    best.push_back({ref, mismatches,
                    static_cast<double>(mismatches) / sites});
    if (best.size() > 4 * top_k) {
      std::partial_sort(
          best.begin(), best.begin() + static_cast<std::ptrdiff_t>(top_k),
          best.end(), order);
      best.resize(top_k);
    }
  };
  // Async compare() delivers chunks from a serialized in-order drain
  // chain, so callbacks never overlap — the mutex makes the fold's
  // thread-safety independent of that scheduling detail.
  std::mutex fold_mu;
  opts.chunk_callback = [&](const ComputeOptions::ChunkView& view) {
    const std::lock_guard<std::mutex> lock(fold_mu);
    if (view.streamed_b) {
      // Usual case: the database streams; this block holds database
      // columns [row0, row0 + cols) for every query row.
      for (std::size_t q = 0; q < view.part.rows(); ++q) {
        for (std::size_t j = 0; j < view.part.cols(); ++j) {
          fold(q, view.row0 + j, view.part.at(q, j));
        }
      }
    } else {
      // Tiny database, large query set: the queries stream; this block
      // holds query rows [row0, row0 + rows) against the full database.
      for (std::size_t i = 0; i < view.part.rows(); ++i) {
        for (std::size_t j = 0; j < view.part.cols(); ++j) {
          fold(view.row0 + i, j, view.part.at(i, j));
        }
      }
    }
  };
  const CompareResult r =
      compare(queries, database, Comparison::kXor, opts);
  out.timing = r.timing;
  for (auto& best : out.top) {
    const std::size_t keep = std::min(top_k, best.size());
    std::partial_sort(best.begin(),
                      best.begin() + static_cast<std::ptrdiff_t>(keep),
                      best.end(), order);
    best.resize(keep);
  }
  return out;
}

Context::GenotypeLdResult Context::genotype_ld(
    const bits::GenotypeMatrix& genotypes, const ComputeOptions& options) {
  if (genotypes.loci() == 0 || genotypes.samples() == 0) {
    throw std::invalid_argument("genotype_ld: empty cohort");
  }
  if (!options.functional) {
    throw std::invalid_argument(
        "genotype_ld: requires functional execution (the EM step consumes "
        "real counts)");
  }
  const BitMatrix pres =
      bits::encode(genotypes, bits::EncodingPlane::kPresence);
  const BitMatrix hom =
      bits::encode(genotypes, bits::EncodingPlane::kHomozygous);

  // Four plane comparisons on this backend; the one-time initialization
  // is charged to the first launch only.
  ComputeOptions first = options;
  ComputeOptions rest = options;
  rest.include_init = false;
  const CompareResult pp = compare(pres, pres, Comparison::kAnd, first);
  const CompareResult hh = compare(hom, hom, Comparison::kAnd, rest);
  const CompareResult ph = compare(pres, hom, Comparison::kAnd, rest);
  const CompareResult hp = compare(hom, pres, Comparison::kAnd, rest);

  GenotypeLdResult out;
  out.loci = genotypes.loci();
  out.timing = pp.timing;
  for (const CompareResult* r : {&hh, &ph, &hp}) {
    out.timing.h2d_s += r->timing.h2d_s;
    out.timing.kernel_s += r->timing.kernel_s;
    out.timing.d2h_s += r->timing.d2h_s;
    out.timing.end_to_end_s += r->timing.end_to_end_s;
    out.timing.h2d_bytes += r->timing.h2d_bytes;
    out.timing.d2h_bytes += r->timing.d2h_bytes;
    out.timing.wordops += r->timing.wordops;
    out.timing.chunks += r->timing.chunks;
  }

  std::vector<std::uint32_t> pres_count(out.loci), hom_count(out.loci);
  for (std::size_t l = 0; l < out.loci; ++l) {
    pres_count[l] = static_cast<std::uint32_t>(pres.row_popcount(l));
    hom_count[l] = static_cast<std::uint32_t>(hom.row_popcount(l));
  }
  out.pairs.resize(out.loci * out.loci);
  for (std::size_t i = 0; i < out.loci; ++i) {
    for (std::size_t j = 0; j < out.loci; ++j) {
      const auto table = stats::table_from_plane_counts(
          pp.counts.at(i, j), hh.counts.at(i, j), ph.counts.at(i, j),
          hp.counts.at(i, j), pres_count[i], hom_count[i], pres_count[j],
          hom_count[j], genotypes.samples());
      out.pairs[i * out.loci + j] = stats::em_ld(table);
    }
  }
  return out;
}

MixtureAnalysisResult Context::mixture_analysis(
    const BitMatrix& profiles, const BitMatrix& mixtures,
    std::uint32_t tolerance, const ComputeOptions& options) {
  MixtureAnalysisResult out;
  out.comparison =
      compare(profiles, mixtures, Comparison::kAndNot, options);
  if (options.functional) {
    const CountMatrix& gamma = out.comparison.counts;
    out.included.resize(mixtures.rows());
    for (std::size_t m = 0; m < mixtures.rows(); ++m) {
      for (std::size_t p = 0; p < profiles.rows(); ++p) {
        if (gamma.at(p, m) <= tolerance) {
          out.included[m].push_back(p);
        }
      }
    }
  }
  return out;
}

Context::StreamingMixtureResult Context::mixture_analysis_streaming(
    const BitMatrix& profiles, const BitMatrix& mixtures,
    std::uint32_t tolerance, const ComputeOptions& options) {
  StreamingMixtureResult out;
  out.included.resize(mixtures.rows());

  ComputeOptions opts = options;
  opts.functional = true;
  opts.keep_counts = false;
  // See identity_search_streaming: deliveries are already serialized
  // in order by the drain chain; the lock keeps the fold self-contained.
  std::mutex fold_mu;
  opts.chunk_callback = [&](const ComputeOptions::ChunkView& view) {
    const std::lock_guard<std::mutex> lock(fold_mu);
    if (view.streamed_b) {
      // Tiny profile set against many mixtures: this block holds mixture
      // columns [row0, row0 + cols) for every profile row.
      for (std::size_t i = 0; i < view.part.rows(); ++i) {
        for (std::size_t j = 0; j < view.part.cols(); ++j) {
          if (view.part.at(i, j) <= tolerance) {
            out.included[view.row0 + j].push_back(i);
          }
        }
      }
    } else {
      // Usual case: the profile database streams; rows are profiles
      // [row0, row0 + rows) against every mixture column.
      for (std::size_t i = 0; i < view.part.rows(); ++i) {
        for (std::size_t j = 0; j < view.part.cols(); ++j) {
          if (view.part.at(i, j) <= tolerance) {
            out.included[j].push_back(view.row0 + i);
          }
        }
      }
    }
  };
  const CompareResult r =
      compare(profiles, mixtures, Comparison::kAndNot, opts);
  out.timing = r.timing;
  for (auto& v : out.included) {
    std::sort(v.begin(), v.end());
  }
  return out;
}

}  // namespace snp
