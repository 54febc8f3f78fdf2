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
using Clock = std::chrono::steady_clock;

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

/// The override, or the device's Table II preset for an m x n shape.
model::KernelConfig config_for(const model::GpuSpec& dev, std::size_t m,
                               std::size_t n, Comparison op,
                               const ComputeOptions& options) {
  if (options.config) {
    return *options.config;
  }
  model::KernelConfig cfg = model::paper_preset(dev, workload_for(m, n, dev));
  cfg.pre_negated = options.pre_negate && op == Comparison::kAndNot;
  return cfg;
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

/// The span clock's time now (TimingReport::trace_anchor_us), or 0 when
/// the collector is off.
double trace_anchor_us() {
  if constexpr (obs::kEnabled) {
    if (obs::TraceCollector::global().enabled()) {
      return obs::TraceCollector::global().now_us();
    }
  }
  return 0.0;
}

/// Rows per host window when ComputeOptions::chunk_rows is unset. The
/// host engine reads the streamed rows in place, so a window holds only
/// its block of counts: at most 1 MiB of it, in whole n_c blocks of the
/// engine, and at least one. On a 4-vCPU AVX-512 host, identity_search
/// of 1 to 256 queries ran at one speed with blocks of 0.25 to 8 MiB, and
/// slower with blocks of 32 MiB and up.
std::size_t host_window_rows(std::size_t resident_rows) {
  constexpr std::size_t kMaxBlockBytes = 1ull << 20;
  const std::size_t n_c = cpu::CpuBlocking{}.n_c;
  const std::size_t rows =
      kMaxBlockBytes / (resident_rows * sizeof(std::uint32_t));
  return std::max(rows / n_c * n_c, n_c);
}

/// Copies one chunk's block out of the full gamma matrix: columns
/// [row0, row0 + rows) when B streams, rows [row0, row0 + rows) otherwise.
CountMatrix chunk_block(const CountMatrix& counts, std::size_t row0,
                        std::size_t rows, bool stream_b) {
  auto part = CountMatrix::for_overwrite(stream_b ? counts.rows() : rows,
                                        stream_b ? rows : counts.cols());
  const std::uint32_t* src =
      counts.raw().data() + (stream_b ? row0 : row0 * counts.cols());
  for (std::size_t i = 0; i < part.rows(); ++i) {
    std::copy_n(src + i * counts.cols(), part.cols(),
                part.raw().data() + i * part.cols());
  }
  return part;
}

}  // namespace

/// The pre-launch verdicts of one GPU context. The lock is held while a
/// new key is proved, so concurrent launches prove it once.
struct Context::LintMemo {
  /// Everything analyze::analyze reads besides the context's device.
  struct Key {
    model::KernelConfig cfg;
    Comparison op{};
    std::uint64_t k_iterations = 0;
    int lds_words = 0;
    bool operator==(const Key&) const = default;
  };
  struct Verdict {
    Key key;
    std::vector<std::string> notes;  ///< TimingReport::lint_notes
    std::optional<analyze::VerificationError> error;  ///< blocks the launch
  };
  /// Verdicts kept; past it the oldest is dropped.
  static constexpr std::size_t kMaxVerdicts = 16;

  std::mutex mu;
  std::vector<Verdict> verdicts;  ///< guarded by mu

  /// The verdict for a launch, proved on `dev` unless a launch with the
  /// same key was proved before.
  Verdict prove(const model::GpuSpec& dev, const model::KernelConfig& cfg,
                Comparison op, const analyze::AnalyzeOptions& aopts) {
    const Key key{cfg, op, aopts.k_iterations, aopts.lds_words};
    const std::lock_guard lock(mu);
    for (const Verdict& v : verdicts) {
      if (v.key == key) {
        return v;
      }
    }
    SNP_OBS_SPAN("core.lint");
    const auto lint = analyze::analyze(dev, cfg, op, aopts);
    SNP_OBS_COUNT("core.lint.diags", lint.diagnostics().size());
    Verdict v{key, {}, {}};
    for (const auto& d : lint.diagnostics()) {
      v.notes.push_back(std::string(analyze::to_string(d.severity)) + "  " +
                        d.id + "  " + d.message);
    }
    if (const auto* first = lint.first_error()) {
      v.error.emplace(first->id,
                      "pre-launch verification failed: " + first->message);
    }
    if (verdicts.size() == kMaxVerdicts) {
      verdicts.erase(verdicts.begin());
    }
    verdicts.push_back(v);
    return v;
  }
};

Context::Context() = default;
Context::~Context() = default;
Context::Context(Context&&) noexcept = default;
Context& Context::operator=(Context&&) noexcept = default;

Context Context::cpu() { return Context(); }

Context Context::gpu(const std::string& device_name) {
  Context ctx;
  ctx.gpu_ = cl::Platform::device(device_name);
  ctx.lint_ = std::make_unique<LintMemo>();
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
  return config_for(gpu_->spec(), a.rows(), b.rows(), op, options);
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

/// The per-chunk kernel model sums estimate() and compare_gpu() keep:
/// kernel seconds, and the kernel-time-weighted throughput, share of
/// peak, roofline and memory-bound time.
struct ModelSums {
  double kernel_s = 0.0;
  double gops_s = 0.0;
  double pct_s = 0.0;
  double attainable_s = 0.0;
  double memory_bound_s = 0.0;
  int active_cores = 0;

  /// One chunk's kernel, charged `seconds` of kernel time; the weights
  /// are the model's own kernel time.
  void add(double seconds, const sim::KernelTiming& kt,
           const sim::RooflinePoint& rp) {
    kernel_s += seconds;
    gops_s += kt.gops * kt.seconds;
    pct_s += kt.pct_of_peak * kt.seconds;
    attainable_s += rp.attainable_gops * kt.seconds;
    if (rp.memory_bound) {
      memory_bound_s += kt.seconds;
    }
    active_cores = std::max(active_cores, kt.active_cores);
  }

  /// Fills the report's kernel fields, and the transfer time hidden under
  /// compute from its init, transfer and end-to-end times.
  void fill(TimingReport& t) const {
    t.kernel_s = kernel_s;
    t.active_cores = active_cores;
    if (kernel_s > 0.0) {
      t.kernel_gops = gops_s / kernel_s;
      t.pct_of_peak = pct_s / kernel_s;
      t.attainable_gops = attainable_s / kernel_s;
      t.memory_bound = memory_bound_s > kernel_s / 2;
    }
    const double serial = t.init_s + t.h2d_s + t.kernel_s + t.d2h_s;
    t.overlap_hidden_s = std::max(0.0, serial - t.end_to_end_s);
  }
};

/// The chunk loop's stages, run on the calling thread in stream order:
/// pack binds the chunk's row window of the streamed operand (B when it
/// has at least as many rows as A), execute runs the host engine on it in
/// place (its tiles spread over exec::host_pool()), and drain delivers the
/// chunk callback. The device path runs a chunk inside each simulated
/// kernel launch, the host paths (Context::compare_host) back to back.
/// A chunk is delivered once run() returns.
struct ChunkStages {
  const BitMatrix& a;
  const BitMatrix& b;
  Comparison op;  ///< what the engine computes (Eq. 3 already lowered)
  const ComputeOptions& options;
  CountMatrix& gamma;  ///< a.rows() x b.rows(), written when keep_counts
  Clock::time_point wall0;  ///< the chunks' host stamps count from here

  /// Runs streamed rows [row0, row0 + rows) as chunk `ci`, stamping its
  /// host stages into `cev`. `guard(site, body)` runs each stage's body:
  /// the device path wraps it in its retry rung.
  template <typename Guard>
  void run(std::size_t ci, std::size_t row0, std::size_t rows,
           sim::HostChunkEvent& cev, const Guard& guard) const {
    const bool stream_b = b.rows() >= a.rows();
    const auto now = [this] {
      return std::chrono::duration<double>(Clock::now() - wall0).count();
    };
    [[maybe_unused]] const auto ci_ix = static_cast<std::int64_t>(ci);
    [[maybe_unused]] const auto trace_id = obs::current_trace().trace_id;
    bits::RowWindow window;  // this chunk's rows of the streamed operand
    CountMatrix part;        // its block, when a chunk callback needs one
    cev.host_pack_start = now();
    guard("pool.pack", [&] {
      SNP_OBS_SPAN("core.chunk.pack");
      window = bits::RowWindow{stream_b ? &b : &a, row0, rows};
    });
    SNP_OBS_FLIGHT(obs::FlightKind::kChunkPack, trace_id, 0, ci_ix, rows);
    cev.host_pack_end = cev.host_exec_start = now();
    guard("pool.execute", [&] {
      SNP_OBS_SPAN("core.chunk.execute");
      const bits::RowWindow resident{stream_b ? &a : &b, 0,
                                     stream_b ? a.rows() : b.rows()};
      const bits::RowWindow& ap = stream_b ? resident : window;
      const bits::RowWindow& bp = stream_b ? window : resident;
      // Straight into this chunk's block of the gamma matrix, or into a
      // block of its own when only a callback takes the results.
      std::uint32_t* block = nullptr;
      std::size_t ldc = bp.rows;
      if (options.keep_counts) {
        ldc = gamma.cols();
        block = gamma.raw().data() + (stream_b ? row0 : row0 * ldc);
      } else {
        part = CountMatrix::for_overwrite(ap.rows, bp.rows);
        block = part.raw().data();
      }
      // The engine overwrites the block (beta = 0), so a retried body
      // does not count twice.
      cpu::compare_into(ap, bp, op, block, ldc);
    });
    // The block's rows: every row of A when B streams, else the chunk's.
    SNP_OBS_FLIGHT(obs::FlightKind::kChunkExec, trace_id, 0, ci_ix,
                   stream_b ? a.rows() : rows);
    cev.host_exec_end = cev.host_drain_start = now();
    guard("pool.drain", [&] {
      SNP_OBS_SPAN("core.chunk.drain");
      if (options.chunk_callback) {
        if (options.keep_counts) {
          part = chunk_block(gamma, row0, rows, stream_b);
        }
        options.chunk_callback(
            ComputeOptions::ChunkView{row0, stream_b, part});
      }
    });
    SNP_OBS_FLIGHT(obs::FlightKind::kChunkDrain, trace_id, 0, ci_ix, rows);
    cev.host_drain_end = now();
  }
};

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
  const model::KernelConfig cfg = config_for(dev, m, n, op, options);
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
  ModelSums model;
  std::uint64_t h2d_bytes = plan.resident_bytes;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t wordops_exact = 0;
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
    model.add(kt.seconds, kt, rp);
  }

  sim::TimelineOptions topts;
  topts.double_buffered = options.double_buffer;
  topts.include_init = options.include_init;
  const sim::Timeline tl = sim::run_timeline(dev, chunks, topts);
  if (options.timeline_out != nullptr) {
    *options.timeline_out = tl;
  }

  TimingReport t;
  t.trace_anchor_us = trace_anchor_us();
  t.device = dev.name;
  t.config = cfg.to_string();
  t.init_s = tl.init_seconds;
  t.h2d_s = tl.h2d_seconds;
  t.d2h_s = tl.d2h_seconds;
  t.h2d_bytes = h2d_bytes;
  t.d2h_bytes = d2h_bytes;
  t.wordops = wordops_exact;
  t.end_to_end_s = tl.total_seconds;
  t.chunks = static_cast<int>(chunks.size()) - 1;
  model.fill(t);
  return t;
}

CompareResult Context::compare(const BitMatrix& a, const BitMatrix& b,
                               Comparison op,
                               const ComputeOptions& options) {
  check_operands(a, b, op, options);
  if (!gpu_) {
    SNP_OBS_SPAN("core.compare_cpu");
    SNP_OBS_COUNT("core.compare.calls", 1);
    CompareResult result;
    result.timing = compare_host(a, b, op, options, 0,
                                 std::max(a.rows(), b.rows()), result.counts);
    result.timing.device = device_name();
    SNP_OBS_COUNT("core.kernel.wordops",
                  static_cast<double>(result.timing.wordops));
    return result;
  }
  rt::FaultLog fault_log;
  std::size_t delivered = 0;  // the streamed rows the device delivered
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
    compare_gpu(a, b, op, options, &fault_log, delivered, result);
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
    // GPU->CPU graceful degradation: the host chunk loop resumes at the
    // first row the device did not deliver, so streaming consumers see
    // each row exactly once, and the counts are bit-identical to a clean
    // run (the device's functional kernel is the same host engine).
    if (options.functional) {
      const TimingReport rest = compare_host(
          a, b, op, options, delivered, std::max(a.rows(), b.rows()),
          result.counts);
      // The host rung really popcounts the remainder; the cost ledger
      // should see that work even though no device kernel ran it.
      result.timing.wordops += rest.wordops;
      result.timing.kernel_s += rest.end_to_end_s;
      result.timing.end_to_end_s += rest.end_to_end_s;
    }
    result.timing.degraded = true;
    result.timing.device = gpu_->name() + " -> cpu (degraded)";
    result.timing.fault_events = fault_log.snapshot();
    return result;
  }
}

TimingReport Context::compare_host(const BitMatrix& a, const BitMatrix& b,
                                   Comparison op,
                                   const ComputeOptions& options,
                                   std::size_t first, std::size_t last,
                                   CountMatrix& gamma) {
  const bool stream_b = b.rows() >= a.rows();
  const std::size_t resident_rows = stream_b ? a.rows() : b.rows();
  std::size_t window = options.keep_counts ? last - first : options.chunk_rows;
  if (window == 0) {
    window = host_window_rows(resident_rows);
  }
  // No wider than the range, so stepping a window past it cannot wrap.
  window = std::max<std::size_t>(std::min(window, last - first), 1);
  if (options.functional && options.keep_counts &&
      (gamma.rows() != a.rows() || gamma.cols() != b.rows())) {
    // The windows' blocks tile it and the engine stores each one.
    gamma = CountMatrix::for_overwrite(a.rows(), b.rows());
  }
  TimingReport t;
  t.trace_anchor_us = trace_anchor_us();
  t.chunks = static_cast<int>(bits::ceil_div(last - first, window));
  t.wordops = static_cast<std::uint64_t>(resident_rows) * (last - first) *
              bits::ceil_div(a.bit_cols(), bits::kBitsPerWord32);
  const ChunkStages stages{a, b, op, options, gamma, Clock::now()};
  for (std::size_t row0 = first; options.functional && row0 < last;
       row0 += window) {
    const std::size_t rows = std::min(window, last - row0);
    sim::HostChunkEvent& cev = t.chunk_events.emplace_back();
    cev.index = t.chunk_events.size() - 1;
    cev.row0 = row0;
    cev.rows = rows;
    stages.run(cev.index, row0, rows, cev,
               [](const char*, const auto& body) { body(); });
    // The host engine is this run's kernel.
    cev.kernel_start = cev.host_exec_start;
    cev.kernel_end = cev.host_exec_end;
    t.kernel_s += cev.host_exec_end - cev.host_exec_start;
    t.end_to_end_s = cev.host_drain_end;
  }
  if (t.kernel_s > 0.0) {
    t.kernel_gops = static_cast<double>(t.wordops) / t.kernel_s / 1e9;
  }
  return t;
}

void Context::compare_gpu(const BitMatrix& a, const BitMatrix& b,
                          Comparison op, const ComputeOptions& options,
                          rt::FaultLog* fault_log, std::size_t& delivered,
                          CompareResult& result) {
  SNP_OBS_SPAN("core.compare_gpu");
  SNP_OBS_COUNT("core.compare.calls", 1);
  // The chunks' host stage stamps count from here, where the trace
  // anchor is sampled: pid-0/pid-2 events of the merged trace are
  // relative to this compare, pid-1 spans to the collector session.
  const auto wall0 = Clock::now();
  result.timing.trace_anchor_us = trace_anchor_us();
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
  const bool stream_b = b_eff.rows() >= a.rows();
  const BitMatrix& resident = stream_b ? a : b_eff;
  const BitMatrix& streamed = stream_b ? b_eff : a;
  const ChunkPlan plan =
      plan_chunks(dev, cfg, a.rows(), b_eff.rows(),
                  streamed.words64_per_row() * 8, options.chunk_rows);
  const std::size_t chunk_rows = plan.chunk_rows;

  cl::Context clctx(*gpu_);
  cl::CommandQueue& q = clctx.queue();

  result.timing.device = dev.name;
  result.timing.config = cfg.to_string();
  if (options.lint) {
    // Pre-launch verification: the dataflow engine proves the generated
    // kernel program race-free, in-bounds, and overflow-free for the
    // *actual* trip count and LDS allocation of this launch, once per
    // context. Warn/info findings ride along in lint_notes; an
    // error-severity finding means the kernel must not launch and aborts
    // with exit code 3 (the first failed check's ID leads the message).
    analyze::AnalyzeOptions aopts;
    aopts.k_iterations = std::max<std::uint64_t>(
        1, (k_words + static_cast<std::size_t>(aopts.unroll) - 1) /
               static_cast<std::size_t>(aopts.unroll));
    aopts.lds_words = options.lds_words;
    LintMemo::Verdict v = lint_->prove(dev, cfg, op, aopts);
    result.timing.lint_notes = std::move(v.notes);
    if (v.error) {
      throw *v.error;
    }
  }
  if (options.functional && options.keep_counts) {
    // The chunks' blocks tile it and the kernel stores each one.
    result.counts = CountMatrix::for_overwrite(a.rows(), b.rows());
  }

  const kern::GpuSnpKernel kernel(dev, cfg, op);

  // Every device operation below runs under the bounded-retry rung: the
  // clmini injection sites throw before any virtual-clock or accounting
  // mutation, so a retried call replays against bit-identical state and
  // recovered runs stay indistinguishable from clean ones.
  auto resident_buf = rt::with_retry(rec, "alloc", -1, fault_log, [&] {
    return clctx.create_buffer(resident.size_bytes());
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
      return clctx.create_buffer(chunk_rows * plan.stream_row_bytes);
    }));
    c_bufs.push_back(rt::with_retry(rec, "alloc", i, fault_log, [&] {
      return clctx.create_buffer(chunk_rows * plan.c_row_bytes);
    }));
  }

  ModelSums model;
  const std::size_t n_chunks =
      bits::ceil_div(streamed.rows(), chunk_rows);
  result.timing.chunk_events.resize(n_chunks);

  // Functional runs compute each chunk inside its kernel enqueue.
  const ChunkStages stages{a,       b_eff,         kernel.lowered_op(),
                           options, result.counts, wall0};

  for (std::size_t ci = 0; ci < n_chunks; ++ci) {
    // Cooperative cancellation boundary: a fired token (explicit cancel
    // or expired request deadline) stops the pipeline here, before this
    // chunk's upload/launch, instead of running the stream to the end.
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
    // in the parent matrix, so the upload names the parent's storage
    // directly.
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
    // Each stage checkpoints the cancel token, so a batch whose deadline
    // fired mid-chunk stops at the next stage, and samples the `pool`
    // injection site inside its own retry scope, before any work: a
    // transient stage fault re-runs that body alone, and the virtual
    // clock moves only in the enqueue calls, so recovery cannot perturb
    // simulated timing.
    const auto ci_ix = static_cast<std::int64_t>(ci);
    const auto guard = [&](const char* site, const auto& body) {
      if (options.cancel != nullptr) options.cancel->checkpoint(ci_ix);
      rt::with_retry(rec, site, ci_ix, fault_log, [&] {
        rt::maybe_inject(rt::FaultSite::kPool, ci_ix);
        body();
      });
    };
    std::function<void()> functional;
    if (options.functional) {
      // Only a fully delivered chunk (block computed, callback ran) grows
      // the prefix the degradation rung resumes after.
      functional = [&] {
        stages.run(ci, row0, rows, cev, guard);
        delivered = row0 + rows;
      };
    }
    const cl::Event evk = rt::with_retry(
        rec, "launch", static_cast<std::int64_t>(ci), fault_log, [&] {
          return q.enqueue_kernel(kt.seconds, reads, writes, functional);
        });
    model.add(evk.duration(), kt, rp);
    cev.kernel_start = evk.start;
    cev.kernel_end = evk.end;

    // Read the C chunk back.
    const std::size_t c_bytes = rows * plan.c_row_bytes;
    const cl::Event evr = rt::with_retry(
        rec, "readback", static_cast<std::int64_t>(ci), fault_log,
        [&] { return q.enqueue_read(*c_bufs[slot], c_bytes); });
    result.timing.d2h_s += evr.duration();
    result.timing.d2h_bytes += c_bytes;
    SNP_OBS_COUNT("core.d2h.bytes", c_bytes);
    cev.d2h_start = evr.start;
    cev.d2h_end = evr.end;
  }

  const double end = q.finish();
  result.timing.init_s = options.include_init ? clctx.init_seconds() : 0.0;
  result.timing.end_to_end_s =
      end - (options.include_init ? 0.0 : clctx.init_seconds());
  result.timing.chunks = static_cast<int>(n_chunks);
  model.fill(result.timing);
}

CompareResult Context::ld(const BitMatrix& loci,
                          const ComputeOptions& options) {
  return compare(loci, loci, Comparison::kAnd, options);
}

IdentitySearchResult Context::identity_search(
    const BitMatrix& queries, const BitMatrix& database, std::size_t top_k,
    const ComputeOptions& options) {
  IdentitySearchResult out;
  out.top.resize(queries.rows());
  // No query has more candidates than the database has rows, and the
  // clamp keeps 4 * top_k below from wrapping.
  top_k = std::min(top_k, database.rows());
  const auto keep_best = [top_k](std::vector<stats::MatchCandidate>& best) {
    const std::size_t keep = std::min(top_k, best.size());
    std::partial_sort(best.begin(),
                      best.begin() + static_cast<std::ptrdiff_t>(keep),
                      best.end(), stats::ranks_before);
    best.resize(keep);
  };
  const double sites = static_cast<double>(database.bit_cols());
  ComputeOptions opts = options;
  opts.functional = true;
  opts.keep_counts = false;
  // A block holds database columns [row0, row0 + cols) for every query
  // when the database streams, else query rows [row0, row0 + rows)
  // against the whole database.
  opts.chunk_callback = [&](const ComputeOptions::ChunkView& view) {
    const std::size_t q0 = view.streamed_b ? 0 : view.row0;
    const std::size_t r0 = view.streamed_b ? view.row0 : 0;
    for (std::size_t i = 0; i < view.part.rows(); ++i) {
      auto& best = out.top[q0 + i];
      for (std::size_t j = 0; j < view.part.cols(); ++j) {
        const std::uint32_t mismatches = view.part.at(i, j);
        best.push_back(
            {r0 + j, mismatches, static_cast<double>(mismatches) / sites});
        if (best.size() > 4 * top_k) {
          keep_best(best);
        }
      }
    }
  };
  out.timing = compare(queries, database, Comparison::kXor, opts).timing;
  for (auto& best : out.top) {
    keep_best(best);
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
  out.included.resize(mixtures.rows());
  ComputeOptions opts = options;
  opts.functional = true;
  opts.keep_counts = false;
  // A block holds profile rows [row0, row0 + rows) against every mixture
  // when the profiles stream, else mixture columns [row0, row0 + cols)
  // for every profile. Chunks drain in stream order, so every list grows
  // in ascending profile order.
  opts.chunk_callback = [&](const ComputeOptions::ChunkView& view) {
    const std::size_t p0 = view.streamed_b ? 0 : view.row0;
    const std::size_t m0 = view.streamed_b ? view.row0 : 0;
    for (std::size_t i = 0; i < view.part.rows(); ++i) {
      for (std::size_t j = 0; j < view.part.cols(); ++j) {
        if (view.part.at(i, j) <= tolerance) {
          out.included[m0 + j].push_back(p0 + i);
        }
      }
    }
  };
  out.timing =
      compare(profiles, mixtures, Comparison::kAndNot, opts).timing;
  return out;
}

}  // namespace snp
