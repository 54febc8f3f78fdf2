// snpcmp — public API of the portable SNP-comparison framework.
//
// This is the facade a downstream user programs against:
//
//   auto ctx = snp::Context::gpu("titanv");          // or Context::cpu()
//   auto result = ctx.compare(queries, database, snp::bits::Comparison::kXor);
//   // result.counts is the gamma matrix; result.timing the full breakdown
//
// plus domain wrappers: ld() (Eq. 1), identity_search() (Eq. 2) and
// mixture_analysis() (Eq. 3). GPU execution streams the larger operand
// through device memory in double-buffered chunks, exactly as the paper's
// host code does (Section VI-A), and every stage is timestamped on the
// simulated device's virtual clock. The two FastID wrappers fold each
// chunk into their answers (per-query top-k, per-mixture inclusions) as
// it drains, so a GPU context never holds the gamma matrix, which reaches
// gigabytes against a 20 M-profile database (a CPU context computes it as
// one chunk); a caller that wants gamma calls compare().
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stats/forensic.hpp"

#include "bits/bitmatrix.hpp"
#include "bits/compare.hpp"
#include "bits/genotype.hpp"
#include "cl/clmini.hpp"
#include "model/config.hpp"
#include "model/device.hpp"
#include "rt/recovery.hpp"
#include "sim/timing.hpp"
#include "sim/trace.hpp"
#include "sim/transfer.hpp"
#include "stats/em_ld.hpp"

namespace snp {

struct ComputeOptions {
  /// Override the device's Table II preset configuration.
  std::optional<model::KernelConfig> config;
  /// Produce real counts (true) or run the timing model only (false) —
  /// benches at paper scale (20 M profiles) use the latter.
  bool functional = true;
  /// Double-buffer chunk transfers against compute (Section VI-A).
  bool double_buffer = true;
  /// Charge the one-time OpenCL initialization to the end-to-end time.
  bool include_init = true;
  /// AND-NOT only: store the streamed operand negated and run AND
  /// (the Eq. 3 simplification).
  bool pre_negate = false;
  /// Rows of the streamed operand per chunk; 0 = largest that fits the
  /// device's allocation limits with two in-flight buffers.
  std::size_t chunk_rows = 0;

  /// GPU contexts: run the static analyzer (src/analyze) on the effective
  /// config before launch and attach its findings to
  /// TimingReport::lint_notes. The dataflow proofs run for the real trip
  /// count; warn/info findings never block, but an error-severity finding
  /// (a race, out-of-bounds access, or accumulator overflow the engine
  /// can prove) aborts the launch with analyze::VerificationError (CLI
  /// exit code 3, check ID first).
  bool lint = true;
  /// Launch-time LDS allocation override in 32-bit words for the lint
  /// pass, e.g. an autotuner's proposed tile. 0 = the config's Eq. 4/5
  /// tile. The SNP-BOUND-* proofs verify the staged footprint fits this
  /// allocation before anything launches.
  int lds_words = 0;

  /// One finished chunk of the gamma matrix, delivered in stream order.
  /// `part` is the block of rows [row0, row0+part.rows()) when the A
  /// operand streams, or columns [row0, row0+part.cols()) when B streams.
  struct ChunkView {
    std::size_t row0 = 0;
    bool streamed_b = true;
    const bits::CountMatrix& part;
  };
  /// When set, compare() delivers each chunk's results here as soon as
  /// its (simulated) readback completes, on the calling thread. Combine
  /// with keep_counts = false to process paper-scale outputs in bounded
  /// memory.
  std::function<void(const ChunkView&)> chunk_callback;
  /// Assemble the full gamma matrix in CompareResult::counts (disable for
  /// streaming consumers; requires a chunk_callback or functional=false).
  bool keep_counts = true;

  /// estimate() only: when non-null, receives the simulated execution
  /// timeline (init + per-chunk h2d/kernel/d2h intervals) — feed it to
  /// sim::write_chrome_trace to visualize the pipeline.
  sim::Timeline* timeline_out = nullptr;

  /// Fault-recovery policy for the device pipeline (docs/robustness.md):
  /// per-operation bounded retry with deterministic backoff, an optional
  /// per-operation deadline, and — under kDegrade/kFailover — a final
  /// GPU->CPU rung that recomputes the undelivered remainder on the host
  /// engine. Recovered runs deliver counts and chunk callbacks
  /// bit-identical to a clean run; every incident is logged to
  /// TimingReport::fault_events. The default (kRetry) only retries; CPU
  /// contexts ignore this.
  rt::RecoveryOptions recovery;

  /// Cooperative cancellation (docs/robustness.md "Request lifecycle").
  /// When set, the pipeline checkpoints the token between chunks and at
  /// the top of every chunk stage: a fired token (explicit cancel or an
  /// attached expired deadline) aborts the run at the next boundary with
  /// the token's structured status. A kDeadline cancellation is final —
  /// compare() rethrows it without entering the degrade/failover rung,
  /// because recomputing a request that already blew its budget on the
  /// CPU would waste host time to produce an answer nobody is waiting
  /// for. Null = never cancelled (and no extra fault-injector draws).
  std::shared_ptr<rt::CancelToken> cancel;

  /// Per-device circuit breaker (failure_threshold = 0 disables). When
  /// enabled, compare() consults the device's breaker in
  /// rt::BreakerRegistry::global() before the GPU attempt: an open
  /// breaker fast-fails with kCancelled — ahead of the retry rung — so
  /// the degrade/failover ladder routes around a persistently failing
  /// device without paying another doomed attempt. GPU outcomes feed
  /// the breaker (success closes, failure opens; deadline expiry is
  /// neutral — it says nothing about device health).
  rt::BreakerOptions breaker;
};

struct TimingReport {
  double init_s = 0.0;
  double h2d_s = 0.0;     ///< copy-engine busy (host -> device)
  double kernel_s = 0.0;  ///< compute-engine busy
  double d2h_s = 0.0;     ///< copy-engine busy (device -> host)
  double end_to_end_s = 0.0;
  double kernel_gops = 0.0;    ///< achieved Gword-ops/s (32-bit words)
  double pct_of_peak = 0.0;
  /// Roofline-attainable Gword-ops/s for this shape on this device:
  /// min(FU peak, arithmetic intensity x effective bandwidth), weighted
  /// across chunks like kernel_gops. 0 on CPU contexts (no modeled
  /// roofline); compare kernel_gops against it for the achieved-vs-model
  /// efficiency line (obs::EfficiencySummary).
  double attainable_gops = 0.0;
  /// True when the kernel-time-weighted majority of chunks sit left of
  /// the device's ridge point (under the memory roof, sim/roofline.hpp).
  bool memory_bound = false;
  double overlap_hidden_s = 0.0;  ///< transfer time hidden under compute
  /// Exact integer transfer/compute totals for cost attribution
  /// (obs::CostLedger): bytes enqueued host->device / device->host and
  /// 32-bit words popcounted. Mirrors of the core.h2d.bytes /
  /// core.d2h.bytes / core.kernel.wordops counters, but per-run instead
  /// of process-wide — integer so per-request shares can sum back
  /// bit-identically.
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t wordops = 0;
  int chunks = 0;
  int active_cores = 0;
  std::string device;
  std::string config;
  /// Per-chunk simulated queue/start/end intervals plus the real host
  /// wall-clock of each chunk's pack/execute/drain stages — feed to
  /// sim::write_host_chrome_trace to visualize the measured host pipeline
  /// (functional compare() only; estimate() fills a sim::Timeline via
  /// ComputeOptions::timeline_out instead).
  std::vector<sim::HostChunkEvent> chunk_events;
  /// Pre-launch static-analysis findings, one "severity  ID  message"
  /// line each (ComputeOptions::lint, GPU contexts only). Error severity
  /// only appears on runs aborted by analyze::VerificationError; clean
  /// launches carry warn/info notes at most.
  std::vector<std::string> lint_notes;
  /// Every fault the recovery machinery observed this run and the action
  /// taken (retry/exhausted/degrade/...), in completion order. Empty on
  /// clean runs.
  std::vector<rt::FaultEvent> fault_events;
  /// True when the GPU pipeline could not finish and the remainder was
  /// recomputed on the CPU rung (ComputeOptions::recovery). The counts
  /// are still exact; only the performance story changed.
  bool degraded = false;
  /// Wall-clock session time (obs::TraceCollector::global().now_us())
  /// sampled when the compare started. The merged Perfetto trace shifts
  /// the device timeline (pid 0, virtual t=0 at compare start) and the
  /// host chunk pipeline (pid 2, wall clock relative to compare start)
  /// by this anchor so all pids share the span clock's origin and flow
  /// arrows stay monotone. 0 when the collector was disabled.
  double trace_anchor_us = 0.0;
};

struct CompareResult {
  bits::CountMatrix counts;  ///< empty when options.functional == false
  TimingReport timing;
};

/// Identity-search output (Eq. 2).
struct IdentitySearchResult {
  /// top[q] = query q's best candidates, in stats::ranks_before order.
  std::vector<std::vector<stats::MatchCandidate>> top;
  TimingReport timing;
};

/// Mixture-analysis output (Eq. 3).
struct MixtureAnalysisResult {
  /// included[m] = ascending indices of the profiles with at most
  /// `tolerance` foreign alleles (|profile & ~mixture m|).
  std::vector<std::vector<std::size_t>> included;
  TimingReport timing;
};

class Context {
 public:
  /// Native CPU execution with the BLIS-like engine (real wall-clock
  /// timing, plus the modeled Xeon E5-2620 v2 projection in the report).
  [[nodiscard]] static Context cpu();
  /// Simulated GPU execution ("gtx980", "titanv", "vega64").
  [[nodiscard]] static Context gpu(const std::string& device_name);

  ~Context();
  Context(Context&&) noexcept;
  Context& operator=(Context&&) noexcept;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] bool is_gpu() const { return gpu_.has_value(); }
  [[nodiscard]] std::string device_name() const;
  /// GPU contexts only; throws std::logic_error on CPU contexts.
  [[nodiscard]] const model::GpuSpec& gpu_spec() const;

  /// gamma[i,j] = sum_k popc(op(A[i,k], B[j,k])). A and B are row-major
  /// over the shared K (bit) dimension.
  [[nodiscard]] CompareResult compare(const bits::BitMatrix& a,
                                      const bits::BitMatrix& b,
                                      bits::Comparison op,
                                      const ComputeOptions& options = {});

  /// LD co-occurrence counts of every locus pair (Eq. 1): compare(a, a,
  /// AND) with the LD preset.
  [[nodiscard]] CompareResult ld(const bits::BitMatrix& loci,
                                 const ComputeOptions& options = {});

  /// FastID identity search (Eq. 2): each query's `top_k` best database
  /// rows under XOR (all of them when `top_k` exceeds the database).
  [[nodiscard]] IdentitySearchResult identity_search(
      const bits::BitMatrix& queries, const bits::BitMatrix& database,
      std::size_t top_k = 10, const ComputeOptions& options = {});

  /// Genotype-level LD for an *unphased* diploid cohort: encodes the
  /// presence and homozygous planes, runs the four plane comparisons on
  /// this backend, recovers each pair's 3x3 genotype table, and fits
  /// haplotype frequencies by EM (stats/em_ld.hpp). `pairs` is loci x loci
  /// row-major; the timing aggregates the four kernel launches (the
  /// one-time init is charged once).
  struct GenotypeLdResult {
    std::vector<stats::EmLdResult> pairs;
    std::size_t loci = 0;
    TimingReport timing;

    [[nodiscard]] const stats::EmLdResult& at(std::size_t i,
                                              std::size_t j) const {
      return pairs[i * loci + j];
    }
  };
  [[nodiscard]] GenotypeLdResult genotype_ld(
      const bits::GenotypeMatrix& genotypes,
      const ComputeOptions& options = {});

  /// FastID mixture analysis (Eq. 3): per mixture, the profiles with at
  /// most `tolerance` foreign alleles |profile & ~mixture|; a tolerance
  /// above 0 admits genotyping errors when calling contributors.
  [[nodiscard]] MixtureAnalysisResult mixture_analysis(
      const bits::BitMatrix& profiles, const bits::BitMatrix& mixtures,
      std::uint32_t tolerance = 0, const ComputeOptions& options = {});

  /// The configuration `compare` would use for this op/shape (preset or
  /// override), after grid adaptation — exposed for inspection and benches.
  [[nodiscard]] model::KernelConfig effective_config(
      const bits::BitMatrix& a, const bits::BitMatrix& b,
      bits::Comparison op, const ComputeOptions& options = {}) const;

  /// Data-free end-to-end projection for an (m x k) vs (n x k) comparison:
  /// the same chunking, transfer, and kernel models `compare` uses, without
  /// materializing matrices. This is how paper-scale experiments (e.g. the
  /// >20-million-profile database of Fig. 8) are evaluated. GPU contexts
  /// only; CPU contexts report the modeled Xeon E5-2620 v2 time.
  [[nodiscard]] TimingReport estimate(std::size_t m, std::size_t n,
                                      std::size_t k_bits,
                                      bits::Comparison op,
                                      const ComputeOptions& options = {})
      const;

 private:
  Context();

  [[nodiscard]] CompareResult compare_cpu(const bits::BitMatrix& a,
                                          const bits::BitMatrix& b,
                                          bits::Comparison op,
                                          const ComputeOptions& options);

  /// How far the device pipeline got before failing: chunks drain in
  /// stream order, so `delivered_rows` is an exact prefix of the streamed
  /// operand, and the degradation rung recomputes only the remainder and
  /// never redelivers a chunk to streaming consumers.
  struct GpuProgress {
    bool stream_b = true;
    std::atomic<std::size_t> delivered_rows{0};
  };
  /// Fills `out` in place (partial results survive a mid-run throw for
  /// the degradation rung to finish from).
  void compare_gpu(const bits::BitMatrix& a, const bits::BitMatrix& b,
                   bits::Comparison op, const ComputeOptions& options,
                   rt::FaultLog* fault_log, GpuProgress* progress,
                   CompareResult& out);

  std::optional<cl::Device> gpu_;
};

}  // namespace snp
