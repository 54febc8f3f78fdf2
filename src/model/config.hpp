// Software configuration of the parameterized GPU kernel (paper Section V).
//
// Only four values configure the kernel for a device — m_c, m_r, k_c, n_r,
// the BLIS blocking parameters — plus the distribution of compute cores
// between the second and third loops around the micro-kernel (the "core
// configuration" of Table II). `derive()` implements the analytical mapping
// of Section V-A (Eqs. 4-7); `paper_preset()` returns the exact Table II
// values. Note: Eq. 5 as printed gives m_c = N_b / N_cl = 8, while every
// Table II entry uses m_c = 32 = N_b; we implement the equation faithfully
// (exposed as `m_c_eq5`) but default to the empirical N_b choice the
// authors shipped, and document the discrepancy in DESIGN.md.
#pragma once

#include <cstddef>
#include <string>

#include "bits/compare.hpp"
#include "model/device.hpp"

namespace snp::model {

/// Which of the paper's workload families a configuration targets; it
/// affects n_r and the core grid (Table II has separate LD / FastID rows).
enum class WorkloadKind { kLd, kFastId };

struct CoreGrid {
  int grid_m = 1;  ///< cores distributed over the 3rd loop (M tiles)
  int grid_n = 1;  ///< cores distributed over the 2nd loop (N tiles)

  [[nodiscard]] int cores() const { return grid_m * grid_n; }
  [[nodiscard]] std::string to_string() const {
    return std::to_string(grid_m) + "x" + std::to_string(grid_n);
  }
  [[nodiscard]] bool operator==(const CoreGrid&) const = default;
};

struct KernelConfig {
  int m_r = 0;  ///< micro-tile rows per thread (Eq. 4: N_vec)
  int m_c = 0;  ///< A-tile rows resident in shared memory
  int k_c = 0;  ///< A-tile depth in 32-bit words (Eq. 6)
  int n_r = 0;  ///< C-tile columns per core (Eq. 7 lower-bounds it)
  CoreGrid grid;

  /// Eq. 3 lowering for mixture analysis: true = database stored negated
  /// and the kernel runs plain AND; false = NOT (or fused ANDN) in-kernel.
  bool pre_negated = false;

  /// Shared-memory bytes the A tile occupies.
  [[nodiscard]] std::size_t shared_tile_bytes() const {
    return static_cast<std::size_t>(m_c) * static_cast<std::size_t>(k_c) * 4;
  }
  /// Thread groups resident per core: the framework limits occupancy to
  /// N_cl clusters x L_fn latency-hiding groups each (paper §V-E); the
  /// (m_c / m_r) row sub-tiles are worked through sequentially per cluster.
  [[nodiscard]] int groups_per_core(const GpuSpec& dev) const;
  /// Accumulator registers each thread holds: m_r * (n_r / L_fn) outputs
  /// spread over the N_T threads of its group.
  [[nodiscard]] int accumulators_per_thread(const GpuSpec& dev) const;

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] bool operator==(const KernelConfig&) const = default;
};

/// Validation verdict with a reason, so callers can surface config errors.
struct ConfigCheck {
  bool ok = true;
  std::string reason;
};
[[nodiscard]] ConfigCheck validate(const KernelConfig& cfg,
                                   const GpuSpec& dev);

/// Eq. 5 exactly as printed: m_c = N_b / N_cl.
[[nodiscard]] int m_c_eq5(const GpuSpec& dev);

/// Registers a thread needs beyond its accumulators: the m_r A values and
/// N_vec B values in flight, loop counters and addresses.
inline constexpr int kRegOverheadPerThread = 16;

/// Per-thread register demand of `cfg`: accumulators plus the fixed
/// kRegOverheadPerThread overhead.
[[nodiscard]] int register_demand_per_thread(const KernelConfig& cfg,
                                             const GpuSpec& dev);

/// Per-thread register budget at the framework's occupancy plateau
/// (N_cl x L_fn resident groups of N_T threads), capped by the ISA's
/// per-thread limit.
[[nodiscard]] int register_budget_per_thread(const GpuSpec& dev);

/// Eq. 7 lower bound: n_r >= (N_T * m_r / m_c) * N_vec * L_fn.
[[nodiscard]] int n_r_lower_bound(const GpuSpec& dev, int m_r, int m_c);

/// Largest n_r (multiple of the Eq. 7 step) that keeps per-thread register
/// use within regs_per_core / resident-threads and max_regs_per_thread,
/// capped at the framework maximum of 1024 (the largest value the paper
/// deploys; beyond it the compiler spills in practice).
[[nodiscard]] int n_r_upper_bound(const GpuSpec& dev, int m_r, int m_c);

/// Analytical derivation of Section V-A. Produces m_r = N_vec, m_c = N_b,
/// k_c from Eq. 6 (minus the runtime's reserved bytes, §V-E) and the
/// largest feasible n_r; the grid comes from `derive_grid`.
[[nodiscard]] KernelConfig derive(const GpuSpec& dev, WorkloadKind kind,
                                  std::size_t m_tiles_hint = 0,
                                  std::size_t n_tiles_hint = 0);

/// The exact Table II software configuration for a device and workload.
[[nodiscard]] KernelConfig paper_preset(const GpuSpec& dev,
                                        WorkloadKind kind);

/// Distributes cores between the 2nd (N) and 3rd (M) loops: picks the
/// divisor pair of `cores` minimizing the per-core tile load
/// ceil(m_tiles/grid_m) * ceil(n_tiles/grid_n), preferring skew toward the
/// dimension with more parallelism (paper Section IV-C).
[[nodiscard]] CoreGrid derive_grid(std::size_t m_tiles, std::size_t n_tiles,
                                   int cores);

}  // namespace snp::model
