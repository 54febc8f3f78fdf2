// BLIS-like blocked CPU engine for SNP comparisons (paper Section III).
//
// Alachiotis et al. [11] showed that LD reduces to a matrix-matrix multiply
// whose micro-kernel replaces multiply-add with (logical-op, POPCNT, add)
// on 64-bit words, and that only the BLIS micro-kernel needs to change to
// reach 80-90 % of the CPU's popcount-throughput peak. This module is that
// algorithm: the classic five-loop blocking (n_c -> k_c -> m_c -> n_r ->
// m_r) with packed A/B panels and a register-blocked micro-kernel,
// parallelized with OpenMP. It is the paper's CPU baseline and the only
// dense popcount-GEMM on the host: the simulated GPU kernel
// (kern::GpuSnpKernel::execute) computes its counts with it too.
#pragma once

#include <cstddef>

#include "bits/bitmatrix.hpp"
#include "bits/compare.hpp"

namespace snp::exec {
class ThreadPool;
}

namespace snp::cpu {

/// Cache-blocking parameters in 64-bit words / rows. Defaults target a
/// generic modern x86 core (32 KiB L1D, 256 KiB-1 MiB L2).
struct CpuBlocking {
  std::size_t m_c = 64;    ///< A-panel rows per L2 block
  std::size_t k_c = 256;   ///< panel depth in 64-bit words (2 KiB strips)
  std::size_t n_c = 2048;  ///< B columns per L3 block
  static constexpr std::size_t m_r = 4;  ///< micro-tile rows
  static constexpr std::size_t n_r = 4;  ///< micro-tile cols

  [[nodiscard]] bool valid() const {
    return m_c >= m_r && n_c >= n_r && k_c > 0 && m_c % m_r == 0 &&
           n_c % n_r == 0;
  }
};

/// The engine's core entry, BLIS's C += AB: adds
/// gamma[i,j] = sum_k popcount(op(A[i,k], B[j,k])) into the caller-owned
/// `c`, which must be a.rows() x b.rows(); no m x n temporary is
/// allocated. A is (M x K bits), B is (N x K bits), both row-major over
/// K. One OpenMP loop runs over the 2-D grid of m_c x n_c macro-tiles, so
/// a one-row query still spreads across B's n_c blocks; a problem of one
/// macro-tile runs on the calling thread alone.
void compare_accumulate(const bits::BitMatrix& a, const bits::BitMatrix& b,
                        bits::Comparison op, bits::CountMatrix& c,
                        const CpuBlocking& blocking = {});

/// gamma = A op B into a fresh matrix: compare_accumulate from zero.
[[nodiscard]] bits::CountMatrix compare_blocked(
    const bits::BitMatrix& a, const bits::BitMatrix& b, bits::Comparison op,
    const CpuBlocking& blocking = {});

/// Asynchronous variant of compare_blocked: the same five-loop blocking
/// expressed as a task graph on `pool` instead of OpenMP pragmas. A and B
/// panels are packed by dedicated tasks (at most two k_c panel generations
/// in flight — double-buffered packing, so packing for panel p+1 overlaps
/// the micro-kernels of panel p), and each m_c x n_c macro-tile runs as
/// one task whose k_c accumulation chain preserves the serial order.
/// Results are bit-identical to compare_blocked for any pool size
/// (including an inline 0-thread pool).
[[nodiscard]] bits::CountMatrix compare_blocked_async(
    const bits::BitMatrix& a, const bits::BitMatrix& b, bits::Comparison op,
    exec::ThreadPool& pool, const CpuBlocking& blocking = {});

/// The host engine as the framework calls it: `threads` = 0 runs
/// compare_blocked (OpenMP, on the calling thread), `threads` > 0 runs
/// compare_blocked_async on a pool of that many threads. The counts are
/// the same either way.
[[nodiscard]] bits::CountMatrix compare(const bits::BitMatrix& a,
                                        const bits::BitMatrix& b,
                                        bits::Comparison op,
                                        std::size_t threads);

/// Convenience single-call LD (Eq. 1): C = (A & A)^T-style self-comparison,
/// i.e. compare_blocked(a, a, kAnd).
[[nodiscard]] bits::CountMatrix ld_counts(const bits::BitMatrix& a,
                                          const CpuBlocking& blocking = {});

}  // namespace snp::cpu
