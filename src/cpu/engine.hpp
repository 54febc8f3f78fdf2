// BLIS-like blocked CPU engine for SNP comparisons (paper Section III).
//
// Alachiotis et al. [11] showed that LD reduces to a matrix-matrix multiply
// whose micro-kernel replaces multiply-add with (logical-op, POPCNT, add)
// on 64-bit words, and that only the BLIS micro-kernel needs to change to
// reach 80-90 % of the CPU's popcount-throughput peak. This module is that
// algorithm: the classic five-loop blocking (n_c -> k_c -> m_c -> n_r ->
// m_r) with packed A/B panels and a register-blocked micro-kernel,
// parallelized over the exec host pool. It is the paper's CPU baseline and
// the only dense popcount-GEMM on the host: the simulated GPU kernel
// (kern::GpuSnpKernel::execute) computes its counts with it too.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bits/bitmatrix.hpp"
#include "bits/compare.hpp"
#include "exec/thread_pool.hpp"

namespace snp::cpu {

/// Cache-blocking parameters in 64-bit words / rows. Defaults target a
/// generic modern x86 core (32 KiB L1D, 256 KiB-1 MiB L2).
struct CpuBlocking {
  std::size_t m_c = 64;    ///< A-panel rows per L2 block
  std::size_t k_c = 256;   ///< panel depth in 64-bit words (2 KiB strips)
  std::size_t n_c = 2048;  ///< B columns per L3 block
  static constexpr std::size_t m_r = 4;  ///< micro-tile rows
  /// Micro-tile cols: one 512-bit vector of 64-bit words.
  static constexpr std::size_t n_r = 8;

  [[nodiscard]] bool valid() const {
    return m_c >= m_r && n_c >= n_r && k_c > 0 && m_c % m_r == 0 &&
           n_c % n_r == 0;
  }
};

/// The engine's core entry, BLIS's C = AB with beta = 0 on a rectangle:
/// writes gamma[i,j] = sum_k popcount(op(A[i,k], B[j,k])) for the rows of
/// the windows `a` (M rows) and `b` (N rows) into the M x N block of C at
/// `c`, whose rows are `ldc` >= N counts apart, so the block may sit inside
/// a larger matrix. The first k_c panel stores its counts and later panels
/// add theirs, so the block needs no zeroing first and running the call
/// again gives the same block. The operands are read in place and no
/// M x N temporary is allocated. One pool.parallel_for runs over the 2-D
/// grid of m_c x n_c macro-tiles; a problem of one macro-tile runs on the
/// calling thread alone. When `a` and `b` are the same rows of one matrix
/// and `op` is symmetric (AND, XOR), it computes only the tiles on or
/// above the diagonal, as SYRK does, and writes each block wholly above it
/// at (i, j) and (j, i): half the popcounts. An A of fewer than m_r rows
/// (FastID's one to three queries against a database) takes the skinny
/// path instead, chosen from the shape alone: one pool.parallel_for over
/// B's n_c row blocks reads each row of B once, where it lies, against
/// every row of A over the full depth and stores each count once, with no
/// packing and no padding of A to m_r rows. The counts are the same on
/// every pool and on both paths.
void compare_into(bits::RowWindow a, bits::RowWindow b, bits::Comparison op,
                  std::uint32_t* c, std::size_t ldc,
                  const CpuBlocking& blocking = {},
                  exec::ThreadPool& pool = exec::host_pool());

/// The rectangle form over whole operands: `c` must be
/// a.rows() x b.rows().
void compare_into(const bits::BitMatrix& a, const bits::BitMatrix& b,
                  bits::Comparison op, bits::CountMatrix& c,
                  const CpuBlocking& blocking = {},
                  exec::ThreadPool& pool = exec::host_pool());

/// gamma = A op B into a fresh matrix that compare_into overwrites, so
/// it is never zero-filled.
[[nodiscard]] bits::CountMatrix compare_blocked(
    const bits::BitMatrix& a, const bits::BitMatrix& b, bits::Comparison op,
    const CpuBlocking& blocking = {});

/// Convenience single-call LD (Eq. 1): the self-comparison
/// compare_blocked(a, a, kAnd), which takes the triangle-only path.
[[nodiscard]] bits::CountMatrix ld_counts(const bits::BitMatrix& a,
                                          const CpuBlocking& blocking = {});

}  // namespace snp::cpu
