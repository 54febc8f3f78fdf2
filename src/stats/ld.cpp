#include "stats/ld.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "exec/thread_pool.hpp"

namespace snp::stats {

LdStats ld_from_counts(std::uint32_t joint, std::uint32_t count_a,
                       std::uint32_t count_b, std::size_t samples) {
  if (samples == 0) {
    throw std::invalid_argument("ld_from_counts: samples must be > 0");
  }
  if (joint > std::min(count_a, count_b) || count_a > samples ||
      count_b > samples) {
    throw std::invalid_argument("ld_from_counts: inconsistent counts");
  }
  LdStats s;
  const auto n = static_cast<double>(samples);
  s.p_a = count_a / n;
  s.p_b = count_b / n;
  s.p_ab = joint / n;
  s.d = s.p_ab - s.p_a * s.p_b;

  const double qa = 1.0 - s.p_a;
  const double qb = 1.0 - s.p_b;
  // (p_a q_a)(p_b q_b): the same bits with the loci swapped.
  const double denom_var = (s.p_a * qa) * (s.p_b * qb);
  s.r2 = denom_var > 0.0 ? s.d * s.d / denom_var : 0.0;

  double d_max;
  if (s.d >= 0.0) {
    d_max = std::min(s.p_a * qb, qa * s.p_b);
  } else {
    d_max = std::min(s.p_a * s.p_b, qa * qb);
  }
  s.d_prime = d_max > 0.0 ? std::abs(s.d) / d_max : 0.0;
  return s;
}

R2Matrix r2_matrix(const bits::CountMatrix& gamma,
                   const std::vector<std::uint32_t>& locus_counts,
                   std::size_t samples) {
  if (gamma.rows() != gamma.cols() ||
      gamma.rows() != locus_counts.size()) {
    throw std::invalid_argument("r2_matrix: shape mismatch");
  }
  if (samples == 0) {
    throw std::invalid_argument("r2_matrix: samples must be > 0");
  }
  const std::size_t loci = gamma.rows();
  const auto n = static_cast<double>(samples);
  // Per-locus p and p(1 - p), each computed as ld_from_counts computes it;
  // the pass below keeps its operation order too, so every entry is
  // bit-identical to ld_from_counts(...).r2.
  std::vector<double> p(loci);
  std::vector<double> pq(loci);
  for (std::size_t i = 0; i < loci; ++i) {
    if (locus_counts[i] > samples) {
      throw std::invalid_argument("r2_matrix: inconsistent counts");
    }
    p[i] = locus_counts[i] / n;
    pq[i] = p[i] * (1.0 - p[i]);
  }
  R2Matrix out(loci);
  const std::uint32_t* joint = gamma.raw().data();
  const std::uint32_t* counts = locus_counts.data();
  std::atomic<unsigned> inconsistent{0};
  std::atomic<unsigned> asymmetric{0};
  // The upper triangle in 64 x 64 tiles, one row of tiles per task, spread
  // over the host pool: each tile's r^2 comes from its upper entries,
  // checked against min(count_i, count_j), and the tile mirrored below the
  // diagonal must equal it transposed, so every input entry is checked.
  // Both checks are ORs read after the loop, so the loops stay
  // branch-free. The guarded division vectorizes as a masked packed divide
  // only because ld.cpp is built with -fno-trapping-math: under the
  // default -ftrapping-math GCC will not if-convert a division that may
  // trap, and the loop stays scalar. Walking the mirror tile by tile keeps
  // its strided column reads in cache.
  constexpr std::size_t kTile = 64;
  const std::size_t tile_rows = bits::ceil_div(loci, kTile);
  exec::host_pool().parallel_for(tile_rows, [&](std::size_t,
                                                std::size_t ti) {
    unsigned bad = 0;
    unsigned asym = 0;
    const std::size_t i0 = ti * kTile;
    const std::size_t i1 = std::min(loci, i0 + kTile);
    for (std::size_t j0 = i0; j0 < loci; j0 += kTile) {
      const std::size_t j1 = std::min(loci, j0 + kTile);
      for (std::size_t i = i0; i < i1; ++i) {
        const std::uint32_t* row = joint + i * loci;
        double* r2 = out.packed_.data() + out.offset(i);
        const std::uint32_t count_i = counts[i];
        const double p_i = p[i];
        const double pq_i = pq[i];
#pragma omp simd reduction(| : bad)
        for (std::size_t j = std::max(i, j0); j < j1; ++j) {
          bad |= row[j] > std::min(count_i, counts[j]) ? 1u : 0u;
          const double d = row[j] / n - p_i * p[j];
          const double denom_var = pq_i * pq[j];
          r2[j] = denom_var > 0.0 ? d * d / denom_var : 0.0;
        }
      }
      for (std::size_t j = j0; j < j1; ++j) {
        const std::uint32_t* mirror = joint + j * loci;
        const std::size_t i_end = std::min(i1, j);
#pragma omp simd reduction(| : asym)
        for (std::size_t i = i0; i < i_end; ++i) {
          asym |= mirror[i] != joint[i * loci + j] ? 1u : 0u;
        }
      }
    }
    inconsistent.fetch_or(bad, std::memory_order_relaxed);
    asymmetric.fetch_or(asym, std::memory_order_relaxed);
  });
  if (asymmetric.load(std::memory_order_relaxed) != 0) {
    throw std::invalid_argument("r2_matrix: gamma is not symmetric");
  }
  if (inconsistent.load(std::memory_order_relaxed) != 0) {
    throw std::invalid_argument("r2_matrix: inconsistent counts");
  }
  return out;
}

std::vector<std::uint32_t> row_counts(const bits::BitMatrix& m) {
  std::vector<std::uint32_t> out(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    out[r] = static_cast<std::uint32_t>(m.row_popcount(r));
  }
  return out;
}

}  // namespace snp::stats
