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
  const double denom_var = s.p_a * qa * s.p_b * qb;
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

std::vector<double> r2_matrix(const bits::CountMatrix& gamma,
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
  // Per-locus p and 1 - p, each computed as ld_from_counts computes it;
  // the pass below keeps its operation order too, so every entry is
  // bit-identical to ld_from_counts(...).r2.
  std::vector<double> p(loci);
  std::vector<double> q(loci);
  for (std::size_t i = 0; i < loci; ++i) {
    if (locus_counts[i] > samples) {
      throw std::invalid_argument("r2_matrix: inconsistent counts");
    }
    p[i] = locus_counts[i] / n;
    q[i] = 1.0 - p[i];
  }
  std::vector<double> out(loci * loci);
  const std::uint32_t* joint = gamma.raw().data();
  const std::uint32_t* counts = locus_counts.data();
  std::atomic<unsigned> inconsistent{0};
  // One branch-free pass over blocks of about kBlockEntries entries,
  // spread over the host pool: the joint <= min(count) check is an OR
  // read after the loop, and `omp simd` (-fopenmp-simd) lets the compiler
  // if-convert the guarded division.
  constexpr std::size_t kBlockEntries = std::size_t{1} << 16;
  const std::size_t block_rows =
      1 + kBlockEntries / std::max<std::size_t>(loci, 1);
  const std::size_t blocks = bits::ceil_div(loci, block_rows);
  exec::host_pool().parallel_for(blocks, [&](std::size_t, std::size_t blk) {
    unsigned bad = 0;
    const std::size_t end = std::min(loci, (blk + 1) * block_rows);
    for (std::size_t i = blk * block_rows; i < end; ++i) {
      const std::uint32_t* row = joint + i * loci;
      double* r2 = out.data() + i * loci;
      const std::uint32_t count_i = counts[i];
      const double p_i = p[i];
      const double pq_i = p_i * q[i];
#pragma omp simd reduction(| : bad)
      for (std::size_t j = 0; j < loci; ++j) {
        bad |= row[j] > std::min(count_i, counts[j]) ? 1u : 0u;
        const double d = row[j] / n - p_i * p[j];
        const double denom_var = pq_i * p[j] * q[j];
        r2[j] = denom_var > 0.0 ? d * d / denom_var : 0.0;
      }
    }
    inconsistent.fetch_or(bad, std::memory_order_relaxed);
  });
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
