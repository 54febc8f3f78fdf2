// Linkage-disequilibrium statistics (paper Section II-A).
//
// The GPU/CPU engines produce the raw co-occurrence counts
// gamma[i,j] = |a_i & a_j| (Eq. 1). This module turns them into the
// population-genetics quantities of interest: D = p_AB - p_A p_B, the
// normalized D' of Lewontin, and the squared correlation r^2 — the
// statistics LD scans actually report.
#pragma once

#include <cstdint>
#include <vector>

#include "bits/bitmatrix.hpp"

namespace snp::stats {

struct LdStats {
  double p_a = 0.0;   ///< minor-allele frequency at locus A
  double p_b = 0.0;   ///< minor-allele frequency at locus B
  double p_ab = 0.0;  ///< joint frequency
  double d = 0.0;     ///< D = p_AB - p_A * p_B
  double d_prime = 0.0;
  double r2 = 0.0;
};

/// Computes LD statistics for one locus pair from the comparison output:
/// `joint` = gamma[i,j], `count_a` / `count_b` = per-locus set-bit counts,
/// `samples` = number of sample columns (the denominator).
[[nodiscard]] LdStats ld_from_counts(std::uint32_t joint,
                                     std::uint32_t count_a,
                                     std::uint32_t count_b,
                                     std::size_t samples);

/// All-pairs r^2 from a full gamma matrix (as produced by an LD kernel run
/// of A against itself) and the per-locus counts. Returns a dense
/// loci x loci matrix in row-major order, each entry bit-identical to
/// ld_from_counts(gamma[i,j], count_i, count_j, samples).r2; throws
/// std::invalid_argument on the counts ld_from_counts rejects.
[[nodiscard]] std::vector<double> r2_matrix(
    const bits::CountMatrix& gamma,
    const std::vector<std::uint32_t>& locus_counts, std::size_t samples);

/// Per-row set-bit counts of a bit matrix (the marginals LD needs).
[[nodiscard]] std::vector<std::uint32_t> row_counts(const bits::BitMatrix&
                                                        m);

}  // namespace snp::stats
