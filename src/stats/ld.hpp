// Linkage-disequilibrium statistics (paper Section II-A).
//
// The GPU/CPU engines produce the raw co-occurrence counts
// gamma[i,j] = |a_i & a_j| (Eq. 1). This module turns them into the
// population-genetics quantities of interest: D = p_AB - p_A p_B, the
// normalized D' of Lewontin, and the squared correlation r^2 — the
// statistics LD scans actually report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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
/// `samples` = number of sample columns (the denominator). Symmetric in
/// its loci: swapping (count_a, count_b) gives bit-identical r^2 and D.
[[nodiscard]] LdStats ld_from_counts(std::uint32_t joint,
                                     std::uint32_t count_a,
                                     std::uint32_t count_b,
                                     std::size_t samples);

/// All-pairs r^2 of a loci x loci LD output, each unordered pair kept
/// once: the upper triangle, diagonal included, packed row by row (row i
/// holds columns i..loci-1), n(n+1)/2 doubles instead of n^2.
class R2Matrix {
 public:
  R2Matrix() = default;

  [[nodiscard]] std::size_t loci() const { return loci_; }
  [[nodiscard]] bool empty() const { return loci_ == 0; }
  /// r^2 of loci i and j, in either order.
  [[nodiscard]] double at(std::size_t i, std::size_t j) const {
    return i <= j ? packed_[offset(i) + j] : packed_[offset(j) + i];
  }
  [[nodiscard]] std::span<const double> packed() const { return packed_; }
  [[nodiscard]] std::size_t size_bytes() const {
    return packed_.size() * sizeof(double);
  }

 private:
  friend R2Matrix r2_matrix(const bits::CountMatrix&,
                            const std::vector<std::uint32_t>&, std::size_t);

  /// Leaves the entries unset: r2_matrix writes every one of them.
  explicit R2Matrix(std::size_t loci)
      : loci_(loci), packed_(loci * (loci + 1) / 2) {}

  /// packed_[offset(i) + j] is (i, j) for j >= i: the rows above row i
  /// hold loci, loci - 1, ..., loci - i + 1 entries.
  [[nodiscard]] std::size_t offset(std::size_t i) const {
    return i * (2 * loci_ - i + 1) / 2 - i;
  }

  std::size_t loci_ = 0;
  std::vector<double, bits::DefaultInitAllocator<double>> packed_;
};

/// All-pairs r^2 from a full gamma matrix (as produced by an LD kernel run
/// of A against itself) and the per-locus counts; at(i, j) is
/// bit-identical to ld_from_counts(gamma[i,j], count_i, count_j,
/// samples).r2 in either order. Throws std::invalid_argument if gamma is
/// not symmetric or holds counts ld_from_counts rejects.
[[nodiscard]] R2Matrix r2_matrix(
    const bits::CountMatrix& gamma,
    const std::vector<std::uint32_t>& locus_counts, std::size_t samples);

/// Per-row set-bit counts of a bit matrix (the marginals LD needs).
[[nodiscard]] std::vector<std::uint32_t> row_counts(const bits::BitMatrix&
                                                        m);

}  // namespace snp::stats
