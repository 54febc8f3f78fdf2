// LD statistics: D, D', r^2 identities and ranges.
#include "stats/ld.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "bits/compare.hpp"
#include "io/datagen.hpp"

namespace snp::stats {
namespace {

TEST(LdStats, PerfectPositiveLd) {
  // Identical loci: p_AB = p_A = p_B -> D' = 1, r^2 = 1.
  const auto s = ld_from_counts(40, 40, 40, 100);
  EXPECT_NEAR(s.d, 0.4 - 0.16, 1e-12);
  EXPECT_NEAR(s.d_prime, 1.0, 1e-12);
  EXPECT_NEAR(s.r2, 1.0, 1e-12);
}

TEST(LdStats, LinkageEquilibrium) {
  // p_AB == p_A * p_B -> D = 0.
  const auto s = ld_from_counts(20, 40, 50, 100);
  EXPECT_NEAR(s.d, 0.0, 1e-12);
  EXPECT_NEAR(s.r2, 0.0, 1e-12);
  EXPECT_NEAR(s.d_prime, 0.0, 1e-12);
}

TEST(LdStats, NegativeD) {
  // Fewer co-occurrences than independence predicts.
  const auto s = ld_from_counts(5, 40, 50, 100);
  EXPECT_LT(s.d, 0.0);
  EXPECT_GE(s.d_prime, 0.0);
  EXPECT_LE(s.d_prime, 1.0);
}

TEST(LdStats, DegenerateLocusGivesZeroR2) {
  // Monomorphic locus (p = 0 or 1): variance denominator is zero.
  EXPECT_DOUBLE_EQ(ld_from_counts(0, 0, 30, 100).r2, 0.0);
  EXPECT_DOUBLE_EQ(ld_from_counts(30, 100, 30, 100).r2, 0.0);
}

TEST(LdStats, InputValidation) {
  EXPECT_THROW((void)ld_from_counts(1, 1, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)ld_from_counts(10, 5, 20, 100),
               std::invalid_argument);  // joint > min marginal
  EXPECT_THROW((void)ld_from_counts(5, 200, 20, 100),
               std::invalid_argument);  // marginal > samples
}

TEST(LdStats, RangesOnRandomData) {
  const auto a = io::random_bitmatrix(12, 400, 0.3, 301);
  const auto gamma = bits::compare_reference(a, a,
                                             bits::Comparison::kAnd);
  const auto counts = row_counts(a);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      const auto s =
          ld_from_counts(gamma.at(i, j), counts[i], counts[j], 400);
      EXPECT_GE(s.r2, 0.0);
      EXPECT_LE(s.r2, 1.0 + 1e-12);
      EXPECT_GE(s.d_prime, 0.0);
      EXPECT_LE(s.d_prime, 1.0 + 1e-12);
      EXPECT_GE(s.d, -0.25 - 1e-12);
      EXPECT_LE(s.d, 0.25 + 1e-12);
    }
  }
}

TEST(LdStats, R2MatrixDiagonalOfPolymorphicLociIsOne) {
  const auto a = io::random_bitmatrix(8, 200, 0.4, 302);
  const auto gamma = bits::compare_reference(a, a,
                                             bits::Comparison::kAnd);
  const auto counts = row_counts(a);
  const auto r2 = r2_matrix(gamma, counts, 200);
  ASSERT_EQ(r2.loci(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    if (counts[i] > 0 && counts[i] < 200) {
      EXPECT_NEAR(r2.at(i, i), 1.0, 1e-9);
    }
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_EQ(r2.at(i, j), r2.at(j, i));
    }
  }
}

TEST(LdStats, R2MatrixValidatesShape) {
  const bits::CountMatrix bad(3, 4);
  EXPECT_THROW((void)r2_matrix(bad, {1, 2, 3}, 10), std::invalid_argument);
  const bits::CountMatrix sq(3, 3);
  EXPECT_THROW((void)r2_matrix(sq, {1, 2}, 10), std::invalid_argument);
  EXPECT_TRUE(r2_matrix(bits::CountMatrix(0, 0), {}, 10).empty());
}

TEST(LdStats, R2MatrixIsBitIdenticalToLdFromCounts) {
  io::PopulationParams p;
  p.seed = 304;
  p.ld_block_len = 20;
  // An odd locus count leaves rows whose length is no multiple of the
  // vector width, so r2_matrix's packed divides end in a remainder; an
  // odd sample count leaves a ragged last word.
  constexpr std::size_t kLoci = 301;
  constexpr std::size_t kSamples = 517;
  auto m = bits::encode(io::generate_genotypes(kLoci, kSamples, p),
                        bits::EncodingPlane::kPresence);
  // Monomorphic loci, where p(1 - p) and so the r^2 denominator is 0:
  // one without the minor allele, one where every sample carries it.
  for (std::size_t s = 0; s < kSamples; ++s) {
    m.set(7, s, false);
    m.set(123, s, true);
  }
  const auto gamma = bits::compare_reference(m, m, bits::Comparison::kAnd);
  const auto counts = row_counts(m);
  ASSERT_EQ(counts[7], 0u);
  ASSERT_EQ(counts[123], kSamples);
  const auto r2 = r2_matrix(gamma, counts, kSamples);
  // One double per unordered pair, the diagonal included.
  ASSERT_EQ(r2.packed().size(), kLoci * (kLoci + 1) / 2);
  EXPECT_EQ(r2.size_bytes(), kLoci * (kLoci + 1) / 2 * sizeof(double));
  // at(i, j) for every ordered pair, against ld_from_counts with the loci
  // in the same order and swapped.
  std::vector<double> got(kLoci * kLoci);
  std::vector<double> expected(kLoci * kLoci);
  std::vector<double> swapped(kLoci * kLoci);
  for (std::size_t i = 0; i < kLoci; ++i) {
    for (std::size_t j = 0; j < kLoci; ++j) {
      got[i * kLoci + j] = r2.at(i, j);
      expected[i * kLoci + j] =
          ld_from_counts(gamma.at(i, j), counts[i], counts[j], kSamples).r2;
      swapped[i * kLoci + j] =
          ld_from_counts(gamma.at(j, i), counts[j], counts[i], kSamples).r2;
    }
  }
  const std::size_t bytes = got.size() * sizeof(double);
  EXPECT_EQ(std::memcmp(got.data(), expected.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(got.data(), swapped.data(), bytes), 0);
  EXPECT_EQ(r2.at(7, 40), 0.0);
  EXPECT_EQ(r2.at(40, 123), 0.0);
}

TEST(LdStats, R2MatrixRejectsAsymmetricGamma) {
  const auto a = io::random_bitmatrix(150, 300, 0.4, 305);
  auto gamma = bits::compare_reference(a, a, bits::Comparison::kAnd);
  const auto counts = row_counts(a);
  EXPECT_NO_THROW((void)r2_matrix(gamma, counts, 300));
  // One lower entry, in a tile off the diagonal, lowered below its
  // mirror: still consistent with the counts, but not an LD output.
  ASSERT_GT(gamma.at(140, 3), 0u);
  gamma.at(140, 3) -= 1;
  EXPECT_THROW((void)r2_matrix(gamma, counts, 300), std::invalid_argument);
  // The same inside a diagonal tile.
  gamma.at(140, 3) += 1;
  ASSERT_GT(gamma.at(9, 2), 0u);
  gamma.at(9, 2) -= 1;
  EXPECT_THROW((void)r2_matrix(gamma, counts, 300), std::invalid_argument);
}

TEST(LdStats, R2MatrixRejectsInconsistentCounts) {
  bits::CountMatrix gamma(3, 3);
  gamma.at(0, 0) = 4;
  gamma.at(1, 1) = 5;
  gamma.at(2, 2) = 6;
  gamma.at(2, 1) = 5;
  gamma.at(1, 2) = 5;
  EXPECT_NO_THROW((void)r2_matrix(gamma, {4, 5, 6}, 10));
  // A joint count above min(count_i, count_j) = 5 in both triangles.
  gamma.at(2, 1) = 6;
  gamma.at(1, 2) = 6;
  EXPECT_THROW((void)r2_matrix(gamma, {4, 5, 6}, 10), std::invalid_argument);
  // Only the lower entry bad.
  gamma.at(1, 2) = 5;
  EXPECT_THROW((void)r2_matrix(gamma, {4, 5, 6}, 10), std::invalid_argument);
  gamma.at(2, 1) = 5;
  EXPECT_THROW((void)r2_matrix(gamma, {4, 5, 11}, 10),
               std::invalid_argument);
  EXPECT_THROW((void)r2_matrix(gamma, {4, 5, 6}, 0), std::invalid_argument);
}

TEST(LdStats, CorrelatedLociShowHighR2) {
  // LD-block data: adjacent loci inside a block correlate strongly.
  io::PopulationParams p;
  p.spectrum = io::MafSpectrum::kFixed;
  p.maf_mean = 0.3;
  p.ld_block_len = 16;
  p.ld_copy = 0.95;
  p.seed = 303;
  const auto g = io::generate_genotypes(16, 600, p);
  const auto bits_m = bits::encode(g, bits::EncodingPlane::kPresence);
  const auto gamma = bits::compare_reference(bits_m, bits_m,
                                             bits::Comparison::kAnd);
  const auto counts = row_counts(bits_m);
  double within = 0.0;
  int n_within = 0;
  for (std::size_t i = 1; i < 16; ++i) {
    within += ld_from_counts(gamma.at(i, i - 1), counts[i], counts[i - 1],
                             600)
                  .r2;
    ++n_within;
  }
  EXPECT_GT(within / n_within, 0.5);
}

TEST(LdStats, RowCounts) {
  bits::BitMatrix m(2, 100);
  m.set(0, 3, true);
  m.set(0, 99, true);
  const auto c = row_counts(m);
  EXPECT_EQ(c[0], 2u);
  EXPECT_EQ(c[1], 0u);
}

}  // namespace
}  // namespace snp::stats
