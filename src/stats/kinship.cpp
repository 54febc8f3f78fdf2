#include "stats/kinship.hpp"

#include <stdexcept>

#include "bits/compare.hpp"
#include "cpu/engine.hpp"

namespace snp::stats {

Relationship classify_kinship(double phi) {
  if (phi >= 0.3536) {
    return Relationship::kDuplicate;
  }
  if (phi >= 0.1768) {
    return Relationship::kFirstDegree;
  }
  if (phi >= 0.0884) {
    return Relationship::kSecondDegree;
  }
  if (phi >= 0.0442) {
    return Relationship::kThirdDegree;
  }
  return Relationship::kUnrelated;
}

KinshipResult king_robust(std::uint32_t het_het, std::uint32_t h_p_ij,
                          std::uint32_t h_p_ji, std::uint32_t hom_i,
                          std::uint32_t hom_j, std::uint32_t het_i,
                          std::uint32_t het_j) {
  if (h_p_ij > hom_i || h_p_ji > hom_j) {
    throw std::invalid_argument(
        "king_robust: |H & P| cannot exceed the H marginal");
  }
  KinshipResult r;
  r.n_het_het = het_het;
  // IBS0: i homozygous-minor where j carries no minor allele, plus the
  // symmetric case.
  r.n_ibs0 = (hom_i - h_p_ij) + (hom_j - h_p_ji);
  r.n_het_i = het_i;
  r.n_het_j = het_j;
  const double denom = static_cast<double>(het_i) + het_j;
  r.phi = denom > 0.0
              ? (static_cast<double>(het_het) - 2.0 * r.n_ibs0) / denom
              : 0.0;
  r.relationship = classify_kinship(r.phi);
  return r;
}

bits::BitMatrix encode_individual_major(const bits::GenotypeMatrix& g,
                                        bits::EncodingPlane plane) {
  bits::BitMatrix out(g.samples(), g.loci());
  const std::uint8_t threshold =
      plane == bits::EncodingPlane::kPresence ? 1 : 2;
  for (std::size_t s = 0; s < g.samples(); ++s) {
    for (std::size_t l = 0; l < g.loci(); ++l) {
      if (g.at(l, s) >= threshold) {
        out.set(s, l, true);
      }
    }
  }
  return out;
}

bits::BitMatrix het_plane(const bits::BitMatrix& presence,
                          const bits::BitMatrix& homozygous) {
  if (presence.rows() != homozygous.rows() ||
      presence.bit_cols() != homozygous.bit_cols()) {
    throw std::invalid_argument("het_plane: plane shape mismatch");
  }
  bits::BitMatrix out(presence.rows(), presence.bit_cols(),
                      presence.words64_per_row());
  for (std::size_t r = 0; r < presence.rows(); ++r) {
    const auto p = presence.row64(r);
    const auto h = homozygous.row64(r);
    auto dst = out.row64(r);
    for (std::size_t w = 0; w < dst.size(); ++w) {
      dst[w] = p[w] & ~h[w];  // heterozygous: present but not homozygous
    }
  }
  return out;
}

std::vector<KinshipResult> kinship_matrix(const bits::GenotypeMatrix& g) {
  const auto pres =
      encode_individual_major(g, bits::EncodingPlane::kPresence);
  const auto hom =
      encode_individual_major(g, bits::EncodingPlane::kHomozygous);
  const auto het = het_plane(pres, hom);

  // Two comparison kernels cover every pair: Het x Het, a self-comparison
  // the engine computes once per pair, and H x P (whose transpose
  // provides the symmetric term).
  const auto het_het =
      cpu::compare_blocked(het, het, bits::Comparison::kAnd);
  const auto hom_pres =
      cpu::compare_blocked(hom, pres, bits::Comparison::kAnd);

  const std::size_t n = g.samples();
  std::vector<std::uint32_t> hom_count(n), het_count(n);
  for (std::size_t i = 0; i < n; ++i) {
    hom_count[i] = static_cast<std::uint32_t>(hom.row_popcount(i));
    het_count[i] = static_cast<std::uint32_t>(het.row_popcount(i));
  }

  std::vector<KinshipResult> out(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      out[i * n + j] = king_robust(
          het_het.at(i, j), hom_pres.at(i, j), hom_pres.at(j, i),
          hom_count[i], hom_count[j], het_count[i], het_count[j]);
    }
  }
  return out;
}

}  // namespace snp::stats
