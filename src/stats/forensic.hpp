// Forensic scoring on top of the comparison kernels (paper Sections II-B,
// II-C; Ricke's FastID method).
//
// Identity search: gamma[q, r] = |query_q XOR ref_r| counts mismatching
// SNP sites; gamma == 0 is an exact match and small gamma ranks near
// matches (degraded samples, kinship).
//
// Mixture analysis: gamma[r, m] = |r & ~mixture_m| counts minor alleles
// present in the reference but absent from the mixture ("foreign"
// alleles); gamma == 0 means the profile is consistent with being a
// contributor, and the count is inversely related to inclusion likelihood.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bits/bitmatrix.hpp"

namespace snp::stats {

struct MatchCandidate {
  std::size_t reference_index = 0;
  std::uint32_t mismatches = 0;
  double mismatch_rate = 0.0;  ///< mismatches / snp_sites
};

/// Identity search's rank order: ascending mismatches, ties by index.
[[nodiscard]] inline bool ranks_before(const MatchCandidate& x,
                                       const MatchCandidate& y) {
  return x.mismatches != y.mismatches
             ? x.mismatches < y.mismatches
             : x.reference_index < y.reference_index;
}

/// Ranks database entries for one query from its row of the XOR gamma
/// matrix, in ranks_before order; entries above `max_mismatch_rate` are
/// dropped.
[[nodiscard]] std::vector<MatchCandidate> rank_matches(
    std::span<const std::uint32_t> gamma_row, std::size_t snp_sites,
    double max_mismatch_rate = 1.0, std::size_t top_k = 10);

struct InclusionCall {
  std::size_t profile_index = 0;
  std::uint32_t foreign_alleles = 0;  ///< |r & ~m|
  bool included = false;
  /// Expected foreign alleles if the profile were a random non-contributor
  /// (profile's minor-allele count x probability a site is absent from the
  /// mixture); used to normalize the call.
  double expected_if_random = 0.0;
};

/// Calls contributors for one mixture from its column of the AND-NOT gamma
/// matrix. `profile_counts` are per-profile minor-allele counts and
/// `mixture_count` the mixture's; `tolerance` allows a few foreign alleles
/// (genotyping error).
[[nodiscard]] std::vector<InclusionCall> call_contributors(
    std::span<const std::uint32_t> gamma_col,
    std::span<const std::uint32_t> profile_counts,
    std::uint32_t mixture_count, std::size_t snp_sites,
    std::uint32_t tolerance = 0);

}  // namespace snp::stats
