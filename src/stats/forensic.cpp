#include "stats/forensic.hpp"

#include <algorithm>
#include <stdexcept>

namespace snp::stats {

std::vector<MatchCandidate> rank_matches(
    std::span<const std::uint32_t> gamma_row, std::size_t snp_sites,
    double max_mismatch_rate, std::size_t top_k) {
  if (snp_sites == 0) {
    throw std::invalid_argument("rank_matches: snp_sites must be > 0");
  }
  std::vector<MatchCandidate> all;
  all.reserve(gamma_row.size());
  for (std::size_t i = 0; i < gamma_row.size(); ++i) {
    MatchCandidate c;
    c.reference_index = i;
    c.mismatches = gamma_row[i];
    c.mismatch_rate =
        static_cast<double>(c.mismatches) / static_cast<double>(snp_sites);
    if (c.mismatch_rate <= max_mismatch_rate) {
      all.push_back(c);
    }
  }
  const std::size_t keep = std::min(top_k, all.size());
  std::partial_sort(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(keep),
                    all.end(), ranks_before);
  all.resize(keep);
  return all;
}

std::vector<InclusionCall> call_contributors(
    std::span<const std::uint32_t> gamma_col,
    std::span<const std::uint32_t> profile_counts,
    std::uint32_t mixture_count, std::size_t snp_sites,
    std::uint32_t tolerance) {
  if (gamma_col.size() != profile_counts.size()) {
    throw std::invalid_argument("call_contributors: size mismatch");
  }
  if (snp_sites == 0) {
    throw std::invalid_argument("call_contributors: snp_sites must be > 0");
  }
  const double absent_frac =
      1.0 - static_cast<double>(mixture_count) /
                static_cast<double>(snp_sites);
  std::vector<InclusionCall> calls(gamma_col.size());
  for (std::size_t i = 0; i < gamma_col.size(); ++i) {
    InclusionCall& c = calls[i];
    c.profile_index = i;
    c.foreign_alleles = gamma_col[i];
    c.included = c.foreign_alleles <= tolerance;
    c.expected_if_random = profile_counts[i] * absent_frac;
  }
  return calls;
}

}  // namespace snp::stats
