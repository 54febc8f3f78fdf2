// FastID identity search: the forensic workload of paper Section II-B.
//
// Builds a synthetic reference database (a scaled-down stand-in for the
// ~18M-profile FBI NDIS the paper sizes Fig. 8 after), plants a few known
// identities plus one degraded sample (simulated genotyping noise), runs
// the XOR comparison on a simulated GPU, and ranks candidates per query.
// It then projects the same search to the paper's full 20M-profile scale
// with the data-free estimator.
//
// Build & run:  ./build/examples/fastid_search [device] [profiles] [snps]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/snpcmp.hpp"
#include "io/datagen.hpp"
#include "io/rng.hpp"

int main(int argc, char** argv) {
  using namespace snp;
  const std::string device = argc > 1 ? argv[1] : "titanv";
  const std::size_t profiles =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 50000;
  const std::size_t snps =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 512;

  io::ProfileDbParams params;
  params.seed = 2026;
  const bits::BitMatrix db = io::generate_profile_db(profiles, snps,
                                                     params);

  // Three exact suspects plus one degraded sample: flip ~1 % of its sites.
  const std::vector<std::size_t> planted = {123, profiles / 2,
                                            profiles - 7};
  bits::BitMatrix queries = io::extract_queries(db, planted);
  bits::BitMatrix degraded = io::extract_queries(db, {planted[0]});
  io::Rng noise(99);
  std::size_t flipped = 0;
  for (std::size_t k = 0; k < snps; ++k) {
    if (noise.next_bernoulli(0.01)) {
      degraded.set(0, k, !degraded.get(0, k));
      ++flipped;
    }
  }
  bits::BitMatrix all_queries(queries.rows() + 1, snps);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    for (std::size_t k = 0; k < snps; ++k) {
      all_queries.set(q, k, queries.get(q, k));
    }
  }
  for (std::size_t k = 0; k < snps; ++k) {
    all_queries.set(queries.rows(), k, degraded.get(0, k));
  }

  Context ctx = Context::gpu(device);
  const IdentitySearchResult result =
      ctx.identity_search(all_queries, db, 2);
  std::printf("FastID search: %zu queries vs %zu profiles x %zu SNPs on "
              "%s\n",
              all_queries.rows(), profiles, snps,
              ctx.device_name().c_str());
  std::printf("kernel %.2f ms, end-to-end %.1f ms (%d chunks, %.1f ms of "
              "transfer hidden)\n\n",
              result.timing.kernel_s * 1e3,
              result.timing.end_to_end_s * 1e3, result.timing.chunks,
              result.timing.overlap_hidden_s * 1e3);

  for (std::size_t q = 0; q < all_queries.rows(); ++q) {
    const bool is_degraded = q == all_queries.rows() - 1;
    const auto& ranked = result.top[q];
    std::printf("query %zu%s: ", q,
                is_degraded ? " (degraded copy of the planted suspect)"
                            : "");
    std::printf("best=%zu with %u mismatches", ranked[0].reference_index,
                ranked[0].mismatches);
    if (ranked.size() > 1) {
      std::printf(" (runner-up: %zu with %u)", ranked[1].reference_index,
                  ranked[1].mismatches);
    }
    const std::size_t truth =
        is_degraded ? planted[0] : planted[q];
    std::printf("  -> %s\n", ranked[0].reference_index == truth
                                 ? "correct identification"
                                 : "MISSED");
  }
  std::printf("(the degraded sample had %zu of %zu sites flipped and must "
              "still rank first)\n\n",
              flipped, snps);

  // Project to paper scale without materializing 20M profiles.
  ComputeOptions proj;
  proj.functional = false;
  const auto full = ctx.estimate(32, 20'000'000, 1024,
                                 bits::Comparison::kXor, proj);
  std::printf("projected to Fig. 8 scale (32 queries vs 20M profiles x "
              "1024 SNPs):\n  end-to-end %.2f s in %d chunks on %s\n",
              full.end_to_end_s, full.chunks, full.device.c_str());
  return 0;
}
