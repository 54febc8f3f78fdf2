// FastID mixture analysis: the Eq. 3 workload of paper Section II-C.
//
// Builds a profile database, composes DNA mixtures as unions of 2-4
// contributor profiles, and asks: which database profiles are consistent
// with being contributors? A profile r is consistent when
// |r & ~mixture| == 0 — every minor allele it carries also appears in the
// mixture. The example runs both lowerings of Eq. 3 (fused AND-NOT and
// pre-negated database + AND), verifies they agree, and shows the Vega 64
// throughput argument for pre-negation.
//
// Build & run:  ./build/examples/mixture_analysis [device]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/snpcmp.hpp"
#include "io/datagen.hpp"
#include "stats/forensic.hpp"

int main(int argc, char** argv) {
  using namespace snp;
  const std::string device = argc > 1 ? argv[1] : "vega64";
  constexpr std::size_t kProfiles = 20000;
  constexpr std::size_t kSnps = 768;
  constexpr std::size_t kMixtures = 4;

  io::ProfileDbParams params;
  params.seed = 77;
  params.maf_min = 0.02;
  params.maf_max = 0.2;  // sparse minor alleles keep mixtures informative
  const bits::BitMatrix db =
      io::generate_profile_db(kProfiles, kSnps, params);
  const io::MixtureSet mixtures =
      io::generate_mixtures(db, kMixtures, 3, 78);

  Context ctx = Context::gpu(device);
  // Both lowerings' gamma[profile, mixture] = foreign alleles, for the
  // agreement check and the evidence below.
  const CompareResult fused =
      ctx.compare(db, mixtures.mixtures, bits::Comparison::kAndNot);
  ComputeOptions pre;
  pre.pre_negate = true;
  const CompareResult negated =
      ctx.compare(db, mixtures.mixtures, bits::Comparison::kAndNot, pre);
  const MixtureAnalysisResult calls =
      ctx.mixture_analysis(db, mixtures.mixtures);

  std::printf("mixture analysis: %zu profiles x %zu SNPs, %zu mixtures of "
              "3 contributors, on %s\n\n",
              kProfiles, kSnps, kMixtures, ctx.device_name().c_str());
  const bool agree = fused.counts == negated.counts;
  std::printf("Eq. 3 lowerings agree (fused AND-NOT == pre-negated AND): "
              "%s\n",
              agree ? "yes" : "NO (bug!)");
  std::printf("fused kernel:       %.2f ms (%s)\n",
              fused.timing.kernel_s * 1e3, fused.timing.config.c_str());
  std::printf("pre-negated kernel: %.2f ms (%s)\n\n",
              negated.timing.kernel_s * 1e3, negated.timing.config.c_str());

  for (std::size_t m = 0; m < kMixtures; ++m) {
    auto truth = mixtures.contributors[m];
    std::sort(truth.begin(), truth.end());
    truth.erase(std::unique(truth.begin(), truth.end()), truth.end());
    const auto& called = calls.included[m];
    std::size_t recovered = 0;
    for (const std::size_t t : truth) {
      recovered +=
          std::count(called.begin(), called.end(), t) > 0 ? 1u : 0u;
    }
    std::printf("mixture %zu: %zu true contributors, %zu profiles called "
                "consistent, %zu/%zu contributors recovered\n",
                m, truth.size(), called.size(), recovered, truth.size());
    // Show the evidence for one true contributor and one random outsider.
    const std::size_t contributor = truth[0];
    const std::size_t outsider = (contributor + kProfiles / 2) % kProfiles;
    std::printf("    profile %6zu (contributor): %u foreign alleles | "
                "profile %6zu (outsider): %u foreign alleles\n",
                contributor, fused.counts.at(contributor, m), outsider,
                fused.counts.at(outsider, m));
  }
  std::printf("\n(false inclusions are possible when a profile's minor "
              "alleles happen to be\n covered by the mixture; tolerance and "
              "the expected-if-random baseline in\n stats::call_contributors"
              " quantify that.)\n");
  return agree ? 0 : 1;
}
