// LD scan: the population-genomics workload of paper Section II-A.
//
// Generates a chromosome-like dataset with LD-block structure, computes the
// full pairwise gamma matrix on a simulated GPU, converts it into D / D' /
// r^2 with the stats layer, and prints the strongest associations plus a
// coarse r^2 "heatmap" revealing the block structure.
//
// Build & run:  ./build/examples/ld_scan [device] [loci] [samples]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bits/genotype.hpp"
#include "core/snpcmp.hpp"
#include "io/datagen.hpp"
#include "stats/ld.hpp"

int main(int argc, char** argv) {
  using namespace snp;
  const std::string device = argc > 1 ? argv[1] : "vega64";
  const std::size_t n_loci =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 96;
  const std::size_t n_samples =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2048;

  io::PopulationParams params;
  params.seed = 7;
  params.spectrum = io::MafSpectrum::kUniform;
  params.maf_min = 0.1;
  params.maf_max = 0.5;
  params.ld_block_len = 12;
  params.ld_copy = 0.9;
  const auto genotypes = io::generate_genotypes(n_loci, n_samples, params);
  const auto loci =
      bits::encode(genotypes, bits::EncodingPlane::kPresence);

  Context ctx = Context::gpu(device);
  const CompareResult res = ctx.ld(loci);
  std::printf("LD scan of %zu loci x %zu samples on %s\n", n_loci,
              n_samples, ctx.device_name().c_str());
  std::printf("kernel %.3f ms (%.1f Gword-ops/s, %.1f%% of peak), "
              "end-to-end %.1f ms\n\n",
              res.timing.kernel_s * 1e3, res.timing.kernel_gops,
              res.timing.pct_of_peak, res.timing.end_to_end_s * 1e3);

  const auto counts = stats::row_counts(loci);
  struct Pair {
    std::size_t i, j;
    stats::LdStats s;
  };
  std::vector<Pair> top;
  for (std::size_t i = 0; i < n_loci; ++i) {
    for (std::size_t j = i + 1; j < n_loci; ++j) {
      const auto s = stats::ld_from_counts(res.counts.at(i, j), counts[i],
                                           counts[j], n_samples);
      if (top.size() < 10) {
        top.push_back({i, j, s});
      } else {
        auto worst = top.begin();
        for (auto it = top.begin(); it != top.end(); ++it) {
          if (it->s.r2 < worst->s.r2) {
            worst = it;
          }
        }
        if (s.r2 > worst->s.r2) {
          *worst = {i, j, s};
        }
      }
    }
  }
  std::printf("strongest pairwise LD (top 10 by r^2):\n");
  std::printf("  %5s %5s | %7s %7s %7s\n", "locus", "locus", "r^2", "D'",
              "D");
  for (const auto& p : top) {
    std::printf("  %5zu %5zu | %7.3f %7.3f %+7.4f\n", p.i, p.j, p.s.r2,
                p.s.d_prime, p.s.d);
  }

  // Coarse heatmap: mean r^2 over 8x8-locus cells; LD blocks appear as
  // bright squares on the diagonal.
  const auto r2 = stats::r2_matrix(res.counts, counts, n_samples);
  std::printf("\nmean-r^2 heatmap (8-locus cells; '.':<0.05  '+':<0.2  "
              "'#':>=0.2):\n");
  const std::size_t cell = 8;
  for (std::size_t bi = 0; bi < n_loci / cell; ++bi) {
    std::printf("  ");
    for (std::size_t bj = 0; bj < n_loci / cell; ++bj) {
      double sum = 0.0;
      for (std::size_t i = bi * cell; i < (bi + 1) * cell; ++i) {
        for (std::size_t j = bj * cell; j < (bj + 1) * cell; ++j) {
          sum += r2.at(i, j);
        }
      }
      const double mean = sum / (cell * cell);
      std::printf("%c", mean >= 0.2 ? '#' : (mean >= 0.05 ? '+' : '.'));
    }
    std::printf("\n");
  }
  return 0;
}
