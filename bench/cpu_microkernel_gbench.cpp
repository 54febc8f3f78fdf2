// google-benchmark harness for the real (natively executed) CPU engine —
// the Section III baseline. Measures the blocked popcount-GEMM throughput
// of this machine for each comparison operation at the LD and FastID
// shapes, the per-core popcount ceiling the paper judges such a baseline
// against, and a packing-cost probe. Unlike the figure benches (which model
// the paper's Xeon), these numbers are real wall-clock measurements of the
// host CPU.
#include <benchmark/benchmark.h>

#include <bit>
#include <cstdint>

#include "bits/compare.hpp"
#include "cpu/engine.hpp"
#include "io/datagen.hpp"

namespace {

using snp::bits::Comparison;

/// m x n products of `k_bits` columns per second, in 32-bit word-ops. The
/// engine rows run on the host pool, so they time with UseRealTime(): a
/// rate over the main thread's CPU time would overstate them.
void count_wordops(benchmark::State& state, std::size_t m, std::size_t n,
                   std::size_t k_bits) {
  const double wordops =
      static_cast<double>(m) * static_cast<double>(n) *
      static_cast<double>(snp::bits::ceil_div(k_bits, 32));
  state.counters["Gwordops/s"] = benchmark::Counter(
      wordops * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

/// The ceiling loop: the micro-kernel's register block over `kw` words of
/// packed A and B strips, stored to `out` once at the end, as the kernel
/// stores its block. It is kept out of line, as the engine calls its
/// kernel: inlined into the timing loop, GCC keeps the counts in memory.
[[gnu::noinline]] void ceiling_pass(const std::uint64_t* a,
                                    const std::uint64_t* b, std::size_t kw,
                                    std::uint64_t* out) {
  constexpr std::size_t m_r = snp::cpu::CpuBlocking::m_r;
  constexpr std::size_t n_r = snp::cpu::CpuBlocking::n_r;
  std::uint64_t acc[m_r][n_r] = {};
  for (std::size_t k = 0; k < kw; ++k) {
    for (std::size_t i = 0; i < m_r; ++i) {
      const std::uint64_t av = a[k * m_r + i];
#pragma omp simd simdlen(n_r)
      for (std::size_t j = 0; j < n_r; ++j) {
        acc[i][j] +=
            static_cast<std::uint64_t>(std::popcount(av & b[k * n_r + j]));
      }
    }
  }
  for (std::size_t i = 0; i < m_r; ++i) {
    for (std::size_t j = 0; j < n_r; ++j) {
      out[i * n_r + j] = acc[i][j];
    }
  }
}

void BM_PopcountCeiling(benchmark::State& state) {
  // The per-core ceiling the engine rows are judged against: AND +
  // popcount + add on 64-bit words that stay in L1 (12 KiB), in the
  // micro-kernel's register shape (a broadcast word of A against a vector
  // of n_r words of B, into m_r x n_r 64-bit counts), on one thread, with
  // no packing, no C traffic and no scheduling. Its rate is in 32-bit
  // word-ops like every row here, so a row's share of the machine's
  // ceiling is its rate over this one times the threads it ran on.
  constexpr std::size_t m_r = snp::cpu::CpuBlocking::m_r;
  constexpr std::size_t n_r = snp::cpu::CpuBlocking::n_r;
  const std::size_t kw = 128;
  const auto words =
      snp::io::random_bitmatrix(1, kw * (m_r + n_r) * 64, 0.5, 5);
  const std::uint64_t* a = words.row64(0).data();
  const std::uint64_t* b = a + kw * m_r;
  std::uint64_t out[m_r * n_r];
  for (auto _ : state) {
    ceiling_pass(a, b, kw, out);
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
  count_wordops(state, m_r, n_r, kw * 64);
}
BENCHMARK(BM_PopcountCeiling);

void bench_compare(benchmark::State& state, Comparison op) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k_bits = static_cast<std::size_t>(state.range(1));
  const auto a = snp::io::random_bitmatrix(m, k_bits, 0.5, 1);
  const auto b = snp::io::random_bitmatrix(m, k_bits, 0.5, 2);
  for (auto _ : state) {
    auto c = snp::cpu::compare_blocked(a, b, op);
    benchmark::DoNotOptimize(c.raw().data());
  }
  count_wordops(state, m, m, k_bits);
}

void BM_CpuAnd(benchmark::State& state) {
  bench_compare(state, Comparison::kAnd);
}
void BM_CpuXor(benchmark::State& state) {
  bench_compare(state, Comparison::kXor);
}
void BM_CpuAndNot(benchmark::State& state) {
  bench_compare(state, Comparison::kAndNot);
}

BENCHMARK(BM_CpuAnd)
    ->Args({256, 4096})
    ->Args({512, 8192})
    ->Args({2048, 4096})
    ->UseRealTime();
BENCHMARK(BM_CpuXor)->Args({256, 4096})->UseRealTime();
BENCHMARK(BM_CpuAndNot)->Args({256, 4096})->UseRealTime();

void BM_CpuLdSelf(benchmark::State& state) {
  // LD (Eq. 1): one matrix on both sides, which the engine computes on the
  // tiles on or above the diagonal only. The rate counts the full n^2
  // product, as BM_CpuAnd does, so the two compare directly.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k_bits = static_cast<std::size_t>(state.range(1));
  const auto a = snp::io::random_bitmatrix(n, k_bits, 0.5, 1);
  for (auto _ : state) {
    auto c = snp::cpu::compare_blocked(a, a, Comparison::kAnd);
    benchmark::DoNotOptimize(c.raw().data());
    benchmark::ClobberMemory();
  }
  count_wordops(state, n, n, k_bits);
}
BENCHMARK(BM_CpuLdSelf)->Args({2048, 4096})->UseRealTime();

void BM_CpuFastId(benchmark::State& state) {
  // FastID identity search (Eq. 2): a batch of m query profiles against a
  // resident database of 65,536 profiles x 1,024 SNPs under XOR, the
  // idsearch_large shape; the service's batches hold 1-32 queries.
  const auto m = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kProfiles = 65536;
  constexpr std::size_t kSnps = 1024;
  const auto q = snp::io::random_bitmatrix(m, kSnps, 0.5, 6);
  const auto db = snp::io::random_bitmatrix(kProfiles, kSnps, 0.5, 7);
  for (auto _ : state) {
    auto c = snp::cpu::compare_blocked(q, db, Comparison::kXor);
    benchmark::DoNotOptimize(c.raw().data());
    benchmark::ClobberMemory();
  }
  count_wordops(state, m, kProfiles, kSnps);
}
BENCHMARK(BM_CpuFastId)->Arg(1)->Arg(4)->Arg(32)->UseRealTime();

void BM_ReferenceAnd(benchmark::State& state) {
  // The unblocked reference, to show what the BLIS-like blocking buys.
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k_bits = static_cast<std::size_t>(state.range(1));
  const auto a = snp::io::random_bitmatrix(m, k_bits, 0.5, 3);
  const auto b = snp::io::random_bitmatrix(m, k_bits, 0.5, 4);
  for (auto _ : state) {
    auto c = snp::bits::compare_reference(a, b, Comparison::kAnd);
    benchmark::DoNotOptimize(c.raw().data());
  }
}
BENCHMARK(BM_ReferenceAnd)->Args({256, 4096});

void BM_Encode(benchmark::State& state) {
  // Genotype packing cost (the host-side "pack" stage of the pipeline).
  const auto loci = static_cast<std::size_t>(state.range(0));
  snp::io::PopulationParams p;
  const auto g = snp::io::generate_genotypes(loci, 1024, p);
  for (auto _ : state) {
    auto m = snp::bits::encode(g, snp::bits::EncodingPlane::kPresence);
    benchmark::DoNotOptimize(&m);
  }
}
BENCHMARK(BM_Encode)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
