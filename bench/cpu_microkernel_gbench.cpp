// google-benchmark harness for the real (natively executed) CPU engine —
// the Section III baseline. Measures the blocked popcount-GEMM throughput
// of this machine for each comparison operation and a packing-cost probe.
// Unlike the figure benches (which model the paper's Xeon), these numbers
// are real wall-clock measurements of the host CPU.
#include <benchmark/benchmark.h>

#include "bits/compare.hpp"
#include "cpu/engine.hpp"
#include "io/datagen.hpp"

namespace {

using snp::bits::Comparison;

/// m x m products of `k_bits` columns per second, in 32-bit word-ops.
void count_wordops(benchmark::State& state, std::size_t m,
                   std::size_t k_bits) {
  const double wordops =
      static_cast<double>(m) * static_cast<double>(m) *
      static_cast<double>(snp::bits::ceil_div(k_bits, 32));
  state.counters["Gwordops/s"] = benchmark::Counter(
      wordops * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void bench_compare(benchmark::State& state, Comparison op) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k_bits = static_cast<std::size_t>(state.range(1));
  const auto a = snp::io::random_bitmatrix(m, k_bits, 0.5, 1);
  const auto b = snp::io::random_bitmatrix(m, k_bits, 0.5, 2);
  for (auto _ : state) {
    auto c = snp::cpu::compare_blocked(a, b, op);
    benchmark::DoNotOptimize(c.raw().data());
  }
  count_wordops(state, m, k_bits);
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
    ->Args({2048, 4096});
BENCHMARK(BM_CpuXor)->Args({256, 4096});
BENCHMARK(BM_CpuAndNot)->Args({256, 4096});

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
  count_wordops(state, n, k_bits);
}
BENCHMARK(BM_CpuLdSelf)->Args({2048, 4096});

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
