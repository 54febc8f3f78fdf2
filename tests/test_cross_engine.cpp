// Cross-engine equivalence: the bitwise oracle, the word reference, the
// BLIS-like CPU engine, and the simulated GPU kernel on all three devices
// must produce identical gamma matrices on randomized workloads, for every
// comparison operation — the end-to-end correctness statement of the
// reproduction.
#include <gtest/gtest.h>

#include "bits/compare.hpp"
#include "core/snpcmp.hpp"
#include "cpu/engine.hpp"
#include "io/datagen.hpp"
#include "kern/gpu_kernel.hpp"

namespace snp {
namespace {

using bits::Comparison;

struct CrossCase {
  std::size_t m, n, bits;
  double density;
  std::uint64_t seed;
};

class AllEnginesAgree
    : public ::testing::TestWithParam<std::tuple<CrossCase, Comparison>> {};

TEST_P(AllEnginesAgree, OnRandomWorkloads) {
  const auto& [c, op] = GetParam();
  const auto a = io::random_bitmatrix(c.m, c.bits, c.density, c.seed);
  const auto b = io::random_bitmatrix(c.n, c.bits, 1.0 - c.density,
                                      c.seed + 1);
  const auto expected = bits::compare_reference(a, b, op);

  // CPU BLIS-like engine.
  EXPECT_TRUE(cpu::compare_blocked(a, b, op) == expected) << "cpu engine";

  // Simulated GPU kernel on each device, with each Table II preset.
  for (const auto& dev : model::all_gpus()) {
    for (const auto kind :
         {model::WorkloadKind::kLd, model::WorkloadKind::kFastId}) {
      const kern::GpuSnpKernel kernel(dev, model::paper_preset(dev, kind),
                                      op);
      bits::CountMatrix out(c.m, c.n);
      kernel.execute(a, b, out);
      EXPECT_TRUE(out == expected)
          << dev.name << " "
          << (kind == model::WorkloadKind::kLd ? "LD" : "FastID");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllEnginesAgree,
    ::testing::Combine(
        ::testing::Values(CrossCase{1, 1, 33, 0.5, 1000},
                          CrossCase{13, 29, 257, 0.2, 2000},
                          CrossCase{70, 35, 1537, 0.5, 3000},
                          CrossCase{33, 130, 96, 0.8, 4000},
                          CrossCase{128, 128, 512, 0.35, 5000},
                          // FastID queries across several n_c blocks.
                          CrossCase{1, 2 * 2048 + 5, 1024, 0.5, 7000},
                          CrossCase{3, 2 * 2048 + 5, 1024, 0.3, 8000}),
        ::testing::Values(Comparison::kAnd, Comparison::kXor,
                          Comparison::kAndNot)));

TEST(CrossEngine, QueryBatchesAgreeAcrossTheSkinnyCrossover) {
  // Batches of m = 1 ... 2 m_r queries: below m_r the engine under every
  // device's kernel takes the skinny path, from m_r on the blocked one.
  // A ragged database over two n_c blocks, k over three k_c panels.
  constexpr cpu::CpuBlocking kBlocking{};
  const std::size_t k_bits = 2 * kBlocking.k_c * 64 + 3;
  const auto db = io::random_bitmatrix(kBlocking.n_c + 5, k_bits, 0.5, 9000);
  for (std::size_t m = 1; m <= 2 * cpu::CpuBlocking::m_r; ++m) {
    const auto queries = io::random_bitmatrix(m, k_bits, 0.5, 9000 + m);
    for (const auto op :
         {Comparison::kAnd, Comparison::kXor, Comparison::kAndNot}) {
      const auto expected = bits::compare_reference(queries, db, op);
      EXPECT_TRUE(cpu::compare_blocked(queries, db, op) == expected)
          << "cpu engine, " << m << " queries";
      for (const auto& dev : model::all_gpus()) {
        const kern::GpuSnpKernel kernel(
            dev, model::paper_preset(dev, model::WorkloadKind::kFastId), op);
        bits::CountMatrix out(m, db.rows());
        kernel.execute(queries, db, out);
        EXPECT_TRUE(out == expected) << dev.name << ", " << m << " queries";
      }
    }
  }
}

TEST(CrossEngine, PublicApiAgreesAcrossBackends) {
  const auto a = io::random_bitmatrix(25, 700, 0.4, 6000);
  const auto b = io::random_bitmatrix(60, 700, 0.5, 6001);
  Context cpu_ctx = Context::cpu();
  const auto cpu_counts =
      cpu_ctx.compare(a, b, Comparison::kXor).counts;
  for (const char* name : {"gtx980", "titanv", "vega64"}) {
    Context gpu_ctx = Context::gpu(name);
    EXPECT_TRUE(gpu_ctx.compare(a, b, Comparison::kXor).counts ==
                cpu_counts)
        << name;
  }
}

TEST(CrossEngine, LdPipelineEndToEnd) {
  // Genotypes -> encoding -> LD counts, CPU vs GPU, same statistics. Both
  // contexts compute one-chunk LD on the engine's triangle-only path; the
  // ragged cohort, 2 m_c + 3 loci, ends in a partial macro-tile and a
  // partial micro-tile.
  for (const std::size_t n_loci :
       {std::size_t{60}, 2 * cpu::CpuBlocking{}.m_c + 3}) {
    io::PopulationParams p;
    p.seed = 6100;
    p.ld_block_len = 8;
    const auto g = io::generate_genotypes(n_loci, 300, p);
    const auto loci = bits::encode(g, bits::EncodingPlane::kPresence);
    const auto expected =
        bits::compare_reference(loci, loci, Comparison::kAnd);
    Context cpu_ctx = Context::cpu();
    Context gpu_ctx = Context::gpu("vega64");
    EXPECT_TRUE(cpu_ctx.ld(loci).counts == expected) << n_loci << " loci";
    EXPECT_TRUE(gpu_ctx.ld(loci).counts == expected) << n_loci << " loci";
  }
}

TEST(CrossEngine, DeepKAccumulationAgrees) {
  // K spanning several k_c panels on every device (k_c 383/512 words).
  const auto a = io::random_bitmatrix(9, 40000, 0.5, 6200);
  const auto b = io::random_bitmatrix(7, 40000, 0.5, 6201);
  const auto expected = bits::compare_reference(a, b, Comparison::kAnd);
  EXPECT_TRUE(cpu::compare_blocked(a, b, Comparison::kAnd) == expected);
  for (const auto& dev : model::all_gpus()) {
    const kern::GpuSnpKernel kernel(
        dev, model::paper_preset(dev, model::WorkloadKind::kLd),
        Comparison::kAnd);
    bits::CountMatrix out(9, 7);
    kernel.execute(a, b, out);
    EXPECT_TRUE(out == expected) << dev.name;
  }
}

}  // namespace
}  // namespace snp
