// Host-memory pins for the chunk loop: device buffers hold no bytes, a
// GPU-context compare allocates its result once, the FastID answers never
// hold the gamma matrix (on a GPU context, a CPU context, or a GPU run
// that degrades mid-stream), and r^2 keeps each locus pair once.
//
// Live bytes are counted by replacing the global operator new/delete for
// this binary (live_heap.hpp), which is why the test has an executable of
// its own.
#include <gtest/gtest.h>
#include <sched.h>

#include <cstddef>
#include <cstdint>

#include "bits/genotype.hpp"
#include "cl/clmini.hpp"
#include "core/snpcmp.hpp"
#include "cpu/engine.hpp"
#include "exec/thread_pool.hpp"
#include "io/datagen.hpp"
#include "live_heap.hpp"
#include "rt/fault.hpp"
#include "stats/ld.hpp"

namespace snp {
namespace {

/// Pins the process to one CPU before any test, so the host pool is built
/// with no workers: the CPU engine packs one B panel per participant
/// (512 KiB at the LD shape below), and one participant keeps that term
/// independent of the host's cores.
class OneCpu : public ::testing::Environment {
 public:
  void SetUp() override {
    cpu_set_t mask{};
    ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
    std::size_t cpu = 0;
    while (!CPU_ISSET(cpu, &mask)) {
      ++cpu;
    }
    CPU_ZERO(&mask);
    CPU_SET(cpu, &mask);
    ASSERT_EQ(sched_setaffinity(0, sizeof(mask), &mask), 0);
  }
};

[[maybe_unused]] const auto* const one_cpu =
    ::testing::AddGlobalTestEnvironment(new OneCpu);

TEST(DeviceMemory, BufferAllocatesNoHostBackingStore) {
  cl::Context ctx(cl::Platform::device("titanv"));
  const std::int64_t before = live_heap::live();
  live_heap::reset_peak();
  const auto buf = ctx.create_buffer(std::size_t{64} << 20);
  EXPECT_EQ(buf->size(), std::size_t{64} << 20);
  EXPECT_LT(live_heap::peak() - before, 4 * 1024)
      << "a 64 MiB device buffer allocated " << live_heap::peak() - before
      << " B of host heap";
}

TEST(DeviceMemory, GpuLdPeaksAtItsCountMatrix) {
  // One participant's panels (OneCpu), so the bound measures the
  // pipeline's own buffers.
  ASSERT_EQ(exec::host_pool().thread_count(), 0u);
  io::PopulationParams pp;
  pp.seed = 14;
  pp.ld_block_len = 20;
  const bits::BitMatrix loci = bits::encode(
      io::generate_genotypes(1024, 4096, pp), bits::EncodingPlane::kPresence);
  Context ctx = Context::gpu("titanv");
  const std::int64_t before = live_heap::live();
  live_heap::reset_peak();
  const CompareResult res = ctx.ld(loci);
  const std::int64_t peak = live_heap::peak() - before;
  const auto count_bytes = static_cast<std::int64_t>(res.counts.size_bytes());
  ASSERT_EQ(count_bytes, 1024 * 1024 * 4);
  // No device mirrors, no staging block, no readback vector: the gamma
  // matrix plus small change (lint, telemetry, the engine's panels).
  EXPECT_LE(peak, count_bytes + (1 << 20))
      << "ld() peaked " << peak << " B above its start, count matrix "
      << count_bytes << " B";
}

TEST(DeviceMemory, FastIdAnswersHoldNoGammaMatrix) {
  // 8 queries (or mixtures) against 65,536 profiles: gamma is 2 MiB, one
  // 4,096-row chunk's block 128 KiB. Each answer folds the blocks as they
  // drain, so its peak stays below the matrix it never builds.
  const bits::BitMatrix db = io::random_bitmatrix(65536, 1024, 0.3, 31);
  const bits::BitMatrix few = io::random_bitmatrix(8, 1024, 0.6, 32);
  constexpr std::int64_t kGammaBytes = 8 * 65536 * 4;
  Context ctx = Context::gpu("titanv");
  ComputeOptions opts;
  opts.chunk_rows = 4096;

  std::int64_t before = live_heap::live();
  live_heap::reset_peak();
  const IdentitySearchResult ids = ctx.identity_search(few, db, 10, opts);
  std::int64_t peak = live_heap::peak() - before;
  ASSERT_EQ(ids.timing.chunks, 16);
  ASSERT_EQ(ids.top[0].size(), 10u);
  EXPECT_LT(peak, kGammaBytes)
      << "identity_search peaked " << peak << " B above its start";

  before = live_heap::live();
  live_heap::reset_peak();
  const MixtureAnalysisResult mix =
      ctx.mixture_analysis(db, few, 100, opts);
  peak = live_heap::peak() - before;
  ASSERT_EQ(mix.timing.chunks, 16);
  EXPECT_LT(peak, kGammaBytes)
      << "mixture_analysis peaked " << peak << " B above its start";
}

TEST(DeviceMemory, CpuFastIdAnswersHoldNoGammaMatrix) {
  // The CPU context runs the same chunk loop with no device: 4,096-row
  // windows, each block folded as it drains.
  const bits::BitMatrix db = io::random_bitmatrix(65536, 1024, 0.3, 33);
  const bits::BitMatrix few = io::random_bitmatrix(8, 1024, 0.6, 34);
  constexpr std::int64_t kGammaBytes = 8 * 65536 * 4;
  Context ctx = Context::cpu();
  ComputeOptions opts;
  opts.chunk_rows = 4096;

  std::int64_t before = live_heap::live();
  live_heap::reset_peak();
  const IdentitySearchResult ids = ctx.identity_search(few, db, 10, opts);
  std::int64_t peak = live_heap::peak() - before;
  ASSERT_EQ(ids.timing.chunks, 16);
  ASSERT_EQ(ids.top[0].size(), 10u);
  EXPECT_LT(peak, kGammaBytes)
      << "identity_search peaked " << peak << " B above its start";

  before = live_heap::live();
  live_heap::reset_peak();
  const MixtureAnalysisResult mix =
      ctx.mixture_analysis(db, few, 100, opts);
  peak = live_heap::peak() - before;
  ASSERT_EQ(mix.timing.chunks, 16);
  EXPECT_LT(peak, kGammaBytes)
      << "mixture_analysis peaked " << peak << " B above its start";
}

TEST(DeviceMemory, CpuFastIdAnswersAtDefaultOptionsHoldOneWindow) {
  // With chunk_rows unset, a CPU context's window holds a block of at
  // most 1 MiB: 32,768 profiles for 8 queries, half of this gamma.
  const bits::BitMatrix db = io::random_bitmatrix(65536, 1024, 0.3, 37);
  const bits::BitMatrix few = io::random_bitmatrix(8, 1024, 0.6, 38);
  constexpr std::int64_t kGammaBytes = 8 * 65536 * 4;
  Context ctx = Context::cpu();

  std::int64_t before = live_heap::live();
  live_heap::reset_peak();
  const IdentitySearchResult ids = ctx.identity_search(few, db);
  std::int64_t peak = live_heap::peak() - before;
  ASSERT_EQ(ids.timing.chunks, 2);
  ASSERT_EQ(ids.top[0].size(), 10u);
  EXPECT_LT(peak, kGammaBytes)
      << "identity_search peaked " << peak << " B above its start";

  before = live_heap::live();
  live_heap::reset_peak();
  const MixtureAnalysisResult mix = ctx.mixture_analysis(db, few, 100);
  peak = live_heap::peak() - before;
  ASSERT_EQ(mix.timing.chunks, 2);
  EXPECT_LT(peak, kGammaBytes)
      << "mixture_analysis peaked " << peak << " B above its start";
}

TEST(DeviceMemory, DegradedSearchCopiesNoDatabaseRows) {
  // The device loses its launch from the third chunk on, past its
  // retries, and the degrade rung resumes the chunk loop on the host at
  // row 8,192. The 57,344 rows left hold 7 MiB of profiles and their
  // gamma 1.75 MiB: a copy of either rest, or a block of all of it, would
  // break the bound.
  const bits::BitMatrix db = io::random_bitmatrix(65536, 1024, 0.3, 35);
  const bits::BitMatrix few = io::random_bitmatrix(8, 1024, 0.6, 36);
  constexpr std::int64_t kGammaBytes = 8 * 65536 * 4;
  Context ctx = Context::gpu("titanv");
  ComputeOptions opts;
  opts.chunk_rows = 4096;
  const IdentitySearchResult clean = ctx.identity_search(few, db, 10, opts);
  opts.recovery.policy = rt::FailPolicy::kDegrade;
  opts.recovery.backoff_base_s = 0.0;

  const rt::ScopedFaultPlan plan("launch:p=1:at=2");
  const std::int64_t before = live_heap::live();
  live_heap::reset_peak();
  const IdentitySearchResult ids = ctx.identity_search(few, db, 10, opts);
  const std::int64_t peak = live_heap::peak() - before;
  ASSERT_TRUE(ids.timing.degraded);
  for (std::size_t q = 0; q < few.rows(); ++q) {
    ASSERT_EQ(ids.top[q].size(), 10u);
    for (std::size_t k = 0; k < 10; ++k) {
      EXPECT_EQ(ids.top[q][k].reference_index,
                clean.top[q][k].reference_index)
          << "query " << q << ", rank " << k;
    }
  }
  EXPECT_LT(peak, kGammaBytes)
      << "degraded identity_search peaked " << peak << " B above its start";
}

TEST(DeviceMemory, R2MatrixPeaksAtItsPackedTriangle) {
  io::PopulationParams pp;
  pp.seed = 18;
  pp.ld_block_len = 20;
  const bits::BitMatrix loci = bits::encode(
      io::generate_genotypes(1024, 4096, pp), bits::EncodingPlane::kPresence);
  const bits::CountMatrix gamma = cpu::ld_counts(loci);
  const auto counts = stats::row_counts(loci);
  const std::int64_t before = live_heap::live();
  live_heap::reset_peak();
  const stats::R2Matrix r2 = stats::r2_matrix(gamma, counts, 4096);
  const std::int64_t peak = live_heap::peak() - before;
  const std::int64_t packed = 1024 * 1025 / 2 * 8;
  const std::int64_t dense = 1024 * 1024 * 8;
  ASSERT_EQ(static_cast<std::int64_t>(r2.size_bytes()), packed);
  // The triangle plus the per-locus p and p(1 - p): one double per pair.
  EXPECT_LE(peak, packed + (64 << 10))
      << "r2_matrix peaked " << peak << " B, packed triangle " << packed
      << " B";
  EXPECT_LT(peak, dense);
}

}  // namespace
}  // namespace snp
