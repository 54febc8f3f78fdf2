// Host-memory pins for the simulated GPU path: device buffers hold no
// bytes, a GPU-context compare allocates its result once, and r^2 keeps
// each locus pair once.
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
