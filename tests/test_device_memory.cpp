// Host-memory pins for the simulated GPU path: device buffers hold no
// bytes, and a GPU-context compare allocates its result once.
//
// Live bytes are counted by replacing the global operator new/delete for
// this binary (live_heap.hpp), which is why the test has an executable of
// its own.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstddef>
#include <cstdint>

#include "bits/genotype.hpp"
#include "cl/clmini.hpp"
#include "core/snpcmp.hpp"
#include "io/datagen.hpp"
#include "live_heap.hpp"

namespace snp {
namespace {

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
#ifdef _OPENMP
  // The CPU engine packs one B panel per OpenMP thread (512 KiB at this
  // shape); one thread keeps that term independent of the host's cores,
  // so the bound measures the pipeline's own buffers.
  omp_set_num_threads(1);
#endif
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

}  // namespace
}  // namespace snp
