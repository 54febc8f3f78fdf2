// Mini-OpenCL host runtime: platform enumeration, buffer limits, event
// profiling semantics, engine overlap, barriers.
#include "cl/clmini.hpp"

#include "rt/status.hpp"

#include <gtest/gtest.h>


#include "sim/memory.hpp"

namespace snp::cl {
namespace {

TEST(Platform, EnumeratesPaperDevices) {
  const auto devs = Platform::devices();
  ASSERT_EQ(devs.size(), 3u);
  EXPECT_EQ(devs[0].name(), "GTX 980");
  EXPECT_EQ(devs[1].name(), "Titan V");
  EXPECT_EQ(devs[2].name(), "Vega 64");
  EXPECT_EQ(Platform::device("vega64").name(), "Vega 64");
  EXPECT_THROW((void)Platform::device("cpu"), std::invalid_argument);
}

TEST(Context, ChargesInitTime) {
  Context ctx(Platform::device("gtx980"));
  EXPECT_NEAR(ctx.init_seconds(),
              sim::init_seconds(ctx.device().spec()), 1e-12);
  // Nothing starts before init completes.
  auto buf = ctx.create_buffer(64);
  std::vector<std::byte> src(64, std::byte{7});
  const Event ev = ctx.queue().enqueue_write(*buf, src);
  EXPECT_GE(ev.start, ctx.init_seconds());
}

TEST(Context, AllocationLimits) {
  Context ctx(Platform::device("gtx980"));
  const auto& dev = ctx.device();
  EXPECT_THROW((void)ctx.create_buffer(0), std::invalid_argument);
  try {
    (void)ctx.create_buffer(dev.max_alloc_bytes() + 1);
    FAIL() << "oversized allocation did not throw";
  } catch (const snp::rt::Error& e) {
    EXPECT_EQ(e.code(), snp::rt::ErrorCode::kAlloc);
    EXPECT_NE(std::string(e.what()).find("SNPRT-ALLOC"), std::string::npos);
  }
  // Exhaust global memory with max-size allocations.
  std::vector<std::shared_ptr<Buffer>> held;
  EXPECT_THROW(
      {
        for (int i = 0; i < 100; ++i) {
          held.push_back(ctx.create_buffer(dev.max_alloc_bytes()));
        }
      },
      snp::rt::Error);
  const std::size_t before = ctx.allocated_bytes();
  ctx.release_buffer(held.back());
  EXPECT_LT(ctx.allocated_bytes(), before);
}

TEST(Queue, WriteThenReadChargePcieForTheirBytes) {
  // Buffers hold no bytes: a transfer's only effects are its size check
  // and its interval on the virtual clock.
  Context ctx(Platform::device("titanv"));
  auto buf = ctx.create_buffer(256);
  std::vector<std::byte> src(256, std::byte{5});
  const Event w = ctx.queue().enqueue_write(*buf, src);
  const Event r = ctx.queue().enqueue_read(*buf, 100);
  const auto& spec = ctx.device().spec();
  EXPECT_NEAR(w.duration(), sim::pcie_seconds(spec, 256), 1e-15);
  EXPECT_NEAR(r.duration(), sim::pcie_seconds(spec, 100), 1e-15);
  EXPECT_LE(w.queued, w.submitted);
  EXPECT_LE(w.submitted, w.start);
  EXPECT_LT(w.start, w.end);
  EXPECT_GE(r.start, w.end);  // read waits for the write
}

TEST(Queue, WriteDurationMatchesPcieModel) {
  Context ctx(Platform::device("vega64"));
  constexpr std::size_t kBytes = 1 << 24;
  auto buf = ctx.create_buffer(kBytes);
  std::vector<std::byte> src(kBytes, std::byte{1});
  const Event ev = ctx.queue().enqueue_write(*buf, src);
  // start is when the transfer engine begins moving bytes; the fixed
  // submission latency sits between submit and start.
  EXPECT_NEAR(ev.duration(), sim::pcie_seconds(ctx.device().spec(), kBytes),
              1e-9);
  EXPECT_GE(ev.start - ev.submitted,
            sim::pcie_latency_seconds() - 1e-12);
}

TEST(Queue, OversizeTransfersRejected) {
  Context ctx(Platform::device("gtx980"));
  auto buf = ctx.create_buffer(16);
  std::vector<std::byte> big(17);
  EXPECT_THROW((void)ctx.queue().enqueue_write(*buf, big),
               std::out_of_range);
  EXPECT_THROW((void)ctx.queue().enqueue_read(*buf, big.size()),
               std::out_of_range);
  // A transfer of exactly the buffer's size is accepted.
  EXPECT_NO_THROW((void)ctx.queue().enqueue_read(*buf, buf->size()));
}

TEST(Queue, KernelWaitsForInputsAndRunsFunctional) {
  Context ctx(Platform::device("gtx980"));
  auto in = ctx.create_buffer(1024);
  auto out = ctx.create_buffer(1024);
  std::vector<std::byte> src(1024, std::byte{3});
  const Event w = ctx.queue().enqueue_write(*in, src);
  bool ran = false;
  Buffer* reads[] = {in.get()};
  Buffer* writes[] = {out.get()};
  const Event k = ctx.queue().enqueue_kernel(
      0.001, reads, writes, [&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_GE(k.start, w.end);
  EXPECT_NEAR(k.duration(), 0.001, 1e-12);
  // A write into `in` while the kernel reads it must wait.
  const Event w2 = ctx.queue().enqueue_write(*in, src);
  EXPECT_GE(w2.start, k.end);
}

TEST(Queue, IndependentChunksOverlapTransferAndCompute) {
  // Two chunks with separate buffers: the second upload overlaps the first
  // kernel (double buffering emerges from enqueue order).
  Context ctx(Platform::device("titanv"));
  constexpr std::size_t kBytes = 1 << 24;
  auto in0 = ctx.create_buffer(kBytes);
  auto in1 = ctx.create_buffer(kBytes);
  auto out0 = ctx.create_buffer(64);
  auto out1 = ctx.create_buffer(64);
  std::vector<std::byte> src(kBytes, std::byte{1});
  const double kernel_s =
      2.0 * sim::pcie_seconds(ctx.device().spec(), kBytes);

  (void)ctx.queue().enqueue_write(*in0, src);
  Buffer* r0[] = {in0.get()};
  Buffer* w0[] = {out0.get()};
  const Event k0 = ctx.queue().enqueue_kernel(kernel_s, r0, w0, {});
  const Event up1 = ctx.queue().enqueue_write(*in1, src);
  Buffer* r1[] = {in1.get()};
  Buffer* w1[] = {out1.get()};
  const Event k1 = ctx.queue().enqueue_kernel(kernel_s, r1, w1, {});

  EXPECT_LT(up1.start, k0.end);           // upload 1 overlaps kernel 0
  EXPECT_GE(k1.start, k0.end);            // compute engine is in-order
  EXPECT_LT(k1.start, k0.end + 1e-4);     // and starts right after
}

TEST(Queue, BarrierSerializes) {
  Context ctx(Platform::device("gtx980"));
  constexpr std::size_t kBytes = 1 << 22;
  auto in0 = ctx.create_buffer(kBytes);
  auto in1 = ctx.create_buffer(kBytes);
  std::vector<std::byte> src(kBytes, std::byte{1});
  Buffer* r0[] = {in0.get()};
  (void)ctx.queue().enqueue_write(*in0, src);
  const Event k0 = ctx.queue().enqueue_kernel(0.01, r0, {}, {});
  ctx.queue().barrier();
  const Event up1 = ctx.queue().enqueue_write(*in1, src);
  EXPECT_GE(up1.start, k0.end);
}

TEST(Queue, FinishReturnsCompletionTime) {
  Context ctx(Platform::device("vega64"));
  auto buf = ctx.create_buffer(64);
  std::vector<std::byte> src(64, std::byte{1});
  const Event ev = ctx.queue().enqueue_write(*buf, src);
  EXPECT_DOUBLE_EQ(ctx.queue().finish(), ev.end);
}

TEST(Buffer, ReportsItsSizeAndChargesTheDevice) {
  Context ctx(Platform::device("gtx980"));
  auto buf = ctx.create_buffer(16);
  EXPECT_EQ(buf->size(), 16u);
  EXPECT_EQ(ctx.allocated_bytes(), 16u);
  ctx.release_buffer(buf);
  EXPECT_EQ(ctx.allocated_bytes(), 0u);
}

}  // namespace
}  // namespace snp::cl
