// The parameterized GPU kernel: functional correctness of its execution
// against the reference, config validation, Eq. 3 lowering, timing hookup.
#include "kern/gpu_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bits/compare.hpp"
#include "io/datagen.hpp"

namespace snp::kern {
namespace {

using bits::Comparison;

model::KernelConfig small_cfg(const model::GpuSpec& d,
                              model::WorkloadKind kind) {
  return model::paper_preset(d, kind);
}

TEST(GpuKernel, RejectsInvalidConfig) {
  auto cfg = model::paper_preset(model::gtx980(), model::WorkloadKind::kLd);
  cfg.k_c = 100000;
  EXPECT_THROW(GpuSnpKernel(model::gtx980(), cfg, Comparison::kAnd),
               std::invalid_argument);
}

TEST(GpuKernel, RejectsPreNegationForNonAndNot) {
  auto cfg = model::paper_preset(model::vega64(), model::WorkloadKind::kLd);
  cfg.pre_negated = true;
  EXPECT_THROW(GpuSnpKernel(model::vega64(), cfg, Comparison::kAnd),
               std::invalid_argument);
}

TEST(GpuKernel, RejectsShapeMismatch) {
  const GpuSnpKernel k(model::gtx980(),
                       small_cfg(model::gtx980(), model::WorkloadKind::kLd),
                       Comparison::kAnd);
  const auto a = io::random_bitmatrix(4, 64, 0.5, 1);
  const auto b = io::random_bitmatrix(4, 128, 0.5, 2);
  bits::CountMatrix c(4, 4);
  EXPECT_THROW(k.execute(a, b, c), std::invalid_argument);
  const auto b2 = io::random_bitmatrix(4, 64, 0.5, 2);
  bits::CountMatrix wrong(3, 4);
  EXPECT_THROW(k.execute(a, b2, wrong), std::invalid_argument);
}

TEST(GpuKernel, LoweredOp) {
  const auto d = model::vega64();
  auto cfg = model::paper_preset(d, model::WorkloadKind::kFastId);
  GpuSnpKernel fused(d, cfg, Comparison::kAndNot);
  EXPECT_EQ(fused.lowered_op(), Comparison::kAndNot);
  cfg.pre_negated = true;
  GpuSnpKernel pre(d, cfg, Comparison::kAndNot);
  EXPECT_EQ(pre.lowered_op(), Comparison::kAnd);
  EXPECT_EQ(pre.max_panel_words(), 512u);
}

struct KernelCase {
  std::size_t m, n, bits;
};

class GpuKernelVsReference
    : public ::testing::TestWithParam<
          std::tuple<KernelCase, Comparison, int>> {};

TEST_P(GpuKernelVsReference, Agree) {
  const auto& [c, op, dev_idx] = GetParam();
  const auto devs = model::all_gpus();
  const auto& dev = devs[static_cast<std::size_t>(dev_idx)];
  const auto cfg = model::paper_preset(dev, model::WorkloadKind::kLd);
  const GpuSnpKernel kernel(dev, cfg, op);
  const auto a = io::random_bitmatrix(c.m, c.bits, 0.35, 201);
  const auto b = io::random_bitmatrix(c.n, c.bits, 0.65, 202);
  bits::CountMatrix out(c.m, c.n);
  kernel.execute(a, b, out);
  EXPECT_TRUE(out == bits::compare_reference(a, b, op));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GpuKernelVsReference,
    ::testing::Combine(
        ::testing::Values(KernelCase{1, 1, 32},      // single word
                          KernelCase{33, 17, 96},    // m_c fringe
                          KernelCase{64, 40, 1024},  // two row tiles
                          KernelCase{7, 390, 64},    // n_r fringe (GTX 980)
                          KernelCase{40, 50, 512}),
        ::testing::Values(Comparison::kAnd, Comparison::kXor,
                          Comparison::kAndNot),
        ::testing::Values(0, 1, 2)));

TEST(GpuKernel, MultiPanelDeepK) {
  // K deeper than the device's k_c (383 words = 12,256 bits on NVIDIA).
  const auto dev = model::gtx980();
  const auto cfg = model::paper_preset(dev, model::WorkloadKind::kLd);
  const GpuSnpKernel kernel(dev, cfg, Comparison::kAnd);
  const auto a = io::random_bitmatrix(5, 13000, 0.5, 203);
  const auto b = io::random_bitmatrix(6, 13000, 0.5, 204);
  bits::CountMatrix out(5, 6);
  kernel.execute(a, b, out);
  EXPECT_TRUE(out == bits::compare_reference(a, b, Comparison::kAnd));
}

TEST(GpuKernel, OverwriteStoresEveryEntry) {
  // execute overwrites its block (beta = 0) instead of zeroing it first:
  // C starts as all-ones words, which no count here can equal, and none
  // may show through. Distinct operands and one matrix on both sides, m
  // and n around the host engine's 4 x 8 micro-tile and its 64-row m_c, k
  // over three of its k_c panels; no columns gives zeros.
  const auto dev = model::titan_v();
  const auto cfg = model::paper_preset(dev, model::WorkloadKind::kLd);
  const std::size_t shapes[] = {1, 3, 4, 5, 7, 8, 9, 12, 65, 131};
  const std::size_t k_bits = 2 * 256 * 64 + 3;
  const auto overwritten = [](const GpuSnpKernel& kernel,
                              const bits::BitMatrix& a,
                              const bits::BitMatrix& b) {
    bits::CountMatrix out(a.rows(), b.rows());
    std::fill(out.raw().begin(), out.raw().end(), 0xFFFFFFFFu);
    kernel.execute(a, b, out);
    return out;
  };
  std::vector<bits::BitMatrix> as;
  std::vector<bits::BitMatrix> bs;
  for (const std::size_t m : shapes) {
    as.push_back(io::random_bitmatrix(m, k_bits, 0.4, 211 + m));
    bs.push_back(io::random_bitmatrix(m, k_bits, 0.6, 223 + m));
  }
  for (const auto op :
       {Comparison::kAnd, Comparison::kXor, Comparison::kAndNot}) {
    const GpuSnpKernel kernel(dev, cfg, op);
    for (const bits::BitMatrix& a : as) {
      EXPECT_TRUE(overwritten(kernel, a, a) ==
                  bits::compare_reference(a, a, op))
          << "self " << a.rows() << " op " << static_cast<int>(op);
      for (const bits::BitMatrix& b : bs) {
        EXPECT_TRUE(overwritten(kernel, a, b) ==
                    bits::compare_reference(a, b, op))
            << a.rows() << " x " << b.rows() << " op "
            << static_cast<int>(op);
      }
    }
    const bits::BitMatrix none(6, 0);
    EXPECT_TRUE(overwritten(kernel, none, none) == bits::CountMatrix(6, 6));
  }
}

TEST(GpuKernel, PreNegatedMatchesFused) {
  // The Eq. 3 equivalence end to end: AND against a pre-negated database
  // equals fused AND-NOT against the original.
  const auto dev = model::vega64();
  auto cfg = model::paper_preset(dev, model::WorkloadKind::kFastId);
  const auto r = io::random_bitmatrix(10, 700, 0.3, 207);
  const auto m = io::random_bitmatrix(8, 700, 0.5, 208);

  const GpuSnpKernel fused(dev, cfg, Comparison::kAndNot);
  bits::CountMatrix out_fused(10, 8);
  fused.execute(r, m, out_fused);

  cfg.pre_negated = true;
  const GpuSnpKernel pre(dev, cfg, Comparison::kAndNot);
  bits::CountMatrix out_pre(10, 8);
  pre.execute(r, m.negated(), out_pre);

  EXPECT_TRUE(out_fused == out_pre);
}

TEST(GpuKernel, TimingMatchesEstimator) {
  const auto dev = model::titan_v();
  const auto cfg = model::paper_preset(dev, model::WorkloadKind::kLd);
  const GpuSnpKernel kernel(dev, cfg, Comparison::kAnd);
  const sim::KernelShape shape{1024, 1024, 128};
  const auto t1 = kernel.timing(shape);
  const auto t2 = sim::estimate_kernel(dev, cfg, Comparison::kAnd, shape);
  EXPECT_DOUBLE_EQ(t1.seconds, t2.seconds);
  EXPECT_DOUBLE_EQ(t1.gops, t2.gops);
}

TEST(GpuKernel, FastIdPresetHandlesQueryShapes) {
  const auto dev = model::gtx980();
  const auto cfg = model::paper_preset(dev, model::WorkloadKind::kFastId);
  const GpuSnpKernel kernel(dev, cfg, Comparison::kXor);
  const auto q = io::random_bitmatrix(32, 256, 0.3, 209);
  const auto db = io::random_bitmatrix(1000, 256, 0.3, 210);
  bits::CountMatrix out(32, 1000);
  kernel.execute(q, db, out);
  EXPECT_TRUE(out == bits::compare_reference(q, db, Comparison::kXor));
}

}  // namespace
}  // namespace snp::kern
