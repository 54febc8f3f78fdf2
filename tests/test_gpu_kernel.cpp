// The parameterized GPU kernel: functional correctness of its execution
// against the reference, config validation, Eq. 3 lowering, timing hookup.
#include "kern/gpu_kernel.hpp"

#include <gtest/gtest.h>

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

TEST(GpuKernel, AccumulateMode) {
  const auto dev = model::titan_v();
  const auto cfg = model::paper_preset(dev, model::WorkloadKind::kLd);
  const GpuSnpKernel kernel(dev, cfg, Comparison::kXor);
  // One micro-tile, and a shape wider than one host macro-tile in both
  // dimensions (m_c = 64 rows, n_c = 2048 columns).
  for (const KernelCase c : {KernelCase{3, 4, 100},
                             KernelCase{70, 2 * 2048 + 5, 200}}) {
    const auto a = io::random_bitmatrix(c.m, c.bits, 0.5, 205);
    const auto b = io::random_bitmatrix(c.n, c.bits, 0.5, 206);
    bits::CountMatrix out(c.m, c.n);
    kernel.execute(a, b, out);
    const auto once = out;
    EXPECT_TRUE(once == bits::compare_reference(a, b, Comparison::kXor));
    kernel.execute(a, b, out, /*accumulate=*/true);
    for (std::size_t i = 0; i < c.m; ++i) {
      for (std::size_t j = 0; j < c.n; ++j) {
        EXPECT_EQ(out.at(i, j), 2 * once.at(i, j));
      }
    }
    kernel.execute(a, b, out);  // overwrite resets
    EXPECT_TRUE(out == once);
  }
  // One matrix on both sides (the triangle-only self path) accumulating
  // into a C that is not symmetric: every entry gains exactly gamma.
  for (const std::size_t n : {std::size_t{7}, std::size_t{2 * 64 + 3}}) {
    const auto a = io::random_bitmatrix(n, 300, 0.5, 209);
    const auto gamma = bits::compare_reference(a, a, Comparison::kXor);
    bits::CountMatrix out(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        out.at(i, j) = static_cast<std::uint32_t>(1000 * i + j);
      }
    }
    const auto old = out;
    kernel.execute(a, a, out, /*accumulate=*/true);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(out.at(i, j), old.at(i, j) + gamma.at(i, j))
            << i << "," << j;
      }
    }
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
