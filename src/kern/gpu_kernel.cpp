#include "kern/gpu_kernel.hpp"

#include <stdexcept>

#include "cpu/engine.hpp"

namespace snp::kern {

using bits::Comparison;

GpuSnpKernel::GpuSnpKernel(model::GpuSpec dev, model::KernelConfig cfg,
                           bits::Comparison op)
    : dev_(std::move(dev)), cfg_(cfg), op_(op) {
  const auto check = model::validate(cfg_, dev_);
  if (!check.ok) {
    throw std::invalid_argument("GpuSnpKernel: " + check.reason + " for " +
                                dev_.name + " with " + cfg_.to_string());
  }
  if (cfg_.pre_negated && op_ != Comparison::kAndNot) {
    throw std::invalid_argument(
        "GpuSnpKernel: pre-negation only applies to AND-NOT (Eq. 3)");
  }
}

Comparison GpuSnpKernel::lowered_op() const {
  if (op_ == Comparison::kAndNot && cfg_.pre_negated) {
    return Comparison::kAnd;  // (r ^ m) & r == r & ~m == AND vs stored ~m
  }
  return op_;
}

void GpuSnpKernel::execute(bits::RowWindow a, bits::RowWindow b,
                           std::uint32_t* c, std::size_t ldc) const {
  if (a.matrix->bit_cols() != b.matrix->bit_cols()) {
    throw std::invalid_argument(
        "GpuSnpKernel::execute: operands must share the K dimension");
  }
  cpu::compare_into(a, b, lowered_op(), c, ldc);
}

void GpuSnpKernel::execute(const bits::BitMatrix& a, const bits::BitMatrix& b,
                           bits::CountMatrix& c) const {
  if (c.rows() != a.rows() || c.cols() != b.rows()) {
    throw std::invalid_argument(
        "GpuSnpKernel::execute: output shape mismatch");
  }
  execute({&a, 0, a.rows()}, {&b, 0, b.rows()}, c.raw().data(), c.cols());
}

sim::KernelTiming GpuSnpKernel::timing(const sim::KernelShape& shape) const {
  return sim::estimate_kernel(dev_, cfg_, op_, shape, cfg_.pre_negated);
}

}  // namespace snp::kern
