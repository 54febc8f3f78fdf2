// The parameterized GPU SNP-comparison kernel (paper Sections IV-C and V).
//
// This is the BLIS third loop around the micro-kernel and its contents,
// exactly as the paper's OpenCL kernel implements it: for each m_c x n_r
// tile of C assigned to a compute core, the kernel packs an m_c x k_c tile
// of A into shared memory, then streams B from global memory while the
// thread groups accumulate popcount inner products in registers. Where the
// paper configures the kernel with C macros in a header, we configure it
// with a model::KernelConfig — same four values (m_c, m_r, k_c, n_r) plus
// the core grid.
//
// Execution here is functional: the counts come from the host engine
// (cpu::compare_accumulate), the one popcount-GEMM on the host, and the
// time the simulated device takes comes from sim::estimate_kernel on this
// config. The GPU tiling itself lives in kernel_program's IR, which the
// dataflow verifier (analyze/) proves in bounds, and in the rendered
// OpenCL source (opencl_source.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "bits/bitmatrix.hpp"
#include "bits/compare.hpp"
#include "model/config.hpp"
#include "model/device.hpp"
#include "sim/timing.hpp"

namespace snp::kern {

class GpuSnpKernel {
 public:
  /// Throws std::invalid_argument when `cfg` fails model::validate for
  /// `dev` (the compile-time config check of the paper's header file).
  GpuSnpKernel(model::GpuSpec dev, model::KernelConfig cfg,
               bits::Comparison op);

  [[nodiscard]] const model::GpuSpec& device() const { return dev_; }
  [[nodiscard]] const model::KernelConfig& config() const { return cfg_; }
  [[nodiscard]] bits::Comparison op() const { return op_; }

  /// The comparison the kernel physically executes after the Eq. 3
  /// lowering (AND when the database is pre-negated).
  [[nodiscard]] bits::Comparison lowered_op() const;

  /// Functional execution on a rectangle: accumulates gamma[i,j] +=
  /// popc(op(A[i,:], B[j,:])) under lowered_op(), computed by the host
  /// engine from the operands in place, for the rows of the windows `a`
  /// and `b` into the a.rows x b.rows block of C at `c`, whose rows are
  /// `ldc` counts apart. `accumulate = false` zeroes the block first
  /// (beta = 0), so running it again gives the same block.
  void execute(bits::RowWindow a, bits::RowWindow b, std::uint32_t* c,
               std::size_t ldc, bool accumulate = false) const;

  /// The rectangle form over whole operands: `c` must be
  /// a.rows() x b.rows().
  void execute(const bits::BitMatrix& a, const bits::BitMatrix& b,
               bits::CountMatrix& c, bool accumulate = false) const;

  /// Largest K (in 32-bit words) a single A tile supports on the device:
  /// k_c. Deeper problems run multiple packed panels.
  [[nodiscard]] std::size_t max_panel_words() const {
    return static_cast<std::size_t>(cfg_.k_c);
  }

  /// Simulated execution time for this kernel on a given shape.
  [[nodiscard]] sim::KernelTiming timing(const sim::KernelShape& shape)
      const;

 private:
  model::GpuSpec dev_;
  model::KernelConfig cfg_;
  bits::Comparison op_;
};

}  // namespace snp::kern
