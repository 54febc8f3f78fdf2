// Sparse comparison engines and the sparse-kernel performance model — the
// future-work extension of paper Section VII, built to the same standard
// as the dense path: a real (tested) CPU engine plus an analytical GPU
// model on the same device descriptors, so the dense-vs-sparse crossover
// can be charted per device.
#pragma once

#include "bits/compare.hpp"
#include "model/config.hpp"
#include "model/device.hpp"
#include "sim/timing.hpp"
#include "sparse/sparse_matrix.hpp"

namespace snp::sparse {

/// gamma[i,j] for Eqs. 1-3 from sparse operands: one intersection per
/// output element plus the row marginals (|a ^ b| = |a|+|b|-2|∩|, etc.).
/// Parallel over output rows on exec::host_pool().
[[nodiscard]] bits::CountMatrix sparse_compare(const SparseBitMatrix& a,
                                               const SparseBitMatrix& b,
                                               bits::Comparison op);

/// Mixed representation: sparse queries against a packed dense database —
/// each set bit of the sparse row probes the dense row directly. This is
/// the form a sparse FastID would use (tiny sparse queries, dense DB).
/// Parallel over output rows on exec::host_pool().
[[nodiscard]] bits::CountMatrix sparse_dense_compare(
    const SparseBitMatrix& a, const bits::BitMatrix& b,
    bits::Comparison op);

/// Analytical GPU timing for a sparse-sparse comparison kernel on the
/// model device: each output element costs a merge over the two rows'
/// indices (~kMergeInstrsPerStep logic/add-pipe instructions per step, no
/// popcount), and DRAM traffic is the index streams instead of the packed
/// words. Returns the same KernelTiming record as the dense estimator;
/// `gops` counts *dense-equivalent* word-ops (m*n*k_words) so the two are
/// directly comparable.
[[nodiscard]] sim::KernelTiming estimate_sparse_kernel(
    const model::GpuSpec& dev, const model::KernelConfig& cfg,
    const sim::KernelShape& shape, double density_a, double density_b);

/// Density at which the modeled sparse kernel matches the dense kernel on
/// `dev` for a square LD-like shape (bisection over the two estimators).
/// Below this density the sparse representation wins.
[[nodiscard]] double crossover_density(const model::GpuSpec& dev,
                                       const sim::KernelShape& shape);

/// Mixed-representation GPU model: sparse queries (density_a) against a
/// dense database. Each output element costs one probe per query index —
/// a gathered load plus a bit test, no merge and no popcount — so the
/// *compute* cost scales with the query's nnz only. The model also prices
/// the gathers honestly (a 32-byte transaction per probe): because probe
/// rate rises exactly as nnz falls, per-core bandwidth demand is
/// density-independent and stays far above the dense kernel's streamed
/// traffic — so rare-variant queries merely break even with dense despite
/// an order of magnitude less arithmetic, and common queries lose. A
/// gather-coalescing database layout is the prerequisite for sparse
/// FastID to pay (tests/test_sparse.cpp pins this finding).
[[nodiscard]] sim::KernelTiming estimate_sparse_dense_kernel(
    const model::GpuSpec& dev, const model::KernelConfig& cfg,
    const sim::KernelShape& shape, double density_a);

}  // namespace snp::sparse
