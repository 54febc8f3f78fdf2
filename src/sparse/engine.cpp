#include "sparse/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "exec/thread_pool.hpp"
#include "model/peak.hpp"
#include "sim/memory.hpp"

namespace snp::sparse {

using bits::Comparison;

namespace {

std::uint32_t from_intersection(Comparison op, std::uint32_t nnz_a,
                                std::uint32_t nnz_b,
                                std::uint32_t intersection) {
  switch (op) {
    case Comparison::kAnd:
      return intersection;
    case Comparison::kXor:
      return nnz_a + nnz_b - 2 * intersection;
    case Comparison::kAndNot:
      return nnz_a - intersection;
  }
  return 0;
}

void check_k(std::size_t a_bits, std::size_t b_bits) {
  if (a_bits != b_bits) {
    throw std::invalid_argument(
        "sparse compare: operands must share the K (bit) dimension");
  }
}

}  // namespace

bits::CountMatrix sparse_compare(const SparseBitMatrix& a,
                                 const SparseBitMatrix& b, Comparison op) {
  check_k(a.bit_cols(), b.bit_cols());
  bits::CountMatrix c(a.rows(), b.rows());
  std::uint32_t* cdata = c.raw().data();
  const std::size_t n = b.rows();
  exec::host_pool().parallel_for(a.rows(), [&](std::size_t, std::size_t i) {
    const auto row_a = a.row(i);
    const auto nnz_a = static_cast<std::uint32_t>(row_a.size());
    for (std::size_t j = 0; j < n; ++j) {
      const auto row_b = b.row(j);
      const std::uint32_t inter = intersect_count(row_a, row_b);
      cdata[i * n + j] = from_intersection(
          op, nnz_a, static_cast<std::uint32_t>(row_b.size()), inter);
    }
  });
  return c;
}

bits::CountMatrix sparse_dense_compare(const SparseBitMatrix& a,
                                       const bits::BitMatrix& b,
                                       Comparison op) {
  check_k(a.bit_cols(), b.bit_cols());
  bits::CountMatrix c(a.rows(), b.rows());
  std::uint32_t* cdata = c.raw().data();
  const std::size_t n = b.rows();
  exec::host_pool().parallel_for(a.rows(), [&](std::size_t, std::size_t i) {
    const auto row_a = a.row(i);
    const auto nnz_a = static_cast<std::uint32_t>(row_a.size());
    for (std::size_t j = 0; j < n; ++j) {
      const auto row_b = b.row64(j);
      std::uint32_t inter = 0;
      for (const std::uint32_t idx : row_a) {
        const bits::Word64 word = row_b[idx / bits::kBitsPerWord64];
        inter += static_cast<std::uint32_t>(
            (word >> (idx % bits::kBitsPerWord64)) & 1u);
      }
      const auto nnz_b = static_cast<std::uint32_t>(b.row_popcount(j));
      cdata[i * n + j] = from_intersection(op, nnz_a, nnz_b, inter);
    }
  });
  return c;
}

sim::KernelTiming estimate_sparse_kernel(const model::GpuSpec& dev,
                                         const model::KernelConfig& cfg,
                                         const sim::KernelShape& shape,
                                         double density_a,
                                         double density_b) {
  if (shape.m == 0 || shape.n == 0 || shape.k_words == 0) {
    throw std::invalid_argument("estimate_sparse_kernel: degenerate shape");
  }
  if (density_a < 0.0 || density_a > 1.0 || density_b < 0.0 ||
      density_b > 1.0) {
    throw std::invalid_argument(
        "estimate_sparse_kernel: densities must be in [0, 1]");
  }
  const double k_bits = static_cast<double>(shape.k_words) * 32.0;
  const double nnz_a = density_a * k_bits;
  const double nnz_b = density_b * k_bits;

  // Merge cost per output element: one step per index on either side;
  // each step is ~3 instructions (compare, conditional advance, count
  // accumulate) on the logic/add pipes, with no popcount involvement.
  constexpr double kMergeInstrsPerStep = 3.0;
  const double steps = nnz_a + nnz_b;
  const auto& logic = dev.pipe(model::InstrClass::kLogic);
  // Per-cluster instruction throughput in lane-instructions per cycle.
  const double lane_instrs_per_cycle =
      static_cast<double>(logic.units_per_cluster);
  // Divergence penalty: merge loops across the N_T lanes of a thread
  // group advance irregularly, so SIMT lanes idle part of the time.
  constexpr double kDivergenceEfficiency = 0.5;
  const double elems_per_cycle_cluster =
      lane_instrs_per_cycle * kDivergenceEfficiency /
      (steps * kMergeInstrsPerStep);

  const std::size_t tiles_m =
      bits::ceil_div(shape.m, static_cast<std::size_t>(cfg.m_c));
  const std::size_t tiles_n =
      bits::ceil_div(shape.n, static_cast<std::size_t>(cfg.n_r));
  const auto gm = static_cast<std::size_t>(cfg.grid.grid_m);
  const auto gn = static_cast<std::size_t>(cfg.grid.grid_n);
  const std::size_t tiles_per_core =
      bits::ceil_div(tiles_m, gm) * bits::ceil_div(tiles_n, gn);
  const int active_cores = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(cfg.grid.cores()),
      std::min(tiles_m, gm) * std::min(tiles_n, gn)));

  const double elems_per_tile = static_cast<double>(cfg.m_c) *
                                static_cast<double>(cfg.n_r);
  const double core_cycles =
      static_cast<double>(tiles_per_core) * elems_per_tile /
      (elems_per_cycle_cluster * dev.n_clusters);

  sim::KernelTiming t;
  t.active_cores = active_cores;
  t.clock_ghz = dev.clock_ghz(active_cores);
  t.core_cycles = core_cycles;
  const double raw_seconds = core_cycles / (t.clock_ghz * 1e9);

  // DRAM traffic: index streams (4 B per index) for both operands per
  // tile, plus the C writeback.
  const double tile_bytes =
      4.0 * (static_cast<double>(cfg.m_c) * nnz_a +
             static_cast<double>(cfg.n_r) * nnz_b +
             static_cast<double>(cfg.m_c) * static_cast<double>(cfg.n_r));
  const double core_bytes = static_cast<double>(tiles_per_core) *
                            tile_bytes;
  t.per_core_demand_gbps =
      raw_seconds > 0.0 ? core_bytes / raw_seconds / 1e9 : 0.0;
  t.mem_efficiency =
      sim::contention_efficiency(dev, active_cores, t.per_core_demand_gbps);
  t.seconds = raw_seconds / t.mem_efficiency;
  t.launch_seconds = sim::launch_seconds(dev);
  t.dram_bytes = core_bytes * active_cores;

  // Dense-equivalent accounting so dense and sparse are comparable.
  t.wordops = static_cast<double>(shape.m) * static_cast<double>(shape.n) *
              static_cast<double>(shape.k_words);
  t.gops = t.wordops / t.seconds / 1e9;
  t.peak_gops = model::peak_wordops_per_s(dev, Comparison::kAnd, false,
                                          active_cores) /
                1e9;
  t.pct_of_peak = 100.0 * t.gops / t.peak_gops;
  return t;
}

sim::KernelTiming estimate_sparse_dense_kernel(
    const model::GpuSpec& dev, const model::KernelConfig& cfg,
    const sim::KernelShape& shape, double density_a) {
  if (shape.m == 0 || shape.n == 0 || shape.k_words == 0) {
    throw std::invalid_argument(
        "estimate_sparse_dense_kernel: degenerate shape");
  }
  if (density_a < 0.0 || density_a > 1.0) {
    throw std::invalid_argument(
        "estimate_sparse_dense_kernel: density must be in [0, 1]");
  }
  const double k_bits = static_cast<double>(shape.k_words) * 32.0;
  const double nnz_a = density_a * k_bits;

  // Per output element: one gathered load + shift/mask test + conditional
  // add per query index (~3 instructions: 1 mem, 2 logic/add).
  const auto& logic = dev.pipe(model::InstrClass::kLogic);
  const auto& lsu = dev.pipe(model::InstrClass::kMem);
  const double logic_cycles = 2.0 * nnz_a / logic.units_per_cluster;
  const double mem_cycles = 1.0 * nnz_a / lsu.units_per_cluster;
  // Gathered (random-word) loads diverge worse than streamed ones.
  constexpr double kGatherEfficiency = 0.5;
  const double cycles_per_elem_cluster =
      std::max(logic_cycles, mem_cycles / kGatherEfficiency);
  const double elems_per_cycle_cluster =
      cycles_per_elem_cluster > 0.0 ? 1.0 / cycles_per_elem_cluster : 1e9;

  const std::size_t tiles_m =
      bits::ceil_div(shape.m, static_cast<std::size_t>(cfg.m_c));
  const std::size_t tiles_n =
      bits::ceil_div(shape.n, static_cast<std::size_t>(cfg.n_r));
  const auto gm = static_cast<std::size_t>(cfg.grid.grid_m);
  const auto gn = static_cast<std::size_t>(cfg.grid.grid_n);
  const std::size_t tiles_per_core =
      bits::ceil_div(tiles_m, gm) * bits::ceil_div(tiles_n, gn);
  const int active_cores = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(cfg.grid.cores()),
      std::min(tiles_m, gm) * std::min(tiles_n, gn)));

  sim::KernelTiming t;
  t.active_cores = active_cores;
  t.clock_ghz = dev.clock_ghz(active_cores);
  const double elems_per_tile = static_cast<double>(cfg.m_c) *
                                static_cast<double>(cfg.n_r);
  t.core_cycles = static_cast<double>(tiles_per_core) * elems_per_tile /
                  (elems_per_cycle_cluster * dev.n_clusters);
  const double raw_seconds = t.core_cycles / (t.clock_ghz * 1e9);

  // DRAM: query indices (tiny) + gathered database cache lines. Model a
  // 32-byte transaction per probe, the dominant term.
  const double tile_bytes =
      elems_per_tile * nnz_a * 32.0 / static_cast<double>(cfg.m_c) +
      4.0 * elems_per_tile;
  const double core_bytes =
      static_cast<double>(tiles_per_core) * tile_bytes;
  t.per_core_demand_gbps =
      raw_seconds > 0.0 ? core_bytes / raw_seconds / 1e9 : 0.0;
  t.mem_efficiency =
      sim::contention_efficiency(dev, active_cores, t.per_core_demand_gbps);
  t.seconds = raw_seconds / t.mem_efficiency;
  t.launch_seconds = sim::launch_seconds(dev);
  t.dram_bytes = core_bytes * active_cores;
  t.wordops = static_cast<double>(shape.m) * static_cast<double>(shape.n) *
              static_cast<double>(shape.k_words);
  t.gops = t.wordops / t.seconds / 1e9;
  t.peak_gops = model::peak_wordops_per_s(dev, Comparison::kAnd, false,
                                          active_cores) /
                1e9;
  t.pct_of_peak = 100.0 * t.gops / t.peak_gops;
  return t;
}

double crossover_density(const model::GpuSpec& dev,
                         const sim::KernelShape& shape) {
  const auto cfg = model::paper_preset(dev, model::WorkloadKind::kLd);
  const double dense_s =
      sim::estimate_kernel(dev, cfg, Comparison::kAnd, shape).seconds;
  double lo = 0.0, hi = 1.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double sparse_s =
        estimate_sparse_kernel(dev, cfg, shape, mid, mid).seconds;
    (sparse_s < dense_s ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace snp::sparse
