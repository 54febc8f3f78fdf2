#include "cpu/engine.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/task_graph.hpp"
#include "exec/thread_pool.hpp"
#include "obs/obs.hpp"

namespace snp::cpu {

namespace {

using bits::Comparison;
using bits::Word64;

/// Packed A panel: m_r-row strips, k-major within a strip, so the
/// micro-kernel streams it with unit stride.
void pack_a(const bits::BitMatrix& a, std::size_t row0, std::size_t rows,
            std::size_t k0, std::size_t kw, std::vector<Word64>& out) {
  constexpr std::size_t m_r = CpuBlocking::m_r;
  const std::size_t strips = bits::ceil_div(rows, m_r);
  out.assign(strips * kw * m_r, 0);
  SNP_OBS_COUNT("cpu.pack_a.words", out.size());
  for (std::size_t s = 0; s < strips; ++s) {
    Word64* dst = out.data() + s * kw * m_r;
    for (std::size_t k = 0; k < kw; ++k) {
      for (std::size_t r = 0; r < m_r; ++r) {
        const std::size_t row = row0 + s * m_r + r;
        dst[k * m_r + r] =
            row < row0 + rows ? a.row64(row)[k0 + k] : Word64{0};
      }
    }
  }
}

/// Packed B panel: n_r-column strips, k-major within a strip.
void pack_b(const bits::BitMatrix& b, std::size_t col0, std::size_t cols,
            std::size_t k0, std::size_t kw, std::vector<Word64>& out) {
  constexpr std::size_t n_r = CpuBlocking::n_r;
  const std::size_t strips = bits::ceil_div(cols, n_r);
  out.assign(strips * kw * n_r, 0);
  SNP_OBS_COUNT("cpu.pack_b.words", out.size());
  for (std::size_t s = 0; s < strips; ++s) {
    Word64* dst = out.data() + s * kw * n_r;
    for (std::size_t k = 0; k < kw; ++k) {
      for (std::size_t c = 0; c < n_r; ++c) {
        const std::size_t col = col0 + s * n_r + c;
        dst[k * n_r + c] =
            col < col0 + cols ? b.row64(col)[k0 + k] : Word64{0};
      }
    }
  }
}

/// The micro-kernel: an m_r x n_r register block accumulating
/// popcount(op(a, b)) over a k_c-deep packed panel pair. `op` is a template
/// parameter so the logical operation is branch-free in the inner loop —
/// the same specialization trick the paper applies inside BLIS.
template <Comparison op>
void micro_kernel(const Word64* a_strip, const Word64* b_strip,
                  std::size_t kw, std::uint32_t* c, std::size_t ldc) {
  constexpr std::size_t m_r = CpuBlocking::m_r;
  constexpr std::size_t n_r = CpuBlocking::n_r;
  std::uint32_t acc[m_r][n_r] = {};
  for (std::size_t k = 0; k < kw; ++k) {
    const Word64* av = a_strip + k * m_r;
    const Word64* bv = b_strip + k * n_r;
    for (std::size_t i = 0; i < m_r; ++i) {
      for (std::size_t j = 0; j < n_r; ++j) {
        acc[i][j] += static_cast<std::uint32_t>(
            bits::popcount(bits::apply(op, av[i], bv[j])));
      }
    }
  }
  for (std::size_t i = 0; i < m_r; ++i) {
    for (std::size_t j = 0; j < n_r; ++j) {
      c[i * ldc + j] += acc[i][j];
    }
  }
}

using MicroKernelFn = void (*)(const Word64*, const Word64*, std::size_t,
                               std::uint32_t*, std::size_t);

MicroKernelFn select_kernel(Comparison op) {
  switch (op) {
    case Comparison::kAnd:
      return &micro_kernel<Comparison::kAnd>;
    case Comparison::kXor:
      return &micro_kernel<Comparison::kXor>;
    case Comparison::kAndNot:
      return &micro_kernel<Comparison::kAndNot>;
  }
  throw std::invalid_argument("compare_blocked: unknown comparison");
}

/// Loops 2 (n_r) and 1 (m_r) around the micro-kernel for one packed
/// m_c x n_c macro-tile. Shared verbatim by the OpenMP and task-graph
/// paths so their accumulation into C is instruction-identical.
void run_macro_tile(MicroKernelFn kernel, const Word64* a_packed,
                    const Word64* b_packed, std::size_t ic, std::size_t mc,
                    std::size_t jc, std::size_t nc, std::size_t kw,
                    std::size_t m, std::size_t n, std::uint32_t* cdata,
                    std::size_t ldc) {
  constexpr std::size_t m_r = CpuBlocking::m_r;
  constexpr std::size_t n_r = CpuBlocking::n_r;
  const std::size_t col_strips = bits::ceil_div(nc, n_r);
  const std::size_t row_strips = bits::ceil_div(mc, m_r);
  SNP_OBS_COUNT("cpu.macro_tiles", 1);
  // Padded micro-tile work, in 64-bit word-ops (edge strips included —
  // the micro-kernel always runs full m_r x n_r registers).
  SNP_OBS_COUNT("cpu.wordops",
                row_strips * m_r * col_strips * n_r * kw);
  std::uint32_t edge[m_r * n_r];
  for (std::size_t js = 0; js < col_strips; ++js) {
    const Word64* b_strip = b_packed + js * kw * n_r;
    for (std::size_t is = 0; is < row_strips; ++is) {
      const Word64* a_strip = a_packed + is * kw * m_r;
      const std::size_t ci = ic + is * m_r;
      const std::size_t cj = jc + js * n_r;
      const bool interior = ci + m_r <= m && cj + n_r <= n;
      if (interior) {
        kernel(a_strip, b_strip, kw, cdata + ci * ldc + cj, ldc);
      } else {
        std::fill(edge, edge + m_r * n_r, 0u);
        kernel(a_strip, b_strip, kw, edge, n_r);
        for (std::size_t i = 0; i < m_r && ci + i < m; ++i) {
          for (std::size_t j = 0; j < n_r && cj + j < n; ++j) {
            cdata[(ci + i) * ldc + cj + j] += edge[i * n_r + j];
          }
        }
      }
    }
  }
}

/// Operand checks shared by every entry point; `where` names the caller.
void check_operands(const bits::BitMatrix& a, const bits::BitMatrix& b,
                    const CpuBlocking& blocking, const char* where) {
  if (a.bit_cols() != b.bit_cols()) {
    throw std::invalid_argument(std::string(where) +
                                ": operands must share the K dimension");
  }
  if (!blocking.valid()) {
    throw std::invalid_argument(std::string(where) + ": invalid blocking");
  }
}

}  // namespace

void compare_accumulate(const bits::BitMatrix& a, const bits::BitMatrix& b,
                        Comparison op, bits::CountMatrix& c,
                        const CpuBlocking& blocking) {
  check_operands(a, b, blocking, "compare_blocked");
  if (c.rows() != a.rows() || c.cols() != b.rows()) {
    throw std::invalid_argument("compare_blocked: output shape mismatch");
  }
  SNP_OBS_SPAN("cpu.compare_blocked");
  const MicroKernelFn kernel = select_kernel(op);

  const std::size_t m = a.rows();
  const std::size_t n = b.rows();
  const std::size_t k_words = bits::ceil_div(a.bit_cols(),
                                             bits::kBitsPerWord64);
  if (m == 0 || n == 0 || k_words == 0) {
    return;
  }
  const std::size_t ldc = n;
  std::uint32_t* cdata = c.raw().data();
  const std::size_t m_blocks = bits::ceil_div(m, blocking.m_c);
  const std::size_t tiles = m_blocks * bits::ceil_div(n, blocking.n_c);

  // Loop 4 (k_c) around one parallel loop over the 2-D grid of loops 5
  // (n_c) and 3 (m_c): each macro-tile owns a disjoint block of C, so no
  // synchronization is needed, and a single tile wakes no team. Tiles are
  // numbered column-major, so the tiles a thread takes in turn mostly
  // share an n_c block, and it repacks its B panel only when the block
  // changes.
  for (std::size_t pc = 0; pc < k_words; pc += blocking.k_c) {
    const std::size_t kw = std::min(blocking.k_c, k_words - pc);
#pragma omp parallel if (tiles > 1) default(none) \
    shared(a, b, cdata, kernel) \
    firstprivate(m, n, pc, kw, ldc, blocking, m_blocks, tiles)
    {
      std::vector<Word64> a_packed;
      std::vector<Word64> b_packed;
      std::size_t packed_jc = n;  // no B panel packed yet
#pragma omp for schedule(dynamic) nowait
      for (std::size_t t = 0; t < tiles; ++t) {
        const std::size_t ic = (t % m_blocks) * blocking.m_c;
        const std::size_t jc = (t / m_blocks) * blocking.n_c;
        const std::size_t mc = std::min(blocking.m_c, m - ic);
        const std::size_t nc = std::min(blocking.n_c, n - jc);
        if (jc != packed_jc) {
          pack_b(b, jc, nc, pc, kw, b_packed);
          packed_jc = jc;
        }
        pack_a(a, ic, mc, pc, kw, a_packed);
        run_macro_tile(kernel, a_packed.data(), b_packed.data(), ic, mc,
                       jc, nc, kw, m, n, cdata, ldc);
      }
    }
  }
}

bits::CountMatrix compare_blocked(const bits::BitMatrix& a,
                                  const bits::BitMatrix& b, Comparison op,
                                  const CpuBlocking& blocking) {
  bits::CountMatrix c(a.rows(), b.rows());
  compare_accumulate(a, b, op, c, blocking);
  return c;
}

bits::CountMatrix compare_blocked_async(const bits::BitMatrix& a,
                                        const bits::BitMatrix& b,
                                        Comparison op,
                                        exec::ThreadPool& pool,
                                        const CpuBlocking& blocking) {
  check_operands(a, b, blocking, "compare_blocked_async");
  SNP_OBS_SPAN("cpu.compare_blocked_async");
  const MicroKernelFn kernel = select_kernel(op);

  const std::size_t m = a.rows();
  const std::size_t n = b.rows();
  const std::size_t k_words =
      bits::ceil_div(a.bit_cols(), bits::kBitsPerWord64);
  bits::CountMatrix c(m, n);
  if (m == 0 || n == 0 || k_words == 0) {
    return c;
  }
  const std::size_t ldc = n;
  std::uint32_t* cdata = c.raw().data();

  const std::size_t m_blocks = bits::ceil_div(m, blocking.m_c);
  const std::size_t n_blocks = bits::ceil_div(n, blocking.n_c);

  // Two panel generations (k_c strips) may be in flight at once: packing
  // for generation g+1 overlaps the macro-tile compute of generation g,
  // and the generation-complete marker frees its panels before releasing
  // the slot — so peak packed memory is bounded at two generations.
  constexpr std::size_t kPanelGenerations = 2;
  exec::Semaphore generations(kPanelGenerations);
  std::vector<std::vector<Word64>> a_store[kPanelGenerations];
  std::vector<std::vector<Word64>> b_store[kPanelGenerations];
  // Last compute task per (m, n) macro-tile: each tile's k_c accumulation
  // chain runs in the serial panel order, so C is bit-identical to
  // compare_blocked regardless of pool size.
  std::vector<exec::TaskGraph::TaskId> tile_chain(m_blocks * n_blocks);
  std::vector<bool> tile_started(m_blocks * n_blocks, false);

  exec::TaskGraph graph(pool);
  std::size_t generation = 0;
  for (std::size_t pc = 0; pc < k_words;
       pc += blocking.k_c, ++generation) {
    const std::size_t kw = std::min(blocking.k_c, k_words - pc);
    const std::size_t slot = generation % kPanelGenerations;
    // Failure-aware acquire: if any task threw, the marker that releases
    // this slot may be skipped — stop producing and let graph.wait()
    // rethrow instead of deadlocking.
    bool acquired = false;
    while (!(acquired =
                 generations.acquire_for(std::chrono::milliseconds(20)))) {
      if (graph.failed()) {
        break;
      }
    }
    if (!acquired) {
      break;
    }
    a_store[slot].assign(m_blocks, {});
    b_store[slot].assign(n_blocks, {});

    std::vector<exec::TaskGraph::TaskId> a_packs(m_blocks);
    std::vector<exec::TaskGraph::TaskId> b_packs(n_blocks);
    for (std::size_t ib = 0; ib < m_blocks; ++ib) {
      const std::size_t ic = ib * blocking.m_c;
      const std::size_t mc = std::min(blocking.m_c, m - ic);
      auto* dst = &a_store[slot][ib];
      a_packs[ib] = graph.add(
          [&a, ic, mc, pc, kw, dst] { pack_a(a, ic, mc, pc, kw, *dst); });
    }
    for (std::size_t jb = 0; jb < n_blocks; ++jb) {
      const std::size_t jc = jb * blocking.n_c;
      const std::size_t nc = std::min(blocking.n_c, n - jc);
      auto* dst = &b_store[slot][jb];
      b_packs[jb] = graph.add(
          [&b, jc, nc, pc, kw, dst] { pack_b(b, jc, nc, pc, kw, *dst); });
    }

    std::vector<exec::TaskGraph::TaskId> computes;
    computes.reserve(m_blocks * n_blocks);
    for (std::size_t jb = 0; jb < n_blocks; ++jb) {
      const std::size_t jc = jb * blocking.n_c;
      const std::size_t nc = std::min(blocking.n_c, n - jc);
      for (std::size_t ib = 0; ib < m_blocks; ++ib) {
        const std::size_t ic = ib * blocking.m_c;
        const std::size_t mc = std::min(blocking.m_c, m - ic);
        const std::size_t tile = jb * m_blocks + ib;
        std::vector<exec::TaskGraph::TaskId> deps{a_packs[ib],
                                                  b_packs[jb]};
        if (tile_started[tile]) {
          deps.push_back(tile_chain[tile]);
        }
        const auto* a_panel = &a_store[slot][ib];
        const auto* b_panel = &b_store[slot][jb];
        tile_chain[tile] = graph.add(
            [kernel, a_panel, b_panel, ic, mc, jc, nc, kw, m, n, cdata,
             ldc] {
              run_macro_tile(kernel, a_panel->data(), b_panel->data(), ic,
                             mc, jc, nc, kw, m, n, cdata, ldc);
            },
            deps);
        tile_started[tile] = true;
        computes.push_back(tile_chain[tile]);
      }
    }
    // Generation marker: frees this generation's panels and opens the slot
    // for packing two strips ahead.
    graph.add(
        [&a_store, &b_store, slot, &generations] {
          a_store[slot].clear();
          b_store[slot].clear();
          generations.release();
        },
        computes);
  }
  graph.wait();
  return c;
}

bits::CountMatrix compare(const bits::BitMatrix& a,
                          const bits::BitMatrix& b, Comparison op,
                          std::size_t threads) {
  if (threads == 0) {
    return compare_blocked(a, b, op);
  }
  exec::ThreadPool pool(threads);
  return compare_blocked_async(a, b, op, pool);
}

bits::CountMatrix ld_counts(const bits::BitMatrix& a,
                            const CpuBlocking& blocking) {
  return compare_blocked(a, a, Comparison::kAnd, blocking);
}

}  // namespace snp::cpu
