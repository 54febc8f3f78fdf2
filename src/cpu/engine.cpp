#include "cpu/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

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
/// m_c x n_c macro-tile. A `self` tile (one window against itself under a
/// symmetric op) computes only its micro-tiles on or above the diagonal
/// and adds each strictly-upper register block at (i, j) and at (j, i).
void run_macro_tile(MicroKernelFn kernel, const Word64* a_packed,
                    const Word64* b_packed, std::size_t ic, std::size_t mc,
                    std::size_t jc, std::size_t nc, std::size_t kw,
                    std::size_t m, std::size_t n, std::uint32_t* cdata,
                    std::size_t ldc, bool self) {
  constexpr std::size_t m_r = CpuBlocking::m_r;
  constexpr std::size_t n_r = CpuBlocking::n_r;
  const std::size_t col_strips = bits::ceil_div(nc, n_r);
  const std::size_t row_strips = bits::ceil_div(mc, m_r);
  std::size_t micro_tiles = 0;
  std::uint32_t edge[m_r * n_r];
  for (std::size_t js = 0; js < col_strips; ++js) {
    const Word64* b_strip = b_packed + js * kw * n_r;
    const std::size_t cj = jc + js * n_r;
    // A self tile stops at the diagonal: its row strips with ci <= cj.
    const std::size_t strips =
        !self ? row_strips
              : (cj < ic ? 0 : std::min(row_strips, (cj - ic) / m_r + 1));
    micro_tiles += strips;
    for (std::size_t is = 0; is < strips; ++is) {
      const Word64* a_strip = a_packed + is * kw * m_r;
      const std::size_t ci = ic + is * m_r;
      // A strictly-upper self block is also added at (j, i), which lies in
      // a skipped lower micro-tile and so has this one writer.
      const bool mirror = self && ci < cj;
      if (!mirror && ci + m_r <= m && cj + n_r <= n) {
        kernel(a_strip, b_strip, kw, cdata + ci * ldc + cj, ldc);
        continue;
      }
      std::fill(edge, edge + m_r * n_r, 0u);
      kernel(a_strip, b_strip, kw, edge, n_r);
      for (std::size_t i = 0; i < m_r && ci + i < m; ++i) {
        for (std::size_t j = 0; j < n_r && cj + j < n; ++j) {
          cdata[(ci + i) * ldc + cj + j] += edge[i * n_r + j];
          if (mirror) {
            cdata[(cj + j) * ldc + ci + i] += edge[i * n_r + j];
          }
        }
      }
    }
  }
  SNP_OBS_COUNT("cpu.macro_tiles", 1);
  // Micro-tile work computed, in 64-bit word-ops (edge strips included —
  // the micro-kernel always runs full m_r x n_r registers).
  SNP_OBS_COUNT("cpu.wordops", micro_tiles * m_r * n_r * kw);
}

/// One participant's packed panels, kept across the macro-tiles it takes.
struct Panels {
  std::vector<Word64> a;
  std::vector<Word64> b;
  std::size_t b_jc = 0;  ///< n_c block `b` holds; n means none
};

}  // namespace

void compare_accumulate(bits::RowWindow a, bits::RowWindow b, Comparison op,
                        std::uint32_t* c, std::size_t ldc,
                        const CpuBlocking& blocking, exec::ThreadPool& pool) {
  if (a.matrix->bit_cols() != b.matrix->bit_cols()) {
    throw std::invalid_argument(
        "compare_blocked: operands must share the K dimension");
  }
  if (!blocking.valid()) {
    throw std::invalid_argument("compare_blocked: invalid blocking");
  }
  if (a.row0 + a.rows > a.matrix->rows() ||
      b.row0 + b.rows > b.matrix->rows() || ldc < b.rows) {
    throw std::invalid_argument("compare_blocked: rectangle out of range");
  }
  SNP_OBS_SPAN("cpu.compare_blocked");
  const MicroKernelFn kernel = select_kernel(op);

  const std::size_t m = a.rows;
  const std::size_t n = b.rows;
  const std::size_t k_words = bits::ceil_div(a.matrix->bit_cols(),
                                             bits::kBitsPerWord64);
  if (m == 0 || n == 0 || k_words == 0) {
    return;
  }
  const std::size_t m_blocks = bits::ceil_div(m, blocking.m_c);
  const std::size_t tiles = m_blocks * bits::ceil_div(n, blocking.n_c);
  // One window against itself under a symmetric op is SYRK's C += A A^T:
  // gamma is symmetric, so only the tiles on or above the diagonal are
  // computed. With m_r == n_r and m_c, n_c multiples of it, every
  // micro-tile lies wholly above, on or below the diagonal.
  static_assert(CpuBlocking::m_r == CpuBlocking::n_r);
  const bool self = a.matrix == b.matrix && a.row0 == b.row0 &&
                    a.rows == b.rows && op != Comparison::kAndNot;

  // Loop 4 (k_c) around one parallel loop over the 2-D grid of loops 5
  // (n_c) and 3 (m_c): each macro-tile owns a disjoint block of C, and a
  // self tile's mirrored adds land only in skipped lower micro-tiles, so
  // every entry has one writer per k_c panel and no synchronization is
  // needed; a single tile posts no helper. Tiles are numbered
  // column-major, so the tiles a participant takes in turn mostly share
  // an n_c block, and it repacks its B panel only when the block changes.
  std::vector<Panels> panels(pool.thread_count() + 1);
  for (std::size_t pc = 0; pc < k_words; pc += blocking.k_c) {
    const std::size_t kw = std::min(blocking.k_c, k_words - pc);
    for (Panels& p : panels) {
      p.b_jc = n;
    }
    pool.parallel_for(tiles, [&](std::size_t slot, std::size_t t) {
      Panels& p = panels[slot];
      const std::size_t ic = (t % m_blocks) * blocking.m_c;
      const std::size_t jc = (t / m_blocks) * blocking.n_c;
      const std::size_t mc = std::min(blocking.m_c, m - ic);
      const std::size_t nc = std::min(blocking.n_c, n - jc);
      if (self && ic >= jc + nc) {
        return;  // wholly below the diagonal: its mirror tile adds it
      }
      if (jc != p.b_jc) {
        pack_b(*b.matrix, b.row0 + jc, nc, pc, kw, p.b);
        p.b_jc = jc;
      }
      pack_a(*a.matrix, a.row0 + ic, mc, pc, kw, p.a);
      run_macro_tile(kernel, p.a.data(), p.b.data(), ic, mc, jc, nc, kw, m,
                     n, c, ldc, self);
    });
  }
}

void compare_accumulate(const bits::BitMatrix& a, const bits::BitMatrix& b,
                        Comparison op, bits::CountMatrix& c,
                        const CpuBlocking& blocking, exec::ThreadPool& pool) {
  if (c.rows() != a.rows() || c.cols() != b.rows()) {
    throw std::invalid_argument("compare_blocked: output shape mismatch");
  }
  compare_accumulate({&a, 0, a.rows()}, {&b, 0, b.rows()}, op,
                     c.raw().data(), c.cols(), blocking, pool);
}

bits::CountMatrix compare_blocked(const bits::BitMatrix& a,
                                  const bits::BitMatrix& b, Comparison op,
                                  const CpuBlocking& blocking) {
  bits::CountMatrix c(a.rows(), b.rows());
  compare_accumulate(a, b, op, c, blocking);
  return c;
}

bits::CountMatrix ld_counts(const bits::BitMatrix& a,
                            const CpuBlocking& blocking) {
  return compare_blocked(a, a, Comparison::kAnd, blocking);
}

}  // namespace snp::cpu
