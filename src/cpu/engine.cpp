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

/// Where a micro-tile's register block goes: its rows x cols corner (all
/// of it but at the edge of C) at `c`, rows `ldc` counts apart, and for a
/// strictly-upper self block also transposed at `mirror`. With `add`
/// false (the first k_c panel, BLAS beta = 0) the block overwrites what C
/// held.
struct TileOut {
  std::uint32_t* c;
  std::uint32_t* mirror;  ///< nullptr unless the block is mirrored
  std::size_t ldc;
  std::size_t rows;
  std::size_t cols;
  bool add;
};

using Block = std::uint64_t[CpuBlocking::m_r][CpuBlocking::n_r];

/// Writes rows x cols of a register block at dst[i * row_step +
/// j * col_step]: stored, or added to what is there.
inline void write_block(const Block& acc, std::uint32_t* dst,
                        std::size_t row_step, std::size_t col_step,
                        std::size_t rows, std::size_t cols, bool add) {
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint32_t* d = dst + i * row_step;
    if (add) {
#pragma omp simd
      for (std::size_t j = 0; j < cols; ++j) {
        d[j * col_step] += static_cast<std::uint32_t>(acc[i][j]);
      }
    } else {
#pragma omp simd
      for (std::size_t j = 0; j < cols; ++j) {
        d[j * col_step] = static_cast<std::uint32_t>(acc[i][j]);
      }
    }
  }
}

/// The micro-kernel: an m_r x n_r register block of popcount(op(a, b))
/// over a k_c-deep packed panel pair. Each row of the block is one vector
/// of n_r 64-bit counts (Eq. 4's register block one vector wide: eight
/// lanes fill a 512-bit register), against which A's word is broadcast
/// as a scalar; `omp simd` (-fopenmp-simd) vectorizes the lanes without
/// intrinsics, so the same source builds for any target. `op` is a
/// template parameter so the logical operation is branch-free in the
/// inner loop — the same specialization trick the paper applies inside
/// BLIS.
template <Comparison op>
void micro_kernel(const Word64* a_strip, const Word64* b_strip,
                  std::size_t kw, const TileOut& out) {
  constexpr std::size_t m_r = CpuBlocking::m_r;
  constexpr std::size_t n_r = CpuBlocking::n_r;
  Block acc = {};
  for (std::size_t k = 0; k < kw; ++k) {
    const Word64* bv = b_strip + k * n_r;
    for (std::size_t i = 0; i < m_r; ++i) {
      const Word64 av = a_strip[k * m_r + i];
#pragma omp simd simdlen(n_r)
      for (std::size_t j = 0; j < n_r; ++j) {
        acc[i][j] += static_cast<std::uint64_t>(
            bits::popcount(bits::apply(op, av, bv[j])));
      }
    }
  }
  write_block(acc, out.c, out.ldc, 1, out.rows, out.cols, out.add);
  if (out.mirror != nullptr) {
    write_block(acc, out.mirror, 1, out.ldc, out.rows, out.cols, out.add);
  }
}

/// The skinny kernel, for an A of fewer than m_r rows: reads each row of
/// the window `b` once, where it lies, against every row of `a` over all
/// `kw` words, and stores each count once at c[i * ldc + j]. There is no
/// packing and no padding of A to m_r rows. The k loop is a plain
/// reduction, which -O3 vectorizes with 512-bit vpopcntq where the target
/// has AVX-512 VPOPCNTDQ and sums in registers. Under `omp simd` GCC 12
/// kept the partial sums on the stack, which ran 15-20% slower on one
/// core of an AVX-512 Xeon VM.
template <Comparison op>
void skinny_kernel(bits::RowWindow a, bits::RowWindow b, std::size_t kw,
                   std::uint32_t* c, std::size_t ldc) {
  const std::size_t lda = a.matrix->words64_per_row();
  const std::size_t ldb = b.matrix->words64_per_row();
  const Word64* a0 = a.matrix->raw64().data() + a.row0 * lda;
  const Word64* b0 = b.matrix->raw64().data() + b.row0 * ldb;
  for (std::size_t j = 0; j < b.rows; ++j) {
    const Word64* bv = b0 + j * ldb;
    for (std::size_t i = 0; i < a.rows; ++i) {
      const Word64* av = a0 + i * lda;
      std::uint64_t acc = 0;
      for (std::size_t k = 0; k < kw; ++k) {
        acc += static_cast<std::uint64_t>(
            bits::popcount(bits::apply(op, av[k], bv[k])));
      }
      c[i * ldc + j] = static_cast<std::uint32_t>(acc);
    }
  }
}

using MicroKernelFn = void (*)(const Word64*, const Word64*, std::size_t,
                               const TileOut&);
using SkinnyKernelFn = void (*)(bits::RowWindow, bits::RowWindow,
                                std::size_t, std::uint32_t*, std::size_t);

/// Both kernels of one comparison.
struct Kernels {
  MicroKernelFn micro;
  SkinnyKernelFn skinny;
};

template <Comparison op>
constexpr Kernels kKernels{&micro_kernel<op>, &skinny_kernel<op>};

Kernels select_kernels(Comparison op) {
  switch (op) {
    case Comparison::kAnd:
      return kKernels<Comparison::kAnd>;
    case Comparison::kXor:
      return kKernels<Comparison::kXor>;
    case Comparison::kAndNot:
      return kKernels<Comparison::kAndNot>;
  }
  throw std::invalid_argument("compare_blocked: unknown comparison");
}

/// Loops 2 (n_r) and 1 (m_r) around the micro-kernel for one packed
/// m_c x n_c macro-tile. A `self` tile (one window against itself under a
/// symmetric op) skips the micro-tiles wholly below the diagonal
/// (ci >= cj + n_r), computes whole the ones that straddle it, and writes
/// each one wholly above it (ci + m_r <= cj) at (i, j) and at (j, i).
void run_macro_tile(MicroKernelFn kernel, const Word64* a_packed,
                    const Word64* b_packed, std::size_t ic, std::size_t mc,
                    std::size_t jc, std::size_t nc, std::size_t kw,
                    std::size_t m, std::size_t n, std::uint32_t* cdata,
                    std::size_t ldc, bool self, bool add) {
  constexpr std::size_t m_r = CpuBlocking::m_r;
  constexpr std::size_t n_r = CpuBlocking::n_r;
  const std::size_t col_strips = bits::ceil_div(nc, n_r);
  const std::size_t row_strips = bits::ceil_div(mc, m_r);
  std::size_t micro_tiles = 0;
  for (std::size_t js = 0; js < col_strips; ++js) {
    const Word64* b_strip = b_packed + js * kw * n_r;
    const std::size_t cj = jc + js * n_r;
    // A self tile stops at the diagonal: its row strips with
    // ci < cj + n_r.
    const std::size_t strips =
        !self ? row_strips
              : (cj + n_r <= ic ? 0
                                : std::min(row_strips, (cj + n_r - ic) / m_r));
    micro_tiles += strips;
    for (std::size_t is = 0; is < strips; ++is) {
      const std::size_t ci = ic + is * m_r;
      // (j, i) of a block wholly above the diagonal lies in a skipped
      // micro-tile, so this is its one writer.
      const bool mirror = self && ci + m_r <= cj;
      kernel(a_packed + is * kw * m_r, b_strip, kw,
             {cdata + ci * ldc + cj, mirror ? cdata + cj * ldc + ci : nullptr,
              ldc, std::min(m_r, m - ci), std::min(n_r, n - cj), add});
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

void compare_into(bits::RowWindow a, bits::RowWindow b, Comparison op,
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
  const Kernels kernels = select_kernels(op);

  const std::size_t m = a.rows;
  const std::size_t n = b.rows;
  const std::size_t k_words = bits::ceil_div(a.matrix->bit_cols(),
                                             bits::kBitsPerWord64);
  if (m == 0 || n == 0) {
    return;
  }
  if (k_words == 0) {
    // No columns: every count is zero.
    for (std::size_t i = 0; i < m; ++i) {
      std::fill_n(c + i * ldc, n, 0u);
    }
    return;
  }
  if (m < CpuBlocking::m_r) {
    // Skinny: too few rows of A to fill one micro-tile, so packing B (which
    // no other row of A would reuse) and padding A to m_r rows would cost
    // more than they save. Each participant takes n_c blocks of B's rows
    // and runs every row of A against them over the full depth.
    const std::size_t n_c = blocking.n_c;
    pool.parallel_for(bits::ceil_div(n, n_c), [&](std::size_t, std::size_t t) {
      const std::size_t jc = t * n_c;
      const bits::RowWindow block{b.matrix, b.row0 + jc,
                                  std::min(n_c, n - jc)};
      kernels.skinny(a, block, k_words, c + jc, ldc);
    });
    SNP_OBS_COUNT("cpu.wordops", m * n * k_words);
    return;
  }
  const std::size_t m_blocks = bits::ceil_div(m, blocking.m_c);
  const std::size_t tiles = m_blocks * bits::ceil_div(n, blocking.n_c);
  // One window against itself under a symmetric op is SYRK's C = A A^T:
  // gamma is symmetric, so only the tiles on or above the diagonal are
  // computed. m_c and n_c are multiples of m_r and n_r, so a micro-tile
  // starts at a row ci that m_r divides and a column cj that n_r
  // divides, and with m_r dividing n_r the mirror of a block wholly above
  // the diagonal lands in micro-tiles wholly below it.
  static_assert(CpuBlocking::n_r % CpuBlocking::m_r == 0);
  const bool self = a.matrix == b.matrix && a.row0 == b.row0 &&
                    a.rows == b.rows && op != Comparison::kAndNot;

  // Loop 4 (k_c) around one parallel loop over the 2-D grid of loops 5
  // (n_c) and 3 (m_c): each macro-tile owns a disjoint block of C, and a
  // self tile's mirrored writes land only in skipped lower micro-tiles, so
  // every entry has one writer per k_c panel and no synchronization is
  // needed; a single tile posts no helper. The first panel stores its
  // counts and later panels add theirs, so each entry is written once per
  // panel and never zeroed first. Tiles are numbered column-major, so the
  // tiles a participant takes in turn mostly share an n_c block, and it
  // repacks its B panel only when the block changes.
  std::vector<Panels> panels(pool.thread_count() + 1);
  for (std::size_t pc = 0; pc < k_words; pc += blocking.k_c) {
    const std::size_t kw = std::min(blocking.k_c, k_words - pc);
    const bool add = pc > 0;
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
        return;  // wholly below the diagonal: its mirror tile writes it
      }
      if (jc != p.b_jc) {
        pack_b(*b.matrix, b.row0 + jc, nc, pc, kw, p.b);
        p.b_jc = jc;
      }
      pack_a(*a.matrix, a.row0 + ic, mc, pc, kw, p.a);
      run_macro_tile(kernels.micro, p.a.data(), p.b.data(), ic, mc, jc, nc,
                     kw, m, n, c, ldc, self, add);
    });
  }
}

void compare_into(const bits::BitMatrix& a, const bits::BitMatrix& b,
                  Comparison op, bits::CountMatrix& c,
                  const CpuBlocking& blocking, exec::ThreadPool& pool) {
  if (c.rows() != a.rows() || c.cols() != b.rows()) {
    throw std::invalid_argument("compare_blocked: output shape mismatch");
  }
  compare_into({&a, 0, a.rows()}, {&b, 0, b.rows()}, op, c.raw().data(),
               c.cols(), blocking, pool);
}

bits::CountMatrix compare_blocked(const bits::BitMatrix& a,
                                  const bits::BitMatrix& b, Comparison op,
                                  const CpuBlocking& blocking) {
  auto c = bits::CountMatrix::for_overwrite(a.rows(), b.rows());
  compare_into(a, b, op, c, blocking);
  return c;
}

bits::CountMatrix ld_counts(const bits::BitMatrix& a,
                            const CpuBlocking& blocking) {
  return compare_blocked(a, a, Comparison::kAnd, blocking);
}

}  // namespace snp::cpu
