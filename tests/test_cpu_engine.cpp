// BLIS-like CPU engine vs the naive reference, across shapes, ops and
// blocking parameters.
#include "cpu/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bits/compare.hpp"
#include "exec/thread_pool.hpp"
#include "io/datagen.hpp"
#include "obs/obs.hpp"

namespace snp::cpu {
namespace {

using bits::Comparison;

TEST(CpuEngine, RejectsBadInput) {
  const auto a = io::random_bitmatrix(4, 64, 0.5, 1);
  const auto b = io::random_bitmatrix(4, 128, 0.5, 2);
  EXPECT_THROW((void)compare_blocked(a, b, Comparison::kAnd),
               std::invalid_argument);
  CpuBlocking bad;
  bad.m_c = 2;  // < m_r
  EXPECT_THROW((void)compare_blocked(a, a, Comparison::kAnd, bad),
               std::invalid_argument);
}

TEST(CpuEngine, EmptyDimensions) {
  const bits::BitMatrix a(0, 64);
  const bits::BitMatrix b(3, 64);
  const auto c = compare_blocked(a, b, Comparison::kAnd);
  EXPECT_EQ(c.rows(), 0u);
  EXPECT_EQ(c.cols(), 3u);
}

struct EngineCase {
  std::size_t m, n, bits;
};

class CpuEngineVsReference
    : public ::testing::TestWithParam<std::tuple<EngineCase, Comparison>> {};

TEST_P(CpuEngineVsReference, Agree) {
  const auto& [c, op] = GetParam();
  const auto a = io::random_bitmatrix(c.m, c.bits, 0.4, 101);
  const auto b = io::random_bitmatrix(c.n, c.bits, 0.6, 102);
  EXPECT_TRUE(compare_blocked(a, b, op) ==
              bits::compare_reference(a, b, op));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CpuEngineVsReference,
    ::testing::Combine(
        ::testing::Values(EngineCase{1, 1, 64},      // single micro-tile
                          EngineCase{4, 4, 256},     // exact micro-tile
                          EngineCase{5, 7, 130},     // fringe everywhere
                          EngineCase{64, 64, 512},   // one full block
                          EngineCase{65, 63, 1000},  // block + fringe
                          EngineCase{3, 130, 64},    // wide
                          EngineCase{130, 3, 64},    // tall
                          // FastID queries: m below m_r against several
                          // n_c column blocks plus a fringe.
                          EngineCase{1, 2 * 2048 + 5, 1024},
                          EngineCase{3, 2 * 2048 + 5, 1024}),
        ::testing::Values(Comparison::kAnd, Comparison::kXor,
                          Comparison::kAndNot)));

TEST(CpuEngine, DeepKCrossesPanels) {
  // K spans multiple k_c panels; accumulation across panels must be exact.
  CpuBlocking blk;
  blk.k_c = 4;  // 4-word panels force many panel iterations
  const auto a = io::random_bitmatrix(10, 2000, 0.5, 103);
  const auto b = io::random_bitmatrix(12, 2000, 0.5, 104);
  for (const auto op :
       {Comparison::kAnd, Comparison::kXor, Comparison::kAndNot}) {
    EXPECT_TRUE(compare_blocked(a, b, op, blk) ==
                bits::compare_reference(a, b, op));
  }
}

TEST(CpuEngine, TinyBlockingStillCorrect) {
  CpuBlocking blk;
  blk.m_c = 4;
  blk.n_c = 8;  // one m_r x n_r micro-tile per macro-tile
  blk.k_c = 1;
  const auto a = io::random_bitmatrix(17, 333, 0.3, 105);
  const auto b = io::random_bitmatrix(19, 333, 0.7, 106);
  EXPECT_TRUE(compare_blocked(a, b, Comparison::kXor, blk) ==
              bits::compare_reference(a, b, Comparison::kXor));
}

TEST(CpuEngine, LdCountsIsSelfAnd) {
  const auto a = io::random_bitmatrix(20, 500, 0.4, 107);
  const auto ld = ld_counts(a);
  EXPECT_TRUE(ld == bits::compare_reference(a, a, Comparison::kAnd));
  // Symmetry and diagonal-marginal invariants survive the blocked path.
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(ld.at(i, i), a.row_popcount(i));
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_EQ(ld.at(i, j), ld.at(j, i));
    }
  }
}

constexpr CpuBlocking kDefault{};

struct SelfCase {
  std::size_t n, bits;
};

class SelfComparison
    : public ::testing::TestWithParam<std::tuple<SelfCase, Comparison>> {};

std::string self_case_name(
    const ::testing::TestParamInfo<SelfComparison::ParamType>& param) {
  const auto& [c, op] = param.param;
  return "n" + std::to_string(c.n) + "_k" + std::to_string(c.bits) +
         (op == Comparison::kAnd ? "_and" : "_xor");
}

// One matrix on both sides under a symmetric op takes the triangle-only
// path: ragged n around m_r, n_r (the diagonal micro-tiles of the 4 x 8
// grid), m_c and n_c, and k across k_c.
TEST_P(SelfComparison, MatchesReference) {
  const auto& [c, op] = GetParam();
  const auto a = io::random_bitmatrix(c.n, c.bits, 0.45, 109);
  const auto expected = bits::compare_reference(a, a, op);
  CpuBlocking tiny;
  tiny.m_c = 4;
  tiny.n_c = 8;
  tiny.k_c = 1;
  EXPECT_TRUE(compare_blocked(a, a, op) == expected) << "default blocking";
  // Tiny blocking runs every case but n_c + 5 loci with k past k_c: 4 x 8
  // macro-tiles over 257 one-word panels make that 17 M tile visits (11 s
  // in a release build), and the 100-bit case already crosses tiny panels
  // at that n.
  if (c.n < kDefault.n_c || c.bits < kDefault.k_c * 64) {
    EXPECT_TRUE(compare_blocked(a, a, op, tiny) == expected)
        << "tiny blocking";
  }
}

INSTANTIATE_TEST_SUITE_P(
    CpuEngine, SelfComparison,
    ::testing::Combine(
        ::testing::ValuesIn([] {
          std::vector<SelfCase> cases;
          for (const std::size_t n :
               {std::size_t{1}, std::size_t{3}, std::size_t{4},
                std::size_t{5}, std::size_t{7}, std::size_t{8},
                std::size_t{9}, std::size_t{12}, std::size_t{63},
                std::size_t{64}, std::size_t{65}, 2 * kDefault.m_c + 3,
                kDefault.n_c + 5}) {
            for (const std::size_t bits :
                 {std::size_t{1}, std::size_t{100},
                  kDefault.k_c * 64 + 3}) {
              cases.push_back({n, bits});
            }
          }
          return cases;
        }()),
        ::testing::Values(Comparison::kAnd, Comparison::kXor)),
    self_case_name);

/// compare_into over a C first filled with all-ones words, which no count
/// of these shapes can equal.
bits::CountMatrix stored(bits::RowWindow a, bits::RowWindow b, Comparison op,
                         const CpuBlocking& blocking = kDefault,
                         exec::ThreadPool& pool = exec::host_pool()) {
  bits::CountMatrix c(a.rows, b.rows);
  std::fill(c.raw().begin(), c.raw().end(), 0xFFFFFFFFu);
  compare_into(a, b, op, c.raw().data(), b.rows, blocking, pool);
  return c;
}

TEST(CpuEngine, OtherSelfShapesTakeTheGeneralPath) {
  // AND-NOT is not symmetric, and windows of one matrix at different
  // offsets, overlapping or not, are not one operand: each must give the
  // full rectangle.
  const auto a = io::random_bitmatrix(150, 700, 0.5, 110);
  EXPECT_TRUE(compare_blocked(a, a, Comparison::kAndNot) ==
              bits::compare_reference(a, a, Comparison::kAndNot));
  struct Windows {
    std::size_t a0, a_rows, b0, b_rows;
  };
  for (const Windows w : {Windows{0, 70, 70, 70}, Windows{0, 90, 20, 90},
                          Windows{5, 70, 5, 90}, Windows{13, 137, 0, 137}}) {
    for (const auto op : {Comparison::kAnd, Comparison::kXor}) {
      EXPECT_TRUE(stored({&a, w.a0, w.a_rows}, {&a, w.b0, w.b_rows}, op) ==
                  bits::compare_reference(a.row_slice(w.a0, w.a0 + w.a_rows),
                                          a.row_slice(w.b0, w.b0 + w.b_rows),
                                          op))
          << w.a0 << "+" << w.a_rows << " vs " << w.b0 << "+" << w.b_rows;
    }
  }
}

TEST(CpuEngine, SelfComparisonSkipsTheLowerTriangle) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "telemetry compiled out (SNPCMP_OBS=OFF)";
  }
  const obs::Counter& wordops =
      obs::MetricsRegistry::global().counter("cpu.wordops");
  const auto a = io::random_bitmatrix(512, 1024, 0.5, 111);
  const auto b = io::random_bitmatrix(512, 1024, 0.5, 112);
  const std::uint64_t w0 = wordops.value();
  (void)compare_blocked(a, a, Comparison::kAnd);
  const std::uint64_t self = wordops.value() - w0;
  (void)compare_blocked(a, b, Comparison::kAnd);
  const std::uint64_t full = wordops.value() - w0 - self;
  ASSERT_GT(full, 0u);
  // 128 x 128 micro-tiles: 128 * 129 / 2 of them on or above the diagonal.
  EXPECT_LE(static_cast<double>(self), 0.55 * static_cast<double>(full))
      << self << " of " << full << " word-ops";
}

// The store epilogue (BLAS beta = 0) writes every entry of C, so nothing C
// held shows through: m and n around m_r = 4 and n_r = 8, around m_c = 64,
// and on every micro-tile of a 4 x 8 grid's diagonal when one matrix is on
// both sides; k over three k_c panels, the first stored and the others
// added; every participant of a pool writing its own tiles.
TEST(CpuEngine, StoreOverwritesEveryEntry) {
  CpuBlocking tiny;
  tiny.m_c = 4;
  tiny.n_c = 8;
  tiny.k_c = 1;
  exec::ThreadPool inline_pool(0);
  exec::ThreadPool three_workers(3);
  const std::size_t shapes[] = {1, 3, 4, 5, 7, 8, 9, 12, 65, 131};
  for (const CpuBlocking& blocking : {kDefault, tiny}) {
    const std::size_t k_bits = 2 * blocking.k_c * 64 + 3;
    std::vector<bits::BitMatrix> bs;
    for (const std::size_t n : shapes) {
      bs.push_back(io::random_bitmatrix(n, k_bits, 0.6, 127 + n));
    }
    for (const std::size_t m : shapes) {
      const auto a = io::random_bitmatrix(m, k_bits, 0.4, 113 + m);
      for (const bits::BitMatrix& b : bs) {
        const std::size_t n = b.rows();
        for (const auto op :
             {Comparison::kAnd, Comparison::kXor, Comparison::kAndNot}) {
          const auto expected = bits::compare_reference(a, b, op);
          for (exec::ThreadPool* pool : {&inline_pool, &three_workers}) {
            EXPECT_TRUE(stored({&a, 0, m}, {&b, 0, n}, op, blocking, *pool) ==
                        expected)
                << m << " x " << n << " op " << static_cast<int>(op)
                << " k_c " << blocking.k_c << " workers "
                << pool->thread_count();
          }
        }
      }
      for (const auto op :
           {Comparison::kAnd, Comparison::kXor, Comparison::kAndNot}) {
        const auto expected = bits::compare_reference(a, a, op);
        for (exec::ThreadPool* pool : {&inline_pool, &three_workers}) {
          EXPECT_TRUE(stored({&a, 0, m}, {&a, 0, m}, op, blocking, *pool) ==
                      expected)
              << "self " << m << " op " << static_cast<int>(op) << " k_c "
              << blocking.k_c << " workers " << pool->thread_count();
        }
      }
    }
  }
}

// An A of fewer than m_r rows takes the skinny path, which reads B in place
// in n_c row blocks; from m_r rows on, the blocked path packs. Both sides
// of that crossover, m = 1 ... 2 m_r, against ragged n over several n_c
// blocks and k over several k_c panels, every op, a self window (a window
// of B against itself) on both sides too, on pools of 0 and 3 workers.
TEST(CpuEngine, SkinnyAndBlockedPathsAgreeAcrossTheCrossover) {
  constexpr std::size_t m_r = CpuBlocking::m_r;
  CpuBlocking tiny;
  tiny.m_c = 4;
  tiny.n_c = 8;
  tiny.k_c = 1;
  exec::ThreadPool inline_pool(0);
  exec::ThreadPool three_workers(3);
  struct Shape {
    CpuBlocking blocking;
    std::size_t n, k_bits;
  };
  for (const Shape& s :
       {Shape{kDefault, kDefault.n_c + 5, 2 * kDefault.k_c * 64 + 3},
        Shape{tiny, 3 * tiny.n_c + 5, 3 * 64 + 5}}) {
    const auto b = io::random_bitmatrix(s.n, s.k_bits, 0.6, 131);
    for (std::size_t m = 1; m <= 2 * m_r; ++m) {
      const auto a = io::random_bitmatrix(m, s.k_bits, 0.4, 131 + m);
      const std::size_t b0 = s.n - m - 2;  // the self window's first row
      for (const auto op :
           {Comparison::kAnd, Comparison::kXor, Comparison::kAndNot}) {
        const auto expected = bits::compare_reference(a, b, op);
        const auto window = b.row_slice(b0, b0 + m);
        const auto self_expected =
            bits::compare_reference(window, window, op);
        for (exec::ThreadPool* pool : {&inline_pool, &three_workers}) {
          EXPECT_TRUE(stored({&a, 0, m}, {&b, 0, s.n}, op, s.blocking,
                             *pool) == expected)
              << m << " x " << s.n << " op " << static_cast<int>(op)
              << " k_c " << s.blocking.k_c << " workers "
              << pool->thread_count();
          EXPECT_TRUE(stored({&b, b0, m}, {&b, b0, m}, op, s.blocking,
                             *pool) == self_expected)
              << "self " << m << " op " << static_cast<int>(op) << " k_c "
              << s.blocking.k_c << " workers " << pool->thread_count();
        }
      }
    }
  }
}

TEST(CpuEngine, SkinnyPathPacksNothingAndCountsItsWordOps) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "telemetry compiled out (SNPCMP_OBS=OFF)";
  }
  auto& registry = obs::MetricsRegistry::global();
  const obs::Counter& wordops = registry.counter("cpu.wordops");
  const obs::Counter& pack_a = registry.counter("cpu.pack_a.words");
  const obs::Counter& pack_b = registry.counter("cpu.pack_b.words");
  // 2,053 profiles of 17 words: the count shows no padding of A to m_r
  // rows or of B to n_r rows.
  constexpr std::size_t kWords = 17;
  const std::size_t k_bits = kWords * 64 - 9;
  const auto b = io::random_bitmatrix(kDefault.n_c + 5, k_bits, 0.5, 141);
  for (std::size_t m = 1; m < CpuBlocking::m_r; ++m) {
    const auto a = io::random_bitmatrix(m, k_bits, 0.5, 141 + m);
    const std::uint64_t w0 = wordops.value();
    const std::uint64_t packed0 = pack_a.value() + pack_b.value();
    (void)compare_blocked(a, b, Comparison::kXor);
    EXPECT_EQ(wordops.value() - w0, m * b.rows() * kWords) << m << " rows";
    EXPECT_EQ(pack_a.value() + pack_b.value(), packed0) << m << " rows";
  }
  // From m_r rows on, the blocked path packs.
  const auto a = io::random_bitmatrix(CpuBlocking::m_r, k_bits, 0.5, 145);
  const std::uint64_t packed0 = pack_a.value() + pack_b.value();
  (void)compare_blocked(a, b, Comparison::kXor);
  EXPECT_GT(pack_a.value() + pack_b.value(), packed0);
}

TEST(CpuEngine, StoreWithoutColumnsGivesZeros) {
  // No bit columns means no k_c panel: a store must still zero C.
  const bits::BitMatrix a(5, 0);
  const bits::BitMatrix b(9, 0);
  exec::ThreadPool three_workers(3);
  for (const auto op :
       {Comparison::kAnd, Comparison::kXor, Comparison::kAndNot}) {
    EXPECT_TRUE(stored({&a, 0, 5}, {&b, 0, 9}, op, kDefault, three_workers) ==
                bits::CountMatrix(5, 9));
    EXPECT_TRUE(stored({&a, 0, 5}, {&a, 0, 5}, op, kDefault, three_workers) ==
                bits::CountMatrix(5, 5));
    EXPECT_TRUE(compare_blocked(a, b, op) == bits::CountMatrix(5, 9));
  }
}

TEST(CpuEngine, DensityExtremes) {
  const auto zeros = bits::BitMatrix(6, 256);
  const auto ones = io::random_bitmatrix(6, 256, 1.0, 108);
  const auto c0 = compare_blocked(zeros, ones, Comparison::kAnd);
  const auto c1 = compare_blocked(ones, ones, Comparison::kAnd);
  const auto cx = compare_blocked(ones, ones, Comparison::kXor);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(c0.at(i, j), 0u);
      EXPECT_EQ(c1.at(i, j), 256u);
      EXPECT_EQ(cx.at(i, j), 0u);
    }
  }
}

}  // namespace
}  // namespace snp::cpu
